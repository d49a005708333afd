"""Deterministic tokenization of raw strings into token multisets.

A token is a plain ``str`` (never empty, never containing a separator). A
record is a :class:`TokenizedString`: an opaque id plus the token multiset
with cached aggregate length and token count. Duplicate tokens are preserved;
token order is the left-to-right emission order. The exact distance ignores
it, but the greedy one breaks ties by it (see :func:`setdist.sld_greedy`).
:func:`tokenize_all` is the one definition of how text becomes records, in
whole-text passes; :func:`tokenize` is its one-record call.

The passes, in order, over chunks of 16,384 raws: the raws are joined with
LF (an LF inside a raw first becomes a space), the text is lowercased if
asked, ``whitespace-punct`` maps the 32 ASCII punctuation characters to spaces
with one ``bytes.translate`` of the text's UTF-8, and the text is cut back
into raws at LF, each split by ``str.split()``. LF and space are whitespace to
both schemes and neither cased nor case-ignorable, so joining changes no token
and no lowercasing. Lowercasing comes before the translate because ASCII
punctuation such as ``.`` is case-ignorable: ``"ΑΣ.Β"`` lowercases to
``ασ.β``, while a space in the dot's place would end the word and make the
sigma final (``ας β``).

The translate runs on bytes because ``str.translate`` is fast only on a text
that is all ASCII: one character past U+007F anywhere (``José``) sends the
whole text down a per-character dict lookup, slower than a regex per raw.
ASCII bytes never occur inside a multi-byte UTF-8 sequence, so the byte table
maps exactly the punctuation, and ``surrogatepass`` carries a lone surrogate
through the round trip. The chunks keep the passes' copies of the text to one
chunk's size at any corpus size, so a character past U+00FF, which widens a
str to 2 or 4 bytes per character, widens only its own chunk's copies.
"""

from __future__ import annotations

import string
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import repeat

Token = str

WHITESPACE = "whitespace"
WHITESPACE_PUNCT = "whitespace-punct"
TOKENIZER_SCHEMES = (WHITESPACE, WHITESPACE_PUNCT)

# ASCII punctuation to spaces, as a table over UTF-8 bytes; str.split() then
# cuts at it as at Unicode whitespace (str.isspace, the set \s matches in a
# str pattern).
_PUNCT_TO_SPACE = bytes.maketrans(string.punctuation.encode(), b" " * len(string.punctuation))

# Raws per whole-text pass (see the module docstring).
_CHUNK = 1 << 14


@dataclass(frozen=True, slots=True)
class TokenizedString:
    """A record id plus its token multiset, with cached aggregate sizes."""

    id: str
    tokens: tuple[Token, ...]
    agg_len: int
    token_count: int

    @classmethod
    def from_tokens(cls, record_id: str, tokens: tuple[Token, ...] | list[Token]) -> "TokenizedString":
        toks = tuple(tokens)
        return cls(record_id, toks, len("".join(toks)), len(toks))

    def check_caches(self) -> None:
        """Assert the cached aggregates match recomputation (test hook)."""
        assert self.agg_len == sum(len(t) for t in self.tokens)
        assert self.token_count == len(self.tokens)


# The slot descriptors in field order: tokenize_all stores each field of every
# record through them, past the frozen __setattr__.
_SLOTS = (TokenizedString.id, TokenizedString.tokens, TokenizedString.agg_len, TokenizedString.token_count)


def tokenize(
    raw: str,
    scheme: str = WHITESPACE_PUNCT,
    *,
    record_id: str = "",
    lowercase: bool = False,
) -> TokenizedString:
    """Split ``raw`` into tokens along the scheme's separator set.

    ``whitespace`` splits on Unicode whitespace; ``whitespace-punct``
    additionally treats ASCII punctuation as separators. Separators are
    discarded and empty runs dropped, so empty input yields an empty multiset.
    No case folding unless ``lowercase`` is set.
    """
    return tokenize_all((raw,), (record_id,), scheme, lowercase=lowercase)[0]


def tokenize_all(
    raws: Iterable[str],
    ids: Iterable[str],
    scheme: str = WHITESPACE_PUNCT,
    *,
    lowercase: bool = False,
) -> list[TokenizedString]:
    """The record of each raw string, split as :func:`tokenize` says, with the id in the same place.

    The raws are tokenized in the whole-text passes of the module docstring,
    one chunk of raws at a time.
    Each record is made by ``object.__new__`` and its fields are stored by
    one ``map`` of the field's slot descriptor over all the records, so no
    Python code runs per record. The aggregate length is
    ``len("".join(tokens))``, as in :meth:`TokenizedString.from_tokens`.
    Raises ``ValueError`` for an unknown scheme, even with no strings, and
    when ``raws`` and ``ids`` differ in length.
    """
    if scheme not in TOKENIZER_SCHEMES:
        raise ValueError(f"unknown tokenizer scheme {scheme!r}")
    raws = list(raws)
    ids = list(ids)
    if len(ids) != len(raws):
        raise ValueError(f"{len(raws)} raw strings but {len(ids)} ids")
    tokens: list[tuple[Token, ...]] = []
    for start in range(0, len(raws), _CHUNK):
        tokens += _token_tuples(raws[start : start + _CHUNK], scheme, lowercase)
    records = list(map(object.__new__, repeat(TokenizedString, len(raws))))
    for slot, values in zip(_SLOTS, (ids, tokens, map(len, map("".join, tokens)), map(len, tokens))):
        deque(map(slot.__set__, records, values), maxlen=0)
    return records


def _token_tuples(raws: list[str], scheme: str, lowercase: bool) -> list[tuple[Token, ...]]:
    """The tokens of each of ``raws`` (at least one), by the whole-text passes of the module docstring."""
    text = "\n".join(raws)
    if text.count("\n") != len(raws) - 1:
        text = "\n".join([raw.replace("\n", " ") for raw in raws])
    if lowercase:
        text = text.lower()
    if scheme == WHITESPACE_PUNCT:
        text = text.encode("utf-8", "surrogatepass").translate(_PUNCT_TO_SPACE).decode("utf-8", "surrogatepass")
    return list(map(tuple, map(str.split, text.split("\n"))))
