"""Deterministic tokenization of raw strings into token multisets.

A token is a plain ``str`` (never empty, never containing a separator). A
record is a :class:`TokenizedString`: an opaque id plus the token multiset
with cached aggregate length and token count. Duplicate tokens are preserved;
token order is the left-to-right emission order. The exact distance ignores
it, but the greedy one breaks ties by it (see :func:`setdist.sld_greedy`).
:func:`tokenize_all` is the one definition of how text becomes records, one
record per LF-separated line of a text; :func:`tokenize` is its one-record
call, an LF inside its raw string read as a space.

The passes, in order, over chunks of about ``_CHUNK`` characters, each cut at
an LF: the chunk is lowercased if asked, ``whitespace-punct`` maps the 32
ASCII punctuation characters to spaces with one ``bytes.translate`` of the
chunk's UTF-8, and the chunk is cut into lines at LF, each split by
``str.split()``. LF is whitespace to both schemes and neither cased nor
case-ignorable, so splitting a whole chunk changes no token and no lowercasing
against splitting line by line. Lowercasing comes before the translate
because ASCII punctuation such as ``.`` is case-ignorable: ``"ΑΣ.Β"``
lowercases to ``ασ.β``, while a space in the dot's place would end the word
and make the sigma final (``ας β``).

The translate runs on bytes because ``str.translate`` is fast only on a text
that is all ASCII: one character past U+007F anywhere (``José``) sends the
whole text down a per-character dict lookup, slower than a regex per line.
ASCII bytes never occur inside a multi-byte UTF-8 sequence, so the byte table
maps exactly the punctuation, and ``surrogatepass`` carries a lone surrogate
through the round trip. Counting the chunks in characters keeps the passes'
copies to one chunk's size whatever the corpus size and line lengths, and a
slice is as narrow as its own characters, so a character past U+00FF, which
widens a str to 2 or 4 bytes per character, widens only its own chunk's
copies.
"""

from __future__ import annotations

import string
from collections import deque
from collections.abc import Sequence
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

# Characters per whole-text pass, before the cut at the next LF (see the
# module docstring).
_CHUNK = 1 << 19


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
    return tokenize_all(raw.replace("\n", " "), (record_id,), scheme, lowercase=lowercase)[0]


def tokenize_all(
    text: str,
    ids: Sequence[str],
    scheme: str = WHITESPACE_PUNCT,
    *,
    lowercase: bool = False,
) -> list[TokenizedString]:
    """The record of each LF-separated line of ``text``, split as :func:`tokenize` says, with the id in the same place.

    ``text`` holds one line per id, so ``len(ids) - 1`` LFs, except that
    the empty text holds no lines when no ids come with it: any list of raws
    without an LF, the empty list too, are the lines of the raws joined with
    LF. The lines are tokenized in the whole-text passes of the module
    docstring, one chunk at a time.
    Each record is made by ``object.__new__`` and its fields are stored by
    one ``map`` of the field's slot descriptor over all the records, so no
    Python code runs per record. The aggregate length is
    ``len("".join(tokens))``, as in :meth:`TokenizedString.from_tokens`.
    Raises ``ValueError`` for an unknown scheme, even with no lines, and
    when the lines and ids differ in number.
    """
    if scheme not in TOKENIZER_SCHEMES:
        raise ValueError(f"unknown tokenizer scheme {scheme!r}")
    tokens: list[tuple[Token, ...]] = []
    start = 0
    while start <= len(text):
        end = text.find("\n", start + _CHUNK)
        if end < 0:
            end = len(text)
        chunk = text[start:end]
        if lowercase:
            chunk = chunk.lower()
        if scheme == WHITESPACE_PUNCT:
            chunk = chunk.encode("utf-8", "surrogatepass").translate(_PUNCT_TO_SPACE).decode("utf-8", "surrogatepass")
        tokens += map(tuple, map(str.split, chunk.split("\n")))
        start = end + 1
    if len(tokens) != len(ids) and (ids or text):
        raise ValueError(f"{len(tokens)} lines but {len(ids)} ids")
    records = list(map(object.__new__, repeat(TokenizedString, len(ids))))
    for slot, values in zip(_SLOTS, (ids, tokens, map(len, map("".join, tokens)), map(len, tokens))):
        deque(map(slot.__set__, records, values), maxlen=0)
    return records
