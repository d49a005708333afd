"""Deterministic tokenization of raw strings into token multisets.

A token is a plain ``str`` (never empty, never containing a separator). A
record is a :class:`TokenizedString`: an opaque id plus the token multiset
with cached aggregate length and token count. Duplicate tokens are preserved;
token order is the left-to-right emission order. The exact distance ignores
it, but the greedy one breaks ties by it (see :func:`setdist.sld_greedy`).
:func:`tokenize_all` is the one definition of how text becomes records, in
whole-list passes; :func:`tokenize` is its one-record call.
"""

from __future__ import annotations

import re
import string
from collections.abc import Iterable
from dataclasses import dataclass

Token = str

WHITESPACE = "whitespace"
WHITESPACE_PUNCT = "whitespace-punct"
TOKENIZER_SCHEMES = (WHITESPACE, WHITESPACE_PUNCT)

# Maximal runs of characters that are neither Unicode whitespace nor ASCII
# punctuation. \s in a str pattern already covers Unicode whitespace.
_WORD_PUNCT_RE = re.compile(rf"[^\s{re.escape(string.punctuation)}]+")


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

    Each pass (lowercasing, splitting, the aggregates, building the records)
    is one ``map`` over all the strings, so the only Python code run per
    record is the record's own ``__init__``. The aggregate length is
    ``len("".join(tokens))``, as in :meth:`TokenizedString.from_tokens`.
    An unknown scheme raises ``ValueError`` even with no strings.
    """
    if scheme == WHITESPACE:
        split = str.split
    elif scheme == WHITESPACE_PUNCT:
        split = _WORD_PUNCT_RE.findall
    else:
        raise ValueError(f"unknown tokenizer scheme {scheme!r}")
    if lowercase:
        raws = map(str.lower, raws)
    tokens = list(map(tuple, map(split, raws)))
    return list(map(TokenizedString, ids, tokens, map(len, map("".join, tokens)), map(len, tokens)))
