"""Deterministic tokenization of raw strings into token multisets.

A token is a plain ``str`` (never empty, never containing a separator). A
record is a :class:`TokenizedString`: an opaque id plus the token multiset
with cached aggregate length and token count. Duplicate tokens are preserved;
token order is the left-to-right emission order. The exact distance ignores
it, but the greedy one breaks ties by it (see :func:`setdist.sld_greedy`).
"""

from __future__ import annotations

import re
import string
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
        return cls(record_id, toks, sum(len(t) for t in toks), len(toks))

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
    if lowercase:
        raw = raw.lower()
    if scheme == WHITESPACE:
        tokens = raw.split()
    elif scheme == WHITESPACE_PUNCT:
        tokens = _WORD_PUNCT_RE.findall(raw)
    else:
        raise ValueError(f"unknown tokenizer scheme {scheme!r}")
    return TokenizedString.from_tokens(record_id, tokens)
