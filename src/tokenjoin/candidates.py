"""Candidate-pair generation.

Two routes feed verification. The shared-token route groups records through an
inverted index of their tokens. The similar-token route finds all pairs of
distinct tokens whose normalized edit distance is within the threshold by
indexing each token's even partition segments and probing with
position-restricted substrings of the other side's tokens, then expands the
surviving token pairs through the posting lists. Together (with no frequency
cap) they reach every record pair within the join threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import DataError, NotPartitionable
from .setdist import LdCache
from .strdist import max_ld_given_nld, threshold_ratio
from .textnorm import TokenizedString

SHARED_TOKEN = "shared-token"
SIMILAR_TOKEN = "similar-token"

RecordId = Hashable
# one lookup of a probe plan: (segment table, slice start, slice end, LD cap)
PlanEntry = tuple[dict[str, list[str]], int, int, int]


@dataclass(frozen=True, slots=True)
class CandidatePair:
    """A record pair surviving generation, not yet verified."""

    left_id: RecordId
    right_id: RecordId
    left_len: int
    right_len: int
    source: str


@dataclass(frozen=True, slots=True)
class TokenSpace:
    """Distinct tokens of a corpus mapped to the sorted ids containing them."""

    entries: dict[str, tuple[RecordId, ...]]

    def frequency(self, token: str) -> int:
        return len(self.entries.get(token, ()))


def build_token_space(
    corpus: Sequence[TokenizedString], max_freq: int | float = math.inf
) -> TokenSpace:
    """Invert the corpus, dropping tokens present in more than ``max_freq`` records.

    Capped tokens stay inside the records themselves (verification always sees
    the full multisets); they just stop generating candidates.
    """
    if max_freq < 1:
        raise ValueError("max_freq must be >= 1")
    seen_ids: set[RecordId] = set()
    postings: dict[str, set[RecordId]] = {}
    for rec in corpus:
        if rec.id in seen_ids:
            raise DataError(f"duplicate record id {rec.id!r}")
        seen_ids.add(rec.id)
        for tok in rec.tokens:
            bucket = postings.get(tok)
            if bucket is None:
                postings[tok] = {rec.id}
            else:
                bucket.add(rec.id)
    entries = {
        tok: tuple(sorted(ids))
        for tok, ids in sorted(postings.items())
        if len(ids) <= max_freq
    }
    return TokenSpace(entries)


def shared_token_candidates(
    space_r: TokenSpace,
    space_p: TokenSpace,
    self_join: bool,
    lengths: Mapping[RecordId, int],
) -> Iterator[CandidatePair]:
    """Emit every id pair co-occurring in some token's posting lists.

    Self-joins enumerate each unordered pair once per shared token (duplicates
    across tokens are the dedup stage's job); two-set joins cross the two
    posting lists per token.
    """
    if self_join:
        for postings in space_r.entries.values():
            n = len(postings)
            for i in range(n - 1):
                left = postings[i]
                for j in range(i + 1, n):
                    right = postings[j]
                    yield CandidatePair(left, right, lengths[left], lengths[right], SHARED_TOKEN)
    else:
        for tok, postings_r in space_r.entries.items():
            postings_p = space_p.entries.get(tok)
            if not postings_p:
                continue
            for left in postings_r:
                llen = lengths[left]
                for right in postings_p:
                    yield CandidatePair(left, right, llen, lengths[right], SHARED_TOKEN)


@lru_cache(maxsize=None)
def segment_layout(length: int, u: int) -> tuple[tuple[int, int], ...]:
    """(start, length) of each of the u+1 even segments of a token this long.

    The first ``length mod (u+1)`` segments take the ceiling length, the rest
    the floor, so shortest and longest differ by at most one.
    """
    if u < 0:
        raise ValueError("u must be >= 0")
    parts = u + 1
    if length < parts:
        raise NotPartitionable(f"cannot split length {length} into {parts} non-empty segments")
    base, extra = divmod(length, parts)
    layout = []
    start = 0
    for slot in range(parts):
        seg_len = base + 1 if slot < extra else base
        layout.append((start, seg_len))
        start += seg_len
    return tuple(layout)


def partition_even(token: str, u: int) -> list[str]:
    """Split ``token`` into u+1 contiguous non-empty segments of even length."""
    return [token[start : start + seg_len] for start, seg_len in segment_layout(len(token), u)]


@lru_cache(maxsize=None)
def partner_len_ceiling(x_len: int, threshold: float) -> int:
    """Largest partner length |y| >= |x| allowed by the length-condition.

    ceil((1-T)*|y|) <= |x| holds exactly for |y| <= floor(|x|/(1-T)); exact
    rational arithmetic as everywhere else.
    """
    t = Fraction(threshold)
    if not 0 <= t < 1:
        raise ValueError(f"threshold must be in [0, 1), got {threshold!r}")
    return math.floor(Fraction(x_len) / (1 - t))


class NldIndex:
    """Segment index over one side's tokens for the similar-token search.

    Finds only *distinct* similar tokens: a token whose length allows no edit
    within the threshold (``U = 0``) can match only itself, so it is not
    indexed, and a probe never returns its own token. Identical tokens are the
    shared-token route's job.

    Each indexed length keeps one table per segment slot, keyed by the segment
    string. A token too short for ``U+1`` non-empty segments sits whole under
    the empty segment of slot 0, which every probe of an admissible length
    reads. Probes of one length share a plan (:meth:`plan`) that is built once.
    """

    __slots__ = ("threshold", "segments", "_plans")

    def __init__(self, tokens: Iterable[str], threshold: float):
        self.threshold = threshold
        # token length -> [(start, seg_len, {segment: tokens})], one per slot
        self.segments: dict[int, list[tuple[int, int, dict[str, list[str]]]]] = {}
        self._plans: dict[int, tuple[PlanEntry, ...]] = {}
        for tok in tokens:
            length = len(tok)
            slots = self.segments.get(length)
            if slots is None:
                u = max_ld_given_nld(length, threshold, True)
                if u == 0:
                    layout = ()
                elif length > u:
                    layout = segment_layout(length, u)
                else:
                    layout = ((0, 0),)
                slots = self.segments[length] = [(start, seg_len, {}) for start, seg_len in layout]
            for start, seg_len, table in slots:
                seg = tok[start : start + seg_len]
                bucket = table.get(seg)
                if bucket is None:
                    table[seg] = [tok]
                else:
                    bucket.append(tok)

    def plan(self, x_len: int) -> tuple[PlanEntry, ...]:
        """The ``(table, a, b, pair_cap)`` lookups of a probe this long.

        A probe ``x`` reads ``table.get(x[a:b])`` and verifies each hit within
        ``pair_cap``. Built on first use and kept; empty when no indexed token
        can be a distinct partner of a token this long.
        """
        plan = self._plans.get(x_len)
        if plan is None:
            plan = self._plans[x_len] = self._build_plan(x_len)
        return plan

    def _build_plan(self, x_len: int) -> tuple[PlanEntry, ...]:
        t = self.threshold
        num, den = threshold_ratio(t)
        entries: list[PlanEntry] = []
        for y_len in range(x_len, partner_len_ceiling(x_len, t) + 1):
            slots = self.segments.get(y_len)
            if not slots:
                continue
            u = max_ld_given_nld(y_len, t, True)
            delta = x_len - y_len
            # nld(x, y) <= T exactly when ld(x, y) <= num·(|x|+|y|) // (2·den − num)
            pair_cap = num * (x_len + y_len) // (2 * den - num)
            for slot, (start, seg_len, table) in enumerate(slots):
                # multi-match-aware window (PassJoin): some matching segment
                # has at most ``slot`` edits before it and ``u − slot`` after it
                p_lo = max(start - slot, start + delta - (u - slot), 0)
                p_hi = min(start + slot, start + delta + (u - slot), x_len - seg_len)
                entries.extend((table, p, p + seg_len, pair_cap) for p in range(p_lo, p_hi + 1))
        return tuple(entries)

    def probe(self, x: str, ld_cache: LdCache) -> list[tuple[str, str, int]]:
        """All indexed tokens y != x with |y| >= |x| and nld(x, y) within threshold."""
        seen = {x}
        found = []
        for table, a, b, pair_cap in self.plan(len(x)):
            hits = table.get(x[a:b])
            if hits:
                for y in hits:
                    if y not in seen:
                        seen.add(y)
                        d = ld_cache.bounded(x, y, pair_cap)
                        if d is not None:
                            found.append((x, y, d))
        return found


def similar_token_pairs(
    space_r: TokenSpace,
    space_p: TokenSpace,
    threshold: float,
    self_join: bool,
) -> list[tuple[str, str, int]]:
    """Exactly the pairs of distinct tokens across the two spaces within threshold.

    A token is never paired with itself, in either join shape: identical tokens
    are the shared-token route's job. Self-joins run the single |x| <= |y|
    direction over one space and emit each unordered pair once, shorter (then
    lexicographically smaller) token first; two-set joins run both role
    assignments and emit (r-side, p-side) tuples.
    """
    cache = LdCache()
    pairs: dict[tuple[str, str], int] = {}
    if self_join:
        index = NldIndex(space_r.entries.keys(), threshold)
        for x in space_r.entries:
            for _, y, d in index.probe(x, cache):
                key = (x, y) if (len(x), x) <= (len(y), y) else (y, x)
                pairs[key] = d
    else:
        index_r = NldIndex(space_r.entries.keys(), threshold)
        for x in space_p.entries:
            for _, y, d in index_r.probe(x, cache):
                pairs[(y, x)] = d
        index_p = NldIndex(space_p.entries.keys(), threshold)
        for x in space_r.entries:
            for _, y, d in index_p.probe(x, cache):
                pairs[(x, y)] = d
    return sorted((tr, tp, d) for (tr, tp), d in pairs.items())


def similar_token_candidates(
    pairs: Iterable[tuple[str, str, int]],
    space_r: TokenSpace,
    space_p: TokenSpace,
    self_join: bool,
    lengths: Mapping[RecordId, int],
) -> Iterator[CandidatePair]:
    """Expand pairs of distinct similar tokens through the posting lists into record pairs."""
    if self_join:
        for tok_a, tok_b, _ in pairs:
            postings_a = space_r.entries.get(tok_a)
            postings_b = space_r.entries.get(tok_b)
            if not postings_a or not postings_b:
                continue
            for a in postings_a:
                for b in postings_b:
                    if a == b:
                        continue
                    left, right = (a, b) if a < b else (b, a)
                    yield CandidatePair(left, right, lengths[left], lengths[right], SIMILAR_TOKEN)
    else:
        for tok_r, tok_p, _ in pairs:
            postings_r = space_r.entries.get(tok_r)
            postings_p = space_p.entries.get(tok_p)
            if not postings_r or not postings_p:
                continue
            for left in postings_r:
                llen = lengths[left]
                for right in postings_p:
                    yield CandidatePair(left, right, llen, lengths[right], SIMILAR_TOKEN)
