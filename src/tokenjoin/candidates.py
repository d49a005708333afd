"""Similar-token search and the specification of the posting lists.

The join (:mod:`pipeline`) reaches candidate record pairs by two routes
through each side's posting lists: record pairs sharing a kept token, and
record pairs holding a pair of distinct similar kept tokens. Together (with
no frequency cap) they reach every record pair within the join threshold.
This module finds the similar token pairs: :class:`NldIndex` indexes each
token's even partition segments and probes with position-restricted
substrings of the other side's tokens, and :func:`similar_token_pairs` runs
the probes the join runs. :func:`build_token_space` states the posting lists
as plain values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Hashable, Iterable, Sequence

from .errors import DataError, NotPartitionable
from .setdist import LdCache
from .strdist import max_ld_given_nld, threshold_ratio
from .textnorm import TokenizedString

RecordId = Hashable
# one lookup of a probe plan: (segment table, slice start, slice end, LD cap)
PlanEntry = tuple[dict[str, list[str]], int, int, int]


def build_token_space(
    corpus: Sequence[TokenizedString], max_freq: int | float = math.inf
) -> dict[str, tuple[RecordId, ...]]:
    """Each token held by at most ``max_freq`` records, mapped to their sorted ids.

    The specification of one side's posting lists: a token repeated in a
    record counts once, and a capped token stays in its records (verification
    sees the full multisets) but generates no candidates.
    """
    if max_freq < 1:
        raise ValueError("max_freq must be >= 1")
    if len({rec.id for rec in corpus}) < len(corpus):
        raise DataError("duplicate record id")
    postings: dict[str, set[RecordId]] = {}
    for rec in corpus:
        for tok in rec.tokens:
            postings.setdefault(tok, set()).add(rec.id)
    return {tok: tuple(sorted(ids)) for tok, ids in sorted(postings.items()) if len(ids) <= max_freq}


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
    tokens_r: Sequence[str],
    tokens_p: Sequence[str] | None,
    threshold: float,
    ld_cache: LdCache,
) -> tuple[int, list[tuple[str, str]]]:
    """The number of probes and the distinct pairs of distinct similar tokens.

    ``tokens_p`` of None selects a self-join: one index over ``tokens_r``,
    each pair keyed ``(len, str)``-ordered. A two-set join probes each side's
    tokens against the other side's index and keys each pair (left token,
    right token). Either way an equal-length pair is found twice and kept
    once, in first-found order. A token is never paired with itself: identical
    tokens are the shared-token route's job. A token whose plan is empty has
    no distinct partner on that index and is not probed. Every edit distance
    is looked up through ``ld_cache``.
    """
    index_r = NldIndex(tokens_r, threshold)
    if tokens_p is None:
        directions = [(index_r, tokens_r, lambda x, y: (x, y) if (len(x), x) <= (len(y), y) else (y, x))]
    else:
        index_p = NldIndex(tokens_p, threshold)
        # a right token's hits on the left index are (right, left) pairs
        directions = [(index_r, tokens_p, lambda x, y: (y, x)), (index_p, tokens_r, lambda x, y: (x, y))]
    n_probes = 0
    pairs: dict[tuple[str, str], None] = {}
    for index, tokens, key in directions:
        for x in tokens:
            if index.plan(len(x)):
                n_probes += 1
                for _, y, _ in index.probe(x, ld_cache):
                    pairs[key(x, y)] = None
    return n_probes, list(pairs)
