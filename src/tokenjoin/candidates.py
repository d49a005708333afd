"""Similar-token search and the specification of the posting lists.

The join (:mod:`pipeline`) reaches candidate record pairs by two routes
through each side's posting lists: record pairs sharing a kept token, and
record pairs holding a pair of distinct similar kept tokens. Together (with
no frequency cap) they reach every record pair within the join threshold.
This module finds the similar token pairs with PassJoin's segment join, run
as numpy array code over the join's interned vocabulary, whose code points
the join lays out once in a :class:`strdist.TokenTable`. :class:`NldIndex`
keeps each indexed token's even partition segments as 64-bit keys in one
sorted array: a polynomial hash of the segment's code points, read from
the table's rows, tagged with the token's length and the segment's slot;
each distinct key is kept once, with its run of tokens.
:func:`similar_token_pairs` builds one index over the tokens kept on either
side, self-join or not, and looks up the position-restricted substrings of
all its tokens: a token's own segment at its own slot hits the other
tokens of its run, so those lookups are answered from the runs, and all
the shifted ones are searched at once. It keeps each pair's hits from one
of its tokens, de-duplicates them as packed token-id pairs and checks
every edit distance in one :func:`strdist.ld_bounded_ids` call on the same
table; it returns token ids, and hands no distance on to verify. Every length bound and edit
cap it reads comes from the join's :class:`strdist.Bounds`.
Equal segments always get equal keys, so no pair is lost; a hash collision
only adds a candidate, which the exact check rejects unless it is a true
pair that the segment join finds anyway. :func:`build_token_space` states
the posting lists as plain values. :func:`ranges` (runs of positions),
:func:`pairs_within` (pairs within runs) and :func:`sorted_distinct` are
the array idioms this module shares with :mod:`pipeline`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataError, NotPartitionable
from .setdist import LdCache
from .strdist import Bounds, TokenTable, ld_bounded_ids, threshold_bounds, token_table
from .textnorm import TokenizedString

RecordId = Hashable

# a packed pair is (left << 32) | right, and this mask takes its right half
_PACK_MASK = 0xFFFFFFFF
_U64 = (1 << 64) - 1
# a segment's key is the polynomial hash of its code points in this odd base,
# modulo 2**64, plus its (indexed length, slot) tag times an odd multiplier
_HASH_BASE = 0x9E3779B97F4A7C15
_TAG_MIX = 0xD6E8FEB86659FD93


def build_token_space(
    corpus: Sequence[TokenizedString], max_freq: int | float = math.inf
) -> dict[str, tuple[RecordId, ...]]:
    """Each token held by at most ``max_freq`` records, mapped to their sorted ids.

    The specification of one side's posting lists: a token repeated in a
    record counts once, a capped token stays in its records (verification
    sees the full multisets) but generates no candidates, and a record of
    aggregate length 0 holds no postings (the join pairs such records apart).
    """
    if max_freq < 1:
        raise ValueError("max_freq must be >= 1")
    if len({rec.id for rec in corpus}) < len(corpus):
        raise DataError("duplicate record id")
    postings: dict[str, set[RecordId]] = {}
    for rec in corpus:
        for tok in rec.tokens if rec.agg_len else ():
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


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(s, s + n)`` over the pairs ``(s, n)``.

    Built as one running sum: steps of 1 within a range, and a jump from the
    end of one range to the start of the next.
    """
    nonempty = lengths > 0
    starts, lengths = starts[nonempty], lengths[nonempty]
    out = np.ones(int(lengths.sum()), dtype=np.int64)
    if out.size:
        out[0] = starts[0]
        out[np.cumsum(lengths[:-1])] = starts[1:] - starts[:-1] - lengths[:-1] + 1
        np.cumsum(out, out=out)
    return out


def pairs_within(rows: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows[i], rows[j])`` of every i < j within one run ``[s, s + n)`` of ``(starts, counts)``.

    Pairs come run after run, then by i, then by j.
    """
    at = ranges(starts, counts)
    after = np.repeat(starts + counts, counts) - at - 1
    return np.repeat(rows[at], after), rows[ranges(at + 1, after)]


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of ``values``, ascending; sorts ``values`` in place.

    Keeps the first of each run of equal values (``np.unique`` would import
    ``numpy.ma`` into every process that joins).
    """
    values.sort()
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


@dataclass(slots=True)
class SimilarStats:
    """Counters of one similar-token search.

    ``probes`` tokens had a non-empty plan and looked up ``probe_keys``
    segment keys in all, the own lookups (:class:`Plan`) included, which
    are answered from the index's runs, not searched; in a two-set join
    the probes are tokens kept on either side. The hits held
    ``candidates`` distinct unordered pairs of distinct tokens, each hit
    from one of its tokens (:meth:`NldIndex.probe_all`), in a two-set join
    also the pairs of two tokens kept on one side only.
    The ``ld_checks`` of them that a self-join keeps, or that pair a
    left-kept token with a right-kept one in a two-set join, went to
    ``ld_bounded_ids``, whose kernel ran ``ld_kernel_runs`` of them (it
    settles the others by their lengths, caps or character signatures), and
    ``pairs`` (ordered, in a two-set join) were within the threshold.
    ``index_ms`` is the time spent building the index.
    """

    probes: int = 0
    probe_keys: int = 0
    candidates: int = 0
    ld_checks: int = 0
    ld_kernel_runs: int = 0
    pairs: int = 0
    index_ms: float = 0.0


class Plan(NamedTuple):
    """Segment lookups: lookup i reads ``token[starts[i]:ends[i]]`` under the tag ``tags[i]``.

    ``shifts[i]`` is the hash base to the power of the segment's length.
    ``own[i]`` marks a lookup of a token's own segment: the indexed length
    is the token's, and the substring starts where its slot does, so the
    key is the token's own index key for that slot.
    """

    starts: np.ndarray
    ends: np.ndarray
    shifts: np.ndarray
    tags: np.ndarray
    own: np.ndarray


def _plan(lookups: list[tuple[int, int, int, int, bool]]) -> Plan:
    """The :class:`Plan` of ``(indexed length, slot, start, end, own)`` lookups."""
    length, slot, starts, ends, own = np.array(lookups, dtype=np.int64).reshape(-1, 5).T
    seg_lens = ends - starts
    powers = [1]
    for _ in range(int(seg_lens.max(initial=0))):
        powers.append(powers[-1] * _HASH_BASE & _U64)
    tags = (length.astype(np.uint64) << np.uint64(32) | slot.astype(np.uint64)) * np.uint64(_TAG_MIX)
    return Plan(starts, ends, np.array(powers, dtype=np.uint64)[seg_lens], tags, own.astype(bool))


def _prefix_hashes(codes: np.ndarray) -> np.ndarray:
    """Column i, row j: the hash of the first j code points of row i of ``codes``."""
    n_tokens, length = codes.shape
    out = np.zeros((length + 1, n_tokens), dtype=np.uint64)
    codes = codes.T.astype(np.uint64, order="C")
    base = np.uint64(_HASH_BASE)
    for j in range(length):
        np.multiply(out[j], base, out=out[j + 1])
        out[j + 1] += codes[j]
    return out


def _segment_keys(prefix: np.ndarray, plan: Plan) -> np.ndarray:
    """Row i: the key of lookup i's segment of each token whose prefix hashes are ``prefix``.

    The hash of ``token[a:b]`` is ``prefix[b] - prefix[a]·base**(b - a)``
    modulo 2**64.
    """
    keys = prefix[plan.starts] * plan.shifts[:, None]
    np.subtract(prefix[plan.ends], keys, out=keys)
    keys += plan.tags[:, None]
    return keys


def _searched(lens: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Which of the token lengths ``lens`` are indexed or probed.

    A token of length l has partners up to length ``ceiling[l]``, and ``U``
    grows with the length, so it has a distinct partner within the
    threshold only if ``U(ceiling[l]) = cost_cap[2·ceiling[l]]`` is at least
    1. At T = 0.1 that takes nine characters.
    """
    return bounds.cost_cap[2 * bounds.ceiling[lens]] > 0


class NldIndex:
    """Segment index over distinct tokens for the similar-token search.

    Finds only *distinct* similar tokens: a token whose length allows no edit
    within the threshold (``U = 0``) can match only itself, so it is not
    indexed, and :meth:`probe` never returns its own token. Identical tokens
    are the shared-token route's job.

    ``ids`` holds the ids of the given tokens of a length that
    :func:`_searched` keeps (the others have no distinct partner), in their
    given order, and ``lens`` their lengths; a token's row is its position
    there, and ``table`` holds its code points. ``bounds`` are the
    threshold's integer bounds, over lengths up to at least the longest
    token. Each token of an indexed length has one key per segment slot.
    ``keys`` holds the distinct keys, ascending, and the rows of the tokens
    with key ``keys[i]`` are ``rows[starts[i] : starts[i] + counts[i]]``,
    so a probe key is found by one search and an equality test, and the
    hits of a token's own keys are the other rows of their runs. A token too
    short for ``U+1`` non-empty segments has one key, for the empty segment
    of slot 0, which every probe of an admissible length reads. The prefix
    hashes of one length's tokens (:meth:`prefix`) and the plan of one probe
    length (:meth:`plan`) are built on first use and kept, so only the
    lengths that are indexed or probed are hashed.
    """

    __slots__ = (
        "bounds", "table", "ids", "lens", "keys", "starts", "counts", "rows",
        "_by_len", "_layouts", "_prefix", "_plans",
    )

    def __init__(self, tokens: TokenTable | Iterable[str], bounds: Bounds | float, ids: np.ndarray | None = None):
        """Index the tokens ``ids`` of the table ``tokens``, or all of its tokens.

        Given strings instead, the index lays them out in a table of its own,
        in their order, and indexes them all. Given a threshold instead of
        its :class:`strdist.Bounds`, it builds them over its longest token.
        """
        table = tokens if isinstance(tokens, TokenTable) else token_table(list(tokens))
        if ids is None:
            ids = np.arange(table.lens.size)
        if not isinstance(bounds, Bounds):
            bounds = threshold_bounds(bounds, int(table.lens.max(initial=0)))
        self.bounds = bounds
        self.table = table
        self.ids = ids[_searched(table.lens[ids], bounds)]
        self.lens = table.lens[self.ids]
        order = np.argsort(self.lens, kind="stable")
        first = np.flatnonzero(np.diff(self.lens[order], prepend=-1))
        # token length -> rows of that length, ascending
        self._by_len = dict(zip(self.lens[order[first]].tolist(), np.split(order, first[1:])))
        self._prefix: dict[int, np.ndarray] = {}
        self._plans: dict[int, Plan] = {}
        # indexed length -> (start, seg_len) of each slot
        self._layouts: dict[int, tuple[tuple[int, int], ...]] = {}
        keys = [np.empty(0, dtype=np.uint64)]
        rows = [np.empty(0, dtype=np.int64)]
        for length, members in self._by_len.items():
            u = int(bounds.cost_cap[2 * length])
            if u == 0:
                continue
            layout = self._layouts[length] = segment_layout(length, u) if length > u else ((0, 0),)
            segments = _plan([(length, slot, a, a + n, True) for slot, (a, n) in enumerate(layout)])
            keys.append(_segment_keys(self.prefix(length), segments).ravel())
            rows.append(np.tile(members, len(layout)))
        keys = np.concatenate(keys)
        order = np.argsort(keys)  # the order within a run is never read
        keys = keys[order]
        self.rows = np.concatenate(rows)[order]
        first = np.empty(keys.size, dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        self.starts = np.flatnonzero(first)
        self.keys = keys[self.starts]
        self.counts = np.diff(self.starts, append=keys.size)

    def prefix(self, length: int) -> np.ndarray:
        """The prefix hashes of the indexed tokens of this length, a column per row in ascending order."""
        prefix = self._prefix.get(length)
        if prefix is None:
            codes = self.table.rows(self.ids[self._by_len[length]], length)
            prefix = self._prefix[length] = _prefix_hashes(codes)
        return prefix

    def plan(self, x_len: int) -> Plan:
        """The segment lookups of a probe this long.

        Built on first use and kept; empty when no indexed token can be a
        distinct partner of a token this long.
        """
        plan = self._plans.get(x_len)
        if plan is None:
            plan = self._plans[x_len] = self._build_plan(x_len)
        return plan

    def _build_plan(self, x_len: int) -> Plan:
        lookups: list[tuple[int, int, int, int, bool]] = []
        for y_len in range(x_len, int(self.bounds.ceiling[x_len]) + 1):
            layout = self._layouts.get(y_len)
            if layout is None:
                continue
            u = int(self.bounds.cost_cap[2 * y_len])
            delta = x_len - y_len
            for slot, (start, seg_len) in enumerate(layout):
                # multi-match-aware window (PassJoin): some matching segment
                # has at most ``slot`` edits before it and ``u − slot`` after it
                p_lo = max(start - slot, start + delta - (u - slot), 0)
                p_hi = min(start + slot, start + delta + (u - slot), x_len - seg_len)
                own = y_len == x_len
                lookups.extend((y_len, slot, p, p + seg_len, own and p == start) for p in range(p_lo, p_hi + 1))
        return _plan(lookups)

    def _hits(self, keys: np.ndarray, probe_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(probe row, indexed row) of every indexed key equal to a probe's key.

        ``keys[i]`` is a segment key of the probe ``probe_rows[i]``. A hit on
        a token shorter than its probe can only be a hash collision across
        tags; the callers drop it. Each key is searched once: its insertion
        point, clipped to the last key, holds it if any key does.
        """
        # sorted queries search several times faster than scattered ones
        order = np.argsort(keys)
        keys = keys[order]
        at = np.searchsorted(self.keys, keys)
        np.minimum(at, self.keys.size - 1, out=at)
        hit = np.flatnonzero(self.keys[at] == keys)
        at = at[hit]
        counts = self.counts[at]
        return np.repeat(probe_rows[order[hit]], counts), self.rows[ranges(self.starts[at], counts)]

    def probe_all(self, stats: SimilarStats) -> tuple[np.ndarray, np.ndarray]:
        """(probe row, indexed row) of every hit of one of this index's own tokens.

        The keys of all probes of one length come from the prefix hashes the
        index already holds, and all keys are looked up at once. A length
        whose plan is empty is not probed. Each pair is kept from one of its
        tokens only, in (length, row) order the lower one: its shorter token,
        or the lower row of an equal-length pair, which PassJoin hits from
        either token. A token's hit on itself is dropped.

        The own lookups are not searched: a token's own segment key is its
        run's key, so their hits are the pairs of rows within each run
        (:func:`pairs_within`), known from the index alone.
        Only the shifted lookups go to :meth:`_hits`. ``probe_keys`` still
        counts every lookup.
        """
        keys = [np.empty(0, dtype=np.uint64)]
        rows = [np.empty(0, dtype=np.int64)]
        for x_len, members in self._by_len.items():
            plan = self.plan(x_len)
            if plan.starts.size:
                shifted = Plan(*(field[~plan.own] for field in plan))
                keys.append(_segment_keys(self.prefix(x_len), shifted).ravel())
                rows.append(np.tile(members, shifted.starts.size))
                stats.probes += members.size
                stats.probe_keys += members.size * plan.starts.size
        x, y = self._hits(np.concatenate(keys), np.concatenate(rows))
        # each run pair both ways round; the rank mask keeps one way and drops
        # a token paired with itself, which a collision can put in a run twice
        multi = self.counts > 1
        a, b = pairs_within(self.rows, self.starts[multi], self.counts[multi])
        x, y = np.concatenate([x, a, b]), np.concatenate([y, b, a])
        rank = (self.lens << 32) | np.arange(self.lens.size)
        first = rank[x] < rank[y]
        return x[first], y[first]

    def probe(self, x: str, ld_cache: LdCache) -> list[tuple[str, str, int]]:
        """All indexed tokens y != x with |y| >= |x| and nld(x, y) within threshold.

        The one-token case of :meth:`probe_all`, with each distinct hit
        checked through ``ld_cache``; hits come in row order.
        """
        x_len = len(x)
        if x_len >= self.bounds.ceiling.size:
            return []  # longer than every indexed token
        plan = self.plan(x_len)
        if not plan.starts.size:
            return []
        codes = np.fromiter(map(ord, x), dtype=np.uint32, count=x_len)
        keys = _segment_keys(_prefix_hashes(codes[None, :]), plan).ravel()
        _, rows = self._hits(keys, np.zeros(keys.size, dtype=np.int64))
        rows = sorted_distinct(rows[self.lens[rows] >= x_len])
        caps = self.bounds.cost_cap[self.lens[rows] + x_len]
        found = []
        for y, cap in zip(rows.tolist(), caps.tolist()):
            tok = self.table.token(self.ids[y])
            if tok != x:
                d = ld_cache.bounded(x, tok, cap)
                if d is not None:
                    found.append((x, tok, d))
        return found


def similar_token_pairs(
    table: TokenTable,
    kept_r: np.ndarray,
    kept_p: np.ndarray | None,
    bounds: Bounds,
) -> tuple[SimilarStats, np.ndarray, np.ndarray]:
    """The search's counters and the token ids ``(sim_r, sim_p)`` of the pairs of distinct similar tokens.

    ``table`` holds the code points of the interned vocabulary, token id t
    at position t; ``kept_r`` marks the tokens kept on the left side and
    ``kept_p`` those kept on the right, None for a self-join; ``bounds``
    are the threshold's integer bounds, over lengths up to at least the
    longest token. One :class:`NldIndex` over the table holds the tokens
    kept on either side that are long enough to be searched, in id order,
    and is probed with its own tokens.

    The hits, each pair's from one of its tokens and none of a token on
    itself (identical tokens are the shared-token route's job), are
    de-duplicated as packed (min id, max id) pairs before any edit distance
    is computed. A two-set join also drops a pair neither of whose
    orientations pairs a left-kept token with a right-kept one. Every other
    pair goes to one :func:`strdist.ld_bounded_ids` call at its cap,
    ``cost_cap[|x| + |y|]``. A self-join returns
    each pair found once, as (min id, max id); a two-set join returns each
    orientation that is (left-kept, right-kept).
    """
    stats = SimilarStats()
    t0 = time.perf_counter()
    either = kept_r if kept_p is None else kept_r | kept_p
    index = NldIndex(table, bounds, np.flatnonzero(either))
    stats.index_ms = (time.perf_counter() - t0) * 1000.0
    x, y = index.probe_all(stats)
    packed = sorted_distinct((np.minimum(x, y) << 32) | np.maximum(x, y))
    stats.candidates = int(packed.size)
    # rows follow ids, so (min row, max row) maps to (min id, max id)
    a, b = index.ids[packed >> 32], index.ids[packed & _PACK_MASK]
    if kept_p is None:
        forward, backward = np.ones(a.size, dtype=bool), np.zeros(a.size, dtype=bool)
    else:
        forward = kept_r[a] & kept_p[b]
        backward = kept_r[b] & kept_p[a]
    check = np.flatnonzero(forward | backward)
    stats.ld_checks = int(check.size)
    a_check, b_check = a[check], b[check]
    caps = bounds.cost_cap[table.lens[a_check] + table.lens[b_check]]
    dists, stats.ld_kernel_runs = ld_bounded_ids(table, a_check, b_check, caps)
    over = check[dists < 0]
    forward[over] = backward[over] = False
    sim_r = np.concatenate([a[forward], b[backward]])
    sim_p = np.concatenate([b[forward], a[backward]])
    stats.pairs = int(sim_r.size)
    return stats, sim_r, sim_p
