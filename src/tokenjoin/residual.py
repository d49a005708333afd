"""Residual token rows: the length prune and verify's one cost path.

Once the tokens two records share drop out (:func:`setdist.drop_shared`),
what is left decides the pair. :class:`Residuals` holds both sides as rows
of token keys ``(token id, occurrence rank)`` in record order: equal keys of
two records match each shared copy of a token once, and the unmatched keys
are the residual tokens, as ``(length, token id)`` cells (see
:func:`_residual_cells`). :func:`length_survivors` is the filter stage's
length prune. :func:`verify_block` rejects with the residual-length bound
of :func:`filters.residual_prunes` and costs every other pair with
:func:`_matching_costs`; the edit distances go to
:func:`strdist.ld_bounded_ids` as token ids. The filter stage builds the
rows from the index stage's token ids, and both stages read the join's
:class:`strdist.Bounds`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from itertools import permutations
from operator import add
from typing import Any, Iterator

import numpy as np

from .candidates import ranges
from .setdist import _greedy_matching, hungarian
from .strdist import Bounds, TokenTable, ld_bounded_ids

_PACK_MASK = 0xFFFFFFFF
# the rows hold at most this many cells per token of the joined sides (at
# least one column); verify gives the pairs of a wider record rows of their own
CELLS_PER_TOKEN = 4
# verify blocks and chunks of wide pairs hold at most this many cells
# (rows x width x width), and the length prune runs over blocks of as many
# rows; on W1, blocks of 2**16 to 2**21 took the same time
BLOCK_CELLS = 1 << 18
# k up to this is matched over every permutation; above it, by hungarian
ARRAY_MAX_K = 4
# for each k, every permutation of range(k), one per row
_PERMS = {k: np.array(list(permutations(range(k))), dtype=np.intp) for k in range(2, ARRAY_MAX_K + 1)}


@dataclass(slots=True)
class VerifyStats:
    """Where verify's pairs went; ``sum(pairs_by_k) + residual_rejects`` is its input.

    ``pairs_by_k[k]`` counts the pairs within the residual bound with k
    residual tokens (the larger side's count), the last entry k >= 5, and
    ``residual_rejects`` the others; where the filter stage ran,
    :func:`pipeline.join` reports these as its ``pruned_by_histogram``
    instead, and this count as 0. ``kernel_cells`` is the number of
    token-pair edit distances needed, ``kernel_token_pairs`` the distinct
    token pairs of each matcher call that went to ``ld_bounded_ids``, and
    ``wide_pairs`` the pairs with a record wider than the shared rows.
    """

    pairs_by_k: list[int] = field(default_factory=lambda: [0] * (ARRAY_MAX_K + 2))
    residual_rejects: int = 0
    kernel_cells: int = 0
    kernel_token_pairs: int = 0
    wide_pairs: int = 0

    def add(self, other: "VerifyStats") -> None:
        """Add ``other``'s counters to these, ``pairs_by_k`` entry by entry."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            setattr(self, f.name, list(map(add, mine, theirs)) if isinstance(mine, list) else mine + theirs)

    def to_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        keys = [str(k) for k in range(ARRAY_MAX_K + 1)] + [f"{ARRAY_MAX_K + 1}+"]
        payload["pairs_by_k"] = dict(zip(keys, self.pairs_by_k))
        return payload


class Residuals:
    """What the filter and verify read about both sides; the filter stage builds it.

    Verify's pool workers inherit it by fork.

    ``lens_left[i]`` is left record i's aggregate length, and its token ids,
    in record order, are ``ids_left[offsets_left[i] : offsets_left[i + 1]]``;
    ``keys_left`` and ``wide_left`` are its key rows and the records too
    wide for them (see :func:`_rows`), and likewise on the right. ``table``
    holds the code points of the interned vocabulary, and ``table.lens[t]``
    is the length of token t.
    ``bounds`` are the threshold's, over the longest record: a pair whose
    longer side has length l is pruned by length when the lengths differ by
    more than ``maxdiff[l]``, and ``cost_cap[L]`` is the largest setwise
    cost within the threshold at combined length L (the verify cap).
    """

    __slots__ = (
        "lens_left",
        "lens_right",
        "ids_left",
        "ids_right",
        "offsets_left",
        "offsets_right",
        "keys_left",
        "keys_right",
        "wide_left",
        "wide_right",
        "width",
        "table",
        "bounds",
        "greedy",
    )

    def __init__(self, side_r, side_p, ids_r, ids_p, table: TokenTable, bounds: Bounds, *, greedy: bool):
        """Rows of the two prepared sides (the same side twice for a self-join).

        A side has ``counts`` (tokens per record) and ``lens`` (the records'
        aggregate lengths); ``ids_r`` and ``ids_p`` hold the ids of each
        side's tokens in ``table``, record after record. The rows are as
        wide as the widest record, but at most ``CELLS_PER_TOKEN`` times the
        mean token count of the joined sides, so they never hold more than
        that many cells per token.
        """
        self_join = side_p is side_r
        sides = (side_r,) if self_join else (side_r, side_p)
        n_rows = sum(side.counts.size for side in sides)
        n_tokens = ids_r.size + (0 if self_join else ids_p.size)
        self.width = max(1, min(
            max(int(side.counts.max(initial=0)) for side in sides),
            CELLS_PER_TOKEN * n_tokens // max(n_rows, 1),
        ))
        self.keys_left = _rows(side_r.counts, ids_r, self.width)
        self.keys_right = self.keys_left if self_join else _rows(side_p.counts, ids_p, self.width)
        self.wide_left, self.wide_right = side_r.counts > self.width, side_p.counts > self.width
        self.offsets_left = np.concatenate(([0], np.cumsum(side_r.counts)))
        self.offsets_right = np.concatenate(([0], np.cumsum(side_p.counts)))
        self.table = table
        self.lens_left = side_r.lens
        self.lens_right = side_p.lens
        self.ids_left, self.ids_right = ids_r, ids_p
        self.bounds = bounds
        self.greedy = greedy


def _rows(counts: np.ndarray, ids: np.ndarray, width: int) -> np.ndarray:
    """Key rows of records, all padding for a record wider than ``width``.

    ``counts[i]`` is record i's token count, and ``ids`` holds the records'
    token ids, record after record. Row i holds record i's tokens in record
    order, then padding keys (-1). A key is ``(token id << 32) |
    occurrence rank``, the rank counting the earlier copies of the token in
    the record, so equal keys of two records match each shared copy once,
    the earliest copies first, as :func:`setdist.drop_shared` does.
    """
    rows = np.repeat(np.arange(counts.size), counts)
    flat = np.arange(ids.size)
    # a stable sort of the (row, token id) keys puts the copies of a token
    # next to each other, in record order
    tagged = (rows << 32) | ids
    order = np.argsort(tagged, kind="stable")
    # a copy's occurrence rank is its distance from the token's first copy
    copy_of = np.diff(tagged[order], prepend=-1) == 0
    rank = np.empty_like(flat)
    rank[order] = flat - np.maximum.accumulate(np.where(copy_of, 0, flat))
    keep = (counts <= width)[rows]
    keys = np.full((counts.size, width), -1, dtype=np.int64)
    keys[rows[keep], (flat - np.repeat(np.cumsum(counts) - counts, counts))[keep]] = (ids << 32 | rank)[keep]
    return keys


def block_rows(width: int) -> int:
    """Pairs per filter or verify block, so that a block stays within ``BLOCK_CELLS``."""
    return max(1, BLOCK_CELLS // (width * width))


def _unpack(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return block >> 32, block & _PACK_MASK


def _residual_cells(
    keys_l: np.ndarray, keys_r: np.ndarray, caps: np.ndarray, res: Residuals
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each pair's residual token count k and cells, the residual cells first, then padding.

    Pair i is row i of two equally wide key arrays (see :func:`_rows`),
    which this overwrites. Matching equal keys across the two rows drops
    the copies :func:`setdist.drop_shared` drops (one pass per column of a
    row is several times faster than one rows x width x width comparison).
    The other keys but padding are the residual tokens, k the larger side's
    count, as ``(length << 32) | token id`` cells; padding and matched keys
    are 0. Greedy mode breaks ties by token order, and its cells keep
    record order; else they are sorted, descending. k is -1 where the
    residual bound, :func:`_lower_bound` of the sorted lengths, exceeds
    ``caps``.
    """
    real_l = keys_l >= 0
    real_r = keys_r >= 0
    for col in range(keys_l.shape[1]):
        real_l &= keys_l != keys_r[:, col, None]
        real_r &= keys_r != keys_l[:, col, None]
    n_l = np.count_nonzero(real_l, axis=1)
    n_r = np.count_nonzero(real_r, axis=1)
    k = np.maximum(n_l, n_r)
    cells_l = _cells(keys_l, real_l, res.table.lens)
    cells_r = _cells(keys_r, real_r, res.table.lens)
    if res.greedy:
        cells_l = _compact(cells_l, real_l, n_l)
        cells_r = _compact(cells_r, real_r, n_r)
        bound = _lower_bound(np.sort(cells_l >> 32, axis=1), np.sort(cells_r >> 32, axis=1))
    else:
        # descending (negated, so rows stay contiguous), zeros last; an empty
        # token's cell, (0 << 32) | id, is the last residual one or 0, as padding
        for cells in (cells_l, cells_r):
            np.negative(cells, out=cells)
            cells.sort(axis=1)
            np.negative(cells, out=cells)
        bound = _lower_bound(cells_l >> 32, cells_r >> 32)
    k[bound > caps] = -1
    return k, cells_l, cells_r


def _compact(cells: np.ndarray, real: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Each row's ``real`` cells, ``n`` of them, in order and then zeros."""
    out = np.zeros_like(cells)
    out[np.arange(cells.shape[1]) < n[:, None]] = cells[real]
    return out


def _lower_bound(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`setdist.residual_lower_bound` per row of two equally sorted, 0-padded length rows; overwrites ``a``."""
    # max(1, |a - b|), and 0 where both are padding (or an empty token)
    real = a > 0
    real |= b > 0
    np.subtract(a, b, out=a)
    np.abs(a, out=a)
    np.maximum(a, real, out=a)
    return a.sum(axis=1)


def _cells(keys: np.ndarray, real: np.ndarray, vocab_lens: np.ndarray) -> np.ndarray:
    """``(length << 32) | token id`` of each ``real`` key, else 0, written over ``keys``."""
    tids = np.right_shift(keys, 32, out=keys)
    np.maximum(tids, 0, out=tids)  # padding ids are -1
    lens = vocab_lens[tids]
    lens <<= 32
    tids |= lens
    tids *= real
    return tids


def length_survivors(unique: np.ndarray, res: Residuals) -> np.ndarray:
    """The packed pairs whose aggregate lengths are within the threshold, in order.

    Runs block by block, so no temporary is as long as ``unique``.
    """
    parts = [unique[:0]]
    step = block_rows(res.width)
    for start in range(0, unique.size, step):
        block = unique[start : start + step]
        li, ri = _unpack(block)
        la = res.lens_left[li]
        lb = res.lens_right[ri]
        mx = np.maximum(la, lb)
        parts.append(block[mx - np.minimum(la, lb) <= res.bounds.maxdiff[mx]])
    return np.concatenate(parts)


def verify_block(block: np.ndarray, res: Residuals) -> tuple[np.ndarray, np.ndarray, VerifyStats]:
    """Verify one block of packed pairs; returns the accepted pairs, distances and counters.

    Every pair's residual cells come from :func:`_residual_cells` and its
    cost from :func:`_matching_costs`, over the shared rows in one call and
    over the wide pairs' rows chunk by chunk (:func:`_pair_rows`). Costs
    start at cap + 1 (rejected); the pairs within their cap are accepted,
    in block order.
    """
    stats = VerifyStats()
    li, ri = _unpack(block)
    total = res.lens_left[li] + res.lens_right[ri]
    cap = res.bounds.cost_cap[total]
    cost = cap + 1
    wide = res.wide_left[li] | res.wide_right[ri]
    stats.wide_pairs = int(np.count_nonzero(wide))
    by_k = []
    for at, keys_l, keys_r in _pair_rows(res, li, ri, wide):
        k, cells_l, cells_r = _residual_cells(keys_l, keys_r, cap[at], res)
        cost[at] = _matching_costs(k, cells_l, cells_r, cap[at], res, stats)
        by_k.append(k)
    k = np.concatenate(by_k)
    stats.residual_rejects = int(np.count_nonzero(k < 0))
    stats.pairs_by_k = np.bincount(np.minimum(k[k >= 0], ARRAY_MAX_K + 1), minlength=ARRAY_MAX_K + 2).tolist()
    keep = np.flatnonzero(cost <= cap)
    cost = cost[keep]
    return block[keep], (2.0 * cost) / (total[keep] + cost), stats


def _pair_rows(res: Residuals, li: np.ndarray, ri: np.ndarray, wide: np.ndarray) -> Iterator[tuple]:
    """Key rows of the pairs ``(li[i], ri[i])``: ``(at, keys_l, keys_r)`` for the pairs ``at``.

    First the pairs the shared rows hold, then those flagged ``wide`` (with
    a record wider than the rows), whose records get rows of their own from
    :func:`_rows`, chunk by chunk. A chunk's rows are as wide as its widest
    record, and its rows x width x width stays within ``BLOCK_CELLS``, as a
    block's does, unless it holds one pair.
    """
    at = np.flatnonzero(~wide)
    yield at, res.keys_left[li[at]], res.keys_right[ri[at]]
    at = np.flatnonzero(wide)
    li, ri = li[at], ri[at]
    counts_l = res.offsets_left[li + 1] - res.offsets_left[li]
    counts_r = res.offsets_right[ri + 1] - res.offsets_right[ri]
    widths = np.maximum(counts_l, counts_r).tolist()
    start, width = 0, 1
    for stop in range(1, len(widths) + 1):
        width = max(width, widths[stop - 1])
        if stop == len(widths) or (stop - start + 1) * max(width, widths[stop]) ** 2 > BLOCK_CELLS:
            chunk = slice(start, stop)
            keys_l = _rows(counts_l[chunk], res.ids_left[ranges(res.offsets_left[li[chunk]], counts_l[chunk])], width)
            keys_r = _rows(counts_r[chunk], res.ids_right[ranges(res.offsets_right[ri[chunk]], counts_r[chunk])], width)
            yield at[chunk], keys_l, keys_r
            start, width = stop, 1


def _matching_costs(
    k: np.ndarray, cells_l: np.ndarray, cells_r: np.ndarray, caps: np.ndarray, res: Residuals, stats: VerifyStats
) -> np.ndarray:
    """The cost of each pair's best residual matching, exact wherever it is within the cap.

    ``k[i]`` is pair i's residual token count, or -1 to skip the pair (its
    cost reads cap + 1), and the first ``k[i]`` columns of its cells hold
    its tokens, each side's followed by padding (0), as in
    :func:`setdist._padded_cost_matrix`. Each k x k matrix weighs an edge against
    padding by the real token's length and an edge of two tokens by their
    edit distance, capped as in :func:`setdist.sld_capped`: over the pair's
    cap, it weighs more than the cap (its distance, or cap + 1 over the
    largest cap the kernel ran with). All edit distances go to one
    :func:`_edge_distances` call. k = 1 is its one edge; larger k take
    :func:`setdist._greedy_matching` in greedy mode, else the minimum over
    all permutations up to ``ARRAY_MAX_K`` and :func:`setdist.hungarian`.
    """
    cost = np.where(k < 0, caps + 1, 0)
    groups = []
    for kk in sorted(set(k[k > 0].tolist())):
        sel = np.flatnonzero(k == kk)
        a = np.broadcast_to(cells_l[sel, :kk][:, :, None], (sel.size, kk, kk))
        b = np.broadcast_to(cells_r[sel, :kk][:, None, :], (sel.size, kk, kk))
        groups.append((sel, a, b, (a != 0) & (b != 0)))
    if not groups:
        return cost
    edge_cap = np.concatenate([np.broadcast_to(caps[sel][:, None, None], real.shape)[real] for sel, _, _, real in groups])
    dist = _edge_distances(
        np.concatenate([a[real] & _PACK_MASK for _, a, _, real in groups]),
        np.concatenate([b[real] & _PACK_MASK for _, _, b, real in groups]),
        edge_cap,
        res.table,
        stats,
    )
    over = dist < 0
    dist[over] = edge_cap[over] + 1
    del edge_cap, over
    at = 0
    for sel, a, b, real in groups:
        weight = (a >> 32) + (b >> 32)
        n_real = int(np.count_nonzero(real))
        weight[real] = dist[at : at + n_real]
        at += n_real
        kk = weight.shape[1]
        if kk == 1:
            cost[sel] = weight[:, 0, 0]
        elif res.greedy or kk > ARRAY_MAX_K:
            solve = _greedy_matching if res.greedy else hungarian
            cost[sel] = [solve(matrix)[0] for matrix in weight.tolist()]
        else:
            cost[sel] = weight[:, np.arange(kk), _PERMS[kk]].sum(axis=2).min(axis=1)
    return cost


def _edge_distances(
    ta: np.ndarray, tb: np.ndarray, caps: np.ndarray, table: TokenTable, stats: VerifyStats
) -> np.ndarray:
    """:func:`strdist.ld_bounded_ids` over token-id pairs, each distinct pair once at its largest cap.

    Returns, per pair, the distance if it is at most that pair's largest
    cap, else -1. Sorting the (min id, max id) keys groups equal pairs; the
    first of each run goes to the kernel, as ids into ``table``.
    """
    keys = np.minimum(ta, tb)
    keys <<= 32
    keys |= np.maximum(ta, tb)
    del ta, tb
    order = np.argsort(keys)
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    distinct = keys[starts]
    del keys
    group_cap = np.maximum.reduceat(caps[order], starts)
    run = np.cumsum(first, dtype=np.int64)
    run -= 1
    group = np.empty_like(run)
    group[order] = run
    del order, run, first
    stats.kernel_cells += int(group.size)
    stats.kernel_token_pairs += int(distinct.size)
    return ld_bounded_ids(table, distinct >> 32, distinct & _PACK_MASK, group_cap)[group]
