"""Residual token rows: the length prune and verify's one cost path.

Once the tokens two records share drop out (:func:`setdist.drop_shared`),
what is left decides the pair. :class:`Residuals` holds one token key
``(token id, occurrence rank)`` per token of both sides, record after
record. Verify gathers each pair's keys into two rows as wide as its larger
record: equal keys of the two rows match each shared copy of a token once,
and the unmatched keys are the residual tokens, as ``(length, token id)``
cells (see :func:`_residual_cells`). :func:`length_survivors` is the filter
stage's length prune. :func:`verify_block` rejects with the
residual-length bound of :func:`filters.residual_prunes` and costs every
other pair with :func:`_matching_costs`; the edit distances go to
:func:`strdist.ld_bounded_ids` as token ids. The filter stage builds the
keys from the index stage's token ids, and both stages read the join's
:class:`strdist.Bounds`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from itertools import permutations
from operator import add
from typing import Any

import numpy as np

from .candidates import _PACK_MASK
from .setdist import hungarian
from .strdist import Bounds, TokenTable, ld_bounded_ids

# a verify block's pairs need at most this many key cells in all (w x w for
# a pair of width w) unless it holds one pair, and the length prune runs
# over slices of as many pairs; on W1, 2**16 to 2**21 took the same time
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
    token pairs of each verify block that went to ``ld_bounded_ids``, and
    ``kernel_runs`` those of them that its kernel ran, the others being
    settled by their lengths, caps or character signatures.
    """

    pairs_by_k: list[int] = field(default_factory=lambda: [0] * (ARRAY_MAX_K + 2))
    residual_rejects: int = 0
    kernel_cells: int = 0
    kernel_token_pairs: int = 0
    kernel_runs: int = 0

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

    ``lens_left[i]`` is left record i's aggregate length, and the keys of
    its ``counts_left[i]`` tokens, in record order, are
    ``keys_left[offsets_left[i] : offsets_left[i] + counts_left[i]]`` (see
    :func:`_keys`); likewise on the right. ``table`` holds the code points
    of the interned vocabulary, and ``table.lens[t]`` is the length of
    token t.
    ``bounds`` are the threshold's, over the longest record: a pair whose
    longer side has length l is pruned by length when the lengths differ by
    more than ``maxdiff[l]``, and ``cost_cap[L]`` is the largest setwise
    cost within the threshold at combined length L (the verify cap).
    """

    __slots__ = (
        "lens_left",
        "lens_right",
        "counts_left",
        "counts_right",
        "offsets_left",
        "offsets_right",
        "keys_left",
        "keys_right",
        "table",
        "bounds",
        "greedy",
    )

    def __init__(self, side_r, side_p, ids_r, ids_p, table: TokenTable, bounds: Bounds, *, greedy: bool):
        """Keys of the two prepared sides (the same side twice for a self-join).

        A side has ``counts`` (tokens per record) and ``lens`` (the records'
        aggregate lengths); ``ids_r`` and ``ids_p`` hold the ids of each
        side's tokens in ``table``, record after record.
        """
        self.keys_left = _keys(side_r.counts, ids_r)
        self.keys_right = self.keys_left if side_p is side_r else _keys(side_p.counts, ids_p)
        self.counts_left, self.counts_right = side_r.counts, side_p.counts
        self.offsets_left = np.cumsum(side_r.counts) - side_r.counts
        self.offsets_right = np.cumsum(side_p.counts) - side_p.counts
        self.table = table
        self.lens_left = side_r.lens
        self.lens_right = side_p.lens
        self.bounds = bounds
        self.greedy = greedy


def _keys(counts: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """One key per token, record after record: ``(token id << 32) | occurrence rank``.

    ``counts[i]`` is record i's token count, and ``ids`` holds the records'
    token ids, record after record. The rank counts the earlier copies of
    the token in the record, so equal keys of two records match each shared
    copy once, the earliest copies first, as :func:`setdist.drop_shared`
    does.
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
    return ids << 32 | rank


def _rows(keys: np.ndarray, offsets: np.ndarray, counts: np.ndarray, width: int) -> np.ndarray:
    """Key rows ``width`` cells wide: row i holds the ``counts[i]`` keys from ``offsets[i]``, then padding (-1)."""
    cols = np.arange(width)
    # the columns past a record's count read the next records' keys (or the
    # last key, clipped), and become padding
    rows = keys.take(offsets[:, None] + cols, mode="clip")
    rows[cols >= counts[:, None]] = -1
    return rows


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

    Runs over slices of ``BLOCK_CELLS`` pairs, so no temporary is as long as ``unique``.
    """
    parts = [unique[:0]]
    for start in range(0, unique.size, BLOCK_CELLS):
        block = unique[start : start + BLOCK_CELLS]
        li, ri = _unpack(block)
        la = res.lens_left[li]
        lb = res.lens_right[ri]
        mx = np.maximum(la, lb)
        parts.append(block[mx - np.minimum(la, lb) <= res.bounds.maxdiff[mx]])
    return np.concatenate(parts)


def verify_blocks(survivors: np.ndarray, res: Residuals) -> list[np.ndarray]:
    """The survivors cut into verify blocks, in order.

    A block's pairs need at most ``BLOCK_CELLS`` cells in all, w x w for a
    pair whose larger record has w tokens, unless it holds a single pair.
    """
    li, ri = _unpack(survivors)
    widths = np.maximum(res.counts_left[li], res.counts_right[ri])
    del li, ri
    ends = np.cumsum(widths * widths)
    blocks, start, used = [], 0, 0
    while start < survivors.size:
        stop = max(start + 1, int(np.searchsorted(ends, used + BLOCK_CELLS, side="right")))
        blocks.append(survivors[start:stop])
        start, used = stop, int(ends[stop - 1])
    return blocks


def verify_block(block: np.ndarray, res: Residuals) -> tuple[np.ndarray, np.ndarray, VerifyStats]:
    """Verify one block of packed pairs; returns the accepted pairs, distances and counters.

    The pairs are grouped by their width w, the larger token count of the
    two records; each group's key rows are gathered at exactly w cells
    (:func:`_rows`) and go to one :func:`_residual_cells` call. Every
    pair's first k cells then go to one :func:`_matching_costs` call for
    the whole block. Costs start at cap + 1 (rejected); the pairs within
    their cap are accepted, in block order.
    """
    stats = VerifyStats()
    li, ri = _unpack(block)
    total = res.lens_left[li] + res.lens_right[ri]
    cap = res.bounds.cost_cap[total]
    counts_l, counts_r = res.counts_left[li], res.counts_right[ri]
    widths = np.maximum(counts_l, counts_r)
    # pair i's k cells a side are cells_*[starts[i] : starts[i] + k[i]]
    k = np.empty(block.size, dtype=np.int64)
    starts = np.empty(block.size, dtype=np.int64)
    cells_l, cells_r = [block[:0]], [block[:0]]
    n_cells = 0
    for width in np.flatnonzero(np.bincount(widths)).tolist():
        at = np.flatnonzero(widths == width)
        keys_l = _rows(res.keys_left, res.offsets_left[li[at]], counts_l[at], width)
        keys_r = _rows(res.keys_right, res.offsets_right[ri[at]], counts_r[at], width)
        group_k, group_l, group_r = _residual_cells(keys_l, keys_r, cap[at], res)
        first_k = np.arange(width) < group_k[:, None]
        cells_l.append(group_l[first_k])
        cells_r.append(group_r[first_k])
        k[at] = group_k
        group_k = np.maximum(group_k, 0)
        starts[at] = n_cells + np.cumsum(group_k) - group_k
        n_cells += int(group_k.sum())
    cost = _matching_costs(k, np.concatenate(cells_l), np.concatenate(cells_r), starts, cap, res, stats)
    stats.residual_rejects = int(np.count_nonzero(k < 0))
    stats.pairs_by_k = np.bincount(np.minimum(k[k >= 0], ARRAY_MAX_K + 1), minlength=ARRAY_MAX_K + 2).tolist()
    keep = np.flatnonzero(cost <= cap)
    cost = cost[keep]
    return block[keep], (2.0 * cost) / (total[keep] + cost), stats


def _matching_costs(
    k: np.ndarray,
    cells_l: np.ndarray,
    cells_r: np.ndarray,
    starts: np.ndarray,
    caps: np.ndarray,
    res: Residuals,
    stats: VerifyStats,
) -> np.ndarray:
    """The cost of each pair's best residual matching, exact wherever it is within the cap.

    ``k[i]`` is pair i's residual token count, or -1 to skip the pair (its
    cost reads cap + 1), and ``cells_l[starts[i] : starts[i] + k[i]]`` and
    likewise ``cells_r`` hold its tokens, each side's followed by padding
    (0), as in :func:`setdist._padded_cost_matrix`. Each k x k matrix
    weighs an edge against padding by the real token's length and an edge
    of two tokens by their edit distance, capped as in
    :func:`setdist.sld_capped`: over the pair's cap, it weighs more than
    the cap (its distance, or cap + 1 over the largest cap the kernel ran
    with). All edit distances go to one
    :func:`_edge_distances` call. k = 1 is its one edge; larger k take
    :func:`_greedy_costs` in greedy mode, else the minimum over all
    permutations up to ``ARRAY_MAX_K`` and :func:`setdist.hungarian`.
    """
    cost = np.where(k < 0, caps + 1, 0)
    groups = []
    for kk in sorted(set(k[k > 0].tolist())):
        sel = np.flatnonzero(k == kk)
        cols = starts[sel, None] + np.arange(kk)
        a = np.broadcast_to(cells_l[cols][:, :, None], (sel.size, kk, kk))
        b = np.broadcast_to(cells_r[cols][:, None, :], (sel.size, kk, kk))
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
        elif res.greedy:
            cost[sel] = _greedy_costs(weight)
        elif kk > ARRAY_MAX_K:
            cost[sel] = [hungarian(matrix)[0] for matrix in weight.tolist()]
        else:
            cost[sel] = weight[:, np.arange(kk), _PERMS[kk]].sum(axis=2).min(axis=1)
    return cost


def _greedy_costs(weight: np.ndarray) -> np.ndarray:
    """:func:`setdist._greedy_matching`'s cost of each k x k matrix of ``weight`` (n, k, k), which it overwrites.

    ``weight`` must be C-contiguous, so that its row-major (n, k * k)
    reshape is a view. Each of k rounds takes every matrix's cheapest free
    cell, the first in row-major order at equal weight (``argmin``'s first
    minimum: the smallest (weight, row, column), as ``_greedy_matching``
    takes it), and covers that cell's row and column with a weight above
    every cell.
    """
    n, k, _ = weight.shape
    flat = weight.reshape(n, k * k)
    taken = flat.max() + 1
    pairs = np.arange(n)
    total = np.zeros(n, dtype=weight.dtype)
    for _ in range(k):
        at = flat.argmin(axis=1)
        total += flat[pairs, at]
        weight[pairs, at // k, :] = taken
        weight[pairs, :, at % k] = taken
    return total


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
    dists, ran = ld_bounded_ids(table, distinct >> 32, distinct & _PACK_MASK, group_cap)
    stats.kernel_runs += ran
    return dists[group]
