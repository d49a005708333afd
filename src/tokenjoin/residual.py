"""Residual token rows: the length prune and verify's one cost path.

Once the tokens two records share drop out (:func:`setdist.drop_shared`),
what is left decides the pair. :class:`Residuals` holds both sides as
right-aligned rows of token keys ``(token id, occurrence rank)`` in id
order: equal keys of two records match each shared copy of a token once,
and the unmatched keys, as ``(length, token id)`` cells, sort into the
residual lengths and tokens. :func:`length_survivors` is the filter stage's
length prune. :func:`verify_block` rejects with the residual-length bound
of :func:`filters.residual_prunes` and costs every other pair with
:func:`_matching_costs`, from the rows' cells or, where the rows cannot
express a pair, from the records' token ids; the edit distances go to
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

from .setdist import _greedy_matching, drop_shared, hungarian
from .strdist import Bounds, TokenTable, ld_bounded_ids

_PACK_MASK = 0xFFFFFFFF
# the rows hold at most this many cells per token of the joined sides (at
# least one column); a wider record is left out (see _record_cells)
CELLS_PER_TOKEN = 4
# verify blocks and chunks of record cells hold at most this many cells
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

    ``pairs_by_k[k]`` counts the pairs with k residual tokens (the larger
    side's count after the shared tokens drop), the last entry k >= 5. A
    pair the rows express is counted once it passes the residual bound;
    ``residual_rejects`` counts the pairs that do not. Where the filter
    stage ran, :func:`pipeline.join` reports them as its
    ``pruned_by_histogram`` instead, and this count as 0. A pair with a
    record the rows leave out is counted by its k, bound included.
    ``kernel_cells`` is the number of token-pair edit distances needed,
    ``kernel_token_pairs`` the distinct token pairs of each matcher call
    that went to ``ld_bounded_ids``, and ``scalar_fallbacks`` the pairs
    costed from :func:`_record_cells`.
    """

    pairs_by_k: list[int] = field(default_factory=lambda: [0] * (ARRAY_MAX_K + 2))
    residual_rejects: int = 0
    kernel_cells: int = 0
    kernel_token_pairs: int = 0
    scalar_fallbacks: int = 0

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
    ``keys_left`` and ``scalar_left`` are its key rows and the records they
    leave out (see :func:`_rows`), and likewise on the right. ``table``
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
        # records the rows leave out; their pairs take record-order cells
        "scalar_left",
        "scalar_right",
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
        left = _rows(side_r, ids_r, self.width, table.lens)
        right = left if self_join else _rows(side_p, ids_p, self.width, table.lens)
        self.keys_left, self.scalar_left, self.offsets_left = left
        self.keys_right, self.scalar_right, self.offsets_right = right
        self.table = table
        self.lens_left = side_r.lens
        self.lens_right = side_p.lens
        self.ids_left, self.ids_right = ids_r, ids_p
        self.bounds = bounds
        self.greedy = greedy


def _rows(side, ids: np.ndarray, width: int, vocab_lens: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Key rows of one side's records, the records they leave out, and each record's offset into ``ids``.

    ``ids`` holds the side's token ids, record after record. Row i holds
    record i's tokens in ascending id order, right-aligned. A key is
    ``(token id << 32) | occurrence rank``, the rank counting earlier copies
    of the token in the record, so equal keys across two records match each
    shared copy once, as :func:`drop_shared` does; padding keys are -1.
    Nothing reads the order of a row's keys: :func:`_residual_cells` sorts
    what is left of them.

    A record with more than ``width`` tokens or with an empty token (whose
    length 0 would read as padding in :func:`_residual_cells`) is left out,
    all padding, and flagged in the returned boolean array.
    """
    n = side.counts.size
    rows = np.repeat(np.arange(n), side.counts)
    # sorting (row, token id) keys orders each row's tokens and puts copies
    # of a token next to each other
    order = np.sort((rows << 32) | ids)
    tids = order & _PACK_MASK
    flat = np.arange(order.size)
    # a copy's occurrence rank is its distance from the token's first copy
    copy_of = np.diff(order, prepend=-1) == 0
    first = np.maximum.accumulate(np.where(copy_of, 0, flat))
    left_out = side.counts > width
    left_out[rows[vocab_lens[tids] == 0]] = True
    # the t-th token sits in row rows[t]; ending that row at column
    # width - 1 puts it at column t + width - ends[rows[t]]
    ends = np.cumsum(side.counts)
    cols = flat + np.repeat(width - ends, side.counts)
    keep = ~left_out[rows]
    at = (rows[keep], cols[keep])
    keys = np.full((n, width), -1, dtype=np.int64)
    keys[at] = (tids[keep] << 32) | (flat - first)[keep]
    return keys, left_out, np.concatenate(([0], ends))


def block_rows(width: int) -> int:
    """Pairs per filter or verify block, so that a block stays within ``BLOCK_CELLS``."""
    return max(1, BLOCK_CELLS // (width * width))


def _unpack(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return block >> 32, block & _PACK_MASK


def _residual_cells(
    res: Residuals, li: np.ndarray, ri: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each pair's residual cells, ascending and right-aligned, and their lower bound.

    Matches equal keys across the two rows, which drops the copies
    :func:`drop_shared` drops: each column of one row is broadcast against
    the whole other row (one pass per column is several times faster than
    reducing a rows x width x width comparison over its short last axis).
    Every other key becomes a ``(length << 32) | token id`` cell, and
    matched and padding keys become 0. Sorting each row moves the zeros in
    front and puts the residual cells in (length, id) order, whatever the
    order of the keys.
    The bound is :func:`_lower_bound`'s. Rows must come from records that
    :func:`_rows` keeps.
    """
    keys_l = res.keys_left[li]
    keys_r = res.keys_right[ri]
    gone_l = keys_l < 0
    gone_r = keys_r < 0
    for col in range(res.width):
        gone_l |= keys_l == keys_r[:, col, None]
        gone_r |= keys_r == keys_l[:, col, None]
    cells_l = _cells(keys_l, gone_l, res.table.lens)
    del keys_l, gone_l
    cells_r = _cells(keys_r, gone_r, res.table.lens)
    del keys_r, gone_r
    cells_l.sort(axis=1)
    cells_r.sort(axis=1)
    return cells_l, cells_r, _lower_bound(cells_l >> 32, cells_r >> 32)


def _lower_bound(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`setdist.residual_lower_bound` per row of ascending lengths, 0-padded in front; overwrites ``a``."""
    # max(1, |a - b|), and 0 where both are padding (or an empty token)
    real = a > 0
    real |= b > 0
    np.subtract(a, b, out=a)
    np.abs(a, out=a)
    np.maximum(a, real, out=a)
    return a.sum(axis=1)


def _cells(keys: np.ndarray, gone: np.ndarray, vocab_lens: np.ndarray) -> np.ndarray:
    """``(length << 32) | token id`` of each key, 0 where ``gone``; overwrites ``keys``."""
    tids = np.right_shift(keys, 32, out=keys)
    np.maximum(tids, 0, out=tids)  # padding ids are -1
    cells = vocab_lens[tids]
    cells <<= 32
    cells |= tids
    cells *= ~gone
    return cells


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

    Past the residual bound, :func:`_matching_costs` costs the pairs the
    rows express in one call, greedy pairs with k >= 2 on record-order
    cells (greedy breaks ties by token order, which the rows lose), and
    pairs with a record the rows leave out on :func:`_record_cells`, chunk
    by chunk. Costs start at cap + 1 (rejected); the pairs within their cap
    are accepted, in block order.
    """
    stats = VerifyStats()
    li, ri = _unpack(block)
    total = res.lens_left[li] + res.lens_right[ri]
    cap = res.bounds.cost_cap[total]
    left_out = res.scalar_left[li] | res.scalar_right[ri]
    arr = np.flatnonzero(~left_out)
    cells_l, cells_r, bound = _residual_cells(res, li[arr], ri[arr])
    k = np.maximum(np.count_nonzero(cells_l, axis=1), np.count_nonzero(cells_r, axis=1))
    k[bound > cap[arr]] = -1
    stats.residual_rejects = int(np.count_nonzero(k < 0))
    by_k = [k[k >= 0]]
    tied = np.flatnonzero(k >= 2) if res.greedy else arr[:0]
    for at, _, tied_l, tied_r in _record_cells(res, li[arr[tied]], ri[arr[tied]]):
        cells_l[tied[at], -tied_l.shape[1] :] = tied_l
        cells_r[tied[at], -tied_r.shape[1] :] = tied_r
    found = _matching_costs(k, cells_l, cells_r, cap[arr], res, stats)
    # made once the matching's temporaries, verify's memory peak, are gone
    cost = cap + 1
    cost[arr] = found
    record = np.flatnonzero(left_out)
    stats.scalar_fallbacks = tied.size + record.size
    for at, k, cells_l, cells_r in _record_cells(res, li[record], ri[record]):
        by_k.append(k)
        caps = cap[record[at]]
        bound = _lower_bound(np.sort(cells_l >> 32, axis=1), np.sort(cells_r >> 32, axis=1))
        cost[record[at]] = _matching_costs(np.where(bound <= caps, k, -1), cells_l, cells_r, caps, res, stats)
    by_k = np.minimum(np.concatenate(by_k), ARRAY_MAX_K + 1)
    stats.pairs_by_k = np.bincount(by_k, minlength=ARRAY_MAX_K + 2).tolist()
    keep = np.flatnonzero(cost <= cap)
    cost = cost[keep]
    return block[keep], (2.0 * cost) / (total[keep] + cost), stats


def _record_cells(res: Residuals, li: np.ndarray, ri: np.ndarray) -> Iterator[tuple]:
    """Residual cells of the pairs ``(li[i], ri[i])`` in the records' token order, chunk by chunk.

    :func:`drop_shared` on each pair's token ids keeps each side's residual
    in record order. Yields ``(at, k, cells_l, cells_r)`` for the pairs
    ``at`` (a slice) of each chunk: the last ``k[i]`` columns of row i hold
    each side's ``(length << 32) | token id`` cells, then padding (0), as
    in :func:`setdist._padded_cost_matrix`. A chunk's rows x width x width
    stays within ``BLOCK_CELLS``, as a block's does, unless it holds one pair.
    """
    spans = (res.offsets_left[li], res.offsets_left[li + 1], res.offsets_right[ri], res.offsets_right[ri + 1])
    rests, width = [], 1
    for i, (a0, a1, b0, b1) in enumerate(zip(*(span.tolist() for span in spans))):
        rest = drop_shared(res.ids_left[a0:a1].tolist(), res.ids_right[b0:b1].tolist())
        if rests and (len(rests) + 1) * max(width, *map(len, rest)) ** 2 > BLOCK_CELLS:
            yield _chunk(i, rests, width, res.table.lens)
            rests, width = [], 1
        rests.append(rest)
        width = max(width, *map(len, rest))
    if rests:
        yield _chunk(li.size, rests, width, res.table.lens)


def _chunk(stop: int, rests: list, width: int, vocab_lens: np.ndarray) -> tuple:
    k = [max(map(len, rest)) for rest in rests]
    rows = [[-1] * (width - kk) + ids + [-1] * (kk - len(ids)) for side in zip(*rests) for kk, ids in zip(k, side)]
    tids = np.array(rows).reshape(2, len(rests), width)
    cells = np.where(tids < 0, 0, (vocab_lens[tids] << 32) | tids)
    return slice(stop - len(rests), stop), np.array(k), cells[0], cells[1]


def _matching_costs(
    k: np.ndarray, cells_l: np.ndarray, cells_r: np.ndarray, caps: np.ndarray, res: Residuals, stats: VerifyStats
) -> np.ndarray:
    """The cost of each pair's best residual matching, exact wherever it is within the cap.

    ``k[i]`` is pair i's residual token count, or -1 to skip the pair (its
    cost reads cap + 1), and the last ``k[i]`` columns of its cells hold
    the tokens (padding is 0). Each k x k matrix weighs an edge against
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
        a = np.broadcast_to(cells_l[sel, -kk:][:, :, None], (sel.size, kk, kk))
        b = np.broadcast_to(cells_r[sel, -kk:][:, None, :], (sel.size, kk, kk))
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
