"""Residual token rows: the length prune and verify's array path.

Once the tokens two records share drop out (:func:`setdist.drop_shared`),
what is left decides the pair. :class:`Residuals` holds both sides as
right-aligned rows of token keys ``(token id, occurrence rank)`` in id
order: equal keys of two records match each shared copy of a token once,
and the unmatched keys, as ``(length, token id)`` cells, sort into the
residual lengths and tokens. :func:`length_survivors` is the filter stage's
length prune. :func:`verify_block` keeps one cost per pair of its block,
cap + 1 (rejected) until a matcher writes it. It first rejects with the
residual-length bound of :func:`filters.residual_prunes`, then matches the
residual tokens of up to four a side in arrays, with every edit distance of
a block in one :func:`strdist.ld_bounded_ids` call: the token ids go in,
and the kernel reads their code points from the join's
:class:`strdist.TokenTable`. The pairs the rows cannot express get their
cost from the scalar :func:`setdist.sld_capped`, one by one, with no cache.
Verify computes every edit distance it needs itself; the similar-token
search hands none on. The filter stage builds the rows from the token ids
the index stage interned, and the length prune and the verify cap read the
join's :class:`strdist.Bounds`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Any

import numpy as np

from .setdist import drop_shared, sld_capped
from .strdist import Bounds, TokenTable, ld_bounded_ids

_PACK_MASK = 0xFFFFFFFF
# the rows hold at most this many cells per token of the joined sides (at
# least one column); a record with more tokens than that width skips the
# residual prune and is verified by sld_capped
CELLS_PER_TOKEN = 4
# verify blocks make at most this many key comparisons (rows x width x
# width), and the length prune runs over blocks of as many rows; on W1,
# blocks of 2**16 to 2**21 took the same time
BLOCK_CELLS = 1 << 18
# the largest residual token count verified in arrays; above it, sld_capped
ARRAY_MAX_K = 4
# for each k, every permutation of range(k), one per row
_PERMS = {k: np.array(list(permutations(range(k))), dtype=np.intp) for k in range(2, ARRAY_MAX_K + 1)}


@dataclass(slots=True)
class VerifyStats:
    """Where verify's pairs went; ``sum(pairs_by_k) + residual_rejects`` is its input.

    ``pairs_by_k[k]`` counts the pairs with k residual tokens (the larger
    side's count after the shared tokens drop), the last entry k >= 5. On the
    array path a pair is counted once it passes the residual bound;
    ``residual_rejects`` counts the pairs that do not. Where the filter
    stage ran, :func:`pipeline.join` reports them as its
    ``pruned_by_histogram`` instead, and this count as 0. Pairs with a wide
    record or an empty token are counted by their k and matched by
    ``sld_capped``, bound included.
    ``kernel_cells`` is the number of token-pair edit distances k = 1..4
    needed, ``kernel_token_pairs`` the distinct token pairs among them that
    went to ``ld_bounded_ids``, and ``scalar_fallbacks`` the
    ``sld_capped`` calls.
    """

    pairs_by_k: list[int] = field(default_factory=lambda: [0] * (ARRAY_MAX_K + 2))
    residual_rejects: int = 0
    kernel_cells: int = 0
    kernel_token_pairs: int = 0
    scalar_fallbacks: int = 0

    def add(self, other: "VerifyStats") -> None:
        self.pairs_by_k = [a + b for a, b in zip(self.pairs_by_k, other.pairs_by_k)]
        self.residual_rejects += other.residual_rejects
        self.kernel_cells += other.kernel_cells
        self.kernel_token_pairs += other.kernel_token_pairs
        self.scalar_fallbacks += other.scalar_fallbacks

    def to_dict(self) -> dict[str, Any]:
        keys = [str(k) for k in range(ARRAY_MAX_K + 1)] + [f"{ARRAY_MAX_K + 1}+"]
        return {
            "pairs_by_k": dict(zip(keys, self.pairs_by_k)),
            "residual_rejects": self.residual_rejects,
            "kernel_cells": self.kernel_cells,
            "kernel_token_pairs": self.kernel_token_pairs,
            "scalar_fallbacks": self.scalar_fallbacks,
        }


class Residuals:
    """What the filter and verify read about both sides; the filter stage builds it.

    Verify's pool workers inherit it by fork.

    ``lens_left[i]`` is left record i's aggregate length and
    ``tokens_left[i]`` its tokens; ``keys_left`` and ``scalar_left`` are
    its key rows and the records they leave out (see :func:`_rows`), and
    likewise on the right. ``table`` holds the code points of the interned
    vocabulary, and ``table.lens[t]`` is the length of token t.
    ``bounds`` are the threshold's, over the longest record: a pair whose
    longer side has length l is pruned by length when the lengths differ by
    more than ``maxdiff[l]``, and ``cost_cap[L]`` is the largest setwise
    cost within the threshold at combined length L (the verify cap).
    """

    __slots__ = (
        "lens_left",
        "lens_right",
        "tokens_left",
        "tokens_right",
        "keys_left",
        "keys_right",
        # records the rows leave out; sld_capped verifies their pairs
        "scalar_left",
        "scalar_right",
        "width",
        "table",
        "bounds",
        "greedy",
    )

    def __init__(self, side_r, side_p, ids_r, ids_p, table: TokenTable, bounds: Bounds, *, greedy: bool):
        """Rows of the two prepared sides (the same side twice for a self-join).

        A side has ``counts`` (tokens per record), ``lens`` (the records'
        aggregate lengths) and ``tokens``; ``ids_r`` and ``ids_p`` hold the
        ids of each side's tokens in ``table``, record after record. The
        rows are as wide as the widest record, but at most
        ``CELLS_PER_TOKEN`` times the mean token count of the joined sides,
        so they never hold more than that many cells per token.
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
        self.keys_left, self.scalar_left = left
        self.keys_right, self.scalar_right = right
        self.table = table
        self.lens_left = side_r.lens
        self.lens_right = side_p.lens
        self.tokens_left = side_r.tokens
        self.tokens_right = side_p.tokens
        self.bounds = bounds
        self.greedy = greedy


def _rows(side, ids: np.ndarray, width: int, vocab_lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Key rows of one side's records, and the records they leave out.

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
    cols = flat + np.repeat(width - np.cumsum(side.counts), side.counts)
    keep = ~left_out[rows]
    at = (rows[keep], cols[keep])
    keys = np.full((n, width), -1, dtype=np.int64)
    keys[at] = (tids[keep] << 32) | (flat - first)[keep]
    return keys, left_out


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
    The bound is :func:`setdist.residual_lower_bound` over the residual
    lengths: both rows are front-padded to one width, and a column where
    both lengths are 0 adds nothing. Rows must come from records that
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
    a = cells_l >> 32
    b = cells_r >> 32
    # max(1, |a - b|), and 0 where both are padding
    real = a > 0
    real |= b > 0
    np.subtract(a, b, out=a)
    np.abs(a, out=a)
    np.maximum(a, real, out=a)
    return cells_l, cells_r, a.sum(axis=1)


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

    Each pair of the block has one cost, cap + 1 (rejected) until a matcher
    writes it. In arrays: the residual bound rejects, and pairs with k <= 4
    residual tokens (k <= 1 in greedy mode, whose ties follow the records'
    token order) get their cost from :func:`_matching_costs`. Pairs with a
    record the rows leave out, and the pairs with a larger k, get theirs from
    :func:`sld_capped`, one by one. The pairs whose cost is within the cap
    are accepted, in block order.
    """
    stats = VerifyStats()
    li, ri = _unpack(block)
    total = res.lens_left[li] + res.lens_right[ri]
    cap = res.bounds.cost_cap[total]
    scalar = res.scalar_left[li] | res.scalar_right[ri]
    arr = np.flatnonzero(~scalar)
    cells_l, cells_r, bound = _residual_cells(res, li[arr], ri[arr])
    within = bound <= cap[arr]
    stats.residual_rejects = arr.size - int(np.count_nonzero(within))
    k = np.maximum(np.count_nonzero(cells_l, axis=1), np.count_nonzero(cells_r, axis=1))
    stats.pairs_by_k = np.bincount(np.minimum(k[within], ARRAY_MAX_K + 1), minlength=ARRAY_MAX_K + 2).tolist()
    max_k = 1 if res.greedy else ARRAY_MAX_K
    # a rejected pair gets a k the array path skips
    k[~within] = max_k + 1
    matched = k <= max_k
    found = _matching_costs(k, cells_l, cells_r, cap[arr], max_k, res.table, stats)
    # made once the matching's temporaries, verify's memory peak, are gone
    cost = cap + 1
    cost[arr[matched]] = found[matched]

    fallback = arr[within & ~matched].tolist()
    for i in np.flatnonzero(scalar).tolist():
        rest_l, rest_r = drop_shared(res.tokens_left[li[i]], res.tokens_right[ri[i]])
        stats.pairs_by_k[min(max(len(rest_l), len(rest_r)), ARRAY_MAX_K + 1)] += 1
        fallback.append(i)
    stats.scalar_fallbacks = len(fallback)
    for i in fallback:
        s = sld_capped(res.tokens_left[li[i]], res.tokens_right[ri[i]], int(cap[i]), greedy=res.greedy)
        if s is not None:
            cost[i] = s
    keep = np.flatnonzero(cost <= cap)
    cost = cost[keep]
    return block[keep], (2.0 * cost) / (total[keep] + cost), stats


def _matching_costs(
    k: np.ndarray,
    cells_l: np.ndarray,
    cells_r: np.ndarray,
    caps: np.ndarray,
    max_k: int,
    table: TokenTable,
    stats: VerifyStats,
) -> np.ndarray:
    """The cost of each pair's best residual matching, exact wherever it is within the cap.

    ``k[i]`` is pair i's residual token count and the last ``k[i]`` columns
    of its residual rows hold the tokens (padding cells are 0). Pairs with
    k above ``max_k`` are skipped (their cost reads 0). Each k x k
    matrix weighs an edge against padding by the real token's length and
    an edge of two tokens by their edit distance, capped as in
    :func:`sld_capped`: an edge over the pair's cap weighs more than the cap
    (its distance, or cap + 1 where it is over the largest cap the kernel
    ran with), so a matching that needs it is rejected. Every edit distance
    of every k goes to one :func:`_edge_distances` call. k = 0 costs 0,
    k = 1 is its one edge, and larger k take the minimum over all
    permutations.
    """
    cost = np.zeros(k.size, dtype=np.int64)
    groups = []
    for kk in range(1, max_k + 1):
        sel = np.flatnonzero(k == kk)
        if sel.size:
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
        table,
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
