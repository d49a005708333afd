"""Distances between token multisets.

The setwise edit distance pairs up the tokens of two records (padding the
smaller side with empty tokens) so that the total character-level edit cost is
minimal, i.e. a minimum-weight perfect matching on the token bigraph. The
normalized form divides by the combined aggregate length, mirroring the
string-level normalization.

Every setwise cost is one padded square cost matrix
(:func:`_padded_cost_matrix`) and one solver: the O(k^3) Hungarian
algorithm for the exact cost, or :func:`_greedy_matching` for the cheaper
upper-bound approximation, whose ties follow the records' token order.
:func:`sld_capped` drops the tokens the two records share
(:func:`drop_shared`), rejects by the residual lower bound
(:func:`residual_lower_bound`, which counts an empty token as padding), then
caps the edit distances of its matrix at the pair's cost cap. It specifies
what the join's verify computes from token ids and record-order key rows
(``residual.verify_block``); the join calls neither it nor
:func:`drop_shared`. Its edit distances can go through an :class:`LdCache`,
whose :meth:`LdCache.bounded` computes and remembers each one.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .strdist import ld, ld_bounded, nld_bounds_from_lengths
from .textnorm import TokenizedString

PAD = None  # stands for the empty padding token in pairings

_INF = float("inf")


@dataclass(frozen=True, slots=True)
class AlignmentCost:
    """Total setwise edit cost plus one optimal (or greedy) token pairing.

    ``pairing`` holds (left index, right index) tuples; ``None`` on a side
    means the opposite token was matched against padding. Only the total is
    contractual — equal-cost pairings may differ.
    """

    sld: int
    pairing: tuple[tuple[int | None, int | None], ...]


def hungarian(cost: list[list[int]]) -> tuple[int, list[int]]:
    """Minimum-cost perfect matching on a square cost matrix.

    Returns (total cost, assignment) where assignment[row] = column. Potentials
    formulation, O(k^3). Ties between equal-cost matchings break arbitrarily.
    """
    k = len(cost)
    if k == 0:
        return 0, []
    inf = _INF
    u = [0] * (k + 1)
    v = [0] * (k + 1)
    match_col = [0] * (k + 1)  # match_col[j] = row currently assigned to column j (1-based)
    way = [0] * (k + 1)
    for i in range(1, k + 1):
        match_col[0] = i
        j0 = 0
        minv = [inf] * (k + 1)
        used = [False] * (k + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = inf
            j1 = 0
            row = cost[i0 - 1]
            for j in range(1, k + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(k + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    assignment = [0] * k
    for j in range(1, k + 1):
        assignment[match_col[j] - 1] = j - 1
    total = sum(cost[i][assignment[i]] for i in range(k))
    return total, assignment


def _padded_cost_matrix(
    a_tokens: Sequence[str], b_tokens: Sequence[str], dist: Callable[[str, str], int] = ld
) -> list[list[int]]:
    """k x k cost matrix of two token lists, the shorter padded with empty tokens.

    An edge against an empty token costs both lengths summed (the other
    token's length, as its edit distance would be); every other edge costs
    ``dist``, the edit distance unless a caller passes a capped one.
    """
    k = max(len(a_tokens), len(b_tokens))
    matrix: list[list[int]] = []
    for i in range(k):
        ta = a_tokens[i] if i < len(a_tokens) else ""
        row = []
        for j in range(k):
            tb = b_tokens[j] if j < len(b_tokens) else ""
            row.append(dist(ta, tb) if ta and tb else len(ta) + len(tb))
        matrix.append(row)
    return matrix


def _greedy_matching(matrix: list[list[int]]) -> tuple[int, list[int]]:
    """Greedy perfect matching on a square cost matrix: repeatedly take the cheapest free edge.

    Returns (total cost, assignment) where assignment[row] = column. At
    equal weight the smallest (row, column) wins, so results are
    reproducible.
    """
    k = len(matrix)
    edges = sorted((matrix[i][j], i, j) for i in range(k) for j in range(k))
    row_free = [True] * k
    col_free = [True] * k
    assignment = [0] * k
    total = 0
    left = k
    for w, i, j in edges:
        if row_free[i] and col_free[j]:
            row_free[i] = False
            col_free[j] = False
            assignment[i] = j
            total += w
            left -= 1
            if left == 0:
                break
    return total, assignment


def _pairing_from_assignment(
    assignment: list[int], n_a: int, n_b: int
) -> tuple[tuple[int | None, int | None], ...]:
    pairs = []
    for i, j in enumerate(assignment):
        left = i if i < n_a else PAD
        right = j if j < n_b else PAD
        pairs.append((left, right))
    return tuple(pairs)


def sld_exact(a: TokenizedString, b: TokenizedString) -> AlignmentCost:
    """Exact setwise edit distance via minimum-weight perfect matching."""
    if not a.tokens and not b.tokens:
        return AlignmentCost(0, ())
    cost = _padded_cost_matrix(a.tokens, b.tokens)
    total, assignment = hungarian(cost)
    return AlignmentCost(total, _pairing_from_assignment(assignment, len(a.tokens), len(b.tokens)))


def sld_greedy(a: TokenizedString, b: TokenizedString) -> AlignmentCost:
    """Greedy setwise edit cost: :func:`_greedy_matching` on the padded cost matrix.

    Exact edge weights; at equal weight the smallest (left, right) index pair
    wins, so results are reproducible, and the total depends on the
    records' token order: ``("baa", "b", "ab")`` against ``("bab", "a",
    "aabb")`` costs 4, with ``("baa", "ab", "b")`` on the left 5 (the exact
    distance is 4 for both). Never below the exact distance.
    """
    if not a.tokens and not b.tokens:
        return AlignmentCost(0, ())
    total, assignment = _greedy_matching(_padded_cost_matrix(a.tokens, b.tokens))
    return AlignmentCost(total, _pairing_from_assignment(assignment, len(a.tokens), len(b.tokens)))


def nsld(a: TokenizedString, b: TokenizedString, mode: str = "exact") -> float:
    """Normalized setwise distance 2*SLD/(L_a + L_b + SLD), in [0, 1].

    Zero when both records are empty. ``mode`` picks the exact or the greedy
    setwise cost; the greedy one depends on token order (:func:`sld_greedy`).
    """
    if mode == "exact":
        s = sld_exact(a, b).sld
    elif mode == "greedy":
        s = sld_greedy(a, b).sld
    else:
        raise ValueError(f"unknown matching mode {mode!r}")
    if s == 0:
        return 0.0
    return (2.0 * s) / (a.agg_len + b.agg_len + s)


def nsld_bounds_from_lengths(la: int, lb: int) -> tuple[float, float]:
    """Length-based bounds on the normalized setwise distance.

    The lower bound holds for every pair of records (the setwise cost is at
    least the aggregate-length difference) and is what the length filter
    prunes on. The upper bound assumes the setwise cost never exceeds the
    larger aggregate length, which holds for single-token records but can be
    exceeded once token boundaries prevent character reuse; treat it as
    indicative only. The formula is :func:`strdist.nld_bounds_from_lengths`,
    over aggregate lengths.
    """
    return nld_bounds_from_lengths(la, lb)


def sorted_lengths_lower_bound(lens_a: tuple[int, ...], lens_b: tuple[int, ...]) -> int:
    """Lower bound on the setwise cost from two ascending token-length lists.

    Pads the shorter list with zero lengths, then sums |difference| position by
    position. Every token pairing costs at least the absolute length
    difference, and the sorted alignment minimizes that sum over scalars, so
    this never exceeds the true setwise distance.
    """
    diff = len(lens_a) - len(lens_b)
    if diff > 0:
        lens_b = (0,) * diff + lens_b
    elif diff < 0:
        lens_a = (0,) * -diff + lens_a
    return sum(abs(p - q) for p, q in zip(lens_a, lens_b))


def drop_shared(a_tokens: Sequence[str], b_tokens: Sequence[str]) -> tuple[list[str], list[str]]:
    """Each side's tokens left after removing the token multiset the two share.

    A token repeated on both sides is removed as often as its smaller count.
    """
    rest_b = list(b_tokens)
    rest_a = []
    for tok in a_tokens:
        if tok in rest_b:
            rest_b.remove(tok)
        else:
            rest_a.append(tok)
    return rest_a, rest_b


def residual_lower_bound(a_tokens: Sequence[str], b_tokens: Sequence[str]) -> int:
    """Lower bound on the setwise cost of two token lists with no token in common.

    Sorts each side's token lengths, front-pads the shorter list with zeros
    and sums max(1, |difference|) position by position. An empty token
    counts as padding, which costs the same against every token.
    """
    lens_a = sorted(filter(None, map(len, a_tokens)))
    lens_b = sorted(filter(None, map(len, b_tokens)))
    if len(lens_a) < len(lens_b):
        lens_a[:0] = [0] * (len(lens_b) - len(lens_a))
    elif len(lens_b) < len(lens_a):
        lens_b[:0] = [0] * (len(lens_a) - len(lens_b))
    bound = 0
    for la, lb in zip(lens_a, lens_b):
        d = la - lb if la > lb else lb - la
        bound += d if d else 1
    return bound


def sld_capped(
    a_tokens: Sequence[str],
    b_tokens: Sequence[str],
    cap: int,
    *,
    greedy: bool = False,
    ld_cache: "LdCache | None" = None,
) -> int | None:
    """Setwise cost if it does not exceed ``cap``, else None.

    Tokens the two sides share (as multisets) are matched to each other
    first and drop out: with the empty padding token, LD obeys the triangle
    inequality, so some optimal matching pairs equal tokens, and greedy takes
    exactly these zero-weight edges first in (left, right) order. The rest is
    matched on the residual matrix.

    Before any edit distance is computed, :func:`residual_lower_bound`
    above ``cap`` rejects the pair. Residual tokens differ, so a real-real
    edge costs at least max(1, |length difference|); a padding edge costs
    the token's length, at least 1 for a non-empty token; and since
    max(1, |d|) is convex, the sorted alignment minimizes its sum over all
    matchings. Greedy totals are never below the exact one, so the bound
    serves both modes. An empty residual token weighs what padding weighs,
    its edges the other token's length and 0, so the bound leaves it out.

    The residual matrix is :func:`_padded_cost_matrix` with the bounded
    distance capped at ``cap`` as ``dist``: over-cap edges get the
    surrogate weight cap+1, so any matching that needs one totals above the
    cap and is rejected, while accepted totals are exact (an optimal
    matching within the cap only uses exactly-weighted edges).
    :func:`_greedy_matching` solves it in greedy mode and :func:`hungarian`
    in exact mode.
    """
    a_tokens, b_tokens = drop_shared(a_tokens, b_tokens)
    if residual_lower_bound(a_tokens, b_tokens) > cap:
        return None
    bounded = ld_cache.bounded if ld_cache is not None else ld_bounded

    def capped(x: str, y: str) -> int:
        d = bounded(x, y, cap)
        return cap + 1 if d is None else d

    total, _ = (_greedy_matching if greedy else hungarian)(_padded_cost_matrix(a_tokens, b_tokens, capped))
    return total if total <= cap else None


class LdCache:
    """Memo for bounded distances, reusable across differing caps.

    Exact values are cached forever; over-cap outcomes remember the highest
    cap they were proven to exceed, so later queries with a smaller cap skip
    the kernel entirely.
    """

    __slots__ = ("_exact", "_over")

    def __init__(self) -> None:
        self._exact: dict[tuple[str, str], int] = {}
        self._over: dict[tuple[str, str], int] = {}

    def bounded(self, x: str, y: str, cap: int) -> int | None:
        if x == y:
            return 0
        key = (x, y) if x <= y else (y, x)
        d = self._exact.get(key)
        if d is not None:
            return d if d <= cap else None
        if self._over.get(key, -1) >= cap:
            return None
        d = ld_bounded(x, y, cap)
        if d is None:
            self._over[key] = cap
        else:
            self._exact[key] = d
        return d
