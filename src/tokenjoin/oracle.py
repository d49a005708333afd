"""Brute-force reference implementations for acceptance and property tests.

Deliberately simple and slow: no inverted index, no candidate filtering, no
approximation. The setwise cost is an exhaustive minimum over all bijections
of the padded token multisets; the join is a full quadratic scan. The only
code shared with the engine is the base Levenshtein primitive (itself
cross-checked against a naive full-matrix DP in the test suite).

Token-pair distances are memoized within a call; pass ``ld_cache`` to reuse
the memo across calls on the same corpus (it only ever holds exact distances,
so reuse cannot change any result). :func:`join_bruteforce_thresholds`
scores each record pair once for several thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from .errors import OracleGuardError
from .setdist import sld_exact
from .strdist import ld
from .textnorm import TokenizedString

MAX_TOKENS_BRUTEFORCE = 8
MAX_PAIR_EVALS = 10_000_000


@dataclass(frozen=True, slots=True)
class OracleResult:
    """Sorted (left_id, right_id, distance) triples from the quadratic scan."""

    pairs: tuple[tuple[str, str, float], ...]


def _cached_ld(x: str, y: str, memo: dict) -> int:
    if x == y:
        return 0
    key = (x, y) if x <= y else (y, x)
    d = memo.get(key)
    if d is None:
        d = memo[key] = ld(x, y)
    return d


def _min_pairing_cost(tokens_a: Sequence[str], tokens_b: Sequence[str], memo: dict) -> int:
    """Minimum total edit cost over all bijections of the padded multisets."""
    k = max(len(tokens_a), len(tokens_b))
    if k == 0:
        return 0
    ta = tuple(tokens_a) + ("",) * (k - len(tokens_a))
    tb = tuple(tokens_b) + ("",) * (k - len(tokens_b))
    if k == 1:
        return _cached_ld(ta[0], tb[0], memo)
    cost = [[_cached_ld(x, y, memo) for y in tb] for x in ta]
    if k == 2:
        return min(cost[0][0] + cost[1][1], cost[0][1] + cost[1][0])
    if k == 3:
        c0, c1, c2 = cost
        return min(
            c0[0] + c1[1] + c2[2],
            c0[0] + c1[2] + c2[1],
            c0[1] + c1[0] + c2[2],
            c0[1] + c1[2] + c2[0],
            c0[2] + c1[0] + c2[1],
            c0[2] + c1[1] + c2[0],
        )
    best = None
    for perm in permutations(range(k)):
        total = 0
        for i in range(k):
            total += cost[i][perm[i]]
        if best is None or total < best:
            best = total
    return best


def sld_bruteforce(a: TokenizedString, b: TokenizedString) -> int:
    """Setwise edit distance by exhaustive enumeration of token pairings."""
    if max(a.token_count, b.token_count) > MAX_TOKENS_BRUTEFORCE:
        raise OracleGuardError(
            f"brute-force pairing limited to {MAX_TOKENS_BRUTEFORCE} tokens per record"
        )
    return _min_pairing_cost(a.tokens, b.tokens, {})


def join_bruteforce(
    corpus_r: Sequence[TokenizedString],
    corpus_p: Sequence[TokenizedString] | None,
    threshold: float,
    *,
    ld_cache: dict | None = None,
) -> OracleResult:
    """Evaluate every record pair and keep those within the threshold.

    ``corpus_p`` of None scans the self-join's i<j pairs. Records with more
    than eight tokens fall back to the exact matching solver; everything else
    goes through permutation enumeration.
    """
    return join_bruteforce_thresholds(corpus_r, corpus_p, (threshold,), ld_cache=ld_cache)[threshold]


def join_bruteforce_thresholds(
    corpus_r: Sequence[TokenizedString],
    corpus_p: Sequence[TokenizedString] | None,
    thresholds: Sequence[float],
    *,
    ld_cache: dict | None = None,
) -> dict[float, OracleResult]:
    """:func:`join_bruteforce` at each of ``thresholds``, scoring each record pair once.

    A pair's setwise cost does not depend on the threshold, so one scan
    answers them all.
    """
    fracs = []
    for threshold in thresholds:
        frac = Fraction(threshold)
        if not 0 <= frac < 1:
            raise OracleGuardError(f"threshold must be in [0, 1), got {threshold!r}")
        fracs.append((frac.numerator, frac.denominator))
    self_join = corpus_p is None
    recs_r = sorted(corpus_r, key=lambda r: r.id)
    recs_p = recs_r if self_join else sorted(corpus_p, key=lambda r: r.id)
    n_evals = len(recs_r) * (len(recs_r) - 1) // 2 if self_join else len(recs_r) * len(recs_p)
    if n_evals > MAX_PAIR_EVALS:
        raise OracleGuardError(
            f"{n_evals} pair evaluations exceed the oracle guard of {MAX_PAIR_EVALS}"
        )
    memo = ld_cache if ld_cache is not None else {}
    outs: list[list[tuple[str, str, float]]] = [[] for _ in fracs]

    def evaluate(ra: TokenizedString, rb: TokenizedString) -> None:
        if max(ra.token_count, rb.token_count) <= MAX_TOKENS_BRUTEFORCE:
            s = _min_pairing_cost(ra.tokens, rb.tokens, memo)
        else:
            s = sld_exact(ra, rb).sld
        total_len = ra.agg_len + rb.agg_len
        for (num, den), out in zip(fracs, outs):
            if 2 * s * den <= num * (total_len + s):
                out.append((ra.id, rb.id, 0.0 if s == 0 else (2.0 * s) / (total_len + s)))

    if self_join:
        for i in range(len(recs_r) - 1):
            ra = recs_r[i]
            for j in range(i + 1, len(recs_r)):
                evaluate(ra, recs_r[j])
    else:
        for ra in recs_r:
            for rb in recs_p:
                evaluate(ra, rb)
    for out in outs:
        out.sort()
    return {threshold: OracleResult(tuple(out)) for threshold, out in zip(thresholds, outs)}
