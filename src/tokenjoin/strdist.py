"""Character-level string distances and the length-based bounds used for pruning.

Distances: plain and length-normalized Levenshtein. The normalized form is
2*LD/(|x|+|y|+LD), a metric on [0, 1].

The bound helpers (largest/smallest edit distance consistent with a normalized
threshold, admissible partner lengths) are computed with exact rational
arithmetic on the binary64 value of the threshold. Floating-point floor/ceil of
these formulas can be off by one at representable boundaries, which would break
candidate-generation completeness, so every integer bound goes through
fractions.Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

ONE_MINUS = "one-minus"
RECIPROCAL = "reciprocal"
EXPONENTIAL = "exponential"
SIMILARITY_SCHEMES = (ONE_MINUS, RECIPROCAL, EXPONENTIAL)


def ld(x: str, y: str) -> int:
    """Levenshtein distance between two strings (two-row dynamic program)."""
    if x == y:
        return 0
    if not x:
        return len(y)
    if not y:
        return len(x)
    if len(y) > len(x):
        x, y = y, x
    # x is now the longer string; the row spans the shorter one.
    row = list(range(len(y) + 1))
    for i, cx in enumerate(x, 1):
        prev = row[0]
        row[0] = i
        for j, cy in enumerate(y, 1):
            cur = row[j]
            if cx == cy:
                row[j] = prev
            else:
                best = prev
                if cur < best:
                    best = cur
                if row[j - 1] < best:
                    best = row[j - 1]
                row[j] = best + 1
            prev = cur
    return row[-1]


def ld_bounded(x: str, y: str, cap: int) -> int | None:
    """Levenshtein distance if it does not exceed ``cap``, else None.

    Length difference, equality and caps 0 and 1 are decided without a dynamic
    program (cap 1 by stripping the common prefix and suffix). Larger caps run
    the bit-parallel algorithm of Myers (JACM 1999) in Hyyrö's edit-distance
    form: the shorter string is the pattern, one Python int per bit vector
    holds its whole column, so any length works, and each character of the
    longer string advances the column with a dozen integer operations on
    whole bit vectors. The last row's value moves by at most one per remaining text
    character, so the loop exits as soon as it exceeds the cap by more than
    what is left of the text. Never misreports: a non-None result equals
    ld(x, y).
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if x == y:
        return 0
    m, n = len(x), len(y)
    if abs(m - n) > cap or cap == 0:
        return None
    if n == 0:
        return m if m <= cap else None
    if m == 0:
        return n if n <= cap else None
    if cap == 1:
        # distance is 1 iff stripping the common prefix and suffix leaves at
        # most one unmatched position (a substitution or a length-1 gap)
        i = 0
        stop = min(m, n)
        while i < stop and x[i] == y[i]:
            i += 1
        j = 0
        while j < m - i and j < n - i and x[m - 1 - j] == y[n - 1 - j]:
            j += 1
        mid_x = m - i - j
        mid_y = n - i - j
        if m == n:
            return 1 if mid_x <= 1 else None
        return 1 if min(mid_x, mid_y) == 0 else None
    if m > n:
        x, y, m, n = y, x, n, m
    # x is the pattern (bit i stands for x[i]), y the text
    peq: dict[str, int] = {}
    bit = 1
    for c in x:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv = mask  # vertical deltas of the column: +1 everywhere at column 0
    mv = 0
    score = m
    slack = cap + n  # score - remaining text > cap  <=>  score > slack after the step
    for c in y:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        slack -= 1
        if score > slack:
            return None
        ph = (ph << 1) | 1  # row 0 grows by one per text character
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score  # the last step's exit test was score > cap


def nld(x: str, y: str) -> float:
    """Normalized Levenshtein distance 2*LD/(|x|+|y|+LD), in [0, 1]."""
    if x == y:
        return 0.0
    d = ld(x, y)
    return (2.0 * d) / (len(x) + len(y) + d)


@lru_cache(maxsize=None)
def threshold_ratio(threshold: float) -> tuple[int, int]:
    """Exact numerator/denominator of the binary64 threshold value."""
    frac = Fraction(threshold)
    if not 0 <= frac <= 1:
        raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")
    return frac.numerator, frac.denominator


def normalized_within(edits: int, total_len: int, threshold: float) -> bool:
    """Exact test of 2*edits/(total_len + edits) <= threshold.

    Works for both the string-level and the tokenized-string-level normalized
    distances (same formula, different length sums). Integer cross
    multiplication, no rounding.
    """
    num, den = threshold_ratio(threshold)
    return 2 * edits * den <= num * (total_len + edits)


@lru_cache(maxsize=None)
def max_ld_given_nld(y_len: int, threshold: float, x_shorter: bool) -> int:
    """Largest LD(x, y) consistent with nld(x, y) <= threshold.

    ``y_len`` is the length of y; ``x_shorter`` selects the |x| <= |y| case
    (bound floor(2*T*|y|/(2-T))) versus |x| > |y| (bound floor(T*|y|/(1-T))).
    The |x| > |y| formula diverges at T = 1, which is rejected as a
    configuration error rather than clamped.
    """
    if y_len < 0:
        raise ValueError("y_len must be >= 0")
    t = Fraction(threshold)
    if not 0 <= t <= 1:
        raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")
    if x_shorter:
        return math.floor(2 * t * y_len / (2 - t))
    if t >= 1:
        raise ValueError("threshold must be < 1 when x is the longer side")
    return math.floor(t * y_len / (1 - t))


@lru_cache(maxsize=None)
def min_partner_len(y_len: int, threshold: float) -> int:
    """Smallest |x| with |x| <= |y| admitting nld(x, y) <= threshold.

    ceil((1 - T) * |y|), exact.
    """
    if y_len < 0:
        raise ValueError("y_len must be >= 0")
    t = Fraction(threshold)
    if not 0 <= t <= 1:
        raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")
    return math.ceil((1 - t) * y_len)


@lru_cache(maxsize=None)
def min_ld_given_nld_exceeds(y_len: int, threshold: float, x_shorter: bool) -> int:
    """Exclusive lower bound on LD(x, y) when nld(x, y) > threshold.

    floor(T*|y|/(2-T)) for |x| <= |y|, floor(2*T*|y|/(2-T)) otherwise.
    """
    if y_len < 0:
        raise ValueError("y_len must be >= 0")
    t = Fraction(threshold)
    if not 0 <= t < 2:
        raise ValueError(f"threshold must be in [0, 2), got {threshold!r}")
    if x_shorter:
        return math.floor(t * y_len / (2 - t))
    return math.floor(2 * t * y_len / (2 - t))


def nld_bounds_from_lengths(x_len: int, y_len: int) -> tuple[float, float]:
    """Range of possible nld values for strings of the given lengths.

    With a = min/max of the lengths, returns (1 - a, 2/(a + 2)). Both lengths
    zero gives (0, 0); one empty side forces the distance to 1.
    """
    if x_len < 0 or y_len < 0:
        raise ValueError("lengths must be >= 0")
    if x_len == 0 and y_len == 0:
        return (0.0, 0.0)
    a = min(x_len, y_len) / max(x_len, y_len)
    return (1.0 - a, 2.0 / (a + 2.0))


def distance_to_similarity(d: float, scheme: str) -> float:
    """Convert a distance to a similarity via the chosen scheme."""
    if d < 0:
        raise ValueError("distance must be >= 0")
    if scheme == ONE_MINUS:
        return 1.0 - d
    if scheme == RECIPROCAL:
        return 1.0 / (1.0 + d)
    if scheme == EXPONENTIAL:
        return math.exp(-d)
    raise ValueError(f"unknown similarity scheme {scheme!r}")
