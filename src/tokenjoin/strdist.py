"""Character-level string distances and the length-based bounds used for pruning.

Distances: plain and length-normalized Levenshtein. The normalized form is
2*LD/(|x|+|y|+LD), a metric on [0, 1]. The join computes its edit distances
in batches of token ids: :func:`token_table` lays out the code points of the
interned vocabulary once, with a 32-bit character signature per token, and
:func:`ld_bounded_ids` settles the pairs whose signatures differ by more
than the cap, decides the pairs at cap 1 from their common prefix and
suffix, then gathers each remaining pair's rows from the table for a
bit-parallel kernel on numpy words.

The bound helpers (largest/smallest edit distance consistent with a normalized
threshold, admissible partner lengths) are computed with exact rational
arithmetic on the binary64 value of the threshold. Floating-point floor/ceil of
these formulas can be off by one at representable boundaries, which would break
candidate-generation completeness, so every integer bound goes through
fractions.Fraction or the exact ratio ``num/den``. The join reads all of its
bounds from one table, :func:`threshold_bounds`, built once per join in int64
from the best rational approximation of each ratio with a denominator up to
the longest length, which floors every length's quotient exactly; the
Fraction helpers are the references the tests hold it to.

The table and the batch kernel import numpy where they run, not at module
import. The package imports this module first; when the sources are
compiled at every import (no cached bytecode), numpy loaded that early sits
above the memory that compiling the larger modules frees, so the memory is
not given back, and a join's peak RSS rose by about a megabyte.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterator
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

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


# the batch kernel holds a pattern in one 64-bit word; longer ones fall back
_BATCH_PATTERN_MAX = 63
_GATHER_BYTE_FLAGS = 0x0102040810204080  # sum of 2**(56 - 7k), k = 0..7
# one kernel pass holds at most this many code points of patterns and texts
# (512 KB); passes of 2**17 to 2**22 took about the same time on W1
_BATCH_CODE_POINTS = 1 << 17
# a token's signature has one bit per bucket of code points c & 31, so every
# lowercase ASCII letter has a bucket of its own
_SIG_BUCKETS = 32


class TokenTable(NamedTuple):
    """The UTF-32 code points of a vocabulary, token after token, in one array.

    Token t is ``codes[starts[t] : starts[t] + lens[t]]``; ``codes`` is
    uint32, ``starts`` and ``lens`` are int64. ``sigs[t]`` is token t's
    character signature, a uint32 with bit ``c & 31`` set for each of its
    code points c (0 for the empty token), which :func:`ld_bounded_ids`
    bounds the distance with. Built by :func:`token_table`.
    """

    codes: np.ndarray
    starts: np.ndarray
    lens: np.ndarray
    sigs: np.ndarray

    def rows(self, ids: np.ndarray, width: int) -> np.ndarray:
        """One row of ``width`` code points per token of ``ids``, read from the token's start.

        Past a token's length a row holds whatever follows it in the table
        (the table's last code point, at its end).
        """
        import numpy as np

        return np.take(self.codes, self.starts[ids][:, None] + np.arange(width), mode="clip")

    def tails(self, ids: np.ndarray, width: int) -> np.ndarray:
        """One row of ``width`` code points per token of ``ids``, read backwards from the token's last.

        Past a token's length a row holds whatever precedes it in the table
        (the table's first code point, at its start).
        """
        import numpy as np

        ends = self.starts[ids] + self.lens[ids] - 1
        return np.take(self.codes, ends[:, None] - np.arange(width), mode="clip")

    def token(self, t: int) -> str:
        """The token with id ``t``."""
        start = int(self.starts[t])
        return "".join(map(chr, self.codes[start : start + int(self.lens[t])].tolist()))


def token_table(tokens: Collection[str]) -> TokenTable:
    """The :class:`TokenTable` of ``tokens``, token id i at position i.

    The code points are read through numpy's ``str_`` layout, which is
    UTF-32, so no codec module is imported. The signatures are one
    ``bitwise_or.reduceat`` of each code point's bucket bit over the
    non-empty tokens' starts.
    """
    import numpy as np

    lens = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    joined = "".join(tokens)
    size = len(joined)
    codes = np.array([joined], dtype=f"<U{max(size, 1)}").view("<u4")[:size]
    starts = np.cumsum(lens) - lens
    sigs = np.zeros(lens.size, dtype=np.uint32)
    filled = lens > 0
    bits = codes & np.uint32(_SIG_BUCKETS - 1)
    np.left_shift(np.uint32(1), bits, out=bits)  # in place: fresh pages cost as much as the shift
    sigs[filled] = np.bitwise_or.reduceat(bits, starts[filled])
    return TokenTable(codes, starts, lens, sigs)


def ld_bounded_ids(
    table: TokenTable, a: np.ndarray, b: np.ndarray, caps: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """The capped distance of each pair of token ids, and how many pairs the kernel and the one-edit test ran.

    Per pair ``(a[i], b[i])`` the distance if it is at most ``caps[i]``,
    else -1. The ids index ``table``, whose tokens must be distinct, so
    equal ids are the identical tokens (distance 0) and distinct ids differ
    by at least one edit. Equal ids, cap 0, empty tokens and length
    differences over the cap are decided without the kernel, and so is
    every pair that the table's character signatures put over its cap:
    each character of x whose bucket holds no character of y must be
    substituted or deleted, each by an edit of its own, so LD(x, y) is at
    least the count of x's buckets that y lacks, and likewise for y (the
    bag distance of Bartolini, Ciaccia and Patella, SPIRE 2002, over 32
    buckets). The open pairs at cap 1 take :func:`_one_edit`, exact at any
    length. The other pairs run :func:`ld_bounded`'s bit-parallel column
    update on numpy words, all pairs at once: the shorter token is the
    pattern (one uint64 per pair, so at most 63 characters;
    longer patterns are decoded and fall back to :func:`ld_bounded`) and the
    longer one the text, their code points gathered as rows of the table.
    Sorted by text length, the pairs still reading text at step j are a
    prefix of the batch, so each step works on a contiguous slice and no
    pair is masked. Both the kernel and the one-edit test run in passes of
    at most ``_BATCH_CODE_POINTS`` code points (:func:`_passes`), so a few
    very long tokens cannot blow up the matrices. The counts returned with
    the distances are the pairs that reached the kernel or the fallback, and
    those the one-edit test decided.
    """
    import numpy as np

    len_a = table.lens[a]
    len_b = table.lens[b]
    short = np.minimum(len_a, len_b)
    long = np.maximum(len_a, len_b)
    out = np.full(a.size, -1, dtype=np.int64)
    same = a == b
    out[same] = 0
    open_ = ~same & (caps > 0) & (long - short <= caps)
    empty = open_ & (short == 0)
    out[empty] = long[empty]  # the length difference is within the cap
    open_ &= short > 0
    sig_a, sig_b = table.sigs[a], table.sigs[b]
    only_a = np.bitwise_count(sig_a & ~sig_b)
    only_b = np.bitwise_count(sig_b & ~sig_a)
    open_ &= np.maximum(only_a, only_b) <= caps
    one = np.flatnonzero(open_ & (caps == 1))
    for part in _passes(one, 4 * (short + 1)):
        out[part] = np.where(_one_edit(table, a[part], b[part], short[part]), 1, -1)
    open_ &= caps > 1
    for i in np.flatnonzero(open_ & (short > _BATCH_PATTERN_MAX)).tolist():
        d = ld_bounded(table.token(a[i]), table.token(b[i]), int(caps[i]))
        out[i] = -1 if d is None else d
    # longest text first: the pairs still reading text form a prefix
    for part in _passes(np.flatnonzero(open_ & (short <= _BATCH_PATTERN_MAX)), 64 + long):
        a_first = len_a[part] <= len_b[part]
        pats = np.where(a_first, a[part], b[part])
        texts = np.where(a_first, b[part], a[part])
        m, n = short[part], long[part]
        width = -(-int(m.max()) // 8) * 8  # whole bytes of pattern bits
        dist = _myers_batch(table.rows(pats, width), table.rows(texts, int(n[0])), m, n)
        out[part] = np.where(dist <= caps[part], dist, -1)
    return out, int(np.count_nonzero(open_)), int(one.size)


def _passes(pairs: np.ndarray, cells: np.ndarray) -> Iterator[np.ndarray]:
    """``pairs`` by descending ``cells``, in slices of at most ``_BATCH_CODE_POINTS`` code points.

    ``cells[i]`` is how many code points pair i gathers; a pair that
    gathers more than a pass holds runs alone.
    """
    import numpy as np

    pairs = pairs[np.argsort(-cells[pairs], kind="stable")]
    start = 0
    while start < pairs.size:
        part = pairs[start : start + max(1, _BATCH_CODE_POINTS // int(cells[pairs[start]]))]
        start += part.size
        yield part


def _one_edit(table: TokenTable, a: np.ndarray, b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Whether each pair of distinct token ids is within one edit.

    The tokens' lengths must differ by at most one, and ``m[i]``, the
    shorter, be at least 1. With p and s the lengths of the common prefix
    and the common suffix, each read over the first and last m characters,
    so they may overlap, LD <= 1 iff p + s >= m − (m == n), n being the
    longer length, as :func:`ld_bounded` decides cap 1: at equal lengths
    the two tokens then differ in one position, and at n = m + 1 the
    longer one is the shorter with one character inserted, after its first
    n − 1 − s characters. Reads rows m + 1 code points wide: column m is
    past every token's shorter side and counts as a mismatch, so the first
    mismatch of a row is at most m.
    """
    import numpy as np

    width = int(m.max()) + 1
    past = np.arange(width) >= m[:, None]
    head = table.rows(a, width) != table.rows(b, width)
    head |= past
    tail = table.tails(a, width) != table.tails(b, width)
    tail |= past
    return head.argmax(axis=1) + tail.argmax(axis=1) >= m - (table.lens[a] == table.lens[b])


def _myers_batch(pats: np.ndarray, texts: np.ndarray, m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Levenshtein distances of pattern/text rows; ``n`` must be non-increasing.

    Pattern row i holds ``m[i]`` characters and text row i ``n[i]``, each
    followed by any values: the columns after a text are never read, and
    pattern bits at or above ``m[i]`` never reach the lower bits (shifts and
    carries only move up), so what the pattern's padding matches does not
    matter. The pattern matrix is at
    most 64 columns wide, a multiple of 8.
    """
    import numpy as np

    m_u = m.astype(np.uint64)
    mask = (np.uint64(1) << m_u) - np.uint64(1)
    last = np.uint64(1) << (m_u - np.uint64(1))
    pv = mask.copy()
    mv = np.zeros_like(pv)
    score = m.copy()
    # active[j] = how many pairs have a text character at position j
    active = np.searchsorted(-n, -np.arange(int(n[0])), side="left").tolist()
    # the match bits of one text character, in the low bytes of a word
    eq_bytes = np.zeros((m.size, 8), dtype=np.uint8)
    n_bytes = pats.shape[1] // 8
    for j, c in enumerate(active):
        if c < pv.size:
            pv, mv, mask, last, pats = pv[:c], mv[:c], mask[:c], last[:c], pats[:c]
            eq_bytes = eq_bytes[:c]
        # each 8 match flags (bytes 0/1) read as one word; the multiply puts
        # flag k at bit 56 + k with no carries, so the top byte packs them
        hit = (pats == texts[:c, j, None]).view("<u8")
        eq_bytes[:, :n_bytes] = (hit * np.uint64(_GATHER_BYTE_FLAGS)) >> np.uint64(56)
        eq = eq_bytes.view("<u8")[:, 0]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        s = score[:c]
        s += (ph & last) != 0
        s -= (mh & last) != 0
        ph = (ph << np.uint64(1)) | np.uint64(1)
        mh <<= np.uint64(1)
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


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


class Bounds(NamedTuple):
    """A threshold's exact ratio ``num/den`` and its integer bounds by length (:func:`threshold_bounds`).

    For strings x and y with |x| <= |y| = l: ``cost_cap[|x| + |y|]`` is the
    largest LD within the threshold, so ``U(l) = cost_cap[2·l]``; the
    lengths alone put the pair beyond it when ``l − |x| > maxdiff[l]``; and
    no y longer than ``ceiling[|x|]`` is within it.
    """

    num: int
    den: int
    cost_cap: np.ndarray
    maxdiff: np.ndarray
    ceiling: np.ndarray


def threshold_bounds(threshold: float, max_len: int) -> Bounds:
    """The :class:`Bounds` of ``threshold`` for lengths up to ``max_len``, exact.

    ``cost_cap[L] = num·L // (2·den − num)`` for L <= 2·max_len and
    ``maxdiff[l] = num·l // den`` for l <= max_len, all int64.
    ``ceiling[l] = min(l·den // (den − num), max_len)`` is the largest y <=
    max_len whose ``y − maxdiff[y] = ⌈y·(1 − T)⌉`` is at most l, found by
    one search over ``maxdiff``, since that difference never decreases.
    """
    import numpy as np

    num, den = threshold_ratio(threshold)
    if num == den:
        raise ValueError("threshold must be < 1")
    lengths = np.arange(max_len + 1, dtype=np.int64)
    maxdiff = _floor_ratios(num, den, max_len)
    return Bounds(
        num,
        den,
        _floor_ratios(num, 2 * den - num, 2 * max_len),
        maxdiff,
        np.searchsorted(lengths - maxdiff, lengths, side="right") - 1,
    )


def _floor_ratios(a: int, b: int, n: int) -> np.ndarray:
    """``a·l // b`` for l = 0..n, exact, as int64; needs 0 <= a < b.

    For 0 < l <= n, the quotient k = a·l // b makes k/l a fraction at most
    a/b with a denominator up to n, so k equals ``p·l // q``, where p/q is
    the largest such fraction: none lies between p/q and a/b. ``limit_denominator``
    gives the nearest one; where that is above a/b, p/q is its left
    neighbour in the Farey sequence of order n (Graham, Knuth and Patashnik,
    *Concrete Mathematics*, 4.5). As p < q <= n, ``p·l`` stays below n².
    """
    import numpy as np

    order = max(n, 1)
    near = Fraction(a, b).limit_denominator(order)
    p, q = near.numerator, near.denominator
    if p * b > a * q:
        q = order - (order - pow(p, -1, q)) % q
        p = (near.numerator * q - 1) // near.denominator
    return np.arange(n + 1, dtype=np.int64) * p // q


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
    raise ValueError(f"unknown similarity scheme {scheme!r}; expected one of {SIMILARITY_SCHEMES}")
