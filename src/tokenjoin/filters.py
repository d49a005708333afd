"""Cheap pruning between candidate generation and verification.

Every filter rejects only pairs whose normalized setwise distance provably
exceeds the threshold, so the verified output is identical with filters on or
off. The length filter reads two integers; the histogram filter lower-bounds
the setwise cost from sorted token-length lists; the residual filter does the
same after dropping the tokens the two records share, with at least one edit
per remaining token pair. The join's filter stage runs the length prune,
then, on its survivors, the record-signature prune of
:func:`residual.signature_survivors` (a bag distance over 32 buckets of code
points, at least one edit per character the other record lacks), and
verify applies the residual bound before it matches any tokens. All
predicates are exact integer comparisons against the rational threshold.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .setdist import drop_shared, residual_lower_bound, sorted_lengths_lower_bound
from .strdist import threshold_ratio


@dataclass(slots=True)
class FilterStats:
    """Counters reconciling exactly: input = pruned_by_length + pruned_by_histogram + surviving.

    The join's histogram prunes are its two cost-bound prunes of the length
    survivors: the record-signature prune (:func:`residual.signature_survivors`),
    whose share ``pruned_by_signature`` counts, then the residual prune
    (:func:`residual_prunes`), which verify applies; ``surviving`` is what
    verify goes on to match.
    """

    input_pairs: int = 0
    pruned_by_length: int = 0
    pruned_by_histogram: int = 0
    pruned_by_signature: int = 0
    surviving: int = 0


def length_prunes(la: int, lb: int, num: int, den: int) -> bool:
    """True when aggregate lengths alone put the pair beyond num/den.

    1 - min/max > T, cross-multiplied; two zero lengths never prune.
    """
    if la > lb:
        la, lb = lb, la
    # 1 - la/lb > T  <=>  (lb - la) * den > num * lb
    return (lb - la) * den > num * lb


def length_filter(la: int, lb: int, threshold: float) -> bool:
    """Keep/prune decision from aggregate lengths only. True means keep."""
    return not length_prunes(la, lb, *threshold_ratio(threshold))


def histogram_prunes(
    lens_a: tuple[int, ...],
    lens_b: tuple[int, ...],
    la: int,
    lb: int,
    num: int,
    den: int,
) -> bool:
    """True when the sorted-length lower bound already exceeds num/den."""
    lower = sorted_lengths_lower_bound(lens_a, lens_b)
    # 2*LB/(la + lb + LB) > T, cross-multiplied
    return 2 * lower * den > num * (la + lb + lower)


def residual_prunes(
    tokens_a: Sequence[str],
    tokens_b: Sequence[str],
    la: int,
    lb: int,
    num: int,
    den: int,
) -> bool:
    """True when the residual-length bound already exceeds num/den.

    Drops the token multiset the records share, then bounds the setwise cost
    of the rest from below by :func:`residual_lower_bound`. The bound is at
    least the histogram bound: dropping a length from both sorted lists, or
    a length 0 (an empty token) from one, leaves their |difference| sum
    unchanged, and max(1, ·) only raises the terms.
    """
    lower = residual_lower_bound(*drop_shared(tokens_a, tokens_b))
    # 2*LB/(la + lb + LB) > T, cross-multiplied
    return 2 * lower * den > num * (la + lb + lower)


def histogram_filter(
    lens_a: tuple[int, ...], lens_b: tuple[int, ...], la: int, lb: int, threshold: float
) -> bool:
    """Keep/prune decision from ascending token-length lists. True means keep.

    Never prunes a pair whose true normalized setwise distance is within the
    threshold: the bound is a lower bound on the setwise cost and the
    normalization is increasing in it.
    """
    return not histogram_prunes(lens_a, lens_b, la, lb, *threshold_ratio(threshold))
