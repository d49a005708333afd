"""Cheap pruning between candidate generation and verification.

Every filter rejects only pairs whose normalized setwise distance provably
exceeds the threshold, so the verified output is identical with filters on or
off. The length filter reads two integers; the histogram filter lower-bounds
the setwise cost from sorted token-length lists; the residual filter does the
same after dropping the tokens the two records share, with at least one edit
per remaining token pair. The join runs the length and residual prunes. All
predicates are exact integer comparisons against the rational threshold.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .candidates import CandidatePair
from .setdist import TokenLengthHistogram, drop_shared, residual_lower_bound, sorted_lengths_lower_bound
from .strdist import threshold_ratio


@dataclass(slots=True)
class FilterStats:
    """Counters reconciling exactly: input = pruned_by_length + pruned_by_histogram + surviving.

    The join's histogram prune is the residual prune (:func:`residual_prunes`).
    """

    input_pairs: int = 0
    pruned_by_length: int = 0
    pruned_by_histogram: int = 0
    surviving: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "input_pairs": self.input_pairs,
            "pruned_by_length": self.pruned_by_length,
            "pruned_by_histogram": self.pruned_by_histogram,
            "surviving": self.surviving,
        }


def length_prunes(la: int, lb: int, num: int, den: int) -> bool:
    """True when aggregate lengths alone put the pair beyond num/den.

    1 - min/max > T, cross-multiplied; two zero lengths never prune.
    """
    if la > lb:
        la, lb = lb, la
    # 1 - la/lb > T  <=>  (lb - la) * den > num * lb
    return (lb - la) * den > num * lb


def length_filter(pair: CandidatePair, threshold: float) -> bool:
    """Keep/prune decision from aggregate lengths only. True means keep."""
    num, den = threshold_ratio(threshold)
    return not length_prunes(pair.left_len, pair.right_len, num, den)


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
    of the rest from below by :func:`residual_lower_bound`. A pair in which
    either record holds an empty token is never pruned (an empty token can
    match padding at cost 0). Otherwise the bound is at least the histogram
    bound: dropping a length from both sorted lists leaves their
    |difference| sum unchanged, and max(1, ·) only raises the terms.
    """
    if "" in tokens_a or "" in tokens_b:
        return False
    lower = residual_lower_bound(*drop_shared(tokens_a, tokens_b))
    # 2*LB/(la + lb + LB) > T, cross-multiplied
    return 2 * lower * den > num * (la + lb + lower)


def histogram_filter(
    hists: tuple[TokenLengthHistogram, TokenLengthHistogram],
    lens: tuple[int, int],
    threshold: float,
) -> bool:
    """Keep/prune decision from token-length histograms. True means keep.

    Never prunes a pair whose true normalized setwise distance is within the
    threshold: the bound is a lower bound on the setwise cost and the
    normalization is increasing in it.
    """
    num, den = threshold_ratio(threshold)
    ha, hb = hists
    la, lb = lens
    return not histogram_prunes(ha.sorted_lengths(), hb.sorted_lengths(), la, lb, num, den)
