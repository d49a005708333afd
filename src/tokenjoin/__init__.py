"""Similarity joins of tokenized strings.

A tokenized string is a multiset of tokens (e.g. the words of a full name).
The package computes a normalized setwise edit distance between such records
and finds all pairs within a threshold via a generate-filter-verify pipeline:
inverted-index and segment-index candidate generation, provably lossless
length/histogram filters, and minimum-weight-matching verification. A
brute-force oracle ships alongside for differential testing.
"""

from .candidates import (
    CandidatePair,
    TokenSpace,
    build_token_space,
    partition_even,
    shared_token_candidates,
    similar_token_candidates,
    similar_token_pairs,
)
from .errors import (
    ConfigError,
    DataError,
    NotPartitionable,
    OracleGuardError,
    StageError,
)
from .filters import FilterStats, histogram_filter, length_filter
from .oracle import OracleResult, join_bruteforce, sld_bruteforce
from .pipeline import (
    JoinConfig,
    JoinResult,
    StageReport,
    dedup_candidates,
    fnv1a_64,
    join,
)
from .setdist import (
    AlignmentCost,
    TokenLengthHistogram,
    nsld,
    nsld_bounds_from_lengths,
    sld_exact,
    sld_greedy,
    sld_lower_bound,
)
from .strdist import (
    distance_to_similarity,
    ld,
    ld_bounded,
    max_ld_given_nld,
    min_ld_given_nld_exceeds,
    min_partner_len,
    nld,
    nld_bounds_from_lengths,
)
from .synth import generate_corpus
from .textnorm import Token, TokenizedString, tokenize

__version__ = "0.1.0"

__all__ = [
    "AlignmentCost",
    "CandidatePair",
    "ConfigError",
    "DataError",
    "FilterStats",
    "JoinConfig",
    "JoinResult",
    "NotPartitionable",
    "OracleGuardError",
    "OracleResult",
    "StageError",
    "StageReport",
    "Token",
    "TokenLengthHistogram",
    "TokenSpace",
    "TokenizedString",
    "build_token_space",
    "dedup_candidates",
    "distance_to_similarity",
    "fnv1a_64",
    "generate_corpus",
    "histogram_filter",
    "join",
    "join_bruteforce",
    "ld",
    "ld_bounded",
    "length_filter",
    "max_ld_given_nld",
    "min_ld_given_nld_exceeds",
    "min_partner_len",
    "nld",
    "nld_bounds_from_lengths",
    "nsld",
    "nsld_bounds_from_lengths",
    "partition_even",
    "shared_token_candidates",
    "similar_token_candidates",
    "similar_token_pairs",
    "sld_bruteforce",
    "sld_exact",
    "sld_greedy",
    "sld_lower_bound",
    "tokenize",
]
