"""Similarity joins of tokenized strings.

A tokenized string is a multiset of tokens (e.g. the words of a full name).
The package computes a normalized setwise edit distance between such records
and finds all pairs within a threshold via a generate-filter-verify pipeline
(:func:`join`): candidate generation through each side's token index and a
segment index of similar tokens, a provably lossless length filter, and
minimum-weight-matching verification behind a lossless residual bound. A
brute-force oracle ships alongside for differential testing.
"""

from .errors import (
    ConfigError,
    DataError,
    NotPartitionable,
    OracleGuardError,
    StageError,
)
from .filters import FilterStats
from .oracle import OracleResult, join_bruteforce, sld_bruteforce
from .pipeline import JoinConfig, JoinResult, StageReport, join
from .candidates import partition_even  # after pipeline, which orders the numpy import
from .setdist import (
    AlignmentCost,
    nsld,
    nsld_bounds_from_lengths,
    sld_exact,
    sld_greedy,
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
    "TokenizedString",
    "distance_to_similarity",
    "generate_corpus",
    "join",
    "join_bruteforce",
    "ld",
    "ld_bounded",
    "max_ld_given_nld",
    "min_ld_given_nld_exceeds",
    "min_partner_len",
    "nld",
    "nld_bounds_from_lengths",
    "nsld",
    "nsld_bounds_from_lengths",
    "partition_even",
    "sld_bruteforce",
    "sld_exact",
    "sld_greedy",
    "tokenize",
]
