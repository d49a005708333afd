"""Shared test oracles and generators, imported by name from the test modules.

The reference implementations here are deliberately naive and independent of
the package internals: a full-matrix edit-distance DP, exact rational
normalized distances, a permutation-enumeration setwise cost, and the
candidate stream by brute force over record pairs. They are the ground truth
the fast paths are checked against.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

from tokenjoin.textnorm import TokenizedString


def naive_ld(x: str, y: str) -> int:
    """Full-matrix Levenshtein DP, no shortcuts."""
    m, n = len(x), len(y)
    dist = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dist[i][0] = i
    for j in range(n + 1):
        dist[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if x[i - 1] == y[j - 1] else 1
            dist[i][j] = min(
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
                dist[i - 1][j - 1] + cost,
            )
    return dist[m][n]


def nld_frac(x: str, y: str) -> Fraction:
    """Exact rational normalized edit distance."""
    if x == y:
        return Fraction(0)
    d = naive_ld(x, y)
    return Fraction(2 * d, len(x) + len(y) + d)


def sld_perm(tokens_a, tokens_b) -> int:
    """Setwise cost by brute force over all padded bijections (naive_ld edges)."""
    k = max(len(tokens_a), len(tokens_b))
    if k == 0:
        return 0
    ta = tuple(tokens_a) + ("",) * (k - len(tokens_a))
    tb = tuple(tokens_b) + ("",) * (k - len(tokens_b))
    cost = [[naive_ld(x, y) for y in tb] for x in ta]
    return min(sum(cost[i][p[i]] for i in range(k)) for p in permutations(range(k)))


def nsld_frac(tokens_a, tokens_b) -> Fraction:
    """Exact rational normalized setwise distance."""
    s = sld_perm(tokens_a, tokens_b)
    if s == 0:
        return Fraction(0)
    la = sum(len(t) for t in tokens_a)
    lb = sum(len(t) for t in tokens_b)
    return Fraction(2 * s, la + lb + s)


def all_pairs_token_oracle(tokens_r, tokens_p, threshold):
    """Every cross pair of distinct tokens within the threshold, by direct evaluation."""
    t = Fraction(threshold)
    return {(x, y) for x in tokens_r for y in tokens_p if x != y and nld_frac(x, y) <= t}


def candidate_stream(corpus_r, corpus_p, threshold, max_freq, similar=True) -> Counter:
    """The packed record pairs candidate generation emits, with their multiplicity.

    Records are numbered in sorted-id order on each side, a pair packs as
    ``left << 32 | right``, and ``corpus_p`` of None is a self-join, whose
    pairs have left < right. A record of aggregate length 0 holds no token
    here (the join pairs such records apart). A token is kept on a side when
    at most ``max_freq`` of that side's records hold it. A pair is emitted
    once per kept token both records hold and, when ``similar``, once per
    (x, y) of distinct kept tokens, x in the left record and y in the right
    one, with nld(x, y) <= threshold.
    """

    def kept_sets(corpus):
        sets = [set(rec.tokens) if rec.agg_len else set() for rec in sorted(corpus, key=lambda rec: rec.id)]
        freq = Counter(tok for toks in sets for tok in toks)
        return [{tok for tok in toks if freq[tok] <= max_freq} for toks in sets]

    left = kept_sets(corpus_r)
    right = left if corpus_p is None else kept_sets(corpus_p)
    near = {}
    if similar:
        vocab_r, vocab_p = set().union(*left), set().union(*right)
        for x, y in all_pairs_token_oracle(vocab_r, vocab_p, threshold):
            near.setdefault(x, set()).add(y)
    stream = Counter()
    for i, toks_i in enumerate(left):
        for j in range(i + 1 if corpus_p is None else 0, len(right)):
            toks_j = right[j]
            n = len(toks_i & toks_j) + sum(len(near.get(x, set()) & toks_j) for x in toks_i)
            if n:
                stream[(i << 32) | j] = n
    return stream


def strings_upto(alphabet: str, max_len: int, include_empty: bool = True) -> list[str]:
    """Every string over the alphabet with length <= max_len."""
    out = [""] if include_empty else []
    for length in range(1, max_len + 1):
        out.extend("".join(chars) for chars in product(alphabet, repeat=length))
    return out


def rand_token(rng: random.Random, max_len: int = 8, alphabet: str = "abcdef") -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))


def rand_multiset(
    rng: random.Random,
    max_tokens: int = 5,
    max_len: int = 8,
    alphabet: str = "abcdef",
    min_tokens: int = 0,
) -> tuple[str, ...]:
    return tuple(
        rand_token(rng, max_len, alphabet) for _ in range(rng.randint(min_tokens, max_tokens))
    )


def make_ts(record_id: str, tokens) -> TokenizedString:
    return TokenizedString.from_tokens(record_id, tuple(tokens))
