"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The synthetic-corpus fixture is shared by the differential criteria
(oracle equality, filter soundness, approximation containment, dedup
equivalence), so the expensive brute-force scans run once.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from tokenjoin.candidates import partition_even
from tokenjoin.corpusio import format_results
from tokenjoin.filters import FilterStats
from tokenjoin.oracle import join_bruteforce_thresholds
from tokenjoin.pipeline import JoinConfig, join
from tokenjoin.setdist import nsld_bounds_from_lengths, sld_exact
from tokenjoin.strdist import (
    ld,
    max_ld_given_nld,
    min_ld_given_nld_exceeds,
    min_partner_len,
)
from tokenjoin.synth import generate_corpus
from tokenjoin.textnorm import TokenizedString, tokenize

from helpers import naive_ld, sld_perm, strings_upto

THRESHOLDS = (0.025, 0.1, 0.2)
SIZES = (1000, 1100, 1200, 1300, 1400, 1500, 1600, 1700, 1850, 2000)


def _report(number: int, label: str, detail: str, elapsed: float) -> None:
    print(f"[criterion {number:2d}] PASS  {label}: {detail} ({elapsed:.1f}s)")


def _mk(record_id: str, tokens) -> TokenizedString:
    return TokenizedString.from_tokens(record_id, tuple(tokens))


# ---------------------------------------------------------------------------
# Criterion 1: the worked micro-examples, exact rational comparisons
# ---------------------------------------------------------------------------

def test_criterion_1_worked_examples():
    t0 = time.perf_counter()

    d = ld("Thomson", "Thompson")
    assert Fraction(2 * d, len("Thomson") + len("Thompson") + d) == Fraction(1, 8)
    d = ld("Alex", "Alexa")
    assert Fraction(2 * d, len("Alex") + len("Alexa") + d) == Fraction(1, 5)

    chan_kalan = _mk("x", ("chan", "kalan"))
    chank_alan = _mk("y", ("chank", "alan"))
    alan = _mk("z", ("alan",))
    assert sld_exact(chan_kalan, chank_alan).sld == 2
    assert sld_exact(chan_kalan, alan).sld == 5

    s = sld_exact(chan_kalan, chank_alan).sld
    assert Fraction(2 * s, 9 + 9 + s) == Fraction(1, 5)

    empty = _mk("e", ())
    s = sld_exact(empty, chan_kalan).sld
    assert s == chan_kalan.agg_len
    assert Fraction(2 * s, 0 + chan_kalan.agg_len + s) == 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "worked examples", "all six reference values exact", elapsed)


# ---------------------------------------------------------------------------
# Criterion 2: metric axioms on 10^4 random multiset triples
# ---------------------------------------------------------------------------

def _nsld_frac_engine(a: TokenizedString, b: TokenizedString) -> Fraction:
    s = sld_exact(a, b).sld
    if s == 0:
        return Fraction(0)
    return Fraction(2 * s, a.agg_len + b.agg_len + s)


def _nld_frac_engine(x: str, y: str) -> Fraction:
    if x == y:
        return Fraction(0)
    d = ld(x, y)
    return Fraction(2 * d, len(x) + len(y) + d)


def test_criterion_2_metric_axioms():
    t0 = time.perf_counter()
    rng = random.Random(20240)

    def multiset():
        return _mk(
            "m",
            tuple(
                "".join(rng.choice("abcd") for _ in range(rng.randint(1, 8)))
                for _ in range(rng.randint(0, 5))
            ),
        )

    def rand_string():
        return "".join(rng.choice("abcd") for _ in range(rng.randint(0, 8)))

    violations = 0
    for _ in range(10_000):
        a, b, c = multiset(), multiset(), multiset()
        dab, dba = _nsld_frac_engine(a, b), _nsld_frac_engine(b, a)
        dbc, dac = _nsld_frac_engine(b, c), _nsld_frac_engine(a, c)
        if dab != dba:
            violations += 1
        if (dab == 0) != (sorted(a.tokens) == sorted(b.tokens)):
            violations += 1
        if dab + dbc < dac:
            violations += 1

        x, y, z = rand_string(), rand_string(), rand_string()
        exy, eyx = _nld_frac_engine(x, y), _nld_frac_engine(y, x)
        eyz, exz = _nld_frac_engine(y, z), _nld_frac_engine(x, z)
        if exy != eyx:
            violations += 1
        if (exy == 0) != (x == y):
            violations += 1
        if exy + eyz < exz:
            violations += 1

    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 60.0
    _report(2, "metric axioms", "10000 triples, 0 violations (both distances)", elapsed)


# ---------------------------------------------------------------------------
# Criterion 3: the lemma suite, exhaustive plus randomized
# ---------------------------------------------------------------------------

def test_criterion_3_lemma_suite():
    t0 = time.perf_counter()
    grid = (0.0, 0.025, 0.1, 0.2, 0.35, 0.5, 0.75)
    grid_fracs = {t: Fraction(t) for t in grid}

    pairs: list[tuple[str, str]] = []
    universe = strings_upto("ab", 5)
    for x in universe:
        for y in universe:
            pairs.append((x, y))
    rng = random.Random(30303)
    for _ in range(10_000):
        x = "".join(rng.choice("abcdef") for _ in range(rng.randint(0, 24)))
        y = "".join(rng.choice("abcdef") for _ in range(rng.randint(0, 24)))
        pairs.append((x, y))

    checked = 0
    for x, y in pairs:
        if len(x) > len(y):
            x, y = y, x
        d = ld(x, y)
        lx, ly = len(x), len(y)
        value = Fraction(2 * d, lx + ly + d) if d else Fraction(0)

        # Lemma: normalized distance lives in [0, 1]
        assert 0 <= value <= 1
        # Lemma: length-ratio sandwich for strings
        if ly == 0:
            assert value == 0
        else:
            a = Fraction(lx, ly)
            assert 1 - a <= value <= Fraction(2) / (a + 2)
        # the same bounds hold verbatim for single-token records
        if lx == 0 and ly == 0:
            assert nsld_bounds_from_lengths(lx, ly) == (0.0, 0.0)
        else:
            s = sld_perm((x,) if x else (), (y,) if y else ())
            nsld_value = Fraction(2 * s, lx + ly + s) if s else Fraction(0)
            assert 0 <= nsld_value <= 1
            a = Fraction(lx, ly)
            assert 1 - a <= nsld_value <= Fraction(2) / (a + 2)

        for t, t_frac in grid_fracs.items():
            if value <= t_frac:
                assert d <= max_ld_given_nld(ly, t, True)
                assert lx >= min_partner_len(ly, t)
                if ly > lx:
                    assert d <= max_ld_given_nld(lx, t, False)
            else:
                assert d > min_ld_given_nld_exceeds(ly, t, True)
                if ly > lx:
                    assert d > min_ld_given_nld_exceeds(lx, t, False)
        checked += 1

    # partition lemma: after at most u edits, some even segment survives
    trials = 0
    for _ in range(10_000):
        u = rng.randint(0, 4)
        y = "".join(rng.choice("abcdef") for _ in range(rng.randint(u + 1, 20)))
        chars = list(y)
        for _ in range(rng.randint(0, u)):
            if not chars:
                break
            op = rng.randrange(3)
            pos = rng.randrange(len(chars))
            if op == 0:
                chars[pos] = rng.choice("abcdef")
            elif op == 1:
                chars.insert(pos, rng.choice("abcdef"))
            else:
                del chars[pos]
        x = "".join(chars)
        assert naive_ld(x, y) <= u
        assert any(seg in x for seg in partition_even(y, u))
        trials += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(
        3,
        "lemma suite",
        f"{checked} pairs x {len(grid)} thresholds + {trials} partition trials, 0 violations",
        elapsed,
    )


# ---------------------------------------------------------------------------
# Criterion 4: threshold transfer from records to tokens
# ---------------------------------------------------------------------------

def test_criterion_4_threshold_transfer():
    t0 = time.perf_counter()
    tokens = strings_upto("ab", 3, include_empty=False)  # 14 short tokens
    n = len(tokens)
    ld_table = [[naive_ld(a, b) for b in tokens] for a in tokens]
    lens = [len(t) for t in tokens]

    grid = (0.1, 0.2, 0.35, 0.5, 0.75)
    fracs = [(Fraction(t).numerator, Fraction(t).denominator) for t in grid]
    # token-level predicate per threshold, precomputed
    token_ok = [
        [
            [2 * ld_table[i][j] * den <= num * (lens[i] + lens[j] + ld_table[i][j]) for j in range(n)]
            for i in range(n)
        ]
        for num, den in fracs
    ]

    multisets = [
        tuple(sorted(combo))
        for size in (1, 2, 3)
        for combo in combinations_with_replacement(range(n), size)
    ]

    def pairing_cost(ma, mb):
        k = max(len(ma), len(mb))
        ca = list(ma) + [-1] * (k - len(ma))
        cb = list(mb) + [-1] * (k - len(mb))

        def w(i, j):
            if ca[i] < 0 and cb[j] < 0:
                return 0
            if ca[i] < 0:
                return lens[cb[j]]
            if cb[j] < 0:
                return lens[ca[i]]
            return ld_table[ca[i]][cb[j]]

        if k == 1:
            return w(0, 0)
        if k == 2:
            return min(w(0, 0) + w(1, 1), w(0, 1) + w(1, 0))
        return min(
            w(0, 0) + w(1, 1) + w(2, 2),
            w(0, 0) + w(1, 2) + w(2, 1),
            w(0, 1) + w(1, 0) + w(2, 2),
            w(0, 1) + w(1, 2) + w(2, 0),
            w(0, 2) + w(1, 0) + w(2, 1),
            w(0, 2) + w(1, 1) + w(2, 0),
        )

    checked = 0
    transfers = 0
    m_count = len(multisets)
    for ia in range(m_count):
        ma = multisets[ia]
        la = sum(lens[i] for i in ma)
        for ib in range(ia, m_count):
            mb = multisets[ib]
            lb = sum(lens[i] for i in mb)
            s = pairing_cost(ma, mb)
            checked += 1
            for g, (num, den) in enumerate(fracs):
                if 2 * s * den <= num * (la + lb + s):
                    ok = token_ok[g]
                    assert any(ok[i][j] for i in ma for j in mb)
                    transfers += 1

    elapsed = time.perf_counter() - t0
    _report(
        4,
        "threshold transfer",
        f"{checked} multiset pairs, {transfers} transfers verified, 0 violations",
        elapsed,
    )


# ---------------------------------------------------------------------------
# Criteria 5-7 and 10 share ten synthetic corpora with their oracle answers
# ---------------------------------------------------------------------------

@dataclass
class SuiteEntry:
    records: list[TokenizedString]
    oracle_bytes: dict[float, bytes] = field(default_factory=dict)
    fuzzy_bytes: dict[float, bytes] = field(default_factory=dict)
    fuzzy_pairs: dict[float, set] = field(default_factory=dict)
    stats: dict[float, FilterStats] = field(default_factory=dict)


@dataclass
class Suite:
    entries: list[SuiteEntry]
    oracle_seconds: float
    fuzzy_seconds: float


@pytest.fixture(scope="module")
def suite() -> Suite:
    entries = []
    oracle_seconds = 0.0
    fuzzy_seconds = 0.0
    for i, size in enumerate(SIZES):
        lines = generate_corpus(
            size,
            seed=5000 + i,
            base_tokens=300 + 45 * i,
            perturb_rate=0.25 + 0.025 * i,
            max_edits=1 + (i % 3),
        )
        records = [tokenize(line, record_id=str(j)) for j, line in enumerate(lines)]
        entry = SuiteEntry(records)
        t0 = time.perf_counter()
        oracles = join_bruteforce_thresholds(records, None, THRESHOLDS)
        oracle_seconds += time.perf_counter() - t0
        for threshold in THRESHOLDS:
            entry.oracle_bytes[threshold] = format_results(oracles[threshold].pairs).encode()

            cfg = JoinConfig(threshold=threshold, max_token_freq=math.inf)
            t0 = time.perf_counter()
            results, report = join(records, None, cfg)
            fuzzy_seconds += time.perf_counter() - t0
            entry.fuzzy_bytes[threshold] = format_results(results).encode()
            entry.fuzzy_pairs[threshold] = {(r.left_id, r.right_id) for r in results}
            entry.stats[threshold] = report.filters
        entries.append(entry)
    return Suite(entries, oracle_seconds, fuzzy_seconds)


def test_criterion_5_oracle_equivalence(suite):
    total_pairs = 0
    for i, entry in enumerate(suite.entries):
        for threshold in THRESHOLDS:
            assert entry.fuzzy_bytes[threshold] == entry.oracle_bytes[threshold], (
                f"corpus {i} (size {len(entry.records)}) differs from oracle at T={threshold}"
            )
            total_pairs += len(entry.fuzzy_pairs[threshold])
    elapsed = suite.oracle_seconds + suite.fuzzy_seconds
    assert elapsed < 600.0
    _report(
        5,
        "oracle equivalence",
        f"10 corpora x {len(THRESHOLDS)} thresholds byte-identical, {total_pairs} pairs",
        elapsed,
    )


def test_criterion_6_filter_soundness(suite):
    t0 = time.perf_counter()
    pruned_total = 0
    for entry in suite.entries:
        for threshold in THRESHOLDS:
            cfg = JoinConfig(threshold=threshold, max_token_freq=math.inf)
            unfiltered, _ = join(entry.records, None, cfg, use_filters=False)
            assert format_results(unfiltered).encode() == entry.fuzzy_bytes[threshold]
            stats = entry.stats[threshold]
            pruned_total += stats.pruned_by_length + stats.pruned_by_histogram
    assert pruned_total > 0  # the filters demonstrably fired somewhere
    _report(
        6,
        "filter soundness",
        f"filters on/off byte-identical; {pruned_total} pairs pruned across corpora",
        time.perf_counter() - t0,
    )


def test_criterion_7_approximation_containment(suite):
    t0 = time.perf_counter()
    recall_num = 0
    recall_den = 0
    for entry in suite.entries:
        for threshold in THRESHOLDS:
            truth = entry.fuzzy_pairs[threshold]
            base = JoinConfig(threshold=threshold, max_token_freq=math.inf)
            for matching in ("greedy", "exact-token"):
                cfg = dataclasses.replace(base, matching=matching)
                results, _ = join(entry.records, None, cfg)
                got = {(r.left_id, r.right_id) for r in results}
                assert got <= truth, f"{matching} emitted a pair outside the exact join"
                if matching == "greedy" and threshold == 0.025:
                    recall_num += len(got)
                    recall_den += len(truth)
    assert recall_den > 0
    recall = recall_num / recall_den
    assert recall >= 0.99
    _report(
        7,
        "approximation containment",
        f"precision 1.0 everywhere; greedy recall {recall:.5f} at T=0.025",
        time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Criterion 8: matching solver versus permutation enumeration
# ---------------------------------------------------------------------------

def test_criterion_8_hungarian_vs_permutations():
    t0 = time.perf_counter()
    rng = random.Random(80808)
    for _ in range(10_000):
        a = tuple(
            "".join(rng.choice("abc") for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(0, 6))
        )
        b = tuple(
            "".join(rng.choice("abc") for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(0, 6))
        )
        assert sld_exact(_mk("a", a), _mk("b", b)).sld == sld_perm(a, b)
    elapsed = time.perf_counter() - t0
    _report(8, "matching vs permutations", "10000 pairs equal", elapsed)


# ---------------------------------------------------------------------------
# Criterion 9: determinism and scaling on a large corpus
# ---------------------------------------------------------------------------

def test_criterion_9_determinism_and_scaling():
    t0 = time.perf_counter()
    lines = generate_corpus(
        100_000,
        seed=1009,
        base_tokens=80_000,
        zipf_offset=400,
        min_tokens=2,
        perturb_rate=0.4,
        max_edits=2,
    )
    records = [tokenize(line, record_id=str(i)) for i, line in enumerate(lines)]

    outputs = {}
    timings = {}
    for workers in (1, 2, 8):
        cfg = JoinConfig(threshold=0.1, max_token_freq=1000, workers=workers)
        w0 = time.perf_counter()
        results, _ = join(records, None, cfg)
        timings[workers] = time.perf_counter() - w0
        outputs[workers] = format_results(results).encode()

    assert outputs[1] == outputs[2] == outputs[8]

    cores = os.cpu_count() or 1
    ratio = timings[8] / timings[1]
    scaling_note = f"t1={timings[1]:.1f}s t2={timings[2]:.1f}s t8={timings[8]:.1f}s (ratio {ratio:.2f})"
    if cores >= 8:
        assert ratio <= 0.6, scaling_note
    else:
        scaling_note += f"; scaling bound not asserted on a {cores}-core machine"

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    _report(
        9,
        "determinism and scaling",
        f"workers 1/2/8 byte-identical on 100k records, {len(outputs[1].splitlines())} pairs; {scaling_note}",
        elapsed,
    )


# ---------------------------------------------------------------------------
# Criterion 10: dedup strategy equivalence
# ---------------------------------------------------------------------------

def test_criterion_10_dedup_equivalence(suite):
    t0 = time.perf_counter()
    for entry in suite.entries:
        for threshold in THRESHOLDS:
            cfg = JoinConfig(threshold=threshold, max_token_freq=math.inf, dedup="both-strings")
            results, _ = join(entry.records, None, cfg)
            assert format_results(results).encode() == entry.fuzzy_bytes[threshold]
    _report(
        10,
        "dedup equivalence",
        "grouping-on-one-string == grouping-on-both-strings on all corpora",
        time.perf_counter() - t0,
    )
