import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tokenjoin import strdist
from tokenjoin.filters import length_prunes
from tokenjoin.strdist import (
    distance_to_similarity,
    ld,
    ld_bounded,
    ld_bounded_ids,
    max_ld_given_nld,
    min_ld_given_nld_exceeds,
    min_partner_len,
    nld,
    nld_bounds_from_lengths,
    threshold_bounds,
    token_table,
)

from helpers import naive_ld, nld_frac, strings_upto

short_text = st.text(alphabet="abcdef", max_size=12)


class TestLd:
    def test_reference_values(self):
        assert ld("Thomson", "Thompson") == 1
        assert ld("Alex", "Alexa") == 1

    def test_identity(self):
        for x in ("", "a", "kalan", "ab cd"):
            assert ld(x, x) == 0

    def test_empty_sides(self):
        assert ld("", "abc") == 3
        assert ld("abc", "") == 3

    @given(short_text, short_text)
    def test_matches_naive_full_matrix(self, x, y):
        assert ld(x, y) == naive_ld(x, y)

    @given(short_text, short_text)
    def test_symmetry_and_length_bounds(self, x, y):
        d = ld(x, y)
        assert d == ld(y, x)
        assert abs(len(x) - len(y)) <= d <= max(len(x), len(y), 0) or (x == y and d == 0)


class TestLdBounded:
    def test_reference_value_with_cap(self):
        assert ld_bounded("Thomson", "Thompson", 1) == 1

    def test_over_cap_frozen_case(self):
        assert naive_ld("abc", "xyz") == 3  # the independent oracle fixes the expectation
        assert ld_bounded("abc", "xyz", 1) is None

    def test_identical_with_zero_cap(self):
        assert ld_bounded("same", "same", 0) == 0

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            ld_bounded("a", "b", -1)

    @given(short_text, short_text, st.integers(min_value=0, max_value=14))
    def test_differential_vs_plain_dp(self, x, y, cap):
        truth = naive_ld(x, y)
        got = ld_bounded(x, y, cap)
        if truth <= cap:
            assert got == truth
        else:
            assert got is None

    @pytest.mark.parametrize("alphabet", ["abcdef", "aéß€😀漢"])
    def test_differential_long_and_non_ascii(self, alphabet):
        # up to 150 characters, so the bit vectors run well past 64 bits; the
        # variants are a few edits away, so many distances sit at or next to
        # a cap and the early exit is reached with the cap exactly attainable
        rng = random.Random(29)
        for _ in range(80):
            x = [rng.choice(alphabet) for _ in range(rng.choice((0, rng.randint(1, 150))))]
            y = list(x)
            for _ in range(rng.randint(0, 12)):
                pos = rng.randint(0, len(y))
                op = rng.randrange(3)
                if op == 0:
                    y.insert(pos, rng.choice(alphabet))
                elif pos < len(y):
                    if op == 1:
                        del y[pos]
                    else:
                        y[pos] = rng.choice(alphabet)
            x, y = "".join(x), "".join(y)
            truth = naive_ld(x, y)
            for cap in range(21):
                want = truth if truth <= cap else None
                assert ld_bounded(x, y, cap) == want
                assert ld_bounded(y, x, cap) == want
        assert ld_bounded("", "", 0) == 0
        assert ld_bounded("", alphabet[:3], 3) == 3
        assert ld_bounded(alphabet[:3], "", 2) is None


def edited(rng, x, alphabet, max_edits):
    """``x`` after up to ``max_edits`` random inserts, deletes and substitutions."""
    y = list(x)
    for _ in range(rng.randint(0, max_edits)):
        pos = rng.randint(0, len(y))
        op = rng.randrange(3)
        if op == 0:
            y.insert(pos, rng.choice(alphabet))
        elif pos < len(y):
            if op == 1:
                del y[pos]
            else:
                y[pos] = rng.choice(alphabet)
    return "".join(y)


def edited_once(rng, x, alphabet):
    """``x`` after one random insert, delete or substitution that changes it."""
    while True:
        y = edited(rng, x, alphabet, 1)
        if y != x:
            return y


def interned(xs, ys):
    """The table of the tokens of ``xs`` and ``ys``, interned as the join interns its vocabulary, and their ids."""
    vocab = {tok: i for i, tok in enumerate(dict.fromkeys([*xs, *ys]))}
    a, b = (np.array([vocab[tok] for tok in toks], dtype=np.int64) for toks in (xs, ys))
    return token_table(vocab), a, b


def ld_bounded_strings(xs, ys, caps):
    """:func:`ld_bounded_ids`' distances over strings."""
    return ld_bounded_ids(*interned(xs, ys), np.array(caps, dtype=np.int64))[0]


class TestLdBoundedBatch:
    @pytest.mark.parametrize("alphabet", ["abc", "aé漢字\x00", "ab\U0001F600\x00"])
    def test_equals_ld_bounded(self, alphabet):
        # the id kernel over an interned vocabulary, against ld: lengths
        # 0-70 cross the kernel's 63-character pattern limit, near copies
        # put many distances at or next to their cap, and unedited copies
        # pair a token with itself (equal ids)
        rng = random.Random(41)
        xs, ys, caps = [], [], []
        for _ in range(3000):
            x = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 70)))
            if rng.random() < 0.6:
                y = edited(rng, x, alphabet, 6)
            else:
                y = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 70)))
            xs.append(x)
            ys.append(y)
            caps.append(rng.randint(0, 6))
        # tokens that end in "\x00" last, so that the table ends in one
        tokens = sorted(set(xs + ys), key=lambda tok: tok.endswith("\x00"))
        ids = {tok: i for i, tok in enumerate(tokens)}
        table = token_table(tokens)
        a = np.array([ids[x] for x in xs])
        b = np.array([ids[y] for y in ys])
        got, ran = ld_bounded_ids(table, a, b, np.array(caps))
        assert got.dtype == np.int64 and got.shape == (len(xs),)
        assert 0 < ran < len(xs)
        dists = [ld(x, y) for x, y in zip(xs, ys)]
        want = [d if d <= cap else -1 for d, cap in zip(dists, caps)]
        assert got.tolist() == want
        assert ld_bounded_strings(xs, ys, caps).tolist() == want
        assert [table.token(t) for t in range(len(tokens))] == tokens
        lens = [min(len(x), len(y)) for x, y in zip(xs, ys)]
        assert max(lens) > 63 and sum(0 < n <= 63 for n in lens) > 1000
        assert "" in ids
        # a "\x00" inside a fallback pattern and at the end of the table's tokens
        long_nul = any("\x00" in tok for tok in tokens if len(tok) > 63)
        assert "\x00" not in alphabet or (long_nul and tokens[-1].endswith("\x00"))
        assert sum(cap == 0 for cap in caps) > 300
        assert sum(x == y for x, y in zip(xs, ys)) > 100

    def test_equal_strings_and_edges(self):
        xs = ["abc", "", "abc", "", "ab", "a" * 64, "é漢", "ab"]
        ys = ["abc", "", "abd", "xyz", "ab", "a" * 63 + "b", "漢é", "ba"]
        caps = [0, 0, 0, 3, 5, 1, 2, 1]
        assert ld_bounded_strings(xs, ys, caps).tolist() == [0, 0, -1, 3, 0, 1, 2, -1]
        assert ld_bounded_strings([], [], []).tolist() == []

    def test_small_passes_give_the_same_distances(self, monkeypatch):
        # about one pair per pass when texts are long, a few when short
        rng = random.Random(47)
        xs = ["".join(rng.choice("ab") for _ in range(rng.randint(1, 70))) for _ in range(200)]
        ys = [edited(rng, x, "ab", 4) for x in xs]
        caps = [rng.randint(1, 6) for _ in xs]
        whole = ld_bounded_strings(xs, ys, caps)
        monkeypatch.setattr(strdist, "_BATCH_CODE_POINTS", 150)
        assert ld_bounded_strings(xs, ys, caps).tolist() == whole.tolist()
        want = [ld_bounded(x, y, cap) for x, y, cap in zip(xs, ys, caps)]
        assert whole.tolist() == [-1 if d is None else d for d in want]

    def test_order_and_duplicates_do_not_matter(self):
        rng = random.Random(43)
        words = ["".join(rng.choice("ab") for _ in range(rng.randint(1, 12))) for _ in range(30)]
        xs = [rng.choice(words) for _ in range(400)]
        ys = [rng.choice(words) for _ in range(400)]
        caps = [rng.randint(1, 6) for _ in range(400)]
        got = ld_bounded_strings(xs, ys, caps)
        assert got.tolist() == [naive_ld(x, y) if naive_ld(x, y) <= c else -1 for x, y, c in zip(xs, ys, caps)]
        assert ld_bounded_strings(ys[::-1], xs[::-1], caps[::-1]).tolist() == got.tolist()[::-1]


def buckets(s):
    """The signature buckets of the code points of ``s``."""
    return {ord(c) & 31 for c in s}


def bucket_bound(x, y):
    """The character-signature lower bound of LD(x, y)."""
    bx, by = buckets(x), buckets(y)
    return max(len(bx - by), len(by - bx))


def random_word(rng, letters, n):
    """``n`` letters of ``letters``, at least four of them distinct."""
    word = rng.sample(letters, 4) + [rng.choice(letters) for _ in range(n - 4)]
    rng.shuffle(word)
    return "".join(word)


class TestCharacterSignatures:
    # "a", "A", "á" and "\x01" (97, 65, 225 and 1) all fall in bucket 1, "b"
    # and "B" in bucket 2, the non-BMP character in bucket 0
    GROUPS = ["aAá\x01", "bB", "c\U0001F600", "xyz"]

    def test_one_bit_per_bucket(self):
        table = token_table(["", "aA", "bz\U0001F600", "á\x01", "a" * 70])
        assert table.sigs.dtype == np.uint32
        assert table.sigs.tolist() == [0, 1 << 1, 1 << 2 | 1 << 26 | 1, 1 << 1, 1 << 1]
        assert token_table([]).sigs.tolist() == []
        assert token_table(["", ""]).sigs.tolist() == [0, 0]

    def test_equals_ld_where_buckets_collide(self):
        # near copies (whose substitutions may stay in a bucket, where the
        # bound sees nothing) and partners over other groups of the alphabet,
        # one to three letters longer or shorter, so the length rule leaves
        # them open and the bound decides; lengths cross the kernel's
        # 63-character pattern limit
        rng = random.Random(53)
        alphabet = "".join(self.GROUPS)
        xs, ys, caps = [], [], []
        for _ in range(3000):
            n = rng.randint(0, 8) if rng.random() < 0.6 else rng.randint(0, 70)
            letters = "".join(rng.sample(self.GROUPS, rng.randint(1, 3)))
            x = "".join(rng.choice(letters) for _ in range(n))
            if rng.random() < 0.5:
                y = edited(rng, x, alphabet, 6)
            else:
                letters = "".join(rng.sample(self.GROUPS, rng.randint(1, 3)))
                y = "".join(rng.choice(letters) for _ in range(max(0, n + rng.randint(-3, 3))))
            xs.append(x)
            ys.append(y)
            caps.append(rng.randint(0, 6))
        got = ld_bounded_strings(xs, ys, caps).tolist()
        dists = [ld(x, y) for x, y in zip(xs, ys)]
        assert got == [d if d <= cap else -1 for d, cap in zip(dists, caps)]
        # the bound settles many open pairs, in the kernel's range and past
        # it, is tight on some, and misses pairs whose edits stay within a bucket
        open_ = [
            (x, y, cap, bucket_bound(x, y), d)
            for x, y, cap, d in zip(xs, ys, caps, dists)
            if x != y and x and y and 0 < cap and abs(len(x) - len(y)) <= cap
        ]
        settled = [(x, y) for x, y, cap, bound, _ in open_ if bound > cap]
        assert len(settled) > 120
        assert sum(min(len(x), len(y)) > 63 for x, y in settled) > 5
        assert sum(bound <= cap < d for *_, cap, bound, d in open_) > 400
        assert sum(0 < bound == d <= cap for *_, cap, bound, d in open_) > 100
        assert any("\U0001F600" in x for x, _ in settled) and "" in xs + ys

    def test_far_pairs_skip_the_kernel(self, monkeypatch):
        # partners over disjoint letters (a-h against i-p) with at least four
        # buckets each never reach the batch kernel or the scalar fallback at
        # caps 1-3; one-edit copies still do
        rng = random.Random(59)
        seen = set()
        kernel, scalar = strdist._myers_batch, strdist.ld_bounded

        def batch_spy(pats, texts, m, n):
            for pat, text, k, l in zip(pats.tolist(), texts.tolist(), m.tolist(), n.tolist()):
                seen.add(frozenset(("".join(map(chr, pat[:k])), "".join(map(chr, text[:l])))))
            return kernel(pats, texts, m, n)

        def scalar_spy(x, y, cap):
            seen.add(frozenset((x, y)))
            return scalar(x, y, cap)

        monkeypatch.setattr(strdist, "_myers_batch", batch_spy)
        monkeypatch.setattr(strdist, "ld_bounded", scalar_spy)
        far, near = [], []
        for _ in range(400):
            n = rng.randint(4, 70)
            cap = rng.randint(1, 3)
            x = random_word(rng, "abcdefgh", n)
            far.append((x, random_word(rng, "ijklmnop", max(4, n + rng.randint(-1, 1))), cap))
            near.append((x, edited_once(rng, x, "abcdefghijklmnop"), cap))
        xs, ys, caps = zip(*far, *near)
        got, ran = ld_bounded_ids(*interned(xs, ys), np.array(caps))
        assert got.tolist() == [-1] * len(far) + [ld(x, y) if ld(x, y) <= c else -1 for x, y, c in near]
        # the count covers the batch kernel and the scalar fallback
        assert ran == len(near)
        assert all(abs(len(x) - len(y)) <= cap for x, y, cap in far)
        assert not seen & {frozenset((x, y)) for x, y, _ in far}
        assert {frozenset((x, y)) for x, y, _ in near} <= seen
        assert any(min(len(x), len(y)) > 63 for x, y, _ in near)


class TestNld:
    def test_reference_values_exact_rationals(self):
        d = ld("Thomson", "Thompson")
        assert Fraction(2 * d, 7 + 8 + d) == Fraction(1, 8)
        assert nld("Thomson", "Thompson") == 1 / 8
        d = ld("Alex", "Alexa")
        assert Fraction(2 * d, 4 + 5 + d) == Fraction(1, 5)
        assert nld("Alex", "Alexa") == 1 / 5

    def test_boundaries(self):
        assert nld("", "") == 0.0
        assert nld("abc", "abc") == 0.0
        assert nld("", "abc") == 1.0

    @given(short_text, short_text)
    def test_range_lemma(self, x, y):
        assert 0.0 <= nld(x, y) <= 1.0

    @given(short_text, short_text)
    def test_sandwiched_by_length_bounds(self, x, y):
        value = nld_frac(x, y)
        lx, ly = len(x), len(y)
        if lx == 0 and ly == 0:
            exact_lo = exact_hi = Fraction(0)
        else:
            a = Fraction(min(lx, ly), max(lx, ly))
            exact_lo, exact_hi = 1 - a, Fraction(2) / (a + 2)
        assert exact_lo <= value <= exact_hi
        lo, hi = nld_bounds_from_lengths(lx, ly)
        assert lo == pytest.approx(float(exact_lo))
        assert hi == pytest.approx(float(exact_hi))


class TestMetricAxioms:
    def test_nld_metric_on_random_triples(self):
        rng = random.Random(17)
        for _ in range(2000):
            x = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
            y = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
            z = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
            dxy, dyz, dxz = nld_frac(x, y), nld_frac(y, z), nld_frac(x, z)
            assert dxy == nld_frac(y, x)
            assert (dxy == 0) == (x == y)
            assert dxy + dyz >= dxz


class TestThresholdBounds:
    def test_frozen_examples(self):
        assert max_ld_given_nld(10, 0.1, True) == 1  # floor(2/1.9)
        assert max_ld_given_nld(10, 0.1, False) == 1  # floor(1/0.9)
        assert max_ld_given_nld(7, 0.0, True) == 0
        assert max_ld_given_nld(7, 0.0, False) == 0
        assert min_partner_len(10, 0.1) == 9  # ceil(0.9 * 10)
        assert min_partner_len(10, 0.0) == 10
        assert min_partner_len(0, 0.5) == 0
        assert min_ld_given_nld_exceeds(10, 0.1, True) == 0  # floor(1/1.9)
        assert min_ld_given_nld_exceeds(10, 0.1, False) == 1  # floor(2/1.9)
        assert min_ld_given_nld_exceeds(0, 0.3, True) == 0

    def test_exact_rational_flooring_at_boundaries(self):
        # naive float arithmetic disagrees with the exact formula on the
        # binary64 value of 0.3 at |y| = 10; the implementation must follow
        # the exact rational, which every other threshold comparison uses
        assert math.ceil((1 - 0.3) * 10) == 7  # the float trap
        assert min_partner_len(10, 0.3) == 8  # exact on Fraction(0.3)
        assert min_partner_len(10, 0.1) == 9
        assert min_partner_len(20, 0.1) == 18

    def test_divergent_configuration_rejected(self):
        with pytest.raises(ValueError):
            max_ld_given_nld(10, 1.0, False)
        with pytest.raises(ValueError):
            threshold_bounds(1.0, 10)  # the partner ceiling diverges
        assert max_ld_given_nld(10, 1.0, True) == 20  # finite branch is fine at T=1

    def test_range_validation(self):
        for fn in (max_ld_given_nld, min_ld_given_nld_exceeds):
            with pytest.raises(ValueError):
                fn(5, -0.1, True)
        with pytest.raises(ValueError):
            min_partner_len(5, 1.5)

    @pytest.mark.parametrize("threshold", [0.0, 0.05, 0.1, 0.2, 1 / 3, 0.5, 0.8, 0.95, 1 - 2**-53, 2**-1074])
    def test_table_matches_the_fraction_references(self, threshold):
        t = Fraction(threshold)
        max_len = 300
        bounds = threshold_bounds(threshold, max_len)
        assert (bounds.num, bounds.den) == (t.numerator, t.denominator)
        cost_cap, maxdiff, ceiling = bounds.cost_cap.tolist(), bounds.maxdiff.tolist(), bounds.ceiling.tolist()
        assert len(cost_cap) == 2 * max_len + 1 and len(maxdiff) == len(ceiling) == max_len + 1
        for total, cap in enumerate(cost_cap):
            # the largest d with 2d / (total + d) <= T, which grows with d
            assert total + cap == 0 or Fraction(2 * cap, total + cap) <= t
            assert Fraction(2 * (cap + 1), total + cap + 1) > t
        for l in range(max_len + 1):
            assert cost_cap[2 * l] == max_ld_given_nld(l, threshold, True)
            assert l - maxdiff[l] == min_partner_len(l, threshold)
            assert ceiling[l] == min(math.floor(l / (1 - t)), max_len)
            pruned = [length_prunes(short, l, bounds.num, bounds.den) for short in range(l + 1)]
            assert pruned == [l - short > maxdiff[l] for short in range(l + 1)]

    @pytest.mark.parametrize("threshold", [1e-20, 0.05, 0.1, 0.3, 1 / 3, 0.7, 1 - 2**-53])
    def test_table_in_floats_matches_python_ints(self, threshold):
        # num·L is past 2**63 here (and at 1e-20 den is too); at T = 0.3 the
        # cost cap's quotient is just below 3/17, where a float product's
        # floor is one too high at 136 of these lengths (51, 102, 187, ...),
        # and near T = 1 the ceiling's quotient l·den // (den − num) is past
        # 2**63 before it is clipped to max_len
        max_len = 5000
        bounds = threshold_bounds(threshold, max_len)
        num, den = bounds.num, bounds.den
        assert num * 2 * max_len > 2**63
        assert bounds.cost_cap.tolist() == [num * total // (2 * den - num) for total in range(2 * max_len + 1)]
        assert bounds.maxdiff.tolist() == [num * l // den for l in range(max_len + 1)]
        assert bounds.ceiling.tolist() == [min(l * den // (den - num), max_len) for l in range(max_len + 1)]

    def test_float_floors_corrected_both_ways(self):
        # 6/11 rounds down in binary64, so at every multiple of 11 the float
        # product falls just short of its integer quotient; T = 0.3's cost
        # cap ratio puts it one too high at 136 lengths. The exact floors
        # must differ from the float ones both ways.
        c = 2**58 + 1
        t = Fraction(0.3)
        for a, b, n in ((6 * c, 11 * c, 2000), (t.numerator, 2 * t.denominator - t.numerator, 10_000)):
            assert a * n > 2**63 and b < 2**62
            want = [a * l // b for l in range(n + 1)]
            floats = np.floor(np.arange(n + 1) * (a / b)).astype(np.int64).tolist()
            assert any(f != w for f, w in zip(floats, want))
            assert strdist._floor_ratios(a, b, n).tolist() == want

    @given(st.data())
    def test_floor_ratios_are_exact(self, data):
        b = data.draw(st.integers(1, 2**1100 - 1))
        a = data.draw(st.integers(0, b - 1))
        n = data.draw(st.integers(0, 3000))
        assert strdist._floor_ratios(a, b, n).tolist() == [a * l // b for l in range(n + 1)]

    def test_table_past_int64(self):
        # at T = 0.1, num·L is past 2**63 from L = 2,560 on
        l = 999_983
        bounds = threshold_bounds(0.1, l)
        assert bounds.num * 2 * l > 2**63
        assert bounds.cost_cap[2 * l] == max_ld_given_nld(l, 0.1, True) == 105_261
        assert bounds.cost_cap[2 * l - 1] == math.floor(Fraction(0.1) * (2 * l - 1) / (2 - Fraction(0.1)))
        assert l - bounds.maxdiff[l] == min_partner_len(l, 0.1)
        # 899,985 / 0.9 is just above l; the next ceiling is clipped to l
        assert bounds.ceiling[899_984] == math.floor(899_984 / (1 - Fraction(0.1))) == l - 1
        assert bounds.ceiling[899_985] == math.floor(899_985 / (1 - Fraction(0.1))) == l
        assert bounds.ceiling[899_986] == l

    def _soundness_corpus(self):
        rng = random.Random(23)
        pairs = []
        universe = strings_upto("ab", 5)
        for x in universe:
            for y in universe:
                pairs.append((x, y))
        for _ in range(2000):
            x = "".join(rng.choice("abcdef") for _ in range(rng.randint(0, 14)))
            y = "".join(rng.choice("abcdef") for _ in range(rng.randint(0, 14)))
            pairs.append((x, y))
        return pairs

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 0.25, 0.5])
    def test_lemma_soundness_exhaustive_and_random(self, threshold):
        t_frac = Fraction(threshold)
        for x, y in self._soundness_corpus():
            if len(x) > len(y):
                x, y = y, x
            value = nld_frac(x, y)
            d = naive_ld(x, y)
            if value <= t_frac:
                # |x| <= |y| branch of the upper bound, plus the partner-length floor
                assert d <= max_ld_given_nld(len(y), threshold, True)
                assert len(x) >= min_partner_len(len(y), threshold)
                if len(y) > len(x):
                    # reversed roles exercise the |longer| > |shorter| branch
                    assert d <= max_ld_given_nld(len(x), threshold, False)
            else:
                assert d > min_ld_given_nld_exceeds(len(y), threshold, True)
                if len(y) > len(x):
                    assert d > min_ld_given_nld_exceeds(len(x), threshold, False)


class TestLengthBounds:
    def test_frozen_examples(self):
        lo, hi = nld_bounds_from_lengths(7, 8)
        assert lo == 1 - 7 / 8
        assert hi == 2 / (7 / 8 + 2)
        assert nld_bounds_from_lengths(5, 5) == (0.0, 2 / 3)
        assert nld_bounds_from_lengths(0, 5) == (1.0, 1.0)
        assert nld_bounds_from_lengths(0, 0) == (0.0, 0.0)

    def test_reference_pair_lies_inside(self):
        lo, hi = nld_bounds_from_lengths(7, 8)
        assert lo <= nld("Thomson", "Thompson") <= hi


class TestDistanceToSimilarity:
    def test_schemes(self):
        assert distance_to_similarity(0.2, "one-minus") == pytest.approx(0.8)
        assert distance_to_similarity(0.0, "reciprocal") == 1.0
        assert distance_to_similarity(1.0, "exponential") == pytest.approx(math.exp(-1))

    def test_rejections(self):
        with pytest.raises(ValueError):
            distance_to_similarity(-0.1, "one-minus")
        with pytest.raises(ValueError):
            distance_to_similarity(0.1, "log")
