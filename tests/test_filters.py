import dataclasses
from fractions import Fraction

from tokenjoin.filters import (
    FilterStats,
    histogram_filter,
    histogram_prunes,
    length_filter,
    length_prunes,
    residual_prunes,
)

from tokenjoin.setdist import drop_shared, residual_lower_bound

from helpers import nsld_frac, rand_multiset, sld_perm


class TestLengthFilter:
    def test_frozen_examples(self):
        assert length_filter(9, 9, 0.1) is True
        assert length_filter(5, 9, 0.1) is False  # 1 - 5/9 > 0.1
        assert length_filter(0, 9, 0.5) is False  # empty side forces 1
        assert length_filter(0, 0, 0.3) is True  # both empty kept

    def test_no_multisets_with_pruned_lengths_qualify(self, rng):
        # oracle check behind the 5-vs-9 example: distance is always > 0.1
        for _ in range(100):
            a = rand_multiset(rng, max_tokens=3, max_len=5, min_tokens=1)
            while sum(map(len, a)) != 5:
                a = rand_multiset(rng, max_tokens=3, max_len=5, min_tokens=1)
            b = rand_multiset(rng, max_tokens=3, max_len=9, min_tokens=1)
            while sum(map(len, b)) != 9:
                b = rand_multiset(rng, max_tokens=3, max_len=9, min_tokens=1)
            assert nsld_frac(a, b) > Fraction(0.1)

    def test_never_prunes_true_positive(self, rng):
        for threshold in (0.1, 0.3, 0.6):
            num, den = Fraction(threshold).numerator, Fraction(threshold).denominator
            for _ in range(200):
                a = rand_multiset(rng, max_tokens=3, max_len=5)
                b = rand_multiset(rng, max_tokens=3, max_len=5)
                if nsld_frac(a, b) <= Fraction(threshold):
                    assert not length_prunes(sum(map(len, a)), sum(map(len, b)), num, den)


class TestHistogramFilter:
    def test_frozen_examples(self):
        assert histogram_filter((4, 5), (4, 5), 9, 9, 0.3) is True  # identical length lists
        # lower bound 5 gives 10/18 > 0.1: prune; 10/18 <= 0.6: keep
        assert histogram_filter((4, 5), (4,), 9, 4, 0.1) is False
        assert histogram_filter((4, 5), (4,), 9, 4, 0.6) is True

    def test_never_prunes_true_positive(self, rng):
        for threshold in (0.1, 0.3, 0.6):
            num, den = Fraction(threshold).numerator, Fraction(threshold).denominator
            for _ in range(200):
                a = rand_multiset(rng, max_tokens=3, max_len=5)
                b = rand_multiset(rng, max_tokens=3, max_len=5)
                if nsld_frac(a, b) <= Fraction(threshold):
                    assert not histogram_prunes(
                        tuple(sorted(map(len, a))),
                        tuple(sorted(map(len, b))),
                        sum(map(len, a)),
                        sum(map(len, b)),
                        num,
                        den,
                    )

    def test_length_prune_implies_histogram_prune(self, rng):
        # sorted-alignment bound dominates the aggregate-length difference
        for threshold in (0.05, 0.2, 0.5):
            num, den = Fraction(threshold).numerator, Fraction(threshold).denominator
            for _ in range(300):
                a = rand_multiset(rng, max_tokens=4, max_len=6)
                b = rand_multiset(rng, max_tokens=4, max_len=6)
                la, lb = sum(map(len, a)), sum(map(len, b))
                if length_prunes(la, lb, num, den):
                    assert histogram_prunes(
                        tuple(sorted(map(len, a))),
                        tuple(sorted(map(len, b))),
                        la,
                        lb,
                        num,
                        den,
                    )


class TestResidualFilter:
    def test_frozen_examples(self):
        num, den = 1, 10
        # identical multisets leave nothing: bound 0
        assert not residual_prunes(("ab", "cd"), ("cd", "ab"), 4, 4, num, den)
        # "chan kalan" vs "chank alan" share nothing; lengths [4, 5] both
        # sides, so the bound is 1 + 1 = 2 and 2*2/(18 + 2) = 0.2
        a, b = ("chan", "kalan"), ("chank", "alan")
        assert residual_prunes(a, b, 9, 9, num, den)
        assert not residual_prunes(a, b, 9, 9, 1, 5)
        # the histogram bound is 0 on these lengths and never prunes
        assert not histogram_prunes((4, 5), (4, 5), 9, 9, num, den)
        # a repeated token drops once per shared copy: "aa" is left on one side
        assert residual_prunes(("aa", "aa", "bbbbbbbb"), ("aa", "bbbbbbbb"), 12, 10, num, den)
        assert not residual_prunes(("aa", "aa", "bbbbbbbb"), ("aa", "bbbbbbbb"), 12, 10, 1, 5)

    def test_empty_token_bounds_as_padding(self, rng):
        # "" weighs what padding weighs, so the bound leaves it out: "abc"
        # against "xyzuvw" costs at least 3, and 2*3/(9 + 3) > 1/10
        assert residual_prunes(("", "abc"), ("xyzuvw",), 3, 6, 1, 10)
        assert residual_prunes(("abc",), ("", "xyzuvw"), 3, 6, 1, 10)
        # never above the exact cost, with empty and repeated tokens
        tokens = ["", "", "a", "b", "ab", "ba", "abc", "bbca"]
        bounded = 0
        for _ in range(2000):
            a = [rng.choice(tokens) for _ in range(rng.randint(0, 4))]
            b = [rng.choice(tokens) for _ in range(rng.randint(0, 4))]
            truth = sld_perm(a, b)
            lower = residual_lower_bound(*drop_shared(a, b))
            assert lower <= truth
            bounded += "" in a + b and 0 < lower == truth
        assert bounded > 50

    def test_never_prunes_true_positive(self, rng):
        for threshold in (0.1, 0.3, 0.6):
            num, den = Fraction(threshold).numerator, Fraction(threshold).denominator
            for _ in range(300):
                a = rand_multiset(rng, max_tokens=3, max_len=4, alphabet="abc")
                b = rand_multiset(rng, max_tokens=3, max_len=4, alphabet="abc")
                if nsld_frac(a, b) <= Fraction(threshold):
                    assert not residual_prunes(a, b, sum(map(len, a)), sum(map(len, b)), num, den)

    def test_histogram_prune_implies_residual_prune(self, rng):
        pruned = {"histogram": 0, "residual": 0}
        for threshold in (0.05, 0.2, 0.5):
            num, den = Fraction(threshold).numerator, Fraction(threshold).denominator
            for _ in range(300):
                a = rand_multiset(rng, max_tokens=4, max_len=4, alphabet="ab")
                b = rand_multiset(rng, max_tokens=4, max_len=4, alphabet="ab")
                la, lb = sum(map(len, a)), sum(map(len, b))
                hist = histogram_prunes(tuple(sorted(map(len, a))), tuple(sorted(map(len, b))), la, lb, num, den)
                res = residual_prunes(a, b, la, lb, num, den)
                assert res or not hist
                pruned["histogram"] += hist
                pruned["residual"] += res
        assert pruned["residual"] > pruned["histogram"] > 0


class TestFilterStats:
    def test_reconciliation_and_merge(self):
        s = FilterStats(input_pairs=10, pruned_by_length=3, pruned_by_histogram=2, surviving=5)
        assert s.input_pairs == s.pruned_by_length + s.pruned_by_histogram + s.surviving
        assert dataclasses.asdict(s) == {"input_pairs": 10, "pruned_by_length": 3, "pruned_by_histogram": 2, "surviving": 5}
