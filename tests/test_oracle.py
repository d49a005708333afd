from fractions import Fraction

import pytest

from tokenjoin import oracle
from tokenjoin.errors import OracleGuardError
from tokenjoin.oracle import join_bruteforce, join_bruteforce_thresholds, sld_bruteforce
from tokenjoin.setdist import sld_exact
from tokenjoin.strdist import ld

from conftest import make_ts, naive_ld, nsld_frac, rand_multiset


class TestLdPrimitiveIndependence:
    def test_engine_ld_against_second_naive_dp(self, rng):
        # the one primitive the oracle shares with the engine gets its own
        # independent full-matrix check
        for _ in range(500):
            x = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 10)))
            y = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 10)))
            assert ld(x, y) == naive_ld(x, y)


class TestSldBruteforce:
    def test_reference_values(self):
        assert sld_bruteforce(make_ts("x", ("chan", "kalan")), make_ts("y", ("chank", "alan"))) == 2
        assert sld_bruteforce(make_ts("x", ("chan", "kalan")), make_ts("z", ("alan",))) == 5

    def test_identity(self):
        a = make_ts("a", ("ab", "cd", "ef"))
        assert sld_bruteforce(a, a) == 0

    def test_guard(self):
        big = make_ts("b", tuple("abcdefghi"))
        with pytest.raises(OracleGuardError):
            sld_bruteforce(big, make_ts("s", ("a",)))

    def test_differential_vs_exact_matching(self, rng):
        for _ in range(500):
            a = make_ts("a", rand_multiset(rng, max_tokens=5, max_len=5, alphabet="abc"))
            b = make_ts("b", rand_multiset(rng, max_tokens=5, max_len=5, alphabet="abc"))
            assert sld_bruteforce(a, b) == sld_exact(a, b).sld


class TestJoinBruteforce:
    def test_reference_corpus(self):
        corpus = [make_ts("0", ("chan", "kalan")), make_ts("1", ("chank", "alan"))]
        res = join_bruteforce(corpus, None, 0.2)
        assert res.pairs == (("0", "1", 0.2),)
        assert join_bruteforce(corpus, None, 0.1).pairs == ()

    def test_order_insensitive(self, rng):
        corpus = [
            make_ts(str(i), rand_multiset(rng, max_tokens=3, max_len=5, min_tokens=1))
            for i in range(40)
        ]
        shuffled = list(corpus)
        rng.shuffle(shuffled)
        assert join_bruteforce(corpus, None, 0.3).pairs == join_bruteforce(shuffled, None, 0.3).pairs

    def test_reusable_cache_does_not_change_results(self, rng):
        corpus = [
            make_ts(str(i), rand_multiset(rng, max_tokens=3, max_len=5, min_tokens=1))
            for i in range(30)
        ]
        cache: dict = {}
        a = join_bruteforce(corpus, None, 0.2, ld_cache=cache)
        b = join_bruteforce(corpus, None, 0.2, ld_cache=cache)
        c = join_bruteforce(corpus, None, 0.2)
        assert a.pairs == b.pairs == c.pairs

    def test_pair_guard(self):
        corpus = [make_ts(str(i), ("a",)) for i in range(4473)]
        # 4473*4472/2 = 10,001,628 > 10,000,000
        with pytest.raises(OracleGuardError):
            join_bruteforce(corpus, None, 0.1)

    def test_threshold_guard(self):
        with pytest.raises(OracleGuardError):
            join_bruteforce([], None, 1.0)

    def test_empty_corpus(self):
        assert join_bruteforce([], None, 0.2).pairs == ()

    def test_several_thresholds_score_each_pair_once(self, rng, monkeypatch):
        corpus_r = [make_ts(f"r{i}", rand_multiset(rng, max_tokens=3, max_len=4, alphabet="ab")) for i in range(20)]
        corpus_p = [make_ts(f"p{i}", rand_multiset(rng, max_tokens=3, max_len=4, alphabet="ab")) for i in range(15)]
        calls = []
        cost = oracle._min_pairing_cost

        def counting(tokens_a, tokens_b, memo):
            calls.append(1)
            return cost(tokens_a, tokens_b, memo)

        monkeypatch.setattr(oracle, "_min_pairing_cost", counting)
        thresholds = (0.1, 0.3, 0.5)
        got = join_bruteforce_thresholds(corpus_r, corpus_p, thresholds)
        assert len(calls) == len(corpus_r) * len(corpus_p)
        assert list(got) == list(thresholds)
        for threshold in thresholds:
            expected = sorted(
                (a.id, b.id)
                for a in corpus_r
                for b in corpus_p
                if nsld_frac(a.tokens, b.tokens) <= Fraction(threshold)
            )
            assert [(left, right) for left, right, _ in got[threshold].pairs] == expected
        assert 0 < len(got[0.1].pairs) < len(got[0.5].pairs)
        with pytest.raises(OracleGuardError):
            join_bruteforce_thresholds([], None, (0.1, 1.0))
