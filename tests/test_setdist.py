from fractions import Fraction

import pytest

from tokenjoin.setdist import (
    LdCache,
    hungarian,
    nsld,
    nsld_bounds_from_lengths,
    sld_capped,
    sld_exact,
    sld_greedy,
    sorted_lengths_lower_bound,
)
from helpers import make_ts, naive_ld, nsld_frac, rand_multiset, rand_token, sld_perm

CHAN_KALAN = make_ts("x", ("chan", "kalan"))
CHANK_ALAN = make_ts("y", ("chank", "alan"))
ALAN = make_ts("z", ("alan",))
EMPTY = make_ts("e", ())


class TestSldExact:
    def test_reference_values(self):
        assert sld_exact(CHAN_KALAN, CHANK_ALAN).sld == 2
        assert sld_exact(CHAN_KALAN, ALAN).sld == 5

    def test_empty_cases(self):
        assert sld_exact(make_ts("a", ("ab",)), EMPTY).sld == 2
        assert sld_exact(EMPTY, EMPTY).sld == 0
        assert sld_exact(EMPTY, EMPTY).pairing == ()

    def test_pairing_invariants(self):
        cost = sld_exact(CHAN_KALAN, ALAN)
        lefts = [i for i, _ in cost.pairing if i is not None]
        rights = [j for _, j in cost.pairing if j is not None]
        assert sorted(lefts) == [0, 1]
        assert sorted(rights) == [0]
        total = 0
        for i, j in cost.pairing:
            left = CHAN_KALAN.tokens[i] if i is not None else ""
            right = ALAN.tokens[j] if j is not None else ""
            total += naive_ld(left, right)
        assert total == cost.sld

    def test_matches_permutation_oracle_on_random_multisets(self, rng):
        for _ in range(400):
            a = rand_multiset(rng, max_tokens=5, max_len=6, alphabet="abc")
            b = rand_multiset(rng, max_tokens=5, max_len=6, alphabet="abc")
            assert sld_exact(make_ts("a", a), make_ts("b", b)).sld == sld_perm(a, b)


class TestHungarian:
    def test_trivial(self):
        assert hungarian([]) == (0, [])
        assert hungarian([[7]]) == (7, [0])

    def test_known_matrix(self):
        # permutation oracle fixes the optimum at 5 (0->1, 1->0, 2->2)
        cost = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
        total, assignment = hungarian(cost)
        assert total == 5
        assert sorted(assignment) == [0, 1, 2]
        assert sum(cost[i][assignment[i]] for i in range(3)) == total

    def test_random_vs_permutations(self, rng):
        from itertools import permutations

        for _ in range(200):
            k = rng.randint(1, 6)
            cost = [[rng.randint(0, 12) for _ in range(k)] for _ in range(k)]
            best = min(sum(cost[i][p[i]] for i in range(k)) for p in permutations(range(k)))
            total, assignment = hungarian(cost)
            assert total == best
            assert sorted(assignment) == list(range(k))


class TestSldGreedy:
    def test_reference_pair_happens_to_be_optimal(self):
        assert sld_greedy(CHAN_KALAN, CHANK_ALAN).sld == 2

    def test_single_tokens(self):
        assert sld_greedy(make_ts("a", ("x",)), make_ts("b", ("x",))).sld == 0

    def test_never_below_exact_and_equal_on_singletons(self, rng):
        for _ in range(400):
            a = rand_multiset(rng, max_tokens=4, max_len=5, alphabet="ab")
            b = rand_multiset(rng, max_tokens=4, max_len=5, alphabet="ab")
            g = sld_greedy(make_ts("a", a), make_ts("b", b)).sld
            e = sld_perm(a, b)
            assert g >= e
            if len(a) <= 1 and len(b) <= 1:
                assert g == e

    def test_greedy_can_be_suboptimal_even_against_one_token(self):
        # greedy tie-breaks to pair ab~a first (total 5); optimal pairs
        # ab~bbbb and pads against a (total 4), so a single-token side is
        # not enough to make greedy exact
        x = make_ts("x", ("ab",))
        y = make_ts("y", ("a", "bbbb"))
        assert sld_exact(x, y).sld == 4
        assert sld_greedy(x, y).sld == 5

    def test_total_depends_on_token_order(self):
        # baa~bab, b~a and ab~a all cost 1, and ties break by (left, right)
        # index: with b before ab, greedy takes baa~bab and b~a, leaving
        # ab~aabb at 2 (total 4); with ab before b, it takes ab~a, leaving
        # b~aabb at 3 (total 5)
        b = make_ts("b", ("bab", "a", "aabb"))
        for left, greedy in ((("baa", "b", "ab"), 4), (("baa", "ab", "b"), 5)):
            a = make_ts("a", left)
            assert sld_greedy(a, b).sld == greedy
            assert sld_exact(a, b).sld == 4
            assert nsld(a, b, "greedy") == 2 * greedy / (a.agg_len + b.agg_len + greedy)


class TestNsld:
    def test_reference_value(self):
        assert nsld(CHAN_KALAN, CHANK_ALAN, "exact") == 0.2
        s = sld_exact(CHAN_KALAN, CHANK_ALAN).sld
        assert Fraction(2 * s, 9 + 9 + s) == Fraction(1, 5)

    def test_identity_and_empty(self):
        assert nsld(CHAN_KALAN, CHAN_KALAN) == 0.0
        assert nsld(EMPTY, make_ts("c", ("chan",))) == 1.0
        assert nsld(EMPTY, EMPTY) == 0.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            nsld(CHAN_KALAN, CHANK_ALAN, "best-effort")

    def test_range_lemma(self, rng):
        for _ in range(500):
            a = rand_multiset(rng, max_tokens=4, max_len=6)
            b = rand_multiset(rng, max_tokens=4, max_len=6)
            assert 0.0 <= nsld(make_ts("a", a), make_ts("b", b)) <= 1.0

    def test_metric_axioms_on_random_triples(self, rng):
        for _ in range(700):
            sets = [rand_multiset(rng, max_tokens=3, max_len=4, alphabet="ab") for _ in range(3)]
            dxy = nsld_frac(sets[0], sets[1])
            dyz = nsld_frac(sets[1], sets[2])
            dxz = nsld_frac(sets[0], sets[2])
            assert dxy == nsld_frac(sets[1], sets[0])
            if sorted(sets[0]) == sorted(sets[1]):
                assert dxy == 0
            else:
                assert dxy > 0
            assert dxy + dyz >= dxz

    def test_lower_bound_always_holds(self, rng):
        for _ in range(500):
            a = rand_multiset(rng, max_tokens=4, max_len=5)
            b = rand_multiset(rng, max_tokens=4, max_len=5)
            la = sum(map(len, a))
            lb = sum(map(len, b))
            lo, _ = nsld_bounds_from_lengths(la, lb)
            assert lo - 1e-12 <= float(nsld_frac(a, b))

    def test_full_sandwich_holds_for_single_token_records(self, rng):
        for _ in range(500):
            a = rand_multiset(rng, max_tokens=1, max_len=8)
            b = rand_multiset(rng, max_tokens=1, max_len=8)
            la = sum(map(len, a))
            lb = sum(map(len, b))
            lo, hi = nsld_bounds_from_lengths(la, lb)
            assert lo - 1e-12 <= float(nsld_frac(a, b)) <= hi + 1e-12

    def test_upper_bound_fails_for_multi_token_records(self):
        # token boundaries block character reuse: every pairing of
        # {aaa,b} with {cc,dd} costs 5 > max aggregate length 4, putting
        # the distance above the single-token-style upper bound
        a = ("aaa", "b")
        b = ("cc", "dd")
        assert sld_perm(a, b) == 5
        value = nsld_frac(a, b)
        _, hi = nsld_bounds_from_lengths(4, 4)
        assert float(value) > hi


class TestNsldBounds:
    def test_frozen_examples(self):
        assert nsld_bounds_from_lengths(9, 9) == (0.0, 2 / 3)
        lo, hi = nsld_bounds_from_lengths(5, 9)
        assert lo == pytest.approx(4 / 9)
        assert hi == pytest.approx(18 / 23)
        assert nsld_bounds_from_lengths(0, 9) == (1.0, 1.0)

    def test_reference_pair_inside_its_bounds(self):
        # {"chan","kalan"} vs {"alan"}: aggregate lengths 9 and 4, setwise cost 5
        value = nsld_frac(("chan", "kalan"), ("alan",))
        assert value == Fraction(10, 18)
        lo, hi = nsld_bounds_from_lengths(4, 9)
        assert lo - 1e-12 <= float(value) <= hi + 1e-12


class TestThresholdTransfer:
    @pytest.mark.parametrize("threshold", [0.1, 0.2, 0.4])
    def test_some_token_pair_within_threshold(self, threshold, rng):
        t = Fraction(threshold)
        for _ in range(400):
            a = rand_multiset(rng, max_tokens=3, max_len=4, alphabet="ab", min_tokens=1)
            b = rand_multiset(rng, max_tokens=3, max_len=4, alphabet="ab", min_tokens=1)
            if nsld_frac(a, b) <= t:
                assert any(
                    2 * naive_ld(x, y) * t.denominator
                    <= t.numerator * (len(x) + len(y) + naive_ld(x, y))
                    for x in a
                    for y in b
                )


class TestHistogramBound:
    def test_frozen_examples(self):
        assert sorted_lengths_lower_bound((4, 5), (4, 5)) == 0
        assert sorted_lengths_lower_bound((4, 5), (4,)) == 5  # sorted [4,5] vs [0,4]
        assert sorted_lengths_lower_bound((), (9,)) == 9

    def test_lower_bound_soundness_and_monotone_transfer(self, rng):
        for _ in range(500):
            a = rand_multiset(rng, max_tokens=4, max_len=5)
            b = rand_multiset(rng, max_tokens=4, max_len=5)
            lb = sorted_lengths_lower_bound(
                tuple(sorted(map(len, a))), tuple(sorted(map(len, b)))
            )
            s = sld_perm(a, b)
            assert lb <= s
            la = sum(map(len, a))
            lbb = sum(map(len, b))
            # f(s) = 2s/(C+s) is increasing, so the bound transfers through it
            if s == 0:
                assert lb == 0
            else:
                assert Fraction(2 * lb, la + lbb + lb) <= Fraction(2 * s, la + lbb + s)


def overlapping_multisets(rng, max_tokens=6):
    """Two multisets that share most of their tokens, repeats included."""
    vocab = [rand_token(rng, max_len=4, alphabet="ab") for _ in range(rng.randint(1, 4))]
    shared = [rng.choice(vocab) for _ in range(rng.randint(1, max_tokens - 2))]
    a = shared + [rng.choice(vocab) for _ in range(rng.randint(0, max_tokens - len(shared)))]
    b = shared + [rng.choice(vocab) for _ in range(rng.randint(0, max_tokens - len(shared)))]
    rng.shuffle(a)
    rng.shuffle(b)
    return tuple(a), tuple(b)


def random_and_overlapping_pairs(rng, n):
    for _ in range(n):
        yield (
            rand_multiset(rng, max_tokens=4, max_len=5, alphabet="abc"),
            rand_multiset(rng, max_tokens=4, max_len=5, alphabet="abc"),
        )
        yield overlapping_multisets(rng)


def unshared_unequal_pairs(rng, n):
    """Pairs with different token counts and no token in common.

    One side is the other with each token a single edit away plus one or two
    extra tokens, so many pairs cost exactly their residual length bound,
    where the bound must still accept.
    """
    out = [(("abc", "def", "ghi"), ("abd", "deg", "ghj", "k"))]
    while len(out) < n:
        a = rand_multiset(rng, max_tokens=3, max_len=5, alphabet="abc", min_tokens=1)
        b = []
        for tok in a:
            pos = rng.randrange(len(tok) + 1)
            op = rng.randrange(3)
            if op == 0 or pos == len(tok):
                tok = tok[:pos] + rng.choice("abc") + tok[pos:]
            elif op == 1 and len(tok) > 1:
                tok = tok[:pos] + tok[pos + 1 :]
            else:
                tok = tok[:pos] + rng.choice("abc") + tok[pos + 1 :]
            b.append(tok)
        b += [rand_token(rng, max_len=3, alphabet="abc") for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.5:
            a, b = tuple(b), a
        if len(a) != len(b) and not set(a) & set(b):
            out.append((tuple(a), tuple(b)))
    return out


class CountingLdCache(LdCache):
    """LdCache that counts its ``bounded`` lookups."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def bounded(self, x, y, cap):
        self.calls += 1
        return super().bounded(x, y, cap)


class TestSldCapped:
    def test_agrees_with_exact_within_cap(self, rng):
        cache = LdCache()
        for a, b in random_and_overlapping_pairs(rng, 500):
            truth = sld_perm(a, b)
            for cap in (0, 1, 2, 5, 30):
                got = sld_capped(a, b, cap, ld_cache=cache)
                if truth <= cap:
                    assert got == truth
                else:
                    assert got is None

    def test_greedy_capped_matches_uncapped_greedy_when_within(self, rng):
        for a, b in random_and_overlapping_pairs(rng, 300):
            g = sld_greedy(make_ts("a", a), make_ts("b", b)).sld
            got = sld_capped(a, b, 30, greedy=True)
            assert got == g  # cap far above any possible total
            if g > 0:
                # a cap below the greedy total always rejects: surrogate picks
                # overshoot immediately, exact picks reproduce the full total
                assert sld_capped(a, b, g - 1, greedy=True) is None

    @pytest.mark.parametrize(
        "a, b",
        [
            (("bba", "bb"), ("bba", "b", "b", "b", "bba")),
            (("baba", "aabb", "aabb"), ("bb", "baba", "bb", "baba")),
        ],
    )
    def test_greedy_pairs_each_shared_token_with_its_first_copy(self, a, b):
        # greedy ties break by (left, right) index, so which copy of a repeated
        # token drops out changes the greedy total
        g = sld_greedy(make_ts("a", a), make_ts("b", b)).sld
        assert sld_capped(a, b, 30, greedy=True) == g

    def test_accepts_at_the_truth_and_rejects_one_below(self, rng):
        tight = 0
        pairs = unshared_unequal_pairs(rng, 300)
        for a, b in pairs:
            lens_a, lens_b = sorted(map(len, a)), sorted(map(len, b))
            pad = len(b) - len(a)
            lens_a, lens_b = [0] * pad + lens_a, [0] * -pad + lens_b
            tight += sld_perm(a, b) == sum(max(1, abs(p - q)) for p, q in zip(lens_a, lens_b))
        assert tight > 50  # the boundary the bound itself must not cross
        # their first tokens, one a side and unshared, make 1 x 1 matrices
        pairs += [(a[:1], b[:1]) for a, b in pairs[:50]]
        residual_k = set()
        for a, b in pairs:
            residual_k.add(min(max(len(a), len(b)), 4))  # no token is shared
            truth = sld_perm(a, b)
            greedy = sld_greedy(make_ts("a", a), make_ts("b", b)).sld
            assert sld_capped(a, b, truth, ld_cache=LdCache()) == truth
            assert sld_capped(a, b, truth - 1, ld_cache=LdCache()) is None
            assert sld_capped(a, b, greedy, greedy=True, ld_cache=LdCache()) == greedy
            assert sld_capped(a, b, greedy - 1, greedy=True, ld_cache=LdCache()) is None
        # both solvers, on matrices of every residual size from 1 to 4 and up
        assert residual_k == {1, 2, 3, 4}

    @pytest.mark.parametrize("greedy", [False, True])
    def test_length_bound_above_cap_makes_no_lookup(self, greedy):
        # equal lengths, so only max(1, |difference|) sees the cost of 3
        a, b = ("abc", "def", "ghi"), ("abd", "deg", "ghj")
        cache = CountingLdCache()
        assert sld_capped(a, b, 2, greedy=greedy, ld_cache=cache) is None
        assert sld_capped(("abc",), ("abd",), 0, greedy=greedy, ld_cache=cache) is None
        assert sld_capped(("abc", "de"), ("abcdefgh",), 6, greedy=greedy, ld_cache=cache) is None
        assert cache.calls == 0
        assert sld_capped(a, b, 3, greedy=greedy, ld_cache=cache) == 3
        assert cache.calls > 0

    def test_empty_residual_token_bounds_as_padding(self):
        # the cost is 1 ("" against padding, "a" against "b"); the bound
        # leaves "" out, as padding, and charges 1 for "a" against "b".
        # Records of the join's tokenizers never hold an empty token, but
        # sld_capped is public
        assert sld_capped(("", "a"), ("b",), 1) == 1
        cache = CountingLdCache()
        assert sld_capped(("", "abc"), ("xyzuvw",), 2, ld_cache=cache) is None
        assert cache.calls == 0


class TestLdCache:
    def test_remembers_exact_and_over_cap(self):
        cache = LdCache()
        assert cache.bounded("kalan", "alan", 1) == 1
        assert cache.bounded("alan", "kalan", 0) is None  # served from exact memo
        assert cache.bounded("abc", "xyz", 1) is None
        assert cache.bounded("abc", "xyz", 0) is None  # over-cap memo, no recompute
        assert cache.bounded("abc", "xyz", 5) == 3  # larger cap recomputes
        assert cache.bounded("same", "same", 0) == 0

    def test_differential(self, rng):
        cache = LdCache()
        for _ in range(300):
            x = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
            y = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
            cap = rng.randint(0, 6)
            truth = naive_ld(x, y)
            got = cache.bounded(x, y, cap)
            assert got == (truth if truth <= cap else None)
