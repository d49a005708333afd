import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from tokenjoin import candidates, pipeline
from tokenjoin.candidates import (
    NldIndex,
    build_token_space,
    partition_even,
    segment_layout,
    similar_token_pairs,
)
from tokenjoin.errors import DataError, NotPartitionable
from tokenjoin.pipeline import JoinConfig, join
from tokenjoin.setdist import LdCache
from tokenjoin.strdist import max_ld_given_nld, min_partner_len, threshold_bounds, token_table

from helpers import all_pairs_token_oracle, make_ts, naive_ld, nld_frac, rand_token


@pytest.fixture
def generate(monkeypatch):
    """Runs join() and returns its raw candidate stream, as a Counter of id pairs, and its report."""
    streams = []
    dedup = pipeline.dedup_candidates

    def spy(raw):
        streams.append(raw.copy())
        return dedup(raw)

    monkeypatch.setattr(pipeline, "dedup_candidates", spy)

    def run(corpus_r, corpus_p=None, **cfg):
        _, report = join(corpus_r, corpus_p, JoinConfig(self_join=corpus_p is None, **cfg))
        ids_r = sorted(rec.id for rec in corpus_r)
        ids_p = ids_r if corpus_p is None else sorted(rec.id for rec in corpus_p)
        stream = Counter((ids_r[p >> 32], ids_p[p & 0xFFFFFFFF]) for p in streams.pop().tolist())
        return stream, report

    return run


def records(*id_token_lists):
    return [make_ts(rid, toks) for rid, toks in id_token_lists]


class TestBuildTokenSpace:
    def test_frequency_cap(self):
        corpus = [
            make_ts("1", ("john", "smith")),
            make_ts("2", ("john", "doe")),
            make_ts("3", ("john",)),
        ]
        capped = build_token_space(corpus, 2)
        assert "john" not in capped
        assert capped["smith"] == ("1",)
        full = build_token_space(corpus, math.inf)
        assert full["john"] == ("1", "2", "3")

    def test_duplicate_tokens_in_one_record_count_once(self):
        corpus = [make_ts("1", ("bob", "bob")), make_ts("2", ("bob",))]
        space = build_token_space(corpus, 2)
        assert space["bob"] == ("1", "2")

    def test_empty_corpus(self):
        assert build_token_space([], 10) == {}

    def test_records_of_length_zero_hold_no_postings(self):
        corpus = [make_ts("1", ("",)), make_ts("2", ("", "")), make_ts("3", ("", "ab")), make_ts("4", ())]
        assert build_token_space(corpus, 1) == {"": ("3",), "ab": ("3",)}

    def test_duplicate_record_id_rejected(self):
        with pytest.raises(DataError):
            build_token_space([make_ts("1", ("a",)), make_ts("1", ("b",))])

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            build_token_space([], 0)


class TestSharedTokenCandidates:
    def test_single_shared_token_two_set(self, generate):
        stream, _ = generate(records(("1", ("alan",))), records(("2", ("alan",))))
        assert stream == Counter({("1", "2"): 1})

    def test_self_join_triangle(self, generate):
        stream, _ = generate(records(("1", ("alan",)), ("2", ("alan",)), ("3", ("alan",))))
        assert stream == Counter({("1", "2"): 1, ("1", "3"): 1, ("2", "3"): 1})

    def test_disjoint_spaces_empty(self, generate):
        stream, _ = generate(records(("1", ("aa",))), records(("2", ("bb",))))
        assert not stream

    def test_lengths_attached(self, generate):
        # the pair's aggregate lengths, 3 and 2, reach the length prune: 1 - 2/3 > 0.3
        corpus = records(("1", ("ab", "c")), ("2", ("ab",)))
        stream, report = generate(corpus, threshold=0.3)
        assert stream == Counter({("1", "2"): 1})
        assert report.filters.pruned_by_length == 1
        _, report = generate(corpus, threshold=0.4)
        assert report.filters.pruned_by_length == 0
        assert report.stages["verify"].items_out == 1  # nsld = 2/(3 + 2 + 1)


class TestPartitionEven:
    def test_frozen_examples(self):
        assert partition_even("chank", 1) == ["cha", "nk"]
        assert partition_even("abcd", 0) == ["abcd"]

    def test_not_partitionable(self):
        with pytest.raises(NotPartitionable):
            partition_even("ab", 2)

    def test_negative_u_rejected(self):
        with pytest.raises(ValueError):
            segment_layout(5, -1)

    def test_coverage_and_evenness(self, rng):
        for _ in range(300):
            u = rng.randint(0, 5)
            token = rand_token(rng, max_len=16)
            if len(token) < u + 1:
                with pytest.raises(NotPartitionable):
                    partition_even(token, u)
                continue
            segs = partition_even(token, u)
            assert len(segs) == u + 1
            assert "".join(segs) == token
            assert all(segs)
            lens = sorted(map(len, segs))
            assert lens[-1] - lens[0] <= 1
            # longer segments come first
            assert list(map(len, segs)) == sorted(map(len, segs), reverse=True)

    def test_partition_lemma(self, rng):
        # edit y at most u times; some segment of y must survive inside x
        for _ in range(400):
            u = rng.randint(0, 3)
            y = rand_token(rng, max_len=14)
            if len(y) < u + 1:
                continue
            x = list(y)
            for _ in range(rng.randint(0, u)):
                if not x:
                    break
                op = rng.randrange(3)
                pos = rng.randrange(len(x))
                if op == 0:
                    x[pos] = rng.choice("abcdef")
                elif op == 1:
                    x.insert(pos, rng.choice("abcdef"))
                else:
                    del x[pos]
            x = "".join(x)
            assert naive_ld(x, y) <= u
            assert any(seg in x for seg in partition_even(y, u))


def similar(tokens_r, tokens_p, threshold, capped_r=(), capped_p=()):
    """:func:`similar_token_pairs` over the vocabulary of both sides, its pairs as tokens.

    The tokens of ``tokens_r`` are kept on the left side and those of
    ``capped_r`` held there but capped, and likewise on the right;
    ``tokens_p`` of None is a self-join. Token ids follow the first
    occurrence in ``tokens_r``, ``capped_r``, ``tokens_p``, ``capped_p``.
    """
    vocab = list(dict.fromkeys([*tokens_r, *capped_r, *(tokens_p or ()), *capped_p]))
    ids = {tok: i for i, tok in enumerate(vocab)}

    def kept(tokens):
        mask = np.zeros(len(vocab), dtype=bool)
        mask[[ids[tok] for tok in tokens]] = True
        return mask

    stats, sim_r, sim_p = similar_token_pairs(
        token_table(vocab),
        kept(tokens_r),
        None if tokens_p is None else kept(tokens_p),
        threshold_bounds(threshold, max(map(len, vocab), default=0)),
    )
    return stats, [(vocab[a], vocab[b]) for a, b in zip(sim_r.tolist(), sim_p.tolist())]


def check_two_set_oracle(rng, threshold, alphabet, trials=20):
    # the sides share tokens, and some shared tokens are capped on one side
    # only: a pair counts only as (left-kept token, right-kept token)
    for _ in range(trials):
        shared = sorted({rand_token(rng, max_len=7, alphabet=alphabet) for _ in range(10)})
        tokens_r = sorted(set(shared) | {rand_token(rng, max_len=7, alphabet=alphabet) for _ in range(20)})
        tokens_p = sorted(set(shared) | {rand_token(rng, max_len=7, alphabet=alphabet) for _ in range(20)})
        capped_r = set(rng.sample(shared, len(shared) // 3)) | set(rng.sample(tokens_r, 2))
        capped_p = set(rng.sample(shared, len(shared) // 3)) | set(rng.sample(tokens_p, 2))
        kept_r = [tok for tok in tokens_r if tok not in capped_r]
        kept_p = [tok for tok in tokens_p if tok not in capped_p]
        _, got = similar(kept_r, kept_p, threshold, capped_r, capped_p)
        assert len(got) == len(set(got))
        assert set(got) == all_pairs_token_oracle(kept_r, kept_p, threshold)


def check_self_join_oracle(rng, threshold, alphabet, trials=20):
    for _ in range(trials):
        tokens = sorted({rand_token(rng, max_len=7, alphabet=alphabet) for _ in range(30)})
        _, got = similar(tokens, None, threshold)
        expected = set()
        for i, x in enumerate(tokens):
            for y in tokens[i + 1 :]:
                if nld_frac(x, y) <= Fraction(threshold):
                    expected.add((x, y))
        # each pair once, as (min id, max id); the ids follow ``tokens``
        assert len(got) == len(set(got))
        assert set(got) == expected


class TestSimilarTokenPairs:
    def test_frozen_example(self):
        # both tokens are probed; the pair is a candidate once, from "alan",
        # its shorter token, and "kalan"'s hit on itself is no candidate
        stats, pairs = similar(["kalan"], ["alan"], 0.2)
        assert pairs == [("kalan", "alan")]
        assert (stats.probes, stats.candidates, stats.ld_checks, stats.pairs) == (2, 1, 1, 1)

    def test_dissimilar_tokens_empty(self):
        assert similar(["chan"], ["xyzw"], 0.2)[1] == []

    def test_self_join_threshold_zero_is_equality(self):
        # at T=0 only identical tokens match, and those are never returned
        stats, pairs = similar(["alan", "chan"], None, 0.0)
        assert (stats.probes, pairs) == (0, [])

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 0.2, 0.4, 0.6])
    def test_exactly_matches_all_pairs_oracle_two_set(self, threshold, rng):
        check_two_set_oracle(rng, threshold, "abc")

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 0.25, 0.5])
    def test_exactly_matches_all_pairs_oracle_self_join(self, threshold, rng):
        check_self_join_oracle(rng, threshold, "abc")

    def test_length_condition_never_violated(self, rng):
        for threshold in (0.1, 0.3):
            tokens = sorted({rand_token(rng, max_len=9) for _ in range(40)})
            for a, b in similar(tokens, None, threshold)[1]:
                shorter, longer = sorted((a, b), key=len)
                assert min_partner_len(len(longer), threshold) <= len(shorter) <= len(longer)


class TestNldIndexShortTokens:
    def test_short_tokens_found_at_high_threshold(self):
        # at T=0.8, U(2) = floor(3.2/1.2) = 2 >= len("ab"), so "ab" cannot be
        # evenly partitioned into U+1 non-empty segments: the short-token rule
        # must serve it whole to every probe of an admissible length
        u = max_ld_given_nld(2, 0.8, True)
        assert u + 1 > 2  # the fallback engages
        index = NldIndex(["ab"], 0.8)
        hits = index.probe("c", LdCache())
        # nld("c","ab") = 2*2/(1+2+2) = 0.8 <= 0.8, unreachable by segment
        # collision ("ab" is not a substring of "c"), so only the fallback finds it
        assert ("c", "ab", 2) in hits

    def test_short_tokens_covered_in_full_pair_search(self):
        assert similar(["ab", "c"], None, 0.8)[1] == [("ab", "c")]


def edited_vocabulary(rng, alphabet, bases=6, max_len=22):
    """Random tokens of 1..max_len characters, each with a few edited variants."""
    vocab = set()
    for _ in range(bases):
        base = rand_token(rng, max_len=max_len, alphabet=alphabet)
        vocab.add(base)
        for _ in range(rng.randint(0, 4)):
            chars = list(base)
            for _ in range(rng.randint(1, 4)):
                pos = rng.randrange(len(chars) + 1)
                op = rng.randrange(3)
                if op == 1 or pos == len(chars):
                    chars.insert(pos, rng.choice(alphabet))
                elif op == 0:
                    chars[pos] = rng.choice(alphabet)
                else:
                    del chars[pos]
            if chars:
                vocab.add("".join(chars))
    return sorted(vocab)


def check_probe_bruteforce(rng, threshold, trials=30):
    t = Fraction(threshold)
    for trial in range(trials):
        vocab = edited_vocabulary(rng, "ab" if trial % 2 else "abcd")
        index = NldIndex(vocab, threshold)
        cache = LdCache()
        for x in vocab:
            got = index.probe(x, cache)
            assert all(gx == x and y != x for gx, y, _ in got)
            expected = {
                (y, naive_ld(x, y))
                for y in vocab
                if y != x and len(y) >= len(x) and nld_frac(x, y) <= t
            }
            assert {(y, d) for _, y, d in got} == expected
            assert len(got) == len(expected)


class TestNldIndexProbe:
    @pytest.mark.parametrize("threshold", [0.05, 0.1, 0.2, 0.3, 0.5, 0.8])
    def test_matches_bruteforce_on_long_tokens(self, threshold, rng):
        # tokens up to 22 characters reach U >= 2 at every threshold but 0.05,
        # so hits at the edges of the multi-match-aware windows decide the outcome
        check_probe_bruteforce(rng, threshold)

    @pytest.mark.parametrize("threshold", [0.05, 0.1, 0.2, 0.3, 0.5, 0.8])
    def test_only_searchable_lengths_are_kept(self, threshold, monkeypatch):
        # the bound below which a token is neither indexed nor probed is tight
        lens = np.arange(1, 60)
        bound = int(lens[candidates._searched(lens, threshold_bounds(threshold, 59))][0])
        monkeypatch.setattr(candidates, "_searched", lambda lens, bounds: np.ones(lens.size, dtype=bool))
        index = NldIndex(["a" * n for n in range(1, 60)], threshold)
        searched = [n for n in range(1, 60) if index.plan(n).starts.size or n in index._layouts]
        assert searched[0] == bound
        assert searched == list(range(bound, 60))
        if threshold == 0.1:
            assert bound == 9


class TestHashedSegmentKeys:
    @pytest.fixture(
        params=[(0, None), (1, None), (0, 0)],
        ids=["last-code-point", "code-point-sum", "one-key-per-code-point"],
    )
    def colliding(self, request, monkeypatch):
        """Hash bases under which many distinct segments share a key.

        Base 0 keys a segment by its last code point, base 1 by the sum of
        its code points; a tag multiplier of 0 also gives every (length, slot)
        the same tag, so tokens of other lengths collide too.
        """
        base, tag_mix = request.param
        monkeypatch.setattr(candidates, "_HASH_BASE", base)
        if tag_mix is not None:
            monkeypatch.setattr(candidates, "_TAG_MIX", tag_mix)

    @pytest.mark.parametrize("threshold", [0.1, 0.2, 0.4])
    def test_collisions_change_no_pair(self, colliding, threshold, rng):
        check_two_set_oracle(rng, threshold, "abc", trials=5)
        check_self_join_oracle(rng, threshold, "abc", trials=5)
        check_probe_bruteforce(rng, threshold, trials=6)

    def test_collisions_only_add_candidates(self, rng, monkeypatch):
        tokens = edited_vocabulary(rng, "abcd", bases=8)
        stats, pairs = similar(tokens, None, 0.3)
        monkeypatch.setattr(candidates, "_HASH_BASE", 0)
        collided, same_pairs = similar(tokens, None, 0.3)
        assert same_pairs == pairs
        assert (collided.probes, collided.probe_keys) == (stats.probes, stats.probe_keys)
        assert collided.candidates > stats.candidates

    @pytest.mark.parametrize("threshold", [0.2, 0.5])
    def test_non_ascii_tokens(self, threshold, rng):
        # two-byte, three-byte and astral code points, as the keys and the
        # kernel read them: one UTF-32 code point per character
        alphabet = "a\u00e9\u00df\u20ac\U0001F600"
        check_two_set_oracle(rng, threshold, alphabet)
        check_self_join_oracle(rng, threshold, alphabet)
        left = ["stra\u00dfe", "strasse", "stra\u00dfen", "caf\u00e9\U0001F600", "cafe\U0001F600", "caf\u00e9"]
        right = left[::-1]
        _, got = similar(left, right, threshold)
        assert set(got) == all_pairs_token_oracle(left, right, threshold)

    def test_two_set_sides_sharing_tokens(self, monkeypatch):
        # both sides hold "abcdefghij" and "abcdefghik": one index holds each
        # token once, and each pair is a candidate and checked once
        left = ["abcdefghij", "abcdefghik", "zbcdefghij", "qqqqqqqqqq"]
        right = ["abcdefghik", "abcdefghij", "abcdefghil", "abcdefghijk"]
        sent = []
        kernel = candidates.ld_bounded_ids

        def spy(table, a, b, caps):
            sent.extend((table.token(x), table.token(y)) for x, y in zip(a.tolist(), b.tolist()))
            return kernel(table, a, b, caps)

        monkeypatch.setattr(candidates, "ld_bounded_ids", spy)
        stats, pairs = similar(left, right, 0.2)
        assert set(pairs) == all_pairs_token_oracle(left, right, 0.2)
        assert ("abcdefghij", "abcdefghik") in pairs and ("abcdefghik", "abcdefghij") in pairs
        assert all(x != y for x, y in pairs)
        assert all(x != y for x, y in sent)
        unordered = {frozenset(pair) for pair in sent}
        assert len(sent) == len(unordered) == stats.ld_checks
        assert {frozenset(pair) for pair in pairs} <= unordered
        # the one candidate the kernel never sees pairs two right-only tokens;
        # a token's hit on itself is no candidate
        assert frozenset(("abcdefghil", "abcdefghijk")) not in unordered
        assert stats.candidates == stats.ld_checks + 1
        assert stats.pairs == len(pairs)


class TestSimilarTokenCandidates:
    def test_expansion_and_missing_postings(self, generate):
        stream, _ = generate(records(("1", ("kalan",))), records(("2", ("alan",))), threshold=0.2)
        assert stream == Counter({("1", "2"): 1})
        # a capped token is neither probed nor indexed, so it emits nothing
        left = records(("1", ("kalan",)), ("3", ("kalan",)))
        stream, _ = generate(left, records(("2", ("alan",))), threshold=0.2, max_token_freq=1)
        assert not stream

    def test_self_join_never_reflexive(self, generate):
        stream, report = generate(records(("1", ("aa", "ab"))), threshold=0.4)
        assert report.stages["similar-tokens"].items_out == 1
        assert not stream

    def test_self_join_canonical_order_and_duplicate_token(self, generate):
        # "ab" sits in the smallest id, so each expanded pair must be swapped
        stream, _ = generate(records(("2", ("aa",)), ("1", ("aa",)), ("0", ("ab",))), threshold=0.4)
        assert stream == Counter({("0", "1"): 1, ("0", "2"): 1, ("1", "2"): 1})


class TestCompleteness:
    @pytest.mark.parametrize("threshold", [0.1, 0.2, 0.35])
    def test_generation_reaches_every_true_pair(self, threshold, rng, generate):
        # the load-bearing guarantee: join()'s raw stream with no cap is a
        # superset of the truth on random small corpora
        from helpers import nsld_frac, rand_multiset

        for _ in range(10):
            corpus = [
                make_ts(str(i), rand_multiset(rng, max_tokens=3, max_len=6, alphabet="abc", min_tokens=1))
                for i in range(30)
            ]
            generated, _ = generate(corpus, threshold=threshold, max_token_freq=math.inf)
            t = Fraction(threshold)
            for i in range(len(corpus)):
                for j in range(i + 1, len(corpus)):
                    if nsld_frac(corpus[i].tokens, corpus[j].tokens) <= t:
                        key = tuple(sorted((corpus[i].id, corpus[j].id)))
                        assert key in generated
