import dataclasses
import gc
import math
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tokenjoin import pipeline
from tokenjoin.candidates import (
    CandidatePair,
    build_token_space,
    shared_token_candidates,
    similar_token_candidates,
    similar_token_pairs,
)
from tokenjoin.errors import ConfigError, DataError, StageError
from tokenjoin.filters import histogram_prunes, length_prunes
from tokenjoin.pipeline import (
    JoinConfig,
    JoinResult,
    _check_side_size,
    _filter_packed,
    _JoinCtx,
    _prepare_side,
    dedup_candidates,
    fnv1a_64,
    join,
    one_string_key_is_left,
    run_stage,
)
from tokenjoin.setdist import sld_capped
from tokenjoin.strdist import threshold_ratio
from tokenjoin.synth import generate_corpus
from tokenjoin.textnorm import tokenize

from conftest import make_ts, nsld_frac, rand_multiset, rand_token

# published FNV-1a 64-bit test vectors
FNV_A = 0xAF63DC4C8601EC8C
FNV_B = 0xAF63DF4C8601F1A5


def corpus_from_lines(lines, scheme="whitespace-punct"):
    return [tokenize(line, scheme, record_id=str(i)) for i, line in enumerate(lines)]


def reference_corpus():
    return corpus_from_lines(["chan kalan", "chank alan"], scheme="whitespace")


def as_tuples(results):
    return [(r.left_id, r.right_id, r.distance) for r in results]


class TestJoinConfig:
    def test_defaults_valid(self):
        JoinConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold": -0.1},
            {"threshold": 1.0},
            {"threshold": 1.5},
            {"max_token_freq": 0},
            {"max_token_freq": 2.5},
            {"matching": "psychic"},
            {"dedup": "none"},
            {"workers": 0},
            {"tokenizer": "bytes"},
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(ConfigError):
            JoinConfig(**kwargs).validate()

    def test_inf_max_freq_allowed(self):
        JoinConfig(max_token_freq=math.inf).validate()

    def test_config_echo(self):
        echo = JoinConfig(max_token_freq=math.inf).to_dict()
        assert echo["max_token_freq"] == "inf"
        assert echo["matching"] == "fuzzy"


class TestFnvDedup:
    def test_fnv1a_vectors(self):
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == FNV_A
        assert fnv1a_64(b"b") == FNV_B

    def test_key_side_rule_hand_computed(self):
        cond = 1 if FNV_A < FNV_B else 0
        parity = (FNV_A + FNV_B) % 2
        assert one_string_key_is_left(FNV_A, FNV_B) == (cond == parity)

    def test_equal_hashes_choose_left(self):
        # int(h < h) = 0 and (2h) % 2 = 0, so the left side is the key
        assert one_string_key_is_left(12345, 12345) is True

    @pytest.mark.parametrize("strategy", ["one-string", "both-strings"])
    def test_duplicates_collapse(self, strategy):
        pair = CandidatePair("1", "2", 4, 4, "shared-token")
        out = list(dedup_candidates([pair, pair, pair], strategy))
        assert out == [pair]

    def test_strategies_agree_on_random_streams(self, rng):
        ids = [str(i) for i in range(20)]
        pairs = []
        for _ in range(300):
            a, b = rng.sample(ids, 2)
            left, right = (a, b) if a < b else (b, a)
            pairs.append(CandidatePair(left, right, 3, 3, "shared-token"))
        one = {(p.left_id, p.right_id) for p in dedup_candidates(pairs, "one-string")}
        both = {(p.left_id, p.right_id) for p in dedup_candidates(pairs, "both-strings")}
        assert one == both == {(p.left_id, p.right_id) for p in pairs}

    def test_bad_strategy(self):
        with pytest.raises(ConfigError):
            list(dedup_candidates([], "sometimes"))

    @pytest.mark.parametrize("self_join", [True, False])
    def test_one_string_regrouping_keeps_the_packed_first_occurrences(self, rng, self_join):
        # both sides use the ids "0".."n-1", as the CLI's line corpora do, so
        # a two-set stream reuses every dense id on both sides
        n = 40
        ids = [str(i) for i in range(n)]
        hashes = [fnv1a_64(rid.encode("utf-8")) for rid in ids]
        for _ in range(20):
            pool = []
            while len(pool) < 30:
                left, right = rng.randrange(n), rng.randrange(n)
                if self_join and left >= right:
                    continue
                pool.append((left << 32) | right)
            raw = np.array([rng.choice(pool) for _ in range(200)], dtype=np.uint64)
            seen, first = set(), []
            for idx, packed in enumerate(raw.tolist()):
                left, right = packed >> 32, packed & 0xFFFFFFFF
                if one_string_key_is_left(hashes[left], hashes[right]):
                    group = (0, left, right)
                else:
                    group = (1, right, left)
                if group not in seen:
                    seen.add(group)
                    first.append(idx)
            assert len(first) < raw.size
            assert np.array_equal(pipeline._dedup_packed(raw), raw[first])


class TestRunStage:
    def test_identity_map_counting_reduce(self):
        out = run_stage(
            ["k", "k", "k"],
            lambda item: [(item, 1)],
            lambda key, values: [(key, len(values))],
            workers=1,
        )
        assert out == [("k", 3)]

    def test_empty_input(self):
        assert run_stage([], lambda i: [(i, i)], lambda k, v: v, workers=1) == []

    def test_worker_counts_agree(self):
        items = list(range(200))
        seq = run_stage(items, _mod7_map, _sum_reduce, workers=1)
        par = run_stage(items, _mod7_map, _sum_reduce, workers=4, stage="t")
        assert seq == par

    def test_worker_error_carries_partition_identity(self):
        with pytest.raises(StageError) as exc_info:
            run_stage(list(range(64)), _boom_map, lambda k, v: v, workers=2, stage="explode")
        assert "explode" in str(exc_info.value)
        assert "partition" in str(exc_info.value)

    def test_inline_error_wrapped(self):
        with pytest.raises(StageError):
            run_stage([1], _boom_map, lambda k, v: v, workers=1, stage="inline")


def _boom_map(i):
    if i == 13 or i == 1:
        raise RuntimeError("boom")
    return [(i, i)]


def _mod7_map(i):
    return [(i % 7, i)]


def _sum_reduce(key, values):
    yield (key, sum(values))


class TestJoinBasics:
    def test_reference_pair_found_at_point_two(self):
        res, _ = join(reference_corpus(), None, JoinConfig(threshold=0.2))
        assert as_tuples(res) == [("0", "1", 0.2)]

    def test_reference_pair_missed_at_point_one(self):
        res, _ = join(reference_corpus(), None, JoinConfig(threshold=0.1))
        assert res == []

    def test_threshold_zero_finds_identical_multisets(self):
        corpus = corpus_from_lines(["b a", "a b", "a c", "a"])
        res, _ = join(corpus, None, JoinConfig(threshold=0.0))
        assert as_tuples(res) == [("0", "1", 0.0)]

    def test_self_join_flag_must_match(self):
        with pytest.raises(ConfigError):
            join(reference_corpus(), reference_corpus(), JoinConfig(self_join=True))
        with pytest.raises(ConfigError):
            join(reference_corpus(), None, JoinConfig(self_join=False))

    def test_duplicate_ids_rejected(self):
        bad = [make_ts("1", ("a",)), make_ts("1", ("b",))]
        with pytest.raises(DataError):
            join(bad, None, JoinConfig())

    def test_empty_corpus(self):
        res, report = join([], None, JoinConfig())
        assert res == []
        assert report.stages["verify"].items_out == 0

    def test_two_set_join(self):
        left = [make_ts("L", ("chan", "kalan"))]
        right = [make_ts("R", ("chank", "alan")), make_ts("S", ("zzz",))]
        res, _ = join(left, right, JoinConfig(threshold=0.2, self_join=False))
        assert as_tuples(res) == [("L", "R", 0.2)]

    def test_empty_records_pair_together_only(self):
        corpus = corpus_from_lines(["", "chan", "", "chan"])
        res, _ = join(corpus, None, JoinConfig(threshold=0.5))
        pairs = as_tuples(res)
        assert ("0", "2", 0.0) in pairs  # the two empty records
        assert ("1", "3", 0.0) in pairs  # the two identical non-empty records
        assert len(pairs) == 2  # never empty-vs-non-empty at T < 1

    def test_shared_token_pairs_generated_once(self):
        # "aaa" is the only token in more than one record and the other tokens
        # are far apart, so every candidate comes from identical tokens
        corpus = corpus_from_lines(["aaa bbb", "aaa ccc", "aaa ddd"])
        res, report = join(corpus, None, JoinConfig(threshold=0.1))
        assert res == []
        assert report.stages["generate"].items_out == 3
        assert report.stages["dedup"].items_out == 3
        left = corpus_from_lines(["aaa bbb", "aaa ccc"])
        right = [make_ts("p", ("aaa", "ddd"))]
        _, report = join(left, right, JoinConfig(threshold=0.1, self_join=False))
        assert report.stages["generate"].items_out == 2
        assert report.stages["dedup"].items_out == 2

    def test_pool_stage_only_with_a_pool(self):
        corpus = reference_corpus()
        _, serial = join(corpus, None, JoinConfig(threshold=0.2, workers=1))
        assert "pool" not in serial.stages
        _, parallel = join(corpus, None, JoinConfig(threshold=0.2, workers=2))
        assert parallel.stages["pool"].items_in == 2
        assert parallel.stages["pool"].millis > 0

    def test_side_size_limit(self):
        # a packed pair (left << 32 | right) must stay a non-negative int64
        _check_side_size(2**31 - 1, "left")
        with pytest.raises(DataError, match="right corpus"):
            _check_side_size(2**31, "right")

    def test_join_imports_nothing_new(self):
        # lazy imports inside a join (numpy.ma behind a plain np.unique, for
        # one) are paid again by every fresh process that joins
        src = str(Path(pipeline.__file__).resolve().parents[1])
        code = f"""
import sys
sys.path.insert(0, {src!r})
import tokenjoin
before = set(sys.modules)
from tokenjoin.pipeline import JoinConfig, join
from tokenjoin.synth import generate_corpus
from tokenjoin.textnorm import tokenize
lines = generate_corpus(300, seed=3, base_tokens=60, perturb_rate=0.5, max_edits=2)
corpus = [tokenize(line, record_id=str(i)) for i, line in enumerate(lines)]
res, _ = join(corpus, None, JoinConfig(threshold=0.2))
cfg = JoinConfig(threshold=0.2, self_join=False, matching="greedy")
res2, _ = join(corpus[:150], corpus[150:], cfg)
assert res and res2
print(sorted(set(sys.modules) - before))
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("collecting", [True, False])
    def test_collector_state_restored(self, collecting):
        was = gc.isenabled()
        try:
            (gc.enable if collecting else gc.disable)()
            join(reference_corpus(), None, JoinConfig(threshold=0.2))
            assert gc.isenabled() == collecting
            with pytest.raises(DataError):
                join([make_ts("1", ("a",)), make_ts("1", ("b",))], None, JoinConfig())
            assert gc.isenabled() == collecting
        finally:
            (gc.enable if was else gc.disable)()

    def test_collector_paused_while_verifying(self, monkeypatch):
        states = []

        def spy(*args, **kwargs):
            states.append(gc.isenabled())
            return sld_capped(*args, **kwargs)

        monkeypatch.setattr(pipeline, "sld_capped", spy)
        was = gc.isenabled()
        try:
            gc.enable()
            join(reference_corpus(), None, JoinConfig(threshold=0.2, workers=1))
        finally:
            (gc.enable if was else gc.disable)()
        assert states == [False]

    def test_results_sorted_by_string_ids(self):
        recs = [
            make_ts("10", ("aa",)),
            make_ts("2", ("aa",)),
            make_ts("1", ("aa",)),
        ]
        res, _ = join(recs, None, JoinConfig(threshold=0.0))
        assert [(r.left_id, r.right_id) for r in res] == [("1", "10"), ("1", "2"), ("10", "2")]


def long_records(rng, prefix, n):
    """Records of 32+ characters, each followed by a near copy."""
    out = []
    for i in range(n):
        toks = [rand_token(rng, max_len=14, alphabet="abc") for _ in range(rng.randint(3, 6))]
        toks[0] = toks[0].ljust(32, "a")
        out.append(make_ts(f"{prefix}{2 * i}", toks))
        near = list(toks)
        j = rng.randrange(len(near))
        near[j] = near[j][1:] if rng.random() < 0.5 else near[j] + "b"
        if rng.random() < 0.3:
            near.append(rand_token(rng, max_len=3, alphabet="abc"))
        out.append(make_ts(f"{prefix}{2 * i + 1}", near))
    return out


def hist_rows(side):
    """Each record's ascending token lengths, from its tokens."""
    return [tuple(sorted(map(len, toks))) for toks in side.tokens]


def expected_hist_matrix(hists, width):
    """Right-aligned rows of each record's ``width`` largest token lengths."""
    expected = np.zeros((len(hists), width), dtype=np.int64)
    for i, lens in enumerate(hists):
        if lens:
            kept = lens[-width:]
            expected[i, width - len(kept) :] = kept
    return expected


def wide_records(rng):
    records = [make_ts(str(i), rand_multiset(rng, max_tokens=6, max_len=9)) for i in range(300)]
    return records + [make_ts("empty", ()), make_ts("wide", [rand_token(rng, max_len=12) for _ in range(2000)])]


class TestPackedFilter:
    def test_hist_matrix_matches_per_record_rows(self, rng):
        side = _prepare_side(wide_records(rng), "left")
        hists = hist_rows(side)
        assert hists[side.ids.index("empty")] == ()
        longest = max(map(len, hists))
        assert longest == 2000
        for width in (longest, longest + 3):
            expected = expected_hist_matrix(hists, width)
            got = side.hist_matrix(width)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_width_cap_keeps_every_specified_survivor(self, rng):
        records = wide_records(rng)
        wide = records[-1]
        # near copies of the wide record: one token edited, one token dropped
        records.append(make_ts("wide-edit", (wide.tokens[0] + "z",) + wide.tokens[1:]))
        records.append(make_ts("wide-drop", wide.tokens[1:]))
        side = _prepare_side(records, "left")
        hists = hist_rows(side)
        num, den = threshold_ratio(0.2)
        ctx = _JoinCtx()
        ctx.set_filter_inputs(side, side, num, den)
        n = len(side.ids)
        # three records of about 2,000 tokens among 301 short ones: the matrix is
        # capped at its cells-per-token budget and keeps the largest lengths
        width = ctx.hist_mat_left.shape[1]
        assert width == pipeline._HIST_CELLS_PER_TOKEN * sum(map(len, hists)) // n
        assert max(map(len, hists)) > width
        assert np.array_equal(ctx.hist_mat_left, expected_hist_matrix(hists, width))
        # alone, the wide records are within the budget and keep full rows
        alone = _prepare_side(records[-3:], "left")
        ctx_alone = _JoinCtx()
        ctx_alone.set_filter_inputs(alone, alone, num, den)
        assert ctx_alone.hist_mat_left.shape == (3, 2000)

        pairs = [(left << 32) | right for left in range(n) for right in range(left + 1, n)]
        survivors, stats = _filter_packed(np.array(pairs, dtype=np.uint64), ctx)

        expected, by_len = [], 0
        for packed in pairs:
            left, right = packed >> 32, packed & 0xFFFFFFFF
            la, lb = side.lens[left], side.lens[right]
            if length_prunes(la, lb, num, den):
                by_len += 1
            elif not histogram_prunes(hists[left], hists[right], la, lb, num, den):
                expected.append(packed)
        assert set(expected) <= set(survivors)
        assert stats.pruned_by_length == by_len
        wide_ids = {side.ids.index(rid) for rid in ("wide", "wide-edit", "wide-drop")}
        wide_pairs = [p for p in expected if {p >> 32, p & 0xFFFFFFFF} <= wide_ids]
        assert len(wide_pairs) == 3

    @pytest.mark.parametrize("threshold", [0.025, 0.1, 0.2])
    @pytest.mark.parametrize("self_join", [True, False])
    def test_matches_scalar_specification(self, threshold, self_join, rng):
        side_r = _prepare_side(long_records(rng, "r", 30), "left")
        side_p = side_r if self_join else _prepare_side(long_records(rng, "p", 25), "right")
        assert min(side_r.lens) > 31 and min(side_p.lens) > 31
        hists_r, hists_p = hist_rows(side_r), hist_rows(side_p)
        num, den = threshold_ratio(threshold)
        ctx = _JoinCtx()
        ctx.set_filter_inputs(side_r, side_p, num, den)
        # no record is cut by the width cap, so the counts are exact
        assert ctx.hist_mat_left.shape[1] == max(map(len, hists_r + hists_p))
        pairs = [
            (left << 32) | right
            for left in range(len(side_r.ids))
            for right in range(len(side_p.ids))
            if not self_join or left < right
        ]
        survivors, stats = _filter_packed(np.array(pairs, dtype=np.uint64), ctx)

        expected, by_len, by_hist = [], 0, 0
        for packed in pairs:
            left, right = packed >> 32, packed & 0xFFFFFFFF
            la, lb = side_r.lens[left], side_p.lens[right]
            if length_prunes(la, lb, num, den):
                by_len += 1
            elif histogram_prunes(hists_r[left], hists_p[right], la, lb, num, den):
                by_hist += 1
            else:
                expected.append(packed)
        assert survivors == expected
        assert (stats.pruned_by_length, stats.pruned_by_histogram) == (by_len, by_hist)
        assert stats.surviving == len(expected) and stats.input_pairs == len(pairs)
        assert by_hist > 0 and expected


def random_side(rng, prefix, n, vocab):
    """Records of 0-5 tokens from ``vocab``, some repeating a token."""
    out = []
    for i in range(n):
        toks = [rng.choice(vocab) for _ in range(rng.randint(0, 5))]
        if toks and rng.random() < 0.3:
            toks.append(rng.choice(toks))
        out.append(make_ts(f"{prefix}{i}", toks))
    return out


class TestCandidateStream:
    @pytest.mark.parametrize("cap", [1, 2, math.inf])
    @pytest.mark.parametrize("self_join", [True, False])
    def test_raw_stream_matches_library_twins(self, cap, self_join, rng, monkeypatch):
        streams = []
        dedup = pipeline._dedup_packed

        def spy(raw):
            streams.append(raw.copy())
            return dedup(raw)

        monkeypatch.setattr(pipeline, "_dedup_packed", spy)
        threshold = 0.3
        routes = Counter()
        for trial in range(12):
            vocab = [rand_token(rng, max_len=7, alphabet="abc") for _ in range(25)]
            # the sides share only part of the vocabulary
            corpus_r = random_side(rng, "r", rng.randint(0, 30), vocab[:20])
            corpus_p = None if self_join else random_side(rng, "p", rng.randint(0, 30), vocab[5:])
            matching = "exact-token" if trial % 4 == 3 else "fuzzy"
            cfg = JoinConfig(threshold=threshold, max_token_freq=cap, matching=matching, self_join=self_join)
            join(corpus_r, corpus_p, cfg)
            raw = streams.pop()

            both = corpus_r + (corpus_p or [])
            lengths = {rec.id: rec.agg_len for rec in both}
            dense = {rec.id: i for i, rec in enumerate(sorted(corpus_r, key=lambda r: r.id))}
            if corpus_p is not None:
                dense.update({rec.id: i for i, rec in enumerate(sorted(corpus_p, key=lambda r: r.id))})
            space_r = build_token_space(corpus_r, cap)
            space_p = space_r if self_join else build_token_space(corpus_p, cap)
            pairs = list(shared_token_candidates(space_r, space_p, self_join, lengths))
            if matching == "fuzzy":
                token_pairs = similar_token_pairs(space_r, space_p, threshold, self_join)
                pairs += similar_token_candidates(token_pairs, space_r, space_p, self_join, lengths)
            routes.update(pair.source for pair in pairs)
            expected = Counter((dense[pair.left_id] << 32) | dense[pair.right_id] for pair in pairs)
            assert Counter(raw.tolist()) == expected
            routes["repeats"] += raw.size - len(expected)
        assert routes["similar-token"]
        # under a cap of 1 every kept token sits in one record of its side
        assert (routes["shared-token"] and routes["repeats"]) or cap == 1


class TestJoinAgainstOracle:
    @pytest.mark.parametrize("threshold", [0.025, 0.1, 0.2])
    def test_fuzzy_equals_bruteforce(self, threshold):
        from tokenjoin.oracle import join_bruteforce

        lines = generate_corpus(250, seed=97, base_tokens=90, perturb_rate=0.45, max_edits=2)
        corpus = corpus_from_lines(lines)
        cfg = JoinConfig(threshold=threshold, max_token_freq=math.inf)
        engine, _ = join(corpus, None, cfg)
        oracle = join_bruteforce(corpus, None, threshold)
        assert as_tuples(engine) == list(oracle.pairs)

    def test_two_set_equals_bruteforce(self):
        from tokenjoin.oracle import join_bruteforce

        lines_r = generate_corpus(120, seed=5, base_tokens=60, perturb_rate=0.3)
        lines_p = generate_corpus(130, seed=6, base_tokens=60, perturb_rate=0.3)
        corpus_r = corpus_from_lines(lines_r)
        corpus_p = [tokenize(l, record_id=f"p{i}") for i, l in enumerate(lines_p)]
        cfg = JoinConfig(threshold=0.15, max_token_freq=math.inf, self_join=False)
        engine, _ = join(corpus_r, corpus_p, cfg)
        oracle = join_bruteforce(corpus_r, corpus_p, 0.15)
        assert as_tuples(engine) == list(oracle.pairs)


class TestSimilarTokensSkipped:
    def test_short_tokens_at_point_one_probe_nothing(self, tmp_path):
        # at T=0.1 no token of 8 or fewer characters admits an edit, so only
        # identical tokens can match and the similar-token stage has no probe
        from tokenjoin.corpusio import write_results
        from tokenjoin.oracle import join_bruteforce

        lines = generate_corpus(
            300, seed=3, base_tokens=80, min_tokens=2, max_tokens=5, perturb_rate=0.5, max_edits=1
        )
        corpus = [r for r in corpus_from_lines(lines) if all(len(t) <= 8 for t in r.tokens)]
        outputs = []
        for workers in (1, 2):
            res, report = join(corpus, None, JoinConfig(threshold=0.1, workers=workers))
            stage = report.stages["similar-tokens"]
            assert (stage.items_in, stage.items_out) == (0, 0)
            path = tmp_path / f"out{workers}.tsv"
            write_results(path, res)
            outputs.append(path.read_bytes())
        assert as_tuples(res) == list(join_bruteforce(corpus, None, 0.1).pairs)
        assert any(r.distance > 0 for r in res)
        assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def corpus():
    lines = generate_corpus(400, seed=31, base_tokens=130, perturb_rate=0.4)
    return corpus_from_lines(lines)


class TestJoinProperties:
    def test_worker_count_invariance(self, corpus):
        base = None
        for workers in (1, 2, 3):
            cfg = JoinConfig(threshold=0.15, workers=workers)
            res, _ = join(corpus, None, cfg)
            if base is None:
                base = res
            else:
                assert res == base

    def test_record_order_invariance(self, corpus):
        cfg = JoinConfig(threshold=0.15)
        res_sorted, _ = join(corpus, None, cfg)
        shuffled = list(corpus)
        random.Random(5).shuffle(shuffled)
        res_shuffled, _ = join(shuffled, None, cfg)
        assert res_sorted == res_shuffled

    def test_m_monotonicity(self, corpus):
        sizes = []
        previous = set()
        for m in (1, 5, 50, math.inf):
            cfg = JoinConfig(threshold=0.15, max_token_freq=m)
            res, _ = join(corpus, None, cfg)
            pairs = {(r.left_id, r.right_id) for r in res}
            assert previous <= pairs
            previous = pairs
            sizes.append(len(pairs))
        assert sizes == sorted(sizes)

    def test_greedy_and_exact_token_are_subsets(self, corpus):
        cfg = JoinConfig(threshold=0.2, max_token_freq=math.inf)
        fuzzy, _ = join(corpus, None, cfg)
        truth = {(r.left_id, r.right_id) for r in fuzzy}
        for matching in ("greedy", "exact-token"):
            res, _ = join(corpus, None, dataclasses.replace(cfg, matching=matching))
            got = {(r.left_id, r.right_id) for r in res}
            assert got <= truth
            # every reported distance is the true distance (precision 1.0)
            truth_dist = {(r.left_id, r.right_id): r.distance for r in fuzzy}
            for r in res:
                if matching == "exact-token":
                    assert r.distance == truth_dist[(r.left_id, r.right_id)]
                else:
                    assert r.distance >= truth_dist[(r.left_id, r.right_id)]

    def test_dedup_strategies_identical_output(self, corpus):
        cfg = JoinConfig(threshold=0.15)
        one, _ = join(corpus, None, cfg)
        both, _ = join(corpus, None, dataclasses.replace(cfg, dedup="both-strings"))
        assert one == both

    def test_filters_do_not_change_output(self, corpus):
        cfg = JoinConfig(threshold=0.15, max_token_freq=math.inf)
        on, report_on = join(corpus, None, cfg)
        off, report_off = join(corpus, None, cfg, use_filters=False)
        assert on == off
        assert report_on.filters.pruned_by_length + report_on.filters.pruned_by_histogram > 0
        assert report_off.filters.pruned_by_length == 0

    def test_report_counts_reconcile(self, corpus):
        cfg = JoinConfig(threshold=0.15)
        _, report = join(corpus, None, cfg)
        stats = report.filters
        assert stats.input_pairs == stats.pruned_by_length + stats.pruned_by_histogram + stats.surviving
        stages = report.stages
        assert stages["dedup"].items_in == stages["generate"].items_out
        assert stages["filter"].items_in == stages["dedup"].items_out
        assert stages["verify"].items_in == stages["filter"].items_out
        assert stages["filter"].items_out == stats.surviving
        payload = report.to_dict()
        assert set(payload) == {"stages", "filters"}
