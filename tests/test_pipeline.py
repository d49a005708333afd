import dataclasses
import gc
import math
import random
import subprocess
import sys
import time
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tokenjoin import pipeline, residual
from tokenjoin.errors import ConfigError, DataError, StageError
from tokenjoin.filters import length_prunes, residual_prunes
from tokenjoin.pipeline import (
    JoinConfig,
    JoinResult,
    _check_side_size,
    _prepare_side,
    dedup_candidates,
    join,
)
from tokenjoin.setdist import LdCache, drop_shared, nsld, residual_lower_bound, sld_capped, sld_greedy
from tokenjoin.strdist import ld_bounded_ids, threshold_bounds
from tokenjoin.synth import generate_corpus
from tokenjoin.textnorm import tokenize

from helpers import all_pairs_token_oracle, candidate_stream, make_ts, rand_multiset, rand_token


def corpus_from_lines(lines, scheme="whitespace-punct"):
    return [tokenize(line, scheme, record_id=str(i)) for i, line in enumerate(lines)]


def reference_corpus():
    return corpus_from_lines(["chan kalan", "chank alan"], scheme="whitespace")


def multi_block_corpus():
    """With ``residual.BLOCK_CELLS`` at 1000, verify gets more than three blocks."""
    return corpus_from_lines(generate_corpus(400, seed=37, base_tokens=120, perturb_rate=0.5, max_edits=2))


def as_tuples(results):
    return [(r.left_id, r.right_id, r.distance) for r in results]


# how many tokens each near copy of wide_near_copies' base record edits
WIDE_EDITS = (1, 2, 3, 4, 8, 30)


def wide_near_copies(rng):
    """Seven records of 50 tokens among 400 one-token records.

    The base record and one near copy per entry of ``WIDE_EDITS``, each
    editing as many tokens of its own (one letter longer), so base and copy
    differ in that many tokens and two copies in their sum.
    """
    base = [rand_token(rng, max_len=6, alphabet="abcdefgh").ljust(6, "a") for _ in range(50)]
    records = [make_ts(f"f{i:03}", (rand_token(rng, max_len=6),)) for i in range(400)]
    records.append(make_ts("w0", base))
    start = 0
    for copy, edits in enumerate(WIDE_EDITS, start=1):
        toks = list(base)
        toks[start : start + edits] = [tok + "z" for tok in toks[start : start + edits]]
        start += edits
        records.append(make_ts(f"w{copy}", toks))
    return records


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
    @pytest.mark.parametrize("strategy", ["one-string", "both-strings"])
    def test_duplicates_collapse(self, strategy):
        # "1" and "2" share three tokens, so generation emits their pair three times
        corpus = [make_ts("1", ("ab", "cd", "ef")), make_ts("2", ("ab", "cd", "ef", "gh"))]
        _, report = join(corpus, None, JoinConfig(threshold=0.5, dedup=strategy))
        assert (report.stages["dedup"].items_in, report.stages["dedup"].items_out) == (3, 1)
        packed = (1 << 32) | 2
        assert dedup_candidates(np.array([packed] * 3, dtype=np.uint64)).tolist() == [packed]

    def test_strategies_agree_on_random_streams(self, rng):
        # both strategies keep the same pairs, so join() runs one dedup for either
        counts = lambda report: {name: (c.items_in, c.items_out) for name, c in report.stages.items()}
        for _ in range(5):
            corpus = random_side(rng, "r", 30, [rand_token(rng, max_len=5, alphabet="abc") for _ in range(20)])
            one, report_one = join(corpus, None, JoinConfig(threshold=0.3, dedup="one-string"))
            both, report_both = join(corpus, None, JoinConfig(threshold=0.3, dedup="both-strings"))
            assert one == both
            assert counts(report_one) == counts(report_both)
            raw = np.array([rng.randrange(1 << 40) for _ in range(200)], dtype=np.uint64)
            raw = np.concatenate([raw, raw[:50]])
            assert dedup_candidates(raw.copy()).tolist() == sorted(set(raw.tolist()))

    def test_bad_strategy(self):
        with pytest.raises(ConfigError):
            join(reference_corpus(), None, JoinConfig(dedup="sometimes"))


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

    def test_pool_stage_only_with_a_pool(self, monkeypatch):
        # only verify forks, and only for more than one block
        corpus = reference_corpus()
        _, serial = join(corpus, None, JoinConfig(threshold=0.2, workers=1))
        assert "pool" not in serial.stages
        _, one_block = join(corpus, None, JoinConfig(threshold=0.2, workers=2))
        assert one_block.stages["verify"].items_in == 1
        assert "pool" not in one_block.stages
        monkeypatch.setattr(residual, "BLOCK_CELLS", 1000)
        _, parallel = join(multi_block_corpus(), None, JoinConfig(threshold=0.2, workers=2))
        assert parallel.stages["pool"].items_in == parallel.stages["pool"].items_out == 2
        assert parallel.stages["pool"].millis > 0

    def test_verify_time_leaves_out_the_pool(self, monkeypatch):
        # the pool's start-up and shutdown each sleep 0.3 s inside verify's span
        fork_executor = pipeline._fork_executor

        def slow_executor(workers, residuals):
            executor = fork_executor(workers, residuals)
            shutdown = executor.shutdown

            def slow_shutdown(**kwargs):
                time.sleep(0.3)
                shutdown(**kwargs)

            executor.shutdown = slow_shutdown
            time.sleep(0.3)
            return executor

        monkeypatch.setattr(residual, "BLOCK_CELLS", 1000)
        monkeypatch.setattr(pipeline, "_fork_executor", slow_executor)
        _, report = join(multi_block_corpus(), None, JoinConfig(threshold=0.2, workers=2))
        pool, verify = report.stages["pool"], report.stages["verify"]
        assert pool.millis >= 600 > verify.millis
        assert verify.cpu_ms >= 0

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

    @pytest.mark.parametrize("matching, wide", [("fuzzy", False), ("greedy", False), ("fuzzy", True)])
    def test_collector_paused_while_verifying(self, monkeypatch, rng, matching, wide):
        # the reference pair has two residual tokens a side: its four token
        # pairs go to the batched kernel in one call; the wide records'
        # pairs go with the other pairs of their block
        states = []

        def spy(*args, **kwargs):
            states.append(gc.isenabled())
            return ld_bounded_ids(*args, **kwargs)

        monkeypatch.setattr(residual, "ld_bounded_ids", spy)
        was = gc.isenabled()
        try:
            gc.enable()
            corpus = wide_near_copies(rng) if wide else reference_corpus()
            _, report = join(corpus, None, JoinConfig(threshold=0.2, matching=matching, workers=1))
        finally:
            (gc.enable if was else gc.disable)()
        assert states == [False] * len(states) and len(states) == 1

    def test_results_sorted_by_string_ids(self):
        recs = [
            make_ts("10", ("aa",)),
            make_ts("2", ("aa",)),
            make_ts("1", ("aa",)),
        ]
        res, _ = join(recs, None, JoinConfig(threshold=0.0))
        assert [(r.left_id, r.right_id) for r in res] == [("1", "10"), ("1", "2"), ("10", "2")]


def long_records(rng, prefix, n):
    """Records of 32+ characters, each followed by a near copy.

    Some records repeat a token, and the near copy keeps or drops a copy.
    """
    out = []
    for i in range(n):
        toks = [rand_token(rng, max_len=14, alphabet="abc") for _ in range(rng.randint(3, 6))]
        toks[0] = toks[0].ljust(32, "a")
        if rng.random() < 0.3:
            toks.append(rng.choice(toks))
        out.append(make_ts(f"{prefix}{2 * i}", toks))
        near = list(toks)
        j = rng.randrange(len(near))
        near[j] = near[j][1:] if rng.random() < 0.5 else near[j] + "b"
        if rng.random() < 0.3:
            near.append(rand_token(rng, max_len=3, alphabet="abc"))
        out.append(make_ts(f"{prefix}{2 * i + 1}", near))
    return out


def residual_rows(side_r, side_p, threshold, greedy=False):
    """The residual rows of the two prepared sides, and the interned vocabulary as token -> id."""
    table, ids_r, ids_p, _, _ = pipeline._index(side_r, side_p, math.inf)
    bounds = threshold_bounds(threshold, int(max(side_r.lens.max(initial=0), side_p.lens.max(initial=0))))
    res = residual.Residuals(side_r, side_p, ids_r, ids_p, table, bounds, greedy=greedy)
    return res, {table.token(t): t for t in range(table.lens.size)}, bounds.num, bounds.den


def expected_residual_keys(side, vocab):
    """The token keys of each record, in record order, record after record."""
    return [(vocab[tok] << 32) | toks[:col].count(tok) for toks in side.tokens for col, tok in enumerate(toks)]


def wide_records(rng):
    records = [make_ts(str(i), rand_multiset(rng, max_tokens=6, max_len=9)) for i in range(300)]
    return records + [make_ts("empty", ()), make_ts("wide", [rand_token(rng, max_len=12) for _ in range(2000)])]


def specified_survivors(pairs, side_r, side_p, num, den):
    """The scalar specification of the filter: the pairs it keeps, prunes by length and prunes by residual."""
    expected, by_len, by_res = [], [], []
    for packed in pairs:
        left, right = packed >> 32, packed & 0xFFFFFFFF
        la, lb = int(side_r.lens[left]), int(side_p.lens[right])
        if length_prunes(la, lb, num, den):
            by_len.append(packed)
        elif residual_prunes(side_r.tokens[left], side_p.tokens[right], la, lb, num, den):
            by_res.append(packed)
        else:
            expected.append(packed)
    return expected, by_len, by_res


def bound_rejects(pairs, res):
    """The pairs that verify's residual bound rejects, each verified as a block of its own."""
    one = np.empty(1, dtype=np.int64)
    rejected = []
    for packed in pairs.tolist():
        one[0] = packed
        if residual.verify_block(one, res)[2].residual_rejects:
            rejected.append(packed)
    return rejected


def joinable_pairs(side_r, side_p, self_join):
    """Every packed pair of the two sides that has a token (the join pairs token-less records apart)."""
    return np.array(
        [
            (left << 32) | right
            for left in range(len(side_r.ids))
            for right in range(left + 1 if self_join else 0, len(side_p.ids))
            if side_r.tokens[left] or side_p.tokens[right]
        ],
        dtype=np.int64,
    )


class TestPackedFilter:
    def test_residual_matrices_match_per_record_rows(self, rng):
        records = wide_records(rng)
        records += [make_ts("repeats", ("ab", "c", "ab", "zz", "ab")), make_ts("blank", ("ab", ""))]
        side = _prepare_side(records, "left")
        res, vocab, _, _ = residual_rows(side, side, 0.1)
        assert res.keys_left.tolist() == expected_residual_keys(side, vocab)
        assert res.table.lens.tolist() == [len(tok) for tok in vocab]
        assert res.keys_right is res.keys_left

        def keys_of(rid):
            i = side.ids.index(rid)
            return res.keys_left[res.offsets_left[i] : res.offsets_left[i] + res.counts_left[i]].tolist()

        # the keys hold the empty token and every token of the 2,000-token record
        assert keys_of("blank") == [vocab["ab"] << 32, vocab[""] << 32]
        assert len(keys_of("wide")) == 2000
        # copies are ranked in record order
        ab, c, zz = (vocab[tok] << 32 for tok in ("ab", "c", "zz"))
        assert keys_of("repeats") == [ab, c, ab | 1, zz, ab | 2]

    def test_width_cap_keeps_every_specified_survivor(self, rng):
        records = wide_records(rng)
        wide = records[-1]
        # near copies of the wide record: one token edited, one token dropped
        records.append(make_ts("wide-edit", (wide.tokens[0] + "z",) + wide.tokens[1:]))
        records.append(make_ts("wide-drop", wide.tokens[1:]))
        side = _prepare_side(records, "left")
        res, _, num, den = residual_rows(side, side, 0.2)
        # three records of about 2,000 tokens among 301 short ones
        wide_ids = {side.ids.index(rid) for rid in ("wide", "wide-edit", "wide-drop")}

        pairs = joinable_pairs(side, side, True)
        survivors = residual.length_survivors(pairs, res)
        expected, by_len, by_res = specified_survivors(pairs.tolist(), side, side, num, den)
        assert sorted(set(pairs.tolist()) - set(survivors.tolist())) == by_len
        wide_pairs = [p for p in expected if {p >> 32, p & 0xFFFFFFFF} <= wide_ids]
        assert len(wide_pairs) == 3
        # verify's residual bound rejects every specified prune, those of the
        # wide records included
        stats = residual.verify_block(survivors, res)[2]
        assert stats.residual_rejects == len(by_res)
        wide_survivors = [p for p in survivors.tolist() if {p >> 32, p & 0xFFFFFFFF} & wide_ids]
        assert set(wide_pairs) <= set(wide_survivors)
        wide_rejects = [p for p in by_res if {p >> 32, p & 0xFFFFFFFF} & wide_ids]
        assert bound_rejects(np.array(wide_survivors, dtype=np.int64), res) == wide_rejects

    @pytest.mark.parametrize("threshold", [0.025, 0.1, 0.2])
    @pytest.mark.parametrize("self_join", [True, False])
    def test_matches_scalar_specification(self, threshold, self_join, rng):
        # repeated tokens (long_records), an empty record and a record with
        # an empty token, which TokenizedString.from_tokens allows and the
        # bound counts as padding: one partner of that record is within
        # every threshold, and one is pruned by the bound, not by length
        blank_partners = [make_ts("blank-near", ("a" * 39 + "b",)), make_ts("blank-split", ("b" * 20, "c" * 20))]
        extra = [make_ts("empty", ()), make_ts("blank", ("", "a" * 40))] + blank_partners
        side_r = _prepare_side(long_records(rng, "r", 30) + extra, "left")
        side_p = side_r if self_join else _prepare_side(long_records(rng, "p", 25) + extra, "right")
        res, _, num, den = residual_rows(side_r, side_p, threshold)
        pairs = joinable_pairs(side_r, side_p, self_join)
        survivors = residual.length_survivors(pairs, res)

        expected, by_len, by_res = specified_survivors(pairs.tolist(), side_r, side_p, num, den)
        assert survivors.tolist() == sorted(expected + by_res)
        assert pairs.size - survivors.size == len(by_len)
        assert bound_rejects(survivors, res) == by_res
        assert by_res and expected
        blank = side_r.ids.index("blank")
        assert any(p >> 32 == blank for p in expected) and any(p >> 32 == blank for p in by_res)


def random_side(rng, prefix, n, vocab):
    """Records of 0-5 tokens from ``vocab``, some repeating a token."""
    out = []
    for i in range(n):
        toks = [rng.choice(vocab) for _ in range(rng.randint(0, 5))]
        if toks and rng.random() < 0.3:
            toks.append(rng.choice(toks))
        out.append(make_ts(f"{prefix}{i}", toks))
    return out


def stream_features(corpus_r, corpus_p, threshold, cap):
    """Which of the generate stage's special cases the corpora reach, from plain sets."""
    self_join = corpus_p is None
    sides = [sorted(corpus, key=lambda rec: rec.id) for corpus in ([corpus_r] if self_join else [corpus_r, corpus_p])]
    kept = []
    for side in sides:
        freq = Counter(tok for rec in side for tok in set(rec.tokens))
        kept.append([{tok for tok in rec.tokens if freq[tok] <= cap} for rec in side])
    features = set()
    if any(rec.tokens.count(tok) > 1 for side, sets in zip(sides, kept) for rec, toks in zip(side, sets) for tok in toks):
        features.add("repeat")
    if any(len(set().union(*sets)) < len({tok for rec in side for tok in rec.tokens}) for side, sets in zip(sides, kept)):
        features.add("capped")
    if self_join:
        sets = kept[0]
        vocab = set().union(*sets)
        for x, y in all_pairs_token_oracle(vocab, vocab, threshold):
            if (len(x), x) > (len(y), y):
                continue
            holders_x = [i for i, toks in enumerate(sets) if x in toks]
            holders_y = [i for i, toks in enumerate(sets) if y in toks]
            # generate expands (x, y) as (holder of x, holder of y) and orders it
            if any(a > b for a in holders_x for b in holders_y):
                features.add("swap")
            if set(holders_x) & set(holders_y):
                features.add("both")
    return features


class TestCandidateStream:
    @pytest.mark.parametrize("cap", [1, 2, math.inf])
    @pytest.mark.parametrize("self_join", [True, False])
    def test_raw_stream_matches_library_twins(self, cap, self_join, rng, monkeypatch):
        # join()'s raw stream, copies included, equals the brute-force stream
        streams = []
        dedup = pipeline.dedup_candidates

        def spy(raw):
            streams.append(raw.copy())
            return dedup(raw)

        monkeypatch.setattr(pipeline, "dedup_candidates", spy)
        threshold = 0.3
        reached = Counter()
        for trial in range(12):
            vocab = [rand_token(rng, max_len=7, alphabet="abc") for _ in range(25)]
            # the sides share only part of the vocabulary
            corpus_r = random_side(rng, "r", rng.randint(0, 30), vocab[:20])
            corpus_p = None if self_join else random_side(rng, "p", rng.randint(0, 30), vocab[5:])
            matching = "exact-token" if trial % 4 == 3 else "fuzzy"
            cfg = JoinConfig(threshold=threshold, max_token_freq=cap, matching=matching, self_join=self_join)
            join(corpus_r, corpus_p, cfg)
            expected = candidate_stream(corpus_r, corpus_p, threshold, cap, similar=matching == "fuzzy")
            assert Counter(streams.pop().tolist()) == expected
            reached.update(stream_features(corpus_r, corpus_p, threshold, cap))
            reached["copies"] += sum(expected.values()) - len(expected)
            reached["similar"] += expected != candidate_stream(corpus_r, corpus_p, threshold, cap, similar=False)
        assert reached["similar"] and reached["repeat"]
        # under a cap of 1 every kept token sits in one record of its side
        assert reached["copies"] or cap == 1
        assert reached["capped"] or cap == math.inf
        if self_join:
            # under a cap of 1 a record rarely keeps two similar tokens
            assert reached["swap"] and (reached["both"] or cap == 1)


def finalize_cases():
    """(left corpus, right corpus or None, threshold) of four joins whose rows finalize builds differently."""
    mixed = corpus_from_lines(["chan kalan", "", "chank alan", "", "chan kalan", "zzz"])
    left = [make_ts("L0", ()), make_ts("L1", ("chan", "kalan")), make_ts("L2", ("",))]
    right = [make_ts("R0", ("chank", "alan")), make_ts("R1", ()), make_ts("R2", ("", "")), make_ts("R3", ("zzz",))]
    return {
        "empty-pairs-between-verified": (mixed, None, 0.2),
        "two-set-empties-on-both-sides": (left, right, 0.2),
        "one-result": (reference_corpus(), None, 0.2),
        "no-result": (reference_corpus(), None, 0.1),
    }


class TestFinalize:
    @pytest.mark.parametrize("case", list(finalize_cases()))
    def test_rows_equal_the_oracle_in_order(self, case):
        from tokenjoin.oracle import join_bruteforce

        corpus_r, corpus_p, threshold = finalize_cases()[case]
        cfg = JoinConfig(threshold=threshold, self_join=corpus_p is None)
        res, report = join(corpus_r, corpus_p, cfg)
        assert res == list(join_bruteforce(corpus_r, corpus_p, threshold).pairs)
        assert all(type(row) is JoinResult for row in res)
        assert report.stages["finalize"].items_out == len(res)
        want = {
            "empty-pairs-between-verified": [("0", "2"), ("0", "4"), ("1", "3"), ("2", "4")],
            "two-set-empties-on-both-sides": [("L0", "R1"), ("L0", "R2"), ("L1", "R0"), ("L2", "R1"), ("L2", "R2")],
            "one-result": [("0", "1")],
            "no-result": [],
        }[case]
        assert [(row.left_id, row.right_id) for row in res] == want


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

    def test_threshold_just_below_one(self, rng):
        # at T = 1 − 2**-53 the partner ceiling's quotient l·den // (den − num)
        # passes 2**63 long before a 2,000-character record's length
        from tokenjoin.oracle import join_bruteforce

        threshold = 1 - 2**-53
        wide = ["".join(rng.choice("abcde") for _ in range(10)) for _ in range(200)]
        corpus = [make_ts("0", wide), make_ts("1", ("abcde", "ab")), make_ts("2", ("bcd",))]
        engine, _ = join(corpus, None, JoinConfig(threshold=threshold, max_token_freq=math.inf))
        assert as_tuples(engine) == list(join_bruteforce(corpus, None, threshold).pairs)

    @pytest.mark.parametrize("matching", ["fuzzy", "greedy"])
    def test_join_runs_the_id_kernel_only(self, matching):
        # both callers of the id kernel run and the output is exact (greedy
        # matching finds every true pair of this corpus)
        from tokenjoin.oracle import join_bruteforce

        lines = generate_corpus(250, seed=97, base_tokens=90, perturb_rate=0.45, max_edits=2)
        corpus = corpus_from_lines(lines)
        for corpus_r, corpus_p in ((corpus, None), (corpus[:120], corpus[120:])):
            cfg = JoinConfig(threshold=0.2, max_token_freq=math.inf, matching=matching, self_join=corpus_p is None)
            engine, report = join(corpus_r, corpus_p, cfg)
            assert report.similar.ld_checks and report.verify.kernel_token_pairs
            assert as_tuples(engine) == list(join_bruteforce(corpus_r, corpus_p, 0.2).pairs)

    @pytest.mark.parametrize("self_join", [True, False])
    def test_records_of_length_zero(self, self_join, rng):
        # TokenizedString.from_tokens allows empty tokens: a record of them
        # all has aggregate length 0 like a token-less one, and a pair of two
        # such records must not reach verify's 2·cost / (total + cost)
        from tokenjoin.oracle import join_bruteforce

        def side(prefix):
            shapes = [(), ("",), ("", ""), ("", "a"), ("a",), ("ab", ""), ("ab", "b")]
            records = [make_ts(f"{prefix}{i}", shape) for i, shape in enumerate(shapes)]
            for i in range(len(shapes), 40):
                tokens = [rng.choice(["", "", "a", "ab", "abc", "abd", "bcd"]) for _ in range(rng.randint(0, 3))]
                records.append(make_ts(f"{prefix}{i}", tokens))
            return records

        corpus_r = side("r")
        corpus_p = None if self_join else side("p")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if self_join:
                frozen = [make_ts(str(i), tokens) for i, tokens in enumerate([("",), ("",), ("", ""), ()])]
                res, _ = join(frozen, None, JoinConfig(threshold=0.1))
                assert as_tuples(res) == [(str(i), str(j), 0.0) for i in range(4) for j in range(i + 1, 4)]
            for threshold in (0.0, 0.1, 0.4):
                oracle = list(join_bruteforce(corpus_r, corpus_p, threshold).pairs)
                assert oracle
                for use_filters in (True, False):
                    cfg = JoinConfig(threshold=threshold, max_token_freq=math.inf, self_join=self_join)
                    engine, _ = join(corpus_r, corpus_p, cfg, use_filters=use_filters)
                    assert as_tuples(engine) == oracle


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
        # every key of the report, at every level
        assert set(payload) == {"stages", "similar", "filters", "verify"}
        assert list(payload["stages"]) == [
            "prepare", "index", "similar-tokens", "generate", "dedup", "filter", "verify", "finalize"
        ]
        for counts in payload["stages"].values():
            assert set(counts) == {"items_in", "items_out", "millis", "cpu_ms"}
        assert set(payload["similar"]) == {
            "probes", "probe_keys", "candidates", "ld_checks", "ld_kernel_runs", "pairs", "index_ms"
        }
        assert set(payload["filters"]) == {"input_pairs", "pruned_by_length", "pruned_by_histogram", "surviving"}
        assert set(payload["verify"]) == {
            "pairs_by_k", "residual_rejects", "kernel_cells", "kernel_token_pairs", "kernel_runs"
        }
        assert dataclasses.replace(cfg, max_token_freq=math.inf).to_dict() == {
            "threshold": 0.15,
            "max_token_freq": "inf",
            "matching": "fuzzy",
            "dedup": "one-string",
            "self_join": True,
            "workers": 1,
            "tokenizer": "whitespace-punct",
        }
        similar = payload["similar"]
        assert similar["probes"] == stages["similar-tokens"].items_in
        assert similar["pairs"] == stages["similar-tokens"].items_out > 0
        assert similar["probe_keys"] >= similar["probes"]
        assert similar["candidates"] >= similar["ld_checks"] >= similar["pairs"]
        # the kernel runs the checks that lengths, caps and signatures leave open
        assert similar["ld_checks"] > similar["ld_kernel_runs"] > 0
        assert 0 <= similar["index_ms"] <= stages["similar-tokens"].millis
        assert all(payload["stages"][name]["cpu_ms"] >= 0 for name in stages)
        _, report_exact = join(corpus, None, JoinConfig(threshold=0.15, matching="exact-token"))
        assert set(report_exact.to_dict()["similar"].values()) == {0}
        verify = payload["verify"]
        assert list(verify["pairs_by_k"]) == ["0", "1", "2", "3", "4", "5+"]
        assert sum(verify["pairs_by_k"].values()) + verify["residual_rejects"] == stages["verify"].items_in
        # with the filter stage on, the bound's rejects are the filter's
        assert verify["residual_rejects"] == 0 < stats.pruned_by_histogram
        assert verify["pairs_by_k"]["0"] and verify["pairs_by_k"]["1"] and verify["pairs_by_k"]["2"]
        assert 0 < verify["kernel_token_pairs"] < verify["kernel_cells"]
        assert 0 < verify["kernel_runs"] < verify["kernel_token_pairs"]
        _, report_off = join(corpus, None, cfg, use_filters=False)
        off = report_off.to_dict()["verify"]
        assert sum(off["pairs_by_k"].values()) + off["residual_rejects"] == report_off.stages["verify"].items_in
        assert off["residual_rejects"] > 0


def verify_corpus(rng, n=120):
    """Records of 0-7 tokens over a small vocabulary, with repeats, one record
    with an empty token and one record of 200 tokens."""
    vocab = [rand_token(rng, max_len=6, alphabet="abc") for _ in range(40)]
    records = []
    for i in range(n):
        toks = [rng.choice(vocab) for _ in range(rng.randint(0, 7))]
        if toks and rng.random() < 0.3:
            toks.append(rng.choice(toks))
        records.append(make_ts(str(i), toks))
    records.append(make_ts("blank", ("", vocab[0], vocab[1])))
    records.append(make_ts("wide", [rng.choice(vocab) for _ in range(200)]))
    return records


def greedy_corpus(rng):
    """Records sorted by id with repeated tokens, copies in another token order, empty tokens and wide records.

    Greedy ties follow token order: ``a2`` holds ``a1``'s tokens in another
    order and is not within 0.3 of ``b``, while ``a1`` is. The three wide
    records hold 24 tokens, the others at most 6.
    """
    vocab = [rand_token(rng, max_len=4, alphabet="ab") for _ in range(25)]
    records = []
    for i in range(80):
        toks = [rng.choice(vocab) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            toks.append(rng.choice(toks))
        if rng.random() < 0.1:
            toks.insert(rng.randrange(len(toks)), "")
        records.append(make_ts(f"r{i:02}", toks))
        if rng.random() < 0.3:
            records.append(make_ts(f"s{i:02}", rng.sample(toks, len(toks))))
    wide = [rng.choice(vocab) + "b" for _ in range(24)]
    edited = [tok + "a" if j % 12 == 0 else tok for j, tok in enumerate(wide)]
    records += [make_ts("w0", wide), make_ts("w1", edited), make_ts("w2", rng.sample(edited, 24))]
    records += [make_ts("a1", ("baa", "b", "ab", "zzzzzz")), make_ts("a2", ("baa", "ab", "b", "zzzzzz"))]
    records.append(make_ts("b", ("bab", "a", "aabb", "zzzzzz")))
    return sorted(records, key=lambda rec: rec.id)


class TestVerify:
    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize("threshold", [0.2, 0.5])
    def test_every_pair_matches_sld_capped(self, rng, greedy, threshold):
        side = _prepare_side(verify_corpus(rng), "left")
        res, _, num, den = residual_rows(side, side, threshold, greedy)
        pairs = joinable_pairs(side, side, True)
        packed, dists, stats = residual.verify_block(pairs, res)
        accepted = list(zip(packed.tolist(), dists.tolist()))

        expected = []
        by_k, rejects = [0] * 6, 0
        for packed in pairs.tolist():
            a, b = packed >> 32, packed & 0xFFFFFFFF
            total = int(side.lens[a] + side.lens[b])
            cap = num * total // (2 * den - num)
            rest_a, rest_b = drop_shared(side.tokens[a], side.tokens[b])
            if residual_lower_bound(rest_a, rest_b) > cap:
                rejects += 1
            else:
                by_k[min(max(len(rest_a), len(rest_b)), 5)] += 1
            s = sld_capped(side.tokens[a], side.tokens[b], cap, greedy=greedy, ld_cache=LdCache())
            if s is not None:
                expected.append((packed, (2.0 * s) / (total + s)))
        assert accepted == expected
        # every pair, the wide record's and the empty token's included, is
        # counted by the same bound and the same k
        assert (stats.pairs_by_k, stats.residual_rejects) == (by_k, rejects)
        assert rejects > 0 and by_k[5] > 0
        assert 0 < stats.kernel_token_pairs <= stats.kernel_cells
        assert 0 < stats.kernel_runs <= stats.kernel_token_pairs

    def test_greedy_breaks_ties_in_record_order(self):
        # a1 and a2 hold the same tokens in different orders, and greedy
        # ties follow the order (TestSldGreedy::test_total_depends_on_token_order),
        # which the residual rows keep
        a1 = make_ts("a1", ("baa", "b", "ab", "zzzzzz"))
        a2 = make_ts("a2", ("baa", "ab", "b", "zzzzzz"))
        b = make_ts("b", ("bab", "a", "aabb", "zzzzzz"))
        both = [("a1", "a2", 0.0), ("a1", "b", 8 / 30)]
        for matching, want in (("greedy", both), ("fuzzy", both + [("a2", "b", 8 / 30)])):
            res, report = join([b, a2, a1], None, JoinConfig(threshold=0.3, matching=matching, workers=1))
            assert as_tuples(res) == want
            assert report.verify.pairs_by_k[3] == 2

    def test_greedy_join_equals_bruteforce(self, monkeypatch, rng):
        corpus = greedy_corpus(rng)
        threshold = Fraction(0.3)
        within = []
        for i, a in enumerate(corpus):
            for b in corpus[i + 1 :]:
                s = sld_greedy(a, b).sld
                if s == 0 or Fraction(2 * s, a.agg_len + b.agg_len + s) <= threshold:
                    within.append((a.id, b.id, nsld(a, b, "greedy")))
        exact = as_tuples(join(corpus, None, JoinConfig(threshold=0.3, max_token_freq=math.inf))[0])
        # greedy loses pairs the exact matching keeps, by token order too
        assert set(within) < set(exact) and ("a1", "b", 8 / 30) in within and ("a2", "b", 8 / 30) not in within
        cfg = JoinConfig(threshold=0.3, max_token_freq=math.inf, matching="greedy")
        monkeypatch.setattr(residual, "BLOCK_CELLS", 2000)
        for workers in (1, 2):
            for use_filters in (True, False):
                res, report = join(corpus, None, dataclasses.replace(cfg, workers=workers), use_filters=use_filters)
                assert as_tuples(res) == within
                assert report.verify.pairs_by_k[5] > 0

    @pytest.mark.parametrize("matching", ["fuzzy", "greedy"])
    def test_wide_pairs_come_in_bounded_chunks(self, monkeypatch, rng, matching):
        corpus = wide_near_copies(rng)
        cfg = JoinConfig(threshold=0.2, matching=matching, workers=1)
        whole, _ = join(corpus, None, cfg)
        shapes, block_cells = [], []

        def cells_spy(keys_l, keys_r, *args):
            # every pair of a call is as wide as its larger record
            rows, width = keys_l.shape
            assert keys_r.shape == (rows, width)
            assert np.all(np.maximum((keys_l >= 0).sum(axis=1), (keys_r >= 0).sum(axis=1)) == width)
            shapes.append((rows, width))
            return residual_cells(keys_l, keys_r, *args)

        def block_spy(block, res):
            li, ri = block >> 32, block & 0xFFFFFFFF
            widths = np.maximum(res.counts_left[li], res.counts_right[ri])
            block_cells.append((block.size, int((widths * widths).sum())))
            return verify_block(block, res)

        residual_cells, verify_block = residual._residual_cells, pipeline.verify_block
        monkeypatch.setattr(residual, "_residual_cells", cells_spy)
        monkeypatch.setattr(pipeline, "verify_block", block_spy)
        # a wide pair needs 2,500 cells: at 1,000 cells it runs alone, at
        # 6,000 two run together
        for cells, wide_rows in ((1000, 1), (6000, 2)):
            monkeypatch.setattr(residual, "BLOCK_CELLS", cells)
            shapes.clear()
            block_cells.clear()
            res, report = join(corpus, None, cfg)
            assert res == whole
            assert all(rows == 1 or rows * width**2 <= cells for rows, width in shapes)
            assert all(pairs == 1 or used <= cells for pairs, used in block_cells)
            assert len(block_cells) > 1
            assert max(rows for rows, width in shapes if width == 50) == wide_rows
            assert sum(rows for rows, width in shapes if width == 50) == 21
        # every pair of two wide records is within the threshold, at its own cost
        by_id = {rec.id: rec for rec in corpus}
        wide = [(left, right, dist) for left, right, dist in as_tuples(res) if left[0] == right[0] == "w"]
        assert len(wide) == 21
        mode = "exact" if matching == "fuzzy" else "greedy"
        assert all(dist == nsld(by_id[left], by_id[right], mode) for left, right, dist in wide)

    @pytest.mark.parametrize("matching", ["fuzzy", "greedy"])
    def test_wide_pair_runs_alone_within_budget(self, monkeypatch, rng, matching):
        # two records of 2,000 distinct 8-letter tokens, the second a copy
        # with j tokens each changed by one substitution, so SLD = j
        j = 10
        letters = "abcdefghijklmnopqrstuvwxyz"
        base = set()
        while len(base) < 2000:
            base.add("".join(rng.choice(letters) for _ in range(8)))
        base = sorted(base)
        copy = list(base)
        for pos in rng.sample(range(2000), j):
            at = rng.randrange(8)
            tok = base[pos]
            copy[pos] = tok[:at] + rng.choice(letters.replace(tok[at], "")) + tok[at + 1 :]
        assert len(set(base) | set(copy)) == 2000 + j
        corpus = [make_ts(f"s{i:03}", rand_multiset(rng, max_tokens=3, max_len=6, min_tokens=1)) for i in range(400)]
        corpus += [make_ts("wide-a", base), make_ts("wide-b", copy)]
        want = [("wide-a", "wide-b", 2 * j / (8 * 2000 + 8 * 2000 + j))]
        shapes = []

        def spy(keys_l, keys_r, *args):
            shapes.append(keys_l.shape)
            return residual_cells(keys_l, keys_r, *args)

        residual_cells = residual._residual_cells
        monkeypatch.setattr(residual, "_residual_cells", spy)
        t0 = time.perf_counter()
        for workers in (1, 2):
            res, report = join(corpus, None, JoinConfig(threshold=0.1, matching=matching, workers=workers))
            assert [row for row in as_tuples(res) if row[0].startswith("wide")] == want
            assert report.verify.pairs_by_k[5] == 1
            assert ("pool" in report.stages) == (workers == 2)
        elapsed = time.perf_counter() - t0
        # the pool's calls are in its workers; at workers 1 the wide pair's
        # call holds that pair alone
        assert [shape for shape in shapes if shape[1] == 2000] == [(1, 2000)]
        # both joins took about 0.15 s on a 2-core host
        assert elapsed < 5.0

    def test_pooled_blocks_match_one_block(self, monkeypatch):
        corpus = multi_block_corpus()
        cfg = JoinConfig(threshold=0.2)
        one, report_one = join(corpus, None, cfg)
        # records of two tokens or more: at most 250 pairs per verify block,
        # each of which applies the residual bound
        monkeypatch.setattr(residual, "BLOCK_CELLS", 1000)
        assert report_one.stages["verify"].items_in > 3 * 250
        for workers in (1, 2):
            res, report = join(corpus, None, dataclasses.replace(cfg, workers=workers))
            assert res == one
            # token pairs are deduplicated within a block, so only their counts move
            got, want = report.to_dict()["verify"], report_one.to_dict()["verify"]
            assert got.pop("kernel_token_pairs") > want.pop("kernel_token_pairs")
            assert got.pop("kernel_runs") >= want.pop("kernel_runs")
            assert got == want
            assert report.filters == report_one.filters
            assert report.filters.pruned_by_histogram > 0
            assert ("pool" in report.stages) == (workers == 2)


class TestVerifyFailsFast:
    def test_a_dying_worker_raises_stage_error(self):
        src = str(Path(pipeline.__file__).resolve().parents[1])
        code = f"""
import os, sys
sys.path.insert(0, {src!r})
from tokenjoin import pipeline, residual
from tokenjoin.errors import StageError
from tokenjoin.pipeline import JoinConfig, join
from tokenjoin.synth import generate_corpus
from tokenjoin.textnorm import tokenize

parent = os.getpid()
verify_block = pipeline.verify_block

def dying(block, res):
    if os.getpid() != parent:
        os._exit(3)
    return verify_block(block, res)

residual.BLOCK_CELLS = 1000
pipeline.verify_block = dying
lines = generate_corpus(400, seed=37, base_tokens=120, perturb_rate=0.5, max_edits=2)
corpus = [tokenize(line, record_id=str(i)) for i, line in enumerate(lines)]
try:
    join(corpus, None, JoinConfig(threshold=0.2, workers=2))
except StageError as exc:
    print(exc.stage, exc)
    sys.exit(7)
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert out.returncode == 7, out.stderr
        assert out.stdout.startswith("verify ")
        assert "BrokenProcessPool" in out.stdout

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raising_block_raises_stage_error(self, workers, monkeypatch):
        def boom(block, res):
            raise RuntimeError("boom")

        monkeypatch.setattr(residual, "BLOCK_CELLS", 1000)
        monkeypatch.setattr(pipeline, "verify_block", boom)
        with pytest.raises(StageError) as exc_info:
            join(multi_block_corpus(), None, JoinConfig(threshold=0.2, workers=workers))
        assert exc_info.value.stage == "verify"
        assert exc_info.value.partition == 0
        assert "RuntimeError: boom" in str(exc_info.value)

    def test_without_fork_verify_runs_inline(self, monkeypatch):
        import multiprocessing

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(residual, "BLOCK_CELLS", 1000)
        corpus = multi_block_corpus()
        cfg = JoinConfig(threshold=0.2)
        one, report_one = join(corpus, None, cfg)
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        two, report_two = join(corpus, None, dataclasses.replace(cfg, workers=2))
        assert two == one
        assert "pool" not in report_two.stages
        counts = lambda report: {name: (c.items_in, c.items_out) for name, c in report.stages.items()}
        assert counts(report_two) == counts(report_one)
        assert report_two.filters == report_one.filters
        assert report_two.verify == report_one.verify


def similar_token_corpus(rng, prefix, n, vocab):
    return [make_ts(f"{prefix}{i}", rng.sample(vocab, rng.randint(1, 4))) for i in range(n)]


class TestSimilarTokenCounts:
    @pytest.mark.parametrize("threshold", [0.1, 0.2, 0.3])
    @pytest.mark.parametrize("self_join", [True, False])
    def test_probe_counts_match_the_specification(self, threshold, self_join, rng):
        # tokens of 10-16 characters and variants with one or two substitutions:
        # an equal-length similar pair is found from both of its tokens
        base = ["".join(rng.choice("abcd") for _ in range(rng.randint(10, 16))) for _ in range(30)]
        vocab = list(base)
        for tok in base:
            for edits in (1, 2):
                chars = list(tok)
                for pos in rng.sample(range(len(chars)), edits):
                    chars[pos] = "e"
                vocab.append("".join(chars))
        corpus_r = similar_token_corpus(rng, "r", 60, vocab)
        corpus_p = None if self_join else similar_token_corpus(rng, "p", 60, vocab)
        tokens_r = {tok for rec in corpus_r for tok in rec.tokens}
        tokens_p = tokens_r if self_join else {tok for rec in corpus_p for tok in rec.tokens}
        spec = all_pairs_token_oracle(tokens_r, tokens_p, threshold)
        if self_join:
            spec = {(x, y) for x, y in spec if (len(x), x) < (len(y), y)}
        assert any(len(x) == len(y) for x, y in spec)
        counts = []
        for workers in (1, 2):
            cfg = JoinConfig(threshold=threshold, max_token_freq=math.inf, self_join=self_join, workers=workers)
            _, report = join(corpus_r, corpus_p, cfg)
            stage = report.stages["similar-tokens"]
            assert stage.items_out == len(spec)
            counts.append((stage.items_in, stage.items_out, report.stages["generate"].items_out))
        assert counts[0] == counts[1]
