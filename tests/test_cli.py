import gc
import json
import os
import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tokenjoin import corpusio
from tokenjoin.cli import build_parser, main
from tokenjoin.corpusio import read_corpus, read_results, write_results
from tokenjoin.errors import DataError
from tokenjoin.pipeline import JoinConfig, JoinResult
from tokenjoin.synth import generate_corpus
from tokenjoin.textnorm import TOKENIZER_SCHEMES, tokenize

# every line boundary of str.splitlines; only LF and CR LF end a record
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
RECORD_ENDS = ("\n", "\r\n")
# pieces of a line body: words, case edge cases (a dotted capital I, a
# final sigma), ASCII punctuation, tabs, NBSP and ideographic spaces
BODY_PIECES = ["ab", "Chan", "KALAN", "İ", "ΟΔΟΣ", "σς", "ß", " ", "  ", "\t", "\xa0", "\u3000", ".", ",-", "!?", "'"]
bodies = st.lists(st.sampled_from(BODY_PIECES), max_size=6).map("".join)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus") / "corpus.txt"


def line_by_line(path, scheme, lowercase, fmt="lines"):
    """The records of ``path`` built one :func:`tokenize` call per line, each line lowercased on its own.

    Lines end at LF or CR LF, and a final one adds no empty line.
    """
    records = []
    lines = re.split("\r?\n", path.read_bytes().decode("utf-8"))
    for i, line in enumerate(lines[:-1] if lines[-1] == "" else lines):
        record_id, body = line.split("\t", 1) if fmt == "tsv-id" else (str(i), line)
        records.append(tokenize(body, scheme, record_id=record_id, lowercase=lowercase))
    return records


@pytest.fixture
def reference_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("chan kalan\nchank alan\n", encoding="utf-8")
    return path


class TestCorpusIo:
    def test_lines_format_assigns_line_number_ids(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("a b\n\nc\n", encoding="utf-8")
        recs = read_corpus(p, "lines", "whitespace")
        assert [r.id for r in recs] == ["0", "1", "2"]
        assert recs[1].tokens == ()  # empty line stays a (empty) record

    def test_tsv_format(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("x7\tchan kalan\ny9\tchank alan\n", encoding="utf-8")
        recs = read_corpus(p, "tsv-id", "whitespace")
        assert [(r.id, r.tokens) for r in recs] == [
            ("x7", ("chan", "kalan")),
            ("y9", ("chank", "alan")),
        ]

    def test_tsv_rejects_missing_tab_and_duplicates(self, tmp_path):
        p = tmp_path / "bad.tsv"
        # each file's first failing line, in file order, is the one reported
        cases = [
            ("x7 chan\n", "1: expected id<TAB>text"),
            ("a\tx\n\tb\n", "2: empty record id"),
            ("a\tx\nb\ty\na\tz\n", "3: duplicate record id 'a'"),
            ("a\tx\na\ty\nb\tz\nno tab\n", "2: duplicate record id 'a'"),
            ("a\tx\nno tab\n\ty\na\tz\n", "2: expected id<TAB>text"),
            ("\tx\na\ty\na\tz\nno tab\n", "1: empty record id"),
            ("a\tx\n\n", "2: expected id<TAB>text"),
        ]
        for text, error in cases:
            p.write_text(text, encoding="utf-8")
            with pytest.raises(DataError) as excinfo:
                read_corpus(p, "tsv-id")
            assert str(excinfo.value) == f"{p}:{error}"

    @given(
        st.lists(st.tuples(bodies, st.sampled_from(LINE_BREAKS)), max_size=8),
        st.sampled_from(TOKENIZER_SCHEMES),
        st.booleans(),
    )
    def test_lines_equal_tokenize_line_by_line(self, corpus_path, rows, scheme, lowercase):
        # bodies may be blank, whitespace-only or punctuation-only
        corpus_path.write_bytes("".join(body + brk for body, brk in rows).encode("utf-8"))
        assert read_corpus(corpus_path, "lines", scheme, lowercase=lowercase) == line_by_line(
            corpus_path, scheme, lowercase
        )

    @given(
        st.lists(
            st.tuples(st.text(st.sampled_from("ab İΣ.\xa0"), min_size=1, max_size=3), bodies, st.sampled_from(LINE_BREAKS)),
            max_size=8,
            unique_by=lambda row: row[0],
        ),
        st.sampled_from(TOKENIZER_SCHEMES),
        st.booleans(),
    )
    def test_tsv_equals_tokenize_line_by_line(self, corpus_path, rows, scheme, lowercase):
        corpus_path.write_bytes("".join(f"{rid}\t{body}{brk}" for rid, body, brk in rows).encode("utf-8"))
        records = read_corpus(corpus_path, "tsv-id", scheme, lowercase=lowercase)
        assert records == line_by_line(corpus_path, scheme, lowercase, "tsv-id")
        # a row that other line boundaries end runs on into the next row,
        # whose id starts with no LF, so no CR of it ends a line
        starts = [rid for i, (rid, _, _) in enumerate(rows) if i == 0 or rows[i - 1][2] in RECORD_ENDS]
        assert [r.id for r in records] == starts

    @pytest.mark.parametrize(
        "text, lines",
        [
            ("a\x85b\nc\n", ["a\x85b", "c"]),
            ("a\u2028b\x0bc\x0c\x1cd\u2029\n", ["a\u2028b\x0bc\x0c\x1cd\u2029"]),
            ("a\rb\r", ["a\rb\r"]),
            ("a\r\nb\r\n", ["a", "b"]),
            ("a\r\r\nb", ["a\r", "b"]),
            ("a\r\n\r\nb\n", ["a", "", "b"]),
            ("", []),
            ("\n", [""]),
            ("\n\n", ["", ""]),
            ("a", ["a"]),
        ],
    )
    def test_only_lf_ends_a_record(self, tmp_path, text, lines):
        # every other line boundary, a lone CR included, belongs to the record;
        # the tokenizers drop a CR, so only the lines show where CR LF is cut
        p = tmp_path / "c.txt"
        p.write_bytes(text.encode("utf-8"))
        assert corpusio._read_lines(p) == lines
        want = [tokenize(line, record_id=str(i)) for i, line in enumerate(lines)]
        assert read_corpus(p) == want

    def test_only_lf_ends_a_tsv_record(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_bytes("x\ta\x85b\r\ny\rz\tc\rd\u2028\n".encode("utf-8"))
        got = [(r.id, r.tokens) for r in read_corpus(p, "tsv-id")]
        assert got == [("x", tokenize("a\x85b").tokens), ("y\rz", tokenize("c\rd\u2028").tokens)]

    @pytest.mark.parametrize(
        "data, where",
        [
            (b"abc\n\xff\xfe bad\n", "2: not valid UTF-8 (byte 4)"),
            (b"\xc3", "1: not valid UTF-8 (byte 0)"),
            (b"a\r\nb\r\ncaf\xc3\xa9 \xed\xa0\x80\n", "3: not valid UTF-8 (byte 12)"),
        ],
        ids=["stray-byte", "truncated", "surrogate"],
    )
    @pytest.mark.parametrize("read", [read_corpus, read_results])
    def test_bytes_not_utf8_name_the_line_and_byte(self, tmp_path, data, where, read):
        p = tmp_path / "bad.txt"
        p.write_bytes(data)
        with pytest.raises(DataError) as excinfo:
            read(p)
        assert str(excinfo.value) == f"{p}:{where}"

    @pytest.mark.parametrize("collecting", [True, False])
    def test_collector_left_as_the_caller_had_it(self, tmp_path, monkeypatch, collecting):
        good, bad = tmp_path / "good.tsv", tmp_path / "bad.tsv"
        good.write_text("a\tx y\nb\tz\n", encoding="utf-8")
        bad.write_text("a\tx\na\ty\n", encoding="utf-8")
        during = []
        tokenize_all = corpusio.tokenize_all

        def spy(*args, **kwargs):
            during.append(gc.isenabled())
            return tokenize_all(*args, **kwargs)

        monkeypatch.setattr(corpusio, "tokenize_all", spy)
        was = gc.isenabled()
        try:
            (gc.enable if collecting else gc.disable)()
            for fmt in ("lines", "tsv-id"):
                assert len(read_corpus(good, fmt)) == 2
                assert gc.isenabled() is collecting
            with pytest.raises(DataError):
                read_corpus(bad, "tsv-id")
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()
        assert during == [False, False]

    def test_result_roundtrip(self, tmp_path):
        p = tmp_path / "r.tsv"
        rows = [JoinResult("0", "1", 0.2), JoinResult("1", "2", 0.0625)]
        write_results(p, rows)
        assert p.read_bytes() == b"0\t1\t0.200000\n1\t2\t0.062500\n"
        back = read_results(p)
        assert [(l, r) for l, r, _ in back] == [("0", "1"), ("1", "2")]
        assert back[0][2] == pytest.approx(0.2)
        # an id may hold any line boundary but LF
        ids = ["a\x85b", "c\rd", "e\u2028", "f\r"]
        write_results(p, [JoinResult(left, "x", 0.5) for left in ids])
        assert [left for left, _, _ in read_results(p)] == ids

    @pytest.mark.parametrize("distance", ["x", "nan", "inf", "-0.5", "1.000001", "", "1e-3", "0.5.0"])
    def test_result_distance_not_in_unit_interval_names_the_line(self, tmp_path, distance):
        p = tmp_path / "r.tsv"
        p.write_text(f"a\tb\t0.250000\na\tc\t{distance}\n", encoding="utf-8")
        with pytest.raises(DataError) as excinfo:
            read_results(p)
        assert str(excinfo.value) == f"{p}:2: distance {distance!r} is not a fixed-point number in [0, 1]"

    def test_result_distances_at_the_ends_of_the_unit_interval(self, tmp_path):
        p = tmp_path / "r.tsv"
        p.write_text("a\tb\t0.000000\na\tc\t1.000000\na\td\t1\na\te\t.5\n", encoding="utf-8")
        assert [d for _, _, d in read_results(p)] == [0.0, 1.0, 1.0, 0.5]

    def test_lines_read_peaks_at_most_three_file_sizes_above_its_records(self, tmp_path):
        # the transient peak of a read: the file's bytes and text, and one
        # chunk's copies, but no list of the lines and no rejoined text
        p = tmp_path / "c.txt"
        lines = generate_corpus(40_000, seed=1009, base_tokens=80_000, zipf_offset=400, min_tokens=2, perturb_rate=0.4)
        p.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        tracemalloc.start()
        try:
            records = read_corpus(p)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 40_000
        assert peak - kept <= 3 * p.stat().st_size


class TestJoinCommand:
    def test_reference_corpus_at_point_two(self, reference_file, tmp_path):
        out = tmp_path / "out.tsv"
        report = tmp_path / "report.json"
        code = main(
            [
                "join",
                "--input", str(reference_file),
                "--output", str(out),
                "--threshold", "0.2",
                "--tokenizer", "whitespace",
                "--report", str(report),
            ]
        )
        assert code == 0
        assert out.read_bytes() == b"0\t1\t0.200000\n"
        payload = json.loads(report.read_text())
        assert set(payload) == {"stages", "similar", "filters", "verify", "config"}
        assert payload["config"]["threshold"] == 0.2
        # chan ~ chank and kalan ~ alan; the four tokens of four or five characters are probed
        assert payload["similar"]["pairs"] == payload["stages"]["similar-tokens"]["items_out"] == 2
        assert payload["similar"]["probes"] == payload["stages"]["similar-tokens"]["items_in"] == 4
        # the two records share no token: one pair with two residual tokens a side
        assert payload["verify"]["pairs_by_k"] == {"0": 0, "1": 0, "2": 1, "3": 0, "4": 0, "5+": 0}
        for counts in payload["stages"].values():
            assert set(counts) == {"items_in", "items_out", "millis", "cpu_ms"}

    def test_default_threshold_finds_nothing_here(self, reference_file, tmp_path):
        out = tmp_path / "out.tsv"
        assert main(["join", "--input", str(reference_file), "--output", str(out)]) == 0
        assert out.read_bytes() == b""

    def test_threshold_out_of_range_exits_2(self, reference_file, tmp_path, capsys):
        code = main(
            ["join", "--input", str(reference_file), "--output", str(tmp_path / "x"), "--threshold", "1.5"]
        )
        assert code == 2
        assert "threshold" in capsys.readouterr().err

    def test_missing_input_exits_1(self, tmp_path):
        code = main(["join", "--input", str(tmp_path / "nope.txt"), "--output", str(tmp_path / "o")])
        assert code == 1

    def test_input_not_utf8_exits_1_with_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"abc\n\xff\xfe bad\n")
        code = main(["join", "--input", str(bad), "--output", str(tmp_path / "o.tsv")])
        assert code == 1
        assert capsys.readouterr().err == f"join: data: {bad}:2: not valid UTF-8 (byte 4)\n"

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        corpus = tmp_path / "c.txt"
        code = main(
            ["gen", "--output", str(corpus), "--size", "300", "--seed", "12", "--base-tokens", "100"]
        )
        assert code == 0
        outputs = []
        for i, workers in enumerate((1, 1, 2)):
            out = tmp_path / f"out{i}.tsv"
            code = main(
                [
                    "join",
                    "--input", str(corpus),
                    "--output", str(out),
                    "--threshold", "0.15",
                    "--workers", str(workers),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0]  # the synthetic corpus does contain similar pairs

    def test_workers_default_is_the_cpu_affinity(self, monkeypatch):
        argv = ["join", "--input", "c.txt", "--output", "o.tsv"]
        if hasattr(os, "sched_getaffinity"):
            expected = len(os.sched_getaffinity(0))
            assert build_parser().parse_args(argv).workers == expected
        # where the affinity call is missing, the machine's CPU count is used
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert build_parser().parse_args(argv).workers == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert build_parser().parse_args(argv).workers == 1

    def test_join_defaults_are_join_configs(self):
        args = build_parser().parse_args(["join", "--input", "a", "--output", "b"])
        default = JoinConfig()
        assert (args.threshold, args.max_token_freq, args.matching, args.dedup) == (
            default.threshold,
            default.max_token_freq,
            default.matching,
            default.dedup,
        )

    def test_two_set_join_and_tsv(self, tmp_path):
        left = tmp_path / "l.tsv"
        right = tmp_path / "r.tsv"
        left.write_text("L\tchan kalan\n", encoding="utf-8")
        right.write_text("R\tchank alan\nS\tzzz qqq\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        code = main(
            [
                "join",
                "--input", str(left),
                "--input2", str(right),
                "--format", "tsv-id",
                "--output", str(out),
                "--threshold", "0.2",
                "--tokenizer", "whitespace",
            ]
        )
        assert code == 0
        assert out.read_bytes() == b"L\tR\t0.200000\n"

    def test_lowercase_flag_merges_case_variants(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("Chan Kalan\nchan kalan\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        assert main(["join", "--input", str(corpus), "--output", str(out), "--lowercase"]) == 0
        assert out.read_bytes() == b"0\t1\t0.000000\n"
        assert main(["join", "--input", str(corpus), "--output", str(out)]) == 0
        assert out.read_bytes() == b""


class TestDistCommand:
    def test_reference_pair(self, capsys):
        assert main(["dist", "chan kalan", "chank alan", "--tokenizer", "whitespace"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "nsld: 0.200000"
        assert lines[1] == "sld: 2"
        assert any("align:" in line for line in lines[2:])

    def test_identical_strings(self, capsys):
        assert main(["dist", "same text", "same text"]) == 0
        assert "nsld: 0.000000" in capsys.readouterr().out

    def test_empty_versus_nonempty(self, capsys):
        assert main(["dist", "", "abc"]) == 0
        assert "nsld: 1.000000" in capsys.readouterr().out


class TestOracleCommand:
    def test_golden_diff_against_join(self, tmp_path):
        corpus = tmp_path / "c.txt"
        main(
            [
                "gen",
                "--output", str(corpus),
                "--size", "200",
                "--seed", "77",
                "--base-tokens", "80",
                "--perturb-rate", "0.45",
            ]
        )
        join_out = tmp_path / "join.tsv"
        oracle_out = tmp_path / "oracle.tsv"
        assert main(
            [
                "join",
                "--input", str(corpus),
                "--output", str(join_out),
                "--threshold", "0.15",
                "--max-token-freq", "inf",
            ]
        ) == 0
        assert main(
            ["oracle", "--input", str(corpus), "--output", str(oracle_out), "--threshold", "0.15"]
        ) == 0
        assert join_out.read_bytes() == oracle_out.read_bytes()
        assert join_out.read_bytes()

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("", encoding="utf-8")
        out = tmp_path / "o.tsv"
        assert main(["oracle", "--input", str(corpus), "--output", str(out)]) == 0
        assert out.read_bytes() == b""

    def test_oversized_corpus_exits_2(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(f"tok{i}" for i in range(4500)), encoding="utf-8")
        assert main(["oracle", "--input", str(corpus), "--output", str(tmp_path / "o")]) == 2


class TestGenCommand:
    def test_reproducible(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for path in (a, b):
            assert main(["gen", "--output", str(path), "--size", "50", "--seed", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_params_exit_2(self, tmp_path):
        assert main(
            ["gen", "--output", str(tmp_path / "x"), "--size", "10", "--seed", "1", "--min-tokens", "5", "--max-tokens", "2"]
        ) == 2

    @pytest.mark.parametrize("base_tokens", ["0", "-3"])
    def test_bad_base_tokens_exit_2_with_one_line(self, tmp_path, capsys, base_tokens):
        out = tmp_path / "x"
        assert main(["gen", "--output", str(out), "--size", "5", "--seed", "1", "--base-tokens", base_tokens]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gen: config: ") and err.count("\n") == 1
        assert not out.exists()
