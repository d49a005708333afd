"""Tests of the benchmark itself: smoke mode, correctness gate, time limits, replays.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import replay, run
from perfbench.spans import Tracer
from tokenjoin.corpusio import write_results
from tokenjoin.pipeline import JoinConfig, join
from tokenjoin.synth import generate_corpus
from tokenjoin.textnorm import tokenize

ROOT = run.ROOT


def _smoke_sides(name: str) -> tuple[dict, list[list[str]]]:
    _, defs = run.load_definitions()
    wl = run.workload_params(defs, name, "smoke")
    gen = dict(wl["generator"])
    size, base_seed = gen.pop("size"), gen.pop("base_seed")
    lines = generate_corpus(size, seed=base_seed, **gen)
    split = wl["two_set_split"]
    return wl, [lines] if split is None else [lines[:split], lines[split:]]


def _join_sides(wl: dict, sides: list[list[str]]):
    corpora = [[tokenize(line, record_id=str(i)) for i, line in enumerate(side)] for side in sides]
    cfg = JoinConfig(self_join=len(sides) == 1, **wl["join"])
    results, report = join(corpora[0], corpora[1] if len(corpora) == 2 else None, cfg)
    return corpora, results, report


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_smoke_mode_reports_every_metric():
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.run", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary["smoke_ok"] is True
    bench, _ = run.load_definitions()
    assert sorted(summary["workloads"]) == sorted(w["name"] for w in bench["workloads"])
    for name, got in summary["workloads"].items():
        for m in bench["end_to_end"]:
            entry = got["end_to_end"][m["name"]]
            assert entry["unit"] == m["unit"] and entry["value"] > 0
        for m in bench["per_layer"]:
            entry = got["per_layer"][m["name"]]
            assert entry["unit"] == m["unit"]
            assert entry["value"] is not None or entry["reason"]
    for m in bench["end_to_end"]:
        stated = [line for line in lines if line.startswith(f"{m['name']} = ") and "(median of n=" in line]
        assert len(stated) == len(bench["workloads"])


def _hang_script(tmp_path: Path) -> Path:
    # stands in for a join whose pool worker died: the process and a forked child never finish
    script = tmp_path / "hang.py"
    script.write_text(
        "import os, sys, time\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    time.sleep(60)\n"
        "    os._exit(0)\n"
        "open(sys.argv[1], 'w').write(f'{os.getpid()} {pid}')\n"
        "time.sleep(60)\n"
    )
    return script


def _wait_gone(pids: list[int]) -> None:
    deadline = time.monotonic() + 5
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_alive(pid) for pid in pids)


def test_run_child_kills_a_hung_process_and_its_children(tmp_path):
    pid_file = tmp_path / "pids"
    t0 = time.monotonic()
    outcome = run.run_child([sys.executable, str(_hang_script(tmp_path)), str(pid_file)], 1.0, tmp_path / "err.txt")
    assert outcome.status == "timeout"
    assert time.monotonic() - t0 < 10
    _wait_gone([int(pid) for pid in pid_file.read_text().split()])


def test_sigterm_to_the_runner_kills_the_measured_processes(tmp_path):
    pid_file = tmp_path / "pids"
    runner = subprocess.Popen(
        [
            sys.executable, "-c",
            "import signal, sys\n"
            "from pathlib import Path\n"
            "from perfbench import run\n"
            "signal.signal(signal.SIGTERM, run._exit_on_sigterm)\n"
            "run.run_child([sys.executable] + sys.argv[1:3], 60.0, Path(sys.argv[3]))\n",
            str(_hang_script(tmp_path)), str(pid_file), str(tmp_path / "err.txt"),
        ],
        cwd=ROOT,
    )
    deadline = time.monotonic() + 20
    while not pid_file.exists() or len(pid_file.read_text().split()) < 2:
        assert time.monotonic() < deadline and runner.poll() is None
        time.sleep(0.05)
    runner.terminate()
    assert runner.wait(timeout=10) == 128 + 15
    _wait_gone([int(pid) for pid in pid_file.read_text().split()])


def test_a_hung_run_is_counted_as_failed_not_waited_for(monkeypatch):
    bench, defs = run.load_definitions()
    monkeypatch.setattr(run, "TIME_LIMIT_S", 1.0)
    t0 = time.monotonic()
    result, lines = run.run_workload(
        defs, bench, "sparse-names", 0, 0, False,
        scale="smoke", cmd=[sys.executable, "-c", "import time; time.sleep(60)"],
    )
    assert time.monotonic() - t0 < 30
    assert result["correct"] is False
    assert result["attempted"] == 1 and result["failed"] == 1
    assert any("timeout" in line for line in lines)
    assert result["metrics"]["join_s"]["value"] is None


def test_gate_catches_a_flipped_distance_digit(tmp_path):
    wl, sides = _smoke_sides("sparse-names")
    _, results, report = _join_sides(wl, sides)
    good = tmp_path / "good.tsv"
    write_results(good, results)
    good_sha = hashlib.sha256(good.read_bytes()).hexdigest()
    gate = run.Gate(wl, sides, reference=good_sha)
    rec = {"report": report.to_dict(), "sha256": good_sha}
    assert gate.problems == []
    assert gate.check_run(rec, good) == []

    rows = good.read_text().splitlines()
    inside = next(i for i, row in enumerate(rows) if max(map(int, row.split("\t")[:2])) < wl["oracle_slice"])
    left, right, dist = rows[inside].split("\t")
    flipped = dist[:-1] + ("1" if dist[-1] != "1" else "2")
    rows[inside] = f"{left}\t{right}\t{flipped}"
    bad = tmp_path / "bad.tsv"
    bad.write_text("".join(row + "\n" for row in rows))
    bad_rec = dict(rec, sha256=hashlib.sha256(bad.read_bytes()).hexdigest())
    problems = run.Gate(wl, sides, reference=good_sha).check_run(bad_rec, bad)
    assert any("reference" in p for p in problems)
    assert any("oracle" in p for p in problems)
    # without a reference the oracle slice still catches it
    assert any("oracle" in p for p in run.Gate(wl, sides, reference=None).check_run(bad_rec, bad))


def test_gate_requires_runs_to_agree_without_a_reference(tmp_path):
    wl, sides = _smoke_sides("two-set-parallel")
    _, results, report = _join_sides(wl, sides)
    path = tmp_path / "out.tsv"
    write_results(path, results)
    gate = run.Gate(wl, sides, reference=None)
    rec = {"report": report.to_dict(), "sha256": "a" * 64}
    assert gate.check_run(rec, path) == []
    assert gate.check_run(dict(rec, sha256="b" * 64), path) == ["result file differs from the first run's"]


def test_funnel_problems_catch_a_report_that_does_not_reconcile():
    wl, sides = _smoke_sides("sparse-names")
    _, _, report = _join_sides(wl, sides)
    good = report.to_dict()
    assert replay.funnel_problems(good) == []
    bad = json.loads(json.dumps(good))
    bad["filters"]["surviving"] += 1
    assert any("filter input" in p for p in replay.funnel_problems(bad))
    bad = json.loads(json.dumps(good))
    bad["stages"]["dedup"]["items_out"] = bad["stages"]["generate"]["items_out"] + 1
    assert any("unique pairs" in p for p in replay.funnel_problems(bad))
    bad = json.loads(json.dumps(good))
    bad["stages"]["verify"]["items_out"] = bad["filters"]["surviving"] + 1
    assert any("accepted pairs" in p for p in replay.funnel_problems(bad))
    del bad["filters"]
    assert replay.funnel_problems(bad)


def _replay_input(name: str):
    wl, sides = _smoke_sides(name)
    corpora, results, report = _join_sides(wl, sides)
    inp = replay.ReplayInput(
        lines_r=sides[0],
        lines_p=sides[1] if len(sides) == 2 else None,
        corpus_r=corpora[0],
        corpus_p=corpora[1] if len(corpora) == 2 else None,
        threshold=wl["join"]["threshold"],
        max_token_freq=wl["join"]["max_token_freq"],
        greedy=False,
        scheme="whitespace-punct",
        results=results,
        sample_every=run.SMOKE_REPLAY_SAMPLE_EVERY,
    )
    return inp, report.to_dict()


@pytest.mark.parametrize("name", ["sparse-names", "two-set-parallel"])
def test_replays_reconcile_and_never_call_the_library_twins(name, monkeypatch):
    import tokenjoin.candidates
    import tokenjoin.filters
    import tokenjoin.pipeline
    import tokenjoin.setdist

    inp, report = _replay_input(name)

    def forbidden(*args, **kwargs):
        raise AssertionError("replays must call only what join() runs")

    for module, attr in [
        (tokenjoin.candidates, "build_token_space"),
        (tokenjoin.candidates, "similar_token_pairs"),
        (tokenjoin.pipeline, "dedup_candidates"),
        (tokenjoin.filters, "length_filter"),
        (tokenjoin.filters, "histogram_filter"),
        (tokenjoin.setdist, "sld_greedy"),
    ]:
        monkeypatch.setattr(module, attr, forbidden)
    metrics, reasons, flags = replay.run_replays(inp, Tracer("test"), report)
    assert flags == []
    assert reasons == {}
    assert all(value is not None for value in metrics.values())
    assert metrics["candidates.similar_token_pairs"] == report["stages"]["similar-tokens"]["items_out"]


def test_verify_replay_starts_from_the_cache_the_probe_filled():
    # join() verifies with the LdCache its probe stage filled, so the replay must too
    inp, _ = _replay_input("sparse-names")
    _, probe = replay.replay_probe(inp, Tracer("test"))
    warm, _ = replay.replay_verify(inp, Tracer("test"), probe)
    probe.cache = type(probe.cache)()
    cold, _ = replay.replay_verify(inp, Tracer("test"), probe)
    assert warm["setdist.ld_lookups_per_pair"] == cold["setdist.ld_lookups_per_pair"]
    assert warm["setdist.ld_cache_hit_ratio"] > cold["setdist.ld_cache_hit_ratio"]
    assert warm["strdist.ld_bounded_per_verify_pair"] < cold["strdist.ld_bounded_per_verify_pair"]
    assert warm["strdist.ld_bounded_calls"] == cold["strdist.ld_bounded_calls"] == probe.ld_calls


def test_a_missing_entry_point_gives_null_with_a_reason(monkeypatch):
    import tokenjoin.candidates

    inp, report = _replay_input("sparse-names")
    monkeypatch.delattr(tokenjoin.candidates, "NldIndex")
    metrics, reasons, _ = replay.run_replays(inp, Tracer("test"), report)
    for name in replay.PROBE_METRICS + replay.VERIFY_METRICS:
        assert metrics[name] is None and reasons[name]
    assert "NldIndex" in reasons["candidates.probe_us_p50"]
    assert metrics["textnorm.tokenize_us_p50"] is not None


def test_a_replay_that_disagrees_with_the_report_is_flagged():
    inp, report = _replay_input("sparse-names")
    report["stages"]["similar-tokens"]["items_out"] += 1
    _, _, flags = replay.run_replays(inp, Tracer("test"), report)
    assert any("similar-tokens" in flag for flag in flags)


def test_without_sources_the_benchmark_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.run", "--workload", "sparse-names", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
