"""Seeded benchmark of the tokenjoin CLI path: read_corpus -> join -> write_results.

Run from the root of a checkout:

    python3 -m perfbench.run --workload sparse-names --seed 0 --seconds 40 --trace 0
    python3 -m perfbench.run --smoke

A run generates its corpus from ``--seed`` (``perfbench/workloads.json`` holds
each workload's generator and join config; its why is in ``BENCHMARK.json``),
then starts one fresh ``perfbench.measure`` process per measured join for as
long as the next one should end within ``--seconds``; each process has a time
limit and is killed with its pool workers when it overruns. ``--trace 0``
reports the end-to-end metrics named in ``BENCHMARK.json`` as medians over the
measured processes, with every timing adjusted for the host's speed (see
``SPEED_EXPONENT``). ``--trace 1`` runs one untraced and one traced process
and reports the per-layer metrics, read from the traced join's ``StageReport``
and from timed replays of the calls ``join()`` makes, plus the tracing overhead.

Every measured run passes a correctness gate or counts as failed: the result
file's SHA-256 matches the recorded reference for this seed (or, without one,
the other runs' files), the funnel in ``StageReport`` reconciles, and on a
slice small enough for ``oracle.join_bruteforce`` both a join of the slice and
the full run's output restricted to the slice agree with the oracle.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric's median, quartiles and sample count. ``--smoke`` runs every
workload at a few hundred records, traced and untraced, and checks that every
metric is reported (or is null with a reason).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .replay import funnel_problems

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"

# one invocation must end within 180 s; stop starting processes before that
DEADLINE_S = 170.0
RESERVE_S = 5.0
# corpus reads per measured process; each is one setup_s sample
READ_REPS = 3
# the filter and verify replays rebuild candidates in Python for every n-th
# record, which keeps the traced run short; a smoke corpus of a few hundred
# records needs a denser sample to hold pairs
REPLAY_SAMPLE_EVERY = 20
SMOKE_REPLAY_SAMPLE_EVERY = 4
# wall-clock limit of one measured process; the traced process gets twice this
TIME_LIMIT_S = 30.0
# A shared host runs every process up to twice as slow for minutes at a time,
# so raw seconds from runs minutes apart differ by more than a change worth
# finding. Each measured process times measure.calibrate, a fixed loop, right
# before its join, and each of its timings (join_s, cpu_s, setup_s and so
# records_per_s) is multiplied by (REFERENCE_CAL_S / that time) ** SPEED_EXPONENT.
# On the 2-core host of workloads.json, over forty runs, the program's time
# followed the loop's to a power of 0.3 (two-set-parallel) to 0.7 (sparse-names);
# 0.5 is the middle, which leaves either workload with at most a power of 0.2 of
# a change in host speed. The loop takes 0.1 to 0.2 s there. The unscaled
# medians are printed too.
REFERENCE_CAL_S = 0.1
SPEED_EXPONENT = 0.5
MEASURE_CMD = [sys.executable, "-m", "perfbench.measure"]


def load_definitions() -> tuple[dict, dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    defs = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    return bench, defs


def workload_params(defs: dict, name: str, scale: str) -> dict:
    """The workload's definition, with its smoke overrides applied for scale 'smoke'."""
    wl = copy.deepcopy(defs["workloads"][name])
    if scale == "smoke":
        small = wl["smoke"]
        wl["generator"]["size"] = small["size"]
        wl["oracle_slice"] = small["oracle_slice"]
        wl["two_set_split"] = small.get("two_set_split", wl["two_set_split"])
    return wl


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class ChildOutcome:
    status: str  # "ok", "exit <code>" or "timeout"
    seconds: float
    stderr_tail: str


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL whatever is left of the child's process group and wait for it to go."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def run_child(cmd: list[str], limit_s: float, stderr_path: Path) -> ChildOutcome:
    """Run ``cmd`` in its own process group; kill the group after ``limit_s``."""
    t0 = time.monotonic()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(limit_s, 0.1))
            status = "ok" if code == 0 else f"exit {code}"
        except subprocess.TimeoutExpired:
            status = "timeout"
        finally:
            _kill_group(proc)
    tail = stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
    return ChildOutcome(status, time.monotonic() - t0, " | ".join(tail))


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

class Gate:
    """Checks every run of one invocation against the oracle, the reference and each other."""

    def __init__(self, wl: dict, sides: list[list[str]], reference: str | None) -> None:
        from tokenjoin.corpusio import format_results
        from tokenjoin.oracle import join_bruteforce
        from tokenjoin.pipeline import JoinConfig, join
        from tokenjoin.textnorm import tokenize

        cfg = JoinConfig(self_join=len(sides) == 1, **wl["join"])
        records = [[tokenize(line, cfg.tokenizer, record_id=str(i)) for i, line in enumerate(side)] for side in sides]
        n = wl["oracle_slice"]
        part = [recs[:n] for recs in records]
        if len(records) == 2:
            # clones rarely cross the first n lines of both sides, so pair the
            # right slice with the left records that share a token with it
            wanted = {tok for rec in part[1] for tok in rec.tokens}
            sharing = [rec for rec in records[0] if wanted.intersection(rec.tokens)]
            part[0] = sharing[:n] if len(sharing) >= n else records[0][:n]
        right = part[1] if len(part) == 2 else None
        oracle = join_bruteforce(part[0], right, cfg.threshold)
        self.oracle_rows = set(format_results(oracle.pairs).splitlines())
        self.slice_ids = [{r.id for r in p} for p in part]
        if right is None:
            self.slice_ids.append(self.slice_ids[0])
        mine, _ = join(part[0], right, cfg)
        self.problems: list[str] = []
        if set(format_results(mine).splitlines()) != self.oracle_rows:
            self.problems.append(f"join of the {n}-record slice differs from oracle.join_bruteforce")
        # the frequency cap makes the full join a subset of the exact answer;
        # with no token over the cap it is the exact answer
        self.exact = all(
            max(Counter(tok for rec in recs for tok in set(rec.tokens)).values(), default=0)
            <= cfg.max_token_freq
            for recs in records
        )
        self.reference = reference
        self.first_sha: str | None = None
        self.pairs = len(self.oracle_rows)

    def check_run(self, rec: dict, output: Path) -> list[str]:
        problems = funnel_problems(rec["report"])
        sha = rec["sha256"]
        if self.reference is not None and sha != self.reference:
            problems.append(f"result sha256 {sha[:16]} != reference {self.reference[:16]}")
        if self.first_sha is None:
            self.first_sha = sha
        elif sha != self.first_sha:
            problems.append("result file differs from the first run's")
        left_ids, right_ids = self.slice_ids
        rows = set()
        for line in output.read_text(encoding="utf-8").splitlines():
            left, right, _ = line.split("\t")
            if left in left_ids and right in right_ids:
                rows.add(line)
        if self.exact and rows != self.oracle_rows:
            problems.append("output restricted to the oracle slice differs from the oracle")
        elif not self.exact and not rows <= self.oracle_rows:
            problems.append("output restricted to the oracle slice has pairs the oracle rejects")
        return problems


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def host_scale(rec: dict) -> float:
    """Factor that adjusts one measured process's seconds to the reference host speed."""
    return (REFERENCE_CAL_S / rec["cal_s"]) ** SPEED_EXPONENT


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def run_workload(
    defs: dict,
    bench: dict,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: str = "full",
    cmd: list[str] | None = None,
) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the summary lines."""
    from tokenjoin.synth import generate_corpus

    t_start = time.monotonic()
    wl = workload_params(defs, name, scale)
    gen = dict(wl["generator"])
    size, base_seed = gen.pop("size"), gen.pop("base_seed")
    reference = defs["references"][scale].get(name, {}).get(str(seed))
    cmd = cmd or MEASURE_CMD
    out = [f"perfbench {name} scale={scale} seed={seed} corpus_seed={base_seed + seed} records={size} trace={int(trace)}"]

    work = WORK / f"{name}-{scale}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    (WORK / "traces").mkdir(exist_ok=True)
    try:
        lines = generate_corpus(size, seed=base_seed + seed, **gen)
        split = wl["two_set_split"]
        sides = [lines] if split is None else [lines[:split], lines[split:]]
        paths = []
        for i, side in enumerate(sides):
            path = work / f"corpus{i}.txt"
            path.write_text("".join(line + "\n" for line in side), encoding="utf-8")
            paths.append(path)
        gate = Gate(wl, sides, reference)

        def remaining() -> float:
            return DEADLINE_S - RESERVE_S - (time.monotonic() - t_start)

        runs: list[tuple[bool, dict | None, list[str]]] = []

        def one_run(traced: bool, limit: float) -> None:
            i = len(runs)
            spec = {
                "src": str(SRC),
                "left": str(paths[0]),
                "right": str(paths[1]) if len(paths) == 2 else None,
                "join": wl["join"],
                "read_reps": READ_REPS,
                "output": str(work / f"out{i}.tsv"),
                "trace": traced,
                "run_id": f"{name}-seed{seed}-run{i}",
                "trace_path": str(WORK / "traces" / f"{name}-{scale}-seed{seed}.json"),
                "replay_sample_every": SMOKE_REPLAY_SAMPLE_EVERY if scale == "smoke" else REPLAY_SAMPLE_EVERY,
            }
            spec_path = work / f"spec{i}.json"
            spec_path.write_text(json.dumps(spec), encoding="utf-8")
            result_path = work / f"result{i}.json"
            child = run_child(cmd + [str(spec_path), str(result_path)], limit, work / f"stderr{i}.txt")
            if child.status != "ok":
                runs.append((traced, None, [f"run {i}: {child.status} after {child.seconds:.1f} s {child.stderr_tail}".rstrip()]))
                return
            try:
                rec = json.loads(result_path.read_text(encoding="utf-8"))
                problems = gate.check_run(rec, Path(spec["output"]))
            except (OSError, ValueError, KeyError) as exc:
                runs.append((traced, None, [f"run {i}: unreadable result: {exc!r}"]))
                return
            runs.append((traced, rec, [f"run {i}: {p}" for p in problems]))

        m0 = time.monotonic()
        one_run(False, min(TIME_LIMIT_S, remaining()))
        # start another process only if, at the mean duration so far, it ends within --seconds
        while not trace and (time.monotonic() - m0) * (len(runs) + 1) / len(runs) <= seconds:
            if remaining() < TIME_LIMIT_S:
                out.append("stopped starting runs: the invocation deadline is near")
                break
            one_run(False, min(TIME_LIMIT_S, remaining()))
        if trace:
            one_run(True, min(2 * TIME_LIMIT_S, remaining()))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(runs)
    failed = attempted if gate.problems else sum(1 for _, rec, problems in runs if rec is None or problems)
    good = [rec for traced, rec, problems in runs if rec is not None and not problems and not traced]
    traced_rec = next((rec for traced, rec, problems in runs if traced and rec is not None and not problems), None)
    out.append(f"runs: attempted={attempted} failed={failed} failed_runs_ratio={failed / attempted:.4f}")
    for problem in gate.problems + [p for _, _, problems in runs for p in problems]:
        out.append(f"gate: FAIL {problem}")
    if not gate.problems and failed == 0:
        how = "matches the reference" if reference else "agrees across runs (no reference for this seed)"
        out.append(f"gate: ok; result sha256 {gate.first_sha[:16]} {how}; {gate.pairs} oracle pairs on the slice")

    metrics: dict[str, dict] = {}
    if not trace:
        samples = {
            "join_s": [r["join_s"] * host_scale(r) for r in good],
            "records_per_s": [size / (r["join_s"] * host_scale(r)) for r in good],
            "setup_s": [t * host_scale(r) for r in good for t in r["read_s"]],
            "cpu_s": [r["cpu_s"] * host_scale(r) for r in good],
            "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        }
        for m in bench["end_to_end"]:
            values = samples.get(m["name"], [])
            if values:
                q1, med, q3 = quartiles(values)
                metrics[m["name"]] = {"value": med, "unit": m["unit"]}
                out.append(f"{m['name']} = {_fmt(med)} {m['unit']} (median of n={len(values)}; q1 {_fmt(q1)}, q3 {_fmt(q3)})")
            else:
                metrics[m["name"]] = {"value": None, "unit": m["unit"], "reason": "no run passed"}
                out.append(f"{m['name']} = null (no run passed)")
        if good:
            pool = max(r["pool_child_peak_rss_mb"] for r in good)
            out.append(f"largest pool child peak RSS {pool:.1f} MB; pairs {good[0]['pairs']}")
            raw = statistics.median(r["join_s"] for r in good)
            cal = statistics.median(r["cal_s"] for r in good)
            out.append(f"unscaled: join {_fmt(raw)} s, calibration loop {_fmt(cal)} s (medians)")
    else:
        values: dict = {}
        reasons: dict = {}
        if traced_rec is not None:
            values.update(traced_rec["per_layer"])
            reasons.update(traced_rec["reasons"])
            values["corpusio.read_s"] = statistics.median(traced_rec["read_s"])
            values["corpusio.write_s"] = traced_rec["write_s"]
            if good:
                values["bench.trace_overhead_s"] = (
                    traced_rec["join_s"] * host_scale(traced_rec)
                    - statistics.median(r["join_s"] * host_scale(r) for r in good)
                )
            else:
                reasons["bench.trace_overhead_s"] = "the untraced run failed"
            for flag in traced_rec["flags"]:
                out.append(f"replay FLAG: {flag}")
            if not traced_rec["flags"]:
                out.append("replay: counts reconcile with StageReport")
            for span_name, ms in sorted(traced_rec["self_ms"].items()):
                out.append(f"self time {span_name} = {ms:.3f} ms")
        for m in bench["per_layer"]:
            value = values.get(m["name"])
            if value is None:
                reason = reasons.get(m["name"]) or ("the traced run failed" if traced_rec is None else "not measured")
                metrics[m["name"]] = {"value": None, "unit": m["unit"], "reason": reason}
                out.append(f"{m['name']} = null ({reason})")
            else:
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
                out.append(f"{m['name']} = {_fmt(value)} {m['unit']} (n=1, traced run)")
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, out


def smoke(defs: dict, bench: dict) -> int:
    """Every workload at smoke size, untraced and traced; every metric must be reported."""
    ok = True
    summary: dict = {}
    for name in defs["workloads"]:
        for trace in (False, True):
            result, lines = run_workload(defs, bench, name, 0, 0, trace, scale="smoke")
            print("\n".join(lines))
            wanted = bench["per_layer"] if trace else bench["end_to_end"]
            got = result["metrics"]
            for m in wanted:
                entry = got.get(m["name"])
                if entry is None or entry["unit"] != m["unit"] or (entry["value"] is None and not entry.get("reason")):
                    print(f"smoke: {name}: metric {m['name']} missing")
                    ok = False
            if not trace and any(entry["value"] is None for entry in got.values()):
                ok = False
            if not result["correct"]:
                ok = False
            summary.setdefault(name, {})["per_layer" if trace else "end_to_end"] = got
    print(json.dumps({"smoke_ok": ok, "workloads": summary}))
    return 0 if ok else 1


def _exit_on_sigterm(signum, frame) -> None:
    # unwinds through run_child's finally, which kills the measured process group
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at a few hundred records")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)

    if not (SRC / "tokenjoin" / "pipeline.py").is_file():
        print(f"perfbench: no tokenjoin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tokenjoin

    if SRC.resolve() not in Path(tokenjoin.__file__).resolve().parents:
        print(f"perfbench: imported tokenjoin from {tokenjoin.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    bench, defs = load_definitions()
    if args.smoke:
        return smoke(defs, bench)
    if args.workload not in defs["workloads"]:
        parser.error(f"--workload must be one of {sorted(defs['workloads'])}")
    result, lines = run_workload(defs, bench, args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
