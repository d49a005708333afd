"""One measured join in a fresh process, on the CLI's own path.

``run.py`` starts this once per measured run, so ``ru_maxrss`` is the high-water
mark of that join alone:

    python3 -m perfbench.measure SPEC.json RESULT.json

The spec names the source tree, corpus file(s), join config and output paths.
The process reads the corpus ``read_reps`` times (each read is one setup
sample), times ``calibrate`` right before it joins the last read, writes the
result file and records wall time, CPU time of itself and its pool children,
and peak RSS. With ``trace`` set it also records spans and runs the per-layer
replays after the join.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def _cpu_s(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def calibrate() -> float:
    """Seconds this host takes now for a fixed pure-Python loop of dict and set work.

    It uses no tokenjoin code, so a change to the program does not change it,
    and runs with the collector off, so the program's live objects do not either.
    At about a tenth of a second it spans many of the host's slow and fast
    slices of tens of milliseconds, as a join does.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        words = [format(i * 2654435761 % 1000003, "x") for i in range(60000)]
        pairs: dict[str, int] = {}
        for word in words:
            for j in range(len(word) - 1):
                pairs[word[j:j + 2]] = pairs.get(word[j:j + 2], 0) + 1
        {word[::-1] for word in words}
        return time.perf_counter() - t0
    finally:
        gc.enable()


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from tokenjoin.corpusio import read_corpus, write_results
    from tokenjoin.pipeline import GREEDY, JoinConfig, join

    from .replay import ReplayInput, report_metrics, run_replays
    from .spans import Tracer

    left, right = spec["left"], spec["right"]
    cfg = JoinConfig(self_join=right is None, **spec["join"])
    tracer = Tracer(spec["run_id"]) if spec["trace"] else None

    def span(name: str):
        return tracer.span(name) if tracer else nullcontext()

    with span("measure"):
        read_s = []
        corpus_r = corpus_p = None
        for _ in range(spec["read_reps"]):
            corpus_r = corpus_p = None
            t0 = time.perf_counter()
            with span("corpusio.read_corpus"):
                corpus_r = read_corpus(left, scheme=cfg.tokenizer)
                if right is not None:
                    corpus_p = read_corpus(right, scheme=cfg.tokenizer)
            read_s.append(time.perf_counter() - t0)
        gc.collect()
        cal_s = calibrate()

        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        with span("pipeline.join"):
            results, report = join(corpus_r, corpus_p, cfg)
        join_s = time.perf_counter() - t0
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

        t0 = time.perf_counter()
        with span("corpusio.write_results"):
            write_results(spec["output"], results)
        write_s = time.perf_counter() - t0

        record = {
            "join_s": join_s,
            "read_s": read_s,
            "cal_s": cal_s,
            "write_s": write_s,
            "cpu_s": _cpu_s(self1) - _cpu_s(self0) + _cpu_s(kids1) - _cpu_s(kids0),
            "peak_rss_mb": self1.ru_maxrss / 1024.0,
            "pool_child_peak_rss_mb": kids1.ru_maxrss / 1024.0,
            "sha256": hashlib.sha256(Path(spec["output"]).read_bytes()).hexdigest(),
            "pairs": len(results),
            "report": report.to_dict(),
        }

        if tracer is not None:
            metrics, reasons = report_metrics(record["report"], join_s)
            inp = ReplayInput(
                lines_r=Path(left).read_text(encoding="utf-8").splitlines(),
                lines_p=None if right is None else Path(right).read_text(encoding="utf-8").splitlines(),
                corpus_r=corpus_r,
                corpus_p=corpus_p,
                threshold=cfg.threshold,
                max_token_freq=cfg.max_token_freq,
                greedy=cfg.matching == GREEDY,
                scheme=cfg.tokenizer,
                results=results,
                sample_every=spec["replay_sample_every"],
            )
            replay_metrics, replay_reasons, flags = run_replays(inp, tracer, record["report"])
            metrics.update(replay_metrics)
            reasons.update(replay_reasons)
            record.update(per_layer=metrics, reasons=reasons, flags=flags)

    if tracer is not None:
        record["self_ms"] = tracer.self_times_ms()
        tracer.write(Path(spec["trace_path"]))
    Path(argv[2]).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
