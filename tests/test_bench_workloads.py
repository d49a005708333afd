"""The benchmark's workloads at full size, through the CLI's own read, join and write.

For each workload in ``perfbench/workloads.json`` the ``--seed 0`` corpus is
written to a file in each corpus format, a ``lines`` file as the benchmark
writes it and a ``tsv-id`` file with each line's number as its id, read back
with :func:`corpusio.read_corpus`, joined, and written with
:func:`corpusio.write_results`; the file must hash to the workload's pinned
reference, since the ids are the same in both formats. This guards both read
paths on bench-shaped data. It reads the benchmark's definitions and changes
nothing there.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from tokenjoin.corpusio import CORPUS_FORMATS, LINES, read_corpus, write_results
from tokenjoin.pipeline import JoinConfig, join
from tokenjoin.synth import generate_corpus

DEFINITIONS = json.loads((Path(__file__).parents[1] / "perfbench" / "workloads.json").read_text(encoding="utf-8"))


# the default format keeps the bare workload name as its test id
CASES = [
    pytest.param(name, fmt, id=name if fmt == LINES else f"{name}-{fmt}")
    for name in sorted(DEFINITIONS["workloads"])
    for fmt in CORPUS_FORMATS
]


@pytest.mark.parametrize("name, fmt", CASES)
def test_seed_0_corpus_reproduces_its_reference(name, fmt, tmp_path):
    workload = DEFINITIONS["workloads"][name]
    gen = dict(workload["generator"])
    size, base_seed = gen.pop("size"), gen.pop("base_seed")
    lines = generate_corpus(size, seed=base_seed, **gen)
    split = workload["two_set_split"]
    sides = [lines] if split is None else [lines[:split], lines[split:]]
    corpora = []
    for i, side in enumerate(sides):
        path = tmp_path / f"corpus{i}.txt"
        rows = side if fmt == LINES else [f"{n}\t{line}" for n, line in enumerate(side)]
        path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        corpora.append(read_corpus(path, fmt))
    cfg = JoinConfig(self_join=split is None, **workload["join"])
    results, _ = join(corpora[0], corpora[1] if split is not None else None, cfg)
    output = tmp_path / "out.tsv"
    write_results(output, results)
    assert hashlib.sha256(output.read_bytes()).hexdigest() == DEFINITIONS["references"]["full"][name]["0"]
