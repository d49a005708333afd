"""Corpus and result file formats.

Corpora are UTF-8 text with LF line endings, either one raw record per line
(ids are the line numbers "0", "1", ... as strings) or ``id<TAB>text`` rows.
Ids may not be empty or contain TAB/LF; line splitting makes the latter two
impossible and ingestion rejects the rest.

Result files hold ``left<TAB>right<TAB>distance`` rows, distance printed to
six decimals (round-half-even), sorted by (left_id, right_id): byte-identical
across runs with equal inputs and configuration.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .errors import DataError
from .textnorm import TokenizedString, tokenize

LINES = "lines"
TSV_ID = "tsv-id"
CORPUS_FORMATS = (LINES, TSV_ID)


def read_corpus(
    path: str | Path,
    fmt: str = LINES,
    scheme: str = "whitespace-punct",
    *,
    lowercase: bool = False,
) -> list[TokenizedString]:
    """Load and tokenize a corpus file."""
    if fmt not in CORPUS_FORMATS:
        raise DataError(f"unknown corpus format {fmt!r}")
    text = Path(path).read_text(encoding="utf-8")
    records: list[TokenizedString] = []
    if fmt == LINES:
        for i, line in enumerate(text.splitlines()):
            records.append(tokenize(line, scheme, record_id=str(i), lowercase=lowercase))
    else:
        seen: set[str] = set()
        for lineno, line in enumerate(text.splitlines(), 1):
            record_id, sep, body = line.partition("\t")
            if not sep:
                raise DataError(f"{path}:{lineno}: expected id<TAB>text")
            if not record_id:
                raise DataError(f"{path}:{lineno}: empty record id")
            if record_id in seen:
                raise DataError(f"{path}:{lineno}: duplicate record id {record_id!r}")
            seen.add(record_id)
            records.append(tokenize(body, scheme, record_id=record_id, lowercase=lowercase))
    return records


def format_results(results: Iterable[tuple[str, str, float]]) -> str:
    """Result rows for ``(left, right, distance)`` triples, such as join's ``JoinResult``."""
    return "".join(f"{left}\t{right}\t{dist:.6f}\n" for left, right, dist in results)


def write_results(path: str | Path, results: Iterable[tuple[str, str, float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_results(results))


def read_results(path: str | Path) -> list[tuple[str, str, float]]:
    """Parse a result file back (lossless round trip)."""
    out: list[tuple[str, str, float]] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected left<TAB>right<TAB>distance")
        out.append((parts[0], parts[1], float(parts[2])))
    return out
