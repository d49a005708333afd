"""Corpus and result file formats.

Corpora are UTF-8 text cut into lines at LF only, CR LF counting as one LF
(:func:`_read_lines`); a final LF ends the last line and adds no empty one. Any
other character, a lone CR, VT, FF, NEL or U+2028 included, belongs to its
record. A file that is not UTF-8 raises a :class:`DataError` naming
``path:line`` and the file offset of the first bad byte. Each line is one raw
record (ids are the line numbers "0", "1", ... as strings) or an
``id<TAB>text`` row, cut at its first TAB. Ids may not be empty or contain TAB
or LF; the two cuts make the latter two impossible and ingestion rejects the
rest with a :class:`DataError` naming ``path:line`` of the first failing line:
a missing TAB, an empty id or a repeated id.

A corpus is read with the cyclic collector paused: one cut into lines,
then (``tsv-id``) one loop that checks each line and collects its id and
body, then :func:`textnorm.tokenize_all` over all the lines in whole-text
passes, 16,384 lines at a time: one join of the lines, one lowercasing and
(``whitespace-punct``) one translate of the punctuation to spaces over the
text's UTF-8 bytes, lowercasing first (see :mod:`textnorm`), then one
``str.split()`` per line; then one slot store per record field. Records, ids
and tokens are those of :func:`textnorm.tokenize` called line by line.

Result files hold ``left<TAB>right<TAB>distance`` rows, distance printed to
six decimals (round-half-even), sorted by (left_id, right_id): byte-identical
across runs with equal inputs and configuration.
"""

from __future__ import annotations

import gc
from collections.abc import Iterable
from pathlib import Path

from .errors import DataError
from .textnorm import TokenizedString, tokenize_all

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
    """Load and tokenize a corpus file, one record per line, in file order.

    The lines go through :func:`textnorm.tokenize_all` together, with the
    cyclic collector paused for the call (records make no reference cycles,
    and a collection would only rescan the records made so far) and left
    as the caller had it.
    """
    if fmt not in CORPUS_FORMATS:
        raise DataError(f"unknown corpus format {fmt!r}")
    lines = _read_lines(path)
    collecting = gc.isenabled()
    gc.disable()
    try:
        if fmt == LINES:
            return tokenize_all(lines, map(str, range(len(lines))), scheme, lowercase=lowercase)
        ids: list[str] = []
        bodies: list[str] = []
        seen: set[str] = set()
        for lineno, line in enumerate(lines, 1):
            record_id, sep, body = line.partition("\t")
            if not sep:
                raise DataError(f"{path}:{lineno}: expected id<TAB>text")
            if not record_id:
                raise DataError(f"{path}:{lineno}: empty record id")
            if record_id in seen:
                raise DataError(f"{path}:{lineno}: duplicate record id {record_id!r}")
            seen.add(record_id)
            ids.append(record_id)
            bodies.append(body)
        return tokenize_all(bodies, ids, scheme, lowercase=lowercase)
    finally:
        if collecting:
            gc.enable()


def _read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 file, cut at each LF, CR LF counting as one; a final LF adds no empty line.

    The file is decoded from its bytes: a text-mode read would turn a lone
    CR into LF. Bytes that are not UTF-8 raise :class:`DataError` as
    ``path:line: not valid UTF-8 (byte N)``, N being the offset of the first
    bad byte in the file, counted from 0.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{lineno}: not valid UTF-8 (byte {exc.start})") from exc
    lines = text.replace("\r\n", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def format_results(results: Iterable[tuple[str, str, float]]) -> str:
    """Result rows for ``(left, right, distance)`` triples, such as join's ``JoinResult``."""
    return "".join(f"{left}\t{right}\t{dist:.6f}\n" for left, right, dist in results)


def write_results(path: str | Path, results: Iterable[tuple[str, str, float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_results(results))


def read_results(path: str | Path) -> list[tuple[str, str, float]]:
    """Parse a result file back (lossless round trip)."""
    out: list[tuple[str, str, float]] = []
    for lineno, line in enumerate(_read_lines(path), 1):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected left<TAB>right<TAB>distance")
        out.append((parts[0], parts[1], float(parts[2])))
    return out
