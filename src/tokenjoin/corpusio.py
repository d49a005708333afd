"""Corpus and result file formats.

Corpora are UTF-8 text cut into lines at LF only, CR LF counting as one LF
(:func:`_read_text`); a final LF ends the last line and adds no empty one. Any
other character, a lone CR, VT, FF, NEL or U+2028 included, belongs to its
record. A file that is not UTF-8 raises a :class:`DataError` naming
``path:line`` and the file offset of the first bad byte. Each line is one raw
record (ids are the line numbers "0", "1", ... as strings) or an
``id<TAB>text`` row, cut at its first TAB. Ids may not be empty or contain TAB
or LF; the two cuts make the latter two impossible and ingestion rejects the
rest with a :class:`DataError` naming ``path:line`` of the first failing line:
a missing TAB, an empty id or a repeated id.

A corpus is tokenized with the cyclic collector paused. A ``lines`` file's text,
less its final LF, goes to :func:`textnorm.tokenize_all` as it was decoded;
a ``tsv-id`` file is cut into lines, one loop checks each line and collects
its id and body, and the bodies go to it joined with LF. It tokenizes the
text in the whole-text passes of :mod:`textnorm`, then stores each record
field with one slot store. Records, ids and tokens are those of
:func:`textnorm.tokenize` called line by line.

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

    The text goes through :func:`textnorm.tokenize_all` whole, with the
    cyclic collector paused for the call (records make no reference cycles,
    and a collection would only rescan the records made so far) and left
    as the caller had it.
    """
    if fmt not in CORPUS_FORMATS:
        raise DataError(f"unknown corpus format {fmt!r}")
    if fmt == LINES:
        text, count = _read_text(path)
        ids = list(map(str, range(count)))
    else:
        # id -> body, in file order
        rows: dict[str, str] = {}
        for lineno, line in enumerate(_read_lines(path), 1):
            record_id, sep, body = line.partition("\t")
            if not sep:
                raise DataError(f"{path}:{lineno}: expected id<TAB>text")
            if not record_id:
                raise DataError(f"{path}:{lineno}: empty record id")
            if record_id in rows:
                raise DataError(f"{path}:{lineno}: duplicate record id {record_id!r}")
            rows[record_id] = body
        ids = list(rows)
        text = "\n".join(rows.values())
        del rows
    collecting = gc.isenabled()
    gc.disable()
    try:
        return tokenize_all(text, ids, scheme, lowercase=lowercase)
    finally:
        if collecting:
            gc.enable()


def _read_text(path: str | Path) -> tuple[str, int]:
    """The lines of a UTF-8 file as one text, joined with LF, and their number.

    An LF ends a line, CR LF counting as one LF, and a final LF adds no
    empty line; an empty file holds no lines. The file is decoded from its
    bytes: a text-mode read would turn a lone CR into LF. Bytes that are not
    UTF-8 raise :class:`DataError` as ``path:line: not valid UTF-8 (byte N)``,
    N being the offset of the first bad byte in the file, counted from 0.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8").replace("\r\n", "\n")
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{lineno}: not valid UTF-8 (byte {exc.start})") from exc
    # each LF ends a line, and a nonempty text that no LF ends holds one more
    return text.removesuffix("\n"), text.count("\n") + (text[-1:] not in ("", "\n"))


def _read_lines(path: str | Path) -> list[str]:
    """The lines of :func:`_read_text` as a list."""
    text, count = _read_text(path)
    return text.split("\n") if count else []


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
        # digits with at most one point, as format_results writes them
        if not (parts[2].replace(".", "", 1).isdecimal() and float(parts[2]) <= 1):
            raise DataError(f"{path}:{lineno}: distance {parts[2]!r} is not a fixed-point number in [0, 1]")
        out.append((parts[0], parts[1], float(parts[2])))
    return out
