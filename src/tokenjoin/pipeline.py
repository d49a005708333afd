"""Join orchestration: generate, dedup, filter, verify.

Every stage is deterministic: output depends only on the corpora and the
configuration, never on the worker count or input record order. Every stage
runs in the calling process, mostly as numpy array code, except that verify
maps its blocks over one fork-based process pool when ``workers`` is above 1
and its survivors fill more than one block. A worker that fails or dies ends
the join with a :class:`StageError`.

Record ids are interned to dense integers in sorted-id order, and tokens to
dense integers in first-occurrence order. The token index is a pair of CSR
arrays per side, and candidate pairs travel as single packed integers (left in
the high 32 bits) to keep the multi-million-pair streams compact.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from itertools import chain, count, islice
from operator import attrgetter, eq
from typing import Any, NamedTuple, Sequence

# numpy loads with residual, once the modules without it have compiled (see
# strdist); candidates uses numpy too, so it comes after residual
from .errors import ConfigError, DataError, StageError
from .filters import FilterStats
from .residual import Residuals, VerifyStats, block_rows, length_survivors, verify_block
from .candidates import SimilarStats, ranges, similar_token_pairs, sorted_distinct
from .strdist import TokenTable, threshold_bounds, token_table
from .textnorm import TOKENIZER_SCHEMES, WHITESPACE_PUNCT, TokenizedString

import numpy as np

FUZZY = "fuzzy"
GREEDY = "greedy"
EXACT_TOKEN = "exact-token"
MATCHING_MODES = (FUZZY, GREEDY, EXACT_TOKEN)

ONE_STRING = "one-string"
BOTH_STRINGS = "both-strings"
DEDUP_STRATEGIES = (ONE_STRING, BOTH_STRINGS)

_PACK_MASK = 0xFFFFFFFF
# dense ids fill the low 31 bits of each packed half, so a packed pair
# (left << 32 | right) and a posting key (token << 32 | record) stay
# non-negative int64 values, which the index and generate stages build
_MAX_RECORDS_PER_SIDE = 1 << 31


@dataclass(frozen=True)
class JoinConfig:
    """Everything a join run depends on besides the corpora themselves.

    ``dedup`` is validated and reported, but it does not change the join: both
    strategies keep the same pairs, and :func:`join` runs one pass for either.
    """

    threshold: float = 0.1
    max_token_freq: int | float = 1000
    matching: str = FUZZY
    dedup: str = ONE_STRING
    self_join: bool = True
    workers: int = 1
    tokenizer: str = WHITESPACE_PUNCT

    def validate(self) -> None:
        t = self.threshold
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not 0 <= t < 1:
            raise ConfigError(f"threshold must be in [0, 1), got {t!r}")
        m = self.max_token_freq
        if m != math.inf and (isinstance(m, bool) or not isinstance(m, int) or m < 1):
            raise ConfigError(f"max_token_freq must be a positive integer or inf, got {m!r}")
        if self.matching not in MATCHING_MODES:
            raise ConfigError(f"matching must be one of {MATCHING_MODES}, got {self.matching!r}")
        if self.dedup not in DEDUP_STRATEGIES:
            raise ConfigError(f"dedup must be one of {DEDUP_STRATEGIES}, got {self.dedup!r}")
        if isinstance(self.workers, bool) or not isinstance(self.workers, int) or self.workers < 1:
            raise ConfigError(f"workers must be a positive integer, got {self.workers!r}")
        if self.tokenizer not in TOKENIZER_SCHEMES:
            raise ConfigError(f"tokenizer must be one of {TOKENIZER_SCHEMES}, got {self.tokenizer!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "threshold": self.threshold,
            "max_token_freq": "inf" if self.max_token_freq == math.inf else self.max_token_freq,
            "matching": self.matching,
            "dedup": self.dedup,
            "self_join": self.self_join,
            "workers": self.workers,
            "tokenizer": self.tokenizer,
        }


class JoinResult(NamedTuple):
    """A verified pair and its normalized setwise distance (<= threshold)."""

    left_id: str
    right_id: str
    distance: float


@dataclass(slots=True)
class StageCounts:
    """A stage's items in and out, and its wall and CPU milliseconds.

    ``cpu_ms`` is the CPU time of the joining process over the same span as
    ``millis`` (``time.process_time``). Verify blocks that run in a pool's
    child processes are not included: their CPU time is the children's.
    """

    items_in: int = 0
    items_out: int = 0
    millis: float = 0.0
    cpu_ms: float = 0.0


@dataclass(slots=True)
class StageReport:
    """Per-stage item counts, wall and CPU times, and the similar-token, filter and verify counters.

    The ``pool`` stage, present only when verify made a worker pool, times the
    pool's start-up and shutdown; its items are the pool's processes.
    """

    stages: dict[str, StageCounts] = field(default_factory=dict)
    similar: SimilarStats = field(default_factory=SimilarStats)
    filters: FilterStats = field(default_factory=FilterStats)
    verify: VerifyStats = field(default_factory=VerifyStats)

    def record(self, name: str, items_in: int, items_out: int, millis: float, cpu_ms: float) -> None:
        self.stages[name] = StageCounts(items_in, items_out, millis, cpu_ms)

    def to_dict(self) -> dict[str, Any]:
        return {
            "stages": {
                name: {"items_in": c.items_in, "items_out": c.items_out, "millis": c.millis, "cpu_ms": c.cpu_ms}
                for name, c in self.stages.items()
            },
            "similar": self.similar.to_dict(),
            "filters": self.filters.to_dict(),
            "verify": self.verify.to_dict(),
        }


@dataclass(slots=True)
class _Side:
    """One corpus in dense-id order (record ids sorted), in columnar form.

    ``counts[i]`` is record i's token count and ``lens[i]`` its aggregate
    length. ``empties`` lists the records of aggregate length 0: each is at
    distance 0 from every other one and beyond every threshold below 1 from
    a longer record, so finalize pairs them and they hold no postings.
    """

    ids: list[str]
    tokens: list[tuple[str, ...]]
    lens: np.ndarray
    counts: np.ndarray
    empties: list[int]


def _check_side_size(n_records: int, label: str) -> None:
    if n_records >= _MAX_RECORDS_PER_SIDE:
        raise DataError(
            f"{label} corpus has {n_records} records; packed pair ids allow at most "
            f"{_MAX_RECORDS_PER_SIDE - 1} per side"
        )


def _prepare_side(corpus: Sequence[TokenizedString], label: str) -> _Side:
    _check_side_size(len(corpus), label)
    recs = sorted(corpus, key=attrgetter("id"))
    ids = [rec.id for rec in recs]
    if any(map(eq, ids, islice(ids, 1, None))):
        dup = next(a for a, b in zip(ids, islice(ids, 1, None)) if a == b)
        raise DataError(f"duplicate record id {dup!r} in {label} corpus")
    tokens = [rec.tokens for rec in recs]
    counts = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    lens = np.fromiter(map(attrgetter("agg_len"), recs), dtype=np.int64, count=len(recs))
    return _Side(ids, tokens, lens, counts, np.flatnonzero(lens == 0).tolist())


@dataclass(slots=True)
class _Postings:
    """One side's posting lists over the interned token ids, in CSR form.

    The records holding token ``t`` are ``rows[starts[t] : starts[t] +
    counts[t]]``, distinct dense ids in ascending order; records of
    aggregate length 0 hold no postings. ``kept`` marks the tokens that
    occur on this side in at most ``max_token_freq`` records that hold
    postings.
    """

    rows: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    kept: np.ndarray


def _postings(side: _Side, token_ids: np.ndarray, n_tokens: int, max_freq: int | float) -> _Postings:
    rows = np.repeat(np.arange(side.counts.size, dtype=np.int64), side.counts)
    # one (token, record) key per occurrence; sorting and keeping the first
    # of each run of equal keys counts a token repeated in a record once
    keys = np.sort(((token_ids << 32) | rows)[np.repeat(side.lens > 0, side.counts)])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    counts = np.bincount(keys >> 32, minlength=n_tokens)
    return _Postings(
        keys & _PACK_MASK,
        np.cumsum(counts) - counts,
        counts,
        (counts > 0) & (counts <= max_freq),
    )


def _index(
    side_r: _Side, side_p: _Side, max_freq: int | float
) -> tuple[TokenTable, np.ndarray, np.ndarray, _Postings, _Postings]:
    """Intern the tokens of both sides to dense ids and build each side's postings.

    Returns the code-point table of the vocabulary, token id i at position
    i, which the similar-token search and verify's kernel read; each side's
    token ids, record after record, which the filter stage builds the
    residual rows from; and each side's postings. Ids follow the first
    occurrence of each token, left side first. A self-join passes the same
    side twice and gets the same ids and postings twice.
    """
    sides = (side_r,) if side_p is side_r else (side_r, side_p)
    flats = [list(chain.from_iterable(side.tokens)) for side in sides]
    vocab = dict(zip(dict.fromkeys(chain.from_iterable(flats)), count()))
    ids = [np.fromiter(map(vocab.__getitem__, flat), dtype=np.int64, count=len(flat)) for flat in flats]
    posts = [_postings(side, side_ids, len(vocab), max_freq) for side, side_ids in zip(sides, ids)]
    return token_table(vocab), ids[0], ids[-1], posts[0], posts[-1]


def _cross(
    post_a: _Postings, ta: np.ndarray, post_b: _Postings, tb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every (a, b) with a in the postings of ``ta[k]`` and b in those of ``tb[k]``.

    Pairs come in k order, then a, then b.
    """
    na = post_a.counts[ta]
    a = post_a.rows[ranges(post_a.starts[ta], na)]
    nb = np.repeat(post_b.counts[tb], na)
    b = post_b.rows[ranges(np.repeat(post_b.starts[tb], na), nb)]
    return np.repeat(a, nb), b


def _triangles(post: _Postings) -> tuple[np.ndarray, np.ndarray]:
    """Every (a, b), a < b, of two records holding the same kept token."""
    pos = np.flatnonzero(np.repeat(post.kept, post.counts))
    later = np.repeat(post.starts + post.counts, post.counts)[pos] - pos - 1
    return np.repeat(post.rows[pos], later), post.rows[ranges(pos + 1, later)]


def _pack_into(out: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    np.left_shift(left, 32, out=out)
    np.bitwise_or(out, right, out=out)


def _generate(
    post_r: _Postings,
    post_p: _Postings,
    sim_r: np.ndarray,
    sim_p: np.ndarray,
    self_join: bool,
) -> np.ndarray:
    """Packed record pairs: shared-token pairs, then similar-token pairs.

    ``(sim_r[k], sim_p[k])`` are the token ids of the k-th pair of distinct
    similar tokens. They never pair a token with itself, whose record pairs
    the shared-token expansion already holds. Each route is packed straight
    into ``raw``, sized up front from the posting counts, so no more than one
    route's (left, right) arrays exist beside it.
    """
    if self_join:
        kept = post_r.counts[post_r.kept]
        n_shared = int((kept * (kept - 1) // 2).sum())
    else:
        both = np.flatnonzero(post_r.kept & post_p.kept)
        n_shared = int(post_r.counts[both] @ post_p.counts[both])
    n_similar = int(post_r.counts[sim_r] @ post_p.counts[sim_p])
    raw = np.empty(n_shared + n_similar, dtype=np.int64)
    shared = _triangles(post_r) if self_join else _cross(post_r, both, post_p, both)
    _pack_into(raw[:n_shared], *shared)
    del shared
    a, b = _cross(post_r, sim_r, post_p, sim_p)
    if self_join:
        # drop a == b and order each pair as (min, max), compacting in place
        similar = raw[n_shared:]
        distinct = a != b
        np.minimum(a, b, out=similar)
        np.maximum(a, b, out=b)
        del a
        _pack_into(similar, similar, b)
        del b
        n_similar = int(np.count_nonzero(distinct))
        similar[:n_similar] = similar[distinct]
        raw = raw[: n_shared + n_similar]
    else:
        _pack_into(raw[n_shared:], a, b)
    return raw


def join(
    corpus_r: Sequence[TokenizedString],
    corpus_p: Sequence[TokenizedString] | None,
    cfg: JoinConfig,
    *,
    use_filters: bool = True,
) -> tuple[list[JoinResult], StageReport]:
    """Find every record pair within the configured distance threshold.

    ``corpus_p`` of None selects a self-join. Fuzzy matching with no frequency
    cap returns exactly the true pair set; greedy and exact-token modes return
    subsets of it (never false positives). Results are sorted by
    (left_id, right_id) and byte-identical across runs and worker counts.
    ``use_filters=False`` skips the filter stage's length prune, and verify's
    residual bound rejects are then counted as verify's, not as the filter's
    (the output must not change; the differential tests rely on this knob).

    The cyclic garbage collector is paused for the call and left as the
    caller had it: the join makes no reference cycles, and a full collection
    would only rescan the long-lived corpus.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _join(corpus_r, corpus_p, cfg, use_filters)
    finally:
        if collecting:
            gc.enable()


def _join(
    corpus_r: Sequence[TokenizedString],
    corpus_p: Sequence[TokenizedString] | None,
    cfg: JoinConfig,
    use_filters: bool,
) -> tuple[list[JoinResult], StageReport]:
    cfg.validate()
    self_join = corpus_p is None
    if self_join != cfg.self_join:
        raise ConfigError(
            "cfg.self_join must match the corpora: "
            f"self_join={cfg.self_join} but corpus_p is {'absent' if corpus_p is None else 'present'}"
        )
    report = StageReport()

    t0 = _start()
    side_r = _prepare_side(corpus_r, "left")
    side_p = side_r if self_join else _prepare_side(corpus_p, "right")
    n_records = len(side_r.ids) + (0 if self_join else len(side_p.ids))
    max_len = int(max(side_r.lens.max(initial=0), side_p.lens.max(initial=0)))
    bounds = threshold_bounds(cfg.threshold, max_len)
    report.record("prepare", n_records, n_records, *_elapsed(t0))

    t0 = _start()
    table, ids_r, ids_p, post_r, post_p = _index(side_r, side_p, cfg.max_token_freq)
    kept_tokens = int(post_r.kept.sum()) + (0 if self_join else int(post_p.kept.sum()))
    report.record("index", n_records, kept_tokens, *_elapsed(t0))

    t0 = _start()
    sim_r = sim_p = np.empty(0, dtype=np.int64)
    if cfg.matching in (FUZZY, GREEDY):
        report.similar, sim_r, sim_p = similar_token_pairs(
            table,
            post_r.kept,
            None if self_join else post_p.kept,
            bounds,
        )
    n_pairs = int(sim_r.size)
    report.record("similar-tokens", report.similar.probes, n_pairs, *_elapsed(t0))

    t0 = _start()
    raw = _generate(post_r, post_p, sim_r, sim_p, self_join)
    del post_r, post_p, sim_r, sim_p
    report.record("generate", kept_tokens + n_pairs, int(raw.size), *_elapsed(t0))

    t0 = _start()
    n_raw = int(raw.size)
    unique = dedup_candidates(raw)
    del raw
    report.record("dedup", n_raw, int(unique.size), *_elapsed(t0))

    t0 = _start()
    n_unique = int(unique.size)
    residuals = Residuals(side_r, side_p, ids_r, ids_p, table, bounds, greedy=cfg.matching == GREEDY)
    del ids_r, ids_p, table
    survivors = length_survivors(unique, residuals) if use_filters else unique
    del unique
    report.record("filter", n_unique, int(survivors.size), *_elapsed(t0))

    t0 = _start()
    accepted, report.verify, pool = _verify(survivors, residuals, cfg.workers)
    millis, cpu_ms = _elapsed(t0)
    if pool is not None:
        millis -= pool.millis
        cpu_ms -= pool.cpu_ms
    # with the filter stage on, verify's residual bound is its second prune
    pruned = report.verify.residual_rejects if use_filters else 0
    report.verify.residual_rejects -= pruned
    n_verified = int(survivors.size) - pruned
    report.filters = FilterStats(n_unique, n_unique - int(survivors.size), pruned, n_verified)
    report.stages["filter"].items_out = n_verified
    report.record("verify", n_verified, len(accepted), millis, cpu_ms)
    if pool is not None:
        report.stages["pool"] = pool

    t0 = _start()
    if self_join:
        emp = side_r.empties
        for i in range(len(emp) - 1):
            hi = emp[i] << 32
            accepted.extend((hi | emp[j], 0.0) for j in range(i + 1, len(emp)))
    else:
        for left in side_r.empties:
            hi = left << 32
            accepted.extend((hi | right, 0.0) for right in side_p.empties)
    # dense ids follow sorted record ids on each side, so packed order is
    # (left_id, right_id) order
    accepted.sort()
    ids_l, ids_r = side_r.ids, side_p.ids
    results = [
        JoinResult(ids_l[packed >> 32], ids_r[packed & _PACK_MASK], dist)
        for packed, dist in accepted
    ]
    report.record("finalize", len(accepted), len(results), *_elapsed(t0))
    return results, report


def _start() -> tuple[float, float]:
    """The wall and CPU time of this process, in seconds."""
    return time.perf_counter(), time.process_time()


def _elapsed(t0: tuple[float, float]) -> tuple[float, float]:
    """Milliseconds of wall and CPU time since ``t0``, a :func:`_start`."""
    wall, cpu = t0
    return (time.perf_counter() - wall) * 1000.0, (time.process_time() - cpu) * 1000.0


def dedup_candidates(raw: np.ndarray) -> np.ndarray:
    """The distinct packed pairs of ``raw``, ascending; sorts ``raw`` in place.

    Serves both ``dedup`` strategies. Each keeps one copy of each distinct
    pair, and the copies of a pair are equal: ``both-strings`` groups on the
    pair itself, and ``one-string`` groups each pair under one of its two
    ids, which maps pairs one to one and so keeps the same pairs.
    """
    return sorted_distinct(raw)


def _verify(
    survivors: np.ndarray, residuals: Residuals, workers: int
) -> tuple[list[tuple[int, float]], VerifyStats, StageCounts | None]:
    """(packed pair, distance) of each survivor within the threshold, the
    counters, and the ``pool`` stage if a pool was made.

    Runs :func:`residual.verify_block` over blocks of survivors, in block
    order: in the caller, or over a fork-based process pool when ``workers``
    is above 1 and there is more than one block. The pool stage times the
    pool's start-up (making it and handing it the blocks, which forks the
    workers) and its shutdown. A block that raises, or a worker that dies,
    becomes a :class:`StageError` naming the first block whose result is
    missing; pending blocks are cancelled.
    """
    step = block_rows(residuals.width)
    blocks = [survivors[start : start + step] for start in range(0, survivors.size, step)]
    n_workers = min(workers, len(blocks))
    t0 = _start()
    executor = _fork_executor(n_workers, residuals) if n_workers > 1 else None
    pool = None
    accepted: list[tuple[int, float]] = []
    stats = VerifyStats()
    done = 0
    try:
        if executor is None:
            parts = (verify_block(block, residuals) for block in blocks)
        else:
            parts = executor.map(_verify_task, blocks)
            pool = StageCounts(n_workers, n_workers, *_elapsed(t0))
        for packed, dists, block_stats in parts:
            accepted.extend(zip(packed.tolist(), dists.tolist()))
            stats.add(block_stats)
            done += 1
    except Exception as exc:
        raise StageError("verify", done, f"{type(exc).__name__}: {exc}") from exc
    finally:
        if executor is not None:
            t0 = _start()
            executor.shutdown(cancel_futures=True)
            if pool is not None:
                millis, cpu_ms = _elapsed(t0)
                pool.millis += millis
                pool.cpu_ms += cpu_ms
    return accepted, stats, pool


def _fork_executor(workers: int, residuals: Residuals):
    """A process pool whose workers inherit ``residuals`` by fork, or None without fork.

    Imported here: ``concurrent.futures`` would otherwise add to every
    process that imports the package, pool or not.
    """
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return None  # no fork on this platform: verify runs inline
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=context, initializer=_set_residuals, initargs=(residuals,))


_worker_residuals: Residuals | None = None


def _set_residuals(residuals: Residuals) -> None:
    global _worker_residuals
    _worker_residuals = residuals


def _verify_task(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, VerifyStats]:
    return verify_block(block, _worker_residuals)
