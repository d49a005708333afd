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
from itertools import chain, compress, count, islice
from operator import attrgetter, eq
from typing import Any, Callable, Iterable, Iterator, Sequence

# the package's modules compile before numpy loads (see strdist)
from .candidates import CandidatePair, NldIndex
from .errors import ConfigError, DataError, StageError
from .filters import FilterStats
from .residual import Residuals, VerifyStats, block_rows, filter_pairs, verify_block
from .setdist import LdCache
from .strdist import threshold_ratio
from .textnorm import TOKENIZER_SCHEMES, WHITESPACE_PUNCT, TokenizedString

import numpy as np

FUZZY = "fuzzy"
GREEDY = "greedy"
EXACT_TOKEN = "exact-token"
MATCHING_MODES = (FUZZY, GREEDY, EXACT_TOKEN)

ONE_STRING = "one-string"
BOTH_STRINGS = "both-strings"
DEDUP_STRATEGIES = (ONE_STRING, BOTH_STRINGS)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF
_PACK_MASK = 0xFFFFFFFF
# dense ids fill the low 31 bits of each packed half, so a packed pair
# (left << 32 | right) and a posting key (token << 32 | record) stay
# non-negative int64 values, which the index and generate stages build
_MAX_RECORDS_PER_SIDE = 1 << 31


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a, fixed constants, bit-exact across platforms."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    return h


def one_string_key_is_left(hash_left: int, hash_right: int) -> bool:
    """Load-balancing side choice for grouping-on-one-string dedup.

    The left id becomes the key iff int(HASH(left) < HASH(right)) equals
    (HASH(left) + HASH(right)) mod 2.
    """
    return (1 if hash_left < hash_right else 0) == ((hash_left + hash_right) & 1)


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


@dataclass(frozen=True, slots=True)
class JoinResult:
    """A verified pair and its normalized setwise distance (<= threshold)."""

    left_id: str
    right_id: str
    distance: float


@dataclass(slots=True)
class StageCounts:
    items_in: int = 0
    items_out: int = 0
    millis: float = 0.0


@dataclass(slots=True)
class StageReport:
    """Per-stage item counts and wall times plus the filter and verify counters.

    The ``pool`` stage, present only when verify made a worker pool, times the
    pool's start-up and shutdown; its items are the pool's processes.
    """

    stages: dict[str, StageCounts] = field(default_factory=dict)
    filters: FilterStats = field(default_factory=FilterStats)
    verify: VerifyStats = field(default_factory=VerifyStats)

    def record(self, name: str, items_in: int, items_out: int, millis: float) -> None:
        self.stages[name] = StageCounts(items_in, items_out, millis)

    def to_dict(self) -> dict[str, Any]:
        return {
            "stages": {
                name: {"items_in": c.items_in, "items_out": c.items_out, "millis": c.millis}
                for name, c in self.stages.items()
            },
            "filters": self.filters.to_dict(),
            "verify": self.verify.to_dict(),
        }


# ---------------------------------------------------------------------------
# Deduplication
# ---------------------------------------------------------------------------

def dedup_candidates(
    pairs: Iterable[CandidatePair],
    strategy: str,
    *,
    hash_bytes: Callable[[Any], bytes] | None = None,
) -> Iterator[CandidatePair]:
    """Pass each distinct (left, right) pair through exactly once.

    ``both-strings`` groups on the full pair key; ``one-string`` keys each pair
    on the side chosen by the hash-parity rule and dedups within that key's
    value set. The fingerprint is 64-bit FNV-1a over the id bytes (utf-8 of
    str(id) unless ``hash_bytes`` overrides).
    """
    if strategy not in DEDUP_STRATEGIES:
        raise ConfigError(f"dedup must be one of {DEDUP_STRATEGIES}, got {strategy!r}")
    if hash_bytes is None:
        hash_bytes = lambda rid: str(rid).encode("utf-8")
    if strategy == BOTH_STRINGS:
        seen: set[tuple] = set()
        for pair in pairs:
            key = (pair.left_id, pair.right_id)
            if key not in seen:
                seen.add(key)
                yield pair
    else:
        by_key: dict[Any, set] = {}
        hashes: dict[Any, int] = {}
        for pair in pairs:
            hl = hashes.get(pair.left_id)
            if hl is None:
                hl = hashes[pair.left_id] = fnv1a_64(hash_bytes(pair.left_id))
            hr = hashes.get(pair.right_id)
            if hr is None:
                hr = hashes[pair.right_id] = fnv1a_64(hash_bytes(pair.right_id))
            if one_string_key_is_left(hl, hr):
                key, partner = pair.left_id, pair.right_id
            else:
                key, partner = pair.right_id, pair.left_id
            bucket = by_key.get(key)
            if bucket is None:
                by_key[key] = {partner}
                yield pair
            elif partner not in bucket:
                bucket.add(partner)
                yield pair


# ---------------------------------------------------------------------------
# The join itself
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class _Side:
    """One corpus in dense-id order (record ids sorted), in columnar form.

    ``counts[i]`` is record i's token count and ``token_lens`` holds the
    lengths of all tokens, record after record, in each record's token order.
    ``token_ids`` holds their interned ids in the same order, from
    :func:`_index` until :class:`residual.Residuals` has read them.
    """

    ids: list[str]
    tokens: list[tuple[str, ...]]
    lens: list[int]
    counts: np.ndarray
    token_lens: np.ndarray
    empties: list[int]
    token_ids: np.ndarray | None = None


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
    token_lens = np.fromiter(
        map(len, chain.from_iterable(tokens)), dtype=np.int64, count=int(counts.sum())
    )
    return _Side(
        ids,
        tokens,
        [rec.agg_len for rec in recs],
        counts,
        token_lens,
        np.flatnonzero(counts == 0).tolist(),
    )


@dataclass(slots=True)
class _Postings:
    """One side's posting lists over the interned token ids, in CSR form.

    The records holding token ``t`` are ``rows[starts[t] : starts[t] +
    counts[t]]``, distinct dense ids in ascending order. ``kept`` marks the
    tokens that occur on this side in at most ``max_token_freq`` records.
    """

    rows: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    kept: np.ndarray


def _postings(side: _Side, token_ids: np.ndarray, n_tokens: int, max_freq: int | float) -> _Postings:
    rows = np.repeat(np.arange(side.counts.size, dtype=np.int64), side.counts)
    # one (token, record) key per occurrence; sorting and keeping the first
    # of each run of equal keys counts a token repeated in a record once
    keys = np.sort((token_ids << 32) | rows)
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
) -> tuple[dict[str, int], _Postings, _Postings]:
    """Intern the tokens of both sides to dense ids and build each side's postings.

    Ids follow the first occurrence of each token, left side first, and
    each side's ``token_ids`` are set. A self-join passes the same side twice
    and gets the same postings twice.
    """
    sides = (side_r,) if side_p is side_r else (side_r, side_p)
    flats = [list(chain.from_iterable(side.tokens)) for side in sides]
    vocab = dict(zip(dict.fromkeys(chain.from_iterable(flats)), count()))
    for side, flat in zip(sides, flats):
        side.token_ids = np.fromiter(map(vocab.__getitem__, flat), dtype=np.int64, count=len(flat))
    posts = [_postings(side, side.token_ids, len(vocab), max_freq) for side in sides]
    return vocab, posts[0], posts[-1]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(s, s + n)`` over the pairs ``(s, n)``.

    Built as one running sum: steps of 1 within a range, and a jump from the
    end of one range to the start of the next.
    """
    nonempty = lengths > 0
    starts, lengths = starts[nonempty], lengths[nonempty]
    out = np.ones(int(lengths.sum()), dtype=np.int64)
    if out.size:
        out[0] = starts[0]
        out[np.cumsum(lengths[:-1])] = starts[1:] - starts[:-1] - lengths[:-1] + 1
        np.cumsum(out, out=out)
    return out


def _cross(
    post_a: _Postings, ta: np.ndarray, post_b: _Postings, tb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every (a, b) with a in the postings of ``ta[k]`` and b in those of ``tb[k]``.

    Pairs come in k order, then a, then b.
    """
    na = post_a.counts[ta]
    a = post_a.rows[_ranges(post_a.starts[ta], na)]
    nb = np.repeat(post_b.counts[tb], na)
    b = post_b.rows[_ranges(np.repeat(post_b.starts[tb], na), nb)]
    return np.repeat(a, nb), b


def _triangles(post: _Postings) -> tuple[np.ndarray, np.ndarray]:
    """Every (a, b), a < b, of two records holding the same kept token."""
    pos = np.flatnonzero(np.repeat(post.kept, post.counts))
    later = np.repeat(post.starts + post.counts, post.counts)[pos] - pos - 1
    return np.repeat(post.rows[pos], later), post.rows[_ranges(pos + 1, later)]


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
    return raw.view(np.uint64)


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
    ``use_filters=False`` skips the pruning stage (the output must not change;
    the differential tests rely on this knob).

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
    num, den = threshold_ratio(cfg.threshold)

    t0 = time.perf_counter()
    side_r = _prepare_side(corpus_r, "left")
    side_p = side_r if self_join else _prepare_side(corpus_p, "right")
    n_records = len(side_r.ids) + (0 if self_join else len(side_p.ids))
    report.record("prepare", n_records, n_records, _ms(t0))

    t0 = time.perf_counter()
    vocab, post_r, post_p = _index(side_r, side_p, cfg.max_token_freq)
    kept_tokens = int(post_r.kept.sum()) + (0 if self_join else int(post_p.kept.sum()))
    report.record("index", n_records, kept_tokens, _ms(t0))

    ld_cache = LdCache()
    vocab_tokens = list(vocab)
    t0 = time.perf_counter()
    residuals = Residuals(
        side_r, side_p, vocab_tokens, num, den, greedy=cfg.matching == GREEDY, ld_cache=ld_cache
    )
    side_r.token_ids = side_p.token_ids = None  # the key rows hold what later stages read
    residual_inputs_ms = _ms(t0)

    t0 = time.perf_counter()
    n_probes, token_pairs = 0, []
    if cfg.matching in (FUZZY, GREEDY):
        n_probes, token_pairs = _similar_tokens(vocab_tokens, post_r, post_p, cfg.threshold, self_join, ld_cache)
    del vocab_tokens
    report.record("similar-tokens", n_probes, len(token_pairs), _ms(t0))

    t0 = time.perf_counter()
    n_pairs = len(token_pairs)
    sim_r = np.fromiter((vocab[tok] for tok, _ in token_pairs), dtype=np.int64, count=n_pairs)
    sim_p = np.fromiter((vocab[tok] for _, tok in token_pairs), dtype=np.int64, count=n_pairs)
    del vocab, token_pairs
    raw = _generate(post_r, post_p, sim_r, sim_p, self_join)
    del post_r, post_p, sim_r, sim_p
    report.record("generate", kept_tokens + n_pairs, int(raw.size), _ms(t0))

    t0 = time.perf_counter()
    n_raw = int(raw.size)
    unique = _dedup_packed(raw)
    del raw
    report.record("dedup", n_raw, int(unique.size), _ms(t0))

    t0 = time.perf_counter()
    if use_filters:
        survivors, report.filters = filter_pairs(unique, residuals)
        report.record("filter", int(unique.size), int(survivors.size), residual_inputs_ms + _ms(t0))
    else:
        survivors = unique
        report.filters = FilterStats(input_pairs=int(unique.size), surviving=int(unique.size))
        report.record("filter", int(unique.size), int(unique.size), _ms(t0))
    del unique

    t0 = time.perf_counter()
    accepted, report.verify, pool = _verify(survivors, residuals, cfg.workers)
    verify_ms = _ms(t0) - (0.0 if pool is None else pool.millis) + (0.0 if use_filters else residual_inputs_ms)
    report.record("verify", int(survivors.size), len(accepted), verify_ms)
    if pool is not None:
        report.stages["pool"] = pool

    t0 = time.perf_counter()
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
    report.record("finalize", len(accepted), len(results), _ms(t0))
    return results, report


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def _dedup_packed(raw: np.ndarray) -> np.ndarray:
    """The distinct pairs of ``raw``, ascending; sorts ``raw`` in place.

    Both dedup strategies keep one copy of each distinct pair, and the copies
    of a pair are equal, so one sort-based pass serves both.
    ``both-strings`` groups on the packed pair itself. ``one-string`` groups
    each pair as (key side, key, partner), with the key side chosen by the
    hash-parity rule; that regrouping maps pairs one to one, so it keeps the
    same pairs. :func:`dedup_candidates` is the grouping as specified.
    """
    raw.sort()
    keep = np.empty(raw.size, dtype=bool)
    keep[:1] = True
    np.not_equal(raw[1:], raw[:-1], out=keep[1:])
    return raw[keep]


def _similar_tokens(
    vocab_tokens: list[str],
    post_r: _Postings,
    post_p: _Postings,
    threshold: float,
    self_join: bool,
    ld_cache: LdCache,
) -> tuple[int, list[tuple[str, str]]]:
    """The number of probes and the distinct pairs of distinct similar kept tokens.

    A self-join probes one index and keys each pair ``(len, str)``-ordered;
    a two-set join probes each side's tokens against the other side's index
    and keys each pair (left token, right token). Either way an equal-length
    pair is found twice and kept once. A token whose plan is empty has no
    distinct partner on that index and is not probed.
    """
    kept_r = list(compress(vocab_tokens, post_r.kept.tolist()))
    index_r = NldIndex(kept_r, threshold)
    if self_join:
        directions = [(index_r, kept_r, lambda x, y: (x, y) if (len(x), x) <= (len(y), y) else (y, x))]
    else:
        kept_p = list(compress(vocab_tokens, post_p.kept.tolist()))
        index_p = NldIndex(kept_p, threshold)
        # a right token's hits on the left index are (right, left) pairs
        directions = [(index_r, kept_p, lambda x, y: (y, x)), (index_p, kept_r, lambda x, y: (x, y))]
    n_probes = 0
    pairs: dict[tuple[str, str], None] = {}
    for index, tokens, key in directions:
        for x in tokens:
            if index.plan(len(x)):
                n_probes += 1
                for _, y, _ in index.probe(x, ld_cache):
                    pairs[key(x, y)] = None
    return n_probes, list(pairs)


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
    t0 = time.perf_counter()
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
            pool = StageCounts(n_workers, n_workers, _ms(t0))
        for packed, dists, block_stats in parts:
            accepted.extend(zip(packed.tolist(), dists.tolist()))
            stats.add(block_stats)
            done += 1
    except Exception as exc:
        raise StageError("verify", done, f"{type(exc).__name__}: {exc}") from exc
    finally:
        if executor is not None:
            t0 = time.perf_counter()
            executor.shutdown(cancel_futures=True)
            if pool is not None:
                pool.millis += _ms(t0)
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
