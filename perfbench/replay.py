"""Per-layer numbers for the traced run: StageReport fields and timed replays.

The replays call the public entry points that ``join()`` itself runs --
``NldIndex``, ``LdCache``, ``sld_capped``, ``ld_bounded``, ``length_prunes``,
``histogram_prunes`` and ``tokenize`` -- with the arguments ``join()`` passes,
and time them at the call boundary. They never call the library twins that
only the tests use (``build_token_space``, ``similar_token_pairs``,
``dedup_candidates``, ``length_filter``/``histogram_filter``, ``sld_greedy``).

The probe replay covers the whole kept vocabulary, so its pair count must equal
the similar-tokens stage's ``items_out``, and ``strdist.ld_bounded_calls``
counts the ``ld_bounded`` calls of that whole stage. Filter and verify are
replayed on a record sample (every n-th record of the left side): the sample's
candidates are rebuilt from the posting lists and the probe's token pairs, and
the pairs it accepts must equal the join's result restricted to the sample. A
count that does not reconcile is flagged, not failed.

Verify reuses the ``LdCache`` that ``join()``'s probe has filled, so the verify
replay starts from the probe replay's cache with its counters reset. The verify
figures (``setdist.*`` and ``strdist.ld_bounded_per_verify_pair``) are rates
over the sampled pairs. With a worker pool, each worker's cache holds only the
probes that worker ran, so the join sees a lower hit ratio than the replay.

Each metric group runs behind a guard: if an entry point disappears or changes
signature, the group's metrics are None with the reason, and the end-to-end
run is unaffected.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .spans import Tracer, percentile

STAGES = ("prepare", "index", "similar-tokens", "generate", "dedup", "filter", "verify", "finalize")

TOKENIZE_METRICS = ("textnorm.tokenize_us_p50", "textnorm.tokenize_us_p99")
PROBE_METRICS = (
    "candidates.index_build_ms",
    "candidates.probe_us_p50",
    "candidates.probe_us_p99",
    "candidates.probe_ld_calls",
    "candidates.probe_hit_ratio",
    "candidates.similar_token_pairs",
)
VERIFY_METRICS = (
    "setdist.sld_capped_us_p50",
    "setdist.sld_capped_us_p99",
    "setdist.k2_share",
    "setdist.k3_share",
    "setdist.k4plus_share",
    "setdist.ld_lookups_per_pair",
    "setdist.ld_cache_hit_ratio",
    "strdist.ld_bounded_calls",
    "strdist.ld_bounded_per_verify_pair",
    "strdist.ld_bounded_us_p50",
)

# ld_bounded argument triples kept for the timed ld_bounded replay
_LD_ARGS_KEPT = 20_000

Metrics = dict[str, Any]
Reasons = dict[str, str]


@dataclass
class ReplayInput:
    """What the traced process has after its join: inputs, config, outputs."""

    lines_r: list[str]
    lines_p: list[str] | None
    corpus_r: Sequence  # TokenizedString, in line order
    corpus_p: Sequence | None
    threshold: float
    max_token_freq: int | float
    greedy: bool
    scheme: str
    results: Sequence  # JoinResult
    sample_every: int


def guarded(names: Sequence[str], fn: Callable[[], Metrics]) -> tuple[Metrics, Reasons]:
    """Run one metric group; on any failure its metrics are None with the reason."""
    try:
        return fn(), {}
    except Exception as exc:  # a vanished or changed entry point must not end the run
        reason = f"{type(exc).__name__}: {exc}"
        return dict.fromkeys(names), dict.fromkeys(names, reason)


# ---------------------------------------------------------------------------
# StageReport
# ---------------------------------------------------------------------------

def report_metrics(report: dict, join_s: float) -> tuple[Metrics, Reasons]:
    """Per-layer metrics read from ``StageReport.to_dict()`` of one join."""
    stages = report.get("stages", {})
    filters = report.get("filters", {})

    def stage(name: str, key: str) -> float:
        return stages[name][key]

    formulas: dict[str, Callable[[], float]] = {
        f"pipeline.{s.replace('-', '_')}_ms": (lambda s=s: stage(s, "millis")) for s in STAGES
    }
    formulas.update({
        "pipeline.untracked_ms": lambda: join_s * 1000.0 - sum(c["millis"] for c in stages.values()),
        "pipeline.raw_pairs": lambda: stage("generate", "items_out"),
        "pipeline.unique_pairs": lambda: stage("dedup", "items_out"),
        "pipeline.dedup_ratio": lambda: stage("dedup", "items_out") / stage("generate", "items_out"),
        "pipeline.accepted_pairs": lambda: stage("verify", "items_out"),
        "filters.pruned_by_length": lambda: filters["pruned_by_length"],
        "filters.pruned_by_histogram": lambda: filters["pruned_by_histogram"],
        "filters.surviving": lambda: filters["surviving"],
        "filters.survive_ratio": lambda: filters["surviving"] / stage("dedup", "items_out"),
        "filters.ns_per_pair": lambda: stage("filter", "millis") * 1e6 / stage("dedup", "items_out"),
        "setdist.accept_ratio": lambda: stage("verify", "items_out") / filters["surviving"],
    })
    metrics: Metrics = {}
    reasons: Reasons = {}
    for name, formula in formulas.items():
        try:
            metrics[name] = formula()
        except KeyError as exc:
            metrics[name] = None
            reasons[name] = f"StageReport has no {exc}"
        except ZeroDivisionError:
            metrics[name] = None
            reasons[name] = "ratio over an empty stage"
    return metrics, reasons


def funnel_problems(report: dict) -> list[str]:
    """The funnel must reconcile; returns what does not."""
    try:
        stages = report["stages"]
        f = report["filters"]
        raw = stages["generate"]["items_out"]
        unique = stages["dedup"]["items_out"]
        accepted = stages["verify"]["items_out"]
        parts = f["pruned_by_length"] + f["pruned_by_histogram"] + f["surviving"]
        filter_in = f["input_pairs"]
        surviving = f["surviving"]
    except (KeyError, TypeError) as exc:
        return [f"StageReport lacks a funnel field: {exc!r}"]
    problems = []
    if filter_in != parts:
        problems.append(f"filter input {filter_in} != pruned + surviving {parts}")
    if unique > raw:
        problems.append(f"unique pairs {unique} > raw pairs {raw}")
    if accepted > surviving:
        problems.append(f"accepted pairs {accepted} > surviving pairs {surviving}")
    return problems


# ---------------------------------------------------------------------------
# Replays
# ---------------------------------------------------------------------------

def _kept_postings(corpus: Sequence, max_freq: int | float) -> dict[str, list[int]]:
    """Token -> indexes of the records holding it, for tokens in <= max_freq records."""
    postings: dict[str, list[int]] = {}
    for idx, rec in enumerate(corpus):
        for tok in set(rec.tokens):
            postings.setdefault(tok, []).append(idx)
    return {tok: ids for tok, ids in sorted(postings.items()) if len(ids) <= max_freq}


def _counting_cache_class():
    from tokenjoin.setdist import LdCache

    class CountingLdCache(LdCache):
        """LdCache that counts its lookups."""

        __slots__ = ("lookups",)

        def __init__(self) -> None:
            super().__init__()
            self.lookups = 0

        def bounded(self, x: str, y: str, cap: int) -> int | None:
            self.lookups += 1
            return super().bounded(x, y, cap)

    return CountingLdCache


class _LdBoundedCounter:
    """Stands in for ``setdist.ld_bounded``: counts the cache misses that reach it."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.calls = 0
        self.args: list[tuple[str, str, int]] = []

    def __call__(self, x: str, y: str, cap: int) -> int | None:
        self.calls += 1
        if len(self.args) < _LD_ARGS_KEPT:
            self.args.append((x, y, cap))
        return self.fn(x, y, cap)


@contextmanager
def _counting_ld_bounded():
    import tokenjoin.setdist as setdist

    counter = _LdBoundedCounter(setdist.ld_bounded)
    setdist.ld_bounded = counter
    try:
        yield counter
    finally:
        setdist.ld_bounded = counter.fn


def _timed_calls(tracer: Tracer, name: str, fn: Callable, calls) -> list:
    out = []
    clock = time.perf_counter_ns
    for args in calls:
        t0 = clock()
        value = fn(*args)
        tracer.add(name, t0, clock())
        out.append(value)
    return out


def replay_tokenize(inp: ReplayInput, tracer: Tracer) -> Metrics:
    from tokenjoin.textnorm import tokenize

    step = inp.sample_every
    calls = [(line, inp.scheme) for line in inp.lines_r[::step]]
    if inp.lines_p is not None:
        calls += [(line, inp.scheme) for line in inp.lines_p[::step]]
    with tracer.span("replay.tokenize"):
        _timed_calls(tracer, "textnorm.tokenize", tokenize, calls)
    times = tracer.durations_us("textnorm.tokenize")
    return {
        "textnorm.tokenize_us_p50": percentile(times, 50),
        "textnorm.tokenize_us_p99": percentile(times, 99),
    }


@dataclass
class _Probe:
    post_r: dict[str, list[int]]
    post_p: dict[str, list[int]]
    token_pairs: set[tuple[str, str]]
    ld_calls: int
    cache: Any  # the CountingLdCache the probes filled


def replay_probe(inp: ReplayInput, tracer: Tracer) -> tuple[Metrics, _Probe]:
    """Index build and one probe per kept token, as the similar-tokens stage runs them."""
    from tokenjoin.candidates import NldIndex

    self_join = inp.corpus_p is None
    post_r = _kept_postings(inp.corpus_r, inp.max_token_freq)
    post_p = post_r if self_join else _kept_postings(inp.corpus_p, inp.max_token_freq)
    t = inp.threshold
    with tracer.span("replay.index_build"):
        t0 = time.perf_counter()
        with tracer.span("candidates.NldIndex"):
            index_r = NldIndex(post_r.keys(), t)
        index_p = None
        if not self_join:
            with tracer.span("candidates.NldIndex"):
                index_p = NldIndex(post_p.keys(), t)
        build_ms = (time.perf_counter() - t0) * 1000.0

    cache = _counting_cache_class()()
    pairs: set[tuple[str, str]] = set()
    with _counting_ld_bounded() as misses, tracer.span("replay.probe"):
        if self_join:
            hits = _timed_calls(tracer, "candidates.probe", index_r.probe, [(x, cache) for x in post_r])
            for found in hits:
                for x, y, _ in found:
                    pairs.add((x, y) if (len(x), x) <= (len(y), y) else (y, x))
        else:
            hits = _timed_calls(tracer, "candidates.probe", index_r.probe, [(x, cache) for x in post_p])
            for found in hits:
                pairs.update((y, x) for x, y, _ in found)
            hits = _timed_calls(tracer, "candidates.probe", index_p.probe, [(x, cache) for x in post_r])
            for found in hits:
                pairs.update((x, y) for x, y, _ in found)
    times = tracer.durations_us("candidates.probe")
    metrics = {
        "candidates.index_build_ms": build_ms,
        "candidates.probe_us_p50": percentile(times, 50),
        "candidates.probe_us_p99": percentile(times, 99),
        "candidates.probe_ld_calls": cache.lookups,
        "candidates.probe_hit_ratio": 1.0 - misses.calls / cache.lookups if cache.lookups else None,
        "candidates.similar_token_pairs": len(pairs),
    }
    return metrics, _Probe(post_r, post_p, pairs, misses.calls, cache)


def _sample_pairs(inp: ReplayInput, probe: _Probe) -> tuple[set[int], list[tuple[int, int]]]:
    """Every candidate pair with a sampled left record (either record for a self-join)."""
    self_join = inp.corpus_p is None
    similar: dict[str, set[str]] = {}
    for tok_r, tok_p in probe.token_pairs:
        similar.setdefault(tok_r, set()).add(tok_p)
        if self_join:
            similar.setdefault(tok_p, set()).add(tok_r)
    ids_r = [rec.id for rec in inp.corpus_r]
    ids_p = ids_r if self_join else [rec.id for rec in inp.corpus_p]
    sample = set(range(0, len(inp.corpus_r), inp.sample_every))
    pairs: set[tuple[int, int]] = set()
    for a in sample:
        partners: set[int] = set()
        for tok in set(inp.corpus_r[a].tokens):
            if tok not in probe.post_r:
                continue
            if tok in probe.post_p:
                partners.update(probe.post_p[tok])
            for other in similar.get(tok, ()):
                partners.update(probe.post_p[other])
        if self_join:
            partners.discard(a)
            pairs.update((a, b) if ids_r[a] < ids_r[b] else (b, a) for b in partners)
        else:
            pairs.update((a, b) for b in partners)
    return sample, sorted(pairs, key=lambda p: (ids_r[p[0]], ids_p[p[1]]))


def replay_verify(inp: ReplayInput, tracer: Tracer, probe: _Probe) -> tuple[Metrics, list[str]]:
    """Filter and verify every candidate pair of the record sample."""
    from tokenjoin.filters import histogram_prunes, length_prunes
    from tokenjoin.setdist import sld_capped
    from tokenjoin.strdist import ld_bounded

    self_join = inp.corpus_p is None
    corpus_p = inp.corpus_r if self_join else inp.corpus_p
    num, den = float(inp.threshold).as_integer_ratio()
    with tracer.span("replay.sample_candidates"):
        sample, pairs = _sample_pairs(inp, probe)
    hist_r = [tuple(sorted(len(t) for t in rec.tokens)) for rec in inp.corpus_r]
    hist_p = hist_r if self_join else [tuple(sorted(len(t) for t in rec.tokens)) for rec in corpus_p]

    survivors = []
    with tracer.span("replay.filter"):
        for a, b in pairs:
            la, lb = inp.corpus_r[a].agg_len, corpus_p[b].agg_len
            if length_prunes(la, lb, num, den) or histogram_prunes(hist_r[a], hist_p[b], la, lb, num, den):
                continue
            survivors.append((a, b))

    cache = probe.cache
    cache.lookups = 0
    k_counts: Counter[int] = Counter()
    accepted = set()
    clock = time.perf_counter_ns
    with _counting_ld_bounded() as misses, tracer.span("replay.verify"):
        for a, b in survivors:
            ra, rb = inp.corpus_r[a], corpus_p[b]
            total = ra.agg_len + rb.agg_len
            cap = (num * total) // (2 * den - num)
            t0 = clock()
            s = sld_capped(ra.tokens, rb.tokens, cap, greedy=inp.greedy, ld_cache=cache)
            tracer.add("setdist.sld_capped", t0, clock())
            k_counts[max(len(ra.tokens), len(rb.tokens))] += 1
            if s is not None:
                accepted.add((ra.id, rb.id, (2.0 * s) / (total + s)))
    with tracer.span("replay.ld_bounded"):
        _timed_calls(tracer, "strdist.ld_bounded", ld_bounded, misses.args)

    flags = []
    sample_ids = {inp.corpus_r[a].id for a in sample}
    expected = {
        (jr.left_id, jr.right_id, jr.distance)
        for jr in inp.results
        if jr.left_id in sample_ids or (self_join and jr.right_id in sample_ids)
    }
    # finalize pairs up records without tokens, which never become candidates
    empty = {rec.id for rec in inp.corpus_r if not rec.tokens}
    empty_p = empty if self_join else {rec.id for rec in corpus_p if not rec.tokens}
    expected = {p for p in expected if not (p[0] in empty and p[1] in empty_p)}
    if accepted != expected:
        flags.append(
            f"verify replay accepted {len(accepted)} sample pairs, the join {len(expected)} "
            f"({len(accepted - expected)} only in the replay, {len(expected - accepted)} only in the join)"
        )
    n = len(survivors)
    sld_times = tracer.durations_us("setdist.sld_capped")
    metrics = {
        "setdist.sld_capped_us_p50": percentile(sld_times, 50),
        "setdist.sld_capped_us_p99": percentile(sld_times, 99),
        "setdist.k2_share": k_counts[2] / n if n else None,
        "setdist.k3_share": k_counts[3] / n if n else None,
        "setdist.k4plus_share": sum(c for k, c in k_counts.items() if k >= 4) / n if n else None,
        "setdist.ld_lookups_per_pair": cache.lookups / n if n else None,
        "setdist.ld_cache_hit_ratio": 1.0 - misses.calls / cache.lookups if cache.lookups else None,
        "strdist.ld_bounded_calls": probe.ld_calls,
        "strdist.ld_bounded_per_verify_pair": misses.calls / n if n else None,
        "strdist.ld_bounded_us_p50": percentile(tracer.durations_us("strdist.ld_bounded"), 50),
    }
    return metrics, flags


def run_replays(inp: ReplayInput, tracer: Tracer, report: dict) -> tuple[Metrics, Reasons, list[str]]:
    """All replay groups; returns metrics, reasons for None values, and reconcile flags."""
    metrics: Metrics = {}
    reasons: Reasons = {}
    flags: list[str] = []

    m, r = guarded(TOKENIZE_METRICS, lambda: replay_tokenize(inp, tracer))
    metrics.update(m)
    reasons.update(r)

    probe_out: list[_Probe] = []

    def probe_group() -> Metrics:
        m, probe = replay_probe(inp, tracer)
        probe_out.append(probe)
        return m

    m, r = guarded(PROBE_METRICS, probe_group)
    metrics.update(m)
    reasons.update(r)
    stages = report.get("stages", {})
    if probe_out:
        probe = probe_out[0]
        kept = len(probe.post_r) + (0 if inp.corpus_p is None else len(probe.post_p))
        want_pairs = stages.get("similar-tokens", {}).get("items_out")
        want_kept = stages.get("index", {}).get("items_out")
        if len(probe.token_pairs) != want_pairs:
            flags.append(f"probe replay found {len(probe.token_pairs)} token pairs, similar-tokens items_out is {want_pairs}")
        if kept != want_kept:
            flags.append(f"replay kept {kept} tokens, index items_out is {want_kept}")

        def verify_group() -> Metrics:
            m, f = replay_verify(inp, tracer, probe)
            flags.extend(f)
            return m

        m, r = guarded(VERIFY_METRICS, verify_group)
    else:
        m = dict.fromkeys(VERIFY_METRICS)
        r = dict.fromkeys(VERIFY_METRICS, "needs the token pairs of the probe replay, which failed")
    metrics.update(m)
    reasons.update(r)
    return metrics, reasons, flags
