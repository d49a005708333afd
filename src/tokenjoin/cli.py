"""Batch command-line interface.

Subcommands: ``join`` (the full pipeline), ``dist`` (single-pair probe),
``oracle`` (brute-force reference join for spot checks and golden diffs) and
``gen`` (seeded synthetic corpus generation). Exit codes: 0 success, 2
configuration error, 1 I/O or data error, with a one-line diagnosis naming
the failing stage on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .corpusio import CORPUS_FORMATS, LINES, read_corpus, write_results
from .errors import ConfigError, DataError, StageError
from .oracle import join_bruteforce
from .pipeline import (
    DEDUP_STRATEGIES,
    MATCHING_MODES,
    JoinConfig,
    join,
)
from .setdist import sld_exact, sld_greedy
from .synth import generate_corpus
from .textnorm import TOKENIZER_SCHEMES, WHITESPACE_PUNCT, tokenize
from .strdist import ld

_PAD_DISPLAY = "ε"


def _max_freq(value: str) -> int | float:
    if value.strip().lower() == "inf":
        return math.inf
    try:
        return int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer or 'inf', got {value!r}") from exc


def _default_workers() -> int:
    """CPUs this process may run on; the machine's count where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _add_corpus_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="corpus file (left side)")
    sub.add_argument("--input2", help="second corpus file; absent means self-join")
    sub.add_argument("--format", choices=CORPUS_FORMATS, default=LINES, help="corpus file format")
    sub.add_argument(
        "--tokenizer", choices=TOKENIZER_SCHEMES, default=WHITESPACE_PUNCT, help="tokenizer scheme"
    )
    sub.add_argument("--lowercase", action="store_true", help="case-fold records before tokenizing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenjoin",
        description="Similarity joins of tokenized strings under a normalized setwise edit distance.",
    )
    subs = parser.add_subparsers(dest="command")

    p_join = subs.add_parser("join", help="run the generate-filter-verify join")
    _add_corpus_flags(p_join)
    p_join.add_argument("--output", required=True, help="result file path")
    p_join.add_argument("--threshold", type=float, default=JoinConfig.threshold, help="distance threshold T")
    p_join.add_argument(
        "--max-token-freq",
        type=_max_freq,
        default=JoinConfig.max_token_freq,
        help="drop tokens occurring in more than this many records ('inf' disables)",
    )
    p_join.add_argument("--matching", choices=MATCHING_MODES, default=JoinConfig.matching)
    p_join.add_argument(
        "--dedup",
        choices=DEDUP_STRATEGIES,
        default=JoinConfig.dedup,
        help="dedup grouping; both keep the same pairs, so the choice does not change the join",
    )
    p_join.add_argument(
        "--workers",
        type=int,
        default=_default_workers(),
        help="worker threads for verify (default: the CPUs this process may use)",
    )
    p_join.add_argument("--report", help="write a JSON stage report here")
    p_join.set_defaults(func=cmd_join)

    p_dist = subs.add_parser("dist", help="distance between two strings")
    p_dist.add_argument("a")
    p_dist.add_argument("b")
    p_dist.add_argument("--matching", choices=("fuzzy", "greedy"), default="fuzzy")
    p_dist.add_argument(
        "--tokenizer", choices=TOKENIZER_SCHEMES, default=WHITESPACE_PUNCT, help="tokenizer scheme"
    )
    p_dist.add_argument("--lowercase", action="store_true")
    p_dist.set_defaults(func=cmd_dist)

    p_oracle = subs.add_parser("oracle", help="brute-force reference join (small corpora)")
    _add_corpus_flags(p_oracle)
    p_oracle.add_argument("--output", required=True)
    p_oracle.add_argument("--threshold", type=float, default=0.1)
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = subs.add_parser("gen", help="generate a seeded synthetic corpus")
    p_gen.add_argument("--output", required=True)
    p_gen.add_argument("--size", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--base-tokens", type=int, default=2000)
    p_gen.add_argument("--min-tokens", type=int, default=1)
    p_gen.add_argument("--max-tokens", type=int, default=4)
    p_gen.add_argument("--perturb-rate", type=float, default=0.35)
    p_gen.add_argument("--max-edits", type=int, default=2)
    p_gen.set_defaults(func=cmd_gen)

    return parser


def cmd_join(args: argparse.Namespace) -> int:
    cfg = JoinConfig(
        threshold=args.threshold,
        max_token_freq=args.max_token_freq,
        matching=args.matching,
        dedup=args.dedup,
        self_join=args.input2 is None,
        workers=args.workers,
        tokenizer=args.tokenizer,
    )
    cfg.validate()
    corpus_r = read_corpus(args.input, args.format, args.tokenizer, lowercase=args.lowercase)
    corpus_p = (
        read_corpus(args.input2, args.format, args.tokenizer, lowercase=args.lowercase)
        if args.input2
        else None
    )
    results, report = join(corpus_r, corpus_p, cfg)
    write_results(args.output, results)
    if args.report:
        payload = report.to_dict()
        payload["config"] = cfg.to_dict()
        payload["config"]["lowercase"] = args.lowercase
        payload["config"]["format"] = args.format
        Path(args.report).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


def cmd_dist(args: argparse.Namespace) -> int:
    rec_a = tokenize(args.a, args.tokenizer, record_id="a", lowercase=args.lowercase)
    rec_b = tokenize(args.b, args.tokenizer, record_id="b", lowercase=args.lowercase)
    cost = sld_greedy(rec_a, rec_b) if args.matching == "greedy" else sld_exact(rec_a, rec_b)
    s = cost.sld
    total_len = rec_a.agg_len + rec_b.agg_len
    dist = 0.0 if s == 0 else (2.0 * s) / (total_len + s)
    print(f"nsld: {dist:.6f}")
    print(f"sld: {s}")
    for left_idx, right_idx in cost.pairing:
        left = rec_a.tokens[left_idx] if left_idx is not None else ""
        right = rec_b.tokens[right_idx] if right_idx is not None else ""
        show_l = left if left else _PAD_DISPLAY
        show_r = right if right else _PAD_DISPLAY
        print(f"align: {show_l} ~ {show_r} (ld {ld(left, right)})")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    corpus_r = read_corpus(args.input, args.format, args.tokenizer, lowercase=args.lowercase)
    corpus_p = (
        read_corpus(args.input2, args.format, args.tokenizer, lowercase=args.lowercase)
        if args.input2
        else None
    )
    result = join_bruteforce(corpus_r, corpus_p, args.threshold)
    write_results(args.output, result.pairs)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    if args.size < 0:
        raise ConfigError("size must be >= 0")
    try:
        lines = generate_corpus(
            args.size,
            seed=args.seed,
            base_tokens=args.base_tokens,
            min_tokens=args.min_tokens,
            max_tokens=args.max_tokens,
            perturb_rate=args.perturb_rate,
            max_edits=args.max_edits,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    command = args.command
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"{command}: config: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"{command}: data: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{command}: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
