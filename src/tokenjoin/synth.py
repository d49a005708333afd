"""Seeded synthetic corpora for tests and benchmarks.

Produces raw record lines resembling tokenized names: tokens drawn from a
skewed base vocabulary, with a fraction of records cloned from earlier ones
and perturbed by a few character edits (including the occasional inserted
separator, which changes the token structure). Everything is driven by one
``random.Random(seed)``, so equal parameters reproduce equal corpora.
"""

from __future__ import annotations

import random
import string
from itertools import accumulate

_TOKEN_LEN_CHOICES = (3, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 8, 9)
_SEPARATOR_INSERT_RATE = 0.08


def generate_corpus(
    size: int,
    *,
    seed: int,
    base_tokens: int = 2000,
    min_tokens: int = 1,
    max_tokens: int = 4,
    perturb_rate: float = 0.35,
    max_edits: int = 2,
    zipf_offset: int = 20,
    alphabet: str = string.ascii_lowercase,
) -> list[str]:
    """Generate ``size`` raw record lines.

    ``perturb_rate`` is the chance a record is a clone of an earlier one with
    0..``max_edits`` random character edits (zero edits yields an exact
    duplicate, which keeps very small thresholds non-trivial). Token indices
    are sampled with weight 1/(rank + zipf_offset), so a few tokens are
    frequent and most are rare.
    """
    if size < 0:
        raise ValueError("size must be >= 0")
    if not 1 <= min_tokens <= max_tokens:
        raise ValueError("need 1 <= min_tokens <= max_tokens")
    if not 0 <= perturb_rate <= 1:
        raise ValueError("perturb_rate must be in [0, 1]")
    if base_tokens < 1:
        raise ValueError("base_tokens must be >= 1")
    if not zipf_offset > 0:
        raise ValueError("zipf_offset must be > 0")
    if max_edits < 0:
        raise ValueError("max_edits must be >= 0")
    if not alphabet:
        raise ValueError("alphabet must not be empty")
    rng = random.Random(seed)
    pool = [
        "".join(rng.choice(alphabet) for _ in range(rng.choice(_TOKEN_LEN_CHOICES)))
        for _ in range(base_tokens)
    ]
    cum_weights = list(accumulate(1.0 / (i + zipf_offset) for i in range(base_tokens)))
    counts = list(range(min_tokens, max_tokens + 1))
    count_weights = [1.0 / (1 + abs(c - 2)) for c in counts]

    lines: list[str] = []
    for _ in range(size):
        if lines and rng.random() < perturb_rate:
            source = lines[rng.randrange(len(lines))]
            line = _perturb(source, rng, rng.randint(0, max_edits), alphabet)
        else:
            k = rng.choices(counts, weights=count_weights)[0]
            line = " ".join(rng.choices(pool, cum_weights=cum_weights, k=k))
        lines.append(line)
    return lines


def _perturb(line: str, rng: random.Random, edits: int, alphabet: str) -> str:
    chars = list(line)
    for _ in range(edits):
        if not chars:
            break
        op = rng.randrange(3)
        pos = rng.randrange(len(chars))
        if op == 0:
            chars[pos] = rng.choice(alphabet)
        elif op == 1:
            ins = " " if rng.random() < _SEPARATOR_INSERT_RATE else rng.choice(alphabet)
            chars.insert(pos, ins)
        else:
            del chars[pos]
    return "".join(chars)
