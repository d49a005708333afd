import pytest

from tokenjoin.synth import generate_corpus
from tokenjoin.textnorm import tokenize


def test_same_seed_same_corpus():
    a = generate_corpus(200, seed=42)
    b = generate_corpus(200, seed=42)
    assert a == b


def test_different_seeds_differ():
    assert generate_corpus(100, seed=1) != generate_corpus(100, seed=2)


def test_size_and_token_counts():
    lines = generate_corpus(300, seed=9, min_tokens=2, max_tokens=3, perturb_rate=0.0)
    assert len(lines) == 300
    for line in lines:
        assert 2 <= len(line.split()) <= 3


def test_perturbation_produces_near_duplicates():
    lines = generate_corpus(400, seed=3, base_tokens=80, perturb_rate=0.5, max_edits=1)
    # with edits in {0,1} a fair share of clones are exact duplicates
    assert len(set(lines)) < len(lines)


def test_zero_size():
    assert generate_corpus(0, seed=1) == []


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        generate_corpus(-1, seed=0)
    with pytest.raises(ValueError):
        generate_corpus(10, seed=0, min_tokens=3, max_tokens=2)
    with pytest.raises(ValueError):
        generate_corpus(10, seed=0, perturb_rate=1.5)


@pytest.mark.parametrize(
    "param, value, message",
    [
        ("base_tokens", 0, "base_tokens must be >= 1"),
        ("base_tokens", -3, "base_tokens must be >= 1"),
        ("zipf_offset", 0, "zipf_offset must be > 0"),
        ("zipf_offset", -5, "zipf_offset must be > 0"),
        ("max_edits", -1, "max_edits must be >= 0"),
        ("alphabet", "", "alphabet must not be empty"),
    ],
)
def test_bad_generator_sizes_rejected_up_front(param, value, message):
    # each used to fail later, if at all: IndexError, ZeroDivisionError or a
    # ValueError from random only once a record was perturbed
    with pytest.raises(ValueError, match=message):
        generate_corpus(3, seed=1, **{param: value})


def test_lines_tokenize_cleanly():
    for line in generate_corpus(100, seed=8):
        ts = tokenize(line, "whitespace-punct", record_id="x")
        assert all(ts.tokens)
