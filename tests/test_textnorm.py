import re
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tokenjoin.textnorm import TOKENIZER_SCHEMES, WHITESPACE, WHITESPACE_PUNCT, TokenizedString, tokenize, tokenize_all


def test_whitespace_scheme_reference_example():
    ts = tokenize("chan kalan", WHITESPACE, record_id="r")
    assert ts.tokens == ("chan", "kalan")
    assert ts.agg_len == 9
    assert ts.token_count == 2


def test_empty_input_yields_empty_multiset():
    ts = tokenize("", WHITESPACE)
    assert ts.tokens == ()
    assert ts.agg_len == 0
    assert ts.token_count == 0


def test_whitespace_punct_strips_punctuation():
    ts = tokenize("Obamma, Boraak H.", WHITESPACE_PUNCT)
    assert ts.tokens == ("Obamma", "Boraak", "H")
    # cross-check against a reference regex split over the same separator set
    ref = [t for t in re.split(rf"[\s{re.escape(string.punctuation)}]+", "Obamma, Boraak H.") if t]
    assert list(ts.tokens) == ref


def test_duplicate_tokens_preserved():
    ts = tokenize("bob bob bob", WHITESPACE)
    assert ts.tokens == ("bob", "bob", "bob")
    assert ts.token_count == 3


def test_lowercase_flag():
    assert tokenize("Chan KALAN", WHITESPACE, lowercase=True).tokens == ("chan", "kalan")
    assert tokenize("Chan KALAN", WHITESPACE).tokens == ("Chan", "KALAN")


def test_unicode_whitespace_and_lengths_in_scalar_values():
    ts = tokenize("a b　c", WHITESPACE)  # NBSP and ideographic space separate
    assert ts.tokens == ("a", "b", "c")
    ts2 = tokenize("café naïve", WHITESPACE)
    assert ts2.agg_len == len("café") + len("naïve")


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        tokenize("x", "phonetic")
    with pytest.raises(ValueError):
        tokenize_all([], [], "phonetic")


def test_tokens_never_empty_and_never_contain_separators():
    ts = tokenize("  a ,, b.c -- d  ", WHITESPACE_PUNCT)
    assert ts.tokens == ("a", "b", "c", "d")
    assert all(t for t in ts.tokens)


@given(st.text(max_size=40))
def test_deterministic_and_caches_consistent(raw):
    for scheme in (WHITESPACE, WHITESPACE_PUNCT):
        a = tokenize(raw, scheme)
        b = tokenize(raw, scheme)
        assert a == b
        a.check_caches()


@given(st.lists(st.text(max_size=20), max_size=4), st.sampled_from(TOKENIZER_SCHEMES), st.booleans())
def test_tokenize_all_is_tokenize_as_specified(raws, scheme, lowercase):
    expected = []
    for i, raw in enumerate(raws):
        text = raw.lower() if lowercase else raw
        if scheme == WHITESPACE:
            tokens = text.split()
        else:
            tokens = [t for t in re.split(rf"[\s{re.escape(string.punctuation)}]+", text) if t]
        expected.append(TokenizedString(str(i), tuple(tokens), sum(len(t) for t in tokens), len(tokens)))
    ids = [str(i) for i in range(len(raws))]
    assert tokenize_all(raws, ids, scheme, lowercase=lowercase) == expected
    assert [tokenize(raw, scheme, record_id=i, lowercase=lowercase) for raw, i in zip(raws, ids)] == expected


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40))
def test_whitespace_rejoin_idempotent(raw):
    first = tokenize(raw, WHITESPACE)
    again = tokenize(" ".join(first.tokens), WHITESPACE)
    assert again.tokens == first.tokens


def test_from_tokens_builds_consistent_caches():
    ts = TokenizedString.from_tokens("id", ["ab", "cde"])
    assert (ts.agg_len, ts.token_count) == (5, 2)
    ts.check_caches()
