import copy
import dataclasses
import pickle
import re
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokenjoin import textnorm
from tokenjoin.corpusio import read_corpus
from tokenjoin.textnorm import TOKENIZER_SCHEMES, WHITESPACE, WHITESPACE_PUNCT, TokenizedString, tokenize, tokenize_all

# Raws built around the whole-text passes of tokenize_all: LF (its line
# separator, and a space inside a raw given to tokenize), a sigma after a capital and before case-ignorable punctuation or
# combining marks (final-sigma lowercasing looks past them), characters whose
# lowercase is longer (İ) or that have none (ß), whitespace that is not ASCII
# (NBSP, the information separators U+001C-U+001F, NEL), and every ASCII
# punctuation character.
EDGE_PIECES = ["Α", "ΑΣ", "Σ", "ς", "Β", "a", "İ", "ß", "\u0301", "\u0345", ".", ":", "'", " ", "\n"]
EDGE_PIECES += ["\xa0", "\x1c", "\x1d", "\x1e", "\x1f", "\x85"]
RAWS = st.one_of(
    st.text(max_size=20),
    st.lists(st.sampled_from(EDGE_PIECES), max_size=10).map("".join),
    st.text(string.punctuation + "aΣ \n", max_size=20),
)


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
    # "." is case-ignorable, so the sigma is not final: lowercasing comes
    # before punctuation becomes a separator
    assert tokenize("ΑΣ.Β", WHITESPACE_PUNCT, lowercase=True).tokens == ("ασ", "β")


def test_unicode_whitespace_and_lengths_in_scalar_values():
    ts = tokenize("a b　c", WHITESPACE)  # NBSP and ideographic space separate
    assert ts.tokens == ("a", "b", "c")
    for scheme in TOKENIZER_SCHEMES:
        assert tokenize("a\nb", scheme).tokens == ("a", "b")
    ts2 = tokenize("café naïve", WHITESPACE)
    assert ts2.agg_len == len("café") + len("naïve")


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        tokenize("x", "phonetic")
    with pytest.raises(ValueError):
        tokenize_all("", [], "phonetic")


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


def specified_records(raws, scheme, lowercase):
    """The records of ``raws``, ids "0", "1", ..., split by the reference regex."""
    expected = []
    for i, raw in enumerate(raws):
        text = raw.lower() if lowercase else raw
        if scheme == WHITESPACE:
            tokens = text.split()
        else:
            tokens = [t for t in re.split(rf"[\s{re.escape(string.punctuation)}]+", text) if t]
        expected.append(TokenizedString(str(i), tuple(tokens), sum(len(t) for t in tokens), len(tokens)))
    return expected


@settings(max_examples=400)
@given(
    st.lists(RAWS, max_size=4),
    st.sampled_from(TOKENIZER_SCHEMES),
    st.booleans(),
)
@example(["ΑΣ.Β"], WHITESPACE_PUNCT, True)
@example(["a\nb", "ΟΔΟΣ\nΑ"], WHITESPACE, True)
@example(["Jo\U0001f600.é", "x\ud800:y"], WHITESPACE_PUNCT, False)  # 4-byte UTF-8 and a lone surrogate
def test_tokenize_all_is_tokenize_as_specified(raws, scheme, lowercase):
    # tokenize_all cuts the joined raws at every LF; tokenize reads an LF as a space
    text = "\n".join(raws)
    lines = text.split("\n") if raws else []
    ids = [str(i) for i in range(len(lines))]
    assert tokenize_all(text, ids, scheme, lowercase=lowercase) == specified_records(lines, scheme, lowercase)
    expected = specified_records(raws, scheme, lowercase)
    assert [tokenize(raw, scheme, record_id=str(i), lowercase=lowercase) for i, raw in enumerate(raws)] == expected


@pytest.mark.parametrize("scheme", TOKENIZER_SCHEMES)
def test_tokenize_all_across_chunks(scheme, tmp_path):
    size = textnorm._CHUNK
    lines = [f"Ab.{i}:ΟΣ" for i in range(size // 16)]
    # the line across the first chunk's end ends with a Σ., and the next begins with one
    lines[-1] += "x" * (size - sum(len(line) + 1 for line in lines[:-1])) + "ΑΣ."
    lines += ["Σ.Β ΑΣ.Β", "Jo " + "y" * size + ".ΑΣ.Β z"]
    lines += [f"ΑΣ.{i}" for i in range(size // 10)]
    lines[-9] = "Jo\U0001f600,é"
    lines.append("ΑΣ.Β")
    text = "\n".join(lines)
    # each chunk ends at the first LF one chunk past its start
    first = text.find("\n", size)
    second = text.find("\n", first + 1 + size)
    assert text[first - 3 : first + 3] == "ΑΣ.\nΣ."
    assert text[first + 1 : second].split("\n") == lines[-(size // 10) - 3 : -(size // 10) - 1]
    assert text.find("\n", second + 1 + size) < 0
    assert text.find("\U0001f600") > second
    plain = tmp_path / "c.txt"
    plain.write_text(text, encoding="utf-8")
    tsv = tmp_path / "c.tsv"
    tsv.write_text("".join(f"{i}\t{line}\n" for i, line in enumerate(lines)), encoding="utf-8")
    ids = [str(i) for i in range(len(lines))]
    for lowercase in (False, True):
        expected = specified_records(lines, scheme, lowercase)
        assert tokenize_all(text, ids, scheme, lowercase=lowercase) == expected
        assert read_corpus(plain, "lines", scheme, lowercase=lowercase) == expected
        assert read_corpus(tsv, "tsv-id", scheme, lowercase=lowercase) == expected


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40))
def test_whitespace_rejoin_idempotent(raw):
    first = tokenize(raw, WHITESPACE)
    again = tokenize(" ".join(first.tokens), WHITESPACE)
    assert again.tokens == first.tokens


def test_from_tokens_builds_consistent_caches():
    ts = TokenizedString.from_tokens("id", ["ab", "cde"])
    assert (ts.agg_len, ts.token_count) == (5, 2)
    ts.check_caches()


def test_tokenize_all_rejects_ids_and_raws_of_other_lengths():
    # a text holds one line more than its LFs, and the empty text none with no ids
    assert tokenize_all("", []) == []
    assert tokenize_all("", ["0"]) == [TokenizedString("0", (), 0, 0)]
    assert tokenize_all("\n", ["0", "1"]) == [TokenizedString(i, (), 0, 0) for i in "01"]
    for text, ids in [("a b\nc", ["0"]), ("a b", ["0", "1"]), ("a", []), ("\n", []), ("\n", ["0"])]:
        with pytest.raises(ValueError):
            tokenize_all(text, ids)


def test_records_are_whole_tokenized_strings(tmp_path):
    raws = ["Chan kalan", "", "a.b a.b", "ΟΔΟΣ\u00a0x"]
    corpus = tmp_path / "c.txt"
    corpus.write_text("".join(raw + "\n" for raw in raws), encoding="utf-8")
    built = [TokenizedString.from_tokens(str(i), tokenize(raw).tokens) for i, raw in enumerate(raws)]
    for records in (read_corpus(corpus), tokenize_all("\n".join(raws), [str(i) for i in range(len(raws))])):
        assert records == built
        assert [hash(r) for r in records] == [hash(r) for r in built]
        assert set(records) == set(built)
        for record, twin in zip(records, built):
            assert type(record) is TokenizedString
            record.check_caches()
            for field in dataclasses.fields(record):
                assert getattr(record, field.name) == getattr(twin, field.name)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, field.name, getattr(record, field.name))
            assert pickle.loads(pickle.dumps(record)) == record
            assert copy.copy(record) == record
            assert copy.deepcopy(record) == record
            renamed = dataclasses.replace(record, id="new")
            assert (renamed.id, renamed.tokens) == ("new", record.tokens)
            renamed.check_caches()
