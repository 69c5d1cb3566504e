"""Words, primitivity, serialization."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

import oracles
from shiftcat.errors import SizeLimit
from shiftcat.words import (Alphabet, Word, factors_up_to, is_primitive,
                            prefix_k, primitive_root, suffix_k,
                            word_from_json, word_to_json)

AB = Alphabet(("a", "b"))


def w(text: str) -> Word:
    return Word.from_str(AB, text)


words_st = st.text(alphabet="ab", min_size=0, max_size=12).map(w)
nonempty_st = st.text(alphabet="ab", min_size=1, max_size=12).map(w)


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError, match="nonempty"):
        Alphabet(("a", ""))


def test_word_rejects_foreign_letters():
    with pytest.raises(ValueError):
        Word(AB, ("a", "c"))


def test_concatenation_and_power():
    assert (w("ab") * w("ba")).as_str() == "abba"
    assert (w("ab") ** 3).as_str() == "ababab"
    assert (w("ab") ** 0) == Word(AB, ())


def test_prefix_suffix_clamp():
    u = w("abab")
    assert prefix_k(u, 2).as_str() == "ab"
    assert suffix_k(u, 3).as_str() == "bab"
    assert prefix_k(u, 9) == u
    assert suffix_k(u, 9) == u
    assert suffix_k(u, 0) == Word(AB, ())
    with pytest.raises(ValueError):
        prefix_k(u, -1)


def test_factors_up_to_exact():
    u = w("abba")
    fs = {v.as_str() for v in factors_up_to(u, 2, 8)}
    assert fs == {"a", "b", "ab", "bb", "ba"}
    # a, b, ab, bb and ba hold 8 letters in all
    with pytest.raises(SizeLimit, match="^factors of length at most 2 hold "
                                        "more than 7 letters$"):
        factors_up_to(u, 2, 7)


def test_factors_up_to_match_every_slice(monkeypatch):
    # one Word per distinct factor, and the factors of every slice
    from shiftcat import words
    built = []
    monkeypatch.setattr(words, "Word",
                        lambda *args: built.append(1) or Word(*args))
    abc = Alphabet(("a", "b", "cc"))
    rng = random.Random(8)
    for _ in range(200):
        letters = tuple(rng.choice(abc.symbols[:rng.randint(1, 3)])
                        for _ in range(rng.randint(0, 40)))
        k = rng.randint(1, 12)
        built.clear()
        got = factors_up_to(Word(abc, letters), k, 10**6)
        assert len(built) == len(got)
        assert {f.letters for f in got} == oracles.factors_up_to(letters, k)
        assert all(f.alphabet == abc for f in got)


def test_primitivity_matches_oracle_exhaustively():
    for n in range(1, 9):
        for tup in itertools.product("ab", repeat=n):
            text = "".join(tup)
            assert is_primitive(w(text)) == oracles.word_is_primitive(text)


def test_primitive_root_reconstructs():
    for text in ("abab", "aaa", "ab", "abba", "aabaab"):
        root, k = primitive_root(w(text))
        assert root ** k == w(text)
        assert is_primitive(root)


@given(nonempty_st)
def test_primitive_root_is_primitive(u):
    root, k = primitive_root(u)
    assert is_primitive(root)
    assert root ** k == u
    assert (k == 1) == is_primitive(u)


def test_json_roundtrip():
    for text in ("", "a", "abba"):
        u = w(text)
        assert word_from_json(AB, word_to_json(u)) == u
