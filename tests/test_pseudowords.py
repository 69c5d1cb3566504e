"""ω-terms: canonical forms, evaluation, membership, block-code images,
expansion/contraction homomorphisms."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import util
from shiftcat.codes import centralize, higher_block_map, word_code
from shiftcat.errors import TooShort
from shiftcat.pseudowords import (EmptyResult, OmegaTerm, Power, canonical,
                                  canonical_equal, closure_membership,
                                  drop_first, drop_last, eval_term,
                                  expand_word, first_letter, format_term,
                                  image_E_membership, last_letter,
                                  mirage_membership, parse_term,
                                  quotient_equal, strip_boundary,
                                  term_block_code, term_contract, term_expand,
                                  term_factors, term_prefix_k, term_suffix_k,
                                  unfold, unroll)
from shiftcat.semigroups import battery
from shiftcat.shifts import blocks, is_block
from shiftcat.words import Alphabet, Word, factors_up_to

AB = Alphabet(("a", "b"))
ABO = Alphabet(("a", "b", "o"))
ABCD = Alphabet(("a", "b", "c", "d"))

# Deep enough that every power's exponent has stabilized in the small
# quotients below (multiple of lcm(1..4), past every index).
DEEP = 24


def t_ab(text):
    return parse_term(AB, text)


def t_abo(text):
    return parse_term(ABO, text)


# -- random term strategy ---------------------------------------------------


def term_strategy(alphabet=AB, max_items=4):
    letters = "".join(alphabet.symbols)
    word_st = st.text(alphabet=letters, min_size=1, max_size=4)
    item_st = st.one_of(
        word_st.map(lambda s: Word.from_str(alphabet, s)),
        st.tuples(word_st, st.integers(-2, 2)).map(
            lambda p: Power(Word.from_str(alphabet, p[0]), p[1])))
    return st.lists(item_st, min_size=1, max_size=max_items).map(
        lambda items: OmegaTerm.from_items(alphabet, items))


# -- canonical forms ---------------------------------------------------------


def test_exponent_arithmetic():
    s = t_ab("(ab)^(w+1) (ab)^(w+2)")
    assert canonical_equal(s, t_ab("(ab)^(w+3)"))
    assert canonical_equal(t_ab("(ab)^w (ab)^w"), t_ab("(ab)^w"))


def test_omega_power_absorbs_base():
    assert canonical_equal(t_ab("(ab)^w ab"), t_ab("(ab)^(w+1)"))
    assert canonical_equal(t_ab("ab (ab)^w"), t_ab("(ab)^(w+1)"))


def test_rotation_absorption():
    # a(ba)^ω = (ab)^ω a as pseudowords.
    assert canonical_equal(t_ab("a (ba)^w"), t_ab("(ab)^w a"))


def test_canonical_keeps_rotations_of_bare_powers_distinct():
    assert not canonical_equal(t_ab("(ab)^w"), t_ab("(ba)^w"))


def test_plain_words_canonicalize_to_themselves():
    t = t_ab("abba")
    assert canonical(t).is_plain()
    assert canonical(t).as_plain_word().as_str() == "abba"


@settings(max_examples=80, deadline=None)
@given(term_strategy())
def test_canonical_preserves_value_in_quotients(t):
    tests = battery(AB)
    c = canonical(t)
    for s, assign in tests:
        assert eval_term(t, s, assign) == eval_term(c, s, assign)


@settings(max_examples=60, deadline=None)
@given(term_strategy())
def test_canonical_is_idempotent_as_a_normal_form(t):
    c = canonical(t)
    assert canonical(c) == c


# -- unfolding and evaluation -------------------------------------------------


def test_unfold_plain_prefixes():
    t = t_ab("(ab)^(w+1)")
    u = unfold(t, 8)
    assert u.as_str() == "ab" * 9  # exponent ω+1 unfolds to m+1


def test_eval_term_matches_deep_unfolding():
    tests = battery(AB, seed=23)
    for text in ("(ab)^w", "(ab)^(w+1)", "a (ba)^(w-1) b", "(a)^w (b)^w",
                 "ab (ba)^(w+2) a"):
        t = t_ab(text)
        for s, assign in tests:
            gen_word = unfold(t, DEEP)
            assert eval_term(t, s, assign) == s.eval_word(
                Word(AB, tuple(gen_word.letters)))


def test_eval_term_omega_is_idempotent_image():
    tests = battery(AB, seed=5)
    t = t_ab("(ab)^w")
    for s, assign in tests:
        v = eval_term(t, s, assign)
        assert s.product(v, v) == v


def test_omega_plus_one_is_not_idempotent_in_cyclic_quotients():
    tests = battery(AB)
    t = t_ab("(ab)^(w+1)")
    sq = canonical(t * t)
    verdict = quotient_equal(t, sq, tests)
    assert verdict.kind == "DistinguishedBy"


# -- prefixes, suffixes, factors ----------------------------------------------


def test_term_affixes_match_unfolding():
    for text in ("(ab)^w", "a (bba)^(w+1)", "(ab)^w ba (ab)^w"):
        t = t_ab(text)
        deep = unfold(t, DEEP)
        for k in (1, 2, 3, 4):
            assert term_prefix_k(t, k) == Word(AB, deep.letters[:k])
            assert term_suffix_k(t, k) == Word(AB, deep.letters[-k:])
    with pytest.raises(ValueError):
        term_prefix_k(t_ab("(ab)^w"), 0)


def test_term_factors_match_deep_unfolding():
    for text in ("(ab)^w", "(a)^w b (a)^w", "ab (ba)^(w-1)"):
        t = t_ab(text)
        deep = unfold(t, DEEP)
        for k in (1, 2, 3, 4):
            assert term_factors(t, k) == factors_up_to(deep, k)


@settings(max_examples=150, deadline=None)
@given(term_strategy(max_items=5), st.integers(-6, 6), st.integers(1, 6))
def test_affixes_and_factors_ignore_the_exponent_offsets(t, shift, k):
    # The reference unfolds u^(ω+q) to u^(m+q) with m past every offset.
    t = OmegaTerm.from_items(AB, [Power(it.base, it.q + shift)
                                  if isinstance(it, Power) else it
                                  for it in t.body])
    if t.is_plain():
        return
    max_q = max(abs(it.q) for it in t.body if isinstance(it, Power))
    deep = unfold(t, k + max_q + 2)
    assert term_prefix_k(t, k) == Word(AB, deep.letters[:k])
    assert term_suffix_k(t, k) == Word(AB, deep.letters[-k:])
    assert term_factors(t, k) == factors_up_to(deep, k)
    assert (image_E_membership(unroll(t, 2), "a", "b")
            == image_E_membership(unfold(t, max_q + 4), "a", "b"))


def test_first_last_letter():
    t = t_ab("(ab)^w b")
    assert first_letter(t) == "a"
    assert last_letter(t) == "b"


# -- membership ----------------------------------------------------------------


def test_marker_cycle_closure_memberships():
    x = util.load("marker_cycle")
    v = parse_term(ABCD, "(a)^w b (a)^w c (a)^w")
    assert closure_membership(v, x) is True
    cv = parse_term(ABCD, "c (a)^w b (a)^w c (a)^w")
    assert closure_membership(cv, x) is False
    assert mirage_membership(cv, x, 4) is True


def test_even_shift_closure_memberships():
    x = util.load("even")
    assert closure_membership(t_ab("(a)^w (b)^w"), x) is True
    assert closure_membership(t_ab("(b)^(w+1) (a)^w"), x) is True
    assert closure_membership(t_ab("(a)^w (b)^(w+1) (a)^w"), x) is False
    assert closure_membership(t_ab("(a)^w (b)^w (a)^w"), x) is True


def test_closure_implies_mirage(subtests=None):
    x = util.load("golden_mean")
    for text in ("(a)^w", "(a)^w b (a)^w", "(ab)^w", "b (a)^w b",
                 "(ba)^w (ab)^w"):
        t = t_ab(text)
        if closure_membership(t, x):
            for k in (1, 2, 3, 4):
                assert mirage_membership(t, x, k)


def test_mirage_equals_factor_blocks():
    x = util.load("even")
    for text in ("(a)^w (b)^w", "(b)^(w+1)", "(a)^w b (a)^w", "(ab)^w"):
        t = t_ab(text)
        for k in (1, 2, 3):
            expected = all(is_block(x, f) for f in term_factors(t, k))
            assert mirage_membership(t, x, k) == expected, (text, k)


# -- term block codes -----------------------------------------------------------


def test_term_block_code_frozen_image():
    cen = centralize(higher_block_map(AB, 2))
    t = t_ab("(a)^w b (a)^w")
    img = term_block_code(cen, t)
    b = cen.target
    aa, ab, ba = "([aa])", "[ab]", "[ba]"
    rendered = format_term(img).replace(" ", "")
    assert rendered == "([aa])^(w-2)[ab][ba]([aa])^(w-1)"


def test_term_block_code_semantic_continuity():
    # The image term evaluates like the word code of a deep unfolding,
    # in every finite quotient of the target alphabet.
    cen = centralize(higher_block_map(AB, 2))
    b = cen.target
    tests = battery(b, seed=31)
    for text in ("(a)^w b (a)^w", "(ab)^w", "(ab)^(w+1) (ba)^w",
                 "a (ba)^(w-1) b", "(a)^w (b)^w (a)^w"):
        t = t_ab(text)
        img = term_block_code(cen, t)
        word_image = word_code(cen.inner, unfold(t, DEEP))
        for s, assign in tests:
            assert eval_term(img, s, assign) == s.eval_word(word_image), text


def test_term_block_code_plain_words():
    cen = centralize(higher_block_map(AB, 2))
    t = t_ab("abab")
    img = term_block_code(cen, t)
    assert img.is_plain()
    assert img.as_plain_word() == word_code(cen.inner,
                                            Word.from_str(AB, "abab"))


# -- expansion / contraction -----------------------------------------------------


def test_expand_word_examples():
    u = Word.from_str(AB, "abba")
    img = expand_word(u, "a", ABO, "o")
    assert img.as_str() == "aobbao"


def test_term_expand_contract_roundtrip():
    for text in ("(ab)^w", "(a)^w b", "b (a)^(w+2) b", "(ba)^(w-1) a"):
        t = t_ab(text)
        e = term_expand(t, "a")
        back = term_contract(e)
        assert not isinstance(back, EmptyResult)
        assert canonical_equal(back, t), text


def test_term_contract_diamond_only_is_empty():
    only = parse_term(ABO, "o")
    assert isinstance(term_contract(only), EmptyResult)


def test_term_contract_drops_diamonds():
    v = t_abo("(ao)^w b")
    got = term_contract(v)
    # the contraction lands over the diamond-free alphabet
    assert got.alphabet == AB
    assert canonical_equal(got, t_ab("(a)^w b"))


def test_image_E_membership_matches_brute_enumeration():
    # words in the image of the expansion homomorphism, up to length 8
    imgs = set()
    for n in range(1, 9):
        for tup in itertools.product("ab", repeat=n):
            u = Word.from_str(AB, "".join(tup))
            imgs.add(expand_word(u, "a", ABO, "o").as_str())
    for n in range(1, 9):
        for tup in itertools.product("abo", repeat=n):
            text = "".join(tup)
            w = Word.from_str(ABO, text)
            assert image_E_membership(w, "a") == (text in imgs), text


def test_strip_boundary_rebuild():
    tests = battery(AB)
    for text in ("(ab)^w", "abba", "(ab)^(w+1) b", "a (ba)^w"):
        t = canonical(t_ab(text))
        first = OmegaTerm.from_word(Word(AB, (first_letter(t),)))
        last = OmegaTerm.from_word(Word(AB, (last_letter(t),)))
        for rebuilt in (first * strip_boundary(t) * last,
                        first * drop_first(t), drop_last(t) * last):
            v = quotient_equal(t, canonical(rebuilt), tests)
            assert v.canonical_equal, text
    with pytest.raises(TooShort):
        strip_boundary(t_ab("a"))
    for drop in (drop_first, drop_last):
        with pytest.raises(TooShort):
            drop(t_ab(""))


# -- verdicts and parsing ----------------------------------------------------------


def test_quotient_equal_canonical_shortcut():
    v = quotient_equal(t_ab("(ab)^w ab"), t_ab("(ab)^(w+1)"), [])
    assert v.kind == "EqualInAll"
    assert v.canonical_equal is True


def test_quotient_equal_distinguishes():
    tests = battery(AB)
    v = quotient_equal(t_ab("(a)^w"), t_ab("(a)^(w+1)"), tests)
    assert v.kind == "DistinguishedBy"
    assert v.distinguished_by is not None


def test_quotient_equal_weak_equal():
    # (ab)^ω and (ba)^ω agree in every commutative quotient but are
    # different pseudowords: EqualInAll without canonical equality.
    tests = battery(AB)  # cyclic quotients are commutative
    v = quotient_equal(t_ab("(ab)^w"), t_ab("(ba)^w"), tests)
    assert v.kind == "EqualInAll"
    assert v.canonical_equal is False


@settings(max_examples=80, deadline=None)
@given(term_strategy())
def test_parse_format_roundtrip(t):
    back = parse_term(AB, format_term(t))
    assert canonical_equal(back, t)


def test_parse_rejects_unknown_symbols():
    with pytest.raises(ValueError):
        t_ab("(ac)^w")
