"""ω-terms: canonical forms, evaluation, membership, block-code images,
expansion/contraction homomorphisms."""

import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import util
from shiftcat import pseudowords
from shiftcat.codes import centralize, higher_block_map, word_code
from shiftcat.flowops import expand_shift
from shiftcat.errors import (DiamondOnly, InvalidArrow, MismatchBug,
                             NotIdempotentWitness, SizeLimit, TooShort,
                             UnassignedLetter)
from shiftcat.pseudowords import (OmegaTerm, Power, canonical,
                                  canonical_equal, check_arrow,
                                  check_equal_in_quotients,
                                  closure_membership, connector, eval_term,
                                  expand_word, format_term,
                                  idempotent_terms, image_E_membership,
                                  mirage_levels, mirage_membership,
                                  parse_term, quotient_equal,
                                  term_block_code, term_contract,
                                  term_expand, term_factors, term_prefix_k,
                                  term_suffix_k, unroll)
from shiftcat.semigroups import battery, syntactic_semigroup
from shiftcat.shifts import is_block, is_periodic_point, ordered_blocks
from shiftcat.words import Alphabet, Word, factors_up_to, is_primitive

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
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
        lambda items: OmegaTerm(alphabet, tuple(items)))


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


# -- canonical against the fixpoint oracle ------------------------------------


def as_items(t):
    """The term as the oracle's plain (letters) / (base, q) tuples."""
    return [(it.base.letters, it.q) if isinstance(it, Power) else it.letters
            for it in t.body]


def assert_matches_fixpoint(t):
    assert as_items(canonical(t)) == oracles.fixpoint_canonical(as_items(t))


# bases from a small pool, so equal and conjugate bases meet often;
# repeated ones are not primitive
BASES = ("a", "b", "c", "ab", "ba", "aab", "abb", "bab", "abc", "cab")


@st.composite
def pooled_terms(draw):
    alphabet = draw(st.sampled_from((Alphabet(("a",)), AB, ABC)))
    bases = [b for b in BASES if set(b) <= set(alphabet.symbols)]
    letters = "".join(alphabet.symbols)
    word = st.text(alphabet=letters, max_size=5).map(
        lambda s: Word.from_str(alphabet, s))
    power = st.builds(
        lambda b, c, q: Power(Word.from_str(alphabet, b * c), q),
        st.sampled_from(bases), st.integers(1, 3), st.integers(-3, 3))
    items = draw(st.lists(st.one_of(word, power), max_size=12))
    return OmegaTerm(alphabet, tuple(items))


@settings(max_examples=400, deadline=None)
@given(pooled_terms())
def test_canonical_matches_the_fixpoint_oracle(t):
    assert_matches_fixpoint(t)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(50, 300))
def test_canonical_matches_the_fixpoint_oracle_on_long_terms(seed, size):
    # the shape of the benchmark's random terms: short words alternating
    # with powers u^(ω+q), |u| <= 3 and |q| <= 2
    rng = random.Random(seed)
    items = []
    for i in range(size):
        w = Word(AB, tuple(rng.choice("ab") for _ in range(rng.randint(1, 3))))
        items.append(Power(w, rng.randint(-2, 2)) if i % 2 else w)
    assert_matches_fixpoint(OmegaTerm(AB, tuple(items)))


@pytest.mark.parametrize("text,form", [
    # the left power takes its copies of the word between first ...
    ("(ab)^w abb (b)^w", "(a b)^(w+1) (b)^(w+1)"),
    # ... unless it was just merged, when the right power goes first
    ("(ab)^w (ab)^w abb (b)^w", "(a b)^w a (b)^(w+2)"),
    # ... and so it does when a rotation merges the power into the one
    # before it
    ("(ab)^w a (ba)^w bb (abb)^w", "(a b)^w (a b b)^(w+1)"),
    # absorption runs before any rotation
    ("b (ab)^w a (a)^w", "(b a)^w b (a)^(w+1)"),
    # a rotated letter completes a copy of the next power's base
    ("b (ab)^w ba (bba)^w", "(b a)^w (b b a)^(w+1)"),
    # a rotated letter empties the word between two equal bases
    ("b (ab)^w a (ba)^w", "(b a)^(w+1)"),
    # ... and the letters after it go past the merged power
    ("bc (abc)^w ab (cab)^w", "(b c a)^(w+1) b"),
    # rotations that end in absorption on either side
    ("b (ab)^w a", "(b a)^(w+1)"),
    ("ab a (ba)^w", "(a b)^(w+1) a"),
    ("(ba)^w b (ab)^(w-1)", "(b a)^(w-1) b"),
    ("abab (ab)^(w+2) ab", "(a b)^(w+5)"),
    ("(abab)^(w-1) a", "(a b)^(w-2) a"),
    ("", "ε"),
])
def test_canonical_frozen_forms(text, form):
    t = parse_term(ABC, text)
    assert format_term(canonical(t)) == form
    assert_matches_fixpoint(t)


# -- unfolding and evaluation -------------------------------------------------


def test_unfold_plain_prefixes():
    t = t_ab("(ab)^(w+1)")
    # exponent ω+1 unfolds to m+1
    assert "".join(oracles.unfold(t, 8)) == "ab" * 9


def test_eval_term_matches_deep_unfolding():
    tests = battery(AB, seed=23)
    for text in ("(ab)^w", "(ab)^(w+1)", "a (ba)^(w-1) b", "(a)^w (b)^w",
                 "ab (ba)^(w+2) a"):
        t = t_ab(text)
        for s, assign in tests:
            assert eval_term(t, s, assign) == s.eval_word(
                Word(AB, oracles.unfold(t, DEEP)))


def test_eval_term_refuses_an_unassigned_letter():
    s, assign = battery(AB)[0]
    with pytest.raises(UnassignedLetter, match="letter 'c'"):
        eval_term(parse_term(ABC, "a (c b)^w"), s, assign)


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
        deep = oracles.unfold(t, DEEP)
        for k in (1, 2, 3, 4):
            assert term_prefix_k(t, k) == Word(AB, deep[:k])
            assert term_suffix_k(t, k) == Word(AB, deep[-k:])
    with pytest.raises(ValueError):
        term_prefix_k(t_ab("(ab)^w"), 0)


def test_term_factors_match_deep_unfolding():
    for text in ("(ab)^w", "(a)^w b (a)^w", "ab (ba)^(w-1)"):
        t = t_ab(text)
        deep = Word(AB, oracles.unfold(t, DEEP))
        for k in (1, 2, 3, 4):
            assert term_factors(t, k) == factors_up_to(deep, k)


def test_unroll_refuses_exactly_above_its_cap(monkeypatch):
    # (a b)^w b at level k spells 2(k + 2) + 1 letters
    t = t_ab("(a b)^w b")
    monkeypatch.setattr(pseudowords, "_MAX_UNROLL", 25 * 10)
    assert len(unroll(t, 10)) == 25
    assert term_factors(t, 10) == factors_up_to(
        Word(AB, oracles.unfold(t, DEEP)), 10)
    monkeypatch.setattr(pseudowords, "_MAX_UNROLL", 25 * 10 - 1)
    for call in (lambda: unroll(t, 10), lambda: term_factors(t, 10),
                 lambda: mirage_levels(t, util.load("full2"), 10)):
        with pytest.raises(SizeLimit, match="^unrolling to 25 letters at "
                                            "level 10: letters times level "
                                            "exceeds 249$"):
            call()
    # a plain term does not grow with the level, but the level counts
    w = t_ab("a b a")
    monkeypatch.setattr(pseudowords, "_MAX_UNROLL", 3 * 7)
    assert unroll(w, 7) == Word(AB, ("a", "b", "a"))
    with pytest.raises(SizeLimit):
        unroll(w, 8)


@settings(max_examples=150, deadline=None)
@given(term_strategy(max_items=5), st.integers(-6, 6), st.integers(1, 6))
def test_affixes_and_factors_ignore_the_exponent_offsets(t, shift, k):
    # The reference unfolds u^(ω+q) to u^(m+q) with m past every offset.
    t = OmegaTerm(AB, tuple(Power(it.base, it.q + shift)
                            if isinstance(it, Power) else it
                            for it in t.body))
    if t.is_plain():
        return
    max_q = max(abs(it.q) for it in t.body if isinstance(it, Power))
    deep = Word(AB, oracles.unfold(t, k + max_q + 2))
    assert term_prefix_k(t, k) == Word(AB, deep.letters[:k])
    assert term_suffix_k(t, k) == Word(AB, deep.letters[-k:])
    assert term_factors(t, k) == factors_up_to(deep, k)
    assert (image_E_membership(unroll(t, 2), "a", "b")
            == image_E_membership(Word(AB, oracles.unfold(t, max_q + 4)),
                                  "a", "b"))


def test_first_last_letter():
    t = t_ab("(ab)^w b")
    assert oracles.first_letter(t) == "a"
    assert oracles.last_letter(t) == "b"


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


def test_mirage_levels_match_the_check_at_every_level():
    rng = random.Random(12)
    seen = set()
    for name in ("even", "golden_mean", "full2", "periodic_ab",
                 "fixed_point"):
        x = util.load(name)
        letters = x.alphabet.symbols
        for _ in range(40):
            items = []
            for _ in range(rng.randint(1, 4)):
                w = Word(x.alphabet, tuple(rng.choice(letters) for _ in
                                           range(rng.randint(1, 3))))
                items.append(Power(w, rng.randint(-2, 2)) if rng.random()
                             < 0.5 else w)
            t = OmegaTerm(x.alphabet, tuple(items))
            bound = rng.randint(1, 9)
            levels = mirage_levels(t, x, bound)
            assert levels == {k: mirage_membership(t, x, k)
                              for k in range(1, bound + 1)}, (name, t)
            holding = sum(levels.values())
            seen.add("all" if holding == bound else holding)
    # terms that fail at the first level, at a later one, and never
    assert {0, "all"} <= seen and seen - {0, "all"}


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
        word_image = word_code(cen.inner, Word(AB, oracles.unfold(t, DEEP)))
        for s, assign in tests:
            assert eval_term(img, s, assign) == s.eval_word(word_image), text


def test_term_block_code_plain_words():
    # a word is the plain term of its letters: its image is the word code
    windows = set()
    for order in (1, 2, 3, 4):
        cen = centralize(higher_block_map(AB, order))
        n = cen.inner.window
        windows.add(n)
        for text in ("a", "b", "ab", "bba", "abab", "aabba", "babbbab"):
            w = Word.from_str(AB, text)
            if len(w) < n:
                with pytest.raises(TooShort, match="shorter than the window"):
                    term_block_code(cen, t_ab(text))
                continue
            img = term_block_code(cen, t_ab(text))
            assert img.is_plain(), (n, text)
            assert img.as_plain_word() == word_code(cen.inner, w), (n, text)
    assert windows == {1, 3, 5}


# -- expansion / contraction -----------------------------------------------------


def test_expand_word_examples():
    u = Word.from_str(AB, "abba")
    img = expand_word(u, "a", ABO, "o")
    assert img.as_str() == "aobbao"


def test_term_expand_contract_roundtrip():
    for text in ("(ab)^w", "(a)^w b", "b (a)^(w+2) b", "(ba)^(w-1) a"):
        t = t_ab(text)
        e = term_expand(t, "a")
        assert canonical_equal(term_contract(e), t), text


def test_term_contract_diamond_only_is_empty():
    only = parse_term(ABO, "o")
    with pytest.raises(DiamondOnly):
        term_contract(only)


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
        first = OmegaTerm.from_word(Word(AB, (oracles.first_letter(t),)))
        last = OmegaTerm.from_word(Word(AB, (oracles.last_letter(t),)))
        for rebuilt in (first * oracles.strip_boundary(t) * last,
                        first * oracles.drop_first(t),
                        oracles.drop_last(t) * last):
            v = quotient_equal(t, canonical(rebuilt), tests)
            assert v.canonical_equal, text
    with pytest.raises(TooShort):
        oracles.strip_boundary(t_ab("a"))
    for drop in (oracles.drop_first, oracles.drop_last):
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


@pytest.mark.parametrize("error", [InvalidArrow, NotIdempotentWitness,
                                   MismatchBug])
def test_a_refuting_quotient_raises_the_given_error(error, call_counts):
    tests = battery(AB)
    s, t = t_ab("(a)^w"), t_ab("(a)^(w+1)")
    with pytest.raises(error, match="^told apart$"):
        check_equal_in_quotients(s, t, tests, error, "told apart")
    # agreement in every quotient passes, proved or not
    check_equal_in_quotients(t_ab("(ab)^w"), t_ab("(ba)^w"), tests, error,
                             "told apart")
    calls = call_counts("canonical")
    check_equal_in_quotients(s, t, [], error, "told apart")
    assert calls["canonical"] == 0


def test_check_arrow_refutes_a_loose_middle():
    s, _ = syntactic_semigroup(util.load("golden_mean"))
    tests = battery(AB, extra=[(s, dict(s.gen_of))])
    e, f = t_ab("(a)^w"), t_ab("(b)^w")
    with pytest.raises(InvalidArrow, match="^middle component is not fixed "
                       "by the end idempotents in a finite quotient$"):
        check_arrow((e, t_ab("b a"), f), tests)
    check_arrow((e, t_ab("(a)^w (b)^w"), f), tests)
    # without tests the components are not read as a triple
    check_arrow((e,), [])


def test_connector_canonicalises_only_the_middle_it_returns(call_counts):
    calls = call_counts("canonical")
    later = 0
    for path in sorted(util.DATA.glob("*.json")):
        x = util.load(path.stem)
        idems = idempotent_terms(x, 4)
        for e in idems:
            for f in idems:
                calls.clear()
                mid = connector(x, e, f)
                assert calls["canonical"] == (mid is not None)
                assert mid == oracles.connector_canonicalising_each_candidate(
                    x, e, f)
                later += mid is None or not mirage_membership(e * f, x, 2)
    # pairs whose first candidate e·f fails, where a connector that
    # canonicalised every candidate made more than one pass
    assert later > 0


def test_idempotent_terms_are_built_canonical(call_counts):
    # w^ω for a primitive w is its own canonical form and distinct w give
    # distinct terms, so the list needs no canonical pass and no dedup
    calls = call_counts("canonical")
    found = []
    for path in sorted(util.DATA.glob("*.json")):
        x = util.load(path.stem)
        for y in [x] + [expand_shift(x, a).target for a in x.alphabet]:
            for bound in (1, 3, 6):
                terms = idempotent_terms(y, bound)
                assert terms == [
                    OmegaTerm(y.alphabet, (Power(w, 0),))
                    for w in ordered_blocks(y, bound)
                    if is_primitive(w) and is_periodic_point(y, w)]
                found.append(terms)
    assert calls["canonical"] == 0
    assert sum(map(len, found)) == 689
    for terms in found:
        assert [canonical(t) for t in terms] == terms
        assert len(set(map(format_term, terms))) == len(terms)


@settings(max_examples=80, deadline=None)
@given(term_strategy())
def test_parse_format_roundtrip(t):
    back = parse_term(AB, format_term(t))
    assert canonical_equal(back, t)


def test_a_long_printed_term_parses_back_in_linear_work():
    """format_term prints one letter per token; 40 000 of them read back
    as two words around a power."""
    rng = random.Random(16)

    def run():
        return Word(AB, tuple(rng.choice("ab") for _ in range(20000)))

    t = OmegaTerm(AB, (run(), Power(Word(AB, ("a", "b")), -1), run()))
    text = format_term(t)
    start = time.perf_counter()
    assert parse_term(AB, text) == t
    assert time.perf_counter() - start < 5


def test_parse_rejects_unknown_symbols():
    with pytest.raises(ValueError):
        t_ab("(ac)^w")
    # every non-space character must belong to a token
    for text, stray in (("a)", "')'"), ("a b b a)", "')'"),
                        ("(a)^(w+)", "')^(w+)'"), ("(a)^(w+1", "')^(w+1'"),
                        ("a ^ b", "'^'"), ("(a))^w", "'))^w'")):
        with pytest.raises(ValueError,
                           match=re.escape(f"unexpected text {stray}")):
            t_ab(text)
