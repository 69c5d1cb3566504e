"""Tests for symbol expansion, the five-type classification, and the
flow functors with their natural isomorphism."""

from __future__ import annotations

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import util
from shiftcat import flowops
from shiftcat.errors import (ClassificationFailure, DiamondOnly, EmptyShift,
                             InvalidArrow, MismatchBug, NotIdempotentWitness,
                             NotInMirage2)
from shiftcat.flowops import (TYPES, ExpansionContext, classify_type, eta,
                              expand_shift, functor_F, functor_G,
                              naturality_rows, term_expand_of_contract,
                              verify_naturality)
from shiftcat.pseudowords import (OmegaTerm, Power, canonical, canonical_equal,
                                  connector, expand_word, format_term,
                                  idempotent_terms, parse_term, unroll)
from shiftcat.semigroups import battery, syntactic_semigroup
from shiftcat.shifts import (ShiftPresentation, blocks, is_block,
                             periodic_counts, zeta)
from shiftcat.words import Alphabet, Word

EVEN = util.load("even")
CTX = expand_shift(EVEN, "a")
B = CTX.target.alphabet

LEGAL_PAIRS = {"ao", "ba", "bb", "oa", "ob"}


def term(text: str):
    return parse_term(B, text)


# -- the expanded presentation ------------------------------------------


def test_expansion_doubles_the_fixed_point():
    x = ShiftPresentation.full_shift(Alphabet(("a",)))
    ctx = expand_shift(x, "a")
    assert tuple(ctx.target.alphabet) == ("a", "o")
    p, _ = periodic_counts(ctx.target, 4)
    assert p == [0, 2, 0, 2]


def test_expansion_changes_the_zeta_function():
    x = util.load("periodic_ab")
    ctx = expand_shift(x, "a")
    assert periodic_counts(x, 6)[0] == [0, 2, 0, 2, 0, 2]
    assert periodic_counts(ctx.target, 6)[0] == [0, 0, 3, 0, 0, 3]
    assert (zeta(x, 6).coefficients
            != zeta(ctx.target, 6).coefficients)


def test_expanded_even_shift_blocks_of_length_two():
    got = sorted(str(w) for w in blocks(CTX.target, 2) if len(w) == 2)
    assert got == sorted(LEGAL_PAIRS)
    assert CTX.source is EVEN
    assert (CTX.letter, CTX.diamond) == ("a", "o")
    assert tuple(B) == ("a", "b", "o")


def test_expansion_validates_its_arguments():
    with pytest.raises(ValueError):
        expand_shift(EVEN, "z")
    with pytest.raises(ValueError):
        expand_shift(EVEN, "a", diamond="b")


def test_an_expansion_that_differs_only_beyond_length_six_is_refused():
    """full-2 and the SFT without b^7 share every block of length at
    most 6, so only a check at every length tells the expansion of one
    from the other's, in either direction."""
    ab = Alphabet(("a", "b"))
    full2 = ShiftPresentation.full_shift(ab)
    no_b7 = ShiftPresentation.sft(ab, ["bbbbbbb"])
    for source, other in ((full2, no_b7), (no_b7, full2)):
        ctx = ExpansionContext(source, "a", "o",
                               expand_shift(other, "a").target)
        with pytest.raises(MismatchBug, match="^the expanded presentation "
                           "and the source disagree on the expansion"):
            flowops._characterization_check(ctx)


def random_sofic(rng):
    """1-8 vertices, 1-3 letters and V to 3V random edges; some present
    the empty shift."""
    alpha = Alphabet(("a", "b", "c")[:rng.randint(1, 3)])
    verts = [str(i) for i in range(rng.randint(1, 8))]
    edges = [(rng.choice(verts), rng.choice(alpha.symbols), rng.choice(verts))
             for _ in range(rng.randint(len(verts), 3 * len(verts)))]
    return ShiftPresentation.sofic(alpha, verts, edges)


def short_disagreement(ctx, n):
    """A source word of length at most n that is a block exactly when
    its expansion is not a block of the target, or None.  Blocks are
    closed under prefixes, so the search extends only the words that
    one side reads."""
    b = ctx.target.alphabet
    stack = [()]
    while stack:
        letters = stack.pop()
        for a in ctx.source.alphabet.symbols:
            u = Word(ctx.source.alphabet, letters + (a,))
            img = expand_word(u, ctx.letter, b, ctx.diamond)
            read = is_block(ctx.source, u), is_block(ctx.target, img)
            if read[0] != read[1]:
                return u
            if read[0] and len(u) < n:
                stack.append(u.letters)
    return None


def test_expansions_pass_the_check_and_broken_ones_fail_it():
    """Every corpus shift at every letter and 200 seeded random sofic
    shifts expand without MismatchBug.  With one edge of the expanded
    presentation dropped, the check refuses exactly when a word of
    length at most 7 tells source and target apart."""
    for ctx in CORPUS_CONTEXTS:
        flowops._characterization_check(ctx)
    rng = random.Random(16)
    outcomes: Counter = Counter()
    while sum(outcomes.values()) < 200:
        x = random_sofic(rng)
        try:
            x.graph()
        except EmptyShift:
            continue
        ctx = expand_shift(x, rng.choice(x.alphabet.symbols))
        raw = ctx.target.to_json()
        del raw["edges"][rng.randrange(len(raw["edges"]))]
        broken = ExpansionContext(x, ctx.letter, ctx.diamond,
                                  ShiftPresentation.from_json(raw))
        try:
            flowops._characterization_check(broken)
            outcome = "passed"
        except EmptyShift:
            outcome = "empty"
        except MismatchBug:
            outcome = "refused"
        if outcome != "empty":
            witness = short_disagreement(broken, 7)
            assert (outcome == "refused") == (witness is not None), raw
        outcomes[outcome] += 1
    assert outcomes == {"passed": 92, "refused": 84, "empty": 24}


# -- the five-type classification ---------------------------------------

WORD_TYPES = {
    "a": "Letter",
    "o": "Letter",
    "b": "ImageE",
    "ao": "ImageE",
    "bb": "ImageE",
    "aob": "ImageE",
    "bao": "ImageE",
    "aobb": "ImageE",
    "bbao": "ImageE",
    "bbaob": "ImageE",
    "ob": "DiamondImageE",
    "obb": "DiamondImageE",
    "obbao": "DiamondImageE",
    "ba": "ImageEAlpha",
    "bba": "ImageEAlpha",
    "aoba": "ImageEAlpha",
    "oba": "DiamondImageEAlpha",
    "obba": "DiamondImageEAlpha",
}

TERM_TYPES = {
    "(a o b b)^w": "ImageE",
    "(b b a o)^w": "ImageE",
    "(b a o b)^w": "ImageE",
    "(b)^w": "ImageE",
    "(a o)^w": "ImageE",
    "(o b b a)^w": "DiamondImageEAlpha",
    "(o a)^w": "DiamondImageEAlpha",
    "(b)^w a": "ImageEAlpha",
    "o (b)^w": "DiamondImageE",
}


def test_word_classification_frozen_examples():
    for text, expected in WORD_TYPES.items():
        assert classify_type(Word.from_str(B, text), CTX) == expected, text


def test_term_classification_frozen_examples():
    for text, expected in TERM_TYPES.items():
        assert classify_type(term(text), CTX) == expected, text


def test_classification_requires_mirage_membership():
    with pytest.raises(NotInMirage2):
        classify_type(Word.from_str(B, "baba"), CTX)
    with pytest.raises(ValueError):
        classify_type(Word(B, ()), CTX)


def test_classification_matches_independent_decomposition():
    """Exhaustive cross-check against a brute-force decomposition.

    The expansion image is enumerated directly, the five shapes are
    recomputed from it, and every word whose length-2 factors are legal
    must match the library's unique classification."""
    bound = 7
    image = set()
    for n in range(1, bound + 1):
        for u in product("ab", repeat=n):
            w = "".join("ao" if c == "a" else c for c in u)
            if len(w) <= bound:
                image.add(w)

    def oracle(w: str) -> list[str]:
        out = []
        if len(w) == 1 and w in ("a", "o"):
            out.append("Letter")
        if w in image:
            out.append("ImageE")
        if len(w) >= 2 and w[0] == "o" and w[1:] in image:
            out.append("DiamondImageE")
        if len(w) >= 2 and w[-1] == "a" and w[:-1] in image:
            out.append("ImageEAlpha")
        if (len(w) >= 2 and w[0] == "o" and w[-1] == "a"
                and (len(w) == 2 or w[1:-1] in image)):
            out.append("DiamondImageEAlpha")
        return out

    classified = 0
    for n in range(1, bound + 1):
        for tup in product("abo", repeat=n):
            w = "".join(tup)
            legal = all(w[i: i + 2] in LEGAL_PAIRS for i in range(n - 1))
            if not legal:
                with pytest.raises(NotInMirage2):
                    classify_type(Word.from_str(B, w), CTX)
                continue
            expected = oracle(w)
            assert len(expected) == 1, w
            got = classify_type(Word.from_str(B, w), CTX)
            assert got == expected[0], w
            assert got in TYPES
            classified += 1
    assert classified == 139


@st.composite
def mirage2_terms(draw):
    """Random terms in the 2-mirage of the expanded even shift.

    A walk along legal pairs is cut into segments; a segment whose last
    and first letters also form a legal pair may become a power.
    """
    walk = [draw(st.sampled_from("abo"))]
    for _ in range(draw(st.integers(0, 9))):
        walk.append(draw(st.sampled_from(
            [c for c in "abo" if walk[-1] + c in LEGAL_PAIRS])))
    cuts = sorted(draw(st.sets(st.integers(1, len(walk) - 1), max_size=3))
                  if len(walk) > 1 else set())
    items = []
    for lo, hi in zip([0] + cuts, cuts + [len(walk)]):
        w = Word(B, tuple(walk[lo:hi]))
        if w.letters[-1] + w.letters[0] in LEGAL_PAIRS and draw(st.booleans()):
            items.append(Power(w, draw(st.integers(-2, 2))))
        else:
            items.append(w)
    return OmegaTerm(B, tuple(items))


def test_term_type_equals_the_type_of_its_unrolling():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mirage2_terms())
    def check(t):
        typ = classify_type(t, CTX)
        assert typ == classify_type(unroll(t, 2), CTX), t
        seen.add(typ)

    check()
    assert seen == set(TYPES)


def _outcome(classify, w, ctx) -> str:
    """The type, or the class of the exception raised."""
    try:
        return classify(w, ctx)
    except Exception as exc:
        return type(exc).__name__


CORPUS_CONTEXTS = [expand_shift(util.load(path.stem), a)
                   for path in sorted(util.DATA.glob("*.json"))
                   for a in util.load(path.stem).alphabet.symbols]


def test_classification_matches_the_five_way_oracle_on_short_words():
    """Every word of length ≤ 5 over each corpus shift expanded at each
    letter gets the type, or the exception, of the classifier that tests
    all five shapes in turn."""
    seen = Counter()
    for ctx in CORPUS_CONTEXTS:
        symbols = ctx.target.alphabet.symbols
        for n in range(1, 6):
            for tup in product(symbols, repeat=n):
                w = Word(ctx.target.alphabet, tup)
                got = _outcome(classify_type, w, ctx)
                assert got == _outcome(oracles.five_way_classify, w, ctx), \
                    (ctx.letter, w)
                seen[got] += 1
    assert set(seen) == set(TYPES) | {"NotInMirage2"}
    assert sum(seen.values()) == 19250


@st.composite
def corpus_terms(draw):
    """A corpus expansion and a term over its target: a walk that mostly
    follows blocks of length 2, cut into words and powers."""
    ctx = draw(st.sampled_from(CORPUS_CONTEXTS))
    symbols = ctx.target.alphabet.symbols
    pairs = {w.letters for w in blocks(ctx.target, 2) if len(w) == 2}
    walk = [draw(st.sampled_from(symbols))]
    for _ in range(draw(st.integers(0, 9))):
        legal = [c for c in symbols if (walk[-1], c) in pairs]
        walk.append(draw(st.sampled_from(legal or symbols)))
    cuts = sorted(draw(st.sets(st.integers(1, len(walk) - 1), max_size=3))
                  if len(walk) > 1 else set())
    items = []
    for lo, hi in zip([0] + cuts, cuts + [len(walk)]):
        w = Word(ctx.target.alphabet, tuple(walk[lo:hi]))
        items.append(Power(w, draw(st.integers(-2, 2)))
                     if draw(st.booleans()) else w)
    return ctx, OmegaTerm(ctx.target.alphabet, tuple(items))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(corpus_terms())
def test_classification_matches_the_five_way_oracle_on_terms(case):
    ctx, t = case
    assert (_outcome(classify_type, t, ctx)
            == _outcome(oracles.five_way_classify, t, ctx)), (ctx.letter, t)


def test_classification_canonicalises_at_most_five_times(call_counts):
    calls = call_counts("canonical")
    for text in ("(o b b a)^(w+1) (o a)^w", "o (b)^w", "(b)^w a",
                 "(a o b b)^w"):
        calls.clear()
        classify_type(term(text), CTX)
        assert 1 <= calls["canonical"] <= 5, text


def test_term_image_membership():
    for text in ("(a o)^w", "(b)^w", "(b b a o)^w", "a o b"):
        assert oracles.term_image_E(term(text), "a", "o"), text
    for text in ("(o a)^w", "(o b b a)^w", "o b a", "b a"):
        assert not oracles.term_image_E(term(text), "a", "o"), text


# -- the flow functors --------------------------------------------------


def _source_arrows(limit: int = 12):
    """Arrows (e, u, f) of idempotent terms over the even shift."""
    arrows = []
    terms = idempotent_terms(EVEN, 3)
    for e in terms:
        for f in terms:
            u = connector(EVEN, e, f)
            if u is not None:
                arrows.append((e, u, f))
            if len(arrows) >= limit:
                return arrows
    return arrows


def test_contraction_inverts_expansion_on_arrows():
    tests = battery(EVEN.alphabet, seed=5)
    for arrow in _source_arrows():
        img = functor_F(arrow, CTX, tests=tests)
        for comp in img:
            assert classify_type(comp, CTX) == "ImageE"
        back = functor_G(img, CTX)
        assert all(canonical_equal(x, y) for x, y in zip(back, arrow))


def test_expansion_inverts_contraction_on_expanded_arrows():
    e, u, f = term("(a o)^w"), term("(a o)^w (b)^w"), term("(b)^w")
    back = functor_F(functor_G((e, u, f), CTX), CTX)
    assert all(canonical_equal(x, y) for x, y in zip(back, (e, u, f)))


def test_expansion_rejects_a_loose_middle():
    s, _ = syntactic_semigroup(util.load("golden_mean"))
    tests = battery(EVEN.alphabet, extra=[(s, dict(s.gen_of))])
    AB = EVEN.alphabet
    arrow = (parse_term(AB, "(a)^w"), parse_term(AB, "b a"),
             parse_term(AB, "(b)^w"))
    with pytest.raises(InvalidArrow):
        functor_F(arrow, CTX, tests=tests)


def test_expansion_rejects_a_non_mirage_component():
    golden = util.load("golden_mean")
    gctx = expand_shift(golden, "a")
    AB = golden.alphabet
    t = parse_term(AB, "(a)^w")
    with pytest.raises(InvalidArrow):
        functor_F((t, parse_term(AB, "b b"), t), gctx)


def test_expansion_refutes_an_image_outside_the_target_mirage(monkeypatch):
    # the source components pass; every component of the image fails
    monkeypatch.setattr(flowops, "mirage_membership",
                        lambda t, x, k: x is CTX.source)
    t = parse_term(EVEN.alphabet, "(b)^w")
    with pytest.raises(MismatchBug, match="^expanded component left the "
                                          "mirage of the expanded shift$"):
        functor_F((t, t, t), CTX)


def test_contraction_refutes_an_image_outside_the_source_mirage(monkeypatch):
    monkeypatch.setattr(flowops, "mirage_membership",
                        lambda t, x, k: x is CTX.target)
    t = term("(b)^w")
    with pytest.raises(MismatchBug, match="^contracted component left the "
                                          "mirage of the source shift$"):
        functor_G((t, t, t), CTX)


def test_classification_refutes_a_local_test_against_the_round_trip(
        monkeypatch):
    image_E = flowops.image_E_membership
    monkeypatch.setattr(flowops, "image_E_membership",
                        lambda *args: not image_E(*args))
    with pytest.raises(MismatchBug, match="^local expansion-image test "
                                          "disagrees with the round trip$"):
        classify_type(term("a o b"), CTX)


def test_contraction_rejects_a_marker_only_component():
    t = term("o")
    with pytest.raises(DiamondOnly):
        functor_G((t, t, t), CTX)


def test_contraction_rejects_a_non_mirage_component():
    t = term("a b")
    with pytest.raises(InvalidArrow):
        functor_G((t, t, t), CTX)


# -- the natural isomorphism --------------------------------------------


def eta_inverse(e: OmegaTerm, ctx) -> tuple:
    """The inverse arrow (F(G(e)), e'·α·e, e) of η at e = ◊·e'·α; the
    identity arrow where η is one."""
    arrow = eta(e, ctx)
    if classify_type(e, ctx) == "ImageE":
        return arrow
    alpha = parse_term(ctx.target.alphabet, ctx.letter)
    return (arrow[2], canonical(oracles.strip_boundary(e) * alpha * e), e)


def test_eta_fixes_idempotents_in_the_expansion_image():
    for text in ("(a o)^w", "(b)^w", "(a o b b)^w"):
        e = term(text)
        assert all(canonical_equal(c, e) for c in eta(e, CTX))
        assert all(canonical_equal(c, e) for c in eta_inverse(e, CTX))


def test_eta_on_marked_idempotents():
    for text in ("(o b b a)^w", "(o a)^w"):
        e = term(text)
        arrow = eta(e, CTX)
        inverse = eta_inverse(e, CTX)
        assert canonical_equal(arrow[0], e)
        assert canonical_equal(arrow[1], canonical(e * term("o")))
        assert canonical_equal(arrow[2], term_expand_of_contract(e, CTX))
        assert canonical_equal(inverse[0], arrow[2])
        assert canonical_equal(inverse[2], e)
        assert canonical_equal(canonical(arrow[1] * inverse[1]), e)
        assert canonical_equal(canonical(inverse[1] * arrow[1]), arrow[2])


def test_eta_frozen_components():
    arrow = eta(term("(o b b a)^w"), CTX)
    assert canonical_equal(arrow[1], term("(o b b a)^w o"))
    assert canonical_equal(arrow[2], term("(b b a o)^w"))


def test_eta_requires_an_idempotent_witness():
    tests = battery(B, seed=7)
    with pytest.raises(NotIdempotentWitness):
        eta(term("b a"), CTX, tests=tests)


def test_eta_rejects_a_bare_marker():
    with pytest.raises(ClassificationFailure):
        eta(term("o"), CTX)


def test_expand_of_contract():
    assert canonical_equal(term_expand_of_contract(term("(o b b a)^w"), CTX),
                           term("(b b a o)^w"))
    with pytest.raises(DiamondOnly):
        term_expand_of_contract(term("o"), CTX)


def test_naturality_on_mixed_idempotent_pairs():
    rows = list(naturality_rows(CTX, 4, seed=13))
    assert rows and all(row["kind"] == "EqualInAll" for row in rows)
    cases = {row["case"] for row in rows}
    assert "case dom=ImageE, cod=DiamondImageEAlpha" in cases
    assert "case dom=DiamondImageEAlpha, cod=DiamondImageEAlpha" in cases


def test_naturality_rows_skip_pairs_without_a_connector():
    # an a-loop and a b-loop on two vertices: no block leads from one
    # loop to the other, so of the 9 ordered pairs of idempotents only
    # the 5 within a loop have a connector
    two_loops = ShiftPresentation.sofic(Alphabet(("a", "b")), ["0", "1"],
                                        [("0", "a", "0"), ("1", "b", "1")])
    ctx = expand_shift(two_loops, "a")
    idems = idempotent_terms(ctx.target, 3)
    assert list(map(format_term, idems)) == ["(b)^w", "(a o)^w", "(o a)^w"]
    assert connector(ctx.target, idems[0], idems[1]) is None
    rows = list(naturality_rows(ctx, 3))
    assert [(row["dom"], row["cod"]) for row in rows] == [
        ("(b)^w", "(b)^w"), ("(a o)^w", "(a o)^w"), ("(a o)^w", "(o a)^w"),
        ("(o a)^w", "(a o)^w"), ("(o a)^w", "(o a)^w")]


def test_naturality_rows_classify_each_idempotent_once(monkeypatch):
    # one classification per idempotent, inside η, however many arrows
    # it ends; the case label is read off η
    calls = Counter()
    classify = flowops._classify

    def spy(w, ctx):
        calls[w] += 1
        return classify(w, ctx)

    monkeypatch.setattr(flowops, "_classify", spy)
    rows = list(naturality_rows(CTX, 5))
    monkeypatch.undo()
    idems = idempotent_terms(CTX.target, 5)
    assert len(idems) == 7 and set(calls) == set(idems)
    assert set(calls.values()) == {1}
    s_tgt, _ = syntactic_semigroup(CTX.target)
    tests = battery(B, None, extra=[(s_tgt, dict(s_tgt.gen_of))])
    expected = []
    for e in idems:
        for f in idems:
            mid = connector(CTX.target, e, f)
            if mid is None:
                continue
            v = verify_naturality((e, mid, f), CTX, tests)
            expected.append({"dom": format_term(e), "cod": format_term(f),
                             "kind": v.kind, "case": v.note.split(";")[0]})
    assert len(rows) == 49 and rows == expected


def test_naturality_rows_send_only_the_middle_through_the_functors(
        call_counts):
    # G and F see the middle of each arrow once; the ends reach them only
    # through η, which builds E(C(e)) once per idempotent
    idems = idempotent_terms(CTX.target, 5)
    calls = call_counts("term_contract", "term_expand")
    rows = list(naturality_rows(CTX, 5))
    once = len(rows) + len(idems)
    assert (len(rows), len(idems)) == (49, 7)
    assert calls == Counter(term_contract=once, term_expand=once)


def test_naturality_rows_match_the_square_through_both_functors():
    """Every corpus expansion at bound 4 gives the rows and verdicts of
    the square that sends whole arrows through G and F, checks both ends
    against η, and canonicalises each candidate and side first."""
    arrows = 0
    for ctx in CORPUS_CONTEXTS:
        s_tgt, _ = syntactic_semigroup(ctx.target)
        tests = battery(ctx.target.alphabet, None,
                        extra=[(s_tgt, dict(s_tgt.gen_of))])
        idems = idempotent_terms(ctx.target, 4)
        expected = []
        for e in idems:
            for f in idems:
                mid = oracles.connector_canonicalising_each_candidate(
                    ctx.target, e, f)
                if mid is None:
                    continue
                v = oracles.naturality_square_through_both_functors(
                    (e, mid, f), ctx, tests)
                assert verify_naturality((e, mid, f), ctx, tests) == v
                expected.append({"dom": format_term(e),
                                 "cod": format_term(f), "kind": v.kind,
                                 "case": v.note.split(";")[0]})
        assert list(naturality_rows(ctx, 4)) == expected, ctx.letter
        arrows += len(expected)
    assert arrows == 470
