"""Karoubi envelope, retraction order, labeled posets, induced functors."""

import random

import pytest

import oracles
import util
from shiftcat import karoubi
from shiftcat.codes import centralize, higher_block_map
from shiftcat.errors import InvalidArrow, SizeLimit
from shiftcat.karoubi import (ComparisonVerdict, KaroubiCategory,
                              LabeledPoset, automorphism_group, build,
                              induced_functor_on_arrow,
                              induced_functor_on_idempotent,
                              iso_class_census, karoubi_vs_lu_comparison,
                              lu_labeled_poset, poset_isomorphic,
                              retraction_order)
from shiftcat.pseudowords import (canonical, canonical_equal, parse_term,
                                  quotient_equal)
from shiftcat.semigroups import (FiniteSemigroup, battery, generate, green,
                                 local_units, random_transformation_semigroup,
                                 schutzenberger, syntactic_semigroup)
from shiftcat.words import Alphabet, Word

AB = Alphabet(("a", "b"))


def chain_semilattice(n: int) -> FiniteSemigroup:
    """x·y = min(x, y) on {0..n−1}; every element a named generator."""
    alpha = Alphabet(tuple(f"g{i}" for i in range(n)))
    table = [[min(x, y) for y in range(n)] for x in range(n)]
    witnesses = {i: Word(alpha, (f"g{i}",)) for i in range(n)}
    return FiniteSemigroup(table, list(range(n)), witnesses, alpha)


@pytest.fixture(scope="module")
def even_sg():
    return syntactic_semigroup(util.load("even"))


@pytest.fixture(scope="module")
def orbit_sg():
    return syntactic_semigroup(util.load("periodic_ab"))


# -- category structure -------------------------------------------------


def test_cyclic_group_envelope():
    z3 = generate([(1, 2, 0)], Alphabet(("a",)))
    cat = build(z3)
    assert len(cat.objects) == 1
    assert len(cat.arrows()) == 3
    e = cat.objects[0]
    assert automorphism_group(cat, e).order == 3
    assert iso_class_census(cat) == {1: 1}


def test_hom_and_compose(orbit_sg):
    s, _ = orbit_sg
    cat = build(s)
    for e in cat.objects:
        ide = cat.identity(e)
        assert cat.is_arrow(ide)
        for f in cat.objects:
            for a in cat.hom(e, f):
                assert cat.is_arrow(a)
                assert cat.compose(cat.identity(e), a) == a
                assert cat.compose(a, cat.identity(f)) == a


def test_orbit_envelope_frozen(orbit_sg):
    s, _ = orbit_sg
    cat = build(s)
    assert cat.objects == (2, 3, 4)
    assert len(cat.arrows()) == 13
    assert sorted(retraction_order(cat)) == \
        [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 3), (4, 4)]
    assert iso_class_census(cat) == {1: 1, 2: 2}
    assert [automorphism_group(cat, e).order for e in cat.objects] == \
        [1, 1, 1]


def test_retraction_order_is_j_order(orbit_sg, even_sg):
    for s, _ in (orbit_sg, even_sg):
        cat = build(s)
        g = green(s)
        rel = retraction_order(cat)
        for e in cat.objects:
            for f in cat.objects:
                assert ((e, f) in rel) == g.j_leq(g.j_of[e], g.j_of[f])


def test_even_census_frozen(even_sg):
    s, _ = even_sg
    cat = build(s)
    census = iso_class_census(cat)
    assert census == {1: 2, 2: 2}
    # objects in size-n classes sum to the number of idempotents
    assert sum(census.values()) == len(s.idempotents())


def test_chain_semilattice_census():
    cat = build(chain_semilattice(3))
    assert iso_class_census(cat) == {1: 3}
    assert sorted(retraction_order(cat)) == \
        [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def test_automorphism_group_matches_schutzenberger(even_sg):
    s, _ = even_sg
    cat = build(s)
    g = green(s)
    for e in cat.objects:
        aut = automorphism_group(cat, e)
        h = g.H[g.h_of[e]]
        assert aut.order == schutzenberger(s, h).order
    assert sorted(automorphism_group(cat, e).order
                  for e in cat.objects) == [1, 1, 1, 2]


def test_arrows_size_limit():
    # full transformation monoid on 4 points: 256 elements
    gens = [(1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3)]
    alpha = Alphabet(("a", "b", "c"))
    t4 = generate(gens, alpha)
    assert t4.size == 256
    cat = build(t4)
    with pytest.raises(SizeLimit):
        cat.arrows()
    # lazy hom sets still work
    e = cat.objects[0]
    assert len(cat.hom(e, e)) >= 1


# -- labeled posets ------------------------------------------------------


def test_lu_labeled_poset_even_frozen(even_sg):
    s, accept = even_sg
    p = lu_labeled_poset(s, accept)
    assert p.elements == (0, 1)
    assert sorted(p.order) == [(0, 0), (0, 1), (1, 1)]
    assert [(e, reg, grp.order) for (e, reg, grp) in p.labels] == \
        [(0, True, 1), (1, True, 2)]
    p_all = lu_labeled_poset(s, range(s.size))
    assert p_all.elements == (0, 1, 2)
    assert sorted(p_all.order) == \
        [(0, 0), (0, 1), (1, 1), (2, 0), (2, 1), (2, 2)]


def test_lu_poset_carrier_is_local_units(even_sg):
    s, accept = even_sg
    g = green(s)
    p = lu_labeled_poset(s, accept)
    lu = local_units(s, accept)
    assert set(p.elements) == {g.j_of[x] for x in lu}


def test_labeled_poset_validation(even_sg):
    s, accept = even_sg
    p = lu_labeled_poset(s, accept)
    with pytest.raises(ValueError):
        LabeledPoset(p.elements, frozenset({(0, 1), (1, 0), (0, 0), (1, 1)}),
                     p.labels)  # not antisymmetric
    with pytest.raises(ValueError):
        LabeledPoset((0, 1), frozenset({(0, 0), (1, 1)}), p.labels[:1])


def test_to_dot_hasse_reduction(even_sg):
    s, _ = even_sg
    p = lu_labeled_poset(s, range(s.size))
    dot = p.to_dot()
    # chain J2 <= J0 <= J1: the transitive edge J2 -> J1 is dropped
    assert '"J2" -> "J0";' in dot
    assert '"J0" -> "J1";' in dot
    assert '"J2" -> "J1";' not in dot
    assert dot == p.to_dot()


def test_poset_isomorphic_verdicts(even_sg, orbit_sg):
    s, accept = even_sg
    p = lu_labeled_poset(s, accept)
    self_iso = poset_isomorphic(p, p)
    assert self_iso.kind == "Iso"
    s2, accept2 = orbit_sg
    q = lu_labeled_poset(s2, range(s2.size))
    diff = poset_isomorphic(p, q)
    assert diff.kind == "NotIso"


def test_poset_isomorphic_size_limit():
    big = chain_semilattice(17)
    p = lu_labeled_poset(big, range(17))
    with pytest.raises(SizeLimit):
        poset_isomorphic(p, p)


# -- envelope vs local-unit poset comparison ------------------------------


def test_karoubi_vs_lu_small_examples(even_sg, orbit_sg):
    for s, accept in (even_sg, orbit_sg):
        for carrier in (range(s.size), accept):
            v = karoubi_vs_lu_comparison(s, carrier)
            assert isinstance(v, ComparisonVerdict)
            assert v.kind == "Iso", v.reason


def test_karoubi_vs_lu_on_randoms():
    rng = random.Random(29)
    done = 0
    while done < 5:
        s = random_transformation_semigroup(AB, 3, rng)
        if s.size > 60:
            continue
        v = karoubi_vs_lu_comparison(s, range(s.size))
        assert v.kind == "Iso", v.reason
        done += 1


def test_unit_pair_is_the_first_pair_of_the_double_loop():
    rng = random.Random(7)
    for _ in range(8):
        s = random_transformation_semigroup(AB, rng.randrange(2, 5), rng)
        t, idems = s.table, s.idempotents()
        for u in range(s.size):
            first = next(((e, f) for e in idems for f in idems
                          if t[t[e][u]][f] == u), None)
            assert karoubi._unit_pair(s, u) == first


# -- induced functors ------------------------------------------------------


def test_induced_functor_identity_law():
    cen = centralize(higher_block_map(AB, 2))
    tests = battery(cen.target, seed=3)
    src_tests = battery(AB)
    e = parse_term(AB, "(ab)^w")
    img = induced_functor_on_idempotent(cen, e, tests)
    v = quotient_equal(img * img, img, tests)
    assert v.kind == "EqualInAll"
    ide = induced_functor_on_arrow(cen, (e, e, e), tests)
    assert canonical_equal(ide[0], ide[1]) and canonical_equal(ide[1], ide[2])


def test_induced_functor_rejects_non_arrow():
    cen = centralize(higher_block_map(AB, 2))
    s, _ = syntactic_semigroup(util.load("golden_mean"))
    tests = battery(cen.source, extra=[(s, dict(s.gen_of))])
    e = parse_term(AB, "(a)^w")
    f = parse_term(AB, "(b)^w")
    # e·u·f ends in b^ω, which hits the zero of the golden-mean
    # quotient (bb forbidden), while u = ba does not.
    u = parse_term(AB, "ba")
    with pytest.raises(InvalidArrow):
        induced_functor_on_arrow(cen, (e, u, f), tests)


def test_induced_functor_composition_law():
    cen = centralize(higher_block_map(AB, 2))
    tgt_tests = battery(cen.target, seed=11)
    e = parse_term(AB, "(a)^w")
    f = parse_term(AB, "(b)^w")
    g = parse_term(AB, "(a)^w")
    u = parse_term(AB, "(a)^w (b)^w")      # arrow e -> f
    v = parse_term(AB, "(b)^w (a)^w")      # arrow f -> g
    img_u = induced_functor_on_arrow(cen, (e, u, f), tgt_tests)
    img_v = induced_functor_on_arrow(cen, (f, v, g), tgt_tests)
    uv = canonical(u * v)
    img_uv = induced_functor_on_arrow(cen, (e, uv, g), tgt_tests)
    w = quotient_equal(img_u[1] * img_v[1], img_uv[1], tgt_tests)
    assert w.kind == "EqualInAll"
