"""Karoubi envelope, retraction order, labeled posets, induced functors."""

import random
import time

import pytest

import oracles
import util
from shiftcat import karoubi
from shiftcat.codes import centralize, higher_block_map
from shiftcat.errors import InvalidArrow, MismatchBug, SizeLimit
from shiftcat.karoubi import (ComparisonVerdict, LabeledPoset,
                              automorphism_group, build,
                              induced_functor_on_arrow,
                              induced_functor_on_idempotent,
                              iso_class_census, karoubi_vs_lu_comparison,
                              lu_labeled_poset, poset_isomorphic,
                              retraction_order)
from shiftcat.pseudowords import (canonical, canonical_equal, parse_term,
                                  quotient_equal)
from shiftcat.semigroups import (FiniteSemigroup, GreenData, SchutzGroup,
                                 battery, certify_retraction, generate, green,
                                 ideal_factors, inverse_pair, local_units,
                                 random_transformation_semigroup,
                                 schutzenberger, syntactic_semigroup,
                                 unit_pairs)
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
    assert sum(map(len, oracles.hom_sets(z3.table).values())) == 3
    e = cat.objects[0]
    assert automorphism_group(cat, e).order == 3
    assert iso_class_census(cat) == {1: 1}


def test_orbit_envelope_frozen(orbit_sg):
    s, _ = orbit_sg
    cat = build(s)
    assert cat.objects == (2, 3, 4)
    assert sum(map(len, oracles.hom_sets(s.table).values())) == 13
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
    with pytest.raises(ValueError, match="not antisymmetric"):
        LabeledPoset(p.elements, frozenset({(0, 1), (1, 0), (0, 0), (1, 1)}),
                     p.labels)
    with pytest.raises(ValueError, match="cover exactly"):
        LabeledPoset((0, 1), frozenset({(0, 0), (1, 1)}), p.labels[:1])
    with pytest.raises(ValueError, match="not transitive"):
        height_two(3, {(0, 1), (1, 2)})     # 0 ≤ 1 ≤ 2 without 0 ≤ 2


def test_a_160_chain_checks_its_order_in_under_a_second():
    # 12 880 order pairs; checking transitivity on every two of them
    # took over 5 s
    p = lu_labeled_poset(chain_semilattice(160), range(160))
    assert len(p.order) == 160 * 161 // 2
    start = time.perf_counter()
    LabeledPoset(p.elements, p.order, p.labels)
    assert time.perf_counter() - start < 1.0


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


def test_poset_isomorphic_on_symmetric_groups():
    # a one-element poset labeled by S_5, of order 120: the same label
    # is isomorphic by the identity, while the other numbering of S_5
    # has another carrier and the group search finds the isomorphism
    p = lu_labeled_poset(util.symmetric_5(), range(120))
    q = lu_labeled_poset(util.symmetric_5(swap=True), range(120))
    assert p.label_of(p.elements[0])[1].carrier != \
        q.label_of(q.elements[0])[1].carrier
    assert poset_isomorphic(p, p).kind == "Iso"
    assert poset_isomorphic(p, q).kind == "Iso"
    assert poset_isomorphic(q, p).kind == "Iso"


def height_two(n, below, cyclic=()):
    """Elements 0..n-1, each regular, ordered by x < y for (x, y) in
    below, labeled by the cyclic group of order cyclic[x] (default 1)."""
    def group(k):
        return SchutzGroup(tuple(range(k)), frozenset(
            tuple((i + j) % k for i in range(k)) for j in range(k)), k)

    order = frozenset(below) | {(x, x) for x in range(n)}
    return LabeledPoset(tuple(range(n)), order, tuple(
        (x, True, group(dict(cyclic).get(x, 1))) for x in range(n)))


def test_poset_isomorphic_backtracks():
    # two chains 0 < 1 and 2 < 3, told apart only by their tops' groups:
    # the first choice, 0 -> 0 and 2 -> 2, fails one level up
    p = height_two(4, {(0, 1), (2, 3)}, {1: 2})
    q = height_two(4, {(0, 1), (2, 3)}, {3: 2})
    verdict = poset_isomorphic(p, q)
    assert (verdict.kind, verdict.witness) == (
        "Iso", ((0, 2), (1, 3), (2, 0), (3, 1)))


def test_poset_isomorphic_rejects_a_pair_by_its_group():
    # Z4 and Z2×Z2 on four positions: equal signatures, other groups
    z4 = height_two(1, (), {0: 4})
    klein = LabeledPoset((0,), frozenset({(0, 0)}), ((0, True, SchutzGroup(
        (0, 1, 2, 3), frozenset({(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1),
                                 (3, 2, 1, 0)}), 4)),))
    verdict = poset_isomorphic(z4, klein)
    assert (verdict.kind, verdict.reason) == (
        "NotIso", "no label- and order-preserving bijection")
    assert poset_isomorphic(klein, klein).kind == "Iso"


def test_poset_isomorphic_compares_groups_of_matching_signatures_only(
        monkeypatch):
    # an antichain of four, two elements labeled Z2 on each side: only
    # the 2·2 + 2·2 pairs of equal group order reach the group search
    compared = []

    def spy(g1, g2):
        compared.append((g1.order, g2.order))
        return True
    monkeypatch.setattr(karoubi, "groups_isomorphic", spy)
    p = height_two(4, (), {0: 2, 1: 2})
    q = height_two(4, (), {2: 2, 3: 2})
    assert poset_isomorphic(p, q).kind == "Iso"
    assert compared and all(a == b for a, b in compared)
    assert len(compared) < 16


def test_poset_isomorphic_refusals():
    one, two = height_two(1, ()), height_two(2, ())
    assert poset_isomorphic(one, two).reason == "different cardinalities"
    # an 8-cycle and two 4-cycles between four minima and four maxima:
    # every element covers or is covered by two, so only the search
    # tells them apart
    cycle = height_two(8, {(i, 4 + j) for i in range(4)
                           for j in (i, (i + 1) % 4)})
    squares = height_two(8, {(i, 4 + j) for i in range(4)
                             for j in range(i // 2 * 2, i // 2 * 2 + 2)})
    verdict = poset_isomorphic(cycle, squares)
    assert (verdict.kind, verdict.reason) == (
        "NotIso", "no label- and order-preserving bijection")


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


def test_karoubi_vs_lu_on_symmetric_groups():
    # the arrow group and the base label of S_5 are one permutation group
    s5 = util.symmetric_5()
    assert karoubi_vs_lu_comparison(s5, range(120)).kind == "Iso"
    # on 6 points, S_5 and a map merging 5 into 0 make the 600 maps of
    # rank 5 one J-class of 5 H-classes, each a copy of S_5; without the
    # H-class of its least element, the arrows' middles lie in another
    # H-class, whose group has another carrier than the base label
    s = generate([(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 0, 5),
                  (0, 1, 2, 3, 4, 0)], Alphabet(("a", "b", "c")))
    g = green(s)
    rank5 = max(g.J, key=len)
    assert (s.size, len(rank5), len({g.h_of[x] for x in rank5})) == \
        (720, 600, 5)
    least = g.H[g.h_of[min(rank5)]]
    k = [x for x in range(s.size) if x not in least]
    assert karoubi_vs_lu_comparison(s, k).kind == "Iso"


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


def test_unit_pair_is_the_first_pair_of_idempotents_fixing_the_middle():
    rng = random.Random(7)
    for _ in range(8):
        s = random_transformation_semigroup(AB, rng.randrange(2, 5), rng)
        t, idems = s.table, s.idempotents()
        for u in range(s.size):
            first = next(((e, f) for e in idems for f in idems
                          if t[t[e][u]][f] == u), None)
            assert unit_pairs(s).get(u) == first


def test_karoubi_vs_lu_certifies_each_middle_once(monkeypatch):
    # the |S| = 2225 shift: one arrow per middle, one search per class;
    # a search per middle over every arrow took 1.7-2.2 s per carrier
    s, accept = syntactic_semigroup(util.sofic_2225())
    searches = []

    def counted(s, f):
        searches.append(f)
        return ideal_factors(s, f)

    monkeypatch.setattr(karoubi, "ideal_factors", counted)
    witness = ((2, 2), (6, 6), (7, 7), (12, 12))
    for carrier, expected in ((accept, witness),
                              (range(s.size), (*witness, (13, 13)))):
        searches.clear()
        start = time.perf_counter()
        v = karoubi_vs_lu_comparison(s, carrier)
        assert time.perf_counter() - start < 0.5
        assert (v.kind, v.witness) == ("Iso", expected)
        assert len(searches) == len(expected)


# -- refutations: one corrupted input per MismatchBug ------------------


def null_pair() -> FiniteSemigroup:
    """{g, g·g}, g·g a zero: g is no local unit."""
    return generate([(1, 2, 2)], Alphabet(("a",)))


def z3() -> FiniteSemigroup:
    return generate([(1, 2, 0)], Alphabet(("a",)))


def with_green(monkeypatch, s, **fields):
    """Green's relations of s with the given fields replaced."""
    g = green(s)
    monkeypatch.setattr(s, "_green", GreenData(
        *(fields.get(name, getattr(g, name)) for name in GreenData.__slots__)))


def test_comparison_refutes_a_local_unit_without_unit_pair(monkeypatch):
    s = null_pair()
    monkeypatch.setattr(karoubi, "local_units", lambda s, k: frozenset(k))
    with pytest.raises(MismatchBug, match="local unit has no unit pair"):
        karoubi_vs_lu_comparison(s, range(s.size))


def test_comparison_refutes_a_search_that_misses_the_middle(monkeypatch,
                                                            even_sg):
    s, _ = even_sg
    monkeypatch.setattr(karoubi, "ideal_factors", lambda s, f: {})
    with pytest.raises(MismatchBug, match="middles are not J-comparable"):
        karoubi_vs_lu_comparison(s, range(s.size))


def test_comparison_refutes_wrong_ideal_factors(monkeypatch, even_sg):
    s, _ = even_sg
    monkeypatch.setattr(karoubi, "ideal_factors",
                        lambda s, f: dict.fromkeys(range(s.size),
                                                   (None, None)))
    with pytest.raises(MismatchBug, match="composition certificate failed"):
        karoubi_vs_lu_comparison(s, range(s.size))


def test_comparison_refutes_wrong_d_class_factors(monkeypatch, even_sg):
    s, _ = even_sg
    monkeypatch.setattr(karoubi, "d_class_factors",
                        lambda s, u0, u: (None, None))
    with pytest.raises(MismatchBug, match="composition certificate failed"):
        karoubi_vs_lu_comparison(s, range(s.size))


def test_comparison_refutes_a_middle_outside_the_d_class(monkeypatch,
                                                         even_sg):
    # with every element its own L-class, R_{u0} ∩ L_u is empty for the
    # middles u of the 2x2 D-class outside the R-class of u0
    s, _ = even_sg
    with_green(monkeypatch, s, l_of=tuple(range(s.size)))
    with pytest.raises(MismatchBug, match="no factors through their D-class"):
        karoubi_vs_lu_comparison(s, range(s.size))


def test_comparison_refutes_a_dropped_j_order_pair(monkeypatch, even_sg):
    # the classes form the chain 2 < 0 < 1; (0, 1) is a covering pair
    s, _ = even_sg
    g = green(s)
    assert lu_labeled_poset(s, range(s.size)).order == {
        (0, 0), (1, 1), (2, 2), (2, 0), (2, 1), (0, 1)}
    with_green(monkeypatch, s, j_below=g.j_below - {(0, 1)})
    with pytest.raises(MismatchBug, match="arrow order exceeds the base"):
        karoubi_vs_lu_comparison(s, range(s.size))


def test_comparison_refutes_a_flipped_regularity_label(monkeypatch,
                                                       even_sg):
    s, _ = even_sg
    g = green(s)
    with_green(monkeypatch, s, regular=(not g.regular[0], *g.regular[1:]))
    with pytest.raises(MismatchBug, match="regularity labels disagree"):
        karoubi_vs_lu_comparison(s, range(s.size))


def test_comparison_refutes_an_h_class_outside_the_hom_set(monkeypatch,
                                                           even_sg):
    # the least middle of class 0 takes the H-class of an element that
    # its unit pair does not fix
    s, _ = even_sg
    t, g = s.table, green(s)
    u0 = min(g.J[0])
    e, f = unit_pairs(s)[u0]
    h_of = list(g.h_of)
    h_of[u0] = next(g.h_of[w] for w in range(s.size) if t[t[e][w]][f] != w)
    with_green(monkeypatch, s, h_of=tuple(h_of))
    with pytest.raises(MismatchBug, match="H-class middle escapes"):
        karoubi_vs_lu_comparison(s, range(s.size))


def test_comparison_refutes_a_translation_off_its_h_class(monkeypatch):
    s = z3()
    monkeypatch.setattr(karoubi, "right_factors",
                        lambda s, u, h: dict.fromkeys(v for v in h if v != u))
    with pytest.raises(MismatchBug, match="misses its H-class mate"):
        karoubi_vs_lu_comparison(s, range(s.size))


def test_comparison_refutes_unequal_group_labels(monkeypatch):
    s = z3()
    monkeypatch.setattr(karoubi, "groups_isomorphic", lambda g1, g2: False)
    with pytest.raises(MismatchBug, match="group labels disagree"):
        karoubi_vs_lu_comparison(s, range(s.size))


# -- certificates against hom-set oracles -------------------------------

RANDOM = [f"{seed}/{states}" for seed in range(30) for states in (3, 4, 5)]


def case_semigroup(case: str) -> FiniteSemigroup:
    """A corpus syntactic semigroup, or "seed/states" for a seeded random
    transformation semigroup over {a, b}."""
    if case in util.CORPUS:
        return syntactic_semigroup(util.load(case))[0]
    seed, states = map(int, case.split("/"))
    return random_transformation_semigroup(AB, states, random.Random(seed))


# seeded randoms of at most 200 elements (the largest has 141)
CASES = [*util.CORPUS, *(c for c in RANDOM if case_semigroup(c).size <= 200)]


@pytest.mark.parametrize("case", CASES)
def test_karoubi_layer_matches_hom_set_oracles(case):
    s = case_semigroup(case)
    t = s.table
    cat = build(s)
    assert retraction_order(cat) == oracles.brute_retraction_order(t)
    assert iso_class_census(cat) == oracles.brute_iso_census(t)
    g = green(s)
    for e in cat.objects:
        aut = automorphism_group(cat, e)
        assert aut == schutzenberger(s, g.H[g.h_of[e]])
        assert list(aut.hclass) == oracles.brute_automorphisms(t, e)
        assert aut.order == len(aut.hclass)
        for f in cat.objects:
            if oracles.brute_conjugating_pair(t, e, f) is None:
                assert g.j_of[e] != g.j_of[f]
                with pytest.raises(MismatchBug):
                    inverse_pair(s, e, f)
            else:
                assert g.j_of[e] == g.j_of[f]
                x, y = inverse_pair(s, e, f)
                assert (t[x][y], t[y][x]) == (e, f)
    half = random.Random(case).sample(range(s.size), s.size // 2)
    for carrier in (range(s.size), half):
        assert (karoubi_vs_lu_comparison(s, carrier).kind
                == oracles.brute_karoubi_vs_lu(t, carrier))


def test_ideal_factors_reach_exactly_the_ideal():
    s = case_semigroup("27/5")
    oracle = oracles.GreenOracle(s.table)
    for v in range(0, s.size, 7):
        factors = ideal_factors(s, v)
        assert set(factors) == oracle.two_ideal[v]
        for u, (l, r) in factors.items():
            lv = v if l is None else s.product(l, v)
            assert (lv if r is None else s.product(lv, r)) == u


def test_a_corrupted_certificate_raises(even_sg):
    s, _ = even_sg
    t = s.table
    g = green(s)
    e, f = next((e, f) for e in s.idempotents() for f in s.idempotents()
                if g.j_of[e] != g.j_of[f] and g.j_leq(g.j_of[e], g.j_of[f]))
    l, r = ideal_factors(s, f)[e]
    x = s.product(e if l is None else s.product(e, l), f)
    y = s.product(f if r is None else s.product(f, r), e)
    certify_retraction(t, e, f, x, y)
    bad = [list(row) for row in t]
    bad[x][y] = next(z for z in range(s.size) if z != e)
    with pytest.raises(MismatchBug):
        certify_retraction(bad, e, f, x, y)
    # the inverse pair of a D-class, with one of its products flipped
    e, f = next((e, f) for e in s.idempotents() for f in s.idempotents()
                if e != f and g.j_of[e] == g.j_of[f])
    a, a_inv = inverse_pair(s, e, f)
    bad = [list(row) for row in t]
    bad[a_inv][a] = e
    with pytest.raises(MismatchBug):
        certify_retraction(bad, f, e, a_inv, a)


def test_retraction_order_refutes_a_wrong_j_order(monkeypatch, even_sg):
    s, _ = even_sg
    g = green(s)
    dropped = max((g.j_of[e], g.j_of[f]) for e in s.idempotents()
                  for f in s.idempotents()
                  if g.j_of[e] != g.j_of[f]
                  and g.j_leq(g.j_of[e], g.j_of[f]))
    wrong = GreenData(*(getattr(g, name) for name in GreenData.__slots__[:-2]),
                      g.j_below - {dropped}, g.regular)
    monkeypatch.setattr(s, "_green", wrong)
    with pytest.raises(MismatchBug, match="disagrees with the J-order"):
        retraction_order(build(s))


def test_retraction_order_refutes_wrong_ideal_factors(monkeypatch):
    # the ideal is kept, but every element is given the factors (None,
    # None); in this semigroup e₀·f₀·e₀ ≠ e₀ for a strict class pair, so
    # x₀ = e₀·f₀ and y₀ = f₀·e₀ compose to no retraction
    s = case_semigroup("23/4")
    g = green(s)
    t = s.table
    firsts = {g.j_of[e]: e for e in reversed(s.idempotents())}.values()
    assert any(g.j_of[e] != g.j_of[f] and g.j_leq(g.j_of[e], g.j_of[f])
               and t[t[e][f]][e] != e for e in firsts for f in firsts)
    monkeypatch.setattr(karoubi, "ideal_factors", lambda s, f: dict.fromkeys(
        ideal_factors(s, f), (None, None)))
    with pytest.raises(MismatchBug, match="retraction certificate"):
        retraction_order(build(s))


def test_a_j_class_without_inverse_pairs_is_refuted(monkeypatch, even_sg):
    # with every element its own L-class, the two idempotents of the 2x2
    # D-class, in different R-classes, meet in no element
    s, _ = even_sg
    with_green(monkeypatch, s, l_of=tuple(range(s.size)))
    for certified in (iso_class_census, retraction_order):
        with pytest.raises(MismatchBug, match="admit no inverse pair"):
            certified(build(s))


def test_retraction_order_certifies_each_class_pair_once(monkeypatch):
    # the |S| = 2225 shift: 518 objects in 5 J-classes, one search per
    # class and one retraction per related class pair, of 14, for the
    # 188 792 pairs of objects
    s, _ = syntactic_semigroup(util.sofic_2225())
    searches, retractions = [], []

    def counted_search(s, f):
        searches.append(f)
        return ideal_factors(s, f)

    def counted_retraction(*args):
        retractions.append(args)
        certify_retraction(*args)

    monkeypatch.setattr(karoubi, "ideal_factors", counted_search)
    monkeypatch.setattr(karoubi, "certify_retraction", counted_retraction)
    cat = build(s)
    assert len(retraction_order(cat)) == 188_792
    assert (len(cat.objects), len(searches), len(retractions)) == (518, 5, 14)


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


def test_induced_functor_refutes_a_non_idempotent():
    cen = centralize(higher_block_map(AB, 2))
    tests = battery(cen.target, seed=3)
    for text in ("a b", "(a)^(w+1)"):
        with pytest.raises(MismatchBug, match="^image of an idempotent is "
                           "not idempotent in a finite quotient$"):
            induced_functor_on_idempotent(cen, parse_term(AB, text), tests)


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
