"""Finite semigroups: generation, syntactic quotients, Green's
relations, omega powers, Schützenberger groups, local units."""

import itertools
import random
from operator import itemgetter

import pytest

import oracles
import util
from shiftcat import semigroups
from shiftcat.errors import MismatchBug
from shiftcat.semigroups import (FiniteSemigroup, NotJEquivalent,
                                 conjugation_witness, generate, green,
                                 groups_isomorphic, index_and_period,
                                 local_units, omega_plus, omega_power,
                                 random_transformation_semigroup,
                                 schutzenberger, syntactic_semigroup)
from shiftcat.words import Alphabet, Word

AB = Alphabet(("a", "b"))

SYNTACTIC_SIZE = {
    "golden_mean": 5,
    "even": 7,
    "full2": 1,
    "periodic_ab": 5,
    "fixed_point": 2,
    "marker_cycle": 11,
}


@pytest.fixture(scope="module")
def corpus_semigroups():
    out = {}
    for name in SYNTACTIC_SIZE:
        out[name] = syntactic_semigroup(util.load(name))
    return out


def cyclic(m: int, alphabet=Alphabet(("a",))):
    rot = tuple((i + 1) % m for i in range(m))
    gens = [rot] * len(alphabet)
    return generate(gens, alphabet)


def null_two() -> FiniteSemigroup:
    # {0, g} with all products 0; g is the generator, 0 = g·g.
    return FiniteSemigroup([[0, 0], [0, 0]], [1],
                           {1: Word(Alphabet(("a",)), ("a",)),
                            0: Word(Alphabet(("a",)), ("a", "a"))},
                           Alphabet(("a",)))


def test_generate_cyclic_group_sizes():
    assert cyclic(3).size == 3
    assert cyclic(5).size == 5


def test_generate_left_to_right_action():
    # ab means: apply a's transformation first, then b's.
    a = (1, 0, 2)   # swap 0,1
    b = (0, 2, 1)   # swap 1,2
    s = generate([a, b], AB)
    ab = s.eval_word("ab")
    ba = s.eval_word("ba")
    assert ab != ba  # the two compositions differ as transformations


def random_maps(seed: int, states: int = 6):
    rng = random.Random(seed)
    return [tuple(rng.randrange(states) for _ in range(states))
            for _ in AB.symbols]


@pytest.fixture(scope="module")
def large_random():
    """A seeded semigroup of 1222 elements, more than 512 and 400."""
    maps = random_maps(39)
    s = generate(maps, AB)
    assert s.size > 1000
    return s, maps


def witness_maps(s: FiniteSemigroup, maps) -> list[tuple[int, ...]]:
    """The transformation of each element, composed along its witness."""
    out = []
    for x in range(s.size):
        m = tuple(range(len(maps[0])))
        for a in s.witness(x).letters:
            m = itemgetter(*m)(maps[s.alphabet.index(a)])
        out.append(m)
    return out


@pytest.mark.parametrize("seed", [0, 12, 23, 39])
def test_table_matches_composed_witness_maps(seed):
    maps = random_maps(seed)
    s = generate(maps, AB)
    elem = witness_maps(s, maps)
    index = {m: x for x, m in enumerate(elem)}
    assert len(index) == s.size
    for x, mx in enumerate(elem):
        then_y = itemgetter(*mx)     # the map of witness(x) + witness(y)
        assert s.table[x] == tuple(index[then_y(my)] for my in elem), x


def test_light_test_rejects_a_large_corrupted_table(large_random):
    s, _ = large_random
    n = s.size
    witnesses = {x: s.witness(x) for x in range(n)}
    table = [list(r) for r in s.table]
    FiniteSemigroup(table, s.generators, witnesses, AB)
    x, y = n // 2, n - 1
    assert y not in s.generators   # witness words never read column y
    table[x][y] = (table[x][y] + 1) % n
    with pytest.raises(ValueError, match="associativity"):
        FiniteSemigroup(table, s.generators, witnesses, AB)


def test_green_asserts_j_equals_d_above_400(large_random, monkeypatch):
    s, _ = large_random
    fresh = FiniteSemigroup(s.table, s.generators,
                            {x: s.witness(x) for x in range(s.size)}, AB)
    calls = []
    real = semigroups._assert_j_equals_d

    def spy(*args):
        calls.append(args[0].size)
        return real(*args)

    monkeypatch.setattr(semigroups, "_assert_j_equals_d", spy)
    green(fresh)
    assert calls == [s.size] and s.size > 400


def test_syntactic_sizes_frozen(corpus_semigroups):
    for name, size in SYNTACTIC_SIZE.items():
        s, _ = corpus_semigroups[name]
        assert s.size == size, name


@pytest.mark.parametrize("name", sorted(SYNTACTIC_SIZE))
def test_syntactic_recognition_matches_rule_oracle(corpus_semigroups, name):
    s, accept = corpus_semigroups[name]
    alpha, rule = oracles.RULES[name]
    max_len = 5 if len(alpha) > 2 else 8
    for n in range(1, max_len + 1):
        for tup in itertools.product(alpha, repeat=n):
            text = "".join(tup)
            assert (s.eval_word(text) in accept) == rule(text), (name, text)


def test_eval_word_str_and_word_agree(corpus_semigroups):
    s, _ = corpus_semigroups["even"]
    u = Word.from_str(AB, "abba")
    assert s.eval_word(u) == s.eval_word("abba")


def test_witnesses_evaluate_to_their_elements(corpus_semigroups):
    for name in SYNTACTIC_SIZE:
        s, _ = corpus_semigroups[name]
        for x in range(s.size):
            assert s.eval_word(s.witness(x)) == x


# -- Green's relations vs the definitional oracle ---------------------------


def green_against_oracle(s: FiniteSemigroup):
    g = green(s)
    oracle = oracles.GreenOracle(s.table)
    n = s.size
    for x in range(n):
        for y in range(n):
            assert (g.r_of[x] == g.r_of[y]) == oracle.r_related(x, y)
            assert (g.l_of[x] == g.l_of[y]) == oracle.l_related(x, y)
            assert (g.j_of[x] == g.j_of[y]) == oracle.j_related(x, y)
            assert (g.h_of[x] == g.h_of[y]) == oracle.h_related(x, y)
    for i, cls in enumerate(g.J):
        has_idem = any(s.is_idempotent(x) for x in cls)
        assert g.regular[i] == has_idem
    for i, ci in enumerate(g.J):
        for j, cj in enumerate(g.J):
            assert g.j_leq(i, j) == oracle.j_leq(min(ci), min(cj))


def test_green_matches_oracle_on_corpus(corpus_semigroups):
    for name in SYNTACTIC_SIZE:
        green_against_oracle(corpus_semigroups[name][0])


def test_green_matches_oracle_on_randoms():
    rng = random.Random(17)
    done = 0
    while done < 8:
        s = random_transformation_semigroup(AB, 3, rng)
        if s.size > 40:
            continue
        green_against_oracle(s)
        done += 1


def test_ab_orbit_minimal_ideal_counts(corpus_semigroups):
    # J-class of (ab)^ω in the syntactic semigroup of the 2-periodic
    # orbit: 2 R-classes, 2 L-classes, 4 H-classes, 2 idempotents.
    s, _ = corpus_semigroups["periodic_ab"]
    e = omega_power(s, s.eval_word("ab"))
    oracle = oracles.GreenOracle(s.table)
    cls = oracle.j_class_of(e)
    assert len(oracle.classes_within(cls, oracle.r_related)) == 2
    assert len(oracle.classes_within(cls, oracle.l_related)) == 2
    assert len(oracle.classes_within(cls, oracle.h_related)) == 4
    assert len(oracle.idempotents_within(cls)) == 2


# -- omega powers ------------------------------------------------------------


def test_omega_power_is_idempotent_everywhere(corpus_semigroups):
    for name in SYNTACTIC_SIZE:
        s, _ = corpus_semigroups[name]
        for x in range(s.size):
            e = omega_power(s, x)
            assert s.is_idempotent(e)
            # e is a power of x
            powers = set()
            y = x
            while y not in powers:
                powers.add(y)
                y = s.product(y, x)
            assert e in powers


def test_index_and_period_on_cyclic():
    s = cyclic(6)
    g = s.eval_word("a")
    idx, per = index_and_period(s, g)
    assert per == 6
    assert idx == 1


def test_omega_plus_shifts_within_cycle():
    s = cyclic(5)
    g = s.eval_word("a")
    e = omega_power(s, g)
    assert omega_plus(s, g, 0) == e
    assert omega_plus(s, g, 1) == s.product(e, g)
    assert omega_plus(s, g, 7) == s.product(e, s.eval_word("a" * 7))


# -- Schützenberger groups ---------------------------------------------------


def test_schutzenberger_orders_frozen(corpus_semigroups):
    s, _ = corpus_semigroups["even"]
    g = green(s)
    orders = sorted({schutzenberger(s, h).order for h in g.H})
    assert orders == [1, 2]
    s3 = cyclic(3)
    h = green(s3).H[0]
    assert schutzenberger(s3, h).order == 3


def test_schutzenberger_on_group_h_class_is_the_group():
    s = cyclic(4)
    grp = schutzenberger(s, frozenset(range(4)))
    assert grp.order == 4
    assert sorted(grp.element_orders()) == [1, 2, 4, 4]
    assert grp.is_abelian()


def test_groups_isomorphic_verdicts():
    z2 = schutzenberger(cyclic(2), frozenset(range(2)))
    z2b = schutzenberger(cyclic(2, AB), frozenset(range(2)))
    z3 = schutzenberger(cyclic(3), frozenset(range(3)))
    z4 = schutzenberger(cyclic(4), frozenset(range(4)))
    assert groups_isomorphic(z2, z2b) == "isomorphic"
    assert groups_isomorphic(z2, z3) == "not-isomorphic"
    assert groups_isomorphic(z3, z4) == "not-isomorphic"


def test_groups_isomorphic_large_falls_back_to_invariants():
    z65 = schutzenberger(cyclic(65), frozenset(range(65)))
    z65b = schutzenberger(cyclic(65), frozenset(range(65)))
    assert groups_isomorphic(z65, z65b) == "invariant-equal"


# -- local units -------------------------------------------------------------


def test_local_units_null_semigroup():
    s = null_two()
    assert local_units(s, range(s.size)) == frozenset({0})


def test_local_units_match_brute_on_corpus(corpus_semigroups):
    # Seeds 1-3 include elements with e·x = x but no f with x·f = x,
    # and the mirror case.
    randoms = [random_transformation_semigroup(AB, states, rng)
               for rng in map(random.Random, range(4)) for states in (3, 4, 5)]
    rng = random.Random(31)
    inputs = [corpus_semigroups[name] for name in SYNTACTIC_SIZE]
    inputs += [(s, rng.sample(range(s.size), s.size // 2)) for s in randoms]
    for s, accept in inputs:
        for carrier in (range(s.size), accept):
            assert local_units(s, carrier) == \
                oracles.brute_idempotent_pairs_local_units(
                    s.table, list(carrier))


# -- conjugation witnesses ---------------------------------------------------


def test_conjugation_witness_or_refusal(corpus_semigroups):
    s, _ = corpus_semigroups["periodic_ab"]
    g = green(s)
    idems = [x for x in range(s.size) if s.is_idempotent(x)]
    for e in idems:
        for f in idems:
            out = conjugation_witness(s, e, f)
            if g.j_of[e] == g.j_of[f]:
                u, v = out
                # e = uv and f = vu
                assert s.product(u, v) == e
                assert s.product(v, u) == f
            else:
                assert isinstance(out, NotJEquivalent)


# -- misc --------------------------------------------------------------------


def test_random_transformation_semigroup_deterministic():
    s1 = random_transformation_semigroup(AB, 3, random.Random(42))
    s2 = random_transformation_semigroup(AB, 3, random.Random(42))
    assert s1.table == s2.table


def test_associativity_guard():
    with pytest.raises((ValueError, MismatchBug)):
        FiniteSemigroup([[1, 1], [0, 0]], [1],
                        {0: Word(Alphabet(("a",)), ("a", "a")),
                         1: Word(Alphabet(("a",)), ("a",))},
                        Alphabet(("a",)))


def test_to_json_and_gap_render(corpus_semigroups):
    s, _ = corpus_semigroups["even"]
    data = s.to_json()
    assert data["size"] == 7
    assert len(data["table"]) == 7
    gap = s.to_gap()
    assert gap.startswith("[ [ ")
    assert gap.count("[") == 8
