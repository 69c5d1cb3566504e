"""Finite semigroups: generation, syntactic quotients, Green's
relations, omega powers, Schützenberger groups, local units."""

import itertools
import random
import time
import tracemalloc
from operator import itemgetter

import pytest

import oracles
import util
from shiftcat import semigroups
from shiftcat.errors import MismatchBug, SizeLimit
from shiftcat.semigroups import (FiniteSemigroup, SchutzGroup, generate,
                                 green, groups_isomorphic, index_and_period,
                                 inverse_pair, local_units, omega_plus,
                                 omega_power, random_transformation_semigroup,
                                 right_factors, schutzenberger,
                                 syntactic_semigroup, translation_group,
                                 unit_pairs)
from shiftcat.shifts import is_block, right_cayley_graph
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


def test_syntactic_semigroup_holds_one_copy_of_its_table():
    # its table holds about 38 MiB, and filling it as lists before
    # copying it into tuples doubled the peak
    x = util.sofic_2225()
    x.graph()
    tracemalloc.start()
    try:
        s, accept = syntactic_semigroup(x)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.size == 2225
    assert peak < 1.25 * held
    for n in range(1, 5):
        for letters in itertools.product("abc", repeat=n):
            w = x.word(letters)
            assert (s.eval_word(w) in accept) == is_block(x, w), w


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
            m = itemgetter(*m)(maps[s.alphabet.symbols.index(a)])
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


def test_light_test_rejects_every_single_changed_entry(corpus_semigroups):
    # one element: itemgetter of a single index returns no tuple
    one = Alphabet(("a",))
    assert FiniteSemigroup([[0]], [0], {0: Word(one, ("a",))}, one).size == 1
    for name in ("even", "marker_cycle"):
        s, _ = corpus_semigroups[name]
        n = s.size
        witnesses = {x: s.witness(x) for x in range(n)}
        for x, y in itertools.product(range(n), repeat=2):
            table = [list(r) for r in s.table]
            table[x][y] = (table[x][y] + 1) % n
            with pytest.raises(ValueError,
                               match=r"^associativity fails at x=\d+, "
                                     r"generator \d+$"):
                FiniteSemigroup(table, s.generators, witnesses, s.alphabet)


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


def test_omega_plus_matches_repeated_products():
    # x^(ω+q) is x^m for any m ≡ q modulo the period p with m at least
    # the index i: the group of x's powers has p elements, and x^i is
    # the first power in it
    rng = random.Random(21)
    checked = 0
    for _ in range(30):
        s = random_transformation_semigroup(AB, rng.randint(2, 5), rng)
        for x in range(s.size):
            powers = [x]
            while len(powers) <= s.size:
                powers.append(s.product(powers[-1], x))
            e = next(y for y in powers if s.is_idempotent(y))
            group = {s.product(e, y) for y in powers}
            i = next(k for k, y in enumerate(powers, 1) if y in group)
            p = len(group)
            for q in range(-5, 6):
                c = -(-max(i, i - q) // p)        # ceil
                m = p * c + q
                acc = x
                for _ in range(m - 1):
                    acc = s.product(acc, x)
                assert omega_plus(s, x, q) == acc, (x, q)
                checked += 1
            assert index_and_period(s, x) == (i, p)
            assert omega_power(s, x) == e
    assert checked > 1000


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


def test_groups_isomorphic_verdicts():
    z2 = schutzenberger(cyclic(2), frozenset(range(2)))
    z2b = schutzenberger(cyclic(2, AB), frozenset(range(2)))
    z3 = schutzenberger(cyclic(3), frozenset(range(3)))
    z4 = schutzenberger(cyclic(4), frozenset(range(4)))
    assert groups_isomorphic(z2, z2b) is True
    assert groups_isomorphic(z2, z3) is False
    assert groups_isomorphic(z3, z4) is False


def test_groups_isomorphic_large_falls_back_to_invariants():
    # abelian groups are determined by their element-order counts
    z65 = schutzenberger(cyclic(65), frozenset(range(65)))
    z65b = schutzenberger(cyclic(65), frozenset(range(65)))
    assert groups_isomorphic(z65, z65b) is True
    z128 = schutzenberger(cyclic(128), frozenset(range(128)))
    z2z64 = _permutation_group([tuple(range(1, 64)) + (0, 64, 65),
                                tuple(range(64)) + (65, 64)])
    assert z2z64.order == 128
    assert groups_isomorphic(z128, z2z64) is False
    assert groups_isomorphic(z2z64, z2z64) is True



def test_abelian_groups_of_order_400_compare_in_well_under_a_second():
    # Z_400, and Z_16 × Z_25 on 41 points, another carrier of the same
    # group: closures of generators (right_cayley_graph), not products
    # of all pairs, which took 3.75 s and 16.3 s on Z_400
    z400 = cyclic(400)
    z16z25 = generate([tuple(range(1, 16)) + (0,) + tuple(range(16, 41)),
                       tuple(range(16)) + tuple(range(17, 41)) + (16,)],
                      AB)
    start = time.perf_counter()
    g = schutzenberger(z400, range(400))
    assert groups_isomorphic(g, g) is True
    h = schutzenberger(z16z25, range(400))
    assert h.carrier != g.carrier
    assert groups_isomorphic(g, h) is True
    assert time.perf_counter() - start < 1


def test_equal_carriers_are_isomorphic_at_every_order():
    g = schutzenberger(util.symmetric_5(), range(120))
    g_swapped = schutzenberger(util.symmetric_5(swap=True), range(120))
    assert g.order == 120
    assert groups_isomorphic(g, g) is True
    # numbered from the other generator, the same group has another
    # carrier, and the search finds the isomorphism
    assert g_swapped.carrier != g.carrier
    assert groups_isomorphic(g, g_swapped) is True
    assert groups_isomorphic(g_swapped, g) is True


def random_group_h_class_groups() -> list:
    """The Schützenberger groups of the group H-classes of seeded random
    transformation semigroups on 2-5 states, over three letters each a
    random permutation or a random map, one group per distinct carrier;
    semigroups above 300 elements are skipped."""
    abc = Alphabet(("a", "b", "c"))
    groups = {}
    for seed in range(80):
        rng = random.Random(seed)
        states = 2 + seed % 4
        maps = []
        for _ in abc:
            if rng.random() < 0.5:
                perm = list(range(states))
                rng.shuffle(perm)
                maps.append(tuple(perm))
            else:
                maps.append(tuple(rng.randrange(states)
                                  for _ in range(states)))
        if len(right_cayley_graph(maps)[3]) > 300:
            continue
        s = generate(maps, abc)
        for h in green(s).H:
            if any(s.is_idempotent(x) for x in h):
                grp = schutzenberger(s, h)
                groups.setdefault(grp.carrier, grp)
    return list(groups.values())


def test_groups_isomorphic_matches_the_table_search():
    groups = random_group_h_class_groups()
    orders = {grp.order for grp in groups}
    assert {6, 24, 60} <= orders and max(orders) > 64
    tables = {grp.carrier: oracles.perm_group_table(grp.carrier)
              for grp in groups}
    for grp in groups:
        table = tables[grp.carrier]
        assert grp.element_orders() == \
            sorted(oracles._table_element_orders(table))
    for g1 in groups:
        for g2 in groups:
            iso = oracles.table_groups_isomorphic(tables[g1.carrier],
                                                  tables[g2.carrier])
            assert groups_isomorphic(g1, g2) is iso, (g1, g2)


def _quaternion_product(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def _permutation_group(gens):
    """The group a list of permutations generates, as the Schützenberger
    group of its only H-class."""
    s = generate(gens, Alphabet(tuple("abcdefg"[:len(gens)])))
    assert green(s).H == (frozenset(range(s.size)),)
    return schutzenberger(s, range(s.size))


def test_groups_isomorphic_tells_apart_equal_element_orders():
    # Z4×Z4 and Z2×Q8 both have one element of order 1, three of order
    # 2 and twelve of order 4; only the search can tell them apart.
    z4z4 = _permutation_group([(1, 2, 3, 0, 4, 5, 6, 7),
                               (0, 1, 2, 3, 5, 6, 7, 4)])
    units = [tuple(sign if i == k else 0 for i in range(4))
             for k in range(4) for sign in (1, -1)]
    i, j = units[2], units[4]
    z2q8 = _permutation_group(
        [tuple(units.index(_quaternion_product(x, y)) for x in units)
         + (8, 9) for y in (i, j)] + [tuple(range(8)) + (9, 8)])
    assert z4z4.order == z2q8.order == 16
    assert z4z4.element_orders() == z2q8.element_orders()
    assert not oracles.table_groups_isomorphic(
        oracles.perm_group_table(z4z4.carrier),
        oracles.perm_group_table(z2q8.carrier))
    assert groups_isomorphic(z4z4, z2q8) is False
    assert groups_isomorphic(z2q8, z4z4) is False
    assert groups_isomorphic(z4z4, z4z4) is True
    assert groups_isomorphic(z2q8, z2q8) is True


def _renumbered(gens):
    """The group of gens, and the same group generated with the product
    of its first two generators prepended: another numbering of its
    elements, so another carrier."""
    p, q = gens[:2]
    first = _permutation_group(gens)
    second = _permutation_group([tuple(q[i] for i in p), *gens])
    assert first.carrier != second.carrier
    return first, second


def _cycle(m, offset, points):
    """The m-cycle on offset..offset+m-1, fixing the other points."""
    return tuple(offset + (i - offset + 1) % m if offset <= i < offset + m
                 else i for i in range(points))


def _regular(elements, product, offset, points):
    """Right multiplications x ↦ x·g by each g of a group given by its
    elements and product, on the points offset..offset+|G|-1."""
    def right(g):
        moved = {offset + i: offset + elements.index(product(x, g))
                 for i, x in enumerate(elements)}
        return tuple(moved.get(i, i) for i in range(points))
    return right


def _q8_times_cyclic(m):
    """Q8 × Z_m, Q8 by right multiplication on 8 points."""
    units = [tuple(sign if i == k else 0 for i in range(4))
             for k in range(4) for sign in (1, -1)]
    right = _regular(units, _quaternion_product, 0, 8 + m)
    return _permutation_group([right(units[2]), right(units[4]),
                               _cycle(m, 8, 8 + m)])


def _z4_semidirect_z4_times_cyclic(m):
    """(Z4 ⋊ Z4) × Z_m, with (i, j)·(k, l) = (i + (−1)^j·k, j + l) mod 4,
    by right multiplication on 16 points."""
    pairs = [(i, j) for i in range(4) for j in range(4)]

    def product(x, y):
        return ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 4)
    right = _regular(pairs, product, 0, 16 + m)
    return _permutation_group([right((1, 0)), right((0, 1)),
                               _cycle(m, 16, 16 + m)])


def _swaps(k, points, start=0):
    """The k transpositions (start start+1), (start+2 start+3), …, for
    an even start, on points points."""
    return [tuple(i ^ 1 if i // 2 == start // 2 + j else i
                  for i in range(points)) for j in range(k)]


def _timed_verdict(g1, g2):
    start = time.perf_counter()
    verdict = groups_isomorphic(g1, g2)
    return verdict, time.perf_counter() - start


@pytest.mark.parametrize("name", ["Z2^5", "Z2^6", "D4xZ2^3"])
def test_groups_isomorphic_finds_another_numbering_fast(name):
    # a product search over every image of every generator took 10 s or
    # more on Z_2^5 and did not end within 60 s on Z_2^6
    gens = {"Z2^5": _swaps(5, 10), "Z2^6": _swaps(6, 12),
            "D4xZ2^3": [(1, 2, 3, 0, *range(4, 10)),
                        (0, 3, 2, 1, *range(4, 10)),
                        *_swaps(3, 10, 4)]}[name]
    g, h = _renumbered(gens)
    assert g.order == {"Z2^5": 32}.get(name, 64)
    verdict, seconds = _timed_verdict(g, h)
    assert verdict is True and seconds < 0.1
    assert groups_isomorphic(h, g) is True


def test_symmetric_groups_compare_exactly():
    verdict, seconds = _timed_verdict(
        schutzenberger(util.symmetric_5(), range(120)),
        schutzenberger(util.symmetric_5(swap=True), range(120)))
    assert verdict is True and seconds < 0.1
    s6, s6b = _renumbered([(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)])
    assert s6.order == 720
    verdict, seconds = _timed_verdict(s6, s6b)
    assert verdict is True and seconds < 1


@pytest.mark.parametrize("m", [5, 49])
def test_non_abelian_groups_with_equal_element_orders(m):
    # Q8 × Z_2m and (Z4 ⋊ Z4) × Z_m: non-abelian, with equal
    # element-order counts, and not isomorphic
    g = _q8_times_cyclic(2 * m)
    h = _z4_semidirect_z4_times_cyclic(m)
    assert g.order == h.order == 16 * m
    assert g.element_orders() == h.element_orders()
    verdict, seconds = _timed_verdict(g, h)
    assert verdict is False
    if m == 5:
        assert seconds < 0.1
    assert groups_isomorphic(h, g) is False


def test_group_search_over_its_step_limit_is_refused(monkeypatch):
    g, h = _q8_times_cyclic(10), _z4_semidirect_z4_times_cyclic(5)
    monkeypatch.setattr(semigroups, "_MAX_GROUP_STEPS", 100)
    with pytest.raises(SizeLimit, match="exceeds 100 steps"):
        groups_isomorphic(g, h)


def test_group_search_rejects_a_carrier_that_is_not_simply_transitive():
    # two permutations fixing position 0: not a Schützenberger group
    fake = SchutzGroup((0, 1, 2), frozenset({(0, 1, 2), (0, 2, 1)}), 2)
    z2 = schutzenberger(cyclic(2), frozenset(range(2)))
    with pytest.raises(MismatchBug, match="simply transitively"):
        groups_isomorphic(fake, z2)


def test_translation_group_rejects_what_is_not_a_group():
    z4 = cyclic(4)
    a = z4.eval_word("a")
    with pytest.raises(MismatchBug, match="leaves"):
        translation_group(z4, (0, 1), [a])
    with pytest.raises(MismatchBug, match="simply transitive"):
        translation_group(z4, tuple(range(4)), [z4.eval_word("aa")])
    s3 = generate([(1, 0, 2), (1, 2, 0)], AB)
    transpositions = [x for x in range(s3.size)
                      if not s3.is_idempotent(x) and s3.is_idempotent(
                          s3.product(x, x))]
    with pytest.raises(MismatchBug, match="not closed"):
        translation_group(s3, tuple(range(6)), transpositions[:2])
    # two translations and the identity, whose closure is all 120
    s5 = util.symmetric_5()
    with pytest.raises(MismatchBug, match="not closed"):
        translation_group(s5, tuple(range(120)), s5.generators)
    right_zero = FiniteSemigroup([[0, 1], [0, 1]], [0, 1],
                                 {0: Word(AB, ("a",)), 1: Word(AB, ("b",))},
                                 AB)
    with pytest.raises(MismatchBug, match="not a permutation"):
        translation_group(right_zero, (0, 1), [0])
    assert translation_group(z4, tuple(range(4)), range(4)) == \
        schutzenberger(z4, range(4))


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


def test_unit_pairs_are_the_first_scanned_pairs(corpus_semigroups):
    # the sweep of each idempotent's one-sided ideals against the scan of
    # every idempotent for every element
    rng = random.Random(400)
    inputs = [s for s, _ in corpus_semigroups.values()]
    inputs += [random_transformation_semigroup(AB, rng.randrange(2, 6), rng)
               for _ in range(40)]
    for s in inputs:
        assert unit_pairs(s) == oracles.scan_unit_pairs(s.table)


# -- conjugation witnesses ---------------------------------------------------


def test_conjugation_witness_or_refusal(corpus_semigroups):
    s, _ = corpus_semigroups["periodic_ab"]
    g = green(s)
    idems = [x for x in range(s.size) if s.is_idempotent(x)]
    for e in idems:
        for f in idems:
            if g.j_of[e] == g.j_of[f]:
                u, v = inverse_pair(s, e, f)
                # e = uv and f = vu
                assert s.product(u, v) == e
                assert s.product(v, u) == f
            else:
                with pytest.raises(MismatchBug):
                    inverse_pair(s, e, f)


# -- refutations: one corrupted input per MismatchBug ------------------


def test_an_l_partition_splitting_a_d_class_is_refuted(corpus_semigroups):
    # with every element its own L-class, the 2x2 D-class of even has
    # elements outside the L-classes of the R-class of its least one
    s, _ = corpus_semigroups["even"]
    g = green(s)
    with pytest.raises(MismatchBug, match="^J-class is not a single "
                                          "D-class$"):
        semigroups._assert_j_equals_d(s, g.J, g.r_of, tuple(range(s.size)))


def test_an_h_class_mate_outside_the_right_ideal_is_refuted(
        corpus_semigroups):
    s, _ = corpus_semigroups["even"]
    u, v = next((u, v) for u in range(s.size) for v in range(s.size)
                if v not in s.table[u])
    with pytest.raises(MismatchBug, match="^H-class element outside u·S$"):
        right_factors(s, u, (u, v))


def test_local_units_splitting_a_j_class_are_refuted(corpus_semigroups,
                                                     monkeypatch):
    s, _ = corpus_semigroups["even"]
    pairs = unit_pairs(s)
    cl = next(cl for cl in green(s).J if len(cl & pairs.keys()) > 1)
    dropped = min(cl)
    monkeypatch.setattr(semigroups, "unit_pairs", lambda s: {
        x: pair for x, pair in pairs.items() if x != dropped})
    with pytest.raises(MismatchBug, match="^local units are not a union of "
                                          "J-classes$"):
        local_units(s, range(s.size))


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


def test_to_json(corpus_semigroups):
    s, _ = corpus_semigroups["even"]
    data = s.to_json()
    assert data["size"] == 7
    assert len(data["table"]) == 7
