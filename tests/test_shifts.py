"""Presentations, block languages, periodic points, zeta series."""

import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import util
from shiftcat import shifts
from shiftcat.errors import (EmptyShift, MismatchBug, NonIntegralCoefficient,
                             SizeLimit)
from shiftcat.shifts import (ShiftPresentation, blocks, is_block,
                             is_irreducible, is_periodic_point,
                             mirage_membership_k, periodic_counts, subset_dfa,
                             zeta)
from shiftcat.words import Alphabet, Word, factors_up_to


@pytest.fixture(scope="module")
def corpus():
    return {name: util.load(name) for name in util.CORPUS}


# -- block language vs rule oracles ---------------------------------------


@pytest.mark.parametrize("name", util.CORPUS)
def test_blocks_match_rule_oracle_exhaustively(corpus, name):
    x = corpus[name]
    alpha, rule = oracles.RULES[name]
    max_len = 6 if len(alpha) > 2 else 8
    legal = blocks(x, max_len)
    for n in range(1, max_len + 1):
        for tup in itertools.product(alpha, repeat=n):
            text = "".join(tup)
            expected = rule(text)
            assert (x.word(text) in legal) == expected, text
            assert is_block(x, x.word(text)) == expected, text


def test_even_blocks_of_length_three_exclude_aba(corpus):
    out = sorted(w.as_str() for w in blocks(corpus["even"], 3)
                 if len(w) == 3)
    expected = sorted(t for t in ("".join(p) for p in
                                  itertools.product("ab", repeat=3))
                      if oracles.even_legal(t))
    assert "aba" not in out
    assert out == expected == ["aaa", "aab", "abb", "baa", "bab", "bba",
                               "bbb"]


def test_blocks_refuse_to_hold_more_than_the_limit(monkeypatch):
    monkeypatch.setattr(shifts, "_MAX_BLOCKS", 126)
    assert len(blocks(util.load("full2"), 6)) == 126  # 2 + 4 + ... + 64
    monkeypatch.setattr(shifts, "_MAX_BLOCKS", 125)
    x = util.load("full2")
    with pytest.raises(SizeLimit, match="^more than 125 blocks of length "
                                        "at most 6$"):
        blocks(x, 6)
    assert x._blocks == {}            # counted, not enumerated
    # blocks cached by an earlier call count against the limit too
    monkeypatch.setattr(shifts, "_MAX_BLOCKS", 100)
    assert len(blocks(x, 5)) == 62
    with pytest.raises(SizeLimit):
        blocks(x, 6)
    assert sorted(x._blocks) == [1, 2, 3, 4, 5]


def test_blocks_refuse_exactly_when_the_enumeration_would(monkeypatch):
    # the count must refuse at total - 1 and pass at total, where total
    # is what an unbounded enumeration holds; random sofic graphs have
    # words labeling several paths, so the path bound is not exact
    rng = random.Random(77)
    cases = [util.load(name) for name in util.CORPUS]
    cases += [random_sofic(rng, v) for v in (2, 3, 4, 5, 6) for _ in range(3)]
    cases += [seeded_sofic(12, seed) for seed in (0, 1)]
    for x in cases:
        for n in (1, 2, 5, 7):
            monkeypatch.undo()
            total = len(blocks(ShiftPresentation.from_json(x.to_json()), n))
            monkeypatch.setattr(shifts, "_MAX_BLOCKS", total - 1)
            y = ShiftPresentation.from_json(x.to_json())
            with pytest.raises(SizeLimit):
                blocks(y, n)
            assert y._blocks == {}
            monkeypatch.setattr(shifts, "_MAX_BLOCKS", total)
            assert len(blocks(y, n)) == total


def test_blocks_build_one_subset_automaton(monkeypatch):
    # the count and the store share the presentation's automaton, and
    # neither builds the whole subset DFA or the minimal automaton
    def unused(*args):
        raise AssertionError("whole automaton built")

    monkeypatch.setattr(shifts, "minimal_automaton", unused)
    monkeypatch.setattr(shifts, "subset_dfa", unused)
    built = []
    init = shifts.SubsetAutomaton.__init__
    monkeypatch.setattr(shifts.SubsetAutomaton, "__init__",
                        lambda self, *args: built.append(args) or
                        init(self, *args))
    for name, n, count in (("full2", 12, 8190), ("even", 12, 1580)):
        x = util.load(name)
        built.clear()
        assert len(blocks(x, n)) == count
        assert len(built) == 1
        assert len(shifts.ordered_blocks(x, n + 2)) > count
        assert len(list(shifts.spell_blocks(x, n + 4, "ab", ""))) > count
        assert len(built) == 1
        with pytest.raises(SizeLimit):
            blocks(x, 40)
        assert len(built) == 1


def test_many_paths_per_word_are_not_refused(monkeypatch):
    def unused(x):
        raise AssertionError("minimal_automaton called")

    monkeypatch.setattr(shifts, "minimal_automaton", unused)
    # 20 vertices joined by a-edges both ways: 20·20^n paths of length n
    # but one block a^n, far below the limit
    a = Alphabet(("a",))
    verts = [str(i) for i in range(20)]
    x = ShiftPresentation.sofic(a, verts,
                                [(u, "a", v) for u in verts for v in verts])
    assert [w.as_str() for w in shifts.ordered_blocks(x, 200)] == [
        "a" * m for m in range(1, 201)]
    # 40 vertices over three letters: more paths than the limit by length
    # 8, and a subset automaton of thousands of states in all, of which
    # the count reads only the rows that blocks of length below 8 reach
    assert len(shifts.ordered_blocks(seeded_sofic(40, 2), 8)) == 9156


def test_ordered_blocks_match_path_enumeration_on_random_shifts():
    rng = random.Random(2026)
    cases = [random_sofic(rng, v) for v in range(2, 9) for _ in range(2)]
    # symbols of several characters, listed out of string order
    ab = Alphabet(("zz", "b", "ab"))
    cases.append(ShiftPresentation.sofic(ab, ["0", "1", "2"], [
        ("0", "zz", "1"), ("1", "b", "2"), ("2", "ab", "0"),
        ("0", "b", "0"), ("1", "ab", "1"), ("2", "zz", "1")]))
    for x in cases:
        got = shifts.ordered_blocks(x, 6)
        assert [w.letters for w in got] == oracles.path_labels(
            x.alphabet.symbols, x.graph().edges, 6)
        assert all(w.alphabet == x.alphabet for w in got)
        assert list(shifts.spell_blocks(x, 6, x.alphabet.symbols, "")) == [
            w.as_str() for w in got]
        # a store extended from length 3 equals one filled at once
        y = ShiftPresentation.from_json(x.to_json())
        shifts.ordered_blocks(y, 3)
        assert shifts.ordered_blocks(y, 8) == shifts.ordered_blocks(
            ShiftPresentation.from_json(x.to_json()), 8)


def test_the_block_store_holds_under_64_bytes_a_block():
    x = util.load("full2")
    x.graph()
    tracemalloc.start()
    try:
        shifts._fill_blocks(x, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**19               # 8190 blocks in under 0.5 MiB


# -- irreducibility --------------------------------------------------------


def test_irreducibility_verdicts(corpus, monkeypatch):
    built = []
    monkeypatch.setattr(shifts, "subset_dfa",
                        lambda *args: built.append(args) or subset_dfa(*args))
    assert is_irreducible(corpus["golden_mean"])
    assert is_irreducible(corpus["even"])
    assert is_irreducible(corpus["full2"])
    assert is_irreducible(corpus["marker_cycle"])
    assert is_irreducible(corpus["periodic_ab"])
    assert is_irreducible(corpus["fixed_point"])
    assert built == []  # the verdict reads x's own subset automaton


def test_disjoint_union_of_two_fixed_points_is_reducible():
    ab = Alphabet(("a", "b"))
    x = ShiftPresentation.sft(ab, ["ab", "ba"])  # {a^∞, b^∞}
    assert not is_irreducible(x)
    assert not oracles.subset_irreducible(x)


def random_graph(rng):
    """1-6 vertices, 1-3 letters and 1 to 2V random edges: reducible and
    empty shifts among them."""
    alpha = Alphabet(("a", "b", "c")[:rng.randint(1, 3)])
    verts = [str(i) for i in range(rng.randint(1, 6))]
    edges = [(rng.choice(verts), rng.choice(alpha.symbols), rng.choice(verts))
             for _ in range(rng.randint(1, 2 * len(verts)))]
    return ShiftPresentation.sofic(alpha, verts, edges)


def test_irreducibility_matches_the_subset_automaton_oracle(corpus):
    for x in corpus.values():
        assert is_irreducible(x) == oracles.subset_irreducible(x)
    rng = random.Random(14)
    verdicts = []
    for _ in range(400):
        x = random_graph(rng)
        try:
            x.graph()
        except EmptyShift:
            with pytest.raises(EmptyShift):
                is_irreducible(x)
            verdicts.append(None)
            continue
        verdicts.append(is_irreducible(x))
        assert verdicts[-1] == oracles.subset_irreducible(x), x.to_json()
    assert (verdicts.count(True), verdicts.count(False),
            verdicts.count(None)) == (286, 44, 70)


def test_the_cross_check_closes_each_set_of_components_once(monkeypatch):
    # the SFT avoiding a^15 has a strongly connected de Bruijn graph of
    # 2^14 vertices, so its 30 blocks of length at most 4 all end in one
    # component, and one closure serves them all.  Read on a subset
    # automaton, the blocks read each vertex's adjacency a bounded number
    # of times: 109 when raw vertex sets were walked for every block.
    class Counted(dict):
        reads = 0

        def __getitem__(self, v):
            Counted.reads += 1
            return dict.__getitem__(self, v)

    closed = []
    reach = shifts._reach
    monkeypatch.setattr(shifts, "_reach",
                        lambda g, starts: closed.append(1) or reach(g, starts))
    x = ShiftPresentation.sft(Alphabet(("a", "b")), ["a" * 15])
    g = x.graph()
    crosscheck = shifts._crosscheck_irreducible

    def counted(x, comp):
        plain, g.out = g.out, Counted(g.out)
        try:
            crosscheck(x, comp)
        finally:
            g.out = plain

    monkeypatch.setattr(shifts, "_crosscheck_irreducible", counted)
    assert is_irreducible(x)
    assert len(closed) == 1
    assert 0 < Counted.reads <= 16 * len(g.vertices)


def test_the_cross_check_builds_no_subset_automaton(monkeypatch):
    # is_irreducible builds x's automaton and one per component it
    # walks; the cross-check reads x's and interns its closures there
    built, walked = [], []
    init = shifts.SubsetAutomaton.__init__
    monkeypatch.setattr(shifts.SubsetAutomaton, "__init__",
                        lambda self, g, a: built.append(g) or
                        init(self, g, a))
    reads_alike = shifts.reads_alike
    monkeypatch.setattr(shifts, "reads_alike",
                        lambda g, h, steps: walked.append(h.g) or
                        reads_alike(g, h, steps))
    crosscheck = shifts._crosscheck_irreducible

    def counted(x, comp):
        x.subset_automaton()
        before = len(built)
        crosscheck(x, comp)
        assert len(built) == before

    monkeypatch.setattr(shifts, "_crosscheck_irreducible", counted)
    rng = random.Random(14)
    draws = [util.load(name) for name in util.CORPUS]
    draws += [seeded_sofic(v, seed) for v in (3, 4) for seed in range(6)]
    draws += [random_graph(rng) for _ in range(100)]
    verdicts = []
    for x in draws:
        built.clear()
        walked.clear()
        try:
            verdicts.append(is_irreducible(x))
        except EmptyShift:
            continue
        g = x.graph()
        assert built.count(g) == 1, x.to_json()
        assert [h for h in built if h is not g] == walked
    assert (verdicts.count(True), verdicts.count(False)) == (89, 12)


def test_the_syntactic_semigroup_is_the_same_after_the_cross_check():
    from shiftcat.semigroups import syntactic_semigroup
    rng = random.Random(14)
    draws = [seeded_sofic(v, seed) for v in (3, 4) for seed in range(6)]
    draws += [random_graph(rng) for _ in range(400)]
    checked = 0
    for x in draws:
        try:
            if not is_irreducible(x):
                continue
        except EmptyShift:
            continue
        s, accept = syntactic_semigroup(x)
        fresh, fresh_accept = syntactic_semigroup(
            ShiftPresentation.from_json(x.to_json()))
        assert (s.to_json(), accept) == (fresh.to_json(), fresh_accept)
        checked += 1
    assert checked == 298


def test_a_wrong_irreducible_verdict_fails_the_cross_check(monkeypatch):
    ab = Alphabet(("a", "b"))
    x = ShiftPresentation.sft(ab, ["ab", "ba"])
    monkeypatch.setattr(shifts, "reads_alike", lambda *args: True)
    with pytest.raises(MismatchBug):
        is_irreducible(x)


# -- periodic points and zeta ---------------------------------------------


@pytest.mark.parametrize("name,frozen_p,order", [
    ("golden_mean", oracles.GOLDEN_P_12, 12),
    ("even", oracles.EVEN_P_12, 12),
    ("full2", oracles.FULL2_P_12, 12),
    ("marker_cycle", oracles.MARKER_P_8, 8),
    ("periodic_ab", oracles.PERIODIC_AB_P_6, 6),
    ("fixed_point", oracles.FIXED_POINT_P_6, 6),
])
def test_periodic_counts_match_brute_oracle(corpus, name, frozen_p, order):
    p, q = periodic_counts(corpus[name], order)
    assert p == frozen_p
    brute_p, brute_q = oracles.brute_periodic_counts(name, min(order, 8))
    assert p[:len(brute_p)] == brute_p
    assert q[:len(brute_q)] == brute_q


@pytest.mark.parametrize("name", util.CORPUS)
def test_p_is_divisor_sum_of_q(corpus, name):
    p, q = periodic_counts(corpus[name], 10)
    for n in range(1, 11):
        assert p[n - 1] == sum(q[d - 1] for d in range(1, n + 1)
                               if n % d == 0)


def test_is_periodic_point_matches_circular_oracle(corpus):
    for name in util.CORPUS:
        x = corpus[name]
        alpha, _ = oracles.RULES[name]
        for n in range(1, 6):
            for tup in itertools.product(alpha, repeat=n):
                text = "".join(tup)
                assert is_periodic_point(x, x.word(text)) == \
                    oracles.circular_legal(name, text), (name, text)


def test_zeta_frozen_values(corpus):
    assert list(zeta(corpus["golden_mean"], 12).coefficients) == \
        oracles.GOLDEN_ZETA_12
    assert list(zeta(corpus["even"], 12).coefficients) == \
        oracles.EVEN_ZETA_12
    assert list(zeta(corpus["marker_cycle"], 8).coefficients) == \
        oracles.MARKER_ZETA_8
    assert list(zeta(corpus["fixed_point"], 8).coefficients) == [1] * 9
    assert list(zeta(corpus["full2"], 6).coefficients) == \
        oracles.transfer_matrix_zeta([[2]], 6)


def test_zeta_equals_exponential_of_counts(corpus):
    for name in util.CORPUS:
        z = zeta(corpus[name], 9)
        expected = oracles.zeta_from_counts(list(z.p), 9)
        assert [int(c) for c in expected] == list(z.coefficients)


def random_sft(rng):
    """2-3 letters, 1-3 forbidden words of length 2-4, nonempty."""
    while True:
        ab = Alphabet(("a", "b", "c")[:rng.choice((2, 3))])
        forbidden = {"".join(rng.choice(ab.symbols)
                             for _ in range(rng.randint(2, 4)))
                     for _ in range(rng.randint(1, 3))}
        x = ShiftPresentation.sft(ab, sorted(forbidden))
        try:
            x.graph()
        except EmptyShift:
            continue
        return x


def random_sofic(rng, v):
    """V vertices over {a, b} or {a, b, c}: a cycle through every vertex
    with random labels, so trimming keeps all V, plus 2V random edges."""
    ab = Alphabet(("a", "b", "c")[:rng.choice((2, 3))])
    verts = [str(i) for i in range(v)]
    edges = [(verts[i], rng.choice(ab.symbols), verts[(i + 1) % v])
             for i in range(v)]
    edges += [(rng.choice(verts), rng.choice(ab.symbols), rng.choice(verts))
              for _ in range(2 * v)]
    return ShiftPresentation.sofic(ab, verts, edges)


def seeded_sofic(v, seed):
    """V vertices over {a, b, c}: an a-cycle through every vertex plus
    2V random edges, drawn from random.Random(100·seed + V)."""
    rng = random.Random(100 * seed + v)
    verts = [str(i) for i in range(v)]
    edges = [(verts[i], "a", verts[(i + 1) % v]) for i in range(v)]
    edges += [(rng.choice(verts), rng.choice("abc"), rng.choice(verts))
              for _ in range(2 * v)]
    return ShiftPresentation.sofic(Alphabet(("a", "b", "c")), verts, edges)


def warmed_like_fresh(v, seed, warm) -> bool:
    """Whether warm(x, rng) reorders the subset automaton of x =
    seeded_sofic(v, seed); either way minimal_automaton(x), and up to
    V = 5 syntactic_semigroup(x), must equal those of a fresh copy (at
    V = 8 the semigroup can run past _MAX_SIZE)."""
    from shiftcat.semigroups import syntactic_semigroup
    fresh, x = seeded_sofic(v, seed), seeded_sofic(v, seed)
    warm(x, random.Random(seed))
    assert shifts.minimal_automaton(x) == shifts.minimal_automaton(fresh)
    if v <= 5:
        s, accept = syntactic_semigroup(fresh)
        warm_s, warm_accept = syntactic_semigroup(x)
        assert (warm_s.to_json(), warm_accept) == (s.to_json(), accept)
    return fresh.subset_automaton().states != x.subset_automaton().states


def test_the_syntactic_semigroup_ignores_the_automaton_order():
    # block tests read deep states first, the store then fills in
    # breadth-first order, and the cross-check interns closures
    def queries(x, rng):
        for _ in range(50):
            is_block(x, x.word([rng.choice("abc")
                                for _ in range(rng.randint(1, 8))]))
        shifts.ordered_blocks(x, 5)
        is_irreducible(x)

    assert sum(warmed_like_fresh(v, seed, queries) for v in (3, 4, 5, 8)
               for seed in range(6)) == 15    # the others keep BFS order


def test_interned_vertex_sets_change_no_minimal_automaton():
    # any caller may intern a vertex set into the shared automaton
    def intern(x, rng):
        sub, verts = x.subset_automaton(), x.graph().vertices
        for _ in range(10):
            sub.row(sub.state(frozenset(rng.sample(
                verts, rng.randint(1, len(verts))))))

    assert sum(warmed_like_fresh(v, seed, intern) for v in (3, 4, 5, 8)
               for seed in range(6)) == 24


def test_a_foreign_letter_is_not_a_block():
    x = util.load("full2")
    abc = Alphabet(("a", "b", "c"))
    for text in ("c", "ac", "abc"):
        w = Word.from_str(abc, text)
        assert not is_block(x, w)
        assert not is_periodic_point(x, w)
    assert is_block(x, Word.from_str(abc, "ab"))


def enumerated_counts(x, n_max):
    """p and q by walking w^(V+1) for every block w of each length."""
    found = blocks(x, n_max)
    p, q = [], []
    for n in range(1, n_max + 1):
        per = [w for w in found if len(w) == n and is_periodic_point(x, w)]
        p.append(len(per))
        q.append(sum(1 for w in per if oracles.word_is_primitive(w.as_str())))
    return p, q


def test_periodic_counts_match_enumeration_on_random_shifts():
    rng = random.Random(2024)
    cases = [random_sft(rng) for _ in range(10)]
    cases += [random_sofic(rng, v) for v in range(2, 7) for _ in range(2)]
    not_right_resolving = 0
    for x in cases:
        g = x.graph()
        pairs = [(s, a) for s, a, _ in g.edges]
        not_right_resolving += len(set(pairs)) < len(pairs)
        n_max = 8 if len(x.alphabet) == 2 else 7
        assert periodic_counts(x, n_max) == enumerated_counts(x, n_max), \
            x.to_json()
    assert not_right_resolving >= 8


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_periodic_counts_at_order_64_closed_forms(corpus, monkeypatch):
    def refuse(*args):
        raise AssertionError("periodic_counts must not enumerate blocks")
    monkeypatch.setattr(shifts, "blocks", refuse)
    monkeypatch.setattr(shifts, "is_periodic_point", refuse)
    closed = {"full2": lambda n: 2 ** n, "golden_mean": lucas,
              "fixed_point": lambda n: 1,
              "periodic_ab": lambda n: 2 if n % 2 == 0 else 0}
    for name, form in closed.items():
        x = ShiftPresentation.from_json(corpus[name].to_json())
        p, _ = periodic_counts(x, 64)
        assert p == [form(n) for n in range(1, 65)], name
        assert x._blocks == {}
        assert list(zeta(x, 64).p) == p


def test_mobius_step_rejects_counts_that_are_not_orbits():
    assert shifts._primitive_counts([2, 4, 8, 16]) == [2, 2, 6, 12]
    with pytest.raises(MismatchBug, match=r"q\(2\) = 1"):
        shifts._primitive_counts([2, 3])
    with pytest.raises(MismatchBug, match=r"q\(2\) = -1"):
        shifts._primitive_counts([1, 0])


def test_zeta_rejects_non_integral_coefficients(corpus, monkeypatch):
    for p, message in (([1, 2], "coefficient of t^2 is 3/2"),
                       ([-1, 1], "coefficient of t^1 is -1"),
                       ([0, 0, 0, 2], "coefficient of t^4 is 1/2"),
                       ([0, 0, 0, -2], "coefficient of t^4 is -1/2"),
                       ([0, -4], "coefficient of t^2 is -2")):
        monkeypatch.setattr(shifts, "periodic_counts",
                            lambda x, order, p=p: (p, p))
        with pytest.raises(NonIntegralCoefficient) as err:
            zeta(corpus["full2"], len(p))
        assert str(err.value) == message


def test_empty_shift_raises():
    ab = Alphabet(("a", "b"))
    x = ShiftPresentation.sft(ab, ["aa", "bb", "ab", "ba"])
    with pytest.raises(EmptyShift):
        zeta(x, 4)
    with pytest.raises(EmptyShift):
        periodic_counts(x, 4)


# -- mirage truncations on words -------------------------------------------


def test_word_mirage_equals_factor_legality(corpus):
    x = corpus["even"]
    _, rule = oracles.RULES["even"]
    for n in range(1, 8):
        for tup in itertools.product("ab", repeat=n):
            text = "".join(tup)
            u = x.word(text)
            for k in (1, 2, 3):
                expected = all(rule(f.as_str())
                               for f in factors_up_to(u, k))
                assert mirage_membership_k(x, u, k) == expected, (text, k)


def test_word_mirage_equals_factor_sets_on_random_shifts():
    # windows of length min(k, |w|) against the definition: every factor
    # of length at most k is a block; k runs below and above |w|
    rng = random.Random(41)
    for v in (2, 3, 4, 5, 6, 2, 3, 4, 5, 6):
        x = random_sofic(rng, v)
        g = x.graph()
        for _ in range(30):
            n = rng.randint(1, 7)
            if rng.random() < 0.5:
                letters = [rng.choice(x.alphabet.symbols) for _ in range(n)]
            else:  # a walk, so that most of its factors are blocks
                letters, at = [], rng.choice(list(g.vertices))
                for _ in range(n):
                    _, a, at = rng.choice(g.out[at])
                    letters.append(a)
                if rng.random() < 0.5:
                    letters[rng.randrange(n)] = rng.choice(x.alphabet.symbols)
            u = x.word(letters)
            for k in range(1, n + 3):
                expected = all(is_block(x, f) for f in factors_up_to(u, k))
                assert mirage_membership_k(x, u, k) == expected, \
                    (x.to_json(), letters, k)
        with pytest.raises(ValueError, match="nonempty"):
            mirage_membership_k(x, x.word(()), 2)
        with pytest.raises(ValueError, match="positive"):
            mirage_membership_k(x, u, 0)
        # a block's letters over a larger alphabet make no block
        block = (next(iter(g.edges))[1],)
        other = Alphabet((*x.alphabet.symbols, "z"))
        assert mirage_membership_k(x, x.word(block), 1)
        assert not mirage_membership_k(x, Word(other, block), 1)


# -- trim, serialization ---------------------------------------------------


def test_trim_drops_stranded_vertices():
    ab = Alphabet(("a", "b"))
    x = ShiftPresentation.sofic(ab, ["0", "1", "dead"],
                                [("0", "a", "0"), ("0", "b", "1"),
                                 ("1", "b", "0"), ("0", "a", "dead")])
    g = x.graph()
    assert g.vertices == ("0", "1")
    assert g.edges == (("0", "a", "0"), ("0", "b", "1"), ("1", "b", "0"))


def test_trim_keeps_exactly_the_vertices_between_cycles():
    # v lies on a bi-infinite path iff a cycle reaches v and v reaches
    # a cycle
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(1, 8)
        verts = list(range(n))
        rng.shuffle(verts)
        edges = [(rng.randrange(n), rng.choice("ab"), rng.randrange(n))
                 for _ in range(rng.randint(0, 2 * n))]
        reach = [{d for s, _, d in edges if s == v} for v in range(n)]
        for _ in range(n):
            reach = [r.union(*(reach[u] for u in r)) for r in reach]
        cyclic = {v for v in range(n) if v in reach[v]}
        alive = [v for v in verts
                 if any(c == v or v in reach[c] for c in cyclic)
                 and any(c == v or c in reach[v] for c in cyclic)]
        g = shifts.LabeledGraph(verts, edges)
        if not alive:
            with pytest.raises(EmptyShift):
                shifts.trim_graph(g)
            continue
        trimmed = shifts.trim_graph(g)
        assert trimmed.vertices == tuple(alive)
        assert trimmed.edges == tuple(e for e in edges
                                      if e[0] in alive and e[2] in alive)


def test_de_bruijn_graph_lists_the_allowed_words():
    # vertices: the m-words with no forbidden factor; edges: the
    # (m+1)-words, from their prefix to their suffix
    rng = random.Random(12)
    for _ in range(300):
        ab = Alphabet(("a", "b", "c")[:rng.randint(1, 3)])
        forbidden = [Word(ab, tuple(rng.choice(ab.symbols)
                                    for _ in range(rng.randint(1, 4))))
                     for _ in range(rng.randint(0, 4))]
        m = max([len(f) - 1 for f in forbidden] + [1])

        def allowed(w):
            return not any(w[i:i + len(f)] == f.letters
                           for f in forbidden for i in range(len(w)))

        g = shifts.de_bruijn_graph(ab, forbidden)
        assert g.vertices == tuple(
            w for w in itertools.product(ab.symbols, repeat=m) if allowed(w))
        assert g.edges == tuple(
            (w[:-1], w[-1], w[1:])
            for w in itertools.product(ab.symbols, repeat=m + 1)
            if allowed(w))


def test_json_roundtrip_all_corpus(corpus):
    for name in util.CORPUS:
        x = corpus[name]
        y = ShiftPresentation.from_json(x.to_json())
        assert y.to_json() == x.to_json()
        assert json.dumps(y.to_json(), sort_keys=True) == \
            json.dumps(x.to_json(), sort_keys=True)


def test_to_dot_deterministic(corpus):
    for name in util.CORPUS:
        assert corpus[name].to_dot() == corpus[name].to_dot()
        assert corpus[name].to_dot().startswith("digraph")


# -- property: blocks are factor-closed ------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ab", min_size=1, max_size=10))
def test_block_factor_closure(text):
    x = util.load("even")
    u = x.word(text)
    if is_block(x, u):
        for f in factors_up_to(u, len(u)):
            assert is_block(x, f)
