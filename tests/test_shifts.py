"""Presentations, block languages, periodic points, zeta series."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import util
from shiftcat import shifts
from shiftcat.errors import (EmptyShift, MismatchBug, NonIntegralCoefficient,
                             SizeLimit)
from shiftcat.shifts import (PeriodicPoint, ShiftPresentation, blocks,
                             is_block, is_irreducible, is_periodic_point,
                             mirage_membership_k, periodic_counts, subset_dfa,
                             trim, zeta)
from shiftcat.words import Alphabet, Word, factors_up_to

CORPUS = ["golden_mean", "even", "full2", "periodic_ab", "fixed_point",
          "marker_cycle"]


@pytest.fixture(scope="module")
def corpus():
    return {name: util.load(name) for name in CORPUS}


# -- block language vs rule oracles ---------------------------------------


@pytest.mark.parametrize("name", CORPUS)
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
    assert sum(map(len, x._blocks.values())) == 62  # lengths 1-5 only
    # blocks cached by an earlier call count against the limit too
    monkeypatch.setattr(shifts, "_MAX_BLOCKS", 100)
    with pytest.raises(SizeLimit):
        blocks(x, 6)


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
    assert len(built) == 6  # the cross-check reuses the verdict's DFA


def test_disjoint_union_of_two_fixed_points_is_reducible():
    ab = Alphabet(("a", "b"))
    x = ShiftPresentation.sft(ab, ["ab", "ba"])  # {a^∞, b^∞}
    assert not is_irreducible(x)


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


@pytest.mark.parametrize("name", CORPUS)
def test_p_is_divisor_sum_of_q(corpus, name):
    p, q = periodic_counts(corpus[name], 10)
    for n in range(1, 11):
        assert p[n - 1] == sum(q[d - 1] for d in range(1, n + 1)
                               if n % d == 0)


def test_is_periodic_point_matches_circular_oracle(corpus):
    for name in CORPUS:
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
    for name in CORPUS:
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
        not_right_resolving += any(len(d) > 1 for d in g.step.values())
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


# -- periodic points, trim, serialization ----------------------------------


def test_periodic_point_normalization():
    ab = Alphabet(("a", "b"))
    p1 = PeriodicPoint.from_word(Word.from_str(ab, "abab"))
    p2 = PeriodicPoint.from_word(Word.from_str(ab, "ba"), phase=1)
    assert p1.normalized() == p2.normalized()


def test_trim_drops_stranded_vertices():
    ab = Alphabet(("a", "b"))
    x = ShiftPresentation.sofic(ab, ["0", "1", "dead"],
                                [("0", "a", "0"), ("0", "b", "1"),
                                 ("1", "b", "0"), ("0", "a", "dead")])
    y = trim(x)
    assert {w.as_str() for w in blocks(y, 4)} == \
        {w.as_str() for w in blocks(x, 4)}
    assert "dead" not in {str(v) for v in y.graph().vertices}


def test_json_roundtrip_all_corpus(corpus):
    for name in CORPUS:
        x = corpus[name]
        y = ShiftPresentation.from_json(x.to_json())
        assert y.to_json() == x.to_json()
        assert json.dumps(y.to_json(), sort_keys=True) == \
            json.dumps(x.to_json(), sort_keys=True)


def test_to_dot_deterministic(corpus):
    for name in CORPUS:
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
