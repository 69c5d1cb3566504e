"""Acceptance suite: twelve exact criteria, one PASS/FAIL line each.

Every check is exact (no tolerances).  Randomized criteria use frozen
seeds so the suite is deterministic.
"""

from __future__ import annotations

import functools
import json
import random
from itertools import product

import oracles
import util
from shiftcat.codes import (BlockMap, apply_to_presentation, block_alphabet,
                            centralize, compose, higher_block_map,
                            lambda_first_letter, word_code)
from shiftcat.errors import DiamondOnly
from shiftcat.flowops import (TYPES, classify_type, expand_shift,
                              naturality_rows)
from shiftcat.karoubi import (_covering, induced_functor_on_arrow,
                              induced_functor_on_idempotent,
                              karoubi_vs_lu_comparison, lu_labeled_poset,
                              poset_isomorphic)
from shiftcat.pseudowords import (OmegaTerm, canonical, closure_membership,
                                  connector, expand_word, format_term,
                                  idempotent_terms, parse_term,
                                  quotient_equal, term_contract)
from shiftcat.semigroups import battery, omega_power, syntactic_semigroup
from shiftcat.shifts import mirage_membership_k, periodic_counts, zeta
from shiftcat.words import Alphabet, Word, prefix_k, suffix_k

AB = Alphabet(("a", "b"))


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")
        return wrapper
    return deco


def equal_in_all(t1, t2, tests) -> bool:
    usable = _covering(tests, t1, t2)
    assert usable
    return quotient_equal(t1, t2, usable).kind == "EqualInAll"


def rand_word(rng, low, high):
    n = rng.randint(low, high)
    return Word(AB, tuple(rng.choice(("a", "b")) for _ in range(n)))


@criterion("AC-1")
def test_ac_01_closure_membership_with_markers():
    x = util.load("marker_cycle")
    v = parse_term(x.alphabet, "(a)^w b (a)^w c (a)^w")
    assert closure_membership(v, x) is True
    cv = parse_term(x.alphabet, "c (a)^w b (a)^w c (a)^w")
    assert closure_membership(cv, x) is False


@criterion("AC-2")
def test_ac_02_arrow_composition_leaves_the_closure():
    x = util.load("even")
    A = x.alphabet
    e_a = parse_term(A, "(a)^w")
    e_b = parse_term(A, "(b)^w")
    s = (e_a, parse_term(A, "(a)^w (b)^w"), e_b)
    t = (e_b, parse_term(A, "(b)^(w+1) (a)^w"), e_a)
    assert closure_membership(s[1], x) is True
    assert closure_membership(t[1], x) is True
    st_mid = canonical(s[1] * t[1])
    assert format_term(st_mid) == "(a)^w (b)^(w+1) (a)^w"
    assert closure_membership(st_mid, x) is False


@criterion("AC-3")
def test_ac_03_first_letter_inverts_higher_block_codes():
    for n in (2, 3, 4):
        ups = higher_block_map(AB, n)
        lam = lambda_first_letter(AB, n)
        rng = random.Random(1000 + n)
        for _ in range(10_000):
            u = rand_word(rng, 1, 12)
            v = rand_word(rng, n - 1, n - 1)
            assert word_code(lam, word_code(ups, u * v)) == u


@criterion("AC-4")
def test_ac_04_composition_and_product_identities():
    def rand_map(rng):
        n = rng.choice((1, 2, 3))
        m = rng.randrange(n)
        table = {key: rng.choice(("a", "b"))
                 for key in product(("a", "b"), repeat=n)}
        return BlockMap(AB, AB, n, table, m, n - 1 - m)

    rng = random.Random(1004)
    for _ in range(5):
        phi_raw, psi_raw = rand_map(rng), rand_map(rng)
        c1, c2 = centralize(phi_raw), centralize(psi_raw)
        comp = compose(c1, c2)
        for _ in range(2000):
            u = rand_word(rng, 1, 10)
            v = rand_word(rng, 1, 10)
            w = u * v
            assert word_code(comp, w) == word_code(c2, word_code(c1, w))
            n = phi_raw.window
            assert (word_code(phi_raw, w)
                    == word_code(phi_raw, u * prefix_k(v, n - 1))
                    * word_code(phi_raw, v))
            k = c1.wing
            assert (word_code(c1, w)
                    == word_code(c1, u * prefix_k(v, k))
                    * word_code(c1, suffix_k(u, k) * v))


@criterion("AC-5")
def test_ac_05_induced_functor_laws_and_independence():
    a2 = block_alphabet(AB, 2)
    ups2c = centralize(higher_block_map(AB, 2))
    id3 = BlockMap(a2, a2, 3,
                   {key: key[1] for key in product(a2.symbols, repeat=3)},
                   1, 1)
    widened = compose(ups2c, centralize(id3))
    assert widened.wing == 2

    for name in ("golden_mean", "even"):
        x = util.load(name)
        y = apply_to_presentation(ups2c, x)
        s_src, _ = syntactic_semigroup(x)
        s_tgt, _ = syntactic_semigroup(y)
        tests = (battery(x.alphabet, extra=[(s_src, dict(s_src.gen_of))])
                 + battery(y.alphabet, extra=[(s_tgt, dict(s_tgt.gen_of))]))

        idems = idempotent_terms(x, 4)
        arrows = {}
        for i, e in enumerate(idems):
            for j, f in enumerate(idems):
                mid = connector(x, e, f)
                if mid is not None:
                    arrows[(i, j)] = (e, mid, f)
        assert arrows

        # identity law: F(e, e, e) = (F(e), F(e), F(e))
        for e in idems:
            img = induced_functor_on_idempotent(ups2c, e, tests)
            triple = induced_functor_on_arrow(ups2c, (e, e, e), tests)
            assert equal_in_all(triple[1], img, tests)

        # block-map independence on every arrow, endpoints and middles
        images = {}
        for key, arrow in arrows.items():
            got = induced_functor_on_arrow(ups2c, arrow, tests)
            alt = induced_functor_on_arrow(widened, arrow, tests)
            for lhs, rhs in zip(got, alt):
                assert equal_in_all(lhs, rhs, tests)
            images[key] = got

        # composition law on chained arrows
        checked = 0
        for (i, j), first in arrows.items():
            for k in range(min(4, len(idems))):
                second = arrows.get((j, k))
                if second is None:
                    continue
                composite = (first[0], canonical(first[1] * second[1]),
                             second[2])
                got = induced_functor_on_arrow(ups2c, composite, tests)
                expected = canonical(images[(i, j)][1] * images[(j, k)][1])
                assert equal_in_all(got[1], expected, tests)
                checked += 1
        assert checked


@criterion("AC-6")
def test_ac_06_zeta_against_independent_oracles():
    z = zeta(util.load("golden_mean"), 12)
    coeffs = [int(c) for c in z.coefficients]
    assert coeffs == oracles.GOLDEN_ZETA_12
    assert coeffs == oracles.transfer_matrix_zeta([[1, 1], [1, 0]], 12)
    assert coeffs == oracles.rational_series("1", "1 - t - t**2", 12)
    for name in util.CORPUS:
        series = zeta(util.load(name), 12)
        assert all(isinstance(c, int) for c in series.coefficients)


@criterion("AC-7")
def test_ac_07_primitive_counts_by_mobius_inversion():
    for name in ("golden_mean", "even", "full2"):
        p, q = periodic_counts(util.load(name), 12)
        brute_p, brute_q = oracles.brute_periodic_counts(name, 12)
        assert p == brute_p
        assert q == brute_q
        assert oracles.mobius_primitive_counts(p) == q


@criterion("AC-8")
def test_ac_08_minimal_ideal_of_the_two_cycle():
    s, _ = syntactic_semigroup(util.load("periodic_ab"))
    e = omega_power(s, s.eval_word("ab"))
    oracle = oracles.GreenOracle(s.table)
    cls = oracle.j_class_of(e)
    assert len(oracle.classes_within(cls, oracle.r_related)) == 2
    assert len(oracle.classes_within(cls, oracle.l_related)) == 2
    assert len(oracle.classes_within(cls, oracle.h_related)) == 4
    assert len(oracle.idempotents_within(cls)) == 2


@criterion("AC-9")
def test_ac_09_expansion_mirage_lemmas_exhaustively():
    x = util.load("even")
    ctx = expand_shift(x, "a")
    tgt = ctx.target
    B = tgt.alphabet

    def deepest(shift, w, cap):
        """Largest m <= cap with every factor of length <= m a block."""
        for m in range(min(cap, len(w)), 0, -1):
            if mirage_membership_k(shift, w, m):
                return m if m < len(w) else cap
        return 0

    # expansion preserves each mirage level k <= 4
    for n in range(1, 11):
        for tup in product("ab", repeat=n):
            w = Word(AB, tup)
            m_src = deepest(x, w, 4)
            img = expand_word(w, "a", B, "o")
            for k in range(1, m_src + 1):
                assert mirage_membership_k(tgt, img, k)

    # contraction reflects level 2k back to level k, and every
    # level-2 mirage word has exactly one of the five types
    legal_pairs = {"ao", "ba", "bb", "oa", "ob"}
    classified = 0
    for n in range(1, 11):
        for tup in product("abo", repeat=n):
            text = "".join(tup)
            if not all(text[i: i + 2] in legal_pairs
                       for i in range(n - 1)):
                continue
            v = Word(B, tup)
            try:
                contracted = term_contract(OmegaTerm.from_word(v), "o")
            except DiamondOnly:
                pass
            else:
                c = contracted.as_plain_word()
                m_tgt = deepest(tgt, v, 8)
                for k in range(1, min(4, m_tgt // 2) + 1):
                    assert mirage_membership_k(x, c, k)
            if mirage_membership_k(tgt, v, 2):
                assert classify_type(v, ctx) in TYPES
                classified += 1
    assert classified == 605


def _flow_invariance_report():
    x = util.load("even")
    ctx = expand_shift(x, "a")
    rows = list(naturality_rows(ctx, 4))

    def poset_json(poset):
        return {"elements": list(poset.elements),
                "order": sorted(map(list, poset.order)),
                "labels": [{"j_class": e, "regular": reg,
                            "group_order": grp.order,
                            "group_element_orders": grp.element_orders()}
                           for (e, reg, grp) in poset.labels]}

    s_src, accept_src = syntactic_semigroup(x)
    s_tgt, accept_tgt = syntactic_semigroup(ctx.target)
    p_src = lu_labeled_poset(s_src, accept_src)
    p_tgt = lu_labeled_poset(s_tgt, accept_tgt)
    verdict = poset_isomorphic(p_src, p_tgt)
    return {"schema": "shiftcat/flow-invariance/v1",
            "naturality": rows,
            "poset_verdict": verdict.kind,
            "source_poset": poset_json(p_src),
            "expanded_poset": poset_json(p_tgt)}


@criterion("AC-10")
def test_ac_10_naturality_and_poset_invariance():
    report = _flow_invariance_report()
    assert len(report["naturality"]) == 49
    assert all(row["kind"] == "EqualInAll" for row in report["naturality"])
    assert report["poset_verdict"] == "Iso"
    with open(util.GOLDEN_DIR / "flow_invariance.json",
              encoding="utf-8") as fh:
        assert report == json.load(fh)


@criterion("AC-11")
def test_ac_11_periodic_counts_survive_recoding():
    x = util.load("golden_mean")
    base = periodic_counts(x, 10)
    for n in (2, 3):
        phi = centralize(higher_block_map(AB, n))
        y = apply_to_presentation(phi, x)
        assert periodic_counts(y, 10) == base


@criterion("AC-12")
def test_ac_12_envelope_matches_local_unit_poset():
    for name in util.CORPUS:
        s, accept = syntactic_semigroup(util.load(name))
        assert s.size <= 60
        assert karoubi_vs_lu_comparison(s, accept).kind == "Iso"
        assert karoubi_vs_lu_comparison(s, range(s.size)).kind == "Iso"
