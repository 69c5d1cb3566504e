"""Independent oracles used to freeze expected values.

Everything here is computed from first principles (combinatorial rules,
definitional set computations, sympy series) without importing the
package under test, so each assertion in the test suite checks two
independent derivations against each other.  There are three
exceptions.  The irreducibility oracle runs the subset automaton of the
package's trimmed graph, and checks only the way `is_irreducible` reads
the verdict off strongly connected components.  The boundary-stripping
section's five-way classifier is built on the package's ω-terms and
canonical form, and checks only the way `classify_type` reads the five
shapes off one contraction.  The naturality square runs the package's
functors and η, and checks only that the square may leave the end
idempotents out of the functors and canonicalise each term once.  Their
functions import the package when called, so the module itself loads
without it.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from fractions import Fraction

import sympy

# -- rule-based languages -------------------------------------------------
# A "rule" maps a finite word (as a plain string) to True iff it is a
# block of the shift.  Each is derived directly from the defining
# condition of the shift, not from any graph presentation.


def golden_legal(w: str) -> bool:
    """No two consecutive b."""
    return "bb" not in w


def even_legal(w: str) -> bool:
    """Every maximal b-run flanked by a on both sides has even length."""
    runs = w.split("a")
    for run in runs[1:-1]:
        if len(run) % 2 == 1:
            return False
    return True


def full2_legal(w: str) -> bool:
    return set(w) <= {"a", "b"}


def periodic_ab_legal(w: str) -> bool:
    """Factor of ...ababab... : strictly alternating."""
    return all(x != y for x, y in zip(w, w[1:]))


def fixed_point_legal(w: str) -> bool:
    return set(w) <= {"a"}


def marker_cycle_legal(w: str) -> bool:
    """Deleting every a leaves a factor of the cyclic word (bcd)^∞."""
    core = [c for c in w if c != "a"]
    if not core:
        return True
    cycle = "bcd"
    start = cycle.index(core[0])
    return all(c == cycle[(start + i) % 3] for i, c in enumerate(core))


RULES = {
    "golden_mean": ("ab", golden_legal),
    "even": ("ab", even_legal),
    "full2": ("ab", full2_legal),
    "periodic_ab": ("ab", periodic_ab_legal),
    "fixed_point": ("ab", fixed_point_legal),
    "marker_cycle": ("abcd", marker_cycle_legal),
}


def circular_legal(name: str, w: str) -> bool:
    """True iff the bi-infinite repetition of w lies in the shift.

    The repetition lies in the shift iff every finite factor of w^∞ is
    legal; factors of w^∞ of any length occur inside a high enough
    finite power, and legality of all factors of w^k for k beyond
    (longest forbidden pattern / |w|) is equivalent for all larger k
    because the rules above only constrain bounded windows (golden,
    periodic_ab) or runs/cycle positions that repeat with period |w|
    (even, marker_cycle).  Power 3 + run inspection is safely past every
    rule's window; we use power 6 for margin.
    """
    _, rule = RULES[name]
    return rule(w * 6)


def brute_periodic_counts(name: str, n_max: int) -> tuple[list[int], list[int]]:
    """p(n) = #{w : |w| = n, w^∞ in X}; q(n) = same but w primitive.

    Each point of period n is determined by its first n letters, so p
    counts the words directly; least period d of w^∞ divides |w| and
    equals |w| exactly when w is primitive.
    """
    alpha, _ = RULES[name]
    p, q = [], []
    for n in range(1, n_max + 1):
        pn = qn = 0
        for tup in itertools.product(alpha, repeat=n):
            w = "".join(tup)
            if not circular_legal(name, w):
                continue
            pn += 1
            if word_is_primitive(w):
                qn += 1
        p.append(pn)
        q.append(qn)
    return p, q


def word_is_primitive(w: str) -> bool:
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and w == w[:d] * (n // d):
            return False
    return True


def mobius(n: int) -> int:
    if n == 1:
        return 1
    out, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    if m > 1:
        out = -out
    return out


def mobius_primitive_counts(p: list[int]) -> list[Fraction]:
    """q(n) = (1/1) Σ_{d|n} μ(n/d) p(d), from the p sequence alone."""
    q = []
    for n in range(1, len(p) + 1):
        acc = 0
        for d in range(1, n + 1):
            if n % d == 0:
                acc += mobius(n // d) * p[d - 1]
        q.append(Fraction(acc))
    return q


# -- transfer-matrix zeta (vertex shifts only) ----------------------------


def transfer_matrix_zeta(adjacency, order: int) -> list[int]:
    """Coefficients of 1/det(I - t*A) up to the given order.

    Valid as a periodic-point oracle exactly when points of the shift
    correspond bijectively to bi-infinite vertex paths (vertex SFTs and
    the full shift), where p(n) = trace(A^n) and the determinant formula
    is classical.
    """
    t = sympy.symbols("t")
    a = sympy.Matrix(adjacency)
    n = a.shape[0]
    det = (sympy.eye(n) - t * a).det()
    series = sympy.series(1 / det, t, 0, order + 1).removeO()
    poly = sympy.Poly(series, t)
    return [int(poly.coeff_monomial(t ** i)) for i in range(order + 1)]


def rational_series(num, den, order: int) -> list[int]:
    """Taylor coefficients of num(t)/den(t) with integer checks."""
    t = sympy.symbols("t")
    expr = sympy.sympify(num) / sympy.sympify(den)
    series = sympy.series(expr, t, 0, order + 1).removeO()
    poly = sympy.Poly(series, t)
    return [int(poly.coeff_monomial(t ** i)) for i in range(order + 1)]


def zeta_from_counts(p: list[int], order: int) -> list[Fraction]:
    """exp(Σ p(n)/n tⁿ) coefficients, straight power-series exponential."""
    g = [Fraction(1)]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += Fraction(p[k - 1]) * g[n - k]
        g.append(acc / n)
    return g


# -- block languages by path enumeration ----------------------------------


def path_labels(symbols, edges, n: int) -> list[tuple[str, ...]]:
    """The distinct labels of the paths of length 1..n along edges
    (source, label, target), every path walked on its own, sorted by
    length and then by the index of each letter in symbols.  On a
    trimmed graph these are the blocks of length at most n."""
    rank = {a: i for i, a in enumerate(symbols)}
    paths = [((), s) for s in {e[0] for e in edges}]
    labels = set()
    for _ in range(n):
        paths = [(lab + (a,), d) for lab, v in paths
                 for s, a, d in edges if s == v]
        labels.update(lab for lab, _ in paths)
    return sorted(labels, key=lambda lab: (len(lab), [rank[a] for a in lab]))


# -- irreducibility on the subset automaton -------------------------------


def subset_irreducible(x) -> bool:
    """Whether x is irreducible, by the word criterion (for all blocks
    u, v some u·w·v is a block) made finite on the subset automaton of
    x's trimmed graph: reading u from the full vertex set lands in a
    state T, and some u·w·v is a block iff v is readable from the union
    W of the states reachable from T.  Each such W must read every word
    that the full vertex set reads."""
    from shiftcat.shifts import subset_dfa
    g = x.graph()
    states, trans = subset_dfa(g, x.alphabet)
    syms = x.alphabet.symbols

    def step(vertices, a):
        return frozenset(d for v in vertices for _, b, d in g.out[v]
                         if b == a)

    def reads_everything(wset):
        start = (frozenset(g.vertices), wset)
        seen = {start}
        stack = [start]
        while stack:
            full, part = stack.pop()
            for a in syms:
                nf = step(full, a)
                np = step(part, a)
                if not nf:
                    continue
                if not np:
                    return False
                if (nf, np) not in seen:
                    seen.add((nf, np))
                    stack.append((nf, np))
        return True

    for i, st in enumerate(states):
        if not st or i == 0:
            continue
        seen = {i}
        stack = [i]
        while stack:
            j = stack.pop()
            for a in syms:
                k = trans[(j, a)]
                if states[k] and k not in seen:
                    seen.add(k)
                    stack.append(k)
        if not reads_everything(frozenset().union(*(states[j] for j in seen))):
            return False
    return True


# -- definitional Green's relations ---------------------------------------


class GreenOracle:
    """R/L/J/H from the textbook definitions on a multiplication table.

    Works on S¹ ideals computed as literal sets: x R y iff xS¹ = yS¹,
    x L y iff S¹x = S¹y, x J y iff S¹xS¹ = S¹yS¹, H = R ∧ L.
    """

    def __init__(self, table):
        self.table = table
        self.n = len(table)
        elems = range(self.n)
        self.right_ideal = [frozenset({x} | {table[x][s] for s in elems})
                            for x in elems]
        self.left_ideal = [frozenset({x} | {table[s][x] for s in elems})
                           for x in elems]
        two = []
        for x in elems:
            ideal = {x}
            ideal |= {table[x][s] for s in elems}
            ideal |= {table[s][x] for s in elems}
            ideal |= {table[table[s][x]][r] for s in elems for r in elems}
            two.append(frozenset(ideal))
        self.two_ideal = two

    def r_related(self, x, y):
        return self.right_ideal[x] == self.right_ideal[y]

    def l_related(self, x, y):
        return self.left_ideal[x] == self.left_ideal[y]

    def j_related(self, x, y):
        return self.two_ideal[x] == self.two_ideal[y]

    def h_related(self, x, y):
        return self.r_related(x, y) and self.l_related(x, y)

    def j_class_of(self, x):
        return frozenset(y for y in range(self.n) if self.j_related(x, y))

    def classes_within(self, cls, related):
        out = []
        for x in sorted(cls):
            if not any(related(x, y) for c in out for y in c):
                out.append({y for y in cls if related(x, y)})
        return out

    def idempotents_within(self, cls):
        return sorted(x for x in cls if self.table[x][x] == x)

    def j_leq(self, x, y):
        """J_x ≤ J_y iff x ∈ S¹yS¹."""
        return x in self.two_ideal[y]


# -- factors --------------------------------------------------------------


def factors_up_to(letters: tuple, k: int) -> set[tuple]:
    """The nonempty factors of length at most k, one slice per position
    and length."""
    n = len(letters)
    return {letters[i:j] for i in range(n)
            for j in range(i + 1, min(i + k, n) + 1)}


# -- ω-terms unfolded to words --------------------------------------------


def unfold(t, m):
    """The letters of the ω-term t with each u^(ω+q) replaced by
    u^(m+q); m must leave every exponent ≥ 1."""
    out = []
    for it in t.body:
        if hasattr(it, "q"):
            if m + it.q < 1:
                raise ValueError(f"unfolding exponent {m} too small for "
                                 f"q={it.q}")
            out.extend(it.base.letters * (m + it.q))
        else:
            out.extend(it.letters)
    return tuple(out)


# -- ω-term normal form by rewriting to a fixpoint -------------------------
# A term is a list of items: a word is a tuple of letters, a power
# u^(ω+q) is the pair (u, q) with u a nonempty tuple of letters.  The
# rules are applied in passes until none fires: flatten, reduce each
# base to its primitive root, absorb whole base copies and merge equal
# bases left to right, and only when nothing else changes, move one
# letter of the word before the leftmost power that allows it to the
# right of that power.  Each pass is linear and the rotations move one
# letter at a time, so this is quadratic; it is the reference the
# library's linear `canonical` must match item for item.


def _is_power(item) -> bool:
    return len(item) == 2 and isinstance(item[1], int)


def _fixpoint_flatten(items):
    out, changed = [], False
    for it in items:
        if not _is_power(it):
            if not it:
                changed = True
                continue
            if out and not _is_power(out[-1]):
                out[-1] = out[-1] + it
                changed = True
                continue
        out.append(it)
    return out, changed


def _fixpoint_root(base):
    n = len(base)
    for d in range(1, n + 1):
        if n % d == 0 and base[:d] * (n // d) == base:
            return base[:d], n // d


def _fixpoint_root_reduce(items):
    out, changed = [], False
    for it in items:
        if _is_power(it):
            root, c = _fixpoint_root(it[0])
            if c > 1:
                it = (root, c * it[1])
                changed = True
        out.append(it)
    return out, changed


def _fixpoint_absorb_merge(items):
    changed = False
    i = 0
    while i < len(items):
        it = items[i]
        if _is_power(it):
            base, n = it[0], len(it[0])
            if i > 0 and not _is_power(items[i - 1]):
                w, copies = items[i - 1], 0
                while len(w) >= n and w[len(w) - n:] == base:
                    w, copies = w[:len(w) - n], copies + 1
                if copies:
                    items[i] = it = (base, it[1] + copies)
                    items[i - 1] = w
                    changed = True
            if i > 0 and _is_power(items[i - 1]) and items[i - 1][0] == base:
                items[i - 1:i + 1] = [(base, items[i - 1][1] + it[1])]
                changed = True
                continue
            if i + 1 < len(items) and not _is_power(items[i + 1]):
                w, copies = items[i + 1], 0
                while len(w) >= n and w[:n] == base:
                    w, copies = w[n:], copies + 1
                if copies:
                    items[i] = (base, it[1] + copies)
                    items[i + 1] = w
                    changed = True
        i += 1
    return items, changed


def _fixpoint_rotate_once(items):
    # w·c (y·c)^(ω+q) → w (c·y)^(ω+q) c
    for i in range(1, len(items)):
        it, prev = items[i], items[i - 1]
        if not _is_power(it) or _is_power(prev) or not prev:
            continue
        c = prev[-1]
        if it[0][-1] != c:
            continue
        items[i - 1] = prev[:-1]
        items[i] = ((c,) + it[0][:-1], it[1])
        items.insert(i + 1, (c,))
        return items, True
    return items, False


def fixpoint_canonical(items):
    """The normal form of a term given as a list of word and power items."""
    items = list(items)
    while True:
        items, ch1 = _fixpoint_flatten(items)
        items, ch2 = _fixpoint_root_reduce(items)
        items, ch3 = _fixpoint_absorb_merge(items)
        if ch2 or ch3:
            continue
        items, ch4 = _fixpoint_rotate_once(items)
        if not (ch1 or ch4):
            return items


# -- boundary stripping and the five-way classifier -----------------------
# The exact removal of boundary letters from an ω-term, and the
# classifier that tries each of the five shapes of a 2-mirage term of an
# expanded shift in turn: the image test on the term, on the term less
# its first letter, less its last letter and less both.


def first_letter(t):
    from shiftcat.pseudowords import term_prefix_k
    return term_prefix_k(t, 1).letters[0]


def last_letter(t):
    from shiftcat.pseudowords import term_suffix_k
    return term_suffix_k(t, 1).letters[0]


def _drop_first_item(items):
    # a leading power (a·y)^(ω+q) = a · (y·a)^(ω+q-1) · y loses its a
    head = items[0]
    if not hasattr(head, "q"):
        return [head[1:]] + items[1:]
    a, y = head.base[0], head.base[1:]
    rotated = type(y)(y.alphabet, y.letters + (a,))
    return [type(head)(rotated, head.q - 1), y] + items[1:]


def _drop_last_item(items):
    # a trailing power (x·b)^(ω+q) = x · (b·x)^(ω+q-1) · b loses its b
    tail = items[-1]
    if not hasattr(tail, "q"):
        return items[:-1] + [tail[: len(tail) - 1]]
    x, b = tail.base[: len(tail.base) - 1], tail.base[-1]
    rotated = type(x)(x.alphabet, (b,) + x.letters)
    return items[:-1] + [x, type(tail)(rotated, tail.q - 1)]


def _drop(t, drop):
    from shiftcat.errors import TooShort
    from shiftcat.pseudowords import OmegaTerm, canonical
    t = canonical(t)
    if not t.body:
        raise TooShort("empty term")
    return canonical(OmegaTerm(t.alphabet, tuple(drop(list(t.body)))))


def drop_first(t):
    """Remove the first letter, staying an exact ω-term."""
    return _drop(t, _drop_first_item)


def drop_last(t):
    """Remove the last letter, staying an exact ω-term."""
    return _drop(t, _drop_last_item)


def strip_boundary(t):
    """Remove the first and last letter, staying an exact ω-term, so that
    first · strip_boundary(t) · last has the canonical form of t."""
    from shiftcat.errors import TooShort
    from shiftcat.pseudowords import OmegaTerm, canonical
    t = canonical(t)
    if t.is_plain() and len(t.as_plain_word()) < 2:
        raise TooShort("need at least two letters to strip")
    # dropping the first letter may leave an empty word in front of the
    # last item
    items = [it for it in _drop_first_item(list(t.body))
             if hasattr(it, "q") or len(it)]
    return canonical(OmegaTerm(t.alphabet, tuple(_drop_last_item(items))))


def term_image_E(t, alpha, diamond="o"):
    """Whether the term lies in the image of the expansion E: the local
    conditions on an unrolling and the round trip expand(contract(t)) = t
    must agree."""
    from shiftcat.errors import MismatchBug
    from shiftcat.errors import DiamondOnly
    from shiftcat.pseudowords import (canonical, canonical_equal,
                                      image_E_membership, term_contract,
                                      term_expand, unroll)
    t = canonical(t)
    if not t.body:
        return False
    local = image_E_membership(unroll(t, 2), alpha, diamond)
    try:
        c = term_contract(t, diamond)
    except DiamondOnly:
        roundtrip = False
    else:
        roundtrip = canonical_equal(term_expand(c, alpha, diamond), t)
    if local != roundtrip:
        raise MismatchBug("local expansion-image test disagrees with the "
                          "round trip")
    return local


def five_way_classify(w, ctx):
    """The shape of a 2-mirage word or term of ctx.target, found by
    testing each of the five candidates."""
    from shiftcat.errors import ClassificationFailure, NotInMirage2
    from shiftcat.pseudowords import OmegaTerm, canonical, mirage_membership
    alpha, dia = ctx.letter, ctx.diamond
    t = canonical(OmegaTerm.from_word(w) if not hasattr(w, "body") else w)
    if not t.body:
        raise ValueError("the empty word has no type")
    if not mirage_membership(t, ctx.target, 2):
        raise NotInMirage2("a factor of length <= 2 is not a block of the "
                           "expanded shift")
    fl, ll = first_letter(t), last_letter(t)
    matches = []
    if t.is_plain() and len(t.as_plain_word()) == 1 and fl in (alpha, dia):
        matches.append("Letter")
    if term_image_E(t, alpha, dia):
        matches.append("ImageE")
    if fl == dia and term_image_E(drop_first(t), alpha, dia):
        matches.append("DiamondImageE")
    if ll == alpha and term_image_E(drop_last(t), alpha, dia):
        matches.append("ImageEAlpha")
    if fl == dia and ll == alpha:
        inner = strip_boundary(t)
        if not inner.body or term_image_E(inner, alpha, dia):
            matches.append("DiamondImageEAlpha")
    if len(matches) != 1:
        raise ClassificationFailure(f"expected exactly one type, got "
                                    f"{matches or 'none'}")
    return matches[0]


# -- the naturality square -----------------------------------------------
# The square as first written: every candidate middle and both sides are
# canonicalised before they are tested, and the whole arrow, ends
# included, goes through G and then F.


def connector_canonicalising_each_candidate(x, e, f):
    """The first canonical(e·f), then canonical(e·c·f) over the blocks c
    of x with |c| ≤ 4 by length, in the 2-mirage of x; None if none is."""
    from shiftcat.pseudowords import (OmegaTerm, canonical,
                                      mirage_membership)
    from shiftcat.shifts import ordered_blocks
    for c in [None] + ordered_blocks(x, 4):
        mid = canonical(e * f if c is None
                        else e * OmegaTerm.from_word(c) * f)
        if mirage_membership(mid, x, 2):
            return mid
    return None


def naturality_square_through_both_functors(arrow, ctx, tests):
    """The verdict on η_e ∘ F(G(e, u, f)) = (e, u, f) ∘ η_f, with F∘G of
    each end checked against η's codomain and the case labels taken from
    classify_type."""
    from shiftcat.errors import MismatchBug
    from shiftcat.flowops import classify_type, eta, functor_F, functor_G
    from shiftcat.pseudowords import (Verdict, canonical, canonical_equal,
                                      quotient_equal)
    e, u, f = arrow
    eta_e, eta_f = eta(e, ctx, tests), eta(f, ctx, tests)
    fga = functor_F(functor_G(arrow, ctx), ctx)
    if not canonical_equal(eta_e[2], fga[0]):
        raise MismatchBug("η_e does not land on F(G(e))")
    if not canonical_equal(fga[2], eta_f[2]):
        raise MismatchBug("the two sides end at different objects")
    v = quotient_equal(canonical(eta_e[1] * fga[1]),
                       canonical(u * eta_f[1]), tests)
    note = (f"case dom={classify_type(e, ctx)}, "
            f"cod={classify_type(f, ctx)}; {v.note}")
    return Verdict(v.kind, v.canonical_equal, v.distinguished_by, note)


def brute_idempotent_pairs_local_units(table, carrier):
    """{x in carrier : x = e·x·f for some idempotents e, f}."""
    n = len(table)
    idems = [e for e in range(n) if table[e][e] == e]
    out = set()
    for x in carrier:
        for e in idems:
            for f in idems:
                if table[table[e][x]][f] == x:
                    out.add(x)
    return out


def scan_unit_pairs(table):
    """Each x with e·x = x and x·f = x for some idempotents e and f,
    mapped to the first such e and the first such f in index order."""
    n = len(table)
    idems = [e for e in range(n) if table[e][e] == e]
    out = {}
    for x in range(n):
        e = next((e for e in idems if table[e][x] == x), None)
        f = next((f for f in idems if table[x][f] == x), None)
        if e is not None and f is not None:
            out[x] = (e, f)
    return out


# -- Karoubi envelope by hom-sets -----------------------------------------
# The arrows e -> f of the envelope are the triples (e, s, f) with
# s = e·s·f, so hom(e, f) has the middles e·S·f.  These oracles
# enumerate hom-sets outright and search them exhaustively; the library
# certifies the same facts from ideal factors and inverse pairs.


def idempotents(table):
    return [x for x in range(len(table)) if table[x][x] == x]


def hom_middles(table, e, f):
    """The middles of the arrows e -> f: the set e·S·f."""
    return {table[table[e][s]][f] for s in range(len(table))}


def hom_sets(table):
    """(e, f) -> the sorted middles of hom(e, f), for all idempotents."""
    idems = idempotents(table)
    return {(e, f): sorted(hom_middles(table, e, f))
            for e in idems for f in idems}


def brute_retraction_order(table):
    """Pairs (e, f) of idempotents with x·y = e for some arrows
    x: e -> f and y: f -> e."""
    idems = idempotents(table)
    hom = hom_sets(table)
    return {(e, f) for e in idems for f in idems
            if any(table[x][y] == e for x in hom[e, f] for y in hom[f, e])}


def brute_objects_isomorphic(table, e, f, hom):
    return any(table[x][y] == e and table[y][x] == f
               for x in hom[e, f] for y in hom[f, e])


def brute_iso_census(table):
    """Class size n -> number of objects in isomorphism classes of size
    n, the classes found by searching hom-sets for inverse arrows."""
    idems = idempotents(table)
    hom = hom_sets(table)
    classes: list[list[int]] = []
    for e in idems:
        home = next((c for c in classes
                     if brute_objects_isomorphic(table, e, c[0], hom)), None)
        if home is None:
            classes.append([e])
        else:
            home.append(e)
    census: dict[int, int] = {}
    for c in classes:
        census[len(c)] = census.get(len(c), 0) + len(c)
    return census


def brute_automorphisms(table, e):
    """The invertible middles of hom(e, e): u with u·v = e = v·u."""
    loc = hom_middles(table, e, e)
    return sorted(u for u in loc
                  if any(table[u][v] == e and table[v][u] == e for v in loc))


def brute_conjugating_pair(table, e, f):
    """The first (x, y) with x·y = e and y·x = f, or None."""
    n = len(table)
    return next(((x, y) for x in range(n) for y in range(n)
                 if table[x][y] == e and table[y][x] == f), None)


def _stabilizing_perms(table, hclass, translations):
    h = sorted(hclass)
    pos = {x: i for i, x in enumerate(h)}
    perms = {tuple(range(len(h)))}
    for y in translations:
        imgs = [table[x][y] for x in h]
        if all(v in pos for v in imgs):
            perms.add(tuple(pos[v] for v in imgs))
    return perms


def brute_karoubi_vs_lu(table, carrier):
    """"Iso" or "NotIso": do the arrows with middles in the carrier,
    grouped by the J-class of their middle, form a poset matching the
    J-classes of local units in the carrier?

    For every pair of classes, a representative arrow (e, u, f) lies
    below (g, v, h) when some x in hom(e, g) and y in hom(h, f) give
    x·v·y = u; this must agree with u ∈ S¹vS¹.  Every arrow of a class
    must lie below and above its representative the same way.  The
    group labels compare the order of the right translations of H_u by
    hom(f, f) with that by all of S.
    """
    green = GreenOracle(table)
    n = len(table)
    idems = idempotents(table)
    units = brute_idempotent_pairs_local_units(table, carrier)
    classes = green.classes_within(units, green.j_related)
    hom = hom_sets(table)

    def below(a, b):
        (e, u, f), (g, v, h) = a, b
        return any(table[table[x][v]][y] == u
                   for x in hom[e, g] for y in hom[h, f])

    def arrows(cls):
        return [(e, u, f) for u in sorted(cls) for e in idems for f in idems
                if table[table[e][u]][f] == u]

    reps = [arrows(c)[0] for c in classes]
    for a in reps:
        for b in reps:
            if below(a, b) != green.j_leq(a[1], b[1]):
                return "NotIso"
    for cls, rep in zip(classes, reps):
        if not all(below(a, rep) and below(rep, a) for a in arrows(cls)):
            return "NotIso"
        e, u, f = rep
        hclass = {x for x in range(n) if green.h_related(u, x)}
        arrow_side = _stabilizing_perms(table, hclass, hom[f, f])
        base_side = _stabilizing_perms(table, hclass, range(n))
        if len(arrow_side) != len(base_side):
            return "NotIso"
    return "Iso"


# -- groups by Cayley table -----------------------------------------------
# The library compares permutation groups without a product table.  This
# reference builds both n×n tables, searches generator images of equal
# order along generator edges, and checks every product of a candidate.


def perm_group_table(carrier):
    """The product table of a group of permutations (tuples p with
    p·q = (q[p[0]], q[p[1]], ...)) over its sorted elements."""
    els = sorted(carrier)
    idx = {p: i for i, p in enumerate(els)}
    return [[idx[tuple(q[i] for i in p)] for q in els] for p in els]


def _table_identity(table):
    n = len(table)
    return next(i for i in range(n) if all(table[i][j] == j for j in range(n)))


def _table_element_orders(table):
    ident = _table_identity(table)
    orders = []
    for x in range(len(table)):
        k, cur = 1, x
        while cur != ident:
            cur = table[cur][x]
            k += 1
        orders.append(k)
    return orders


def _table_generating_set(table):
    n = len(table)
    gens = []
    closed = {_table_identity(table)}
    for x in range(n):
        if x in closed:
            continue
        gens.append(x)
        frontier = list(closed | {x})
        closed.add(x)
        while frontier:
            a = frontier.pop()
            for b in list(closed):
                for c in (table[a][b], table[b][a]):
                    if c not in closed:
                        closed.add(c)
                        frontier.append(c)
        if len(closed) == n:
            break
    return gens


def table_groups_isomorphic(t1, t2):
    """True iff the groups with product tables t1 and t2 are isomorphic."""
    n = len(t1)
    if len(t2) != n:
        return False
    o1 = _table_element_orders(t1)
    o2 = _table_element_orders(t2)
    if sorted(o1) != sorted(o2):
        return False
    gens = _table_generating_set(t1)
    ident1, ident2 = _table_identity(t1), _table_identity(t2)
    cands = [[y for y in range(n) if o2[y] == o1[g]] for g in gens]
    for images in itertools.product(*cands):
        phi = {ident1: ident2}
        frontier = [ident1]
        ok = True
        while frontier and ok:
            a = frontier.pop()
            for g, img in zip(gens, images):
                b = t1[a][g]
                fb = t2[phi[a]][img]
                if b in phi:
                    if phi[b] != fb:
                        ok = False
                        break
                else:
                    phi[b] = fb
                    frontier.append(b)
        if not ok or len(phi) != n or len(set(phi.values())) != n:
            continue
        if all(phi[t1[a][b]] == t2[phi[a]][phi[b]]
               for a in range(n) for b in range(n)):
            return True
    return False


# -- the command line as argparse reads it ----------------------------------
# The argparse form of the shiftcat command table: `vars()` of its parse
# is what the table-driven parser in shiftcat.cli must set, less `func`.


class _UsageParser(argparse.ArgumentParser):
    def error(self, message):
        print(f"usage error: {message}", file=sys.stderr)
        sys.exit(64)


def argparse_parser(version: str) -> argparse.ArgumentParser:
    p = _UsageParser(prog="shiftcat")
    p.add_argument("--version", action="version", version=version)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("blocks")
    sp.add_argument("shift")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--format", choices=["json", "text"], default="json")

    sp = sub.add_parser("member")
    sp.add_argument("shift")
    sp.add_argument("text")
    sp.add_argument("--bound", type=int, default=4)

    sub.add_parser("irreducible").add_argument("shift")

    for name in ("periodic", "zeta"):
        sp = sub.add_parser(name)
        sp.add_argument("shift")
        sp.add_argument("--order", type=int, required=True)

    for name in ("syntactic", "green", "karoubi"):
        sub.add_parser(name).add_argument("shift")

    sp = sub.add_parser("lu-poset")
    sp.add_argument("shift")
    sp.add_argument("--carrier", choices=["accept", "all"], default="accept")
    sp.add_argument("--format", choices=["json", "dot"], default="json")

    sp = sub.add_parser("code")
    sp.add_argument("action", choices=["apply", "compose", "centralize"])
    sp.add_argument("code")
    sp.add_argument("second", nargs="?")

    sp = sub.add_parser("term")
    sp.add_argument("action", choices=["eval", "factors", "code"])
    sp.add_argument("source")
    sp.add_argument("term")
    sp.add_argument("--bound", type=int, default=4)

    sp = sub.add_parser("expand")
    sp.add_argument("shift")
    sp.add_argument("--letter", required=True)
    sp.add_argument("--diamond", default="o")
    sp.add_argument("--format", choices=["json", "dot"], default="json")

    sp = sub.add_parser("classify")
    sp.add_argument("shift")
    sp.add_argument("text")
    sp.add_argument("--letter", required=True)
    sp.add_argument("--diamond", default="o")

    sp = sub.add_parser("flowcheck")
    sp.add_argument("shift")
    sp.add_argument("--letter", required=True)
    sp.add_argument("--diamond", default="o")
    sp.add_argument("--bound", type=int, default=4)
    sp.add_argument("--seed", type=int)

    sp = sub.add_parser("check")
    sp.add_argument("suite")
    sp.add_argument("--seed", type=int)
    return p


# -- frozen corpus answers ------------------------------------------------
# Derived from the rules above (brute_periodic_counts / series) and kept
# as literals so a regression in the oracle itself is also caught.

GOLDEN_P_12 = [1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199, 322]
GOLDEN_Q_12 = [1, 2, 3, 4, 10, 12, 28, 40, 72, 110, 198, 300]
GOLDEN_ZETA_12 = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233]
EVEN_P_12 = [2, 2, 5, 6, 12, 17, 30, 46, 77, 122, 200, 321]
EVEN_Q_12 = [2, 0, 3, 4, 10, 12, 28, 40, 72, 110, 198, 300]
EVEN_ZETA_12 = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377]
FULL2_P_12 = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
MARKER_P_8 = [1, 1, 4, 13, 31, 64, 127, 253]
MARKER_ZETA_8 = [1, 1, 1, 2, 5, 11, 22, 43, 85]
PERIODIC_AB_P_6 = [0, 2, 0, 2, 0, 2]
FIXED_POINT_P_6 = [1, 1, 1, 1, 1, 1]
