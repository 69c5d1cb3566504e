"""Finite semigroups by Cayley table.

Generation from transformations, syntactic semigroups of block
languages, Green's relations, omega powers, Schützenberger groups,
local units, factors of two-sided ideals, and inverse pairs of
idempotents.  Elements are table indices; each carries a witness word
over the declared alphabet that the generating morphism sends to it.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter

from .errors import MismatchBug, SizeLimit
from .shifts import (ShiftPresentation, minimal_automaton,
                     right_cayley_graph, sccs)
from .words import Alphabet, Record, Word, word_to_json

TYPE_CHECKING = False
if TYPE_CHECKING:
    import random


class FiniteSemigroup:
    """A finite semigroup with generators and witness words.

    The product table is proved associative at construction, at every
    size: Light's test on the generators, then every witness word
    evaluates to its element.
    """

    def __init__(self, table, generators, witnesses, alphabet: Alphabet):
        self.table: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in table)
        self.size = len(self.table)
        self.generators: tuple[int, ...] = tuple(generators)
        self.alphabet = alphabet
        self._witness: dict[int, Word] = dict(witnesses)
        if len(self.generators) != len(alphabet):
            raise ValueError("one generator per alphabet letter")
        self.gen_of: dict[str, int] = {a: g for a, g in
                                       zip(alphabet.symbols, self.generators)}
        self._green: GreenData | None = None
        self._idem: tuple[int, ...] | None = None
        self._units: dict[int, tuple[int, int]] | None = None
        self._check_associativity()
        self._check_witnesses()

    def _check_associativity(self) -> None:
        """Light's test: (x·g)·y = x·(g·y) for all x, y and generators g.

        The elements g passing it are closed under the product, so once
        _check_witnesses shows that the generators yield every element,
        the whole table is associative.
        """
        n = self.size
        t = self.table
        if any(len(r) != n for r in t):
            raise ValueError("product table must be square")
        for g in sorted(set(self.generators)):
            # x·(g·z) for every z at once; itemgetter of one index
            # returns the item, not a 1-tuple
            then_g = itemgetter(*t[g]) if n > 1 else \
                lambda tx, z=t[g][0]: (tx[z],)
            for x in range(n):
                tx = t[x]
                if t[tx[g]] != then_g(tx):
                    raise ValueError(f"associativity fails at x={x}, "
                                     f"generator {g}")

    def _check_witnesses(self) -> None:
        for x in range(self.size):
            w = self._witness.get(x)
            if w is None or len(w) == 0:
                raise ValueError(f"element {x} lacks a witness word")
            if self.eval_word(w) != x:
                raise ValueError(f"witness of {x} evaluates elsewhere")

    def product(self, x: int, y: int) -> int:
        return self.table[x][y]

    def witness(self, x: int) -> Word:
        return self._witness[x]

    def eval_word(self, w: Word | str) -> int:
        letters = w.letters if isinstance(w, Word) else tuple(w)
        if not letters:
            raise ValueError("the empty word has no image in a semigroup")
        acc = self.gen_of[letters[0]]
        for a in letters[1:]:
            acc = self.table[acc][self.gen_of[a]]
        return acc

    def idempotents(self) -> tuple[int, ...]:
        if self._idem is None:
            self._idem = tuple(x for x in range(self.size)
                               if self.table[x][x] == x)
        return self._idem

    def is_idempotent(self, x: int) -> bool:
        return self.table[x][x] == x

    def to_json(self) -> dict:
        return {"size": self.size,
                "alphabet": list(self.alphabet.symbols),
                "generators": list(self.generators),
                "table": self.table,
                "witnesses": {str(x): word_to_json(self._witness[x])
                              for x in range(self.size)}}


def generate(transformations, alphabet: Alphabet) -> FiniteSemigroup:
    """Close a list of total maps (one per letter) under composition.

    Maps act on states left to right: the element of a word u sends q to
    the state reached reading u from q, so products satisfy
    element(u)·element(v) = element(uv).  Elements are numbered by BFS
    discovery (shifts.right_cayley_graph), which makes witnesses
    shortest and lexicographically least.
    """
    maps = [tuple(t) for t in transformations]
    if len(maps) != len(alphabet):
        raise ValueError("one transformation per alphabet letter")
    _, gen_ids, right, parent = right_cayley_graph(maps)
    return _fill_table(gen_ids, right, parent, alphabet)


def _fill_table(gen_ids, right, parent, alphabet: Alphabet) -> FiniteSemigroup:
    """The semigroup of a right Cayley graph (shifts.right_cayley_graph).

    The table is filled by x·(y'a) = (x·y')·a along each element's
    parent (y', a), one tuple per row, and is proved associative by
    FiniteSemigroup.
    """
    witness: dict[int, Word] = {}
    for y, (y_prev, i) in enumerate(parent):
        prefix = () if y_prev < 0 else witness[y_prev].letters
        witness[y] = Word(alphabet, prefix + (alphabet.symbols[i],))
    table = []
    for rx in right:
        xy: list[int] = []               # xy[y] = x·y, filled in BFS order
        for y_prev, i in parent:
            xy.append(rx[i] if y_prev < 0 else right[xy[y_prev]][i])
        table.append(tuple(xy))
    return FiniteSemigroup(table, gen_ids, witness, alphabet)


def random_transformation_semigroup(alphabet: Alphabet, states: int,
                                    rng: random.Random) -> FiniteSemigroup:
    """A seeded transformation semigroup, one random map per letter."""
    maps = [tuple(rng.randrange(states) for _ in range(states))
            for _ in alphabet.symbols]
    return generate(maps, alphabet)


def battery(alphabet: Alphabet, seed: int | None = None, extra=()):
    """Finite-quotient tests: the given extras, cyclic Z/2 and Z/3
    quotients (these separate ω+p from ω+q exponents, which aperiodic
    random quotients cannot), and optionally seeded random ones."""
    out = list(extra)
    for m in (2, 3):
        rot = tuple((i + 1) % m for i in range(m))
        ident = tuple(range(m))
        gens = [rot if i % 2 == 0 else ident for i in range(len(alphabet))]
        s = generate(gens, alphabet)
        out.append((s, dict(s.gen_of)))
    if seed is not None:
        import random
        rng = random.Random(seed)
        added = 0
        while added < 3:
            s = random_transformation_semigroup(alphabet, 3, rng)
            if s.size <= 40:
                out.append((s, dict(s.gen_of)))
                added += 1
    return out


def syntactic_semigroup(x: ShiftPresentation) -> tuple[FiniteSemigroup,
                                                       frozenset[int]]:
    """The transition semigroup of the minimal automaton of the block
    language, with the accepted element ids.

    The automaton (shifts.minimal_automaton) is canonical, so is the
    result: u is a block iff its element is in accept, the elements
    that send the initial state elsewhere than the sink.
    """
    maps, initial, sink = minimal_automaton(x)
    elems, gen_ids, right, parent = right_cayley_graph(maps)
    accept = frozenset(y for y, t in enumerate(elems) if t[initial] != sink)
    return _fill_table(gen_ids, right, parent, x.alphabet), accept


class GreenData(Record):
    """Green's relations of a finite semigroup.

    Partitions are tuples of frozensets of element ids, numbered by
    least member; *_of maps an element to its class index, except l_of,
    whose ids are arbitrary (no L partition is kept).  j_below holds
    the pairs (i, j) with J_i ≤_J J_j.
    """

    __slots__ = ("R", "J", "H", "r_of", "l_of", "j_of", "h_of", "j_below",
                 "regular")
    R: tuple[frozenset[int], ...]
    J: tuple[frozenset[int], ...]
    H: tuple[frozenset[int], ...]
    r_of: tuple[int, ...]
    l_of: tuple[int, ...]
    j_of: tuple[int, ...]
    h_of: tuple[int, ...]
    j_below: frozenset[tuple[int, int]]
    regular: tuple[bool, ...]

    def j_leq(self, i: int, j: int) -> bool:
        return (i, j) in self.j_below


def _partition_from_comp(comp: list) -> tuple[tuple[frozenset[int], ...],
                                             tuple[int, ...]]:
    groups: dict = {}
    for x, c in enumerate(comp):
        groups.setdefault(c, set()).add(x)
    classes = sorted(groups.values(), key=min)
    of = [0] * len(comp)
    for i, cl in enumerate(classes):
        for x in cl:
            of[x] = i
    return tuple(frozenset(c) for c in classes), tuple(of)


def green(s: FiniteSemigroup) -> GreenData:
    """Green's relations via reachability in the Cayley graphs.

    x R y iff each is reachable from the other by right multiplication
    with generators (that walk realizes all of xS^I), and dually for L;
    J uses both sides at once.  The finite-semigroup identity J = D is
    asserted rather than assumed, at every size.
    """
    if s._green is not None:
        return s._green
    n = s.size
    t = s.table
    gens = set(s.generators)

    right = sccs(n, lambda x: (t[x][g] for g in gens))
    left = sccs(n, lambda x: (t[g][x] for g in gens))
    both = sccs(n, lambda x: itertools.chain((t[x][g] for g in gens),
                                              (t[g][x] for g in gens)))
    R, r_of = _partition_from_comp(right)
    l_of = tuple(left)
    J, j_of = _partition_from_comp(both)
    H, h_of = _partition_from_comp(list(zip(r_of, l_of)))

    # J-order through the condensation of the two-sided Cayley graph
    succ_sets: dict[int, set[int]] = {i: set() for i in range(len(J))}
    for x in range(n):
        for g in gens:
            for y in (t[x][g], t[g][x]):
                if j_of[y] != j_of[x]:
                    succ_sets[j_of[x]].add(j_of[y])
    below: set[tuple[int, int]] = set()
    for start in range(len(J)):
        seen = {start}
        stack = [start]
        while stack:
            c = stack.pop()
            for d in succ_sets[c]:
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        for c in seen:
            below.add((c, start))

    regular = tuple(any(t[x][x] == x for x in cl) for cl in J)
    _assert_j_equals_d(s, J, r_of, l_of)

    data = GreenData(R, J, H, r_of, l_of, j_of, h_of, frozenset(below),
                     regular)
    s._green = data
    return data


def _assert_j_equals_d(s: FiniteSemigroup, J, r_of, l_of) -> None:
    for cl in J:
        x = min(cl)
        r_mates = {z for z in cl if r_of[z] == r_of[x]}
        covered = {l_of[z] for z in r_mates}
        if any(l_of[y] not in covered for y in cl):
            raise MismatchBug("J-class is not a single D-class")


def index_and_period(s: FiniteSemigroup, x: int) -> tuple[int, int]:
    """Least i, p with x^(i+p) = x^i."""
    powers, i = _powers(s, x)
    return i, len(powers) + 1 - i


def _powers(s: FiniteSemigroup, x: int) -> tuple[list[int], int]:
    """[x, x², …, x^(i+p-1)], the powers up to the first repeat, and
    the index i: the next power is x^i again."""
    powers, seen = [x], {x: 1}
    while True:
        cur = s.table[powers[-1]][x]
        if cur in seen:
            return powers, seen[cur]
        powers.append(cur)
        seen[cur] = len(powers)


def omega_power(s: FiniteSemigroup, x: int) -> int:
    """The unique idempotent power of x: x^e for the multiple e of the
    period lying in [index, index + period)."""
    return omega_plus(s, x, 0)


def omega_plus(s: FiniteSemigroup, x: int, q: int) -> int:
    """x^(ω+q), q of any sign: ω is a multiple of the period p, so this
    is x^n for the n ≡ q (mod p) in [index, index + p)."""
    powers, i = _powers(s, x)
    return powers[i - 1 + (q - i) % (len(powers) + 1 - i)]


class SchutzGroup(Record):
    """The Schützenberger group of an H-class as permutations of it.

    Permutations are position maps over the sorted H-class; carrier is
    the whole group.
    """

    __slots__ = ("hclass", "carrier", "order")
    hclass: tuple[int, ...]
    carrier: frozenset[tuple[int, ...]]
    order: int

    def element_orders(self) -> list[int]:
        return sorted(_perm_order(p) for p in self.carrier)


def _perm_order(p: tuple[int, ...]) -> int:
    """The order of the permutation p, the lcm of its cycle lengths."""
    order, seen = 1, set()
    for i in p:
        k = 0
        while i not in seen:
            seen.add(i)
            i = p[i]
            k += 1
        order = math.lcm(order, k or 1)
    return order


def _generators(perms) -> tuple[list[tuple[int, ...]], set[tuple[int, ...]]]:
    """The elements of a set of permutations, in sorted order, that the
    ones before them do not generate, and the group they generate.

    Each closure is the right Cayley graph of the generators so far
    (shifts.right_cayley_graph); the identity is never a generator, so
    the trivial group has none.
    """
    gens: list[tuple[int, ...]] = []
    reached = {tuple(range(len(next(iter(perms)))))}
    for p in sorted(perms):
        if p not in reached:
            gens.append(p)
            reached = set(right_cayley_graph(gens)[0])
    return gens, reached


def translation_group(s: FiniteSemigroup, h: tuple[int, ...],
                      translators) -> SchutzGroup:
    """The right translations x ↦ x·y of the sorted H-class h by the
    translators y, as permutations of h, with the identity added.

    Each translation must permute h, and together they must be closed
    under composition and number exactly |h|, as the Schützenberger
    group of an H-class does (it acts simply transitively); anything
    else is an implementation bug and raises MismatchBug.
    """
    t = s.table
    pos = {x: i for i, x in enumerate(h)}
    perms: set[tuple[int, ...]] = {tuple(range(len(h)))}
    for y in translators:
        p = tuple(pos.get(t[x][y], -1) for x in h)
        if -1 in p:
            raise MismatchBug("translation leaves the H-class")
        if len(set(p)) != len(h):
            raise MismatchBug("translation is not a permutation")
        perms.add(p)
    if _generators(perms)[1] != perms:
        raise MismatchBug("translations are not closed")
    if len(perms) != len(h):
        raise MismatchBug("translation group is not simply transitive")
    return SchutzGroup(h, frozenset(perms), len(perms))


def schutzenberger(s: FiniteSemigroup, hclass) -> SchutzGroup:
    """Right translations stabilizing the H-class, up to equal action.

    With x the least element of H, each other v in H is x·z for the
    least z read off row x (right_factors).  By Green's lemma the
    translation by z maps H onto H, so these translators give the whole
    group, which acts simply transitively (translation_group).
    """
    h = tuple(sorted(hclass))
    return translation_group(s, h, right_factors(s, h[0], h).values())


def right_factors(s: FiniteSemigroup, u: int, h) -> dict[int, int]:
    """For each v ≠ u in u's H-class h, the least z with u·z = v, read
    off row u.  Such a z exists since v R u; a v without one raises
    MismatchBug."""
    z_of: dict[int, int] = {}
    for z, v in enumerate(s.table[u]):
        z_of.setdefault(v, z)
    try:
        return {v: z_of[v] for v in h if v != u}
    except KeyError:
        raise MismatchBug("H-class element outside u·S") from None


def unit_pairs(s: FiniteSemigroup) -> dict[int, tuple[int, int]]:
    """Each local unit x, mapped to the first idempotent e with e·x = x
    and the first idempotent f with x·f = x, in idempotents() order.

    For an idempotent e, e·x = x holds exactly when x ∈ eS¹.  So each
    idempotent in turn sweeps its right ideal along x ↦ x·a over the
    generators, stopping at elements an earlier one reached: their
    ideals lie inside that one's, which it swept whole.  Every element
    is then taken by the first e fixing it, and dually along x ↦ a·x by
    the first f.  Costs O(|S|·|A|); cached on s.
    """
    if s._units is None:
        t = s.table
        gens = sorted(set(s.generators))
        cols = [t[a] for a in gens]
        first_e = _first_sweep(s, lambda x: map(t[x].__getitem__, gens))
        first_f = _first_sweep(s, lambda x: [col[x] for col in cols])
        s._units = {x: (e, first_f[x]) for x, e in first_e.items()
                    if x in first_f}
    return s._units


def _first_sweep(s: FiniteSemigroup, step) -> dict[int, int]:
    """Each element reached from an idempotent along step, mapped to the
    first idempotent that reaches it."""
    first: dict[int, int] = {}
    for e in s.idempotents():
        if e in first:
            continue
        first[e] = e
        queue = [e]
        for x in queue:
            for y in step(x):
                if y not in first:
                    first[y] = e
                    queue.append(y)
    return first


def local_units(s: FiniteSemigroup, k) -> frozenset[int]:
    """{x in K : x = e·x·f for some idempotents e, f}, read off
    unit_pairs.

    The full local-unit set must be a union of J-classes; that is
    checked before slicing with K.
    """
    lu_all = set(unit_pairs(s))
    g = green(s)
    for cl in g.J:
        inside = cl & lu_all
        if inside and inside != cl:
            raise MismatchBug("local units are not a union of J-classes")
    return frozenset(lu_all & set(k))


def ideal_factors(s: FiniteSemigroup,
                  f: int) -> dict[int, tuple[int | None, int | None]]:
    """For every y in S¹fS¹ a pair (l, r) over S¹ with y = l·f·r.

    Breadth-first search from f along x ↦ x·a and x ↦ a·x over the
    generators a, carrying the factors along; None stands for the
    adjoined identity.  Costs O(|S|·|A|).
    """
    t = s.table
    gens = sorted(set(s.generators))
    factors: dict[int, tuple[int | None, int | None]] = {f: (None, None)}
    queue = [f]
    for x in queue:
        l, r = factors[x]
        tx = t[x]
        for a in gens:
            y = tx[a]
            if y not in factors:
                factors[y] = (l, a if r is None else t[r][a])
                queue.append(y)
            y = t[a][x]
            if y not in factors:
                factors[y] = (a if l is None else t[a][l], r)
                queue.append(y)
    return factors


def certify_retraction(table, e: int, f: int, x: int, y: int) -> None:
    """Check that x ∈ e·S·f and y ∈ f·S·e compose to x·y = e.

    Read in the Karoubi envelope, x: e -> f and y: f -> e are arrows
    exhibiting e as a retract of f.  Raises MismatchBug otherwise.
    """
    if (table[table[e][x]][f] != x or table[table[f][y]][e] != y
            or table[x][y] != e):
        raise MismatchBug(f"retraction certificate ({x}, {y}) of {e} "
                          f"through {f} fails")


def inverse_pair(s: FiniteSemigroup, e: int, f: int) -> tuple[int, int]:
    """a, a' with a·a' = e and a'·a = f, for D-related idempotents e, f.

    a is the least element of R_e ∩ L_f and a' its inverse in R_f ∩ L_e
    (Miller–Clifford); the pair is verified both ways as a retraction,
    so (e, a, f) and (f, a', e) are mutually inverse arrows.
    """
    g = green(s)
    t = s.table
    a = _least_meet(g, e, f)
    a_inv = None if a is None else next(
        (y for y in g.R[g.r_of[f]] if g.l_of[y] == g.l_of[e] and t[a][y] == e),
        None)
    if a is None or a_inv is None:
        raise MismatchBug("D-related idempotents admit no inverse pair")
    certify_retraction(t, e, f, a, a_inv)
    certify_retraction(t, f, e, a_inv, a)
    return a, a_inv


def _least_meet(g: GreenData, x: int, y: int) -> int | None:
    """The least element of R_x ∩ L_y, or None if it is empty."""
    return min((z for z in g.R[g.r_of[x]] if g.l_of[z] == g.l_of[y]),
               default=None)


def d_class_factors(s: FiniteSemigroup, u0: int,
                    u: int) -> tuple[int | None, int | None]:
    """(l, r) over S¹ with l·u·r = u₀, for D-related u₀ and u.

    v, the least element of R_{u₀} ∩ L_u, gives r with v·r = u₀ off
    row v and l with l·u = v off column u; None stands for the adjoined
    identity (v = u₀, v = u).  Missing factors raise MismatchBug.
    """
    t = s.table
    v = _least_meet(green(s), u0, u)
    if v is not None and (v == u0 or u0 in t[v]):
        r = None if v == u0 else t[v].index(u0)
        l = None if v == u else next(
            (x for x in range(s.size) if t[x][u] == v), -1)
        if l != -1:
            return l, r
    raise MismatchBug("D-related elements admit no factors through "
                      "their D-class")


# -- abstract group comparison ---------------------------------------


_MAX_GROUP_STEPS = 1 << 22      # edge checks per isomorphism search


def groups_isomorphic(g1: SchutzGroup, g2: SchutzGroup) -> bool:
    """Exact at every order: equal carriers are isomorphic by the
    identity; otherwise the orders and element-order counts must agree,
    and the search (_isomorphism_exists) decides."""
    if g1.carrier == g2.carrier:
        return True
    if g1.order != g2.order or g1.element_orders() != g2.element_orders():
        return False
    return _isomorphism_exists(g1, g2)


def _by_position(g: SchutzGroup) -> list[tuple[int, ...]]:
    """g's elements by their image of position 0, a bijection since g
    acts simply transitively (else MismatchBug): the identity is at 0,
    and a·b ("first a, then b") at at[b][a]."""
    at = {p[0]: p for p in g.carrier}
    if len(at) != g.order:
        raise MismatchBug("group does not act simply transitively")
    return [at[a] for a in range(g.order)]


def _isomorphism_exists(g1: SchutzGroup, g2: SchutzGroup) -> bool:
    """Search an isomorphism g1 -> g2, picking the image of one
    generator of g1 (_generators) at a time among the unused elements
    of g2 of its order, and extending the map breadth-first from the
    identity along every edge x ↦ x·g of the generators picked so far;
    a pick is dropped at the first edge whose image conflicts or
    repeats.  A map that covers g1, respects every edge and is injective
    is an isomorphism, by induction on the length of a product of
    generators (Light's test, FiniteSemigroup._check_associativity).
    More than _MAX_GROUP_STEPS edge checks raise SizeLimit."""
    at1, at2 = _by_position(g1), _by_position(g2)
    gens = [p[0] for p in _generators(g1.carrier)[0]]
    order2 = [_perm_order(q) for q in at2]
    phi = [0] + [-1] * (g1.order - 1)
    hit = [True] + [False] * (g1.order - 1)
    mapped, edges = [0], []     # phi's domain in BFS order; (g, image)
    steps = 0

    def extend() -> bool:
        nonlocal steps
        old = len(mapped)       # these need only the edge picked last
        for k, x in enumerate(mapped):
            for g, img in edges if k >= old else edges[-1:]:
                steps += 1
                if steps > _MAX_GROUP_STEPS:
                    raise SizeLimit("group isomorphism search exceeds "
                                    f"{_MAX_GROUP_STEPS} steps")
                y, fy = at1[g][x], at2[img][phi[x]]
                if phi[y] < 0 and not hit[fy]:
                    phi[y], hit[fy] = fy, True
                    mapped.append(y)
                elif phi[y] != fy:
                    return False
        return True

    def search(i: int) -> bool:
        if i == len(gens):
            return True
        old, k = len(mapped), _perm_order(at1[gens[i]])
        for img in range(g2.order):
            if not hit[img] and order2[img] == k:
                edges.append((gens[i], img))
                if extend() and search(i + 1):
                    return True
                edges.pop()
                for y in mapped[old:]:
                    hit[phi[y]] = False
                    phi[y] = -1
                del mapped[old:]
        return False

    return search(0)
