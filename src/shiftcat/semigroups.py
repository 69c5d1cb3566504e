"""Finite semigroups by Cayley table.

Generation from transformations, syntactic semigroups of block
languages, Green's relations, omega powers, Schützenberger groups,
local units, and conjugation of idempotents.  Elements are table
indices; each carries a witness word over the declared alphabet that
the generating morphism sends to it.
"""

from __future__ import annotations

import itertools

from .errors import MismatchBug, NotIdempotent
from .shifts import (ShiftPresentation, minimal_automaton,
                     right_cayley_graph)
from .words import Alphabet, Record, Word, _set

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
            tg = t[g]
            for x in range(n):
                tx = t[x]
                if t[tx[g]] != tuple(tx[z] for z in tg):
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
                "table": [list(r) for r in self.table],
                "witnesses": {str(x): "".join(self._witness[x].letters)
                              if self.alphabet.is_single_char()
                              else list(self._witness[x].letters)
                              for x in range(self.size)}}

    def to_gap(self) -> str:
        """The Cayley table as a GAP list literal (1-indexed)."""
        rows = [", ".join(str(v + 1) for v in r) for r in self.table]
        return "[ " + ",\n  ".join("[ " + r + " ]" for r in rows) + " ]\n"


def generate(transformations, alphabet: Alphabet) -> FiniteSemigroup:
    """Close a list of total maps (one per letter) under composition.

    Maps act on states left to right: the element of a word u sends q to
    the state reached reading u from q, so products satisfy
    element(u)·element(v) = element(uv).  Elements are numbered by BFS
    discovery (shifts.right_cayley_graph), which makes witnesses
    shortest and lexicographically least.  The table is filled from the
    right Cayley graph by x·(y'a) = (x·y')·a along each element's parent
    (y', a), and is proved associative by FiniteSemigroup.
    """
    maps = [tuple(t) for t in transformations]
    if len(maps) != len(alphabet):
        raise ValueError("one transformation per alphabet letter")
    _, gen_ids, right, parent = right_cayley_graph(maps)
    witness: dict[int, Word] = {}
    for y, (y_prev, i) in enumerate(parent):
        prefix = () if y_prev < 0 else witness[y_prev].letters
        witness[y] = Word(alphabet, prefix + (alphabet.symbols[i],))
    table = []
    for rx in right:
        xy: list[int] = []               # xy[y] = x·y, filled in BFS order
        for y_prev, i in parent:
            xy.append(rx[i] if y_prev < 0 else right[xy[y_prev]][i])
        table.append(xy)
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
    result: u is a block iff its element is in accept.
    """
    maps, initial, sink = minimal_automaton(x)
    s = generate(maps, x.alphabet)
    accept = frozenset(m for m in range(s.size)
                       if _apply_transformation(s, m, maps, initial) != sink)
    return s, accept


def _apply_transformation(s: FiniteSemigroup, m: int, gen_maps, state: int) -> int:
    for a in s.witness(m).letters:
        state = gen_maps[s.alphabet.index(a)][state]
    return state


class GreenData(Record):
    """Green's relations of a finite semigroup.

    Partitions are tuples of frozensets of element ids, numbered by
    least member; *_of maps an element to its class index.  j_below
    holds the pairs (i, j) with J_i ≤_J J_j.
    """

    __slots__ = ("R", "L", "J", "H", "r_of", "l_of", "j_of", "h_of",
                 "j_below", "regular")
    R: tuple[frozenset[int], ...]
    L: tuple[frozenset[int], ...]
    J: tuple[frozenset[int], ...]
    H: tuple[frozenset[int], ...]
    r_of: tuple[int, ...]
    l_of: tuple[int, ...]
    j_of: tuple[int, ...]
    h_of: tuple[int, ...]
    j_below: frozenset[tuple[int, int]]
    regular: tuple[bool, ...]

    def __init__(self, R, L, J, H, r_of, l_of, j_of, h_of, j_below,
                 regular) -> None:
        for name, value in zip(self.__slots__, (R, L, J, H, r_of, l_of,
                                                j_of, h_of, j_below, regular)):
            _set(self, name, value)

    def j_leq(self, i: int, j: int) -> bool:
        return (i, j) in self.j_below


def _sccs(n: int, succ) -> list[int]:
    """Iterative Tarjan; returns component id per node (ids arbitrary)."""
    comp = [-1] * n
    low = [0] * n
    num = [-1] * n
    counter = 0
    ncomp = 0
    stack: list[int] = []
    on_stack = [False] * n
    for root in range(n):
        if num[root] != -1:
            continue
        work = [(root, iter(succ(root)))]
        num[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if num[w] == -1:
                    num[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], num[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == num[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return comp


def _partition_from_comp(comp: list[int]) -> tuple[tuple[frozenset[int], ...],
                                                   tuple[int, ...]]:
    groups: dict[int, set[int]] = {}
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

    right = _sccs(n, lambda x: (t[x][g] for g in gens))
    left = _sccs(n, lambda x: (t[g][x] for g in gens))
    both = _sccs(n, lambda x: itertools.chain((t[x][g] for g in gens),
                                              (t[g][x] for g in gens)))
    R, r_of = _partition_from_comp(right)
    L, l_of = _partition_from_comp(left)
    J, j_of = _partition_from_comp(both)
    h_groups: dict[tuple[int, int], set[int]] = {}
    for x in range(n):
        h_groups.setdefault((r_of[x], l_of[x]), set()).add(x)
    H_classes = sorted(h_groups.values(), key=min)
    h_of = [0] * n
    for i, cl in enumerate(H_classes):
        for x in cl:
            h_of[x] = i

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

    data = GreenData(R, L, J, tuple(frozenset(c) for c in H_classes),
                     r_of, l_of, j_of, tuple(h_of),
                     frozenset(below), regular)
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
    seen = {x: 1}
    cur = x
    k = 1
    while True:
        cur = s.table[cur][x]
        k += 1
        if cur in seen:
            i = seen[cur]
            return i, k - i
        seen[cur] = k


def _power(s: FiniteSemigroup, x: int, e: int) -> int:
    acc = x
    for _ in range(e - 1):
        acc = s.table[acc][x]
    return acc


def omega_power(s: FiniteSemigroup, x: int) -> int:
    """The unique idempotent power of x: x^e for the multiple e of the
    period lying in [index, index + period)."""
    i, p = index_and_period(s, x)
    e = ((i + p - 1) // p) * p
    return _power(s, x, e)


def omega_plus(s: FiniteSemigroup, x: int, q: int) -> int:
    """x^(ω+q): the ω-power times x^(q mod period); q may be negative."""
    _, p = index_and_period(s, x)
    w = omega_power(s, x)
    r = q % p
    acc = w
    for _ in range(r):
        acc = s.table[acc][x]
    return acc


class SchutzGroup(Record):
    """The Schützenberger group of an H-class as permutations of it.

    Permutations are position maps over the sorted H-class; carrier is
    the whole group.
    """

    __slots__ = ("hclass", "carrier", "order")
    hclass: tuple[int, ...]
    carrier: frozenset[tuple[int, ...]]
    order: int

    def __init__(self, hclass: tuple[int, ...],
                 carrier: frozenset[tuple[int, ...]], order: int) -> None:
        _set(self, "hclass", hclass)
        _set(self, "carrier", carrier)
        _set(self, "order", order)

    @staticmethod
    def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        """First p, then q (matching translation by s then by t)."""
        return tuple(q[i] for i in p)

    def elements(self) -> list[tuple[int, ...]]:
        return sorted(self.carrier)

    def element_orders(self) -> list[int]:
        ident = tuple(range(len(self.hclass)))
        out = []
        for p in self.elements():
            k = 1
            cur = p
            while cur != ident:
                cur = SchutzGroup.compose(cur, p)
                k += 1
            out.append(k)
        return sorted(out)

    def is_abelian(self) -> bool:
        els = self.elements()
        return all(SchutzGroup.compose(p, q) == SchutzGroup.compose(q, p)
                   for p in els for q in els)


def schutzenberger(s: FiniteSemigroup, hclass) -> SchutzGroup:
    """Right translations stabilizing the H-class, up to equal action.

    The identity action (translation by the adjoined identity) is always
    included.  The result must be a permutation group acting simply
    transitively on H; anything else is an implementation bug.
    """
    h = tuple(sorted(hclass))
    pos = {x: i for i, x in enumerate(h)}
    hset = set(h)
    perms: set[tuple[int, ...]] = {tuple(range(len(h)))}
    for y in range(s.size):
        imgs = [s.table[x][y] for x in h]
        if all(v in hset for v in imgs):
            perms.add(tuple(pos[v] for v in imgs))
    for p in perms:
        if len(set(p)) != len(h):
            raise MismatchBug("stabilizing translation is not a permutation")
    for p in perms:
        for q in perms:
            if SchutzGroup.compose(p, q) not in perms:
                raise MismatchBug("translation actions are not closed")
    if len(perms) != len(h):
        raise MismatchBug("Schützenberger group is not simply transitive")
    return SchutzGroup(h, frozenset(perms), len(perms))


def local_units(s: FiniteSemigroup, k) -> frozenset[int]:
    """{x in K : x = e·x·f for some idempotents e, f}.

    That holds exactly when e·x = x for some idempotent e and x·f = x
    for some idempotent f, which costs O(n·|E|).  The full local-unit
    set must be a union of J-classes; that is checked before slicing
    with K.
    """
    e_list = s.idempotents()
    t = s.table
    lu_all = {x for x in range(s.size)
              if any(t[e][x] == x for e in e_list)
              and any(t[x][f] == x for f in e_list)}
    g = green(s)
    for cl in g.J:
        inside = cl & lu_all
        if inside and inside != cl:
            raise MismatchBug("local units are not a union of J-classes")
    return frozenset(lu_all & set(k))


class NotJEquivalent(Record):
    """Returned when two idempotents lie in different J-classes."""

    __slots__ = ()


def conjugation_witness(s: FiniteSemigroup, e: int, f: int):
    """x, y with e = xy and f = yx, for J-equivalent idempotents.

    Such a pair always exists in a finite semigroup, so exhaustive
    search failing after a positive J-check is a bug.
    """
    if not s.is_idempotent(e):
        raise NotIdempotent(f"element {e} is not idempotent")
    if not s.is_idempotent(f):
        raise NotIdempotent(f"element {f} is not idempotent")
    g = green(s)
    if g.j_of[e] != g.j_of[f]:
        return NotJEquivalent()
    if e == f:
        return e, f
    t = s.table
    for x in range(s.size):
        for y in range(s.size):
            if t[x][y] == e and t[y][x] == f:
                return x, y
    raise MismatchBug("J-equivalent idempotents admit no conjugating pair")


# -- abstract group comparison ---------------------------------------


def _perm_group_table(g: SchutzGroup):
    els = g.elements()
    idx = {p: i for i, p in enumerate(els)}
    table = [[idx[SchutzGroup.compose(p, q)] for q in els] for p in els]
    return els, table


def _table_element_orders(table) -> list[int]:
    n = len(table)
    ident = next(i for i in range(n)
                 if all(table[i][j] == j for j in range(n)))
    orders = []
    for x in range(n):
        k = 1
        cur = x
        while cur != ident:
            cur = table[cur][x]
            k += 1
        orders.append(k)
    return orders


def _generating_set(table) -> list[int]:
    n = len(table)
    ident = next(i for i in range(n)
                 if all(table[i][j] == j for j in range(n)))
    gens: list[int] = []
    closed = {ident}
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


_GROUP_BRUTE_LIMIT = 64


def groups_isomorphic(g1: SchutzGroup, g2: SchutzGroup) -> str:
    """'isomorphic', 'not-isomorphic', or 'invariant-equal'.

    Brute-force isomorphism search up to order 64; above that only the
    invariant vector (order, abelianness, element-order multiset) is
    compared and a match is reported as the weaker verdict.
    """
    if g1.order != g2.order:
        return "not-isomorphic"
    if g1.order > _GROUP_BRUTE_LIMIT:
        inv1 = (g1.order, g1.is_abelian(), g1.element_orders())
        inv2 = (g2.order, g2.is_abelian(), g2.element_orders())
        return "invariant-equal" if inv1 == inv2 else "not-isomorphic"
    _, t1 = _perm_group_table(g1)
    _, t2 = _perm_group_table(g2)
    return "isomorphic" if _tables_isomorphic(t1, t2) else "not-isomorphic"


def _tables_isomorphic(t1, t2) -> bool:
    n = len(t1)
    o1 = _table_element_orders(t1)
    o2 = _table_element_orders(t2)
    if sorted(o1) != sorted(o2):
        return False
    gens = _generating_set(t1)
    if not gens:
        return True
    ident1 = next(i for i in range(n) if all(t1[i][j] == j for j in range(n)))
    ident2 = next(i for i in range(n) if all(t2[i][j] == j for j in range(n)))
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
