"""Subshift presentations and the queries that live on them.

A presentation is either an SFT (finite list of forbidden words) or a
sofic labeled graph.  All queries run on the trimmed essential graph:
every vertex lies on a bi-infinite path, so finite path labels are
exactly the blocks of the subshift.
"""

from __future__ import annotations

import json
import math

from .errors import (EmptyShift, MismatchBug, NonIntegralCoefficient,
                     SizeLimit)
from .words import (Alphabet, Record, Word, _set, factors_up_to,
                    least_rotation, primitive_root)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Hashable, Iterable

    Edge = tuple[Hashable, str, Hashable]


class LabeledGraph:
    """A finite directed graph with alphabet-labeled edges.

    Vertices are arbitrary hashables; parallel edges and loops allowed.
    Immutable by convention; adjacency maps are precomputed.
    """

    def __init__(self, vertices: Iterable[Hashable], edges: Iterable[Edge]):
        self.vertices: tuple[Hashable, ...] = tuple(vertices)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertices")
        self.edges: tuple[Edge, ...] = tuple(edges)
        for s, _, d in self.edges:
            if s not in vset or d not in vset:
                raise ValueError("edge endpoint not a vertex")
        self.out: dict[Hashable, list[Edge]] = {v: [] for v in self.vertices}
        # (src, label) -> destinations, the step map used by every word walk
        self.step: dict[tuple[Hashable, str], list[Hashable]] = {}
        for e in self.edges:
            s, a, d = e
            self.out[s].append(e)
            self.step.setdefault((s, a), []).append(d)

    def walk(self, starts: set[Hashable], letters: Iterable[str]) -> set[Hashable]:
        """Vertices reachable from `starts` along a path labeled by `letters`."""
        cur = set(starts)
        for a in letters:
            nxt: set[Hashable] = set()
            for v in cur:
                nxt.update(self.step.get((v, a), ()))
            if not nxt:
                return nxt
            cur = nxt
        return cur


def trim_graph(g: LabeledGraph) -> LabeledGraph:
    """Remove everything not on a bi-infinite path.

    Iterates deletion of vertices with no incoming or no outgoing edge.
    At the fixpoint every vertex has a predecessor and a successor, so in
    a finite graph it reaches a cycle in both directions, i.e. lies on a
    bi-infinite path; vertices on bi-infinite paths are never deleted.
    """
    alive = set(g.vertices)
    edges = list(g.edges)
    changed = True
    while changed:
        changed = False
        edges = [e for e in edges if e[0] in alive and e[2] in alive]
        has_out = {e[0] for e in edges}
        has_in = {e[2] for e in edges}
        for v in list(alive):
            if v not in has_out or v not in has_in:
                alive.discard(v)
                changed = True
    if not alive:
        raise EmptyShift("no vertex lies on a bi-infinite path")
    keep = [v for v in g.vertices if v in alive]
    kept_edges = [e for e in g.edges if e[0] in alive and e[2] in alive]
    return LabeledGraph(keep, kept_edges)


def de_bruijn_graph(alphabet: Alphabet, forbidden: Iterable[Word]) -> LabeledGraph:
    """Memory-m vertex graph of the SFT avoiding the given words (untrimmed).

    m = max forbidden length - 1, at least 1.  Vertices are the allowed
    m-words; u steps to (u.c)[1:] under letter c when u.c has no forbidden
    factor.
    """
    forb = [tuple(w.letters) for w in forbidden]
    if any(len(f) == 0 for f in forb):
        raise ValueError("forbidden words must be nonempty")
    m = max([len(f) - 1 for f in forb] + [1])

    def clean(seq: tuple[str, ...]) -> bool:
        for f in forb:
            k = len(f)
            if any(seq[i:i + k] == f for i in range(len(seq) - k + 1)):
                return False
        return True

    verts: list[tuple[str, ...]] = []
    stack: list[tuple[str, ...]] = [()]
    while stack:
        u = stack.pop()
        if len(u) == m:
            verts.append(u)
            continue
        for c in alphabet.symbols:
            if clean(u + (c,)):
                stack.append(u + (c,))
    verts.sort()
    edges: list[Edge] = []
    vset = set(verts)
    for u in verts:
        for c in alphabet.symbols:
            w = u + (c,)
            if clean(w) and w[1:] in vset:
                edges.append((u, c, w[1:]))
    return LabeledGraph(verts, edges)


class PeriodicPoint(Record):
    """The point shifted `shift_phase` steps into representative^∞."""

    __slots__ = ("representative", "shift_phase")
    representative: Word
    shift_phase: int

    def __init__(self, representative: Word, shift_phase: int) -> None:
        n = len(representative)
        if n == 0:
            raise ValueError("representative must be nonempty")
        root, e = primitive_root(representative)
        if e != 1:
            raise ValueError("representative must be primitive")
        if not 0 <= shift_phase < n:
            raise ValueError("shift_phase out of range")
        _set(self, "representative", representative)
        _set(self, "shift_phase", shift_phase)

    @staticmethod
    def from_word(w: Word, phase: int = 0) -> "PeriodicPoint":
        root, _ = primitive_root(w)
        return PeriodicPoint(root, phase % len(root))

    def normalized(self) -> "PeriodicPoint":
        """Rotate the representative to its least conjugate, keeping the point."""
        rep = self.representative
        best = least_rotation(rep)
        for r in range(len(rep)):
            if rep.letters[r:] + rep.letters[:r] == best.letters:
                return PeriodicPoint(best, (self.shift_phase - r) % len(rep))
        raise AssertionError("least rotation is always a rotation")


class ShiftPresentation:
    """An SFT or sofic presentation of a subshift."""

    def __init__(self, alphabet: Alphabet, kind: str,
                 forbidden: Iterable[Word] = (),
                 vertices: Iterable[Hashable] = (),
                 edges: Iterable[Edge] = ()):
        if kind not in ("sft", "sofic"):
            raise ValueError("kind must be 'sft' or 'sofic'")
        self.alphabet = alphabet
        self.kind = kind
        self.forbidden: tuple[Word, ...] = tuple(forbidden)
        for w in self.forbidden:
            if len(w) == 0:
                raise ValueError("forbidden words must be nonempty")
            if w.alphabet != alphabet:
                raise ValueError("forbidden word over wrong alphabet")
        if kind == "sofic":
            self._raw = LabeledGraph(vertices, edges)
            for _, a, _ in self._raw.edges:
                if a not in alphabet:
                    raise ValueError(f"edge label {a!r} not in alphabet")
        else:
            self._raw = None
        self._graph: LabeledGraph | None = None
        self._blocks: dict[int, set[Word]] = {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def sft(alphabet: Alphabet, forbidden: Iterable[Word | str]) -> "ShiftPresentation":
        words = [w if isinstance(w, Word) else Word.from_str(alphabet, w)
                 for w in forbidden]
        return ShiftPresentation(alphabet, "sft", forbidden=words)

    @staticmethod
    def sofic(alphabet: Alphabet, vertices: Iterable[Hashable],
              edges: Iterable[Edge]) -> "ShiftPresentation":
        return ShiftPresentation(alphabet, "sofic", vertices=vertices, edges=edges)

    @staticmethod
    def full_shift(alphabet: Alphabet) -> "ShiftPresentation":
        return ShiftPresentation(alphabet, "sft")

    @staticmethod
    def orbit(v: Word) -> "ShiftPresentation":
        """The finite orbit shift of v^∞, presented by a labeled cycle."""
        n = len(v)
        if n == 0:
            raise ValueError("orbit of the empty word is undefined")
        verts = [str(i) for i in range(n)]
        edges = [(str(i), v.letters[i], str((i + 1) % n)) for i in range(n)]
        return ShiftPresentation.sofic(v.alphabet, verts, edges)

    # -- essential graph ----------------------------------------------

    def graph(self) -> LabeledGraph:
        """The trimmed essential graph; raises EmptyShift if nothing survives."""
        if self._graph is None:
            raw = self._raw if self._raw is not None else \
                de_bruijn_graph(self.alphabet, self.forbidden)
            self._graph = trim_graph(raw)
        return self._graph

    def word(self, letters: Iterable[str] | str) -> Word:
        if isinstance(letters, str):
            return Word.from_str(self.alphabet, letters)
        return Word(self.alphabet, tuple(letters))

    # -- serialization ------------------------------------------------

    @staticmethod
    def from_json(data: dict | str) -> "ShiftPresentation":
        """Read the JSON form; malformed input raises a one-line
        ValueError."""
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ValueError("a shift presentation is a JSON object, not "
                             f"{type(data).__name__}")
        try:
            alphabet = Alphabet(tuple(data["alphabet"]))
            kind = data["kind"]
            if kind == "sft":
                forb = [w if isinstance(w, Word) else
                        (Word.from_str(alphabet, w) if isinstance(w, str)
                         else Word(alphabet, tuple(w)))
                        for w in data.get("forbidden", [])]
                return ShiftPresentation(alphabet, "sft", forbidden=forb)
            if kind == "sofic":
                edges = [tuple(e) for e in data["edges"]]
                if any(len(e) != 3 for e in edges):
                    raise ValueError("each edge of a shift presentation is "
                                     "[source, label, target]")
                return ShiftPresentation(alphabet, "sofic",
                                         vertices=data["vertices"],
                                         edges=edges)
        except KeyError as e:
            raise ValueError(f"shift presentation has no {e.args[0]!r} "
                             "field") from None
        except TypeError as e:
            raise ValueError(f"malformed shift presentation: {e}") from None
        raise ValueError(f"unknown kind {kind!r}")

    def to_json(self) -> dict:
        if self.kind == "sft":
            forb = ["".join(w.letters) if self.alphabet.is_single_char()
                    else list(w.letters) for w in self.forbidden]
            return {"alphabet": list(self.alphabet.symbols), "kind": "sft",
                    "forbidden": forb}
        g = self._raw
        return {"alphabet": list(self.alphabet.symbols), "kind": "sofic",
                "vertices": [str(v) for v in g.vertices],
                "edges": [[str(s), a, str(d)] for s, a, d in g.edges]}

    def to_dot(self) -> str:
        g = self.graph()
        names = {v: _vertex_name(v) for v in g.vertices}
        lines = ["digraph shift {"]
        for v in sorted(g.vertices, key=lambda v: names[v]):
            lines.append(f'  "{names[v]}";')
        for s, a, d in sorted(g.edges, key=lambda e: (names[e[0]], e[1], names[e[2]])):
            lines.append(f'  "{names[s]}" -> "{names[d]}" [label="{a}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _vertex_name(v: Hashable) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return "|".join(_vertex_name(x) for x in v)
    return str(v)


def trim(x: ShiftPresentation) -> ShiftPresentation:
    """The essential sofic presentation of x (SFTs pass through their
    memory graph).  Raises EmptyShift when the presented subshift is empty."""
    g = x.graph()
    names = {v: _vertex_name(v) for v in g.vertices}
    if len(set(names.values())) != len(names):
        names = {v: str(i) for i, v in enumerate(g.vertices)}
    out = ShiftPresentation.sofic(
        x.alphabet,
        [names[v] for v in g.vertices],
        [(names[s], a, names[d]) for s, a, d in g.edges])
    return out


# The most blocks `blocks` will hold, about 90 MiB of them.  The test
# suite and the benchmark reach at most 8190 (full-2 up to length 12).
_MAX_BLOCKS = 200_000


def blocks(x: ShiftPresentation, n: int) -> set[Word]:
    """All blocks of x of length between 1 and n.

    Raises SizeLimit as soon as more than _MAX_BLOCKS of them would be
    held.
    """
    if n < 1:
        raise ValueError("n must be positive")
    have = max(x._blocks) if x._blocks else 0
    if have >= n:
        return {w for m in range(1, n + 1) for w in x._blocks[m]}
    g = x.graph()
    if have == 0:
        frontier: dict[tuple[str, ...], set[Hashable]] = {(): set(g.vertices)}
        start = 1
    else:
        frontier = {w.letters: g.walk(set(g.vertices), w.letters)
                    for w in x._blocks[have]}
        start = have + 1
    held = sum(len(x._blocks[m]) for m in range(1, start))
    for m in range(start, n + 1):
        nxt: dict[tuple[str, ...], set[Hashable]] = {}
        for seq, ends in frontier.items():
            for v in ends:
                for (_, a, d) in g.out[v]:
                    nxt.setdefault(seq + (a,), set()).add(d)
            if held + len(nxt) > _MAX_BLOCKS:
                raise SizeLimit(f"more than {_MAX_BLOCKS} blocks of length "
                                f"at most {n}")
        x._blocks[m] = {Word(x.alphabet, seq) for seq in nxt}
        held += len(nxt)
        frontier = nxt
    return {w for m in range(1, n + 1) for w in x._blocks[m]}


def is_block(x: ShiftPresentation, w: Word) -> bool:
    """True iff w labels a path in the trimmed presentation."""
    if len(w) == 0:
        raise ValueError("blocks are nonempty")
    g = x.graph()
    return bool(g.walk(set(g.vertices), w.letters))


def subset_dfa(g: LabeledGraph, alphabet: Alphabet):
    """Determinize the path-label NFA whose start set is all vertices.

    Returns (states, trans) with states[0] = full vertex set, states as
    frozensets in BFS discovery order, the empty set as explicit sink,
    and trans[(i, a)] = j.  A word is a block iff it walks 0 to a
    nonempty state.
    """
    initial = frozenset(g.vertices)
    states: list[frozenset] = [initial]
    index = {initial: 0}
    trans: dict[tuple[int, str], int] = {}
    i = 0
    while i < len(states):
        cur = states[i]
        for a in alphabet.symbols:
            nxt = frozenset(g.walk(set(cur), (a,)))
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            trans[(i, a)] = index[nxt]
        i += 1
    return states, trans


def minimal_automaton(x: ShiftPresentation):
    """The minimal automaton of the block language of x.

    The subset DFA of the trimmed presentation is Moore-minimized.
    Returns (maps, initial, sink): maps[i][s] is the state reached from
    s by letter i of the alphabet, and sink is the class of the empty
    vertex set, or None when every word is a block.  A word is a block
    iff it walks initial to a state other than sink.  States are
    numbered by their first subset-DFA state, so initial is 0.
    """
    states, trans = subset_dfa(x.graph(), x.alphabet)
    syms = x.alphabet.symbols
    part = [0 if st else 1 for st in states]
    while True:
        sigs = [(part[i], tuple(part[trans[(i, a)]] for a in syms))
                for i in range(len(states))]
        renum: dict = {}
        new = [renum.setdefault(s, len(renum)) for s in sigs]
        if new == part:
            break
        part = new
    maps = []
    for a in syms:
        img = [0] * len(renum)
        for i in range(len(states)):
            img[part[i]] = part[trans[(i, a)]]
        maps.append(tuple(img))
    sink = next((part[i] for i, st in enumerate(states) if not st), None)
    return maps, part[0], sink


_MAX_SIZE = 20000


def right_cayley_graph(maps):
    """Close total maps (one per letter) under composition, by BFS.

    Maps act on states left to right, so the element of a word u sends
    q to the state reached reading u from q.  Elements are numbered by
    BFS discovery: the distinct generators in letter order, then each
    new x·a as element x's row is built.  Returns (elems, gens, right,
    parent): elems[x] is the map of x, gens[i] the element of letter i,
    right[x][i] = x·(letter i), and parent[y] = (y', i) with y = y'·a_i,
    or (-1, i) when y is the generator of letter i.  A closure of more
    than _MAX_SIZE elements raises SizeLimit.
    """
    deg = len(maps[0])
    if any(len(t) != deg for t in maps):
        raise ValueError("transformations must share one state set")
    index: dict[tuple[int, ...], int] = {}
    elems: list[tuple[int, ...]] = []
    parent: list[tuple[int, int]] = []
    gens: list[int] = []
    for i, t in enumerate(maps):
        if t not in index:
            index[t] = len(elems)
            elems.append(t)
            parent.append((-1, i))
        gens.append(index[t])
    right: list[list[int]] = []
    x = 0
    while x < len(elems):
        tx = elems[x]
        row = []
        for i, g in enumerate(maps):
            comp = tuple(g[tx[q]] for q in range(deg))
            if comp not in index:
                if len(elems) >= _MAX_SIZE:
                    raise SizeLimit(f"closure exceeds {_MAX_SIZE} elements")
                index[comp] = len(elems)
                elems.append(comp)
                parent.append((x, i))
            row.append(index[comp])
        right.append(row)
        x += 1
    return elems, gens, right, parent


def is_irreducible(x: ShiftPresentation) -> bool:
    """Whether x admits a strongly connected presentation.

    Decided by the word criterion (for all blocks u, v some u·w·v is a
    block), made finite on the subset automaton: reading u from the full
    vertex set lands in a state T, and some u·w·v is a block iff v is
    readable from the union W of all subsets reachable from T.  Since
    readable-from-W languages are monotone in W, the criterion reduces
    to: every such union W reads the whole language, checked by a
    product walk hunting for a word readable from all vertices but not
    from W.  A direct witness search on short blocks cross-checks.
    """
    g = x.graph()
    states, trans = subset_dfa(g, x.alphabet)
    syms = x.alphabet.symbols

    def reads_everything(wset: frozenset) -> bool:
        # hunt for a word readable from all vertices but not from wset
        start = (frozenset(g.vertices), wset)
        seen = {start}
        stack = [start]
        while stack:
            full, part = stack.pop()
            for a in syms:
                nf = frozenset(g.walk(set(full), (a,)))
                np = frozenset(g.walk(set(part), (a,)))
                if not nf:
                    continue
                if not np:
                    return False
                if (nf, np) not in seen:
                    seen.add((nf, np))
                    stack.append((nf, np))
        return True

    verdict = True
    for i, st in enumerate(states):
        if not st or i == 0:
            continue
        union: set[Hashable] = set()
        for j in _reach(states, trans, syms, i):
            union.update(states[j])
        if not reads_everything(frozenset(union)):
            verdict = False
            break

    _crosscheck_irreducible(x, verdict, states, trans)
    return verdict


def _reach(states: list[frozenset], trans: dict[tuple[int, str], int],
           syms, i: int) -> set[int]:
    """Subset-DFA states reachable from state i through nonempty ones."""
    seen = {i}
    stack = [i]
    while stack:
        j = stack.pop()
        for a in syms:
            k = trans[(j, a)]
            if states[k] and k not in seen:
                seen.add(k)
                stack.append(k)
    return seen


def _crosscheck_irreducible(x: ShiftPresentation, verdict: bool,
                            states: list[frozenset],
                            trans: dict[tuple[int, str], int]) -> None:
    """Witness search for u·w·v on short blocks; disagreement is a bug.

    Only one direction is conclusive: if the verdict is irreducible,
    every short pair must have a witness.  A reducible shift may still
    connect all its short blocks.  states and trans are the subset DFA
    of x's graph.
    """
    g = x.graph()
    index = {s: i for i, s in enumerate(states)}
    short = sorted(blocks(x, min(4, len(g.vertices) + 2)), key=Word.lex_key)
    for u in short:
        t0 = index[frozenset(g.walk(set(g.vertices), u.letters))]
        seen = _reach(states, trans, x.alphabet.symbols, t0)
        for v in short:
            found = any(g.walk(set(states[j]), v.letters) for j in seen)
            if verdict and not found:
                raise MismatchBug(
                    f"irreducible verdict but no w with {u}·w·{v} a block")


def is_periodic_point(x: ShiftPresentation, w: Word) -> bool:
    """True iff w^∞ lies in x.

    Tests whether w^(V+1) labels a path, V = vertex count: the V+1
    vertices sitting at the copy boundaries of such a path must repeat,
    giving a cycle labeled by a power of w, hence w^∞ in x.  Conversely
    every power of w is a block when w^∞ is in x.
    """
    if len(w) == 0:
        raise ValueError("w must be nonempty")
    g = x.graph()
    return is_block(x, w ** (len(g.vertices) + 1))


def periodic_counts(x: ShiftPresentation, n_max: int) -> tuple[list[int], list[int]]:
    """p(n) = number of points of period dividing n; q(n) = number with
    least period exactly n (equivalently, primitive words w of length n
    with w^∞ in x).

    Counted on the right Cayley graph of the transition semigroup T of
    the minimal automaton, with m states.  w^∞ lies in x iff every power
    of w is a block, iff reading w^(m+1) from the initial state avoids
    the sink (the states at the copy boundaries repeat within m + 1
    steps); that depends only on the element t of w.  The number N_n(t)
    of length-n words with element t follows N_{n+1}(t·a) += N_n(t), so
    p(n) is the sum of N_n(t) over those t, in O(|T|·|A|·(m + n)) steps.
    No block is enumerated.  q comes from p by Möbius inversion.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    maps, initial, sink = minimal_automaton(x)
    elems, gens, right, _ = right_cayley_graph(maps)
    periodic = []
    for t in elems:
        s = initial
        for _ in range(len(maps[0]) + 1):
            s = t[s]
        periodic.append(s != sink)
    count = [0] * len(elems)             # count[t] = N_n(t)
    for g in gens:
        count[g] += 1
    p: list[int] = []
    for n in range(1, n_max + 1):
        if n > 1:
            nxt = [0] * len(elems)
            for t, c in enumerate(count):
                if c:
                    for y in right[t]:
                        nxt[y] += c
            count = nxt
        p.append(sum(c for c, ok in zip(count, periodic) if ok))
    return p, _primitive_counts(p)


def _primitive_counts(p: list[int]) -> list[int]:
    """q(n) = Σ_{d|n} μ(n/d)·p(d), the points of least period n.

    They fall into shift orbits of size n, so q(n) ≥ 0 and n | q(n);
    anything else means p is wrong and raises MismatchBug.
    """
    q: list[int] = []
    for n in range(1, len(p) + 1):
        total = sum(_mobius(n // d) * p[d - 1]
                    for d in range(1, n + 1) if n % d == 0)
        if total < 0 or total % n:
            raise MismatchBug(f"Möbius inversion gives q({n}) = {total}, "
                              f"not a count of orbits of size {n}")
        q.append(total)
    return q


def _mobius(n: int) -> int:
    m = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            m = -m
        d += 1
    if n > 1:
        m = -m
    return m


class ZetaSeries(Record):
    """Truncated zeta series with its periodic-count companions."""

    __slots__ = ("order", "coefficients", "p", "q")
    order: int
    coefficients: tuple[int, ...]
    p: tuple[int, ...]
    q: tuple[int, ...]

    def __init__(self, order: int, coefficients: tuple[int, ...],
                 p: tuple[int, ...], q: tuple[int, ...]) -> None:
        _set(self, "order", order)
        _set(self, "coefficients", coefficients)
        _set(self, "p", p)
        _set(self, "q", q)

    def __str__(self) -> str:
        terms = ["1"]
        for n in range(1, self.order + 1):
            c = self.coefficients[n]
            if c:
                terms.append(f"{c}t^{n}" if n > 1 else f"{c}t")
        return " + ".join(terms)


def zeta(x: ShiftPresentation, order: int) -> ZetaSeries:
    """exp(Σ p(n)/n · tⁿ) truncated at the given order, in exact integers.

    Uses g₀ = 1, n·gₙ = Σ_{k≤n} p(k)·g_{n−k} (differentiate g = exp f).
    Coefficients must come out nonnegative integers; anything else means
    the periodic counts are wrong and raises NonIntegralCoefficient.
    """
    if order < 1:
        raise ValueError("order must be positive")
    p, q = periodic_counts(x, order)
    g = [1]
    for n in range(1, order + 1):
        acc = sum(p[k - 1] * g[n - k] for k in range(1, n + 1))
        if acc < 0 or acc % n:
            d = math.gcd(acc, n)
            value = f"{acc // d}" if d == n else f"{acc // d}/{n // d}"
            raise NonIntegralCoefficient(f"coefficient of t^{n} is {value}")
        g.append(acc // n)
    return ZetaSeries(order, tuple(g), tuple(p), tuple(q))


def mirage_membership_k(x: ShiftPresentation, w: Word, k: int) -> bool:
    """True iff every factor of w of length ≤ k is a block of x."""
    if len(w) == 0:
        raise ValueError("w must be nonempty")
    if k < 1:
        raise ValueError("k must be positive")
    kk = min(k, len(w))
    allowed = blocks(x, kk)
    return all(f in allowed for f in factors_up_to(w, kk))
