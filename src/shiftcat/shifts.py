"""Subshift presentations and the queries that live on them.

A presentation is either an SFT (finite list of forbidden words) or a
sofic labeled graph.  All queries run on the trimmed essential graph:
every vertex lies on a bi-infinite path, so finite path labels are
exactly the blocks of the subshift.
"""

from __future__ import annotations

import math

from .errors import (EmptyShift, MismatchBug, NonIntegralCoefficient,
                     SizeLimit)
from .words import Alphabet, Record, Word, word_from_json, word_to_json

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Hashable, Iterable, Iterator

    Edge = tuple[Hashable, str, Hashable]


class LabeledGraph:
    """A finite directed graph with alphabet-labeled edges.

    Vertices are arbitrary hashables; parallel edges and loops allowed.
    Immutable by convention; out[v] lists the edges leaving v, in order.
    """

    def __init__(self, vertices: Iterable[Hashable], edges: Iterable[Edge]):
        self.vertices: tuple[Hashable, ...] = tuple(vertices)
        self.out: dict[Hashable, list[Edge]] = {v: [] for v in self.vertices}
        if len(self.out) != len(self.vertices):
            raise ValueError("duplicate vertices")
        self.edges: tuple[Edge, ...] = tuple(edges)
        for e in self.edges:
            if e[0] not in self.out or e[2] not in self.out:
                raise ValueError("edge endpoint not a vertex")
            self.out[e[0]].append(e)


def trim_graph(g: LabeledGraph) -> LabeledGraph:
    """Remove everything not on a bi-infinite path.

    Deletes vertices with no incoming or no outgoing edge from a
    worklist, counting each one's edges off its neighbours' degrees, so
    each edge is read a bounded number of times.  The survivors each
    have a predecessor and a successor, so in a finite graph they reach
    a cycle in both directions, i.e. lie on a bi-infinite path; vertices
    on bi-infinite paths are never deleted.
    """
    indeg = dict.fromkeys(g.vertices, 0)
    into: dict[Hashable, list[Hashable]] = {v: [] for v in g.vertices}
    for s, _, d in g.edges:
        indeg[d] += 1
        into[d].append(s)
    outdeg = {v: len(es) for v, es in g.out.items()}
    dead = [v for v in g.vertices if not indeg[v] or not outdeg[v]]
    gone = set(dead)
    while dead:
        v = dead.pop()
        for deg, ends in ((indeg, [d for _, _, d in g.out[v]]),
                          (outdeg, into[v])):
            for u in ends:
                deg[u] -= 1
                if not deg[u] and u not in gone:
                    gone.add(u)
                    dead.append(u)
    if len(gone) == len(g.vertices):
        raise EmptyShift("no vertex lies on a bi-infinite path")
    return LabeledGraph([v for v in g.vertices if v not in gone],
                        [e for e in g.edges
                         if e[0] not in gone and e[2] not in gone])


def de_bruijn_graph(alphabet: Alphabet, forbidden: Iterable[Word]) -> LabeledGraph:
    """Memory-m vertex graph of the SFT avoiding the given words (untrimmed).

    m = max forbidden length - 1, at least 1.  Vertices are the allowed
    m-words; u steps to (u.c)[1:] under letter c when u.c has no forbidden
    factor.  Every factor of u.c that u lacks is a suffix, so an allowed
    u is extended by c when no forbidden word ends u.c; then (u.c)[1:]
    is an allowed m-word, hence a vertex.
    """
    forb = {w.letters for w in forbidden}
    if () in forb:
        raise ValueError("forbidden words must be nonempty")
    lengths = {len(f) for f in forb}
    m = max(lengths | {2}) - 1

    def allowed(u: tuple[str, ...], c: str) -> bool:
        w = u + (c,)
        return not any(w[-k:] in forb for k in lengths)

    verts: list[tuple[str, ...]] = []
    stack: list[tuple[str, ...]] = [()]
    while stack:
        u = stack.pop()
        if len(u) == m:
            verts.append(u)
            if len(verts) > _MAX_SIZE:
                raise SizeLimit(f"de Bruijn graph over {_MAX_SIZE} vertices")
            continue
        stack.extend(u + (c,) for c in alphabet.symbols if allowed(u, c))
    verts.sort()
    return LabeledGraph(verts, [(u, c, u[1:] + (c,)) for u in verts
                                for c in alphabet.symbols if allowed(u, c)])


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
        # the blocks of each length m, in alphabet order, as three
        # parallel arrays: the index of the block's length-(m-1) prefix
        # in level m - 1, its last letter's index in the alphabet, and
        # the state of _subsets its path ends in
        self._blocks: dict[int, tuple] = {}
        self._subsets: SubsetAutomaton | None = None

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

    def subset_automaton(self) -> SubsetAutomaton:
        """The subset automaton of the trimmed graph, built once; every
        block query reads its rows."""
        if self._subsets is None:
            self._subsets = SubsetAutomaton(self.graph(), self.alphabet)
        return self._subsets

    def word(self, letters: Iterable[str] | str) -> Word:
        if isinstance(letters, str):
            return Word.from_str(self.alphabet, letters)
        return Word(self.alphabet, tuple(letters))

    # -- serialization ------------------------------------------------

    @staticmethod
    def from_json(data: dict) -> "ShiftPresentation":
        """Read the JSON form; malformed input raises a one-line
        ValueError."""
        if not isinstance(data, dict):
            raise ValueError("a shift presentation is a JSON object, not "
                             f"{type(data).__name__}")
        try:
            alphabet = Alphabet(tuple(_array(data["alphabet"], "alphabet")))
            kind = data["kind"]
            if kind == "sft":
                forb = [word_from_json(alphabet, w)
                        for w in _array(data.get("forbidden", []),
                                        "forbidden")]
                return ShiftPresentation(alphabet, "sft", forbidden=forb)
            if kind == "sofic":
                edges = _array(data["edges"], "edges")
                if any(not isinstance(e, list) or len(e) != 3 for e in edges):
                    raise ValueError("each edge of a shift presentation is "
                                     "[source, label, target]")
                return ShiftPresentation(
                    alphabet, "sofic",
                    vertices=_array(data["vertices"], "vertices"),
                    edges=[tuple(e) for e in edges])
        except KeyError as e:
            raise ValueError(f"shift presentation has no {e.args[0]!r} "
                             "field") from None
        except TypeError as e:
            raise ValueError(f"malformed shift presentation: {e}") from None
        raise ValueError(f"unknown kind {kind!r}")

    def to_json(self) -> dict:
        if self.kind == "sft":
            return {"alphabet": list(self.alphabet.symbols), "kind": "sft",
                    "forbidden": [word_to_json(w) for w in self.forbidden]}
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


def _array(value, field: str) -> list:
    # a string in place of an array would be read symbol by symbol
    if not isinstance(value, list):
        raise ValueError(f"the {field!r} field must be a JSON array")
    return value


def _vertex_name(v: Hashable) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return "|".join(_vertex_name(x) for x in v)
    return str(v)


# The most blocks `blocks` will hold.  The store keeps 12 bytes a block;
# at the limit, spelling them for `shiftcat blocks` peaks at about 40 MiB
# and ordered_blocks' list of Words holds about 50 MiB.  The test suite
# reaches 32766 (full-2 up to length 14), the benchmark 8190 (up to 12).
_MAX_BLOCKS = 200_000


def blocks(x: ShiftPresentation, n: int) -> set[Word]:
    """All blocks of x of length between 1 and n.

    Raises SizeLimit, before enumerating any, when there are more than
    _MAX_BLOCKS of them.
    """
    return set(ordered_blocks(x, n))


def ordered_blocks(x: ShiftPresentation, n: int) -> list[Word]:
    """The blocks of x of length between 1 and n, by length and then in
    alphabet order."""
    return [Word(x.alphabet, letters) for letters in
            spell_blocks(x, n, [(a,) for a in x.alphabet.symbols], ())]


def spell_blocks(x: ShiftPresentation, n: int, images, unit) -> Iterator:
    """The blocks of x of length between 1 and n, in the order of
    ordered_blocks, each spelled as unit + images[i] + images[j] + ...
    over the alphabet indices i, j, ... of its letters: with the symbols
    and "" they are the blocks' strings, with one-letter tuples and ()
    their letters.  The store is filled, or SizeLimit raised, by the
    call; each level is spelled from the one below it when the first of
    its blocks is asked for, so a block costs one concatenation."""
    if n < 1:
        raise ValueError("n must be positive")
    _fill_blocks(x, n)
    return _spell(x._blocks, n, images, unit)


def _spell(store, n: int, images, unit) -> Iterator:
    level = [unit]
    for m in range(1, n + 1):
        prefix, letter, _ = store[m]
        level = [level[p] + images[k] for p, k in zip(prefix, letter)]
        yield from level


def _fill_blocks(x: ShiftPresentation, n: int) -> None:
    # extend the store x._blocks to every length up to n; a level in
    # alphabet order extended letter by letter in alphabet order stays so
    have = max(x._blocks) if x._blocks else 0
    if have >= n:
        return
    sub = x.subset_automaton()
    if _more_blocks_than(x, n, _MAX_BLOCKS):
        raise SizeLimit(f"more than {_MAX_BLOCKS} blocks of length at "
                        f"most {n}")
    # imported here: loading the array module costs about 0.4 MiB of
    # peak RSS, which the subcommands that store no block need not pay
    from array import array
    ends = x._blocks[have][2] if have else array("I", [0])
    # per state, the (letter, successor) pairs whose successor is nonempty
    live: dict[int, list[tuple[int, int]]] = {}
    for m in range(have + 1, n + 1):
        prefix, letter, nxt = array("I"), array("I"), array("I")
        for p, e in enumerate(ends):
            succ = live.get(e)
            if succ is None:
                succ = live[e] = [(k, j) for k, j in enumerate(sub.row(e))
                                  if sub.states[j]]
            for k, j in succ:
                prefix.append(p)
                letter.append(k)
                nxt.append(j)
        x._blocks[m] = (prefix, letter, nxt)
        ends = nxt


def _more_blocks_than(x: ShiftPresentation, n: int, cap: int) -> bool:
    """Whether x has more than cap blocks of length at most n, counted
    exactly without enumerating them: a block of length m is a word that
    walks x's subset automaton from state 0 to a nonempty state, so the
    words reaching each state are pushed along its row one length at a
    time.  The count stops once it passes cap; it reads only the rows of
    states that blocks shorter than n reach, which are the rows
    _fill_blocks reads next."""
    sub = x.subset_automaton()
    words = {0: 1}                           # words of length m reaching s
    total = 0
    for _ in range(n):
        nxt: dict[int, int] = {}
        for s, c in words.items():
            for j in sub.row(s):
                if sub.states[j]:
                    nxt[j] = nxt.get(j, 0) + c
        words = nxt
        total += sum(words.values())
        if total > cap:
            return True
    return False


def is_block(x: ShiftPresentation, w: Word) -> bool:
    """True iff w labels a path in the trimmed presentation."""
    if len(w) == 0:
        raise ValueError("blocks are nonempty")
    return x.subset_automaton().read(0, w.letters) is not None


# The most vertices the interned states of one subset automaton hold,
# counted with multiplicity.  A presentation on n vertices can have up
# to 2^n subset states, each holding up to n vertices, so a count of
# states alone would not bound the memory.  The tests' inputs hold at
# most 81 920, the benchmark's 108 and seeded_sofic(40, 2) 772 831.
_MAX_SUBSET_VERTICES = 2**20


class SubsetAutomaton:
    """The subset automaton of the path-label NFA of g, built on demand.

    State 0 is the set of all vertices.  state() interns each vertex
    set once, as states[i] in discovery order, and row(i), its
    successors in alphabet order (the empty set included), is computed
    once.  A word is a block iff it walks 0 to a nonempty state.
    Interning a state past _MAX_SUBSET_VERTICES held vertices raises
    SizeLimit.
    """

    def __init__(self, g: LabeledGraph, alphabet: Alphabet):
        self.g = g
        self.symbols = alphabet.symbols
        self.position = {a: k for k, a in enumerate(self.symbols)}
        self.states: list[frozenset] = []
        self.index: dict[frozenset, int] = {}
        self.rows: dict[int, list[int]] = {}
        self.held = 0
        self.state(frozenset(g.vertices))

    def state(self, vertices: frozenset) -> int:
        """The id of a vertex set, interned on first sight."""
        i = self.index.get(vertices)
        if i is None:
            self.held += len(vertices)
            if self.held > _MAX_SUBSET_VERTICES:
                raise SizeLimit("subset automaton holds more than "
                                f"{_MAX_SUBSET_VERTICES} vertices")
            i = self.index[vertices] = len(self.states)
            self.states.append(vertices)
        return i

    def row(self, i: int) -> list[int]:
        row = self.rows.get(i)
        if row is None:
            ext: dict[str, set[Hashable]] = {}
            for v in self.states[i]:
                for _, a, d in self.g.out[v]:
                    ext.setdefault(a, set()).add(d)
            row = self.rows[i] = [self.state(frozenset(ext.get(a, ())))
                                  for a in self.symbols]
        return row

    def read(self, i: int, letters: Iterable[str]) -> int | None:
        """The state that letters walk i to, or None once the walk
        reaches the empty set or a letter outside the alphabet."""
        for a in letters:
            k = self.position.get(a)
            if k is None:
                return None
            i = self.row(i)[k]
            if not self.states[i]:
                return None
        return i


def subset_dfa(g: LabeledGraph, alphabet: Alphabet):
    """Determinize the path-label NFA whose start set is all vertices.

    Returns (states, trans) with states[0] = full vertex set, states as
    frozensets in BFS discovery order, the empty set as explicit sink,
    and trans[(i, a)] = j.  A word is a block iff it walks 0 to a
    nonempty state.
    """
    sub = SubsetAutomaton(g, alphabet)
    trans = {(i, a): j for i, _ in enumerate(sub.states)  # reaches new states
             for a, j in zip(alphabet.symbols, sub.row(i))}
    return sub.states, trans


def minimal_automaton(x: ShiftPresentation):
    """The minimal automaton of the block language of x.

    The states of x's subset automaton that state 0 reaches are listed
    breadth-first, successors in alphabet order, and Moore-minimized on
    their rows; states other queries interned are left out, so the
    result depends on x alone.  Returns (maps, initial, sink): maps[i][s]
    is the state reached from s by letter i of the alphabet, and sink is
    the class of the empty vertex set, or None when every word is a
    block.  A word is a block iff it walks initial to a state other
    than sink.
    """
    sub = x.subset_automaton()
    walk, at = [0], {0: 0}               # at[i]: i's position in walk
    cols = [[] for _ in sub.symbols]     # cols[k][p]: at[row(walk[p])[k]]
    for i in walk:                       # walk grows as rows are read
        for col, j in zip(cols, sub.row(i)):
            if j not in at:
                at[j] = len(walk)
                walk.append(j)
            col.append(at[j])
    part = [0 if sub.states[i] else 1 for i in walk]
    while True:
        sigs = zip(part, *[map(part.__getitem__, col) for col in cols])
        renum: dict = {}
        new = [renum.setdefault(s, len(renum)) for s in sigs]
        if new == part:
            break
        part = new
    maps = []
    for col in cols:
        img = [0] * len(renum)
        for p, j in zip(part, col):
            img[p] = part[j]
        maps.append(tuple(img))
    sink = next((part[p] for p, i in enumerate(walk) if not sub.states[i]),
                None)
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


def sccs(n: int, succ) -> list[int]:
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


def is_irreducible(x: ShiftPresentation) -> bool:
    """Whether x admits a strongly connected presentation.

    x is irreducible iff some strongly connected component H of its
    trimmed graph G reads every block.  If one does, H presents x and is
    strongly connected.  Conversely, an irreducible x has a point in
    which every block recurs to the left; the left tail of a path
    labelled by it stays in one component, which then reads every block
    (Lind and Marcus, ch. 3).  Each component with an internal edge is
    tested by reads_alike, letter against letter, on x's subset
    automaton and a fresh one of H: H is a subgraph of G, so the walk
    hunts for a word that G reads and H does not.  A direct
    witness search on short blocks cross-checks.
    """
    g = x.graph()
    index = {v: i for i, v in enumerate(g.vertices)}
    comp = sccs(len(g.vertices),
                lambda i: [index[d] for _, _, d in g.out[g.vertices[i]]])
    inner: dict[int, list[Edge]] = {}
    for e in g.edges:
        if comp[index[e[0]]] == comp[index[e[2]]]:
            inner.setdefault(comp[index[e[0]]], []).append(e)
    steps = [((a,), (a,)) for a in x.alphabet.symbols]
    # a component holding every edge is G itself
    verdict = any(len(es) == len(g.edges) or
                  reads_alike(x.subset_automaton(), SubsetAutomaton(
                      LabeledGraph(dict.fromkeys(s for s, _, _ in es), es),
                      x.alphabet), steps)
                  for es in inner.values())
    if verdict:
        _crosscheck_irreducible(x, comp)
    return verdict


def reads_alike(g: SubsetAutomaton, h: SubsetAutomaton, steps) -> bool:
    """Whether g reads g(u) exactly when h reads h(u), for every word u.

    steps holds one pair per letter c: the letters g reads for c and the
    letters h reads for c; g(u) and h(u) join the pairs of u's letters.
    Walks pairs of states (g's, h's) from (0, 0) and fails as soon as
    exactly one side reads a step, which happens at the shortest prefix
    of any word read by one side only.
    """
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        gs, hs = stack.pop()
        for gw, hw in steps:
            ng, nh = g.read(gs, gw), h.read(hs, hw)
            if (ng is None) != (nh is None):
                return False
            if ng is not None and (ng, nh) not in seen:
                seen.add((ng, nh))
                stack.append((ng, nh))
    return True


def _crosscheck_irreducible(x: ShiftPresentation, comp: list[int]) -> None:
    """Witness search for u·w·v on short blocks; a miss is a bug.

    Some u·w·v is a block iff v labels a path from a vertex reachable
    from where a path labelled u ends.  That depends only on the
    strongly connected components (comp) those ends lie in, so each set
    of them is closed and searched once.  Only one direction is
    conclusive, so this runs on an irreducible verdict only: a
    reducible shift may still connect all its short blocks.
    """
    g = x.graph()
    comp_of = dict(zip(g.vertices, comp))
    short = ordered_blocks(x, min(4, len(g.vertices) + 2))
    sub = x.subset_automaton()
    checked: set[frozenset[int]] = set()
    for u in short:
        ends = sub.states[sub.read(0, u.letters)]
        key = frozenset(map(comp_of.__getitem__, ends))
        if key in checked:
            continue
        checked.add(key)
        reach = sub.state(frozenset(_reach(g, ends)))
        for v in short:
            if sub.read(reach, v.letters) is None:
                raise MismatchBug(
                    f"irreducible verdict but no w with {u}·w·{v} a block")


def _reach(g: LabeledGraph, starts: set[Hashable]) -> set[Hashable]:
    """starts and every vertex a path from them ends at."""
    reach, stack = set(starts), list(starts)
    while stack:
        for _, _, d in g.out[stack.pop()]:
            if d not in reach:
                reach.add(d)
                stack.append(d)
    return reach


def is_periodic_point(x: ShiftPresentation, w: Word) -> bool:
    """True iff w^∞ lies in x.

    Reads w V+1 times from state 0, V = vertex count: the V+1
    vertices sitting at the copy boundaries of such a path must repeat,
    giving a cycle labeled by a power of w, hence w^∞ in x.  Conversely
    every power of w is a block when w^∞ is in x.
    """
    if len(w) == 0:
        raise ValueError("w must be nonempty")
    copies = range(len(x.graph().vertices) + 1)
    return x.subset_automaton().read(
        0, (a for _ in copies for a in w.letters)) is not None


# The highest order `periodic_counts`, and so `zeta`, will count to.  p(n)
# grows like λⁿ, so an order-n series holds n-bit integers and the zeta
# recursion multiplies them n² times: `zeta` on full-2 takes 0.23 s at
# order 2^10 in a fresh process on 2 vCPUs, and 57 s and 16 MB of report
# at order 6000.  The test suite reaches order 64, the benchmark 16.
_MAX_ORDER = 2**10


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
    No block is enumerated.  q comes from p by Möbius inversion.  An
    n_max above _MAX_ORDER raises SizeLimit before anything is counted.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if n_max > _MAX_ORDER:
        raise SizeLimit(f"order {n_max} exceeds {_MAX_ORDER}")
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
    """True iff every factor of w of length ≤ k is a block of x.

    Blocks are factor-closed, so it is enough that each window of w of
    length min(k, |w|) is one; the distinct windows are read from state
    0 of x's subset automaton in order of first position, as is_block
    reads, so no block is enumerated.  A word over another alphabet has
    no block among its factors.
    """
    if len(w) == 0:
        raise ValueError("w must be nonempty")
    if k < 1:
        raise ValueError("k must be positive")
    if w.alphabet != x.alphabet:
        return False
    kk = min(k, len(w))
    sub, ls = x.subset_automaton(), w.letters
    windows = dict.fromkeys(ls[i:i + kk] for i in range(len(ls) - kk + 1))
    return all(sub.read(0, win) is not None for win in windows)
