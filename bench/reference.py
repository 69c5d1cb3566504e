"""Independent reference computations on the JSON inputs.

Nothing here imports shiftcat: each function rebuilds from the raw
presentation what the package is expected to report, so the benchmark
can judge an output without trusting the code that produced it.
Presentations are the dicts of the input files ({"kind": "sft", ...}
or {"kind": "sofic", ...}) over single-character alphabets.
"""

from __future__ import annotations

import itertools


def essential_graph(shift: dict) -> tuple[list, list]:
    """(vertices, edges) of a presentation with every vertex on a
    bi-infinite path.  SFTs go through their higher-block graph: the
    vertices are the allowed words of length m (m + 1 = the longest
    forbidden word, at least 2), an edge u -> v reads the last letter
    of v, and it exists when u·v[-1] avoids every forbidden word."""
    if shift["kind"] == "sft":
        forbidden = [w if isinstance(w, str) else "".join(w)
                     for w in shift.get("forbidden", [])]
        m = max([len(w) for w in forbidden] + [2]) - 1

        def clean(w: str) -> bool:
            return not any(f in w for f in forbidden)

        verts = ["".join(t) for t in itertools.product(shift["alphabet"],
                                                       repeat=m)
                 if clean("".join(t))]
        edges = [(u, a, u[1:] + a) for u in verts
                 for a in shift["alphabet"] if clean(u + a)]
    else:
        verts = list(shift["vertices"])
        edges = [tuple(e) for e in shift["edges"]]
    alive = set(verts)
    while True:
        live = [e for e in edges if e[0] in alive and e[2] in alive]
        keep = {e[0] for e in live} & {e[2] for e in live}
        if keep == alive:
            return [v for v in verts if v in alive], live
        alive = keep


def adjacency(shift: dict) -> list[list[int]]:
    """0/1 transfer matrix of an SFT's higher-block graph; its cycles are
    the periodic points, one to one."""
    verts, edges = essential_graph(shift)
    pos = {v: i for i, v in enumerate(verts)}
    a = [[0] * len(verts) for _ in verts]
    for s, _, d in edges:
        a[pos[s]][pos[d]] = 1
    return a


def path_counts(shift: dict, n_max: int) -> list[int]:
    """Number of paths of 1..n_max edges in the essential graph."""
    verts, edges = essential_graph(shift)
    ways = {v: 1 for v in verts}
    out = []
    for _ in range(n_max):
        nxt = dict.fromkeys(verts, 0)
        for s, _, d in edges:
            nxt[d] += ways[s]
        ways = nxt
        out.append(sum(ways.values()))
    return out


def trace_powers(a: list[list[int]], n_max: int) -> list[int]:
    """[tr(A), tr(A²), ..., tr(A^n_max)] in exact integers."""
    n = len(a)
    power = [row[:] for row in a]
    out = []
    for _ in range(n_max):
        out.append(sum(power[i][i] for i in range(n)))
        power = [[sum(power[i][k] * a[k][j] for k in range(n) if power[i][k])
                  for j in range(n)] for i in range(n)]
    return out


def iter_blocks(shift: dict):
    """Yield the blocks of length 1, 2, ... as path labels of the
    essential graph, one unordered collection per length."""
    verts, edges = essential_graph(shift)
    out_edges: dict = {v: [] for v in verts}
    for s, a, d in edges:
        out_edges[s].append((a, d))
    frontier: dict[str, set] = {"": set(verts)}
    while True:
        nxt: dict[str, set] = {}
        for w, ends in frontier.items():
            for v in ends:
                for a, d in out_edges[v]:
                    nxt.setdefault(w + a, set()).add(d)
        frontier = nxt
        yield nxt.keys()


def blocks_by_length(shift: dict, n_max: int) -> list[list[str]]:
    """Blocks of each length 1..n_max, each list sorted by alphabet order."""
    rank = {a: i for i, a in enumerate(shift["alphabet"])}
    return [sorted(layer, key=lambda w: [rank[c] for c in w])
            for layer in itertools.islice(iter_blocks(shift), n_max)]


def minimal_automaton(shift: dict) -> tuple[list[tuple[int, ...]], int]:
    """Letter actions on the minimal DFA of the block language, one
    tuple per letter, and the class of the all-vertices start state.

    Subset construction from the full vertex set, then partition
    refinement that splits a class whenever two members step into
    different classes on some letter."""
    verts, edges = essential_graph(shift)
    step: dict = {}
    for s, a, d in edges:
        step.setdefault((s, a), set()).add(d)
    letters = shift["alphabet"]
    start = frozenset(verts)
    states, index = [start], {start: 0}
    delta: list[list[int]] = []
    i = 0
    while i < len(states):
        row = []
        for a in letters:
            nxt = frozenset(d for v in states[i] for d in step.get((v, a), ()))
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            row.append(index[nxt])
        delta.append(row)
        i += 1
    block = [1 if st else 0 for st in states]
    while True:
        keys = [(block[q],) + tuple(block[r] for r in delta[q])
                for q in range(len(states))]
        names = {k: j for j, k in enumerate(sorted(set(keys)))}
        refined = [names[k] for k in keys]
        stable = len(names) == len(set(block))
        block = refined
        if stable:
            break
    n = len(set(block))
    actions = []
    for li in range(len(letters)):
        img = [0] * n
        for q in range(len(states)):
            img[block[q]] = block[delta[q][li]]
        actions.append(tuple(img))
    return actions, block[0]


def closure(actions: list[tuple[int, ...]], cap: int) -> list[tuple[int, ...]] | None:
    """Every product of the given maps (composed left to right), or None
    once there are more than `cap` of them."""
    seen = {t: None for t in actions}
    queue = list(seen)
    while queue:
        t = queue.pop()
        for g in actions:
            u = tuple(g[x] for x in t)
            if u not in seen:
                if len(seen) >= cap:
                    return None
                seen[u] = None
                queue.append(u)
    return list(seen)


def syntactic_size(shift: dict, cap: int) -> int | None:
    """|S| of the block language, or None above `cap`."""
    actions, _ = minimal_automaton(shift)
    elems = closure(actions, cap)
    return None if elems is None else len(elems)


def syntactic_table(shift: dict) -> list[list[int]]:
    """Cayley table of the syntactic semigroup, in an order of its own."""
    actions, _ = minimal_automaton(shift)
    elems = closure(actions, 100_000)
    pos = {t: i for i, t in enumerate(elems)}
    return [[pos[tuple(y[x] for x in t)] for y in elems] for t in elems]


def green_summary(oracle, n: int) -> list[tuple]:
    """Per J-class (size, R, L, H, idempotents, regular), sorted, from a
    GreenOracle built on a Cayley table."""
    rows = []
    done: set[int] = set()
    for x in range(n):
        if x in done:
            continue
        cls = oracle.j_class_of(x)
        done |= cls
        idem = oracle.idempotents_within(cls)
        rows.append((len(cls),
                     len(oracle.classes_within(cls, oracle.r_related)),
                     len(oracle.classes_within(cls, oracle.l_related)),
                     len(oracle.classes_within(cls, oracle.h_related)),
                     len(idem), bool(idem)))
    return sorted(rows)


def compose_tables(phi: dict, psi: dict) -> dict[str, str]:
    """Window table of psi∘phi for central block maps given as
    {"inner": {"table": ...}, "wing": k} with single-character keys."""
    k, l = phi["wing"], psi["wing"]
    f, g = phi["inner"]["table"], psi["inner"]["table"]
    src = phi["inner"]["source"]
    out = {}
    for win in itertools.product(src, repeat=2 * (k + l) + 1):
        w = "".join(win)
        mid = "".join(f[w[i:i + 2 * k + 1]] for i in range(2 * l + 1))
        out[w] = g[mid]
    return out
