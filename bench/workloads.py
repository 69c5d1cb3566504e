"""Seeded inputs and job lists of the four workloads.

Each workload is a fixed list of jobs, one `shiftcat` process each,
built only from the seed and the corpus in tests/data.  Jobs come in
rounds: every round holds the same mix of job kinds and of instance
sizes, so any stretch of the list does about the same work, and a run
cut at a deadline measures the same mix whatever the seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import reference

CORPUS = ("golden_mean", "even", "full2", "periodic_ab", "fixed_point",
          "marker_cycle")
SUITES = ("word-code-identities", "zeta-integrality", "census-coherence",
          "mirage-preservation", "flow-naturality")
SEEDED_SUITES = ("word-code-identities", "census-coherence")

# Estimated in-process cost per unit of work, fitted on Python 3.11 on a
# 2-core x86-64 VM: periodic_counts walks w^(V+1) for every block w,
# and a blocks job costs about the same per byte of report.
ZETA_S_PER_STEP = 0.75e-6
BLOCKS_S_PER_BYTE = 0.5e-6
# One round of zeta-ladder: a job aimed at each of these in-process costs.
# The top fifth of every round shares one target, so the 90th percentile
# falls inside a cluster of like jobs rather than between two rungs.
ZETA_ROUND_S = (0.004, 0.006, 0.01, 0.015, 0.025, 0.04, 0.06, 0.08, 0.1,
                0.1)
ZETA_ROUNDS = 11
# semigroup-ladder strata: (smallest |S|, largest |S|, instances).  Each
# round runs one job on every instance, so small semigroups dominate the
# job count; the top stratum is a fifth of the jobs, as above.
SEMIGROUP_STRATA = ((30, 59, 4), (60, 84, 2), (85, 104, 2), (105, 125, 2))
SEMIGROUP_ROUNDS = 10
SEMIGROUP_KINDS = ("syntactic", "green", "karoubi", "lu-poset")
# flowcheck cases at bound 4-5 of like in-process cost (0.12-0.28 s), so
# the mix does not hinge on which of them a seed draws
FLOWCHECK_CASES = (("golden_mean", "b", 4), ("even", "a", 4), ("even", "a", 5),
                   ("even", "b", 5), ("full2", "a", 4), ("marker_cycle", "b", 4),
                   ("marker_cycle", "c", 4), ("marker_cycle", "d", 4))
# item-count strata of the three `term code` jobs in a flow-terms round
TERM_ITEMS = ((50, 130), (131, 215), (216, 300))
CORPUS_ROUNDS = 4
FLOW_ROUNDS = 10


@dataclass
class Job:
    """One `python -m shiftcat.cli <argv>` process; info holds the sizes
    known at set-up."""

    id: str
    argv: list[str]
    expect: int = 0
    shift: str | None = None
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    files: dict[str, object]
    jobs: list[Job]

    def write(self, directory: Path) -> None:
        for name, content in self.files.items():
            text = content if isinstance(content, str) else json.dumps(content)
            (directory / name).write_text(text, encoding="utf-8")


# -- inputs ---------------------------------------------------------------


def load_corpus(root: Path) -> dict[str, dict]:
    out = {}
    for name in CORPUS:
        with open(root / "tests" / "data" / f"{name}.json", encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


def random_sft(rng: random.Random, letters: int) -> dict:
    """1-3 forbidden words of length 2-4, nonempty after trimming and
    with at least 10 times as many paths of length 20 as of length 10
    (entropy above log 1.25), so an order ladder on it keeps climbing."""
    alphabet = ["a", "b", "c"][:letters]
    while True:
        forbidden: set[str] = set()
        for _ in range(rng.randint(1, 3)):
            forbidden.add("".join(rng.choice(alphabet)
                                  for _ in range(rng.randint(2, 4))))
        shift = {"kind": "sft", "alphabet": alphabet,
                 "forbidden": sorted(forbidden)}
        if reference.path_counts(shift, 20)[-1] >= \
                10 * reference.path_counts(shift, 10)[-1] > 0:
            return shift


def random_sofic(rng: random.Random) -> dict:
    """Over {a,b,c}: V in {4,5}, an a-labelled cycle through every vertex,
    and 2V random edges."""
    v = rng.choice((4, 5))
    verts = [str(i) for i in range(v)]
    edges = [[str(i), "a", str((i + 1) % v)] for i in range(v)]
    for _ in range(2 * v):
        edges.append([str(rng.randrange(v)), rng.choice("abc"),
                      str(rng.randrange(v))])
    return {"kind": "sofic", "alphabet": ["a", "b", "c"],
            "vertices": verts, "edges": edges}


def central_map(rng: random.Random, wing: int, alphabet=("a", "b")) -> dict:
    """A random central block map {"inner": ..., "wing": k}."""
    window = 2 * wing + 1
    table = {"".join(w): rng.choice(alphabet)
             for w in itertools.product(alphabet, repeat=window)}
    return {"inner": {"window": window, "source": list(alphabet),
                      "target": list(alphabet), "memory": wing,
                      "anticipation": wing, "table": table},
            "wing": wing}


def plain_map(rng: random.Random, memory: int, anticipation: int) -> dict:
    window = memory + anticipation + 1
    table = {"".join(w): rng.choice("ab")
             for w in itertools.product("ab", repeat=window)}
    return {"window": window, "source": ["a", "b"], "target": ["a", "b"],
            "memory": memory, "anticipation": anticipation, "table": table}


def _power(letters: list[str], q: int) -> str:
    body = " ".join(letters)
    if q == 0:
        return f"({body})^w"
    return f"({body})^(w{q:+d})"


def random_term(rng: random.Random, items: int, alphabet=("a", "b")) -> str:
    """An ω-term of the given item count: short words and powers
    u^(ω+q) with |u| <= 3 and |q| <= 2."""
    out = []
    for i in range(items):
        letters = [rng.choice(alphabet) for _ in range(rng.randint(1, 3))]
        if i % 2:
            out.append(_power(letters, rng.randint(-2, 2)))
        else:
            out.append(" ".join(letters))
    return " ".join(out)


def walk_term(rng: random.Random, shift: dict, items: int,
              expand: str | None = None) -> str:
    """A term whose every unfolding labels a path of the shift's essential
    graph, so it lies in every mirage of the shift: a random walk that
    starts by looping around a cycle as a power and does so again
    wherever it can on every other item.

    With `expand` set, the term is written over the shift expanded at
    that letter (the letter becomes letter ◊), sometimes with a leading
    ◊ or a trailing letter where the graph allows them, which keeps it
    a mirage member of the expanded shift."""
    verts, edges = reference.essential_graph(shift)
    out_edges: dict = {v: [] for v in verts}
    for s, a, d in edges:
        out_edges[s].append((a, d))
    looped = [u for u in verts if _cycle_from(out_edges, u, rng)]
    first = v = rng.choice(looped)
    parts = []
    for i in range(items):
        cycle = None if i % 2 else _cycle_from(out_edges, v, rng)
        if cycle:
            parts.append((cycle, rng.randint(-1, 2)))
        else:
            letters = []
            for _ in range(rng.randint(1, 3)):
                a, v = rng.choice(out_edges[v])
                letters.append(a)
            parts.append((letters, None))
    if expand is None:
        return " ".join(" ".join(w) if q is None else _power(w, q)
                        for w, q in parts)
    out = []
    for w, q in parts:
        w = [x for c in w for x in ((c, "o") if c == expand else (c,))]
        out.append(" ".join(w) if q is None else _power(w, q))
    if rng.random() < 0.5 and any(a == expand and d == first
                                  for _, a, d in edges):
        out.insert(0, "o")
    if rng.random() < 0.5 and any(s == v and a == expand
                                  for s, a, _ in edges):
        out.append(expand)
    return " ".join(out)


def _cycle_from(out_edges: dict, v, rng: random.Random) -> list[str] | None:
    """Labels of a shortest cycle through v, found by BFS with the
    neighbours visited in a seeded order."""
    parent = {}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for a, d in rng.sample(out_edges[u], len(out_edges[u])):
                if d == v:
                    labels = [a]
                    while u != v:
                        u, b = parent[u]
                        labels.append(b)
                    return labels[::-1]
                if d not in parent:
                    parent[d] = (u, a)
                    nxt.append(d)
        frontier = nxt
    return None


# -- workloads ------------------------------------------------------------


def _label(shift: dict) -> dict:
    verts, edges = reference.essential_graph(shift)
    return {"vertices": len(verts), "edges": len(edges)}


def corpus_mix(root: Path, rng: random.Random) -> Workload:
    corpus = load_corpus(root)
    files: dict[str, object] = {f"{n}.json": s for n, s in corpus.items()}
    files["empty.json"] = {"kind": "sft", "alphabet": ["a", "b"],
                           "forbidden": ["a", "b"]}
    files["upsilon.json"] = plain_map(rng, 0, 1)
    files["central1.json"] = central_map(rng, 1)
    files["central0.json"] = central_map(rng, 0)
    jobs: list[Job] = []
    ab = [n for n in CORPUS if corpus[n]["alphabet"] == ["a", "b"]]
    for r in range(CORPUS_ROUNDS):
        pick = rng.choice
        batch = []

        def add(argv, shift=None, expect=0):
            batch.append(Job("", argv, expect, shift))

        for k, name in enumerate(CORPUS):
            f = f"{name}.json"
            add(["blocks", f, "--order", str(rng.randint(4, 6))], name)
            z = pick(("zeta", "periodic"))
            add([z, f, "--order", str(rng.randint(5, 8))], name)
            semi = SEMIGROUP_KINDS[(r + k) % len(SEMIGROUP_KINDS)]
            add([semi, f], name)
        name = pick(ab)
        term = walk_term(rng, corpus[name], rng.randint(2, 4))
        add(["member", f"{name}.json", term, "--bound",
                       str(rng.randint(2, 4))], name)
        name = pick(CORPUS)
        word = pick(reference.blocks_by_length(corpus[name], 4)[3])
        add(["member", f"{name}.json", word], name)
        add(["irreducible", f"{pick(CORPUS)}.json"])
        add(["code", "centralize", "upsilon.json"])
        add(["code", "compose", "central1.json", "central0.json"])
        name = pick(ab)
        add(["code", "apply", "central1.json", f"{name}.json"], name)
        name = pick(ab)
        term = walk_term(rng, corpus[name], rng.randint(2, 4))
        add(["term", pick(("eval", "factors")), f"{name}.json", term,
                     "--bound", "3"], name)
        add(["term", "code", "central1.json",
                     random_term(rng, rng.randint(3, 6))])
        name = pick(ab)
        add(["expand", f"{name}.json", "--letter", pick("ab")], name)
        name = pick(("golden_mean", "even", "full2"))
        add(["classify", f"{name}.json",
                         walk_term(rng, corpus[name], 3, "a"),
                         "--letter", "a"], name)
        add(["flowcheck", f"{pick(ab)}.json", "--letter",
                          pick("ab"), "--bound", "3"])
        for suite in (SUITES[r % len(SUITES)], SUITES[(r + 2) % len(SUITES)]):
            seed = (["--seed", str(rng.randrange(1000))]
                    if suite in SEEDED_SUITES else [])
            add(["check", suite] + seed)
        add(["zeta", "empty.json", "--order", "3"], expect=2)
        add(["check", pick(SEEDED_SUITES)], expect=64)
        rng.shuffle(batch)
        jobs.extend(batch)
    return _finish(files, jobs, corpus)



def _zeta_order(counts: list[int], v: int, kind: str, target: float) -> int:
    """The largest order whose estimated cost stays within the target, so
    no job, and no report, is much larger than its rung allows."""
    best = 1
    for n in range(1, len(counts) + 1):
        if kind == "blocks":
            est = BLOCKS_S_PER_BYTE * sum(c * (k + 9)
                                          for k, c in enumerate(counts[:n]))
        else:
            est = ZETA_S_PER_STEP * sum(c * (k + 1) * (v + 1)
                                        for k, c in enumerate(counts[:n]))
        if est > target:
            break
        best = n
    return best


def _block_counts(shift: dict, limit: int, n_max: int = 40) -> list[int]:
    """|B_1|, |B_2|, ... until `limit` blocks in all or length n_max."""
    counts: list[int] = []
    for layer in reference.iter_blocks(shift):
        counts.append(len(layer))
        if sum(counts) > limit or len(counts) == n_max:
            return counts


def zeta_ladder(root: Path, rng: random.Random) -> Workload:
    corpus = load_corpus(root)
    pool = {n: corpus[n] for n in ("golden_mean", "even", "full2")}
    for i in range(6):
        pool[f"sft{i}"] = random_sft(rng, 2 + i % 2)
    files: dict[str, object] = {f"{n}.json": s for n, s in pool.items()}
    limit = int(max(ZETA_ROUND_S) / BLOCKS_S_PER_BYTE / 9)
    counts = {n: _block_counts(s, limit) for n, s in pool.items()}
    vertices = {n: _label(s)["vertices"] for n, s in pool.items()}
    # every shift takes every rung in turn, in a seeded order
    names = rng.sample(sorted(pool), len(pool))
    kinds = ("zeta", "periodic", "blocks")
    jobs = []
    for r in range(ZETA_ROUNDS):
        batch = []
        for i, target in enumerate(ZETA_ROUND_S):
            name = names[(r * len(ZETA_ROUND_S) + i) % len(names)]
            kind = kinds[(r + i) % 3]
            order = _zeta_order(counts[name], vertices[name], kind, target)
            batch.append(Job("", [kind, f"{name}.json", "--order",
                                  str(order)], 0, name))
        rng.shuffle(batch)
        jobs.extend(batch)
    return _finish(files, jobs, pool)


def semigroup_instances(rng: random.Random) -> list[tuple[dict, int]]:
    """Random sofic shifts whose syntactic semigroups fill the strata,
    sized by the benchmark's own capped transformation closure."""
    cap = max(hi for _, hi, _ in SEMIGROUP_STRATA)
    want = {i: k for i, (_, _, k) in enumerate(SEMIGROUP_STRATA)}
    found: dict[int, list] = {i: [] for i in want}
    for _ in range(20_000):
        if all(len(found[i]) == want[i] for i in want):
            break
        shift = random_sofic(rng)
        size = reference.syntactic_size(shift, cap)
        if size is None:
            continue
        for i, (lo, hi, _) in enumerate(SEMIGROUP_STRATA):
            if lo <= size <= hi and len(found[i]) < want[i]:
                found[i].append((shift, size))
    else:
        raise RuntimeError("could not fill the semigroup strata")
    return [inst for i in sorted(found) for inst in found[i]]


def semigroup_ladder(root: Path, rng: random.Random) -> Workload:
    instances = semigroup_instances(rng)
    files: dict[str, object] = {}
    pool = {}
    for i, (shift, size) in enumerate(instances):
        files[f"sofic{i}.json"] = shift
        pool[f"sofic{i}"] = shift
    jobs = []
    for r in range(SEMIGROUP_ROUNDS):
        batch = []
        for i in range(len(instances)):
            kind = SEMIGROUP_KINDS[(r + i) % len(SEMIGROUP_KINDS)]
            argv = [kind, f"sofic{i}.json"]
            if kind == "lu-poset" and (r // len(SEMIGROUP_KINDS)) % 2:
                argv += ["--carrier", "all"]
            batch.append(Job("", argv, 0, f"sofic{i}"))
        rng.shuffle(batch)
        jobs.extend(batch)
    return _finish(files, jobs, pool)


def flow_terms(root: Path, rng: random.Random) -> Workload:
    corpus = load_corpus(root)
    files: dict[str, object] = {f"{n}.json": s for n, s in corpus.items()}
    shifts = dict(corpus)
    cases = rng.sample(FLOWCHECK_CASES, len(FLOWCHECK_CASES))
    jobs = []
    for r in range(FLOW_ROUNDS):
        batch = []
        name, letter, bound = cases[r % len(cases)]
        batch.append(Job("", ["flowcheck", f"{name}.json", "--letter", letter,
                              "--bound", str(bound), "--seed",
                              str(rng.randrange(1000))], 0, name))
        for i, (lo, hi) in enumerate(TERM_ITEMS):
            f = f"map{r}_{i}.json"
            files[f] = central_map(rng, rng.randint(1, 3))
            items = rng.randint(lo, hi)
            batch.append(Job("", ["term", "code", f, random_term(rng, items)],
                             info={"term_items": items}))
        for _ in range(2):
            name = rng.choice(("golden_mean", "even", "full2", "marker_cycle"))
            term = walk_term(rng, corpus[name], rng.randint(4, 12))
            batch.append(Job("", ["member", f"{name}.json", term, "--bound",
                                  str(rng.randint(2, 4))], 0, name))
            name = rng.choice(("golden_mean", "even", "full2"))
            term = walk_term(rng, corpus[name], rng.randint(3, 9), "a")
            batch.append(Job("", ["classify", f"{name}.json", term,
                                  "--letter", "a"], 0, name))
        wing = 1 + r % 3
        k = rng.randint(1, wing)
        files[f"phi{r}.json"] = central_map(rng, k)
        files[f"psi{r}.json"] = central_map(rng, wing - k)
        batch.append(Job("", ["code", "compose", f"phi{r}.json",
                              f"psi{r}.json"]))
        sft = random_sft(rng, 2 + r % 2)
        files[f"sft{r}.json"] = sft
        shifts[f"sft{r}"] = sft
        batch.append(Job("", ["expand", f"sft{r}.json", "--letter",
                              rng.choice(sft["alphabet"])], 0, f"sft{r}"))
        rng.shuffle(batch)
        jobs.extend(batch)
    return _finish(files, jobs, shifts)


def _finish(files: dict, jobs: list[Job], shifts: dict) -> Workload:
    labels = {n: _label(s) for n, s in shifts.items()}
    for i, job in enumerate(jobs):
        job.id = f"j{i:03d}"
        if job.shift is not None:
            job.info.update(labels[job.shift])
    return Workload(files, jobs)


WORKLOADS = {"corpus-mix": corpus_mix, "zeta-ladder": zeta_ladder,
             "semigroup-ladder": semigroup_ladder, "flow-terms": flow_terms}


def build(name: str, root: Path, seed: int) -> Workload:
    return WORKLOADS[name](root, random.Random(f"{name}:{seed}"))
