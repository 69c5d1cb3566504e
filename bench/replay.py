"""In-process replay of a job list through shiftcat's public functions,
with a span around every call into a layer.

Each job is repeated by calling the functions its subcommand calls,
on presentation objects rebuilt from the job's JSON (they cache their
graph and blocks).  The replay runs twice, without and with spans, so
the tracing overhead is the difference.  Each job is then run once
more through shiftcat.cli.main with stdout captured (the cli.main
span); that output must equal the process's, and the replay's results
must equal the matching report fields.  Only public names are used.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from shiftcat import cli
from shiftcat.codes import (CentralBlockMap, apply_to_presentation,
                            block_map_from_json, block_map_to_json, centralize,
                            compose)
from shiftcat.errors import EmptyShift
from shiftcat.flowops import classify_type, expand_shift, verify_naturality
from shiftcat.karoubi import (build, iso_class_census, lu_labeled_poset,
                              retraction_order)
from shiftcat.pseudowords import (OmegaTerm, Power, canonical,
                                  closure_membership, eval_term, format_term,
                                  mirage_membership, parse_term,
                                  quotient_equal, term_block_code,
                                  term_factors)
from shiftcat.semigroups import (generate, green, local_units,
                                 random_transformation_semigroup,
                                 schutzenberger, syntactic_semigroup)
from shiftcat.shifts import (ShiftPresentation, blocks, is_block,
                             is_irreducible, is_periodic_point,
                             periodic_counts, subset_dfa, zeta)
from shiftcat.words import Alphabet, is_primitive

LAYERS = Path(__file__).resolve().parent / "layers.json"
# Sizes past which the package weakens or skips a check, or refuses work.
ASSOC_SAMPLED_ABOVE = 512
JD_SKIPPED_ABOVE = 400
GROUP_INVARIANTS_ABOVE = 64
KAROUBI_MATERIALIZE_MAX = 200
POSET_COMPARE_MAX = 16
CORPUS_NAMES = {"golden_mean": "golden-mean", "even": "even", "full2": "full-2",
                "periodic_ab": "periodic-ab", "fixed_point": "fixed-point",
                "marker_cycle": "marker-cycle"}


class Tracer:
    """Spans (name, start ns, end ns, parent index, job id) kept in
    memory, and counters; disabled, it records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.job = None

    def call(self, name: str, fn, *args, **kw):
        if not self.enabled:
            return fn(*args, **kw)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter_ns(), 0, parent, self.job]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kw)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter_ns()

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[name] += value

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the part covered by child
        spans, in seconds."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0 - child[i]) / 1e9
        return out


def opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def ordered(words):
    """Words by length, then in alphabet order, as the reports list them."""
    return sorted(words, key=lambda v: (len(v), v.lex_key()))


class Replayer:
    """Repeats one job at a time; returns the report fields it can
    reproduce, keyed by their path in the CLI report."""

    def __init__(self, files: dict, tracer: Tracer):
        self.files = files
        self.t = tracer
        self.sizes: dict = {}

    # -- helpers ----------------------------------------------------------

    def shift(self, name: str) -> ShiftPresentation:
        x = ShiftPresentation.from_json(self.files[name])
        g = self.t.call("shifts.graph", x.graph)
        self.t.count("shifts.graph_vertices", len(g.vertices))
        self.t.count("shifts.graph_edges", len(g.edges))
        self.sizes.update(vertices=len(g.vertices), edges=len(g.edges))
        return x

    def central(self, name: str) -> CentralBlockMap:
        data = self.files[name]
        if "inner" in data:
            return CentralBlockMap(block_map_from_json(data["inner"]),
                                   int(data["wing"]))
        return self.t.call("codes.centralize", centralize,
                           block_map_from_json(data))

    def parse(self, alphabet, text):
        t = self.t.call("pseudowords.parse_term", parse_term, alphabet, text)
        self.t.count("pseudowords.term_items", len(t.body))
        self.sizes["term_items"] = self.sizes.get("term_items", 0) + len(t.body)
        return t

    def canonical(self, t):
        self.t.count("pseudowords.canonical_calls")
        return self.t.call("pseudowords.canonical", canonical, t)

    def semigroup(self, x):
        g = x.graph()
        states, _ = self.t.call("shifts.subset_dfa", subset_dfa, g, x.alphabet)
        self.t.count("shifts.subset_dfa_states", len(states))
        s, accept = self.t.call("semigroups.syntactic_semigroup",
                                syntactic_semigroup, x)
        gd = self.t.call("semigroups.green", green, s)
        n_idem = len(s.idempotents())
        self.t.count("semigroups.size", s.size)
        self.t.count("semigroups.idempotents", n_idem)
        self.t.count("semigroups.j_classes", len(gd.J))
        self.t.count("semigroups.assoc_sampled", s.size > ASSOC_SAMPLED_ABOVE)
        self.t.count("semigroups.jd_skipped", s.size > JD_SKIPPED_ABOVE)
        self.sizes.update(dfa_states=len(states), semigroup=s.size,
                          idempotents=n_idem, j_classes=len(gd.J),
                          assoc_sampled=s.size > ASSOC_SAMPLED_ABOVE,
                          jd_skipped=s.size > JD_SKIPPED_ABOVE)
        return s, accept, gd

    def green_rows(self, s, gd) -> list[dict]:
        rows = []
        for jid, cls in enumerate(gd.J):
            rows.append({"j_class": jid, "size": len(cls),
                         "r_classes": len({gd.r_of[x] for x in cls}),
                         "l_classes": len({gd.l_of[x] for x in cls}),
                         "h_classes": len({gd.h_of[x] for x in cls}),
                         "idempotents": sum(1 for x in cls
                                            if s.is_idempotent(x)),
                         "regular": gd.regular[jid]})
        return rows

    def groups(self, s, gd, jids) -> int:
        """Schützenberger groups of the J-classes, largest order."""
        top = 0
        for jid in jids:
            rep = min(gd.J[jid])
            grp = self.t.call("semigroups.schutzenberger", schutzenberger, s,
                              gd.H[gd.h_of[rep]])
            top = max(top, grp.order)
        self.t.count("semigroups.group_invariant_only",
                     top > GROUP_INVARIANTS_ABOVE)
        self.sizes.update(max_group_order=top,
                          group_invariant_only=top > GROUP_INVARIANTS_ABOVE)
        return top

    def battery(self, alphabet: Alphabet, seed, extra):
        """Cyclic Z/2 and Z/3 quotients, then (seeded) three random
        transformation quotients of at most 40 elements."""
        out = list(extra)
        for m in (2, 3):
            rot = tuple((i + 1) % m for i in range(m))
            ident = tuple(range(m))
            gens = [rot if i % 2 == 0 else ident for i in range(len(alphabet))]
            s = self.t.call("semigroups.generate", generate, gens, alphabet)
            self.t.count("semigroups.generate_calls")
            out.append((s, dict(s.gen_of)))
        if seed is not None:
            rng = random.Random(seed)
            added = 0
            while added < 3:
                s = self.t.call("semigroups.generate",
                                random_transformation_semigroup, alphabet, 3,
                                rng)
                self.t.count("semigroups.generate_calls")
                if s.size <= 40:
                    out.append((s, dict(s.gen_of)))
                    added += 1
        return out

    def idempotent_terms(self, target, bound: int):
        """w^ω for each primitive block w of the target with w^∞ a point,
        one per canonical form."""
        seen, out = set(), []
        found = self.t.call("shifts.blocks", blocks, target, bound)
        self.t.count("shifts.blocks_count", len(found))
        for w in ordered(found):
            if not is_primitive(w) or not is_periodic_point(target, w):
                continue
            t = self.canonical(OmegaTerm(target.alphabet, (Power(w, 0),)))
            key = format_term(t)
            if key not in seen:
                seen.add(key)
                out.append(t)
        return out

    def connector(self, target, e, f):
        """The first middle e·c·f (c empty, then blocks up to length 4)
        lying in the 2-mirage of the target."""
        found = self.t.call("shifts.blocks", blocks, target, 4)
        self.t.count("shifts.blocks_count", len(found))
        for c in [None] + ordered(found):
            mid = self.canonical(e * f if c is None
                                 else e * OmegaTerm.from_word(c) * f)
            self.t.count("flowops.connector_tried")
            if self.t.call("pseudowords.mirage_membership", mirage_membership,
                           mid, target, 2):
                self.t.count("flowops.connector_found")
                return mid
        return None

    def naturality(self, x, letter, bound, seed, diamond="o"):
        ctx = self.t.call("flowops.expand_shift", expand_shift, x, letter,
                          diamond)
        s_tgt, _ = self.t.call("semigroups.syntactic_semigroup",
                               syntactic_semigroup, ctx.target)
        tests = self.battery(ctx.target.alphabet, seed,
                             [(s_tgt, dict(s_tgt.gen_of))])
        idems = self.idempotent_terms(ctx.target, bound)
        rows, ok = [], True
        for e in idems:
            for f in idems:
                mid = self.connector(ctx.target, e, f)
                if mid is None:
                    continue
                arrow = self.canonical(e * mid * f)
                fixed = self.t.call("pseudowords.quotient_equal",
                                    quotient_equal, arrow, mid, tests)
                if fixed.kind != "EqualInAll":
                    raise AssertionError("connector is not an arrow")
                v = self.t.call("flowops.verify_naturality", verify_naturality,
                                (e, mid, f), ctx, tests)
                self.t.count("flowops.arrows")
                rows.append({"dom": format_term(e), "cod": format_term(f),
                             "kind": v.kind, "case": v.note.split(";")[0]})
                ok = ok and v.kind == "EqualInAll"
        return rows, ok

    # -- subcommands --------------------------------------------------------

    def run(self, argv: list[str]) -> dict:
        self.sizes = {}
        return getattr(self, "do_" + argv[0].replace("-", "_"))(argv)

    def do_blocks(self, argv):
        x = self.shift(argv[1])
        found = self.t.call("shifts.blocks", blocks, x, int(opt(argv, "--order")))
        self.t.count("shifts.blocks_count", len(found))
        return {("blocks",): [w.as_str() for w in ordered(found)]}

    def _yield(self, x, p, order):
        self.t.count("shifts.periodic_found", sum(p))
        self.t.count("shifts.periodic_tried", len(blocks(x, order)))

    def do_periodic(self, argv):
        x = self.shift(argv[1])
        order = int(opt(argv, "--order"))
        p, q = self.t.call("shifts.periodic_counts", periodic_counts, x, order)
        self._yield(x, p, order)
        return {("p",): p, ("q",): q}

    def do_zeta(self, argv):
        x = self.shift(argv[1])
        order = int(opt(argv, "--order"))
        z = self.t.call("shifts.zeta", zeta, x, order)
        self._yield(x, z.p, order)
        return {("coefficients",): list(z.coefficients), ("p",): list(z.p),
                ("q",): list(z.q)}

    def do_irreducible(self, argv):
        x = self.shift(argv[1])
        states, _ = self.t.call("shifts.subset_dfa", subset_dfa, x.graph(),
                                x.alphabet)
        self.t.count("shifts.subset_dfa_states", len(states))
        self.sizes["dfa_states"] = len(states)
        return {("irreducible",): self.t.call("shifts.is_irreducible",
                                              is_irreducible, x)}

    def do_syntactic(self, argv):
        s, accept, _ = self.semigroup(self.shift(argv[1]))
        return {("semigroup", "size"): s.size,
                ("semigroup", "table"): [list(r) for r in s.table],
                ("accept",): sorted(accept)}

    def do_green(self, argv):
        s, _, gd = self.semigroup(self.shift(argv[1]))
        return {("size",): s.size, ("summary",): self.green_rows(s, gd),
                ("j_order",): sorted(map(list, gd.j_below))}

    def do_karoubi(self, argv):
        s, accept, gd = self.semigroup(self.shift(argv[1]))
        cat = build(s)
        unmaterialized = s.size > KAROUBI_MATERIALIZE_MAX
        self.t.count("karoubi.objects", len(cat.objects))
        self.t.count("karoubi.unmaterialized", unmaterialized)
        self.sizes.update(karoubi_objects=len(cat.objects),
                          karoubi_unmaterialized=unmaterialized)
        units = self.t.call("semigroups.local_units", local_units, s, accept)
        self.t.count("semigroups.local_units_found", len(units))
        census = self.t.call("karoubi.iso_class_census", iso_class_census, cat)
        pairs = self.t.call("karoubi.retraction_order", retraction_order, cat)
        poset = self.t.call("karoubi.lu_labeled_poset", lu_labeled_poset, s,
                            accept)
        self.poset_sizes(poset)
        return {("size",): s.size, ("objects",): list(cat.objects),
                ("green",): self.green_rows(s, gd),
                ("census",): {str(k): v for k, v in sorted(census.items())},
                ("retraction_pairs",): sorted(map(list, pairs)),
                ("lu_poset_dot",): poset.to_dot()}

    def poset_sizes(self, poset):
        over = len(poset.elements) > POSET_COMPARE_MAX
        self.t.count("karoubi.poset_over_limit", over)
        self.sizes.update(poset_elements=len(poset.elements),
                          poset_over_limit=over)

    def do_lu_poset(self, argv):
        s, accept, gd = self.semigroup(self.shift(argv[1]))
        carrier = range(s.size) if opt(argv, "--carrier") == "all" else accept
        units = self.t.call("semigroups.local_units", local_units, s, carrier)
        self.t.count("semigroups.local_units_found", len(units))
        self.groups(s, gd, sorted({gd.j_of[x] for x in units}))
        poset = self.t.call("karoubi.lu_labeled_poset", lu_labeled_poset, s,
                            carrier)
        self.poset_sizes(poset)
        labels = [{"j_class": e, "regular": reg, "group_order": grp.order,
                   "group_element_orders": grp.element_orders()}
                  for (e, reg, grp) in poset.labels]
        return {("elements",): list(poset.elements),
                ("order",): sorted(map(list, poset.order)),
                ("labels",): labels}

    def do_code(self, argv):
        action = argv[1]
        if action == "centralize":
            phi = self.t.call("codes.centralize", centralize,
                              block_map_from_json(self.files[argv[2]]))
            return {("inner",): block_map_to_json(phi.inner),
                    ("wing",): phi.wing}
        if action == "compose":
            phi = self.t.call("codes.compose", compose, self.central(argv[2]),
                              self.central(argv[3]))
            return {("inner",): block_map_to_json(phi.inner),
                    ("wing",): phi.wing}
        y = self.t.call("codes.apply_to_presentation", apply_to_presentation,
                        self.central(argv[2]), self.shift(argv[3]))
        return {("target",): y.to_json()}

    def do_term(self, argv):
        action, source, text = argv[1], argv[2], argv[3]
        if action == "code":
            phi = self.central(source)
            t = self.parse(phi.source, text)
            img = self.t.call("pseudowords.term_block_code", term_block_code,
                              phi, t)
            return {("image",): format_term(img)}
        x = self.shift(source)
        t = self.parse(x.alphabet, text)
        if action == "factors":
            fs = ordered(term_factors(t, int(opt(argv, "--bound", 4))))
            return {("factors",): [{"word": w.as_str(),
                                    "is_block": is_block(x, w)} for w in fs]}
        s, accept, _ = self.semigroup(x)
        val = eval_term(t, s, dict(s.gen_of))
        member = self.t.call("pseudowords.closure_membership",
                             closure_membership, t, x)
        return {("value",): val, ("in_accept",): val in accept,
                ("closure_membership",): member}

    def do_member(self, argv):
        x = self.shift(argv[1])
        text = argv[2]
        if not any(c in text for c in "()^"):
            return {("is_block",): is_block(x, x.word(text))}
        t = self.parse(x.alphabet, text)
        mirage = {str(k): self.t.call("pseudowords.mirage_membership",
                                      mirage_membership, t, x, k)
                  for k in range(1, int(opt(argv, "--bound", 4)) + 1)}
        return {("closure_membership",): self.t.call(
                    "pseudowords.closure_membership", closure_membership, t, x),
                ("mirage_membership",): mirage}

    def do_expand(self, argv):
        ctx = self.t.call("flowops.expand_shift", expand_shift,
                          self.shift(argv[1]), opt(argv, "--letter"),
                          opt(argv, "--diamond", "o"))
        return {("target",): ctx.target.to_json()}

    def do_classify(self, argv):
        ctx = self.t.call("flowops.expand_shift", expand_shift,
                          self.shift(argv[1]), opt(argv, "--letter"),
                          opt(argv, "--diamond", "o"))
        text = argv[2]
        w = (self.parse(ctx.target.alphabet, text)
             if any(c in text for c in "()^") else ctx.target.word(text))
        return {("type",): self.t.call("flowops.classify_type", classify_type,
                                       w, ctx)}

    def do_flowcheck(self, argv):
        seed = opt(argv, "--seed")
        rows, ok = self.naturality(self.shift(argv[1]), opt(argv, "--letter"),
                                   int(opt(argv, "--bound", 4)),
                                   None if seed is None else int(seed),
                                   opt(argv, "--diamond", "o"))
        return {("arrows",): rows, ("passed",): ok}

    def do_check(self, argv):
        suite = argv[1]
        seed = opt(argv, "--seed")
        if suite in ("word-code-identities", "census-coherence") and seed is None:
            return {("exit",): cli.EXIT_USAGE}
        seed = None if seed is None else int(seed)
        corpus = [(label, n + ".json") for n, label in CORPUS_NAMES.items()]
        if suite == "zeta-integrality":
            return {("details", "coefficients"): {
                label: list(self.t.call("shifts.zeta", zeta, self.shift(f),
                                        10).coefficients)
                for label, f in corpus}}
        if suite == "census-coherence":
            rows = []
            for label, f in corpus:
                s, _, _ = self.semigroup(self.shift(f))
                census = self.t.call("karoubi.iso_class_census",
                                     iso_class_census, build(s))
                rows.append({"name": label,
                             "census": {str(k): v for k, v in census.items()}})
            rng = random.Random(seed)
            ab = Alphabet(("a", "b"))
            for i in range(4):
                s = self.t.call("semigroups.generate",
                                random_transformation_semigroup, ab,
                                rng.randrange(2, 5), rng)
                self.t.count("semigroups.generate_calls")
                if s.size > 60:
                    continue
                census = self.t.call("karoubi.iso_class_census",
                                     iso_class_census, build(s))
                rows.append({"name": f"random-{i}", "census":
                             {str(k): v for k, v in census.items()}})
            return {("details", "semigroups"): rows}
        if suite == "flow-naturality":
            rows, ok = self.naturality(self.shift("even.json"), "a", 4, seed)
            return {("details", "arrows"): rows, ("passed",): ok}
        return {}


@dataclass
class Result:
    metrics: dict
    mismatches: list
    sizes: list
    spans: list
    main_s: float
    replay_s: float
    traced_s: float


def replay_all(jobs, files, tracer: Tracer):
    """(results per job id, sizes per job id, wall seconds)."""
    rep = Replayer(files, tracer)
    results, sizes = {}, {}
    t0 = time.perf_counter()
    for job in jobs:
        tracer.job = job.id
        try:
            results[job.id] = rep.run(job.argv)
        except EmptyShift:
            results[job.id] = {("exit",): cli.EXIT_EMPTY}
        except Exception:  # a job's replay fails alone and is reported
            results[job.id] = {("replay error",): traceback.format_exc()}
        sizes[job.id] = dict(rep.sizes)
    return results, sizes, time.perf_counter() - t0


def main_all(jobs, workdir: Path, tracer: Tracer):
    """Every job through cli.main in-process: {id: (code, stdout)}."""
    out = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for job in jobs:
            tracer.job = job.id
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                try:
                    code = tracer.call("cli.main", cli.main, list(job.argv))
                except SystemExit as e:
                    code = e.code
            out[job.id] = (code, buf.getvalue())
    finally:
        os.chdir(cwd)
    return out


def field(report: dict, path: tuple):
    for key in path:
        report = report[key]
    return report


def compare(job, exec_out: bytes, code: int, text: str, fields: dict) -> list[str]:
    """Reasons the in-process run or the replay disagrees with the
    job's process output; empty when they all agree."""
    if text.encode() != exec_out:
        return ["cli.main output differs from the process output"]
    if ("replay error",) in fields:
        return ["replay raised: " + fields[("replay error",)][-300:]]
    if ("exit",) in fields:
        return [] if fields[("exit",)] == code else ["replay exit code differs"]
    if code != job.expect:
        return [f"cli.main exit code {code}"]
    report = json.loads(text) if text else {}
    # round-trip through JSON so tuples and int keys compare as reported
    return [f"replay differs on {'.'.join(path)}"
            for path, value in fields.items()
            if json.loads(json.dumps(value)) != field(report, path)]


def layer_metrics(tracer: Tracer) -> dict:
    with open(LAYERS, encoding="utf-8") as fh:
        layers = json.load(fh)["per_layer"]
    times = tracer.self_seconds()
    c = tracer.counts
    derived = {
        "shifts.periodic_yield": c["shifts.periodic_found"]
        / max(c["shifts.periodic_tried"], 1),
        "flowops.connector_yield": c["flowops.connector_found"]
        / max(c["flowops.connector_tried"], 1),
        "cli.emit_bytes": c["cli.emit_bytes"],
    }
    out = {}
    for layer in layers:
        name = layer["name"]
        if name in derived:
            value = derived[name]
        elif layer["unit"] == "s":
            value = times.get(name[:-2], 0.0)
        else:
            value = c.get(name, 0)
        out[name] = (value, layer["unit"])
    return out


def run(wl, workdir: Path, execs) -> Result:
    by_id = {e[0].id: e for e in execs}
    tracer = Tracer(True)
    # cli.main goes first and warms the interpreter for both replays
    mains = main_all(wl.jobs, workdir, tracer)
    _, _, plain_s = replay_all(wl.jobs, wl.files, Tracer(False))
    results, sizes, traced_s = replay_all(wl.jobs, wl.files, tracer)
    mismatches = []
    for job in wl.jobs:
        code, text = mains[job.id]
        tracer.counts["cli.emit_bytes"] += len(text.encode())
        for why in compare(job, by_id[job.id][3], code, text, results[job.id]):
            mismatches.append({"job": job.id, "argv": job.argv, "why": why,
                               "stderr": ""})
    metrics = layer_metrics(tracer)
    main_s = sum((t1 - t0) / 1e9 for name, t0, t1, _, _ in tracer.spans
                 if name == "cli.main")
    metrics["bench.trace_overhead_s"] = (traced_s - plain_s, "s")
    return Result(metrics, mismatches,
                  [{"id": j, **s} for j, s in sizes.items()],
                  [{"name": n, "start_ns": a, "end_ns": b, "parent": p,
                    "job": j} for n, a, b, p, j in tracer.spans],
                  main_s, plain_s, traced_s)
