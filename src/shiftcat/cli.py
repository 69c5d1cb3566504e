"""Command-line front end.

Loads presentations, block maps, and terms from JSON, runs the library
computations, and emits deterministic JSON/DOT/text reports.  Exit
codes: 0 success, 1 failed check or runtime error, 2 empty shift,
3 non-integral zeta coefficient, 64 usage error.

Each subcommand imports the library modules it runs when it is called,
so a process loads only those.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import EmptyShift, NonIntegralCoefficient, ShiftcatError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .codes import CentralBlockMap
    from .shifts import ShiftPresentation

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_EMPTY = 2
EXIT_NONINTEGRAL = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"usage error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        sys.exit(EXIT_FAIL)
    except OSError as e:
        print(f"error: cannot read {path}: {e.strerror or e}", file=sys.stderr)
        sys.exit(EXIT_FAIL)
    except json.JSONDecodeError as e:
        print(f"error: {path}:{e.lineno}:{e.colno}: {e.msg}", file=sys.stderr)
        sys.exit(EXIT_FAIL)


def _load_shift(path: str) -> ShiftPresentation:
    from .shifts import ShiftPresentation
    return ShiftPresentation.from_json(_load_json(path))


def _load_central(path: str) -> CentralBlockMap:
    from .codes import CentralBlockMap, block_map_from_json, centralize
    data = _load_json(path)
    if isinstance(data, dict) and "inner" in data:
        wing = data.get("wing")
        if type(wing) is not int or wing < 0:
            raise ValueError("central block map needs a non-negative "
                             "integer 'wing'")
        return CentralBlockMap(block_map_from_json(data["inner"]), wing)
    return centralize(block_map_from_json(data))


def _central_to_json(phi: CentralBlockMap) -> dict:
    from .codes import block_map_to_json
    return {"schema": "shiftcat/central-block-map/v1",
            "inner": block_map_to_json(phi.inner), "wing": phi.wing}


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _report(schema: str, **fields) -> dict:
    out = {"schema": f"shiftcat/{schema}/v1", "version": __version__}
    out.update(fields)
    return out


def _is_term_text(text: str) -> bool:
    return any(c in text for c in "()^")


def _green_summary(s) -> list[dict]:
    from .semigroups import green
    g = green(s)
    out = []
    for jid, cls in enumerate(g.J):
        rs = {g.r_of[x] for x in cls}
        ls = {g.l_of[x] for x in cls}
        hs = {g.h_of[x] for x in cls}
        idems = [x for x in cls if s.is_idempotent(x)]
        out.append({"j_class": jid, "size": len(cls),
                    "r_classes": len(rs), "l_classes": len(ls),
                    "h_classes": len(hs), "idempotents": len(idems),
                    "regular": g.regular[jid]})
    return out


# -- subcommands ---------------------------------------------------------


def cmd_blocks(args) -> int:
    from .shifts import blocks
    x = _load_shift(args.shift)
    out = [w.as_str() for w in sorted(blocks(x, args.order),
                                      key=lambda v: (len(v), v.lex_key()))]
    if args.format == "text":
        print("\n".join(out))
    else:
        _emit(_report("blocks", order=args.order, blocks=out))
    return EXIT_OK


def cmd_member(args) -> int:
    if args.bound < 1:
        raise ValueError("--bound must be positive")
    x = _load_shift(args.shift)
    if _is_term_text(args.text):
        from .pseudowords import (closure_membership, format_term,
                                  mirage_membership, parse_term)
        t = parse_term(x.alphabet, args.text)
        mir = {str(k): mirage_membership(t, x, k)
               for k in range(1, args.bound + 1)}
        _emit(_report("member", term=format_term(t),
                      closure_membership=closure_membership(t, x),
                      mirage_membership=mir))
    else:
        from .shifts import is_block
        w = x.word(args.text)
        _emit(_report("member", word=w.as_str(), is_block=is_block(x, w)))
    return EXIT_OK


def cmd_irreducible(args) -> int:
    from .shifts import is_irreducible
    x = _load_shift(args.shift)
    _emit(_report("irreducible", irreducible=is_irreducible(x)))
    return EXIT_OK


def cmd_periodic(args) -> int:
    from .shifts import periodic_counts
    x = _load_shift(args.shift)
    p, q = periodic_counts(x, args.order)
    _emit(_report("periodic", order=args.order, p=p, q=q))
    return EXIT_OK


def cmd_zeta(args) -> int:
    from .shifts import zeta
    x = _load_shift(args.shift)
    z = zeta(x, args.order)
    _emit(_report("zeta", order=args.order, p=list(z.p), q=list(z.q),
                  coefficients=[int(c) for c in z.coefficients]))
    return EXIT_OK


def cmd_syntactic(args) -> int:
    from .semigroups import syntactic_semigroup
    x = _load_shift(args.shift)
    s, accept = syntactic_semigroup(x)
    _emit(_report("syntactic", semigroup=s.to_json(),
                  accept=sorted(accept)))
    return EXIT_OK


def cmd_green(args) -> int:
    from .semigroups import green, syntactic_semigroup
    x = _load_shift(args.shift)
    s, _ = syntactic_semigroup(x)
    g = green(s)
    _emit(_report("green", size=s.size, summary=_green_summary(s),
                  j_order=sorted(map(list, g.j_below))))
    return EXIT_OK


def cmd_karoubi(args) -> int:
    from .karoubi import (build, iso_class_census, lu_labeled_poset,
                          retraction_order)
    from .semigroups import syntactic_semigroup
    x = _load_shift(args.shift)
    s, accept = syntactic_semigroup(x)
    cat = build(s)
    census = iso_class_census(cat)
    poset = lu_labeled_poset(s, accept)
    _emit(_report(
        "karoubi", size=s.size, objects=list(cat.objects),
        green=_green_summary(s),
        census={str(k): v for k, v in sorted(census.items())},
        retraction_pairs=sorted(map(list, retraction_order(cat))),
        lu_poset_dot=poset.to_dot()))
    return EXIT_OK


def cmd_lu_poset(args) -> int:
    from .karoubi import lu_labeled_poset
    from .semigroups import syntactic_semigroup
    x = _load_shift(args.shift)
    s, accept = syntactic_semigroup(x)
    k = range(s.size) if args.carrier == "all" else accept
    poset = lu_labeled_poset(s, k)
    if args.format == "dot":
        print(poset.to_dot())
    else:
        labels = [{"j_class": e, "regular": reg, "group_order": grp.order,
                   "group_element_orders": grp.element_orders()}
                  for (e, reg, grp) in poset.labels]
        _emit(_report("lu-poset", elements=list(poset.elements),
                      order=sorted(map(list, poset.order)), labels=labels))
    return EXIT_OK


def cmd_code(args) -> int:
    if (args.second is None) != (args.action == "centralize"):
        need = "one path" if args.action == "centralize" else "a second path"
        print(f"usage error: code {args.action} takes {need}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.action == "centralize":
        from .codes import block_map_from_json, centralize
        phi = centralize(block_map_from_json(_load_json(args.code)))
        _emit(_central_to_json(phi))
    elif args.action == "compose":
        from .codes import compose
        phi = _load_central(args.code)
        psi = _load_central(args.second)
        _emit(_central_to_json(compose(phi, psi)))
    else:  # apply
        from .codes import apply_to_presentation
        phi = _load_central(args.code)
        x = _load_shift(args.second)
        y = apply_to_presentation(phi, x)
        _emit(_report("code-apply", target=y.to_json()))
    return EXIT_OK


def cmd_term(args) -> int:
    from .pseudowords import format_term, parse_term
    if args.action == "eval":
        from .pseudowords import closure_membership, eval_term
        from .semigroups import syntactic_semigroup
        x = _load_shift(args.source)
        t = parse_term(x.alphabet, args.term)
        s, accept = syntactic_semigroup(x)
        val = eval_term(t, s, dict(s.gen_of))
        _emit(_report("term-eval", term=format_term(t), value=val,
                      in_accept=val in accept,
                      closure_membership=closure_membership(t, x)))
    elif args.action == "factors":
        from .pseudowords import term_factors
        from .shifts import is_block
        x = _load_shift(args.source)
        t = parse_term(x.alphabet, args.term)
        fs = sorted(term_factors(t, args.bound),
                    key=lambda w: (len(w), w.lex_key()))
        _emit(_report("term-factors", term=format_term(t), bound=args.bound,
                      factors=[{"word": w.as_str(),
                                "is_block": is_block(x, w)} for w in fs]))
    else:  # code
        from .pseudowords import term_block_code
        phi = _load_central(args.source)
        t = parse_term(phi.source, args.term)
        img = term_block_code(phi, t)
        _emit(_report("term-code", term=format_term(t),
                      image=format_term(img)))
    return EXIT_OK


def cmd_expand(args) -> int:
    from .flowops import expand_shift
    x = _load_shift(args.shift)
    ctx = expand_shift(x, args.letter, args.diamond)
    if args.format == "dot":
        print(ctx.target.to_dot())
    else:
        _emit(_report("expand", letter=args.letter, diamond=args.diamond,
                      target=ctx.target.to_json()))
    return EXIT_OK


def cmd_classify(args) -> int:
    from .flowops import classify_type, expand_shift
    from .pseudowords import parse_term
    x = _load_shift(args.shift)
    ctx = expand_shift(x, args.letter, args.diamond)
    b = ctx.target.alphabet
    w = (parse_term(b, args.text) if _is_term_text(args.text)
         else ctx.target.word(args.text))
    _emit(_report("classify", input=args.text,
                  type=classify_type(w, ctx)))
    return EXIT_OK


def cmd_flowcheck(args) -> int:
    from .flowops import expand_shift, naturality_rows
    x = _load_shift(args.shift)
    ctx = expand_shift(x, args.letter, args.diamond)
    rows = list(naturality_rows(ctx, args.bound, args.seed))
    ok = all(row["kind"] == "EqualInAll" for row in rows)
    _emit(_report("flowcheck", letter=args.letter, bound=args.bound,
                  arrows=rows, passed=ok))
    return EXIT_OK if ok else EXIT_FAIL


# -- named check suites --------------------------------------------------


def _corpus() -> dict[str, ShiftPresentation]:
    from .shifts import ShiftPresentation
    from .words import Alphabet, Word
    ab = Alphabet(("a", "b"))
    abcd = Alphabet(("a", "b", "c", "d"))
    return {
        "golden-mean": ShiftPresentation.sft(ab, ["bb"]),
        "even": ShiftPresentation.sofic(ab, ["0", "1"],
                                        [("0", "a", "0"), ("0", "b", "1"),
                                         ("1", "b", "0")]),
        "full-2": ShiftPresentation.full_shift(ab),
        "periodic-ab": ShiftPresentation.orbit(Word.from_str(ab, "ab")),
        "fixed-point": ShiftPresentation.orbit(Word.from_str(ab, "a")),
        "marker-cycle": ShiftPresentation.sofic(
            abcd, ["1", "2", "3"],
            [("1", "a", "1"), ("2", "a", "2"), ("3", "a", "3"),
             ("1", "b", "2"), ("2", "c", "3"), ("3", "d", "1")]),
    }


def _suite_word_code_identities(seed: int) -> tuple[bool, dict]:
    import random

    from .codes import higher_block_map, lambda_first_letter, word_code
    from .words import Alphabet, Word
    rng = random.Random(seed)
    ab = Alphabet(("a", "b"))
    checked = 0
    for n in (2, 3, 4):
        ups = higher_block_map(ab, n)
        lam = lambda_first_letter(ab, n)
        for _ in range(500):
            length = rng.randrange(1, 9)
            u = Word(ab, tuple(rng.choice(ab.symbols) for _ in range(length)))
            v = Word(ab, tuple(rng.choice(ab.symbols) for _ in range(n - 1)))
            img = word_code(lam, word_code(ups, u * v))
            if img != u:
                return False, {"failure": {"n": n, "u": u.as_str(),
                                           "v": v.as_str()}}
            checked += 1
    return True, {"checked": checked}


def _suite_zeta_integrality(seed: int | None) -> tuple[bool, dict]:
    from .shifts import zeta
    out = {}
    for name, x in _corpus().items():
        z = zeta(x, 10)
        out[name] = [int(c) for c in z.coefficients]
    return True, {"coefficients": out}


def _suite_census_coherence(seed: int) -> tuple[bool, dict]:
    import random

    from .karoubi import build, iso_class_census
    from .semigroups import (random_transformation_semigroup,
                             syntactic_semigroup)
    from .words import Alphabet
    rng = random.Random(seed)
    ab = Alphabet(("a", "b"))
    rows = []
    for name, x in _corpus().items():
        s, _ = syntactic_semigroup(x)
        census = iso_class_census(build(s))
        rows.append({"name": name, "census": {str(k): v
                                              for k, v in census.items()}})
    for i in range(4):
        s = random_transformation_semigroup(ab, rng.randrange(2, 5), rng)
        if s.size > 60:
            continue
        census = iso_class_census(build(s))
        rows.append({"name": f"random-{i}", "census":
                     {str(k): v for k, v in census.items()}})
    return True, {"semigroups": rows}


def _suite_mirage_preservation(seed: int | None) -> tuple[bool, dict]:
    from .flowops import expand_shift
    from .pseudowords import expand_word
    from .shifts import blocks, is_block
    x = _corpus()["even"]
    ctx = expand_shift(x, "a")
    b = ctx.target.alphabet
    checked = 0
    for n in range(1, 8):
        for w in blocks(x, n):
            img = expand_word(w, "a", b, "o")
            if not is_block(ctx.target, img):
                return False, {"failure": w.as_str()}
            checked += 1
    return True, {"checked": checked}


def _suite_flow_naturality(seed: int | None) -> tuple[bool, dict]:
    from .flowops import expand_shift, naturality_rows
    rows = []
    for row in naturality_rows(expand_shift(_corpus()["even"], "a"), 4, seed):
        rows.append(row)
        if row["kind"] != "EqualInAll":
            return False, {"arrows": rows}
    return True, {"arrows": rows}


_SUITES = {
    "word-code-identities": (_suite_word_code_identities, True),
    "zeta-integrality": (_suite_zeta_integrality, False),
    "census-coherence": (_suite_census_coherence, True),
    "mirage-preservation": (_suite_mirage_preservation, False),
    "flow-naturality": (_suite_flow_naturality, False),
}


def cmd_check(args) -> int:
    entry = _SUITES.get(args.suite)
    if entry is None:
        print(f"usage error: unknown suite {args.suite!r}; known: "
              f"{', '.join(sorted(_SUITES))}", file=sys.stderr)
        return EXIT_USAGE
    fn, needs_seed = entry
    if needs_seed and args.seed is None:
        print(f"usage error: suite {args.suite!r} is randomized; --seed is "
              "required", file=sys.stderr)
        return EXIT_USAGE
    ok, details = fn(args.seed)
    _emit(_report("check", suite=args.suite, seed=args.seed, passed=ok,
                  details=details))
    return EXIT_OK if ok else EXIT_FAIL


# -- argument parsing ----------------------------------------------------


def _build_parser() -> _Parser:
    p = _Parser(prog="shiftcat", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(func=fn)
        return sp

    sp = add("blocks", cmd_blocks, help="blocks of a shift up to a length")
    sp.add_argument("shift")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--format", choices=["json", "text"], default="json")

    sp = add("member", cmd_member, help="block or closure membership")
    sp.add_argument("shift")
    sp.add_argument("text")
    sp.add_argument("--bound", type=int, default=4)

    sp = add("irreducible", cmd_irreducible, help="irreducibility test")
    sp.add_argument("shift")

    sp = add("periodic", cmd_periodic, help="periodic point counts")
    sp.add_argument("shift")
    sp.add_argument("--order", type=int, required=True)

    sp = add("zeta", cmd_zeta, help="zeta series coefficients")
    sp.add_argument("shift")
    sp.add_argument("--order", type=int, required=True)

    sp = add("syntactic", cmd_syntactic, help="syntactic semigroup")
    sp.add_argument("shift")

    sp = add("green", cmd_green, help="Green's relations summary")
    sp.add_argument("shift")

    sp = add("karoubi", cmd_karoubi, help="Karoubi envelope report")
    sp.add_argument("shift")

    sp = add("lu-poset", cmd_lu_poset, help="labeled local-unit poset")
    sp.add_argument("shift")
    sp.add_argument("--carrier", choices=["accept", "all"], default="accept")
    sp.add_argument("--format", choices=["json", "dot"], default="json")

    sp = add("code", cmd_code, help="block-code operations")
    sp.add_argument("action", choices=["apply", "compose", "centralize"])
    sp.add_argument("code")
    sp.add_argument("second", nargs="?")

    sp = add("term", cmd_term, help="ω-term operations")
    sp.add_argument("action", choices=["eval", "factors", "code"])
    sp.add_argument("source")
    sp.add_argument("term")
    sp.add_argument("--bound", type=int, default=4)

    sp = add("expand", cmd_expand, help="symbol expansion of a shift")
    sp.add_argument("shift")
    sp.add_argument("--letter", required=True)
    sp.add_argument("--diamond", default="o")
    sp.add_argument("--format", choices=["json", "dot"], default="json")

    sp = add("classify", cmd_classify, help="five-type classification")
    sp.add_argument("shift")
    sp.add_argument("text")
    sp.add_argument("--letter", required=True)
    sp.add_argument("--diamond", default="o")

    sp = add("flowcheck", cmd_flowcheck, help="naturality verification")
    sp.add_argument("shift")
    sp.add_argument("--letter", required=True)
    sp.add_argument("--diamond", default="o")
    sp.add_argument("--bound", type=int, default=4)
    sp.add_argument("--seed", type=int)

    sp = add("check", cmd_check, help="run a named invariant suite")
    sp.add_argument("suite")
    sp.add_argument("--seed", type=int)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EmptyShift as e:
        print(f"error: empty shift: {e}", file=sys.stderr)
        return EXIT_EMPTY
    except NonIntegralCoefficient as e:
        print(f"error: non-integral zeta coefficient: {e}", file=sys.stderr)
        return EXIT_NONINTEGRAL
    except ShiftcatError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
