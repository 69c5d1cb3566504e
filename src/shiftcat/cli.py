"""Command-line front end.

Loads presentations, block maps, and terms from JSON, runs the library
computations, and emits deterministic JSON/DOT/text reports.  Exit
codes: 0 success, 1 failed check or runtime error, 2 empty shift,
3 non-integral zeta coefficient, 64 usage error.

Arguments are read against one table, `_COMMANDS`, which also gives
the --help text.  Each subcommand imports the library modules it runs
when it is called, so a process loads only those.
"""

from __future__ import annotations

import os
import sys
from _json import encode_basestring_ascii as _quote
from _json import make_scanner
from itertools import chain, islice, takewhile
from types import GeneratorType, SimpleNamespace

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


# -- reading JSON --------------------------------------------------------
# The json package compiles six regular expressions on import, which no
# well-formed input needs.  Its C scanner, with JSONDecoder's defaults,
# reads the same values; a text it does not take whole goes to json.loads
# for json's own message.

_JSON_SPACE = " \t\n\r"
_scan = make_scanner(SimpleNamespace(
    strict=True, object_hook=None, object_pairs_hook=None,
    parse_float=float, parse_int=int, parse_constant=float))


def _parse_json(text: str, path: str):
    start = len(text) - len(text.lstrip(_JSON_SPACE))
    try:
        value, end = _scan(text, start)
        if end == len(text.rstrip(_JSON_SPACE)):
            return value
    except (StopIteration, ValueError, SystemError):
        # before Python 3.12 the scanner raises its JSONDecodeError only
        # once json.decoder is loaded, and a SystemError until then
        pass
    import json
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None


def _load_json(path: str):
    # ValueError, which main reports as "error: <message>", exit 1
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}") from None
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror or e}") from None
    try:
        return _parse_json(text, path)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


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


# -- the report writer ---------------------------------------------------
# json.dumps with an indent runs the pure-Python encoder, which makes a
# string per item, a list of them all and then the whole report.  _emit
# writes the same bytes in pieces: a batch of ints or strings as one join,
# equal-length int rows through one "%r" template per batch's worth of
# ints, and a generator (the blocks of `blocks`) a batch at a time, so the
# memory a list costs beyond its items is that of one batch or one row.

_BATCH = 1024


def _stdout():
    """sys.stdout, which Python sets to None when the process starts
    with stdout closed: a reader gone before the report, as when a pipe
    is closed."""
    if sys.stdout is None:
        raise BrokenPipeError
    return sys.stdout


def _emit(report: dict) -> None:
    """Write json.dumps(report, indent=2, sort_keys=True) and a newline
    to stdout.  The report holds computed values, or a generator that
    cannot fail, so an error comes before the first byte."""
    write = _stdout().write
    _put(write, report, "\n")
    write("\n")


def _batches(items):
    it = iter(items)
    while batch := list(islice(it, _BATCH)):
        yield batch


def _scalar(v) -> str:
    if type(v) is str:
        return _quote(v)
    if type(v) is int:
        return int.__repr__(v)
    if type(v) is bool:
        return "true" if v else "false"
    if v is None:
        return "null"
    import json     # a float, which no report holds today
    return json.dumps(v)    # a scalar renders alike with or without indent


def _put(write, v, nl: str) -> None:
    """Write v as json.dumps(v, indent=2, sort_keys=True) does at the
    depth whose line break and indent are nl."""
    if isinstance(v, dict):
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(v):
            write(f"{sep}{_quote(k if isinstance(k, str) else _scalar(k))}: ")
            _put(write, v[k], inner)
            sep = "," + inner
        write("{}" if sep[0] == "{" else nl + "}")
    elif isinstance(v, (list, tuple, GeneratorType)):
        inner = nl + "  "
        sep = "[" + inner
        for batch in _batches(v):
            write(sep)
            _put_items(write, batch, inner)
            sep = "," + inner
        write("[]" if sep[0] == "[" else nl + "]")
    else:
        write(_scalar(v))


def _put_items(write, items: list, nl: str) -> None:
    """Write the items of a list, each at the depth of nl, with the
    separators between them."""
    sep = "," + nl
    kinds = set(map(type, items))
    if kinds == {int}:
        write(sep.join(map(int.__repr__, items)))
    elif kinds == {str}:
        write(sep.join(map(_quote, items)))
    elif (kinds <= {list, tuple} and len(set(map(len, items))) == 1
          and items[0] and type(items[0][0]) is int):
        _put_int_rows(write, items, nl)
    else:
        _put_each(write, items, nl)


def _put_each(write, items: list, nl: str) -> None:
    for i, item in enumerate(items):
        if i:
            write("," + nl)
        _put(write, item, nl)


def _put_int_rows(write, rows: list, nl: str) -> None:
    """Write equal-length rows through one "%r" template per group of
    rows holding about _BATCH items; a group holding anything but ints
    is written item by item.

    The repr of an int is its JSON text.  That of any other value a
    report can hold has a character no int's repr has: a float has ".",
    "e" or "n" (inf, nan), True, False and None have "e", a string has
    a quote, a tuple, dict or generator "(", "{" or "<", and a list
    adds a "[" to the rows' own.
    """
    sep = "," + nl
    inner = nl + "  "
    row = f"[{inner}{f',{inner}'.join(['%r'] * len(rows[0]))}{nl}]"
    step = max(1, _BATCH // len(rows[0]))
    for i in range(0, len(rows), step):
        group = rows[i:i + step]
        if i:
            write(sep)
        # tuple() of a tuple, such as a row of a semigroup table, is free
        values = tuple(group[0] if step == 1 else chain(*group))
        text = sep.join([row] * len(group)) % values
        if (text.count("[") == len(group)
                and not any(map(text.__contains__, ".en'\"({<"))):
            write(text)
        else:
            _put_each(write, group, nl)


def _report(schema: str, **fields) -> dict:
    out = {"schema": f"shiftcat/{schema}/v1", "version": __version__}
    out.update(fields)
    return out


def _term_text(arg: str) -> str:
    """The term or word argument, or standard input less its surrounding
    whitespace when it is "-": Linux caps one argv argument at 128 KiB,
    shorter than a long term."""
    if arg != "-":
        return arg
    return sys.stdin.buffer.read().decode("utf-8").strip()


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


def _check_positive(value: int, option: str) -> None:
    # the library's own check would name its parameter, not the option
    if value < 1:
        raise ValueError(f"{option} must be positive")


def cmd_blocks(args) -> int:
    from .shifts import spell_blocks
    _check_positive(args.order, "--order")
    x = _load_shift(args.shift)
    # the store is filled, or refused, here, before any byte is written;
    # a longer symbol makes each block a list of symbols, as
    # words.word_to_json writes it, spaced out in text
    single = x.alphabet.is_single_char()
    images = x.alphabet.symbols if single else [[a] for a in x.alphabet]
    blocks = spell_blocks(x, args.order, images, "" if single else [])
    if args.format == "text":
        write = _stdout().write
        for batch in _batches(blocks if single else map(" ".join, blocks)):
            write("\n".join(batch) + "\n")
    else:
        _emit(_report("blocks", order=args.order, blocks=blocks))
    return EXIT_OK


def cmd_member(args) -> int:
    _check_positive(args.bound, "--bound")
    x = _load_shift(args.shift)
    text = _term_text(args.text)
    if any(c in text for c in "()^"):
        from .pseudowords import (closure_membership, format_term,
                                  mirage_levels, parse_term)
        t = parse_term(x.alphabet, text)
        mir = {str(k): v for k, v in mirage_levels(t, x, args.bound).items()}
        _emit(_report("member", term=format_term(t),
                      closure_membership=closure_membership(t, x),
                      mirage_membership=mir))
    else:
        from .shifts import is_block
        from .words import word_to_json
        w = x.word(text)
        _emit(_report("member", word=word_to_json(w),
                      is_block=is_block(x, w)))
    return EXIT_OK


def cmd_irreducible(args) -> int:
    from .shifts import is_irreducible
    x = _load_shift(args.shift)
    _emit(_report("irreducible", irreducible=is_irreducible(x)))
    return EXIT_OK


def cmd_periodic(args) -> int:
    from .shifts import periodic_counts
    _check_positive(args.order, "--order")
    x = _load_shift(args.shift)
    p, q = periodic_counts(x, args.order)
    _emit(_report("periodic", order=args.order, p=p, q=q))
    return EXIT_OK


def cmd_zeta(args) -> int:
    from .shifts import zeta
    _check_positive(args.order, "--order")
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
                  j_order=sorted(g.j_below)))
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
        retraction_pairs=sorted(retraction_order(cat)),
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
        print(poset.to_dot(), file=_stdout())
    else:
        labels = [{"j_class": e, "regular": reg, "group_order": grp.order,
                   "group_element_orders": grp.element_orders()}
                  for (e, reg, grp) in poset.labels]
        _emit(_report("lu-poset", elements=list(poset.elements),
                      order=sorted(poset.order), labels=labels))
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
        from .pseudowords import eval_term
        from .semigroups import syntactic_semigroup
        x = _load_shift(args.source)
        t = parse_term(x.alphabet, _term_text(args.term))
        s, accept = syntactic_semigroup(x)
        val = eval_term(t, s, dict(s.gen_of))
        # closure membership is this very test: t's value lies in the
        # accepted set of S(X)
        _emit(_report("term-eval", term=format_term(t), value=val,
                      in_accept=val in accept,
                      closure_membership=val in accept))
    elif args.action == "factors":
        from .pseudowords import term_factors
        from .shifts import is_block
        from .words import word_to_json
        _check_positive(args.bound, "--bound")
        x = _load_shift(args.source)
        t = parse_term(x.alphabet, _term_text(args.term))
        fs = sorted(term_factors(t, args.bound),
                    key=lambda w: (len(w), w.lex_key()))
        _emit(_report("term-factors", term=format_term(t), bound=args.bound,
                      factors=[{"word": word_to_json(w),
                                "is_block": is_block(x, w)} for w in fs]))
    else:  # code
        from .pseudowords import term_block_code
        phi = _load_central(args.source)
        t = parse_term(phi.source, _term_text(args.term))
        img = term_block_code(phi, t)
        _emit(_report("term-code", term=format_term(t),
                      image=format_term(img)))
    return EXIT_OK


def cmd_expand(args) -> int:
    from .flowops import expand_shift
    x = _load_shift(args.shift)
    ctx = expand_shift(x, args.letter, args.diamond)
    if args.format == "dot":
        print(ctx.target.to_dot(), file=_stdout())
    else:
        _emit(_report("expand", letter=args.letter, diamond=args.diamond,
                      target=ctx.target.to_json()))
    return EXIT_OK


def cmd_classify(args) -> int:
    from .flowops import classify_type, expand_shift
    from .pseudowords import parse_term
    x = _load_shift(args.shift)
    ctx = expand_shift(x, args.letter, args.diamond)
    text = _term_text(args.text)
    t = parse_term(ctx.target.alphabet, text)
    _emit(_report("classify", input=text, type=classify_type(t, ctx)))
    return EXIT_OK


def cmd_flowcheck(args) -> int:
    from .flowops import expand_shift, naturality_rows
    _check_positive(args.bound, "--bound")
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
    pairs = [(name, syntactic_semigroup(x)[0])
             for name, x in _corpus().items()]
    for i in range(4):
        s = random_transformation_semigroup(ab, rng.randrange(2, 5), rng)
        if s.size <= 60:
            pairs.append((f"random-{i}", s))
    rows = [{"name": name, "census": {str(k): v for k, v in
                                      iso_class_census(build(s)).items()}}
            for name, s in pairs]
    return True, {"semigroups": rows}


def _suite_mirage_preservation(seed: int | None) -> tuple[bool, dict]:
    from .flowops import expand_shift
    from .pseudowords import expand_word
    from .shifts import is_block, ordered_blocks
    x = _corpus()["even"]
    ctx = expand_shift(x, "a")
    b = ctx.target.alphabet
    checked = 0
    # each block w counts once per length bound n = |w|, ..., 7
    for w in ordered_blocks(x, 7):
        img = expand_word(w, "a", b, "o")
        if not is_block(ctx.target, img):
            return False, {"failure": w.as_str()}
        checked += 8 - len(w)
    return True, {"checked": checked}


def _suite_flow_naturality(seed: int | None) -> tuple[bool, dict]:
    from .flowops import expand_shift, naturality_rows
    ctx = expand_shift(_corpus()["even"], "a")
    rows = list(naturality_rows(ctx, 4, seed))
    return all(row["kind"] == "EqualInAll" for row in rows), {"arrows": rows}


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


# -- the command table ---------------------------------------------------
# Each subcommand: (handler, help line, positionals, options).  A
# positional or option maps its name to (kind, default): kind is str,
# int or a tuple of choices, and the default is _REQUIRED for an
# argument that must be given.  Only the last positional may be
# optional.  The handler reads each argument as the attribute of its
# name without dashes.

_REQUIRED = object()
_SHIFT = {"shift": (str, _REQUIRED)}
_TEXT = {"text": (str, _REQUIRED)}
_ORDER = {"--order": (int, _REQUIRED)}
_LETTER = {"--letter": (str, _REQUIRED), "--diamond": (str, "o")}

_COMMANDS = {
    "blocks": (cmd_blocks, "blocks of a shift up to a length", _SHIFT,
               {**_ORDER, "--format": (("json", "text"), "json")}),
    "member": (cmd_member, 'block or closure membership ("-": text on stdin)',
               {**_SHIFT, **_TEXT}, {"--bound": (int, 4)}),
    "irreducible": (cmd_irreducible, "irreducibility test", _SHIFT, {}),
    "periodic": (cmd_periodic, "periodic point counts", _SHIFT, _ORDER),
    "zeta": (cmd_zeta, "zeta series coefficients", _SHIFT, _ORDER),
    "syntactic": (cmd_syntactic, "syntactic semigroup", _SHIFT, {}),
    "green": (cmd_green, "Green's relations summary", _SHIFT, {}),
    "karoubi": (cmd_karoubi, "Karoubi envelope report", _SHIFT, {}),
    "lu-poset": (cmd_lu_poset, "labeled local-unit poset", _SHIFT,
                 {"--carrier": (("accept", "all"), "accept"),
                  "--format": (("json", "dot"), "json")}),
    "code": (cmd_code, "block-code operations",
             {"action": (("apply", "compose", "centralize"), _REQUIRED),
              "code": (str, _REQUIRED), "second": (str, None)}, {}),
    "term": (cmd_term, 'ω-term operations ("-": term on stdin)',
             {"action": (("eval", "factors", "code"), _REQUIRED),
              "source": (str, _REQUIRED), "term": (str, _REQUIRED)},
             {"--bound": (int, 4)}),
    "expand": (cmd_expand, "symbol expansion of a shift", _SHIFT,
               {**_LETTER, "--format": (("json", "dot"), "json")}),
    "classify": (cmd_classify, 'five-type classification ("-": text on '
                 'stdin)', {**_SHIFT, **_TEXT}, _LETTER),
    "flowcheck": (cmd_flowcheck, "naturality verification", _SHIFT,
                  {**_LETTER, "--bound": (int, 4), "--seed": (int, None)}),
    "check": (cmd_check, "run a named invariant suite",
              {"suite": (str, _REQUIRED)}, {"--seed": (int, None)}),
}

# -- argument parsing ----------------------------------------------------
# argparse's reading of the table, without building a parser per command:
# options may come before, between or after positionals, as "--opt v" or
# "--opt=v" or by a unique prefix; "--" ends the options.


class _UsageError(Exception):
    pass


_HELP = ("-h", "--help")


def _option(tok: str, names) -> tuple[str | None, str | None] | None:
    """None when tok is a positional ("-", "-1" and text with a space
    are), else (the option it names or None if unknown, its "=" value)."""
    if tok[:1] != "-" or tok == "-":
        return None
    if tok in names:
        return tok, None
    if tok[1] != "-":                    # "-hx" and "-h=x" name -h
        if tok[:2] in names:
            return tok[:2], tok[2:].removeprefix("=")
    else:
        name, eq, value = tok.partition("=")
        found = ([name] if name in names
                 else [n for n in names if n.startswith(name)])
        if len(found) > 1:
            raise _UsageError(f"ambiguous option: {tok} could match "
                              f"{', '.join(found)}")
        if found:
            return found[0], value if eq else None
    return None if _negative_number(tok) or " " in tok else (None, None)


def _negative_number(tok: str) -> bool:
    r"""Whether tok, which starts with "-", matches argparse's
    ^-\d+$|^-\d*\.\d+$, where \d is a decimal digit and $ also matches
    before one final newline."""
    whole, dot, frac = tok[1:].removesuffix("\n").partition(".")
    if dot:
        return frac.isdecimal() and (not whole or whole.isdecimal())
    return whole.isdecimal()


def _value(name: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise _UsageError(f"argument {name}: invalid int value: "
                              f"{text!r}") from None
    if kind is not str and text not in kind:
        raise _UsageError(f"argument {name}: invalid choice: {text!r} "
                          f"(choose from {', '.join(map(repr, kind))})")
    return text


def _flag(name: str, value: str | None, text: str) -> SimpleNamespace:
    """-h, --help and --version: they take no value and print text."""
    if value is not None:
        shown = "/".join(_HELP) if name in _HELP else name
        raise _UsageError(f"argument {shown}: ignored explicit argument "
                          f"{value!r}")
    return SimpleNamespace(func=_print_text, text=text)


def _parse(argv: list[str]) -> SimpleNamespace:
    for tok in takewhile("--".__ne__, argv):     # argparse's top level
        _option(tok, (*_HELP, "--version"))     # reads every token first
    extras: list[str] = []
    for i, tok in enumerate(argv):
        opt = None if tok == "--" else _option(tok, (*_HELP, "--version"))
        if opt is None:
            break
        if opt[0] is not None:
            return _flag(*opt, _help() if opt[0] in _HELP else __version__)
        extras.append(tok)
    else:
        raise _UsageError("the following arguments are required: command")
    command = _value("command", tuple(_COMMANDS), tok)
    func, _, positionals, options = _COMMANDS[command]
    args = SimpleNamespace(command=command, func=func)
    for name, (_, default) in (positionals | options).items():
        setattr(args, name.lstrip("-"),
                None if default is _REQUIRED else default)
    names = (*_HELP, *options)
    pending = list(positionals.items())
    given = set()
    run: list[str] = []

    def take() -> None:
        # a run of positionals fills the pending ones in order; as in
        # argparse, the optional last one is settled by the run that
        # fills every one before it, and what is left over is unknown
        while pending:
            name, (kind, default) = pending[0]
            if not run and default is _REQUIRED:
                break
            del pending[0]
            if run:
                setattr(args, name, _value(name, kind, run.pop(0)))
        extras.extend(run)
        run.clear()

    tokens = iter(argv[i + 1:])
    for tok in tokens:
        if tok == "--":                  # the rest is positional
            run.extend(tokens)
            break
        opt = _option(tok, names)
        if opt is None:
            run.append(tok)
            continue
        take()
        name, value = opt
        if name in _HELP:
            return _flag(name, value, _help(command))
        if name is None:
            extras.append(tok)
            continue
        if value is None:
            value = next(tokens, "--")
            if value == "--" or _option(value, names) is not None:
                raise _UsageError(f"argument {name}: expected one argument")
        setattr(args, name.lstrip("-"), _value(name, options[name][0], value))
        given.add(name)
    take()
    missing = [name for name, (_, default) in pending if default is _REQUIRED]
    missing += [name for name, (_, default) in options.items()
                if default is _REQUIRED and name not in given]
    if missing:
        raise _UsageError("the following arguments are required: "
                          f"{', '.join(missing)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _metavar(name: str, kind) -> str:
    if kind is str or kind is int:
        return name.lstrip("-").upper() if name[0] == "-" else name
    return "{" + ",".join(kind) + "}"


def _help(command: str | None = None) -> str:
    """The --help text, generated from the command table."""
    if command is None:
        width = max(map(len, _COMMANDS)) + 2
        return "\n".join([
            "usage: shiftcat [-h] [--version] <command> ...", "",
            *(__doc__ or "").split("\n\n")[1:2], "", "commands:",
            *(f"  {name:{width}}{entry[1]}"
              for name, entry in _COMMANDS.items()), "",
            "options:", "  -h, --help  show this help and exit",
            "  --version   show the version and exit", "",
            "`shiftcat <command> --help` lists the arguments of a command."])
    _, about, positionals, options = _COMMANDS[command]
    usage, rows = [f"usage: shiftcat {command} [-h]"], []
    for name, (kind, default) in (positionals | options).items():
        shown = _metavar(name, kind)
        if name[0] == "-":
            shown = f"{name} {shown}"
        usage.append(shown if default is _REQUIRED else f"[{shown}]")
        rows.append((shown, "required" if default is _REQUIRED else
                     "" if default is None else f"default: {default}"))
    width = max(len(shown) for shown, _ in rows) + 2
    return "\n".join([" ".join(usage), "", about, "", "arguments:",
                      *(f"  {shown:{width}}{note}".rstrip()
                        for shown, note in rows),
                      f"  {'-h, --help':{width}}show this help and exit"])


def _print_text(args) -> int:
    print(args.text, file=_stdout())
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()      # a reader gone shows here at the latest
        return code
    except BrokenPipeError:
        # the reader closed stdout early; send what is still buffered to
        # devnull so that a later flush cannot raise again
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print("error: stdout was closed before the report was written",
              file=sys.stderr)
        return EXIT_FAIL
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


def _hooked() -> bool:
    """Whether a tracer, profiler or debugger (coverage, cProfile, pdb)
    is attached; such a tool writes its data at the normal exit."""
    monitoring = getattr(sys, "monitoring", None)    # Python 3.12+
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or (monitoring is not None
                and any(map(monitoring.get_tool, range(6)))))


def run() -> None:
    """The process entry point: main(), the output flushed, then an exit
    that skips the interpreter's teardown of every module and object,
    which costs several milliseconds a process.  Every computation and
    check has finished when main returns.  Under a trace or profile hook
    the exit is the normal one; an exception escaping main is a bug and
    keeps its traceback."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    if not _hooked():
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
