"""Symbol expansion and the flow functors on term arrows.

Expanding a symbol α inserts a fresh marker ◊ after every occurrence:
at the shift level every α-labeled edge is split in two, and at the
word/term level the homomorphism E maps α to α·◊ while C deletes ◊.
This module builds expansion contexts, classifies the words and terms
of the expanded shift into the five shapes that mirage membership at
level 2 permits, applies the functors F (expand) and G (contract) to
arrows of idempotent terms, and verifies the commuting square that
makes the family η a natural isomorphism.
"""

from __future__ import annotations

from .errors import (ClassificationFailure, InvalidArrow, MismatchBug,
                     NotIdempotentWitness, NotInMirage2, SizeLimit)
from .pseudowords import (OmegaTerm, Verdict, canonical, check_arrow,
                          check_equal_in_quotients, connector, format_term,
                          idempotent_terms, image_E_membership,
                          mirage_membership, quotient_equal, term_contract,
                          term_expand, unroll)
from .semigroups import battery, syntactic_semigroup
from .shifts import ShiftPresentation, mirage_membership_k, reads_alike
from .words import Alphabet, Record, Word

TYPES = ("Letter", "ImageE", "DiamondImageE", "ImageEAlpha",
         "DiamondImageEAlpha")


class ExpansionContext(Record):
    """A shift, a letter to expand, the marker, and the expanded shift."""

    __slots__ = ("source", "letter", "diamond", "target")
    source: ShiftPresentation
    letter: str
    diamond: str
    target: ShiftPresentation


# the mirage level of the expanded shift that the five types describe;
# contraction halves it on the source side
_LEVEL = 2


def _characterization_check(ctx: ExpansionContext):
    """u is a block of the source exactly when E(u) is one of the target,
    for every u, by one walk of shifts.reads_alike on their subset
    automata.  So expanded source
    blocks are target blocks, and the E-shaped target blocks
    (image_E_membership), being the images E(u), contract to source
    blocks."""
    steps = [((a,), (a, ctx.diamond) if a == ctx.letter else (a,))
             for a in ctx.source.alphabet.symbols]
    if not reads_alike(ctx.source.subset_automaton(),
                       ctx.target.subset_automaton(), steps):
        raise MismatchBug("the expanded presentation and the source "
                          "disagree on the expansion of a word")


def expand_shift(x: ShiftPresentation, alpha: str,
                 diamond: str = "o") -> ExpansionContext:
    """Split every alpha-labeled edge through a fresh marker vertex.

    Each alpha edge src -> dst becomes src -(alpha)-> mid -(◊)-> dst
    with its own mid vertex, which keeps deterministic presentations
    deterministic and makes the expanded language exactly the factors
    of marker-inserted source lines.
    """
    if alpha not in x.alphabet:
        raise ValueError(f"{alpha!r} is not in the alphabet")
    if diamond in x.alphabet:
        raise ValueError(f"marker {diamond!r} is not fresh")
    g = x.graph()
    b_alpha = Alphabet(x.alphabet.symbols + (diamond,))
    order = sorted(g.vertices, key=str)
    names = {v: f"v{i}" for i, v in enumerate(order)}
    vertices = [names[v] for v in order]
    edges: list[tuple[str, str, str]] = []
    mid = 0
    for (s, lab, d) in sorted(g.edges, key=str):
        if lab == alpha:
            m = f"m{mid}"
            mid += 1
            vertices.append(m)
            edges.append((names[s], alpha, m))
            edges.append((m, diamond, names[d]))
        else:
            edges.append((names[s], lab, names[d]))
    target = ShiftPresentation.sofic(b_alpha, vertices, edges)
    ctx = ExpansionContext(x, alpha, diamond, target)
    _characterization_check(ctx)
    return ctx


# -- the five-type classification --------------------------------------


def _letter_term(ctx: ExpansionContext, a: str) -> OmegaTerm:
    return OmegaTerm.from_word(Word(ctx.target.alphabet, (a,)))


def classify_type(w, ctx: ExpansionContext) -> str:
    """The unique shape of a 2-mirage word or term of the expanded shift.

    Exactly one of: a bare marker or expanded letter; an expanded word;
    an expanded word with a leading marker; an expanded word with a
    trailing expanded letter; or both decorations at once.  A word is
    classified as the plain term of its letters.

    The boundary letters fix the shape: lead is whether the term starts
    with ◊ and trail whether it ends with α.  The core between them must
    lie in the image of E, and two independent tests must agree on that:
    the local conditions on the core of an unrolling that exposes every
    junction, and the round trip ◊^lead·E(C(t)) = t·◊^trail on canonical
    forms.
    """
    return _classify(w, ctx)[0]


def _classify(w, ctx: ExpansionContext):
    # the type of w and, when the core between the boundary letters is
    # nonempty, the image E(C(t)) of its canonical form t, or None
    alpha, dia = ctx.letter, ctx.diamond
    t = canonical(OmegaTerm.from_word(w) if isinstance(w, Word) else w)
    if not t.body:
        raise ValueError("the empty word has no type")
    letters = unroll(t, _LEVEL).letters
    if not mirage_membership_k(ctx.target, Word(t.alphabet, letters), _LEVEL):
        raise NotInMirage2(f"a factor of length <= {_LEVEL} is not a block "
                           "of the expanded shift")
    lead, trail = letters[0] == dia, letters[-1] == alpha
    core = letters[lead:len(letters) - trail]
    if not core:
        # a lone ◊ or α, or ◊·α
        return ("DiamondImageEAlpha" if lead and trail else "Letter"), None
    local = image_E_membership(Word(t.alphabet, core), alpha, dia)
    # the core holds a letter other than ◊: it would start with ◊ only
    # after a leading ◊, and ◊◊ is no block of the expanded shift
    image = term_expand_of_contract(t, ctx)
    marker = _letter_term(ctx, dia)
    roundtrip = ((canonical(marker * image) if lead else image)
                 == (canonical(t * marker) if trail else t))
    if local != roundtrip:
        raise MismatchBug("local expansion-image test disagrees with the "
                          "round trip")
    if not local:
        raise ClassificationFailure("expected exactly one type, got none")
    return TYPES[1 + lead + 2 * trail], image


# -- the flow functors --------------------------------------------------


def functor_F(arrow, ctx: ExpansionContext, tests=()):
    """Componentwise expansion of an arrow of terms over the source."""
    check_arrow(arrow, tests)
    for comp in arrow:
        if not mirage_membership(comp, ctx.source, _LEVEL):
            raise InvalidArrow("component is not a mirage member of the "
                               "source shift")
    img = tuple(term_expand(c, ctx.letter, ctx.diamond) for c in arrow)
    for comp in img:
        if not mirage_membership(comp, ctx.target, _LEVEL):
            raise MismatchBug("expanded component left the mirage of the "
                              "expanded shift")
    return img


def functor_G(arrow, ctx: ExpansionContext):
    """Componentwise contraction of an arrow of terms over the target."""
    out = [term_contract(comp, ctx.diamond) for comp in arrow]
    for comp in arrow:
        if not mirage_membership(comp, ctx.target, _LEVEL):
            raise InvalidArrow("component is not a mirage member of the "
                               "expanded shift")
    for comp in out:
        if not mirage_membership(comp, ctx.source, _LEVEL // 2):
            raise MismatchBug("contracted component left the mirage of the "
                              "source shift")
    return tuple(out)


# -- the natural isomorphism η ------------------------------------------


def eta(e: OmegaTerm, ctx: ExpansionContext, tests=()):
    """The component of η at an idempotent term of the expanded shift.

    Idempotents in the image of E are fixed: η is the identity arrow.
    Otherwise the five-type classification forces e = ◊·e'·α, and
    η_e = (e, e·◊, e'·α·◊) maps e to its double image F(G(e)) = e'·α·◊;
    the classification has checked ◊·F(G(e)) = e·◊ on canonical forms
    and built F(G(e)) on the way.
    """
    check_equal_in_quotients(e * e, e, tests, NotIdempotentWitness,
                             "e·e differs from e in a finite quotient")
    typ, image = _classify(e, ctx)
    if typ == "ImageE":
        return (e, e, e)
    if typ != "DiamondImageEAlpha":
        raise ClassificationFailure(f"an idempotent cannot have type {typ}")
    if image is None:                    # e = ◊·α
        image = term_expand_of_contract(e, ctx)
    return (e, canonical(e * _letter_term(ctx, ctx.diamond)), image)


def term_expand_of_contract(t: OmegaTerm, ctx: ExpansionContext) -> OmegaTerm:
    """E(C(t)); DiamondOnly if the contraction is empty."""
    return term_expand(term_contract(t, ctx.diamond), ctx.letter, ctx.diamond)


def verify_naturality(arrow, ctx: ExpansionContext, tests) -> Verdict:
    """Check η_e ∘ (F∘G)(e,u,f) = (e,u,f) ∘ η_f in the test quotients.

    Both sides are composed symbolically; the verdict carries the
    classification case taken for the two end idempotents.
    """
    case, v = _naturality_square(arrow, ctx, tests, {})
    return Verdict(v.kind, v.canonical_equal, v.distinguished_by,
                   f"{case}; {v.note}")


def _naturality_square(arrow, ctx: ExpansionContext, tests,
                       etas: dict) -> tuple[str, Verdict]:
    # etas holds the η arrow of each end idempotent met so far, so a run
    # over many arrows between the same idempotents classifies each and
    # builds its η once.  η_e ends at F(G(e)) = E(C(e)), which the
    # classification built and checked, so only the middle u goes
    # through the functors; quotient_equal canonicalises both sides.
    # It returns the case of the two ends beside the verdict.
    e, u, f = arrow
    for t in (e, f):
        if t not in etas:
            etas[t] = eta(t, ctx, tests)
    eta_e, eta_f = etas[e], etas[f]
    (fgu,) = functor_F(functor_G((u,), ctx), ctx)
    return (f"case dom={_case(eta_e)}, cod={_case(eta_f)}",
            quotient_equal(eta_e[1] * fgu, u * eta_f[1], tests))


def _case(eta_arrow) -> str:
    # η is the identity exactly on ImageE; eta refuses every other type
    # but DiamondImageEAlpha
    return "ImageE" if eta_arrow[1] == eta_arrow[0] else "DiamondImageEAlpha"


# The most ordered pairs of idempotent terms naturality_rows checks.  A
# pair costs about 0.3 ms and 160 bytes of report: on full-2 expanded
# at a, bound 8 gives 10 000 pairs (3.4 s, 1.6 MB) and passes, bound 9
# gives 29 584 and is refused.  The benchmark and the tests check at
# most 100 pairs.
_MAX_PAIRS = 1 << 14


def naturality_rows(ctx: ExpansionContext, bound: int,
                    seed: int | None = None):
    """Naturality verdicts on sampled arrows of the expanded shift.

    For each ordered pair (e, f) of idempotent_terms(target, bound) that
    has a connector u, yields {"dom", "cod", "kind", "case"} for
    verify_naturality((e, u, f)).  The tests are the target's syntactic
    semigroup followed by the battery for the seed.  More than
    _MAX_PAIRS ordered pairs raise SizeLimit before any test is built.
    """
    idems = idempotent_terms(ctx.target, bound)
    if len(idems) ** 2 > _MAX_PAIRS:
        raise SizeLimit(f"{len(idems) ** 2} pairs of idempotent terms "
                        f"exceed {_MAX_PAIRS}")
    s_tgt, _ = syntactic_semigroup(ctx.target)
    tests = battery(ctx.target.alphabet, seed,
                    extra=[(s_tgt, dict(s_tgt.gen_of))])
    etas: dict = {}
    for e in idems:
        for f in idems:
            mid = connector(ctx.target, e, f)
            if mid is None:
                continue
            case, v = _naturality_square((e, mid, f), ctx, tests, etas)
            yield {"dom": format_term(e), "cod": format_term(f),
                   "kind": v.kind, "case": case}
