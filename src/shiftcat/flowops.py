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

from .errors import (ClassificationFailure, DiamondOnly, InvalidArrow,
                     MismatchBug, NotIdempotentWitness, NotInMirage2)
from .pseudowords import (EmptyResult, OmegaTerm, Verdict, canonical,
                          canonical_equal, connector, drop_first, drop_last,
                          expand_word, first_letter, format_term,
                          idempotent_terms, image_E_membership, last_letter,
                          mirage_membership, quotient_equal, strip_boundary,
                          term_contract, term_expand, unroll)
from .semigroups import battery, syntactic_semigroup
from .shifts import ShiftPresentation, blocks, is_block
from .words import Alphabet, Record, Word, _set

TYPES = ("Letter", "ImageE", "DiamondImageE", "ImageEAlpha",
         "DiamondImageEAlpha")


class ExpansionContext(Record):
    """A shift, a letter to expand, the marker, and the expanded shift."""

    __slots__ = ("source", "letter", "diamond", "target")
    source: ShiftPresentation
    letter: str
    diamond: str
    target: ShiftPresentation

    def __init__(self, source: ShiftPresentation, letter: str, diamond: str,
                 target: ShiftPresentation) -> None:
        _set(self, "source", source)
        _set(self, "letter", letter)
        _set(self, "diamond", diamond)
        _set(self, "target", target)


# the mirage level of the expanded shift that the five types describe;
# contraction halves it on the source side
_LEVEL = 2
_CHECK_BOUND = 6


def _characterization_check(ctx: ExpansionContext):
    """Blocks translate both ways between source and target.

    Expanding any block of the source yields a block of the target, and
    any block of the target that has the shape of an expanded word
    contracts to a block of the source.
    """
    b_alpha = ctx.target.alphabet
    for u in blocks(ctx.source, _CHECK_BOUND):
        img = expand_word(u, ctx.letter, b_alpha, ctx.diamond)
        if not is_block(ctx.target, img):
            raise MismatchBug("expanded source block is not a target block")
    a_alpha = ctx.source.alphabet
    for w in blocks(ctx.target, _CHECK_BOUND):
        if not image_E_membership(w, ctx.letter, ctx.diamond):
            continue
        back = Word(a_alpha, tuple(a for a in w.letters
                                   if a != ctx.diamond))
        if not is_block(ctx.source, back):
            raise MismatchBug("expanded-shaped target block does not "
                              "contract to a source block")


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


def term_image_E(t: OmegaTerm, alpha: str, diamond: str = "o") -> bool:
    """Whether the term lies in the image of the expansion E.

    Two independent tests must agree: the locally testable conditions
    evaluated on an unrolling that exposes every junction, and
    the exact round trip expand(contract(t)) = t on canonical forms.
    """
    t = canonical(t)
    if not t.body:
        return False
    local = image_E_membership(unroll(t, 2), alpha, diamond)
    c = term_contract(t, diamond)
    if isinstance(c, EmptyResult):
        roundtrip = False
    else:
        roundtrip = canonical_equal(term_expand(c, alpha, diamond), t)
    if local != roundtrip:
        raise MismatchBug("local expansion-image test disagrees with the "
                          "round trip")
    return local


def classify_type(w, ctx: ExpansionContext) -> str:
    """The unique shape of a 2-mirage word or term of the expanded shift.

    Exactly one of: a bare marker or expanded letter; an expanded word;
    an expanded word with a leading marker; an expanded word with a
    trailing expanded letter; or both decorations at once.  A word is
    classified as the plain term of its letters.
    """
    alpha, dia = ctx.letter, ctx.diamond
    t = canonical(OmegaTerm.from_word(w) if isinstance(w, Word) else w)
    if not t.body:
        raise ValueError("the empty word has no type")
    if not mirage_membership(t, ctx.target, _LEVEL):
        raise NotInMirage2(f"a factor of length <= {_LEVEL} is not a block "
                           "of the expanded shift")
    fl, ll = first_letter(t), last_letter(t)
    matches: list[str] = []
    if t.is_plain() and len(t.as_plain_word()) == 1 and fl in (alpha, dia):
        matches.append("Letter")
    if term_image_E(t, alpha, dia):
        matches.append("ImageE")
    if fl == dia and term_image_E(drop_first(t), alpha, dia):
        matches.append("DiamondImageE")
    if ll == alpha and term_image_E(drop_last(t), alpha, dia):
        matches.append("ImageEAlpha")
    if fl == dia and ll == alpha:
        inner = strip_boundary(t)
        if not inner.body or term_image_E(inner, alpha, dia):
            matches.append("DiamondImageEAlpha")
    if len(matches) != 1:
        raise ClassificationFailure(f"expected exactly one type, got "
                                    f"{matches or 'none'}")
    return matches[0]


# -- the flow functors --------------------------------------------------


def _check_arrow(arrow, tests) -> None:
    e, u, f = arrow
    if tests:
        v = quotient_equal(e * u * f, u, tests)
        if v.kind == "DistinguishedBy":
            raise InvalidArrow("middle component is not fixed by the end "
                               "idempotents in a finite quotient")


def functor_F(arrow, ctx: ExpansionContext, tests=()):
    """Componentwise expansion of an arrow of terms over the source."""
    _check_arrow(arrow, tests)
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


def functor_G(arrow, ctx: ExpansionContext, tests=()):
    """Componentwise contraction of an arrow of terms over the target."""
    _check_arrow(arrow, tests)
    out = []
    for comp in arrow:
        c = term_contract(comp, ctx.diamond)
        if isinstance(c, EmptyResult):
            raise DiamondOnly("component contracts to the empty pseudoword")
        out.append(c)
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


def _letter_term(ctx: ExpansionContext, a: str) -> OmegaTerm:
    return OmegaTerm.from_word(Word(ctx.target.alphabet, (a,)))


def eta(e: OmegaTerm, ctx: ExpansionContext, tests=()):
    """The component of η at an idempotent term of the expanded shift.

    Idempotents in the image of E are fixed: η is the identity arrow.
    Otherwise the five-type classification forces e = ◊·e'·α, and
    η_e = (e, e·◊, e'·α·◊) maps e to its double image F(G(e)) = e'·α·◊.
    """
    if tests:
        v = quotient_equal(e * e, e, tests)
        if v.kind == "DistinguishedBy":
            raise NotIdempotentWitness("e·e differs from e in a finite "
                                       "quotient")
    typ = classify_type(e, ctx)
    if typ == "ImageE":
        return (e, e, e)
    if typ != "DiamondImageEAlpha":
        raise ClassificationFailure(f"an idempotent cannot have type {typ}")
    e1 = strip_boundary(e)
    dia = _letter_term(ctx, ctx.diamond)
    alp = _letter_term(ctx, ctx.letter)
    if not canonical_equal(dia * e1 * alp, e):
        raise MismatchBug("stripping does not refactor e as ◊·e'·α")
    cod = canonical(e1 * alp * dia)
    fge = term_expand_of_contract(e, ctx)
    if not canonical_equal(fge, cod):
        raise MismatchBug("F(G(e)) differs from e'·α·◊")
    return (e, canonical(e * dia), cod)


def eta_inverse(e: OmegaTerm, ctx: ExpansionContext, tests=()):
    """The inverse arrow (F(G(e)), e'·α·e, e) of η at e."""
    typ = classify_type(e, ctx)
    if typ == "ImageE":
        return (e, e, e)
    if typ != "DiamondImageEAlpha":
        raise ClassificationFailure(f"an idempotent cannot have type {typ}")
    arrow = eta(e, ctx, tests)
    e1 = strip_boundary(e)
    alp = _letter_term(ctx, ctx.letter)
    return (arrow[2], canonical(e1 * alp * e), e)


def term_expand_of_contract(t: OmegaTerm, ctx: ExpansionContext) -> OmegaTerm:
    """E(C(t)); DiamondOnly if the contraction is empty."""
    c = term_contract(t, ctx.diamond)
    if isinstance(c, EmptyResult):
        raise DiamondOnly("term contracts to the empty pseudoword")
    return term_expand(c, ctx.letter, ctx.diamond)


def verify_naturality(arrow, ctx: ExpansionContext, tests) -> Verdict:
    """Check η_e ∘ (F∘G)(e,u,f) = (e,u,f) ∘ η_f in the test quotients.

    Both sides are composed symbolically; the verdict carries the
    classification case taken for the two end idempotents.
    """
    e, u, f = arrow
    te = classify_type(e, ctx)
    tf = classify_type(f, ctx)
    ga = functor_G(arrow, ctx)
    fga = functor_F(ga, ctx)
    eta_e = eta(e, ctx, tests)
    eta_f = eta(f, ctx, tests)
    if not canonical_equal(eta_e[2], fga[0]):
        raise MismatchBug("η_e does not land on F(G(e))")
    if not canonical_equal(fga[2], eta_f[2]):
        raise MismatchBug("the two sides end at different objects")
    lhs = canonical(eta_e[1] * fga[1])
    rhs = canonical(u * eta_f[1])
    v = quotient_equal(lhs, rhs, tests)
    note = f"case dom={te}, cod={tf}; {v.note}"
    return Verdict(v.kind, v.canonical_equal, v.distinguished_by, note)


def naturality_rows(ctx: ExpansionContext, bound: int,
                    seed: int | None = None):
    """Naturality verdicts on sampled arrows of the expanded shift.

    For each ordered pair (e, f) of idempotent_terms(target, bound) that
    has a connector u, yields {"dom", "cod", "kind", "case"} for
    verify_naturality((e, u, f)).  The tests are the target's syntactic
    semigroup followed by the battery for the seed.
    """
    s_tgt, _ = syntactic_semigroup(ctx.target)
    tests = battery(ctx.target.alphabet, seed,
                    extra=[(s_tgt, dict(s_tgt.gen_of))])
    idems = idempotent_terms(ctx.target, bound)
    for e in idems:
        for f in idems:
            mid = connector(ctx.target, e, f)
            if mid is None:
                continue
            v = verify_naturality((e, mid, f), ctx, tests)
            yield {"dom": format_term(e), "cod": format_term(f),
                   "kind": v.kind, "case": v.note.split(";")[0]}
