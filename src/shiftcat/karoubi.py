"""Karoubi envelope of a finite semigroup and local-unit posets.

The envelope is the category whose objects are the idempotents of the
semigroup and whose arrows e -> f are the triples (e, s, f) with
s = e·s·f, composed by multiplying middle components.  This module
builds the category, computes the retraction order and object
automorphism groups, tabulates the isomorphism-class census, applies
the functor induced by a central block code to idempotents and arrows,
and compares the J-class poset of arrows against the labeled poset of
J-classes meeting a set of local units.

No hom-set is enumerated; `tests/oracles.py` keeps the search.  Every
claim about the envelope says that one arrow factors through another,
and is checked by one certificate, semigroups.certify_composite, which
reads the arrows x, y with a = x ∘ b ∘ y off factors l, r over S¹;
this module reads no product of its own.  Factors u = l·v·r of a
two-sided ideal, found by a breadth-first search of the two-sided
Cayley graph (semigroups.ideal_factors), give the order, and the
inverse pairs of a D-class (semigroups.inverse_pair) give
isomorphisms.  The certified relations are compared with Green's
relations, which come from the strongly connected components of the
Cayley graphs instead; a disagreement raises MismatchBug because it
can only come from an implementation error.
"""

from __future__ import annotations

from .errors import MismatchBug, SizeLimit
from .semigroups import (Arrow, FiniteSemigroup, SchutzGroup,
                         certify_composite, d_class_factors, green,
                         groups_isomorphic, ideal_factors, inverse_pair,
                         local_units, omega_plus, right_factors,
                         schutzenberger, translation_group, unit_pairs)
from .words import Record, _set

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator

    from .pseudowords import OmegaTerm


class KaroubiCategory:
    """Category of idempotents of a finite semigroup.

    No hom-set is enumerated; `tests/oracles.py` keeps the search.  The
    objects are the idempotents of the base, and every fact about the
    arrows is certified from the base.  `classes` maps each J-class id
    to its objects, in object order, and each object f is certified
    once, here, isomorphic to the first object e of its class: the
    inverse pair a·a' = e, a'·a = f of the D-class makes (e, a, f) and
    (f, a', e) mutually inverse arrows (semigroups.inverse_pair).
    """

    def __init__(self, base: FiniteSemigroup):
        self.base = base
        self.objects: tuple[int, ...] = base.idempotents()
        j_of = green(base).j_of
        self.classes: dict[int, list[int]] = {}
        for e in self.objects:
            self.classes.setdefault(j_of[e], []).append(e)
        for e, *others in self.classes.values():
            for f in others:
                inverse_pair(base, e, f)


def build(s: FiniteSemigroup) -> KaroubiCategory:
    """Karoubi envelope of s."""
    return KaroubiCategory(s)


def _certified_order(s: FiniteSemigroup,
                     reps: dict[int, Arrow]) -> dict[int, dict]:
    """Certify the J-order on the classes of reps, which maps J-class
    ids to an arrow whose middle lies in that class.

    One breadth-first search per class, from the middle v of its arrow
    b, writes each middle u of S¹vS¹ as u = l·v·r
    (semigroups.ideal_factors).  Every pair of classes i ≤_J j then has
    its arrow a factor through b by those l, r
    (semigroups.certify_composite), and every other pair is refuted by
    the search itself, which reaches no u outside the ideal.  Returns
    the factors of each search by class id.
    """
    g = green(s)
    ideals = {j: ideal_factors(s, b[1]) for j, b in reps.items()}
    for i, a in reps.items():
        for j, b in reps.items():
            lr = ideals[j].get(a[1])
            if not g.j_leq(i, j):
                if lr is not None:
                    raise MismatchBug("arrow order exceeds the J-order")
            elif lr is None:
                raise MismatchBug("middles are not J-comparable despite "
                                  "the J-order")
            else:
                certify_composite(s.table, a, b, *lr)
    return ideals


def retraction_order(k: KaroubiCategory) -> Iterator[tuple[int, int]]:
    """Pairs (e, f) such that e is a retract of f, in sorted order.

    e is a retract of f when some arrows x: e -> f and y: f -> e
    compose to the identity of e, which happens exactly when e ≤_J f.
    The identity arrows of the first objects e₀, f₀ of two classes give
    x₀: e₀ -> f₀ and y₀: f₀ -> e₀ with 1_{e₀} = x₀ ∘ 1_{f₀} ∘ y₀ for
    every pair of classes the J-order relates, and no pair it does not
    (_certified_order).  Other objects e and f of the two classes take
    the inverse pairs a·a' = e₀, a'·a = e and b·b' = f₀, b'·b = f that
    the category certified; the arrows a'·x₀·b: e -> f and
    b'·y₀·a: f -> e compose to a'·e₀·a = e with no lookup.  Every
    certificate is checked before the generator is returned, so it
    cannot fail, and no set of object pairs is built.
    """
    g = green(k.base)
    _certified_order(k.base, {j: (e, e, e)
                              for j, (e, *_) in k.classes.items()})
    j_of = g.j_of
    above = {i: [f for f in k.objects if g.j_leq(i, j_of[f])]
             for i in k.classes}
    return ((e, f) for e in k.objects for f in above[j_of[e]])


def automorphism_group(k: KaroubiCategory, e: int) -> SchutzGroup:
    """Group of invertible arrows e -> e.

    The units of the local monoid e·S·e are exactly the H-class of e:
    u·v = e = v·u puts u in R_e and in L_e.  Each u in H_e is certified
    to factor through the identity of e, so it is an arrow e -> e, and
    the identity through u by its inverse v = u^(ω−1), a power of u, so
    v·u = e = u·v (semigroups.certify_composite).  The group is
    assembled from right translations by the units and must equal the
    Schützenberger group of that H-class, permutation for permutation:
    if H_e·y ⊆ H_e then e·y is in H_e and x·y = x·(e·y) on H_e.
    """
    if e not in k.objects:
        raise ValueError("not an object")
    s = k.base
    g = green(s)
    units = sorted(g.H[g.h_of[e]])
    for u in units:
        certify_composite(s.table, (e, u, e), (e, e, e), None, u)
        certify_composite(s.table, (e, e, e), (e, u, e),
                          omega_plus(s, u, -1), None)
    grp = translation_group(s, tuple(units), units)
    if grp != schutzenberger(s, units):
        raise MismatchBug("automorphism group differs from the "
                          "Schützenberger group of the H-class")
    return grp


def iso_class_census(k: KaroubiCategory) -> dict[int, int]:
    """Map class-size n to the number of objects in size-n classes.

    Isomorphic objects are J-equivalent: e = x·y and f = y·x give
    e = x·f·y and f = y·e·x.  The category certifies the converse, so
    its J-classes of objects are tabulated by size.
    """
    census: dict[int, int] = {}
    for members in k.classes.values():
        n = len(members)
        census[n] = census.get(n, 0) + n
    return census


# -- induced functor of a central block code ---------------------------


def _covering(tests, *terms):
    """Test pairs whose assignment covers every letter of the terms.

    The batteries here mix quotients of the source and the target
    alphabet; each verification step only consults the compatible ones.
    """
    letters = set()
    for t in terms:
        letters |= t.letters()
    return [(s, assign) for (s, assign) in tests
            if letters <= set(assign)]


def _code_between(phi, e: OmegaTerm, u: OmegaTerm, f: OmegaTerm) -> OmegaTerm:
    """The code of suffix_k(e)·u·prefix_k(f), k the wing of phi."""
    from .pseudowords import (OmegaTerm, term_block_code, term_prefix_k,
                              term_suffix_k)
    k = phi.wing
    if k:
        u = (OmegaTerm.from_word(term_suffix_k(e, k)) * u
             * OmegaTerm.from_word(term_prefix_k(f, k)))
    return term_block_code(phi, u)


def induced_functor_on_idempotent(phi, e: OmegaTerm, tests=()) -> OmegaTerm:
    """Image of an idempotent term under the code of phi.

    For a central map with wing k the image is the code applied to
    suffix_k(e)·e·prefix_k(e); when e·e = e this is again idempotent,
    which is verified in the supplied (semigroup, assignment) quotients.
    """
    from .pseudowords import check_equal_in_quotients
    img = _code_between(phi, e, e, e)
    check_equal_in_quotients(img * img, img, _covering(tests, img),
                             MismatchBug, "image of an idempotent is not "
                             "idempotent in a finite quotient")
    return img


def induced_functor_on_arrow(phi, arrow, tests=()):
    """Image of an arrow (e, u, f) of idempotent terms under phi.

    The arrow condition e·u·f = u is checked in the supplied quotients
    before mapping; the middle component is coded together with the
    length-k suffix of e and prefix of f, which makes the image an
    arrow between the images of e and f.
    """
    from .pseudowords import check_arrow, check_equal_in_quotients
    e, u, f = arrow
    check_arrow(arrow, _covering(tests, e, u, f))
    img_e = induced_functor_on_idempotent(phi, e, tests)
    img_f = induced_functor_on_idempotent(phi, f, tests)
    mid = _code_between(phi, e, u, f)
    check_equal_in_quotients(img_e * mid * img_f, mid,
                             _covering(tests, img_e, mid, img_f),
                             MismatchBug, "image triple is not an arrow in "
                             "a finite quotient")
    return (img_e, mid, img_f)


# -- labeled posets of J-classes ---------------------------------------


class LabeledPoset(Record):
    """J-class ids with a partial order and (regular, group) labels."""

    __slots__ = ("elements", "order", "labels")
    elements: tuple[int, ...]
    order: frozenset[tuple[int, int]]
    labels: tuple[tuple[int, bool, SchutzGroup], ...]

    def __init__(self, elements: tuple[int, ...],
                 order: frozenset[tuple[int, int]],
                 labels: tuple[tuple[int, bool, SchutzGroup], ...]) -> None:
        down: dict[int, set[int]] = {}
        for (i, j) in order:
            if (j, i) in order and i != j:
                raise ValueError("order is not antisymmetric")
            down.setdefault(j, set()).add(i)
        # with i ≤ j, transitivity asks that all below i lie below j
        if any(not down[j].issuperset(down.get(i, ())) for (i, j) in order):
            raise ValueError("order is not transitive")
        if {lbl[0] for lbl in labels} != set(elements):
            raise ValueError("labels must cover exactly the elements")
        _set(self, "elements", elements)
        _set(self, "order", order)
        _set(self, "labels", labels)

    def label_of(self, x: int) -> tuple[bool, SchutzGroup]:
        for (e, reg, grp) in self.labels:
            if e == x:
                return (reg, grp)
        raise KeyError(x)

    def leq(self, x: int, y: int) -> bool:
        return (x, y) in self.order

    def to_dot(self) -> str:
        lines = ["digraph poset {"]
        for x in sorted(self.elements):
            reg, grp = self.label_of(x)
            lines.append(f'  "J{x}" [label="J{x} reg={int(reg)} '
                         f'group={grp.order}"];')
        for (x, y) in sorted(self.order):
            if x == y:
                continue
            if any(x != z != y and (x, z) in self.order
                   and (z, y) in self.order for z in self.elements):
                continue
            lines.append(f'  "J{x}" -> "J{y}";')
        lines.append("}")
        return "\n".join(lines)


def lu_labeled_poset(s: FiniteSemigroup, k) -> LabeledPoset:
    """J-classes meeting the local units inside k, ordered by ≤_J.

    Each class is labeled by its regularity bit and the Schützenberger
    group of one of its H-classes.
    """
    lu_k = local_units(s, k)
    g = green(s)
    jids = sorted({g.j_of[x] for x in lu_k})
    order = frozenset((i, j) for i in jids for j in jids if g.j_leq(i, j))
    labels = []
    for jid in jids:
        rep = min(g.J[jid])
        grp = schutzenberger(s, g.H[g.h_of[rep]])
        labels.append((jid, g.regular[jid], grp))
    return LabeledPoset(tuple(jids), order, tuple(labels))


class ComparisonVerdict(Record):
    """Outcome of a labeled-poset comparison.

    kind is "Iso" (witness holds a bijection) or "NotIso" (reason says
    why).
    """

    __slots__ = ("kind", "witness", "reason")
    kind: str
    witness: tuple[tuple[int, int], ...] | None
    reason: str | None


_POSET_LIMIT = 16


def poset_isomorphic(p: LabeledPoset, q: LabeledPoset) -> ComparisonVerdict:
    """Search for a label- and order-preserving bijection p -> q."""
    if len(p.elements) > _POSET_LIMIT or len(q.elements) > _POSET_LIMIT:
        raise SizeLimit(f"poset comparison is limited to {_POSET_LIMIT} "
                        "elements")
    if len(p.elements) != len(q.elements):
        return ComparisonVerdict("NotIso", None, "different cardinalities")

    def signature(poset: LabeledPoset, x: int):
        reg, grp = poset.label_of(x)
        down = sum(1 for y in poset.elements if poset.leq(y, x))
        up = sum(1 for y in poset.elements if poset.leq(x, y))
        return (reg, grp.order, down, up)

    ps = sorted(p.elements, key=lambda x: (signature(p, x), x))
    if (sorted(signature(p, x) for x in p.elements)
            != sorted(signature(q, y) for y in q.elements)):
        return ComparisonVerdict("NotIso", None,
                                 "label or order signatures differ")
    group_iso: dict[tuple[int, int], bool] = {}   # signature-matched pairs
    used: dict[int, int] = {}

    def extend(i: int) -> bool:
        if i == len(ps):
            return True
        x = ps[i]
        for y in q.elements:
            if y in used.values():
                continue
            if signature(p, x) != signature(q, y):
                continue
            ok = all(p.leq(x, x2) == q.leq(y, y2)
                     and p.leq(x2, x) == q.leq(y2, y)
                     for x2, y2 in used.items())
            if not ok:
                continue
            if (x, y) not in group_iso:
                group_iso[(x, y)] = groups_isomorphic(p.label_of(x)[1],
                                                      q.label_of(y)[1])
            if not group_iso[(x, y)]:
                continue
            used[x] = y
            if extend(i + 1):
                return True
            del used[x]
        return False

    if not extend(0):
        return ComparisonVerdict("NotIso", None,
                                 "no label- and order-preserving bijection")
    return ComparisonVerdict("Iso", tuple(sorted(used.items())), None)


# -- arrow J-poset versus local-unit poset -----------------------------


def _arrow_schutzenberger(s: FiniteSemigroup, g,
                          arrow: Arrow) -> SchutzGroup:
    """Right translations of the H-class of the middle u of an arrow
    (e, u, f) by arrows f -> f.

    Composing on the right with (f, y, f) multiplies middles by y.  Each
    v ≠ u in H_u lies in u·S (v R u), say v = u·z, and (e, v, f) is
    certified to be (e, u, f) ∘ (f, y, f) with y = f·z·f (y = f for
    v = u; semigroups.certify_composite), which also puts v in the
    hom-set eSf; the translations by these y must form a group of order
    |H_u| (semigroups.translation_group).
    """
    e, u, f = arrow
    h = tuple(sorted(g.H[g.h_of[u]]))
    z_of = right_factors(s, u, h)
    return translation_group(s, h, [
        certify_composite(s.table, (e, v, f), arrow, None, z_of.get(v))[1]
        for v in h])


def karoubi_vs_lu_comparison(s: FiniteSemigroup, k) -> ComparisonVerdict:
    """Compare the arrow J-poset of the envelope with the poset of
    J-classes meeting the local units inside k.

    Arrows of the envelope whose middle components lie in k are grouped
    by the J-class of their middles; mapping each group to that J-class
    must give a bijection onto the classes meeting the local units that
    preserves the order and the (regular, group) labels.

    No arrow is enumerated.  Order claims are certified by composition
    witnesses: from u = l·v·r with e·u·f = u and g·v·h = v, the arrows
    (e, e·l·g, g) and (h, r·f, f) compose with (g, v, h) to (e, u, f)
    (semigroups.certify_composite).  The representatives of the classes
    are ordered by _certified_order, whose search from the middle u₀ of
    each representative also puts one arrow a = (e, u, f) per middle u
    below it; the D-class gives u₀ = l·u·r the other way
    (semigroups.d_class_factors).  Any (e', u, f') is then equivalent
    to a with no lookup: it is (e', e'·e, e) ∘ a ∘ (f, f·f', f'), and a
    is (e, e·e', e') ∘ (e', u, f') ∘ (f', f'·f, f).  Any failed
    certificate raises MismatchBug.
    """
    g = green(s)
    base_poset = lu_labeled_poset(s, k)
    if not base_poset.elements:
        return ComparisonVerdict("Iso", (), None)

    def arrow_at(u: int) -> Arrow:
        pair = unit_pairs(s).get(u)
        if pair is None:
            raise MismatchBug("local unit has no unit pair")
        return (pair[0], u, pair[1])

    kset = set(k)
    reps = {jid: arrow_at(min(g.J[jid] & kset))
            for jid in base_poset.elements}
    ideals = _certified_order(s, reps)
    for jid, rep in reps.items():
        for u in g.J[jid] & kset:
            a = arrow_at(u)
            lr = ideals[jid].get(u)
            if lr is None:
                raise MismatchBug("middles are not J-comparable despite "
                                  "the J-order")
            certify_composite(s.table, a, rep, *lr)
            certify_composite(s.table, rep, a,
                              *d_class_factors(s, rep[1], u))

    idems = s.idempotents()
    witness = []
    for jid in base_poset.elements:
        reg_base, grp_base = base_poset.label_of(jid)
        reg_arrow = any(g.j_of[w] == jid for w in idems)
        if reg_arrow != reg_base:
            raise MismatchBug("regularity labels disagree")
        grp_arrow = _arrow_schutzenberger(s, g, reps[jid])
        if not groups_isomorphic(grp_arrow, grp_base):
            raise MismatchBug("group labels disagree")
        witness.append((jid, jid))

    return ComparisonVerdict("Iso", tuple(witness), None)
