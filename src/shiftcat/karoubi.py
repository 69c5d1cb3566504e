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
claim about the envelope is certified by arrows read off the base
semigroup and checked by a few table lookups: factors e = l·f·r of a
two-sided ideal, found by a breadth-first search of the two-sided
Cayley graph (semigroups.ideal_factors), give retractions, and the
inverse pairs of a D-class (semigroups.inverse_pair) give
isomorphisms.  The certified relations are compared with Green's
relations, which come from the strongly connected components of the
Cayley graphs instead; a disagreement raises MismatchBug because it
can only come from an implementation error.
"""

from __future__ import annotations

from .errors import MismatchBug, SizeLimit
from .semigroups import (FiniteSemigroup, SchutzGroup, certify_retraction,
                         d_class_factors, green, groups_isomorphic,
                         ideal_factors, inverse_pair, local_units,
                         right_factors, schutzenberger, translation_group,
                         unit_pairs)
from .words import Record, _set

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .pseudowords import OmegaTerm

Arrow = tuple[int, int, int]


class KaroubiCategory:
    """Category of idempotents of a finite semigroup.

    No hom-set is enumerated; `tests/oracles.py` keeps the search.  The
    objects are the idempotents of the base, and every fact about the
    arrows is certified from the base by the functions below.
    """

    def __init__(self, base: FiniteSemigroup):
        self.base = base
        self.objects: tuple[int, ...] = base.idempotents()


def build(s: FiniteSemigroup) -> KaroubiCategory:
    """Karoubi envelope of s."""
    return KaroubiCategory(s)


def _j_classes(k: KaroubiCategory) -> dict[int, list[int]]:
    """The objects grouped by J-class, in object order.

    Each object f is certified isomorphic to the first object e of its
    class: the inverse pair a·a' = e, a'·a = f of the D-class makes
    (e, a, f) and (f, a', e) mutually inverse arrows
    (semigroups.inverse_pair checks it by lookups).
    """
    g = green(k.base)
    classes: dict[int, list[int]] = {}
    for e in k.objects:
        classes.setdefault(g.j_of[e], []).append(e)
    for e, *others in classes.values():
        for f in others:
            inverse_pair(k.base, e, f)
    return classes


def _sandwich(t, e: int, l: int | None, f: int) -> int:
    """e·l·f in the table t, where l = None is the adjoined identity."""
    return t[e][f] if l is None else t[t[e][l]][f]


def retraction_order(k: KaroubiCategory) -> frozenset[tuple[int, int]]:
    """Pairs (e, f) such that e is a retract of f.

    e is a retract of f when some arrows x: e -> f and y: f -> e
    compose to the identity of e, which happens exactly when e ≤_J f.
    One retraction is certified per pair of J-classes: one
    breadth-first search from the first object f₀ of a class writes
    the first object e₀ of each class in S¹f₀S¹ as e₀ = l·f₀·r, and
    x₀ = e₀·l·f₀, y₀ = f₀·r·e₀ give x₀·y₀ = e₀ (certify_retraction).
    The certified class pairs must be exactly the J-order pairs: the
    search reaches no e₀ outside the ideal, which J-equivalent objects
    share, so this also refutes every missing pair.  Other objects e
    and f of the two classes take the inverse pairs a·a' = e₀, a'·a = e
    and b·b' = f₀, b'·b = f that _j_classes certifies; the arrows
    a'·x₀·b: e -> f and b'·y₀·a: f -> e compose to a'·e₀·a = e with no
    lookup.
    """
    s = k.base
    t = s.table
    g = green(s)
    classes = _j_classes(k)
    certified = set()
    for j, (f0, *_) in classes.items():
        factors = ideal_factors(s, f0)
        for i, (e0, *_) in classes.items():
            if e0 in factors:
                l, r = factors[e0]
                certify_retraction(t, e0, f0, _sandwich(t, e0, l, f0),
                                   _sandwich(t, f0, r, e0))
                certified.add((i, j))
    if certified != {(i, j) for i in classes for j in classes
                     if g.j_leq(i, j)}:
        raise MismatchBug("retraction order disagrees with the J-order "
                          "of idempotents")
    return frozenset((e, f) for (i, j) in certified
                     for e in classes[i] for f in classes[j])


def automorphism_group(k: KaroubiCategory, e: int) -> SchutzGroup:
    """Group of invertible arrows e -> e.

    The units of the local monoid e·S·e are exactly the H-class of e:
    u·v = e = v·u puts u in R_e and in L_e.  Each u in H_e is verified
    to be an arrow e -> e with an inverse in H_e; the group is
    assembled from right translations by the units and must equal the
    Schützenberger group of that H-class, permutation for permutation:
    if H_e·y ⊆ H_e then e·y is in H_e and x·y = x·(e·y) on H_e.
    """
    if e not in k.objects:
        raise ValueError("not an object")
    s = k.base
    t = s.table
    g = green(s)
    units = sorted(g.H[g.h_of[e]])
    for u in units:
        if (t[t[e][u]][e] != u
                or not any(t[u][v] == e and t[v][u] == e for v in units)):
            raise MismatchBug("the H-class of the idempotent holds a "
                              "non-unit of the local monoid")
    grp = translation_group(s, tuple(units), units)
    if grp != schutzenberger(s, units):
        raise MismatchBug("automorphism group differs from the "
                          "Schützenberger group of the H-class")
    return grp


def iso_class_census(k: KaroubiCategory) -> dict[int, int]:
    """Map class-size n to the number of objects in size-n classes.

    Isomorphic objects are J-equivalent: e = x·y and f = y·x give
    e = x·f·y and f = y·e·x.  Conversely _j_classes certifies every
    object isomorphic to the first object of its J-class.  So the
    classes are the J-classes of idempotents; they are tabulated by
    size.
    """
    census: dict[int, int] = {}
    for members in _j_classes(k).values():
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


def _arrow_schutzenberger(s: FiniteSemigroup, g, u: int, f: int) -> SchutzGroup:
    """Right translations of the H-class of an arrow middle u by arrows
    f -> f, where u·f = u.

    Composing on the right with (f, y, f) multiplies middles by y.  Each
    v ≠ u in H_u lies in u·S (v R u), say v = u·z, and y = f·z·f sends
    u to v (y = f for v = u); the translations by these y must form a
    group of order |H_u| (semigroups.translation_group).
    """
    t = s.table
    h = tuple(sorted(g.H[g.h_of[u]]))
    z_of = right_factors(s, u, h)
    translators = []
    for v in h:
        y = f if v == u else _sandwich(t, f, z_of[v], f)
        if t[u][y] != v:
            raise MismatchBug("arrow translation misses its H-class mate")
        translators.append(y)
    return translation_group(s, h, translators)


def karoubi_vs_lu_comparison(s: FiniteSemigroup, k) -> ComparisonVerdict:
    """Compare the arrow J-poset of the envelope with the poset of
    J-classes meeting the local units inside k.

    Arrows of the envelope whose middle components lie in k are grouped
    by the J-class of their middles; mapping each group to that J-class
    must give a bijection onto the classes meeting the local units that
    preserves the order and the (regular, group) labels.

    No arrow is enumerated.  Order claims are certified by composition
    witnesses: from u = l·v·r with e·u·f = u and g·v·h = v, the arrows
    (e, e·l·g, g) and (h, r·f, f) compose with (g, v, h) to (e, u, f).
    One search of the two-sided Cayley graph per class, from the middle
    u₀ of its representative (semigroups.ideal_factors), relates the
    classes and puts one arrow a = (e, u, f) per middle u below the
    representative; the D-class gives u₀ = l·u·r the other way
    (semigroups.d_class_factors).  Any (e', u, f') is then equivalent
    to a with no lookup: it is (e', e'·e, e) ∘ a ∘ (f, f·f', f'), and a
    is (e, e·e', e') ∘ (e', u, f') ∘ (f', f'·f, f).  A pair of classes
    the base order does not relate is refuted by the search itself: u
    lies outside S¹vS¹, so no composite reaches (e, u, f).  Any failed
    certificate raises MismatchBug.
    """
    t = s.table
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
    ideals = {jid: ideal_factors(s, reps[jid][1])
              for jid in base_poset.elements}

    def certify_leq(a: Arrow, b: Arrow, factors) -> None:
        """a ≤ b, given the ideal factors of the middle of b."""
        (e, u, f), (gg, v, h) = a, b
        lr = factors.get(u)
        if lr is None:
            raise MismatchBug("middles are not J-comparable despite the "
                              "base order")
        l, r = lr
        x = _sandwich(t, e, l, gg)
        y = _sandwich(t, h, r, f)
        if t[t[x][v]][y] != u:
            raise MismatchBug("composition certificate failed")

    for i in base_poset.elements:
        for j in base_poset.elements:
            if i == j:
                continue
            if g.j_leq(i, j):
                certify_leq(reps[i], reps[j], ideals[j])
            elif reps[i][1] in ideals[j]:
                raise MismatchBug("arrow order exceeds the base order")

    for jid, rep in reps.items():
        for u in g.J[jid] & kset:
            a = arrow_at(u)
            certify_leq(a, rep, ideals[jid])
            certify_leq(rep, a, {rep[1]: d_class_factors(s, rep[1], u)})

    idems = s.idempotents()
    witness = []
    for jid in base_poset.elements:
        reg_base, grp_base = base_poset.label_of(jid)
        reg_arrow = any(g.j_of[w] == jid for w in idems)
        if reg_arrow != reg_base:
            raise MismatchBug("regularity labels disagree")
        e, u, f = reps[jid]
        hmid = g.H[g.h_of[u]]
        for v in hmid:
            if t[t[e][v]][f] != v:
                raise MismatchBug("H-class middle escapes the hom-set")
        grp_arrow = _arrow_schutzenberger(s, g, u, f)
        if not groups_isomorphic(grp_arrow, grp_base):
            raise MismatchBug("group labels disagree")
        witness.append((jid, jid))

    return ComparisonVerdict("Iso", tuple(witness), None)
