"""Karoubi envelope of a finite semigroup and local-unit posets.

The envelope is the category whose objects are the idempotents of the
semigroup and whose arrows e -> f are the triples (e, s, f) with
s = e·s·f, composed by multiplying middle components.  This module
builds the category, computes the retraction order and object
automorphism groups, tabulates the isomorphism-class census, applies
the functor induced by a central block code to idempotents and arrows,
and compares the J-class poset of arrows against the labeled poset of
J-classes meeting a set of local units.

Every structural fact that admits two independent computations is
computed both ways and cross-checked; a disagreement raises
MismatchBug because it can only come from an implementation error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArrow, MismatchBug, SizeLimit
from .pseudowords import (OmegaTerm, quotient_equal, term_block_code,
                          term_prefix_k, term_suffix_k)
from .semigroups import (FiniteSemigroup, SchutzGroup, green, groups_isomorphic,
                         local_units, schutzenberger)

Arrow = tuple[int, int, int]

_MATERIALIZE_LIMIT = 200


class KaroubiCategory:
    """Category of idempotents of a finite semigroup.

    Hom-sets are computed lazily; the full arrow set is only
    materialized for bases of size <= 200 because the number of arrows
    can grow like |E|²·|S|.
    """

    def __init__(self, base: FiniteSemigroup):
        self.base = base
        self.objects: tuple[int, ...] = base.idempotents()
        self._hom: dict[tuple[int, int], tuple[Arrow, ...]] = {}

    def hom(self, e: int, f: int) -> tuple[Arrow, ...]:
        """All arrows e -> f, i.e. (e, s, f) with s = e·s·f."""
        key = (e, f)
        cached = self._hom.get(key)
        if cached is not None:
            return cached
        t = self.base.table
        middles = sorted({t[t[e][s]][f] for s in range(self.base.size)})
        out = tuple((e, s, f) for s in middles)
        self._hom[key] = out
        return out

    def arrows(self) -> tuple[Arrow, ...]:
        """Every arrow of the category (small bases only)."""
        if self.base.size > _MATERIALIZE_LIMIT:
            raise SizeLimit("full arrow materialization is limited to "
                            f"bases of size {_MATERIALIZE_LIMIT}")
        out: list[Arrow] = []
        for e in self.objects:
            for f in self.objects:
                out.extend(self.hom(e, f))
        return tuple(out)

    def identity(self, e: int) -> Arrow:
        if e not in self.objects:
            raise ValueError("not an object")
        return (e, e, e)

    def compose(self, a: Arrow, b: Arrow) -> Arrow:
        """Composite of a: e -> f and b: f -> g, read left to right."""
        if a[2] != b[0]:
            raise ValueError("arrows are not composable")
        return (a[0], self.base.product(a[1], b[1]), b[2])

    def is_arrow(self, a: Arrow) -> bool:
        e, s, f = a
        t = self.base.table
        return (e in self.objects and f in self.objects
                and t[t[e][s]][f] == s)


def build(s: FiniteSemigroup) -> KaroubiCategory:
    """Karoubi envelope of s."""
    return KaroubiCategory(s)


def retraction_order(k: KaroubiCategory) -> frozenset[tuple[int, int]]:
    """Pairs (e, f) such that e is a retract of f.

    e is a retract of f when some arrows x: e -> f and y: f -> e
    compose to the identity of e.  This relation is computed both by
    explicit witness search and through the J-order of the base, and
    the two must agree: a retraction x·y = e forces e ≤_J f, and
    conversely e = s·f·t yields the witnesses x = e·s·f, y = f·t·e
    with x·y = e.
    """
    s = k.base
    t = s.table
    g = green(s)
    via_j = frozenset((e, f) for e in k.objects for f in k.objects
                      if g.j_leq(g.j_of[e], g.j_of[f]))
    found: set[tuple[int, int]] = set()
    for e in k.objects:
        for f in k.objects:
            hom_ef = k.hom(e, f)
            hom_fe = k.hom(f, e)
            if any(t[x][y] == e for (_, x, _) in hom_ef
                   for (_, y, _) in hom_fe):
                found.add((e, f))
    if frozenset(found) != via_j:
        raise MismatchBug("retraction order disagrees with the J-order "
                          "of idempotents")
    return via_j


def automorphism_group(k: KaroubiCategory, e: int) -> SchutzGroup:
    """Group of invertible arrows e -> e.

    The units of the local monoid e·S·e are exactly the H-class of e;
    the group is assembled from right translations on the unit set and
    cross-checked against the Schützenberger group of that H-class.
    """
    if e not in k.objects:
        raise ValueError("not an object")
    s = k.base
    t = s.table
    loc = [m for (_, m, _) in k.hom(e, e)]
    units = sorted(u for u in loc
                   if any(t[u][v] == e and t[v][u] == e for v in loc))
    g = green(s)
    if set(units) != set(g.H[g.h_of[e]]):
        raise MismatchBug("units of the local monoid differ from the "
                          "H-class of the idempotent")
    pos = {u: i for i, u in enumerate(units)}
    carrier = frozenset(tuple(pos[t[x][u]] for x in units) for u in units)
    grp = SchutzGroup(tuple(units), carrier, len(carrier))
    base_grp = schutzenberger(s, g.H[g.h_of[e]])
    if groups_isomorphic(grp, base_grp) == "not-isomorphic":
        raise MismatchBug("automorphism group differs from the "
                          "Schützenberger group of the H-class")
    return grp


def _objects_isomorphic(k: KaroubiCategory, e: int, f: int) -> bool:
    t = k.base.table
    return any(t[x][y] == e and t[y][x] == f
               for (_, x, _) in k.hom(e, f) for (_, y, _) in k.hom(f, e))


def iso_class_census(k: KaroubiCategory) -> dict[int, int]:
    """Map class-size n to the number of objects in size-n classes.

    Object isomorphism (mutually inverse arrows) is computed by brute
    force and must coincide with J-equivalence of the idempotents in
    the base; the resulting classes are tabulated by size.
    """
    g = green(k.base)
    objs = k.objects
    classes: list[list[int]] = []
    assigned: dict[int, int] = {}
    for e in objs:
        placed = False
        for ci, cls in enumerate(classes):
            if _objects_isomorphic(k, e, cls[0]):
                cls.append(e)
                assigned[e] = ci
                placed = True
                break
        if not placed:
            assigned[e] = len(classes)
            classes.append([e])
    for e in objs:
        for f in objs:
            same = assigned[e] == assigned[f]
            if same != (g.j_of[e] == g.j_of[f]):
                raise MismatchBug("object isomorphism disagrees with "
                                  "J-equivalence of idempotents")
    census: dict[int, int] = {}
    for cls in classes:
        n = len(cls)
        census[n] = census.get(n, 0) + n
    if sum(census.values()) != len(objs):
        raise MismatchBug("census does not account for every object")
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
    img = _code_between(phi, e, e, e)
    usable = _covering(tests, img)
    if usable:
        v = quotient_equal(img * img, img, usable)
        if v.kind == "DistinguishedBy":
            raise MismatchBug("image of an idempotent is not idempotent "
                              "in a finite quotient")
    return img


def induced_functor_on_arrow(phi, arrow, tests=()):
    """Image of an arrow (e, u, f) of idempotent terms under phi.

    The arrow condition e·u·f = u is checked in the supplied quotients
    before mapping; the middle component is coded together with the
    length-k suffix of e and prefix of f, which makes the image an
    arrow between the images of e and f.
    """
    e, u, f = arrow
    usable = _covering(tests, e, u, f)
    if usable:
        v = quotient_equal(e * u * f, u, usable)
        if v.kind == "DistinguishedBy":
            raise InvalidArrow("middle component is not fixed by the "
                               "end idempotents in a finite quotient")
    img_e = induced_functor_on_idempotent(phi, e, tests)
    img_f = induced_functor_on_idempotent(phi, f, tests)
    mid = _code_between(phi, e, u, f)
    usable = _covering(tests, img_e, mid, img_f)
    if usable:
        v = quotient_equal(img_e * mid * img_f, mid, usable)
        if v.kind == "DistinguishedBy":
            raise MismatchBug("image triple is not an arrow in a finite "
                              "quotient")
    return (img_e, mid, img_f)


# -- labeled posets of J-classes ---------------------------------------


@dataclass(frozen=True)
class LabeledPoset:
    """J-class ids with a partial order and (regular, group) labels."""

    elements: tuple[int, ...]
    order: frozenset[tuple[int, int]]
    labels: tuple[tuple[int, bool, SchutzGroup], ...]

    def __post_init__(self):
        for (i, j) in self.order:
            if (j, i) in self.order and i != j:
                raise ValueError("order is not antisymmetric")
        for (i, j) in self.order:
            for (j2, k) in self.order:
                if j == j2 and (i, k) not in self.order:
                    raise ValueError("order is not transitive")
        if {lbl[0] for lbl in self.labels} != set(self.elements):
            raise ValueError("labels must cover exactly the elements")

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


@dataclass(frozen=True)
class ComparisonVerdict:
    """Outcome of a labeled-poset comparison.

    kind is "Iso" (witness holds a bijection), "NotIso" (reason says
    why), or "InvariantEqual" (a matching exists but at least one group
    pair was compared through invariants only).
    """

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
    group_compare: dict[tuple[int, int], str] = {}
    for x in p.elements:
        for y in q.elements:
            group_compare[(x, y)] = groups_isomorphic(p.label_of(x)[1],
                                                      q.label_of(y)[1])
    used: dict[int, int] = {}
    invariant_only = [False]

    def extend(i: int) -> bool:
        if i == len(ps):
            return True
        x = ps[i]
        for y in q.elements:
            if y in used.values():
                continue
            if signature(p, x) != signature(q, y):
                continue
            if group_compare[(x, y)] == "not-isomorphic":
                continue
            ok = all(p.leq(x, x2) == q.leq(y, y2)
                     and p.leq(x2, x) == q.leq(y2, y)
                     for x2, y2 in used.items())
            if not ok:
                continue
            used[x] = y
            if extend(i + 1):
                if group_compare[(x, y)] == "invariant-equal":
                    invariant_only[0] = True
                return True
            del used[x]
        return False

    if not extend(0):
        return ComparisonVerdict("NotIso", None,
                                 "no label- and order-preserving bijection")
    witness = tuple(sorted(used.items()))
    kind = "InvariantEqual" if invariant_only[0] else "Iso"
    return ComparisonVerdict(kind, witness, None)


# -- arrow J-poset versus local-unit poset -----------------------------


def _mul1(s: FiniteSemigroup, a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return s.product(a, b)


def _divisibility_witness(s: FiniteSemigroup, u: int, v: int):
    """(x, y) over S with adjoined identity such that u = x·v·y, or None."""
    opts: list[int | None] = [None] + list(range(s.size))
    for x in opts:
        left = _mul1(s, x, v)
        for y in opts:
            if _mul1(s, left, y) == u:
                return (x, y)
    return None


def _unit_pair(s: FiniteSemigroup, u: int):
    """The first idempotents e and f with e·u = u and u·f = u (so that
    e·u·f = u), or None."""
    t = s.table
    e = next((e for e in s.idempotents() if t[e][u] == u), None)
    f = next((f for f in s.idempotents() if t[u][f] == u), None)
    return None if e is None or f is None else (e, f)


def _arrow_schutzenberger(s: FiniteSemigroup, hmid, f: int) -> SchutzGroup:
    """Right translations of an arrow H-class by arrows f -> f.

    hmid holds the middle components; composing on the right with
    (f, y, f) multiplies middles by y, so the translations come from
    f·S·f together with the identity action.
    """
    h = tuple(sorted(hmid))
    pos = {x: i for i, x in enumerate(h)}
    hset = set(h)
    t = s.table
    perms = {tuple(range(len(h)))}
    loc = sorted({t[t[f][y]][f] for y in range(s.size)})
    for y in loc:
        imgs = [t[x][y] for x in h]
        if all(v in hset for v in imgs):
            p = tuple(pos[v] for v in imgs)
            if len(set(p)) != len(h):
                raise MismatchBug("arrow translation is not a permutation")
            perms.add(p)
    for a in perms:
        for b in perms:
            if SchutzGroup.compose(a, b) not in perms:
                raise MismatchBug("arrow translations are not closed")
    if len(perms) != len(h):
        raise MismatchBug("arrow translations are not simply transitive")
    return SchutzGroup(h, frozenset(perms), len(perms))


_CLASS_SAMPLE = 12


def karoubi_vs_lu_comparison(s: FiniteSemigroup, k) -> ComparisonVerdict:
    """Compare the arrow J-poset of the envelope with the poset of
    J-classes meeting the local units inside k.

    Arrows of the envelope whose middle components lie in k are grouped
    by the J-class of their middles; mapping each group to that J-class
    must give a bijection onto the classes meeting the local units that
    preserves the order and the (regular, group) labels.  Order and
    equivalence claims on the arrow side are certified by explicit
    composition witnesses: from u = x·v·y with e·u·f = u and g·v·h = v
    the arrows (e, e·x·g, g) and (h, y·f, f) compose with (g, v, h) to
    (e, u, f).  Any failed certificate raises MismatchBug.
    """
    t = s.table
    g = green(s)
    lu_k = local_units(s, k)
    base_poset = lu_labeled_poset(s, k)
    if not base_poset.elements:
        return ComparisonVerdict("Iso", (), None)

    kset = set(k)
    reps: dict[int, Arrow] = {}
    for jid in base_poset.elements:
        u = min(g.J[jid] & lu_k)
        pair = _unit_pair(s, u)
        if pair is None:
            raise MismatchBug("local unit has no unit pair")
        reps[jid] = (pair[0], u, pair[1])

    def certify_leq(a: Arrow, b: Arrow) -> None:
        (e, u, f), (gg, v, h) = a, b
        w = _divisibility_witness(s, u, v)
        if w is None:
            raise MismatchBug("middles are not J-comparable despite the "
                              "base order")
        x = t[t[e][w[0]]][gg] if w[0] is not None else t[e][gg]
        y = t[t[h][w[1]]][f] if w[1] is not None else t[h][f]
        if t[t[x][v]][y] != u:
            raise MismatchBug("composition certificate failed")

    cat = build(s)
    for i in base_poset.elements:
        for j in base_poset.elements:
            if i == j:
                continue
            if g.j_leq(i, j):
                certify_leq(reps[i], reps[j])
            else:
                (e, u, f), (gg, v, h) = reps[i], reps[j]
                for (_, x, _) in cat.hom(e, gg):
                    for (_, y, _) in cat.hom(h, f):
                        if t[t[x][v]][y] == u:
                            raise MismatchBug("arrow order exceeds the "
                                              "base order")

    for jid in base_poset.elements:
        sample: list[Arrow] = []
        jcls = g.J[jid]
        for e in cat.objects:
            for f in cat.objects:
                for (_, u, _) in cat.hom(e, f):
                    if u in jcls and u in kset:
                        sample.append((e, u, f))
        sample.sort()
        if len(sample) > _CLASS_SAMPLE:
            step = len(sample) // _CLASS_SAMPLE
            sample = sample[::step][:_CLASS_SAMPLE]
        for arr in sample:
            certify_leq(arr, reps[jid])
            certify_leq(reps[jid], arr)

    invariant_only = False
    witness = []
    for jid in base_poset.elements:
        reg_base, grp_base = base_poset.label_of(jid)
        reg_arrow = any(g.j_of[w] == jid for w in s.idempotents())
        if reg_arrow != reg_base:
            raise MismatchBug("regularity labels disagree")
        e, u, f = reps[jid]
        hmid = g.H[g.h_of[u]]
        for v in hmid:
            if t[t[e][v]][f] != v:
                raise MismatchBug("H-class middle escapes the hom-set")
        grp_arrow = _arrow_schutzenberger(s, hmid, f)
        cmp = groups_isomorphic(grp_arrow, grp_base)
        if cmp == "not-isomorphic":
            raise MismatchBug("group labels disagree")
        if cmp == "invariant-equal":
            invariant_only = True
        witness.append((jid, jid))

    kind = "InvariantEqual" if invariant_only else "Iso"
    return ComparisonVerdict(kind, tuple(witness), None)
