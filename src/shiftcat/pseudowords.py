"""Rank-1 ω-terms: computable stand-ins for pseudowords.

A term is an alternating sequence of finite words and powers u^(ω+q)
with integer offset q (possibly negative).  Nested powers are rejected;
everything the library needs (idempotents, boundary strips, expansion
images) lives in this fragment, where a sound canonical form exists.

Equality handling is three-tiered and never overclaims: canonical forms
coinciding is a proof (the rewrite rules are identities in every finite
semigroup); a finite quotient can refute; agreement on all supplied
quotients is reported as exactly that.
"""

from __future__ import annotations

import re

from .errors import TooShort, UnassignedLetter
from .semigroups import FiniteSemigroup, omega_plus
from .shifts import (ShiftPresentation, blocks, is_periodic_point,
                     mirage_membership_k)
from .words import (Alphabet, Record, Word, _set, factors_up_to, is_primitive,
                    prefix_k, primitive_root, suffix_k)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Union

    Item = Union[Word, "Power"]


class Power(Record):
    """base^(ω+q); the base must be nonempty."""

    __slots__ = ("base", "q")
    base: Word
    q: int

    def __init__(self, base: Word, q: int) -> None:
        if not base.letters:
            raise ValueError("power base must be nonempty")
        _set(self, "base", base)
        _set(self, "q", q)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.q == other.q and self.base == other.base
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.base, self.q))


class OmegaTerm(Record):
    __slots__ = ("alphabet", "body")
    alphabet: Alphabet
    body: tuple[Item, ...]

    def __init__(self, alphabet: Alphabet, body: tuple[Item, ...]) -> None:
        for it in body:
            w = it.base if isinstance(it, Power) else it
            if w.alphabet is not alphabet and w.alphabet != alphabet:
                raise ValueError("term item over a different alphabet")
        _set(self, "alphabet", alphabet)
        _set(self, "body", body)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.body == other.body and \
                (self.alphabet is other.alphabet
                 or self.alphabet == other.alphabet)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.alphabet.symbols, self.body))

    @staticmethod
    def from_word(w: Word) -> "OmegaTerm":
        return OmegaTerm(w.alphabet, (w,) if len(w) else ())

    @staticmethod
    def from_items(alphabet: Alphabet, items: Iterable[Item]) -> "OmegaTerm":
        return OmegaTerm(alphabet, tuple(items))

    def is_plain(self) -> bool:
        return all(isinstance(it, Word) for it in self.body)

    def as_plain_word(self) -> Word:
        if not self.is_plain():
            raise ValueError("term contains powers")
        out = Word(self.alphabet, ())
        for it in self.body:
            out = out * it
        return out

    def letters(self) -> set[str]:
        out: set[str] = set()
        for it in self.body:
            w = it.base if isinstance(it, Power) else it
            out.update(w.letters)
        return out

    def __mul__(self, other: "OmegaTerm") -> "OmegaTerm":
        if other.alphabet != self.alphabet:
            raise ValueError("cannot concatenate terms over different alphabets")
        return OmegaTerm(self.alphabet, self.body + other.body)

    def __str__(self) -> str:
        return format_term(self)


# -- canonical form ---------------------------------------------------


def _flatten(alphabet: Alphabet, items: list[Item]) -> tuple[list[Item], bool]:
    out: list[Item] = []
    changed = False
    for it in items:
        if isinstance(it, Word):
            if len(it) == 0:
                changed = True
                continue
            if out and isinstance(out[-1], Word):
                out[-1] = out[-1] * it
                changed = True
                continue
        out.append(it)
    return out, changed


def _root_reduce(items: list[Item]) -> tuple[list[Item], bool]:
    # (z^c)^(ω+q) = z^ω z^(cq) = z^(ω+cq): ω-powers of a root and of its
    # powers are the same idempotent in every finite semigroup
    out: list[Item] = []
    changed = False
    for it in items:
        if isinstance(it, Power):
            root, c = primitive_root(it.base)
            if c > 1:
                it = Power(root, c * it.q)
                changed = True
        out.append(it)
    return out, changed


def _absorb_merge(items: list[Item]) -> tuple[list[Item], bool]:
    changed = False
    i = 0
    while i < len(items):
        it = items[i]
        if isinstance(it, Power):
            base = it.base
            n = len(base)
            if i > 0 and isinstance(items[i - 1], Word):
                w = items[i - 1]
                copies = 0
                while len(w) >= n and w.letters[-n:] == base.letters:
                    w = w[: len(w) - n]
                    copies += 1
                if copies:
                    items[i] = it = Power(base, it.q + copies)
                    items[i - 1] = w
                    changed = True
            if i > 0 and isinstance(items[i - 1], Power) \
                    and items[i - 1].base == base:
                # u^(ω+p) u^(ω+q) = u^(ω+p+q) since u^ω is idempotent
                items[i - 1: i + 1] = [Power(base, items[i - 1].q + it.q)]
                changed = True
                continue
            if i + 1 < len(items) and isinstance(items[i + 1], Word):
                w = items[i + 1]
                copies = 0
                while len(w) >= n and w.letters[:n] == base.letters:
                    w = w[n:]
                    copies += 1
                if copies:
                    items[i] = Power(base, it.q + copies)
                    items[i + 1] = w
                    changed = True
        i += 1
    return items, changed


def _rotate_once(items: list[Item]) -> tuple[list[Item], bool]:
    # w·c (y·c)^(ω+q)  →  w (c·y)^(ω+q) c : letters only ever move to the
    # right of a power, so iteration terminates
    for i in range(1, len(items)):
        it = items[i]
        if not isinstance(it, Power):
            continue
        prev = items[i - 1]
        if not isinstance(prev, Word) or len(prev) == 0:
            continue
        c = prev.letters[-1]
        if it.base.letters[-1] != c:
            continue
        alphabet = it.base.alphabet
        new_base = Word(alphabet, (c,) + it.base.letters[:-1])
        moved = Word(alphabet, (c,))
        items[i - 1] = prev[: len(prev) - 1]
        items[i] = Power(new_base, it.q)
        items.insert(i + 1, moved)
        return items, True
    return items, False


def canonical(t: OmegaTerm) -> OmegaTerm:
    """The normal form: flattened, primitive bases, whole base copies
    absorbed into exponents, same-base neighbors merged, and words
    rotated to the right of powers."""
    items = list(t.body)
    for _ in range(100_000):
        items, ch1 = _flatten(t.alphabet, items)
        items, ch2 = _root_reduce(items)
        items, ch3 = _absorb_merge(items)
        if ch2 or ch3:
            continue
        items, ch4 = _rotate_once(items)
        if not (ch1 or ch4):
            return OmegaTerm(t.alphabet, tuple(items))
    raise AssertionError("canonicalization failed to terminate")


def canonical_equal(s: OmegaTerm, t: OmegaTerm) -> bool:
    return canonical(s) == canonical(t)


# -- unfolding, prefixes, factors ------------------------------------


def unfold(t: OmegaTerm, m: int) -> Word:
    """Replace each u^(ω+q) by u^(m+q); m must leave every exponent ≥ 1."""
    out: tuple[str, ...] = ()
    for it in t.body:
        if isinstance(it, Word):
            out += it.letters
        else:
            if m + it.q < 1:
                raise ValueError(f"unfolding exponent {m} too small for q={it.q}")
            out += it.base.letters * (m + it.q)
    return Word(t.alphabet, out)


def unroll(t: OmegaTerm, k: int) -> Word:
    """Each u^(ω+q) written out k+2 times, whatever q is.

    A factor of length ≤ k meets at most k letters of each power, so the
    factors, prefix and suffix of length ≤ k are those of every deep
    unfolding, and the word's length does not grow with q.  A plain
    term unrolls to its own word.
    """
    out: list[str] = []
    for it in t.body:
        out.extend(it.letters if isinstance(it, Word)
                   else it.base.letters * (k + 2))
    return Word(t.alphabet, tuple(out))


def _affix_source(t: OmegaTerm, k: int, affix: str) -> Word:
    # a plain term unrolls to itself, so only it can be too short
    if k < 1:
        raise ValueError("k must be positive")
    w = unroll(t, k)
    if len(w) < k:
        raise TooShort(f"plain word of length {len(w)} has no {k}-{affix}")
    return w


def term_prefix_k(t: OmegaTerm, k: int) -> Word:
    """The length-k prefix of every sufficiently deep unfolding."""
    return prefix_k(_affix_source(t, k, "prefix"), k)


def term_suffix_k(t: OmegaTerm, k: int) -> Word:
    return suffix_k(_affix_source(t, k, "suffix"), k)


def term_factors(t: OmegaTerm, k: int) -> set[Word]:
    """All factors of length ≤ k of the term (stably, via one unrolling)."""
    return factors_up_to(unroll(t, k), k)


def mirage_membership(t: OmegaTerm, x: ShiftPresentation, k: int) -> bool:
    """True iff every factor of t of length ≤ k is a block of x.

    A word is the plain term of its letters; the empty term is
    vacuously a member.
    """
    w = unroll(t, k)
    return len(w) == 0 or mirage_membership_k(x, w, k)


def idempotent_terms(x: ShiftPresentation, bound: int) -> list[OmegaTerm]:
    """canonical(w^ω) for every primitive block w of x, |w| ≤ bound,
    with w^∞ a point of x; distinct rotations stay distinct."""
    seen = set()
    out = []
    for w in sorted(blocks(x, bound), key=lambda v: (len(v), v.lex_key())):
        if not is_primitive(w) or not is_periodic_point(x, w):
            continue
        t = canonical(OmegaTerm(x.alphabet, (Power(w, 0),)))
        key = format_term(t)
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out


def connector(x: ShiftPresentation, e: OmegaTerm,
              f: OmegaTerm) -> OmegaTerm | None:
    """The first middle term e·f, then e·c·f over the blocks c of x with
    |c| ≤ 4 by length, that lies in the 2-mirage of x; None if none does."""
    cands = sorted(blocks(x, 4), key=lambda v: (len(v), v.lex_key()))
    for c in [None] + cands:
        mid = (canonical(e * f) if c is None
               else canonical(e * OmegaTerm.from_word(c) * f))
        if mirage_membership(mid, x, 2):
            return mid
    return None


# -- evaluation -------------------------------------------------------


def eval_term(t: OmegaTerm, s: FiniteSemigroup, assign: dict[str, int]) -> int:
    """Homomorphic image, powers via s^(ω+q); the term must be nonempty."""
    for a in t.letters():
        if a not in assign:
            raise UnassignedLetter(f"letter {a!r} has no assigned element")

    def word_image(w: Word) -> int:
        acc = assign[w.letters[0]]
        for a in w.letters[1:]:
            acc = s.product(acc, assign[a])
        return acc

    result: int | None = None
    for it in t.body:
        if isinstance(it, Word):
            if len(it) == 0:
                continue
            val = word_image(it)
        else:
            val = omega_plus(s, word_image(it.base), it.q)
        result = val if result is None else s.product(result, val)
    if result is None:
        raise ValueError("the empty term has no value in a semigroup")
    return result


def closure_membership(t: OmegaTerm, x: ShiftPresentation) -> bool:
    """Whether t evaluates into the accepted set of the syntactic
    semigroup of x: the finite shadow of membership in the closure of
    the block language.  The quotient used is exactly S(X)."""
    from .semigroups import syntactic_semigroup
    s, accept = syntactic_semigroup(x)
    assign = dict(s.gen_of)
    return eval_term(t, s, assign) in accept


# -- block codes on terms ---------------------------------------------


def _inflate_bases(t: OmegaTerm, min_len: int) -> OmegaTerm:
    # u^(ω+q) = (u^c)^(ω+floor(q/c)) · u^(q mod c): same value in every
    # finite semigroup, and the new base has length ≥ min_len
    items: list[Item] = []
    for it in t.body:
        if isinstance(it, Power) and len(it.base) < min_len:
            c = -(-min_len // len(it.base))
            items.append(Power(it.base ** c, it.q // c))
            rem = it.q % c
            if rem:
                items.append(it.base ** rem)
        else:
            items.append(it)
    return OmegaTerm(t.alphabet, tuple(items))


def term_block_code(phi, t: OmegaTerm) -> OmegaTerm:
    """The image of t under the word block code of a central block map.

    Left to right with the running (N-1)-suffix of consumed source
    material as context: a word w emits Ψ̄(context·w); a power u^(ω+q)
    (base inflated to length ≥ N-1 first) emits the entry word
    Ψ̄(context·u) followed by Ψ̄(suffix_{N-1}(u)·u)^(ω+q-1).  This is the
    unique continuous extension: Ψ̄(x·u^m) = Ψ̄(x·u)·Ψ̄(suffix(u)·u)^(m-1)
    for words, so the exponent drops by one and the entry word appears;
    folding the entry word into the power would change the value in
    quotients where the period of the image base exceeds 1.  A word is
    a plain term: the loop emits Ψ̄(w) for it, and it must be at least as
    long as the window.
    """
    from .codes import CentralBlockMap, word_code
    if not isinstance(phi, CentralBlockMap):
        raise ValueError("term_block_code needs a central block map")
    n = phi.inner.window
    if t.alphabet != phi.source:
        raise ValueError("term is not over the source alphabet")
    if t.is_plain() and len(t.as_plain_word()) < n:
        raise TooShort(f"plain word shorter than the window {n}")
    t = _inflate_bases(canonical(t), n - 1)
    items: list[Item] = []
    ctx = Word(t.alphabet, ())
    for it in t.body:
        if isinstance(it, Word):
            items.append(word_code(phi.inner, ctx * it))
            ctx = suffix_k(ctx * it, n - 1)
        else:
            u = it.base
            items.append(word_code(phi.inner, ctx * u))
            s = suffix_k(u, n - 1)
            items.append(Power(word_code(phi.inner, s * u), it.q - 1))
            ctx = s
    return canonical(OmegaTerm(phi.target, tuple(items)))


# -- expansion and contraction ----------------------------------------


def expand_word(w: Word, alpha: str, target: Alphabet, diamond: str) -> Word:
    out: tuple[str, ...] = ()
    for a in w.letters:
        out += (a, diamond) if a == alpha else (a,)
    return Word(target, out)


def term_expand(t: OmegaTerm, alpha: str, diamond: str = "o") -> OmegaTerm:
    """The homomorphism over A ∪ {◊} sending alpha to alpha·◊."""
    if alpha not in t.alphabet:
        raise ValueError(f"{alpha!r} is not in the alphabet")
    if diamond in t.alphabet:
        raise ValueError(f"diamond symbol {diamond!r} is not fresh")
    target = Alphabet(t.alphabet.symbols + (diamond,))
    items: list[Item] = []
    for it in t.body:
        if isinstance(it, Word):
            items.append(expand_word(it, alpha, target, diamond))
        else:
            items.append(Power(expand_word(it.base, alpha, target, diamond),
                                it.q))
    return canonical(OmegaTerm(target, tuple(items)))


class EmptyResult(Record):
    """Contraction erased the whole term (it was ◊-only)."""

    __slots__ = ()


def term_contract(t: OmegaTerm, diamond: str = "o"):
    """Delete the diamond homomorphically; EmptyResult for ◊-only terms."""
    if diamond not in t.alphabet:
        raise ValueError(f"{diamond!r} is not in the alphabet")
    target = Alphabet(tuple(s for s in t.alphabet.symbols if s != diamond))

    def strip(w: Word) -> Word:
        return Word(target, tuple(a for a in w.letters if a != diamond))

    items: list[Item] = []
    for it in t.body:
        if isinstance(it, Word):
            items.append(strip(it))
        else:
            base = strip(it.base)
            if len(base) == 0:
                continue  # ◊^(ω+q) contracts to the empty pseudoword
            items.append(Power(base, it.q))
    out = canonical(OmegaTerm(target, tuple(items)))
    if not out.body:
        return EmptyResult()
    return out


def image_E_membership(w: Word, alpha: str, diamond: str = "o") -> bool:
    """Whether w lies in E(A⁺): local conditions only.

    w is nonempty, does not start with ◊, does not end with alpha, every
    alpha is followed by ◊, and every ◊ is preceded by alpha.
    """
    if len(w) == 0:
        raise ValueError("w must be nonempty")
    ls = w.letters
    if ls[0] == diamond or ls[-1] == alpha:
        return False
    for i, a in enumerate(ls):
        if a == alpha and (i + 1 >= len(ls) or ls[i + 1] != diamond):
            return False
        if a == diamond and (i == 0 or ls[i - 1] != alpha):
            return False
    return True


# -- boundary stripping ------------------------------------------------


def first_letter(t: OmegaTerm) -> str:
    return term_prefix_k(t, 1).letters[0]


def last_letter(t: OmegaTerm) -> str:
    return term_suffix_k(t, 1).letters[0]


def _drop_first_item(items: list[Item]) -> list[Item]:
    # a leading power (a·y)^(ω+q) = a · (y·a)^(ω+q-1) · y loses its a
    head = items[0]
    if isinstance(head, Word):
        return [head[1:]] + items[1:]
    a, y = head.base[0], head.base[1:]
    rotated = Word(y.alphabet, y.letters + (a,))
    return [Power(rotated, head.q - 1), y] + items[1:]


def _drop_last_item(items: list[Item]) -> list[Item]:
    # a trailing power (x·b)^(ω+q) = x · (b·x)^(ω+q-1) · b loses its b
    tail = items[-1]
    if isinstance(tail, Word):
        return items[:-1] + [tail[: len(tail) - 1]]
    x, b = tail.base[: len(tail.base) - 1], tail.base[-1]
    rotated = Word(x.alphabet, (b,) + x.letters)
    return items[:-1] + [x, Power(rotated, tail.q - 1)]


def drop_first(t: OmegaTerm) -> OmegaTerm:
    """Remove the first letter, staying an exact ω-term."""
    t = canonical(t)
    if not t.body:
        raise TooShort("empty term")
    items = _drop_first_item(list(t.body))
    return canonical(OmegaTerm(t.alphabet, tuple(items)))


def drop_last(t: OmegaTerm) -> OmegaTerm:
    """Remove the last letter, staying an exact ω-term."""
    t = canonical(t)
    if not t.body:
        raise TooShort("empty term")
    items = _drop_last_item(list(t.body))
    return canonical(OmegaTerm(t.alphabet, tuple(items)))


def strip_boundary(t: OmegaTerm) -> OmegaTerm:
    """Remove the first and last letter, staying an exact ω-term.

    A leading power (a·y)^(ω+q) loses its first letter via
    (a·y)^(ω+q) = a · (y·a)^(ω+q-1) · y, and dually on the right, so
    first · strip_boundary(t) · last rebuilds a term with the same value
    in every finite semigroup (checked by canonical form in tests).
    """
    t = canonical(t)
    if t.is_plain() and len(t.as_plain_word()) < 2:
        raise TooShort("need at least two letters to strip")
    items, _ = _flatten(t.alphabet, _drop_first_item(list(t.body)))
    return canonical(OmegaTerm(t.alphabet, tuple(_drop_last_item(items))))


# -- quotient comparison -----------------------------------------------


class Verdict(Record):
    """Outcome of comparing two terms through finite quotients.

    kind is "EqualInAll" or "DistinguishedBy".  canonical_equal means
    the normal forms coincide, which is a proof of equality in every
    finite semigroup; a bare EqualInAll is only as strong as the tests.
    """

    __slots__ = ("kind", "canonical_equal", "distinguished_by", "note")
    kind: str
    canonical_equal: bool
    distinguished_by: FiniteSemigroup | None
    note: str

    def __init__(self, kind: str, canonical_equal: bool,
                 distinguished_by: FiniteSemigroup | None, note: str) -> None:
        _set(self, "kind", kind)
        _set(self, "canonical_equal", canonical_equal)
        _set(self, "distinguished_by", distinguished_by)
        _set(self, "note", note)


def quotient_equal(s: OmegaTerm, t: OmegaTerm, tests) -> Verdict:
    """Compare s and t in each (semigroup, assignment) pair."""
    if s.alphabet != t.alphabet:
        raise ValueError("terms must share an alphabet")
    if canonical(s) == canonical(t):
        return Verdict("EqualInAll", True, None,
                       "canonical forms coincide; equal in every finite "
                       "semigroup")
    for semigroup, assign in tests:
        if eval_term(s, semigroup, assign) != eval_term(t, semigroup, assign):
            return Verdict("DistinguishedBy", False, semigroup,
                           f"values differ in a quotient of size "
                           f"{semigroup.size}")
    return Verdict("EqualInAll", False, None,
                   "equal in all supplied quotients; not a proof of "
                   "equality of pseudowords")


# -- parsing and printing ----------------------------------------------


# the last alternative catches any text that starts no token
_TOKEN = re.compile(r"\(|\)\^\(w[+-]\d+\)|\)\^w|[^()\s^]+|(?P<bad>\S+)")
_EXP = re.compile(r"^\)\^\(w([+-]\d+)\)$")


def parse_term(alphabet: Alphabet, text: str) -> OmegaTerm:
    """Parse the surface syntax: letters juxtaposed or space-separated,
    powers as (body)^w or (body)^(w±q).  Nested powers are rejected."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group("bad"):
            raise ValueError(f"unexpected text {m.group('bad')!r}")
        tokens.append(m.group())
    items: list[Item] = []
    i = 0

    def to_letters(tok: str) -> tuple[str, ...]:
        if tok in alphabet:
            return (tok,)
        if alphabet.is_single_char() and all(c in alphabet for c in tok):
            return tuple(tok)
        raise ValueError(f"unknown symbol {tok!r}")

    while i < len(tokens):
        tok = tokens[i]
        if tok == "(":
            j = i + 1
            letters: tuple[str, ...] = ()
            while j < len(tokens) and not tokens[j].startswith(")"):
                if tokens[j] == "(":
                    raise ValueError("nested powers are not supported")
                letters += to_letters(tokens[j])
                j += 1
            if j == len(tokens):
                raise ValueError("unclosed power")
            if not letters:
                raise ValueError("empty power base")
            m = _EXP.match(tokens[j])
            q = int(m.group(1)) if m else 0
            items.append(Power(Word(alphabet, letters), q))
            i = j + 1
        elif tok.startswith(")"):
            raise ValueError("unmatched ')'")
        else:
            items.append(Word(alphabet, to_letters(tok)))
            i += 1
    items, _ = _flatten(alphabet, items)
    return OmegaTerm(alphabet, tuple(items))


def format_term(t: OmegaTerm) -> str:
    parts = []
    for it in t.body:
        if isinstance(it, Word):
            parts.extend(it.letters)
        else:
            base = " ".join(it.base.letters)
            if it.q == 0:
                parts.append(f"({base})^w")
            elif it.q > 0:
                parts.append(f"({base})^(w+{it.q})")
            else:
                parts.append(f"({base})^(w{it.q})")
    return " ".join(parts) if parts else "ε"
