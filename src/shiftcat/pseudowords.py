"""Rank-1 ω-terms: computable stand-ins for pseudowords.

A term is an alternating sequence of finite words and powers u^(ω+q)
with integer offset q (possibly negative).  Nested powers are rejected;
everything the library needs (idempotents, expansion and contraction
images) lives in this fragment, where a sound canonical form exists.

Equality handling is three-tiered and never overclaims: canonical forms
coinciding is a proof (the rewrite rules are identities in every finite
semigroup); a finite quotient can refute; agreement on all supplied
quotients is reported as exactly that.
"""

from __future__ import annotations

import re

from .errors import (DiamondOnly, InvalidArrow, SizeLimit, TooShort,
                     UnassignedLetter)
from .semigroups import FiniteSemigroup, omega_plus
from .shifts import (ShiftPresentation, is_periodic_point,
                     mirage_membership_k, ordered_blocks, spell_blocks)
from .words import (Alphabet, Record, Word, _set, factors_up_to, is_primitive,
                    prefix_k, primitive_root, suffix_k)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Union

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


# -- canonical form ---------------------------------------------------


def _absorb_head(w: tuple, base: tuple, q: int) -> tuple[tuple, int]:
    # u^(ω+q)·u^k·w' = u^(ω+q+k)·w': whole copies at the start of w
    n, k = len(base), 0
    while w[k * n:(k + 1) * n] == base:
        k += 1
    return (w[k * n:] if k else w), q + k


def _absorb_tail(w: tuple, base: tuple, q: int) -> tuple[tuple, int]:
    # w'·u^k·u^(ω+q) = w'·u^(ω+q+k): whole copies at the end of w
    n, m, k = len(base), len(w), 0
    while m - (k + 1) * n >= 0 and w[m - (k + 1) * n:m - k * n] == base:
        k += 1
    return (w[:m - k * n] if k else w), q + k


def canonical(t: OmegaTerm) -> OmegaTerm:
    """The normal form: flattened, primitive bases, whole base copies
    absorbed into exponents, same-base neighbors merged, and words
    rotated to the right of powers.

    The form is the one that rewriting in passes reaches when nothing
    changes any more (tests/oracles.py keeps that procedure as the
    reference); this replays its steps in two linear sweeps.  A pass
    absorbs whole base copies from left to right, so of two powers
    sharing the word between them the left one takes its copies first,
    unless the pass has just merged it into the power before it, which
    uses up its turn.  Only when nothing is absorbed does the leftmost
    power whose base ends with the last letter of the word before it
    rotate, w·c (y·c)^(ω+q) → w (c·y)^(ω+q) c, one letter per pass.
    Letters only move right, so that power rotates to the end before
    any power to its right starts, and everything to its left is final.
    Here it rotates by all the letters that move before the next
    absorption in one step, and by fewer letters than its base has in
    all, so the work is linear in the length of the term for bases of
    bounded length.
    """
    # words[i] precedes powers[i], words[-1] ends the term; a power is
    # [primitive base, q], and late[i] marks one merged with the power
    # before it, which takes its copies from the word after it only once
    # the next power has taken its own
    parts: list[list[str]] = [[]]
    powers: list[list] = []
    late: list[bool] = []
    for it in t.body:
        if isinstance(it, Word):
            parts[-1].extend(it.letters)
            continue
        # (z^c)^(ω+q) = z^ω z^(cq) = z^(ω+cq): ω-powers of a root and of
        # its powers are the same idempotent in every finite semigroup
        root, c = primitive_root(it.base)
        if powers and not parts[-1] and powers[-1][0] == root.letters:
            # u^(ω+p) u^(ω+q) = u^(ω+p+q) since u^ω is idempotent
            powers[-1][1] += c * it.q
            late[-1] = True
        else:
            powers.append([root.letters, c * it.q])
            late.append(False)
            parts.append([])
    words = [tuple(w) for w in parts]
    n = len(powers)
    for i, w in enumerate(words):
        left = powers[i - 1] if i else None
        if left is not None and not late[i - 1]:
            w, left[1] = _absorb_head(w, left[0], left[1])
        if i < n:
            w, powers[i][1] = _absorb_tail(w, powers[i][0], powers[i][1])
        if left is not None and late[i - 1]:
            w, left[1] = _absorb_head(w, left[0], left[1])
        words[i] = w
    # powers left adjacent by absorption merge when their bases agree
    ws, ps = [words[0]], []
    for p, w in zip(powers, words[1:]):
        if ps and not ws[-1] and ps[-1][0] == p[0]:
            ps[-1][1] += p[1]
            ws[-1] = w
        else:
            ps.append(p)
            ws.append(w)
    # rotations, one power at a time: out_w[-1] is the word before the
    # power, right the word after it, and after the next power
    out_w, out_p = [ws[0]], []
    j = 0
    while j < len(ps):
        base, q = ps[j]
        nxt = j + 1
        right = ws[nxt]
        while out_w[-1] and out_w[-1][-1] == base[-1]:
            # move in one step the letters at the end of the word before
            # that match the end of the base, up to the first one whose
            # move lets something be absorbed: the letter completing a
            # copy of the base at the start of right, or the one making
            # right a copy of the next base (neither word holds a whole
            # copy of its neighbour's base, so each run is shorter)
            left, size = out_w[-1], len(base)
            after = ps[nxt] if nxt < len(ps) else None
            step = 1
            while step < min(len(left), size) \
                    and left[-1 - step] == base[-1 - step]:
                step += 1
            run = 0
            while run < min(len(right), size) and right[run] == base[run]:
                run += 1
            step = min(step, size - run)
            if after is not None:
                k = len(after[0]) - len(right)
                if 0 < k < step and left[-k:] + right == after[0]:
                    step = k
            out_w[-1] = left[:-step]
            base = left[-step:] + base[:-step]
            right = left[-step:] + right
            merged = not out_w[-1] and out_p and out_p[-1][0] == base
            if merged:
                # the merge takes this power's turn: the next one
                # absorbs first, and the word before is not rotatable
                out_w.pop()
                q += out_p.pop()[1]
                if after is not None:
                    right, after[1] = _absorb_tail(right, after[0], after[1])
                right, q = _absorb_head(right, base, q)
            else:
                right, q = _absorb_head(right, base, q)
                if after is not None:
                    right, after[1] = _absorb_tail(right, after[0], after[1])
            while not right and after is not None and after[0] == base:
                q += after[1]
                nxt += 1
                right = ws[nxt]
                after = ps[nxt] if nxt < len(ps) else None
        out_p.append((base, q))
        out_w.append(right)
        j = nxt
    a = t.alphabet
    items: list[Item] = []
    for w, (base, q) in zip(out_w, out_p):
        if w:
            items.append(Word(a, w))
        items.append(Power(Word(a, base), q))
    if out_w[-1]:
        items.append(Word(a, out_w[-1]))
    return OmegaTerm(a, tuple(items))


def canonical_equal(s: OmegaTerm, t: OmegaTerm) -> bool:
    return canonical(s) == canonical(t)


# -- unfolding, prefixes, factors ------------------------------------


# The most letters times k that unroll(t, k) will spell.  The product
# bounds the unrolled word, the windows of length k that
# mirage_membership_k holds (about 32 MiB of tuples at the cap) and the
# per-level report of member.  The distinct factors of the word can hold
# about k³/6 letters, so term_factors also stops when they hold more
# than this many letters.  The test suite reaches under 10^6 of either:
# a 22000-item stdin term at bound 4, and (a b)^w at bound 1000.
_MAX_UNROLL = 4_000_000


def unroll(t: OmegaTerm, k: int) -> Word:
    """Each u^(ω+q) written out k+2 times, whatever q is.

    A factor of length ≤ k meets at most k letters of each power, so the
    factors, prefix and suffix of length ≤ k are those of every deep
    unfolding, and the word's length does not grow with q.  A plain
    term unrolls to its own word.  The letters are counted first, and
    SizeLimit is raised before any is written when their number times
    k passes _MAX_UNROLL.
    """
    size = sum(len(it) if isinstance(it, Word) else len(it.base) * (k + 2)
               for it in t.body)
    if size * k > _MAX_UNROLL:
        raise SizeLimit(f"unrolling to {size} letters at level {k}: "
                        f"letters times level exceeds {_MAX_UNROLL}")
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
    """All factors of length ≤ k of the term (stably, via one unrolling).

    SizeLimit is raised once they hold more than _MAX_UNROLL letters.
    """
    return factors_up_to(unroll(t, k), k, _MAX_UNROLL)


def mirage_membership(t: OmegaTerm, x: ShiftPresentation, k: int) -> bool:
    """True iff every factor of t of length ≤ k is a block of x.

    A word is the plain term of its letters; the empty term is
    vacuously a member.
    """
    w = unroll(t, k)
    return len(w) == 0 or mirage_membership_k(x, w, k)


def mirage_levels(t: OmegaTerm, x: ShiftPresentation,
                  bound: int) -> dict[int, bool]:
    """{k: mirage_membership(t, x, k)} for k from 1 to bound.

    A factor of length ≤ k-1 is one of length ≤ k, so membership holds up
    to some level and fails above it: after the check at the bound, a
    bisection finds the least failing level in O(log bound) checks.
    """
    fails = bound + 1
    if not mirage_membership(t, x, bound):
        # the levels below lo hold, and the level `fails` fails
        lo, fails = 1, bound
        while lo < fails:
            mid = (lo + fails) // 2
            if mirage_membership(t, x, mid):
                lo = mid + 1
            else:
                fails = mid
    return {k: k < fails for k in range(1, bound + 1)}


def idempotent_terms(x: ShiftPresentation, bound: int) -> list[OmegaTerm]:
    """w^ω for every primitive block w of x, |w| ≤ bound, with w^∞ a
    point of x, in the order of ordered_blocks.  For a primitive w,
    w^ω is its own canonical form, and distinct w give distinct terms,
    so distinct rotations stay distinct."""
    return [OmegaTerm(x.alphabet, (Power(w, 0),))
            for w in ordered_blocks(x, bound)
            if is_primitive(w) and is_periodic_point(x, w)]


def connector(x: ShiftPresentation, e: OmegaTerm,
              f: OmegaTerm) -> OmegaTerm | None:
    """The first middle term e·f, then e·c·f over the blocks c of x with
    |c| ≤ 4 by length, that lies in the 2-mirage of x; None if none does.

    A term and its canonical form unroll to words with the same factors,
    so only the candidate returned is canonicalised.  The blocks are
    spelled only when e·f fails and as they are tried, and most pairs
    need the first few."""
    mid = e * f
    if mirage_membership(mid, x, 2):
        return canonical(mid)
    for c in spell_blocks(x, 4, [(a,) for a in x.alphabet.symbols], ()):
        mid = e * OmegaTerm.from_word(Word(x.alphabet, c)) * f
        if mirage_membership(mid, x, 2):
            return canonical(mid)
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
    return Word(target, tuple(c for a in w.letters
                              for c in ((a, diamond) if a == alpha else (a,))))


def term_expand(t: OmegaTerm, alpha: str, diamond: str = "o") -> OmegaTerm:
    """The homomorphism over A ∪ {◊} sending alpha to alpha·◊."""
    if alpha not in t.alphabet:
        raise ValueError(f"{alpha!r} is not in the alphabet")
    if diamond in t.alphabet:
        raise ValueError(f"diamond symbol {diamond!r} is not fresh")
    return _image(t, Alphabet(t.alphabet.symbols + (diamond,)),
                  {a: (a, diamond) if a == alpha else (a,)
                   for a in t.alphabet.symbols})


def term_contract(t: OmegaTerm, diamond: str = "o") -> OmegaTerm:
    """Delete the diamond homomorphically; DiamondOnly for ◊-only terms."""
    if diamond not in t.alphabet:
        raise ValueError(f"{diamond!r} is not in the alphabet")
    out = _image(t, Alphabet(tuple(s for s in t.alphabet.symbols
                                   if s != diamond)),
                 {a: () if a == diamond else (a,) for a in t.alphabet.symbols})
    if not out.body:
        raise DiamondOnly("term contracts to the empty pseudoword")
    return out


def _image(t: OmegaTerm, target: Alphabet, letters: dict) -> OmegaTerm:
    # t's canonical image under a ↦ letters[a]; a power of ε is dropped
    def word(w: Word) -> Word:
        return Word(target, tuple(c for a in w.letters for c in letters[a]))

    items: list[Item] = []
    for it in t.body:
        if isinstance(it, Word):
            items.append(word(it))
        elif base := word(it.base):
            items.append(Power(base, it.q))
    return canonical(OmegaTerm(target, tuple(items)))


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


def check_equal_in_quotients(s: OmegaTerm, t: OmegaTerm, tests, error,
                             message: str) -> None:
    """Raise error(message) if a quotient in tests tells s from t.

    Agreement proves nothing and passes; with no tests nothing is
    compared or canonicalised."""
    if tests and quotient_equal(s, t, tests).kind == "DistinguishedBy":
        raise error(message)


def check_arrow(arrow, tests) -> None:
    """InvalidArrow if a quotient in tests tells e·u·f from u for the
    arrow (e, u, f); the triple is read only when there are tests."""
    if tests:
        e, u, f = arrow
        check_equal_in_quotients(e * u * f, u, tests, InvalidArrow,
                                 "middle component is not fixed by the end "
                                 "idempotents in a finite quotient")


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
    # powers, and the letters between them as one list per run
    items: list = []
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
            letters: list[str] = []
            while j < len(tokens) and not tokens[j].startswith(")"):
                if tokens[j] == "(":
                    raise ValueError("nested powers are not supported")
                letters.extend(to_letters(tokens[j]))
                j += 1
            if j == len(tokens):
                raise ValueError("unclosed power")
            if not letters:
                raise ValueError("empty power base")
            m = _EXP.match(tokens[j])
            q = int(m.group(1)) if m else 0
            items.append(Power(Word(alphabet, tuple(letters)), q))
            i = j + 1
        elif tok.startswith(")"):
            raise ValueError("unmatched ')'")
        else:
            if not items or isinstance(items[-1], Power):
                items.append([])
            items[-1].extend(to_letters(tok))
            i += 1
    return OmegaTerm(alphabet, tuple(
        it if isinstance(it, Power) else Word(alphabet, tuple(it))
        for it in items))


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
