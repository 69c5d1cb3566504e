"""Alphabets and finite words.

Words are immutable sequences of symbols drawn from a fixed alphabet.
Symbols are opaque tokens ordered by their position in the alphabet;
all lexicographic comparisons go through that order, never through
Python string ordering, so multi-character symbols (higher-block
alphabets) behave the same as single letters.
"""

from __future__ import annotations

import itertools

# how a Record's __init__ sets its fields
_set = object.__setattr__


class Record:
    """Frozen value semantics for a small class whose fields are its
    __slots__, in order.

    Assigning or deleting a field raises AttributeError; instances are
    equal when they are of the same class and their fields are equal,
    and hash as the tuple of their fields (a class with an unhashable
    field must define its own __hash__).  repr lists the fields by
    name, and copy and pickle rebuild an instance through __init__.
    Each subclass checks its fields in __init__ and sets them with
    _set.  The classes on the hot path (Alphabet, Word, Power,
    OmegaTerm) spell out __eq__ and __hash__ over their fields: the
    generic versions cost about twice as much per call.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._values())


class Alphabet(Record):
    """An ordered finite set of distinct symbols."""

    __slots__ = ("symbols",)
    symbols: tuple[str, ...]

    def __init__(self, symbols: tuple[str, ...]) -> None:
        if not symbols:
            raise ValueError("alphabet must be nonempty")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        _set(self, "symbols", symbols)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.symbols == other.symbols
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.symbols,))

    def index(self, symbol: str) -> int:
        return self.symbols.index(symbol)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self.symbols

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def is_single_char(self) -> bool:
        return all(len(s) == 1 for s in self.symbols)


class Word(Record):
    """A finite, possibly empty, sequence of symbols over an alphabet."""

    __slots__ = ("alphabet", "letters")
    alphabet: Alphabet
    letters: tuple[str, ...]

    def __init__(self, alphabet: Alphabet,
                 letters: tuple[str, ...] = ()) -> None:
        symbols = alphabet.symbols
        for x in letters:
            if x not in symbols:
                raise ValueError(f"letter {x!r} not in alphabet")
        _set(self, "alphabet", alphabet)
        _set(self, "letters", letters)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.letters == other.letters and \
                (self.alphabet is other.alphabet
                 or self.alphabet == other.alphabet)
        return NotImplemented

    def __hash__(self) -> int:
        # equal alphabets have equal symbols; hashing those saves a call
        return hash((self.alphabet.symbols, self.letters))

    @staticmethod
    def from_str(alphabet: Alphabet, text: str) -> "Word":
        """Parse a word written as one character per symbol."""
        if not alphabet.is_single_char():
            raise ValueError("from_str needs a single-character alphabet")
        return Word(alphabet, tuple(text))

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.alphabet, self.letters[i])
        return self.letters[i]

    def __iter__(self):
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.letters + other.letters)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            raise ValueError("negative word power")
        return Word(self.alphabet, self.letters * n)

    def lex_key(self) -> tuple[int, ...]:
        idx = {s: i for i, s in enumerate(self.alphabet.symbols)}
        return tuple(idx[x] for x in self.letters)

    def as_str(self) -> str:
        return "".join(self.letters)

    def __str__(self) -> str:
        return self.as_str() if self.letters else "ε"


def empty_word(alphabet: Alphabet) -> Word:
    return Word(alphabet, ())


def prefix_k(u: Word, k: int) -> Word:
    """First k letters of u; all of u when k exceeds its length."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k >= len(u):
        return u
    return Word(u.alphabet, u.letters[:k])


def suffix_k(u: Word, k: int) -> Word:
    """Last k letters of u; all of u when k exceeds its length."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return Word(u.alphabet, ())
    if k >= len(u):
        return u
    return Word(u.alphabet, u.letters[-k:])


def factors_up_to(u: Word, k: int) -> set[Word]:
    """All nonempty factors of u of length at most k."""
    if k < 1:
        raise ValueError("k must be positive")
    out: set[Word] = set()
    n = len(u)
    for i in range(n):
        for j in range(i + 1, min(i + k, n) + 1):
            out.add(Word(u.alphabet, u.letters[i:j]))
    return out


def is_primitive(v: Word) -> bool:
    """True iff v is not a proper power of a shorter word."""
    if len(v) == 0:
        raise ValueError("primitivity is undefined for the empty word")
    root, _ = primitive_root(v)
    return len(root) == len(v)


def primitive_root(w: Word) -> tuple[Word, int]:
    """The unique (root, exponent) with w = root**exponent and root primitive."""
    n = len(w)
    if n == 0:
        raise ValueError("the empty word has no primitive root")
    for d in range(1, n + 1):
        if n % d != 0:
            continue
        cand = Word(w.alphabet, w.letters[:d])
        if cand.letters * (n // d) == w.letters:
            return cand, n // d
    raise AssertionError("unreachable: w is always a power of itself")


def conjugates(v: Word) -> list[Word]:
    """All cyclic rotations of v in rotation order, first occurrence kept."""
    if len(v) == 0:
        raise ValueError("conjugates are undefined for the empty word")
    seen: list[Word] = []
    for i in range(len(v)):
        rot = Word(v.alphabet, v.letters[i:] + v.letters[:i])
        if rot not in seen:
            seen.append(rot)
    return seen


def least_rotation(v: Word) -> Word:
    """Lexicographically least cyclic rotation (necklace representative)."""
    if len(v) == 0:
        raise ValueError("least rotation is undefined for the empty word")
    return min(conjugates(v), key=Word.lex_key)


def check_primitivity_inclusion(v: Word, bound: int, power: int = 2) -> list[Word]:
    """Violations of  v* · v^power · A^(<|v|)  ∩  A* · v^power  ⊆  v⁺.

    Enumerates every word of length ≤ bound in the left-hand set and
    returns, sorted, those that are not a positive power of v.  With the
    default power=2 the result is expected empty for primitive v; power=1
    is the weaker variant that does admit witnesses.
    """
    if not is_primitive(v):
        raise ValueError("v must be primitive")
    if power < 1:
        raise ValueError("power must be positive")
    anchor = v ** power
    violations: set[Word] = set()
    j = 0
    while len(v) * j + len(anchor) <= bound:
        head = (v ** j) * anchor
        for slen in range(len(v)):
            if len(head) + slen > bound:
                break
            for tail in itertools.product(v.alphabet.symbols, repeat=slen):
                w = Word(v.alphabet, head.letters + tail)
                # membership in A* · v^power: w must end with the anchor
                if w.letters[len(w) - len(anchor):] != anchor.letters:
                    continue
                if len(w) % len(v) != 0 or (v ** (len(w) // len(v))).letters != w.letters:
                    violations.add(w)
        j += 1
    return sorted(violations, key=Word.lex_key)


def word_to_json(u: Word) -> str | list[str]:
    """Plain string for single-character alphabets, array of tokens otherwise."""
    if u.alphabet.is_single_char():
        return "".join(u.letters)
    return list(u.letters)


def word_from_json(alphabet: Alphabet, data: str | list[str]) -> Word:
    if isinstance(data, str):
        return Word.from_str(alphabet, data)
    return Word(alphabet, tuple(data))
