"""Alphabets and finite words.

Words are immutable sequences of symbols drawn from a fixed alphabet.
Symbols are opaque tokens ordered by their position in the alphabet;
all lexicographic comparisons go through that order, never through
Python string ordering, so multi-character symbols (higher-block
alphabets) behave the same as single letters.
"""

from __future__ import annotations

from .errors import SizeLimit

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
    The generic __init__ takes one value per field, positionally, and
    stores them unchecked; a subclass that checks its fields defines
    its own __init__ and sets them with _set.  The classes on the hot
    path (Alphabet, Word, Power, OmegaTerm) spell out __eq__ and
    __hash__ over their fields: the generic versions cost about twice
    as much per call.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{self.__class__.__qualname__} takes "
                            f"{len(self.__slots__)} fields, not {len(values)}")
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

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
        if not all(isinstance(a, str) for a in symbols):
            raise ValueError("alphabet symbols must be strings")
        if "" in symbols:
            raise ValueError("alphabet symbols must be nonempty")
        # a text form spells words with white space between symbols and
        # terms with ( ) ^, so a symbol holding one could not be named
        if any(c.isspace() or c in "()^" for a in symbols for c in a):
            raise ValueError("alphabet symbols may not contain white space, "
                             "'(', ')' or '^'")
        _set(self, "symbols", symbols)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.symbols == other.symbols
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.symbols,))

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
        """Parse a word: one symbol per character over a single-character
        alphabet, symbols separated by white space over any other."""
        if alphabet.is_single_char():
            return Word(alphabet, tuple(text))
        return Word(alphabet, tuple(text.split()))

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.alphabet, self.letters[i])
        return self.letters[i]

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


def factors_up_to(u: Word, k: int, limit: int) -> set[Word]:
    """All nonempty factors of u of length at most k.

    The factors starting at each position are walked down a trie of the
    factors found so far, so a Word is built once per distinct factor,
    not once per position and length.  SizeLimit is raised as soon as
    the factors found hold more than limit letters in all, which also
    bounds the trie: it has one node per factor.
    """
    if k < 1:
        raise ValueError("k must be positive")
    out: set[Word] = set()
    trie: dict = {}
    letters, n = u.letters, len(u)
    held = 0
    for i in range(n):
        node = trie
        for j in range(i, min(i + k, n)):
            nxt = node.get(letters[j])
            if nxt is None:
                nxt = node[letters[j]] = {}
                out.add(Word(u.alphabet, letters[i:j + 1]))
                held += j + 1 - i
                if held > limit:
                    raise SizeLimit(f"factors of length at most {k} hold "
                                    f"more than {limit} letters")
            node = nxt
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
    letters = w.letters
    for d in range(1, n + 1):
        if n % d == 0 and letters[:d] * (n // d) == letters:
            return (w if d == n else Word(w.alphabet, letters[:d])), n // d
    raise AssertionError("unreachable: w is always a power of itself")


def word_to_json(u: Word) -> str | list[str]:
    """Plain string for single-character alphabets, array of tokens otherwise."""
    if u.alphabet.is_single_char():
        return "".join(u.letters)
    return list(u.letters)


def word_from_json(alphabet: Alphabet, data: str | list[str]) -> Word:
    # any other JSON value, an object say, would iterate as its keys
    if isinstance(data, str):
        return Word.from_str(alphabet, data)
    if not isinstance(data, list):
        raise ValueError("a word is a JSON string or array")
    return Word(alphabet, tuple(data))
