"""Block maps, word block codes, and their action on presentations and
periodic points.

A block map is a total table A^N -> B together with a split of the
window into memory m and anticipation n (m + n + 1 = N); the induced
sliding code is y_i = table(x_{i-m} ... x_{i+n}).  The word code reads
consecutive windows of a finite word and returns the empty word when
the input is shorter than the window.
"""

from __future__ import annotations

import itertools
import json

from .shifts import LabeledGraph, PeriodicPoint, ShiftPresentation, trim_graph
from .words import Alphabet, Record, Word, _set


class BlockMap(Record):
    __slots__ = ("source", "target", "window", "table", "memory",
                 "anticipation")
    source: Alphabet
    target: Alphabet
    window: int
    table: dict  # tuple of source letters (length = window) -> target letter
    memory: int
    anticipation: int

    def __init__(self, source: Alphabet, target: Alphabet, window: int,
                 table: dict, memory: int, anticipation: int) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        if memory < 0 or anticipation < 0 \
                or memory + anticipation + 1 != window:
            raise ValueError("memory + anticipation + 1 must equal window")
        expected = len(source) ** window
        if len(table) != expected:
            raise ValueError("table must be total on all windows")
        for key, val in table.items():
            if len(key) != window or any(x not in source for x in key):
                raise ValueError(f"bad table key {key!r}")
            if val not in target:
                raise ValueError(f"table value {val!r} not in target alphabet")
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "window", window)
        _set(self, "table", table)
        _set(self, "memory", memory)
        _set(self, "anticipation", anticipation)

    def __call__(self, letters: tuple[str, ...] | Word) -> str:
        if isinstance(letters, Word):
            letters = letters.letters
        return self.table[tuple(letters)]

    def __hash__(self) -> int:
        # the table is a dict, so hash its sorted items
        return hash((self.source, self.target, self.window,
                     self.memory, self.anticipation,
                     tuple(sorted(self.table.items()))))


class CentralBlockMap(Record):
    """A block map with odd window and memory = anticipation = wing."""

    __slots__ = ("inner", "wing")
    inner: BlockMap
    wing: int

    def __init__(self, inner: BlockMap, wing: int) -> None:
        if inner.window != 2 * wing + 1 or inner.memory != wing \
                or inner.anticipation != wing:
            raise ValueError("inner map is not central of this wing")
        _set(self, "inner", inner)
        _set(self, "wing", wing)

    @property
    def source(self) -> Alphabet:
        return self.inner.source

    @property
    def target(self) -> Alphabet:
        return self.inner.target

    def word(self, u: Word) -> Word:
        return word_code(self.inner, u)


def centralize(phi: BlockMap) -> CentralBlockMap:
    """Recenter phi to wing k = max(memory, anticipation).

    The new table reads the old window at its original offset inside the
    enlarged one, so both maps induce the same sliding code, not merely
    shift-equivalent ones.
    """
    k = max(phi.memory, phi.anticipation)
    if phi.memory == k and phi.anticipation == k:
        return CentralBlockMap(phi, k)
    lo = k - phi.memory  # position of the old window inside the new one
    table = {}
    for win in itertools.product(phi.source.symbols, repeat=2 * k + 1):
        table[win] = phi.table[win[lo:lo + phi.window]]
    inner = BlockMap(phi.source, phi.target, 2 * k + 1, table, k, k)
    return CentralBlockMap(inner, k)


def word_code(psi: BlockMap | CentralBlockMap, u: Word) -> Word:
    """The word block code: consecutive windows of u mapped through psi.

    Words shorter than the window go to the empty word.
    """
    if isinstance(psi, CentralBlockMap):
        psi = psi.inner
    if u.alphabet != psi.source:
        raise ValueError("word is not over the source alphabet")
    n = len(u)
    if n < psi.window:
        return Word(psi.target, ())
    out = tuple(psi.table[u.letters[i:i + psi.window]]
                for i in range(n - psi.window + 1))
    return Word(psi.target, out)


def block_symbol(letters: tuple[str, ...]) -> str:
    """The alphabet token naming a block: its letters in brackets."""
    if all(len(x) == 1 for x in letters):
        return "[" + "".join(letters) + "]"
    return "[" + ",".join(letters) + "]"


def block_alphabet(alphabet: Alphabet, n: int) -> Alphabet:
    """A_n: all n-blocks over the alphabet, as symbols, in lex order."""
    return Alphabet(tuple(block_symbol(t)
                          for t in itertools.product(alphabet.symbols, repeat=n)))


def higher_block_map(alphabet: Alphabet, n: int) -> BlockMap:
    """The identity block map A^N -> A_N.

    Memory is floor((N-1)/2), so odd windows are already central; the
    choice only fixes the alignment of image points, never the word code
    or the image shift.
    """
    if n < 1:
        raise ValueError("N must be positive")
    table = {t: block_symbol(t)
             for t in itertools.product(alphabet.symbols, repeat=n)}
    m = (n - 1) // 2
    return BlockMap(alphabet, block_alphabet(alphabet, n), n, table,
                    m, n - 1 - m)


def lambda_first_letter(alphabet: Alphabet, n: int) -> BlockMap:
    """Window-1 map A_N -> A sending each block symbol to its first letter."""
    if n < 1:
        raise ValueError("N must be positive")
    table = {(block_symbol(t),): t[0]
             for t in itertools.product(alphabet.symbols, repeat=n)}
    return BlockMap(block_alphabet(alphabet, n), alphabet, 1, table, 0, 0)


def compose(phi: CentralBlockMap, psi: CentralBlockMap) -> CentralBlockMap:
    """The central block map of wing k+l inducing psi∘phi.

    Λ(u) = psi(word_code(phi, u)) on windows of length 2(k+l)+1; the
    word-code law word_code(Λ, u) = word_code(psi, word_code(phi, u))
    then holds for every word, including those shorter than the window.
    """
    if phi.target != psi.source:
        raise ValueError("target of phi must equal source of psi")
    k, l = phi.wing, psi.wing
    wing = k + l
    table = {}
    for win in itertools.product(phi.source.symbols, repeat=2 * wing + 1):
        mid = word_code(phi.inner, Word(phi.source, win))
        table[win] = psi.inner.table[mid.letters]
    inner = BlockMap(phi.source, psi.target, 2 * wing + 1, table, wing, wing)
    return CentralBlockMap(inner, wing)


def apply_to_presentation(phi: CentralBlockMap,
                          x: ShiftPresentation) -> ShiftPresentation:
    """A sofic presentation of the image shift phi(X).

    Works on the trimmed graph of X: vertices are its paths of 2k edges,
    edges its paths of 2k+1 edges, and a path-edge is labeled by phi of
    its label word.  Running over edge paths (rather than label words)
    keeps the hidden sofic state, so the result presents exactly the
    image language; the label-word shortcut would overcount for strictly
    sofic inputs.
    """
    if x.alphabet != phi.source:
        raise ValueError("presentation is not over the source alphabet")
    g = x.graph()
    k = phi.wing
    if k == 0:
        relabeled = [(s, phi.inner.table[(a,)], d) for s, a, d in g.edges]
        out = trim_graph(LabeledGraph(g.vertices, relabeled))
    else:
        paths = [(e,) for e in g.edges]
        for _ in range(2 * k):
            paths = [p + (e,) for p in paths for e in g.out[p[-1][2]]]
        verts = sorted({p[:-1] for p in paths} | {p[1:] for p in paths})
        edges = []
        for p in paths:
            label = phi.inner.table[tuple(e[1] for e in p)]
            edges.append((p[:-1], label, p[1:]))
        out = trim_graph(LabeledGraph(verts, edges))
    order = sorted(range(len(out.vertices)), key=lambda i: str(out.vertices[i]))
    names = {out.vertices[i]: str(rank) for rank, i in enumerate(order)}
    return ShiftPresentation.sofic(
        phi.target,
        sorted(names.values(), key=int),
        sorted(((names[s], a, names[d]) for s, a, d in out.edges),
               key=lambda e: (int(e[0]), e[1], int(e[2]))))


def apply_to_periodic(phi: CentralBlockMap, pt: PeriodicPoint) -> PeriodicPoint:
    """The image of a periodic point, with primitive normalized representative."""
    rep = pt.representative
    if rep.alphabet != phi.source:
        raise ValueError("point is not over the source alphabet")
    n = len(rep)
    k = phi.wing

    def coord(i: int) -> str:
        return rep.letters[(i + pt.shift_phase) % n]

    image = tuple(phi.inner.table[tuple(coord(i + d) for d in range(-k, k + 1))]
                  for i in range(n))
    return PeriodicPoint.from_word(Word(phi.target, image), 0).normalized()


def block_map_to_json(phi: BlockMap) -> dict:
    sep = "" if phi.source.is_single_char() else "|"
    if sep and any("|" in s for s in phi.source.symbols):
        raise ValueError("source symbols may not contain '|'")
    return {"window": phi.window,
            "source": list(phi.source.symbols),
            "target": list(phi.target.symbols),
            "memory": phi.memory,
            "anticipation": phi.anticipation,
            "table": {sep.join(key): val
                      for key, val in sorted(phi.table.items())}}


def block_map_from_json(data: dict | str) -> BlockMap:
    """Read the JSON form; malformed input raises a one-line ValueError."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError(f"a block map is a JSON object, not "
                         f"{type(data).__name__}")
    try:
        source = Alphabet(tuple(data["source"]))
        target = Alphabet(tuple(data["target"]))
        window = data["window"]
        table = {}
        for key, val in data["table"].items():
            letters = tuple(key) if source.is_single_char() else tuple(key.split("|"))
            table[letters] = val
        memory = data.get("memory", 0)
        return BlockMap(source, target, window, table,
                        memory, data.get("anticipation", window - 1 - memory))
    except KeyError as e:
        raise ValueError(f"block map has no {e.args[0]!r} field") from None
    except (TypeError, AttributeError) as e:
        raise ValueError(f"malformed block map: {e}") from None
