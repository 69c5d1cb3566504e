"""Block maps, word block codes, and their action on presentations.

A block map is a total table A^N -> B together with a split of the
window into memory m and anticipation n (m + n + 1 = N); the induced
sliding code is y_i = table(x_{i-m} ... x_{i+n}).  The word code reads
consecutive windows of a finite word and returns the empty word when
the input is shorter than the window.
"""

from __future__ import annotations

import itertools

from .errors import SizeLimit
from .shifts import LabeledGraph, ShiftPresentation, _array, trim_graph
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
        for key, val in table.items():
            if len(key) != window or any(x not in source for x in key):
                raise ValueError(f"bad table key {key!r}")
            if val not in target:
                raise ValueError(f"table value {val!r} not in target alphabet")
        # only now is the window bounded, by the length of the keys
        if not table or len(table) != len(source) ** window:
            raise ValueError("table must be total on all windows")
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "window", window)
        _set(self, "table", table)
        _set(self, "memory", memory)
        _set(self, "anticipation", anticipation)

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


# The most windows `centralize` and `compose` will tabulate, and the
# most edges `apply_to_presentation` will build: up to about 30 MiB of
# table and 0.6 s of work.  The test suite reaches at most 512 (a
# composite of wing 4 over two letters), the benchmark 128.
_MAX_TABLE = 1 << 16


def _central_windows(alphabet: Alphabet, wing: int):
    """Every window of a central table of this wing, in lex order.

    Raises SizeLimit, before building any, when there are more than
    _MAX_TABLE of them.
    """
    window = 2 * wing + 1
    if len(alphabet) ** window > _MAX_TABLE:
        raise SizeLimit(f"more than {_MAX_TABLE} windows of length {window}")
    return itertools.product(alphabet.symbols, repeat=window)


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
    for win in _central_windows(phi.source, k):
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
    for win in _central_windows(phi.source, wing):
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
    sofic inputs.  The paths are counted first, in O(|E|·k), and more
    than _MAX_TABLE of them raise SizeLimit before any is built.
    """
    if x.alphabet != phi.source:
        raise ValueError("presentation is not over the source alphabet")
    g = x.graph()
    k = phi.wing
    if k == 0:
        relabeled = [(s, phi.inner.table[(a,)], d) for s, a, d in g.edges]
        out = trim_graph(LabeledGraph(g.vertices, relabeled))
    else:
        ending = dict.fromkeys(g.vertices, 1)   # paths of m edges ending at v
        for _ in range(2 * k + 1):
            nxt = dict.fromkeys(g.vertices, 0)
            for s, _, d in g.edges:
                nxt[d] += ending[s]
            ending = nxt
            # the count never falls: every trimmed vertex has an out-edge
            if sum(ending.values()) > _MAX_TABLE:
                raise SizeLimit(f"more than {_MAX_TABLE} paths of "
                                f"{2 * k + 1} edges")
        paths = [(e,) for e in g.edges]
        for _ in range(2 * k):
            paths = [p + (e,) for p in paths for e in g.out[p[-1][2]]]
        # raw vertices need not be comparable: names come from str below
        verts = list(dict.fromkeys(q for p in paths for q in (p[:-1], p[1:])))
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


def _key_separator(source: Alphabet) -> str:
    """What joins the letters of a table key: nothing over single
    characters, else "|", which no source symbol may then contain."""
    if source.is_single_char():
        return ""
    if any("|" in s for s in source.symbols):
        raise ValueError("source symbols may not contain '|'")
    return "|"


def block_map_to_json(phi: BlockMap) -> dict:
    sep = _key_separator(phi.source)
    return {"window": phi.window,
            "source": list(phi.source.symbols),
            "target": list(phi.target.symbols),
            "memory": phi.memory,
            "anticipation": phi.anticipation,
            "table": {sep.join(key): val
                      for key, val in sorted(phi.table.items())}}


def block_map_from_json(data: dict) -> BlockMap:
    """Read the JSON form; malformed input raises a one-line ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"a block map is a JSON object, not "
                         f"{type(data).__name__}")
    try:
        source = Alphabet(tuple(_array(data["source"], "source")))
        target = Alphabet(tuple(_array(data["target"], "target")))
        window = _integer(data["window"], "window")
        if not isinstance(data["table"], dict):
            raise ValueError("the 'table' field must be a JSON object")
        sep = _key_separator(source)
        table = {}
        for key, val in data["table"].items():
            table[tuple(key.split(sep)) if sep else tuple(key)] = val
        memory = _integer(data.get("memory", 0), "memory")
        return BlockMap(source, target, window, table, memory,
                        _integer(data.get("anticipation", window - 1 - memory),
                                 "anticipation"))
    except KeyError as e:
        raise ValueError(f"block map has no {e.args[0]!r} field") from None
    except (TypeError, AttributeError) as e:
        raise ValueError(f"malformed block map: {e}") from None


def _integer(value, field: str) -> int:
    # a float or a bool passes BlockMap's comparisons and fails later
    if type(value) is not int:
        raise ValueError(f"the {field!r} field must be an integer")
    return value
