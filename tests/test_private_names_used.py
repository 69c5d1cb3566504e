"""Every module-level name in the package is used by the package.

Private functions, classes and constants must be read by the package;
public ones, and public methods, by the package or by the benchmark's
replay (bench/replay.py, which only reads the library), unless
LIBRARY_API names them as library surface kept on purpose.  Each field
of a Record class must be read by the package, the tests or the
replay.  The replay's own imports must resolve.
"""

from __future__ import annotations

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parent.parent
FILES = sorted((ROOT / "src" / "shiftcat").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
REPLAY = ROOT / "bench" / "replay.py"

# public names that nothing in the package or the replay reads, each
# with the reason it stays
LIBRARY_API = {
    "karoubi.py: automorphism_group": "ROADMAP item 4 exposes it",
    "karoubi.py: induced_functor_on_arrow": "ROADMAP item 4 builds the "
                                            "poset witness from it",
    "karoubi.py: poset_isomorphic": "ROADMAP item 4 exposes it",
    "karoubi.py: karoubi_vs_lu_comparison": "ROADMAP item 4 exposes it",
    "pseudowords.py: canonical_equal": "equality of ω-terms by canonical "
                                       "form, which the tests read "
                                       "identities of the paper with",
    "semigroups.py: FiniteSemigroup.witness": "the word behind an element, "
                                              "which the tests evaluate",
    "semigroups.py: index_and_period": "omega_plus reads the index and "
                                       "period off its one walk; the "
                                       "tests read them here",
    "semigroups.py: omega_power": "x^ω, which the acceptance tests check "
                                  "against the paper",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines, dunders left out."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {node.id for t in targets for node in ast.walk(t)
                 if isinstance(node, ast.Name)}
    else:
        names = set()
    return sorted(n for n in names if not n.startswith("__"))


def _definitions(tree: ast.Module):
    """(name, node) for each module-level name, and (Class.method, node)
    for each public method of a module-level class."""
    for stmt in tree.body:
        for name in _defined(stmt):
            yield name, stmt
        if isinstance(stmt, ast.ClassDef):
            for node in stmt.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")):
                    yield f"{stmt.name}.{node.name}", node


def _referenced(tree: ast.AST, classes: frozenset,
                owner: str | None = None) -> Counter:
    """How often a tree reads each name.  An identifier or an imported
    name n counts as a read of "n", which only a module-level name
    matches.  An attribute read C.m, with C one of the classes, and a
    read self.m inside class C count as reads of "C.m"; any other
    attribute read x.m counts as a read of ".m".  Only methods match
    attribute reads, so a field or a local variable that shares a
    name with a function or a method reads neither."""
    out: Counter = Counter()

    def visit(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out[node.id] += 1
        elif (isinstance(node, ast.Attribute)
              and not isinstance(node.ctx, ast.Store)):
            base = getattr(node.value, "id", None)
            if base in classes:
                out[f"{base}.{node.attr}"] += 1
            elif base == "self" and owner is not None:
                out[f"{owner}.{node.attr}"] += 1
            else:
                out[f".{node.attr}"] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, owner)
    return out


def _ancestry(trees) -> dict[str, set[str]]:
    """Each module-level class with the names of itself and of every
    class of the sources it derives from."""
    bases = {stmt.name: [b.id for b in stmt.bases if isinstance(b, ast.Name)]
             for tree in trees for stmt in tree.body
             if isinstance(stmt, ast.ClassDef)}

    def up(name: str) -> set[str]:
        return {name}.union(*(up(b) for b in bases[name] if b in bases))

    return {name: up(name) for name in bases}


def orphans(sources: dict[str, str],
            readers: tuple[str, ...] = ()) -> list[str]:
    """Names defined in the sources that nothing reads outside their own
    definition: private ones by the sources, public ones by the sources
    or the readers.  A module-level name n is read by a bare read or an
    import of n; a method C.m by an attribute read of m that is unbound,
    or bound to C or to a class derived from C."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    ancestry = _ancestry(trees.values())
    classes = frozenset(ancestry)
    read = sum((_referenced(tree, classes) for tree in trees.values()),
               Counter())
    read_by_readers = sum((_referenced(ast.parse(r), classes)
                           for r in readers), Counter())
    out = []
    for module, tree in sorted(trees.items()):
        for name, node in _definitions(tree):
            owner, _, last = name.rpartition(".")
            if owner:
                keys = [f".{last}"] + [f"{c}.{last}" for c in classes
                                       if owner in ancestry[c]]
            else:
                keys = [name]
            own = _referenced(node, classes, owner or None)
            uses = sum(read[k] - own[k] for k in keys)
            if not _private(last):
                uses += sum(read_by_readers[k] for k in keys)
            if uses <= 0:
                out.append(f"{module}: {name}")
    return out


def _slots(stmt: ast.ClassDef) -> list[str]:
    """The fields a class body names in __slots__."""
    return [name for node in stmt.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__slots__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)]


def unread_fields(sources: dict[str, str],
                  readers: tuple[str, ...] = ()) -> list[str]:
    """Fields of the classes derived from Record in the sources that
    neither the sources nor the readers read.  A field f of C is read
    by an attribute read of f that is unbound, or bound to C or to a
    class derived from C; an assignment is no read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    ancestry = _ancestry(trees.values())
    classes = frozenset(ancestry)
    read = sum((_referenced(tree, classes)
                for tree in (*trees.values(), *map(ast.parse, readers))),
               Counter())
    out = []
    for module, tree in sorted(trees.items()):
        for stmt in tree.body:
            if (not isinstance(stmt, ast.ClassDef)
                    or "Record" not in ancestry[stmt.name] - {stmt.name}):
                continue
            for field in _slots(stmt):
                keys = [f".{field}"] + [f"{c}.{field}" for c in classes
                                        if stmt.name in ancestry[c]]
                if not any(read[k] for k in keys):
                    out.append(f"{module}: {stmt.name}.{field}")
    return out


SAMPLE_A = '''
from .b import _shared
_LIMIT = 3
_UNUSED_CONST = 4
__dunder__ = 1

def _recursive(n):
    return _recursive(n - 1) if n else _LIMIT

def _helper():
    return 1

class _Orphan:
    pass

def public(x):
    _local = _helper()
    hidden = x.__class__._attr_only
    return hidden + _local + _shared

class Api:
    def __init__(self):
        self.called()

    def called(self):
        return 1

    def unread(self):
        return self.unread()

    def shadowed(self):
        return 0

    def via_heir(self):
        return 3

    def hidden(self):
        return 4

    @staticmethod
    def named():
        return 1

class Twin:
    def __init__(self):
        self.shadowed()

    def shadowed(self):
        return Api.named()

    def named(self):
        return 2

class Heir(Api):
    def inherited(self):
        return self.via_heir()

def read_by_the_reader():
    return Api().read_too()

def orphaned():
    return orphaned
'''

SAMPLE_B = '''
def _shared():
    return 2

def _attr_only():
    return 3
'''

READER = '''
from a import Heir, Twin, public, read_by_the_reader
_ = Heir().inherited()
_private_in_reader = _UNUSED_CONST
'''


def test_scanner_flags_only_unreferenced_names():
    assert orphans({"a": SAMPLE_A, "b": SAMPLE_B}, (READER,)) == [
        "a: _UNUSED_CONST", "a: _recursive", "a: _Orphan", "a: Api.unread",
        "a: Api.shadowed", "a: Api.hidden", "a: Twin.named", "a: orphaned",
        "b: _attr_only"]


RECORDS = '''
class Record:
    __slots__ = ()

class Pair(Record):
    __slots__ = ("left", "right", "spare")

    def swap(self):
        return Pair(self.right, self.right, None)

class Triple(Pair):
    __slots__ = ("third",)

class Plain:
    __slots__ = ("unread",)

def make(p: Pair):
    p.spare = 1
    return Triple.third
'''


def test_scanner_flags_only_unread_record_fields():
    # Pair.left is read only by the reader; Pair.spare is only assigned;
    # Plain is no Record
    assert unread_fields({"r": RECORDS}, ("def f(p): return p.left",)) == [
        "r: Pair.spare"]
    assert unread_fields({"r": RECORDS}) == ["r: Pair.left", "r: Pair.spare"]


def test_no_unread_record_fields():
    assert not unread_fields(
        {path.name: path.read_text(encoding="utf-8") for path in FILES},
        tuple(path.read_text(encoding="utf-8") for path in (*TESTS, REPLAY)))


def _package_orphans() -> tuple[list[str], set[str]]:
    """The package's orphaned private names and public names."""
    assert FILES
    found = orphans({path.name: path.read_text(encoding="utf-8")
                     for path in FILES},
                    (REPLAY.read_text(encoding="utf-8"),))
    private = [e for e in found if _private(e.split(": ")[1].split(".")[-1])]
    return private, set(found) - set(private)


def test_no_orphaned_private_names():
    private, _ = _package_orphans()
    assert not private, private


def test_no_orphaned_public_names():
    _, public = _package_orphans()
    assert public - set(LIBRARY_API) == set(), public - set(LIBRARY_API)
    # an entry that gained a reader, or lost its definition, goes
    assert set(LIBRARY_API) - public == set(), set(LIBRARY_API) - public


def _importable(module: str, name: str) -> bool:
    """Whether `from module import name` finds name, as an attribute or
    as a submodule."""
    mod = importlib.import_module(module)
    return hasattr(mod, name) or (
        hasattr(mod, "__path__")
        and importlib.util.find_spec(f"{module}.{name}") is not None)


def test_the_replay_imports_resolve():
    tree = ast.parse(REPLAY.read_text(encoding="utf-8"))
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "shiftcat"
             for alias in node.names]
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not _importable(module, name)]
    assert not missing, missing
