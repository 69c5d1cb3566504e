"""Value semantics of the frozen records (words.Record subclasses)."""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest

import util
from shiftcat.codes import BlockMap, CentralBlockMap, centralize, higher_block_map
from shiftcat.flowops import ExpansionContext, expand_shift
from shiftcat.karoubi import ComparisonVerdict, LabeledPoset, lu_labeled_poset
from shiftcat.pseudowords import OmegaTerm, Power, Verdict, parse_term
from shiftcat.semigroups import (GreenData, SchutzGroup, green,
                                 schutzenberger, syntactic_semigroup)
from shiftcat.shifts import ZetaSeries
from shiftcat.words import Alphabet, Record, Word

EVEN = util.load("even")
CTX = expand_shift(EVEN, "a")


def _ab() -> Alphabet:
    return Alphabet(("a", "b"))


def _poset() -> LabeledPoset:
    s, accept = syntactic_semigroup(EVEN)
    return lu_labeled_poset(s, accept)


def _schutz() -> SchutzGroup:
    s, _ = syntactic_semigroup(EVEN)
    g = green(s)
    return schutzenberger(s, g.H[g.h_of[min(g.J[0])]])


# each factory builds a fresh instance from fresh field values, so two
# calls give equal but distinct records
FACTORIES = {
    Alphabet: _ab,
    Word: lambda: Word(_ab(), ("a", "b")),
    ZetaSeries: lambda: ZetaSeries(2, (1, 2, 3), (2, 4), (2, 1)),
    BlockMap: lambda: higher_block_map(_ab(), 2),
    CentralBlockMap: lambda: centralize(higher_block_map(_ab(), 2)),
    GreenData: lambda: green(syntactic_semigroup(EVEN)[0]),
    SchutzGroup: _schutz,
    Power: lambda: Power(Word(_ab(), ("a", "b")), 2),
    OmegaTerm: lambda: parse_term(_ab(), "a (ab)^(w+1) b"),
    Verdict: lambda: Verdict("EqualInAll", True, None, "same"),
    LabeledPoset: _poset,
    ComparisonVerdict: lambda: ComparisonVerdict("Iso", ((0, 0),), None),
    # a presentation compares by identity, so both share CTX's
    ExpansionContext: lambda: ExpansionContext(CTX.source, CTX.letter,
                                               CTX.diamond, CTX.target),
}


def test_every_record_class_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert set(subclasses(Record)) == set(FACTORIES)


@pytest.mark.parametrize("cls", FACTORIES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    r = FACTORIES[cls]()
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert not hasattr(r, "__dict__")


@pytest.mark.parametrize("cls", FACTORIES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_records_and_hashes(cls):
    a, b = FACTORIES[cls](), FACTORIES[cls]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert copy.copy(a) == a


def test_different_fields_give_different_records():
    ab = _ab()
    assert Word(ab, ("a",)) != Word(ab, ("b",))
    assert Power(Word(ab, ("a",)), 1) != Power(Word(ab, ("a",)), 2)
    assert Verdict("EqualInAll", True, None, "x") != \
        Verdict("EqualInAll", False, None, "x")


def test_records_of_different_classes_never_compare_equal():
    made = {cls: f() for cls, f in FACTORIES.items()}
    for x, y in itertools.permutations(made.values(), 2):
        assert x != y and not x == y


def test_block_map_hashes_its_table_items():
    """BlockMap holds a dict; its own __hash__ sorts the items, so equal
    maps hash equal whatever the dict's insertion order."""
    phi = higher_block_map(_ab(), 2)
    reordered = BlockMap(phi.source, phi.target, phi.window,
                         dict(reversed(phi.table.items())), phi.memory,
                         phi.anticipation)
    assert reordered == phi and hash(reordered) == hash(phi)


def test_repr_lists_fields_by_name():
    assert repr(Word(_ab(), ("a",))) == \
        "Word(alphabet=Alphabet(symbols=('a', 'b')), letters=('a',))"
    assert repr(ZetaSeries(1, (1, 2), (2,), (2,))) == \
        "ZetaSeries(order=1, coefficients=(1, 2), p=(2,), q=(2,))"


def test_records_survive_deep_copies_and_pickling():
    t = FACTORIES[OmegaTerm]()
    assert copy.deepcopy(t) == t
    assert pickle.loads(pickle.dumps(t)) == t


def test_constructors_still_check_their_fields():
    ab = _ab()
    with pytest.raises(ValueError, match="nonempty"):
        Power(Word(ab, ()), 0)
    with pytest.raises(ValueError, match="different alphabet"):
        OmegaTerm(ab, (Word(Alphabet(("a",)), ("a",)),))


# the records whose fields are stored as given, by Record.__init__
PLAIN = (ZetaSeries, GreenData, SchutzGroup, Verdict, ComparisonVerdict,
         ExpansionContext)


@pytest.mark.parametrize("cls", PLAIN, ids=lambda c: c.__name__)
def test_plain_records_take_one_value_per_field(cls):
    assert cls.__init__ is Record.__init__
    record = FACTORIES[cls]()
    values = record._values()
    assert cls(*values) == record
    assert copy.copy(record) == record        # rebuilt through __init__
    for wrong in (values[:-1], values + (None,), ()):
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes "
                           f"{len(values)} fields, not {len(wrong)}$"):
            cls(*wrong)
