"""Value semantics of the frozen record classes, one table for all of them.

Every value, spec, relation, partition, configuration and query-tree
class is a slotted record: construction by position or keyword with the
same defaults, field-wise equality only between objects of one class, a
hash exactly where equal objects may serve as keys, no assignment or
deletion, and a ``Name(field=value, ...)`` repr.
"""

import copy
import pickle

import pytest

from fuzzyrel import (
    AttributeSpec,
    CrispIdentity,
    Database,
    DomainError,
    ExplicitMatrix,
    FuzzyRelation,
    FuzzyTuple,
    LevelMap,
    Linear,
    Planar,
    SchemaMismatchError,
)
from fuzzyrel.partition import Grouping, Partition1D, Partition2D
from fuzzyrel.proximity import PropertyReport
from fuzzyrel.query import Cond, Join, LevelClause, Project, Query, RelationRef, Select

AXIS = Partition1D(10.0, 0.5, "standard", 5.0, 2)
R, S = RelationRef("R"), RelationRef("S")
CONDS = (Cond("A", 1),)
LEVELS = (LevelClause("A", 0.5),)

# class: (keyword arguments in parameter order, the defaults of those
#         left out, a different object, hashable, repr)
RECORDS = {
    Linear: ({"length": 10}, {}, Linear(20), True, "Linear(length=10.0)"),
    Planar: (
        {"side": 10, "locations": {"A": (1, 2)}}, {}, Planar(10, {"A": (1, 3)}), False,
        "Planar(side=10.0, locations={'A': (1.0, 2.0)})"),
    ExplicitMatrix: (
        {"labels": ("p", "q"), "entries": ((1, 0.5), (0.5, 1)), "order": ("q", "p")},
        {"order": None}, ExplicitMatrix(("p", "q"), ((1, 0.4), (0.4, 1)), ("q", "p")), True,
        "ExplicitMatrix(labels=('p', 'q'), entries=((1.0, 0.5), (0.5, 1.0)), "
        "order=('q', 'p'))"),
    CrispIdentity: ({}, {}, Linear(1), True, "CrispIdentity()"),
    PropertyReport: (
        {"max_min_transitive": False, "first_violation": ("a", "b", "c")},
        {"first_violation": None}, PropertyReport(True), True,
        "PropertyReport(max_min_transitive=False, first_violation=('a', 'b', 'c'))"),
    AttributeSpec: (
        {"name": "X", "proximity": Linear(10), "default_method": "interval"},
        {"proximity": CrispIdentity(), "default_method": "threshold"},
        AttributeSpec("Y"), False,
        "AttributeSpec(name='X', proximity=Linear(length=10.0), default_method='interval')"),
    FuzzyTuple: (
        {"names": ("A", "B"), "components": (frozenset({1}), frozenset({2, 3}))}, {},
        FuzzyTuple(("A", "B"), ({1}, {2})), True,
        "FuzzyTuple(names=('A', 'B'), components=(frozenset({1}), frozenset({2, 3})))"),
    FuzzyRelation: (
        {"schema": (AttributeSpec("A"),), "tuples": (FuzzyTuple(("A",), ({1},)),)}, {},
        FuzzyRelation((AttributeSpec("A"),), ()), False,
        "FuzzyRelation(schema=(AttributeSpec(name='A', proximity=CrispIdentity(), "
        "default_method='threshold'),), tuples=(FuzzyTuple(names=('A',), "
        "components=(frozenset({1}),)),))"),
    LevelMap: (
        {"levels": {"A": 0.5}}, {"levels": {}}, LevelMap({"A": 0.6}), False,
        "LevelMap(levels={'A': 0.5})"),
    Partition1D: (
        {"length": 10.0, "alpha": 0.5, "mode": "standard", "width": 5.0,
         "cell_count": 2, "singleton": True}, {"singleton": False}, AXIS, True,
        "Partition1D(length=10.0, alpha=0.5, mode='standard', width=5.0, "
        "cell_count=2, singleton=True)"),
    Partition2D: (
        {"axis": AXIS}, {}, Partition2D(Partition1D(10.0, 0.6, "standard", 4.0, 3)), True,
        f"Partition2D(axis={AXIS!r})"),
    Grouping: (
        {"classes": (frozenset({1}), frozenset({2})), "index": {1: 1, 2: 2}}, {},
        Grouping((frozenset({1, 2}),), {1: 1, 2: 1}), False,
        "Grouping(classes=(frozenset({1}), frozenset({2})), index={1: 1, 2: 2})"),
    Database: (
        {"path": "db", "relations": {}, "attributes": {"A": AttributeSpec("A")},
         "alphas": {"A": 0.5}}, {},
        Database("db", {}, {"A": AttributeSpec("A")}, {}), False,
        "Database(path='db', relations={}, attributes={'A': AttributeSpec(name='A', "
        "proximity=CrispIdentity(), default_method='threshold')}, alphas={'A': 0.5})"),
    Cond: ({"attr": "A", "value": 3}, {}, Cond("A", 4), True, "Cond(attr='A', value=3)"),
    LevelClause: (
        {"attr": "A", "value": 0.5}, {}, Cond("A", 0.5), True,
        "LevelClause(attr='A', value=0.5)"),
    RelationRef: ({"name": "R"}, {}, S, True, "RelationRef(name='R')"),
    Select: (
        {"child": R, "conds": CONDS, "levels": LEVELS}, {"levels": ()},
        Project(R, CONDS, LEVELS), True,
        "Select(child=RelationRef(name='R'), conds=(Cond(attr='A', value=1),), "
        "levels=(LevelClause(attr='A', value=0.5),))"),
    Project: (
        {"child": R, "attrs": ("A",), "levels": LEVELS}, {"levels": ()},
        Select(R, ("A",), LEVELS), True,
        "Project(child=RelationRef(name='R'), attrs=('A',), "
        "levels=(LevelClause(attr='A', value=0.5),))"),
    Join: (
        {"left": R, "right": S, "on": ("A",), "levels": LEVELS}, {"levels": ()},
        Join(S, R, ("A",), LEVELS), True,
        "Join(left=RelationRef(name='R'), right=RelationRef(name='S'), on=('A',), "
        "levels=(LevelClause(attr='A', value=0.5),))"),
    Query: (
        {"root": R, "giving": "T"}, {"giving": None}, Query(R), True,
        "Query(root=RelationRef(name='R'), giving='T')"),
}

# Two more cases keep the names of the records folded away: an unordered
# degree table, as ``load_matrix`` returns it, was a ProximityMatrix, and
# a database's per-attribute configuration was an AttributeConfig.
FOLDED = {
    "ProximityMatrix": (ExplicitMatrix, (
        {"labels": ("p", "q"), "entries": ((1, 0.5), (0.5, 1))}, {"order": None},
        ExplicitMatrix(("p", "q"), ((1, 0.5), (0.5, 1)), ("p", "q")), True,
        "ExplicitMatrix(labels=('p', 'q'), entries=((1.0, 0.5), (0.5, 1.0)), order=None)")),
    "AttributeConfig": (Database, (
        {"path": "db", "relations": {}, "attributes": {"A": AttributeSpec("A")},
         "alphas": {}}, {},
        Database("db", {}, {"A": AttributeSpec("A", Linear(10))}, {}), False,
        "Database(path='db', relations={}, attributes={'A': AttributeSpec(name='A', "
        "proximity=CrispIdentity(), default_method='threshold')}, alphas={})")),
}

CLASSES = pytest.mark.parametrize("cls, row", [
    *(pytest.param(cls, row, id=cls.__name__) for cls, row in RECORDS.items()),
    *(pytest.param(cls, row, id=name) for name, (cls, row) in FOLDED.items()),
])


@CLASSES
def test_positional_and_keyword_construction_agree(cls, row):
    kwargs = row[0]
    assert cls(*kwargs.values()) == cls(**kwargs)


@CLASSES
def test_defaults(cls, row):
    kwargs, defaults = row[:2]
    made = cls(**{k: v for k, v in kwargs.items() if k not in defaults})
    assert {k: getattr(made, k) for k in defaults} == defaults


@CLASSES
def test_every_slot_is_filled_in_its_place(cls, row):
    # values are stored by slot position: one stored in the wrong slot, or
    # a slot left unset, shows here; hidden caches start empty
    kwargs = row[0]
    made = cls(**kwargs)
    slots = [name for k in cls.__mro__ for name in k.__dict__.get("__slots__", ())]
    assert set(cls._fields) <= set(slots)
    for name in slots:
        value = getattr(made, name)
        if name in kwargs:
            assert value == kwargs[name]
        elif name in ("_cells", "_columns", "memo"):
            assert value == {}


@CLASSES
def test_equality_is_field_wise_and_type_strict(cls, row):
    kwargs, _, other = row[:3]
    a, b = cls(**kwargs), cls(**kwargs)
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    assert other != a and not other == a
    assert a != tuple(kwargs.values())


@CLASSES
def test_hashable_exactly_where_it_was(cls, row):
    kwargs, _, _, hashable, _ = row
    a = cls(**kwargs)
    if hashable:
        assert hash(a) == hash(cls(**kwargs))
        assert {a: 1}[cls(**kwargs)] == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@CLASSES
def test_frozen(cls, row):
    kwargs = row[0]
    a = cls(**kwargs)
    for name in [*kwargs, "extra"]:
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == cls(**kwargs)


@CLASSES
def test_repr(cls, row):
    kwargs, _, _, _, text = row
    assert repr(cls(**kwargs)) == text


@CLASSES
def test_copy_and_pickle_give_an_equal_object(cls, row):
    a = cls(**row[0])
    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


class TestFuzzyTupleChecks:
    def test_component_count_must_match_names(self):
        with pytest.raises(SchemaMismatchError, match="2 names but 1 components"):
            FuzzyTuple(("A", "B"), ({1},))

    def test_empty_component_is_rejected(self):
        with pytest.raises(DomainError, match="component 'B' is empty"):
            FuzzyTuple(("A", "B"), ({1}, []))
        with pytest.raises(DomainError, match="component 'A' is empty"):
            FuzzyTuple.of({"A": []})

    def test_components_are_frozen(self):
        t = FuzzyTuple(["A", "B"], [[1, 2], {3}])
        assert t.names == ("A", "B")
        assert t.components == (frozenset({1, 2}), frozenset({3}))
        assert all(type(c) is frozenset for c in t.components)

    def test_trusted_tuple_equals_the_checked_one(self):
        checked = FuzzyTuple(("A",), ([1, 2],))
        trusted = FuzzyTuple._trusted(("A",), (frozenset({1, 2}),))
        assert trusted == checked and hash(trusted) == hash(checked)
        assert repr(trusted) == repr(checked)
