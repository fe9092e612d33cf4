"""Fuzzy relations with set-valued tuples and the merge-based algebra.

A relation is a set of tuples whose components are non-empty value sets.
Instead of classical duplicate elimination, tuples that are *redundant*
at the per-attribute thresholds are merged componentwise until no
redundant pair remains.  Redundancy can be decided two ways:

* threshold mode -- every pair of values in the union of two components
  must reach the attribute's level,
* class mode     -- the union must sit inside one equivalence class of
  the attribute's partition (interval, equalized, grid or closure).

An attribute at level 0 is irrelevant to the query and is excluded from
the checks entirely.  All comparisons against levels are non-strict.
"""

from __future__ import annotations

import itertools
from array import array
from operator import attrgetter, itemgetter, or_
from typing import Callable, Iterable, Mapping, Sequence

from .closure import _column, closure_classes
from .errors import (
    DomainError,
    SchemaMismatchError,
    UnknownAttributeError,
    ValidationError,
)
from .partition import (
    Grouping,
    cell_key,
    classes_over,
    partition_line,
    partition_plane,
)
from .proximity import CrispIdentity, ProximitySpec, Value, _Record

CELL_METHODS = ("interval", "equalized", "grid")
METHODS = ("threshold",) + CELL_METHODS + ("closure",)


class AttributeSpec(_Record):
    """Binds an attribute name to its proximity and class-formation method.

    The proximity spec owns the domain's cells: an ordinal domain's label
    order lives on its ``ExplicitMatrix``, ``embedding()`` gives the cells
    that interval, equalized and grid partitions cut, and the spec keeps
    the memo of each component's class key (see ``_cell_keys``).
    """

    __slots__ = _fields = ("name", "proximity", "default_method")

    def __init__(self, name: str, proximity: ProximitySpec = CrispIdentity(),
                 default_method: str = "threshold"):
        if not name:
            raise ValidationError("attribute name must be non-empty")
        if default_method not in METHODS:
            raise ValidationError(
                f"method must be one of {METHODS}, got {default_method!r}"
            )
        self._set(name, proximity, default_method)
        # Fail early on impossible method/proximity pairings.
        _resolve_method(self, default_method)

    __hash__ = None


class FuzzyTuple(_Record):
    """A tuple whose components are non-empty finite value sets."""

    __slots__ = _fields = ("names", "components")

    def __init__(self, names: tuple[str, ...], components: tuple[frozenset, ...]):
        names = tuple(names)
        comps = tuple(frozenset(c) for c in components)
        if len(names) != len(comps):
            raise SchemaMismatchError(
                f"{len(names)} names but {len(comps)} components"
            )
        for name, comp in zip(names, comps):
            if not comp:
                raise DomainError(f"component {name!r} is empty")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "components", comps)

    @classmethod
    def _trusted(cls, names: tuple[str, ...], components: tuple[frozenset, ...]):
        """The tuple of parts already checked: non-empty frozensets, one per name."""
        t = object.__new__(cls)
        object.__setattr__(t, "names", names)
        object.__setattr__(t, "components", components)
        return t

    @classmethod
    def of(cls, values: Mapping[str, object]) -> "FuzzyTuple":
        """Build from a name-to-value mapping.  A scalar becomes a singleton,
        and so does a tuple, which is one planar point; any other iterable
        is the component's value set."""
        names, comps = [], []
        for name, value in values.items():
            names.append(name)
            if isinstance(value, (str, int, float, bool, tuple)):
                comps.append(frozenset([value]))
            else:
                comps.append(frozenset(value))
        return cls(tuple(names), tuple(comps))

    def get(self, name: str) -> frozenset:
        try:
            return self.components[self.names.index(name)]
        except ValueError:
            raise UnknownAttributeError(f"no attribute {name!r} in tuple") from None


def _schema_names(schema: Sequence[AttributeSpec]) -> tuple[str, ...]:
    """The names of ``schema``; ValidationError when one repeats."""
    names = tuple(a.name for a in schema)
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate attribute names in schema: {names}")
    return names


def _conform(tuples: Iterable[FuzzyTuple], names: tuple[str, ...]) -> None:
    """Raise SchemaMismatchError unless every tuple is named as ``names``."""
    for t in tuples:
        if t.names != names:
            raise SchemaMismatchError(
                f"tuple attributes {t.names} do not match schema {names}")


class _StoredColumn:
    """One column of a checked stored relation, compiled by its spec on
    first need and kept: the cut that the threshold merges of the relation,
    and of every operator output derived from it, read.  Until then it
    holds the column's distinct components, never the relation's tuples."""

    __slots__ = ("_spec", "_components", "_cut")

    def __init__(self, spec: ProximitySpec, components: tuple = (), cut=None):
        self._spec, self._components, self._cut = spec, components, cut

    def cut(self):
        if self._cut is None:
            self._cut = self._spec.compile(frozenset().union(*self._components))
            self._components = ()  # the cut holds what it needs of them
        return self._cut


class FuzzyRelation(_Record):
    """An ordered schema plus a duplicate-free sequence of conforming tuples.

    Hidden caches, out of ``==``, ``repr`` and pickle, hold each column's
    value index and cut (see ``_column_cut``), which ``select`` reads, and
    each column's source: the ``_StoredColumn`` of the checked stored
    relation its values come from, or None.  A relation that
    ``load_relation`` or ``from_rows`` built is stored and checked: each
    column is its own source.  An operator's output keeps the sources of
    the columns it copies, so every relation derived from a stored one
    reads that one's cut, compiled once, never an intermediate's.  A join
    column that unions two sources has none, nor has any column of a
    relation built by ``FuzzyRelation(schema, tuples)``, whose values no
    spec has checked, or derived from one: its checks compile its own
    values, so a value in a row that an operator dropped never raises.
    """

    _fields = ("schema", "tuples")
    __slots__ = _fields + ("_columns", "_sources")

    def __init__(self, schema: tuple[AttributeSpec, ...], tuples: tuple[FuzzyTuple, ...]):
        schema = tuple(schema)
        names = _schema_names(schema)
        tuples = tuple(tuples)
        _conform(tuples, names)
        self._set(schema, tuple(dict.fromkeys(tuples)), {}, (None,) * len(schema))

    @classmethod
    def _derived(cls, schema: tuple[AttributeSpec, ...], tuples: tuple[FuzzyTuple, ...],
                 sources: tuple) -> "FuzzyRelation":
        """Distinct tuples named as ``schema``, with the source of each
        column: an operator's output, or a checked stored relation, each
        column a new ``_StoredColumn``."""
        r = object.__new__(cls)
        r._set(schema, tuples, {}, sources)
        return r

    @classmethod
    def from_rows(cls, schema: Sequence[AttributeSpec], rows: Iterable) -> "FuzzyRelation":
        """Build from mappings or per-schema value sequences.

        Every value is checked against its column's spec, which raises
        what ``degree`` raises for it: each column is compiled once over
        the values of every row, those of a row dropped as equal to an
        earlier one included, so ``True`` is checked even where an equal
        ``1`` is present.  The cuts that check them are kept, the relation
        stored.
        """
        specs = tuple(schema)
        names = tuple(a.name for a in specs)
        tuples = []
        for row in rows:
            if isinstance(row, Mapping):
                tuples.append(FuzzyTuple.of({n: row[n] for n in names}))
            else:
                tuples.append(FuzzyTuple.of(dict(zip(names, row))))
        return cls._derived(specs, cls(specs, tuple(tuples)).tuples, tuple(
            _StoredColumn(a.proximity, cut=a.proximity.compile(
                v for t in tuples for v in t.components[idx]))
            for idx, a in enumerate(specs)))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.schema)

    def attribute_index(self, name: str) -> int:
        for i, a in enumerate(self.schema):
            if a.name == name:
                return i
        raise UnknownAttributeError(f"no attribute {name!r} in schema {self.names}")

    def attribute(self, name: str) -> AttributeSpec:
        return self.schema[self.attribute_index(name)]

    def __len__(self) -> int:
        return len(self.tuples)

    def _column_cut(self, idx: int) -> tuple[dict, object]:
        """(index, cut) of column ``idx``, built on first use and kept: the
        tuples never change.  ``index`` maps each value, by Python equality,
        to its ascending positions in a machine-word array; ``cut`` is the
        source's cut, over a superset of those values, or with no source
        those values compiled by the column's spec, whatever the levels asked.
        """
        columns = self._columns
        column = columns.get(idx)
        if column is None:
            index = {}
            for pos, t in enumerate(self.tuples):
                for v in t.components[idx]:
                    index.setdefault(v, array("l")).append(pos)
            source = self._sources[idx]
            column = columns[idx] = index, (
                source.cut() if source else self.schema[idx].proximity.compile(index))
        return column

    __hash__ = None


class LevelMap(_Record):
    """Per-attribute merge thresholds.

    Attributes missing from the map default to level 1.  A renamed join
    column ``X_2`` inherits the level configured for ``X``.
    """

    __slots__ = _fields = ("levels",)

    def __init__(self, levels: Mapping[str, float] | None = None):
        checked = {}
        for name, lvl in dict(levels or {}).items():
            value = float(lvl)
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"level for {name!r} must lie in [0, 1], got {lvl}")
            checked[name] = value
        self._set(checked)

    def level(self, name: str) -> float:
        while name not in self.levels:
            if not name.endswith("_2"):
                return 1.0
            name = name[:-2]
        return self.levels[name]

    __hash__ = None


def interpretations(t: FuzzyTuple) -> frozenset:
    """All crisp tuples obtainable by picking one value per component."""
    return frozenset(itertools.product(*t.components))


def thres(r: FuzzyRelation, attr: str) -> float:
    """Smallest ``degree`` of two values inside any component of one column:
    the threshold of Buckles and Petry for the relation on ``attr``.

    Relations with only singleton components on the attribute, and the
    empty relation, score 1 by the vacuous-minimum convention.  A
    threshold merge keeps it at least the attribute's level, or its value
    before the merge where that is lower.
    """
    idx = r.attribute_index(attr)
    degree = r.schema[idx].proximity.degree
    return min((degree(x, y) for t in r.tuples
                for x, y in itertools.combinations(t.components[idx], 2)), default=1.0)


def valid_tuple(schema: Sequence[AttributeSpec], t: FuzzyTuple, levels: LevelMap) -> bool:
    """True when each component's values are mutually proximate to its level.

    A merge's threshold checks decide it; ``t`` must be named as ``schema``.
    """
    _conform((t,), tuple(a.name for a in schema))
    return _passes(*_build_checks(schema, levels, "threshold", lambda idx, _: t.components[idx]),
                   t.components)


def class_method(attr: AttributeSpec, requested: str) -> str:
    """The class-formation method that serves ``requested`` on this attribute.

    Closure serves every attribute.  A cell method needs the cells of the
    attribute's spec, its ``embedding()``: a planar attribute forms grid
    cells whichever cell method is asked, a linear or ordinal one (a
    matrix with an ``order``) forms interval cells when grid is asked.
    """
    if requested == "closure":
        return "closure"
    embedding = attr.proximity.embedding()
    if requested not in CELL_METHODS or embedding is None:
        raise ValidationError(
            f"attribute {attr.name!r} does not support {requested!r} classes"
        )
    if embedding[0] == 2:
        return "grid"
    return "interval" if requested == "grid" else requested


def _resolve_method(attr: AttributeSpec, requested: str) -> str:
    """Map a requested merge method to one the attribute supports.

    A spec with keys but no cells (crisp, an unordered transitive matrix)
    resolves every method to threshold, which ``_build_checks`` tests by
    its keys: above level 0 they decide its closure classes too.
    """
    if requested not in METHODS:
        raise ValidationError(f"unknown method {requested!r}")
    if requested == "threshold" or (attr.proximity.embedding() is None
                                    and attr.proximity.keys(1.0) is not None):
        return "threshold"
    return class_method(attr, requested)


def _partitioner(attr: AttributeSpec, method: str, level: float):
    """(partitioner, resolve) of the cells a cell method cuts at ``level``."""
    dims, length, resolve = attr.proximity.embedding()
    if dims == 2:
        return partition_plane(length, level), resolve
    mode = "equalized" if method == "equalized" else "standard"
    return partition_line(length, level, mode), resolve


def class_grouping(attr: AttributeSpec, method: str, level: float,
                   values) -> Grouping:
    """Equivalence classes of a finite value set of one attribute.

    The one place classes are formed, for the CLI and for the closure
    checks of merges and joins; cell checks key values by the same
    ``cell_key``.  So two values share a class here exactly when their
    singleton tuples would merge at ``level``.  Closure classes come from
    ``values``; interval, equalized and grid classes from the cells of the
    attribute's domain (``method`` mapped by ``class_method``), numbered in
    cell order.  Raises ValidationError when the attribute supports no such
    classes.
    """
    method = class_method(attr, method)
    if method == "closure":
        return closure_classes(values, attr.proximity, level)
    return classes_over(values, *_partitioner(attr, method, level))


# (method, level) memos a proximity spec keeps, the oldest dropped first:
# levels are free floats.
_MAX_CELL_MEMOS = 16
# Components a memo keeps before it starts afresh, since a spec outlives
# the relations it keyed.
_MAX_MEMO_CELLS = 4096
_MIXED = object()  # class key of a component that spans two classes


class _ClassKeys(dict):
    """Each component's one class key, or ``_MIXED``, found on first lookup
    by ``classify`` of each member, looked up as a singleton component, so
    each value is keyed once; a lookup that raises stores nothing."""

    __slots__ = ("classify",)

    def __init__(self, classify: Callable[[Value], object]):
        self.classify = classify

    def __missing__(self, values: frozenset):
        if len(values) == 1:
            key = self.classify(next(iter(values)))
        else:
            keys = {self[frozenset((v,))] for v in values}
            key = keys.pop() if len(keys) == 1 else _MIXED
        if len(self) >= _MAX_MEMO_CELLS:
            self.clear()
        self[values] = key
        return key


def _cell_keys(attr: AttributeSpec, method: str, level: float) -> Callable[[frozenset], object]:
    """A component's class key by the cells ``method`` cuts at ``level``, or
    by ``keys(level)`` for a method without cells, memoised on
    ``attr.proximity``: it depends only on the domain, so every attribute
    over one proximity spec shares the memo, across calls."""
    memos = attr.proximity._cells
    memo = memos.get((method, level))
    if memo is None:
        memo = _ClassKeys(cell_key(*_partitioner(attr, method, level))
                          if method in CELL_METHODS else attr.proximity.keys(level))
        if len(memos) == _MAX_CELL_MEMOS:
            del memos[next(iter(memos))]
        memos[method, level] = memo
    return memo.__getitem__


class _Memo(dict):
    """``find`` of each key, found on first lookup and kept for the call; a
    lookup that raises stores nothing."""

    __slots__ = ("find",)

    def __init__(self, find: Callable):
        self.find = find

    def __missing__(self, key):
        found = self[key] = self.find(key)
        return found


class _FieldMasks(dict):
    """One threshold check's field at ``shift``: each component's ``(part,
    common)``, its members' bits by ``position`` and the AND of their
    neighbourhood masks by ``near``, found on first lookup and kept for the
    call; a lookup that raises stores nothing."""

    __slots__ = ("position", "near", "shift")

    def __init__(self, position: Callable, near: Callable, shift: int):
        self.position, self.near, self.shift = position, near, shift

    def __missing__(self, values: frozenset) -> tuple[int, int]:
        position, near, part, common = self.position, self.near, 0, -1
        for v in values:
            part |= 1 << position(v)
            common &= near(v)
        found = self[values] = (part << self.shift, common << self.shift)
        return found


def _masks(fields: Sequence[tuple], rows: Sequence[Sequence[frozenset]]):
    """Each row's ``(part, common)`` over threshold ``fields``, whose shifts
    keep them apart: in each field, the bits of the component
    ``row[index]`` and the AND of its members' neighbourhood masks, looked
    up column by column in the field's memo, with C-level ``map``s as
    ``_key_vectors`` finds keys, and packed by ``_packed``.  With no field,
    every row reads ``(0, 0)``."""
    if not fields:
        return itertools.repeat((0, 0), len(rows))
    return map(_packed, *[map(memo, map(itemgetter(i), rows)) for i, memo in fields])


def _packed(*masks: tuple[int, int]) -> tuple[int, int]:
    """One row's ``(part, common)`` from those of its fields, which are
    disjoint, so OR packs them."""
    part = common = 0
    for p, c in masks:
        part |= p
        common |= c
    return part, common


def _passes(keyed: Sequence[tuple], fields: Sequence[tuple], row: Sequence[frozenset]) -> bool:
    """Whether ``row``, one component per position, passes a call's checks:
    every class-checked component is keyed, all before any decision, and
    none spans two classes; and the threshold components are mutually
    close, one test of ints over the packed fields."""
    if _MIXED in [classify(row[i]) for i, classify in keyed]:
        return False
    part, common = next(_masks(fields, (row,)))
    return common & part == part


def _build_checks(schema: Sequence[AttributeSpec], levels: LevelMap, mode: str | None,
                  values_of: Callable[[int, str], frozenset],
                  sources: Sequence | None = None,
                  memos: dict | None = None) -> tuple[list, list]:
    """A call's redundancy checks, one per attribute above level 0, as two
    lists over positions in ``schema``: ``keyed``, the ``(index, classify)``
    of each class check, and ``fields``, the ``(index, masks)`` of each
    threshold check.

    ``values_of(idx, method)`` is the value set the check of position
    ``idx`` will see, given its resolved method; it is called only where a
    cut is compiled or a closure grouping is formed.  A class check's
    ``classify`` looks a component up in a ``_ClassKeys`` memo: the one its
    spec keeps for a cell or keyed check (``_cell_keys``), which keys each
    value alone, or one over a ``class_grouping`` of the value set for a
    closure check, since a closure class over more values would differ.  A
    threshold check reads the cut of the position's source in ``sources``
    (see ``FuzzyRelation``), gathering no value set, or with none compiles
    the value set: a subset test decides alike over any superset of the
    values (the superset rule of ``proximity``).  ``masks`` looks a
    component up in a per-call memo of its ``(part, common)``, found on
    first lookup and shifted past the cuts of the threshold checks before
    it: ``part`` the component's bits, ``common`` the AND of its members'
    neighbourhood masks at the level (the bits of the cut's values within
    the level of each).  So a component is mutually close exactly when
    ``common & part == part`` (``_masks``).

    The mask rule: each value's mask is looked up on first need through
    one ``_Memo`` per (cut, level) in ``memos``, over the cut's
    ``masks(level)``, whether the cut is stored or compiled for the call.
    So it is found at most once per call, whatever bound empties the cut's
    memo meanwhile.  A stored cut keeps its ``masks`` across calls, a cut
    compiled for the call lives as long as the call, and a join hands its
    ``memos`` to its output merge.
    """
    keyed, fields, shift = [], [], 0
    memos = {} if memos is None else memos
    for idx, attr in enumerate(schema):
        level = levels.level(attr.name)
        if level == 0.0:
            continue
        method = _resolve_method(attr, mode or attr.default_method)
        if method in CELL_METHODS or attr.proximity.keys(level) is not None:
            keyed.append((idx, _cell_keys(attr, method, level)))
        elif method == "threshold":
            source = sources and sources[idx]
            cut = source.cut() if source else attr.proximity.compile(values_of(idx, method))
            near = memos.get((cut, level))
            if near is None:
                near = memos[cut, level] = _Memo(cut.masks(level).__getitem__).__getitem__
            positions = cut.positions()
            fields.append((idx, _FieldMasks(positions.__getitem__, near, shift).__getitem__))
            shift += len(positions)
        else:
            grouping = class_grouping(attr, method, level, values_of(idx, method))
            keyed.append((idx, _ClassKeys(grouping.class_index).__getitem__))
    return keyed, fields


def redundant(r: FuzzyRelation, t1: FuzzyTuple, t2: FuzzyTuple,
              levels: LevelMap, mode: str | None = None) -> bool:
    """Decide whether two tuples over r's schema would merge.

    ``mode`` forces one class-formation method for every attribute;
    None follows each attribute's configured default.  Closure classes
    are computed from r's current content, unless the spec has keys.
    Every class-checked union is keyed before the threshold test, as a
    merge keys every row, so a value its spec rejects raises whatever the
    column order and whichever check fails (``_passes``).
    """
    _conform((t1, t2), r.names)
    unions = [*map(or_, t1.components, t2.components)]
    # closure classes depend on r's content, cuts only on t1, t2
    keyed, fields = _build_checks(r.schema, levels, mode, lambda idx, method: _column(
        (t.components for t in r.tuples), idx) if method == "closure" else unions[idx])
    return _passes(keyed, fields, unions)


def merge_relation(r: FuzzyRelation, levels: LevelMap | None = None,
                   mode: str | None = None) -> FuzzyRelation:
    """Merge redundant tuples until none remain.

    The result is that of scanning pairs in relation order, merging the
    first redundant pair, dropping later tuples equal to the merged one
    and restarting.  One forward pass reaches it: a union only adds class
    keys and can only lower the minimum pairwise degree, so a pair found
    non-redundant stays so as either side grows.  Each tuple is keyed by
    its class-checked components, crisp and transitive matrix ones
    included, and joins the first open survivor of its key vector, in the
    order they were opened, that passes the threshold checks against it;
    if none does, it opens a new one.  A tuple with a component spanning
    two classes, or a threshold one that is not mutually close, is a
    survivor nothing joins.  A survivor changes only when it takes a
    tuple, so each test sees what the restart loop would.  Survivors keep
    the position of their first member: at most O(n^2) component tests.
    With class checks only, the first survivor of a key vector takes every
    later tuple of it, so the survivors are the key-vector buckets: O(n)
    dict operations.  Each distinct component is keyed once (by cells or
    keys, once per spec), and each survivor is built once, as the union of
    its members' columns.

    Closure checks group r's own column values; threshold checks read the
    cut of each column's source, the stored relation r derives from, which
    holds a superset of r's values, or with no source compile r's own (see
    ``FuzzyRelation`` and ``_build_checks``).  Each value's neighbourhood
    mask is found by the mask rule of ``_build_checks``, and each distinct
    component's once per call.
    One int per tuple packs its threshold components' masks, a field per
    check, looked up column by column: an open survivor carries the AND
    of its members', its ``common``, so a later tuple whose own components
    are mutually close is redundant with it exactly when their bits lie
    inside that AND: one test of ints per survivor.  A mask is as wide as
    its cut, a stored one as its whole column, which each AND pays for.
    Keys are by Python equality, exact for every value
    a spec accepts.  Building the checks, or keying the tuples, tests every
    value of a checked column of r, or of its source, so a value its spec
    rejects raises here.
    """
    return FuzzyRelation._derived(r.schema, _merge(
        r.schema, [t.components for t in r.tuples], levels or LevelMap(), mode, r._sources),
        r._sources)


def _merge(schema: Sequence[AttributeSpec], rows: Sequence[tuple], levels: LevelMap,
           mode: str | None, sources: Sequence, memos: dict | None = None
           ) -> tuple[FuzzyTuple, ...]:
    """The survivors of merging the distinct component tuples ``rows``, in
    order of their first row: the one place an operator builds its output
    tuples.  One forward pass: a row joins the first open survivor of its
    class-key vector whose carried ``common`` holds the bits of the row's
    threshold components, its ``part`` (``held & part == part``), and that
    ``common`` narrows by the row's own (``held & common``), each an int of
    one field per threshold check (``_masks``); if none takes it, the row
    opens one.  A row with a ``_MIXED`` key or a
    threshold component that is not mutually close stays alone.  Threshold
    checks read the cuts of ``sources``, one per column of ``schema``, through
    ``memos`` (the mask rule of ``_build_checks``).
    With class checks only (every class-mode merge) there is no scan: the
    survivors are the key-vector buckets of one dict pass, a ``_MIXED`` row
    alone in one."""
    keyed, fields = _build_checks(schema, levels, mode, lambda idx, _: _column(rows, idx),
                                  sources, memos)
    if not fields:
        buckets: dict[object, list] = {}
        for row, keys in zip(rows, _key_vectors(rows, keyed)):
            buckets.setdefault(object() if _MIXED in keys else keys, []).append(row)
        survivors = buckets.values()
    else:
        survivors = []  # the member rows of each survivor
        open_survivors: dict[tuple, list] = {}  # key vector -> [[common, members]]
        for row, keys, (part, common) in zip(rows, _key_vectors(rows, keyed),
                                             _masks(fields, rows)):
            if _MIXED in keys or common & part != part:
                survivors.append([row])
                continue
            candidates = open_survivors.setdefault(keys, [])
            for held in candidates:
                if held[0] & part == part:
                    held[0] &= common
                    held[1].append(row)
                    break
            else:
                survivors.append([row])
                candidates.append([common, survivors[-1]])
    names = tuple(a.name for a in schema)
    # distinct: of two equal survivors, the first would have taken the other
    return tuple(FuzzyTuple._trusted(names, m[0] if len(m) == 1 else tuple(
        map(frozenset.union, *m))) for m in survivors)


def _key_vectors(rows: Sequence[tuple], keyed: Sequence[tuple[int, Callable]]):
    """Each row's class keys, one per ``(column, classify)`` of ``keyed``."""
    return (zip(*[map(key, map(itemgetter(i), rows)) for i, key in keyed]) if keyed
            else [()] * len(rows))


def select(r: FuzzyRelation, conds: Iterable[tuple[str, Value]],
           levels: LevelMap | None = None) -> FuzzyRelation:
    """Keep tuples whose components are close enough to the condition constants.

    A tuple passes a condition (attr, c) when every element of its attr
    component has degree >= level(attr) to c.  Conditions conjoin, in
    order.  No merging happens here; kept tuples stay in relation order.

    Each condition is one lookup, ``near(constant, level)``, on the
    column's cut, which the relation finds on first use and keeps with its
    value-to-positions index (``FuzzyRelation._column_cut``): the cut of
    the column's stored source, over a superset of its values, or its own
    values compiled by its spec.  The first condition finds its candidate
    tuples through that index, where a neighbour the relation lacks has
    none; a tuple passes when its component is a subset of the
    neighbourhood, which over a superset decides alike.  Once no tuple is
    kept, later conditions are not evaluated, so a constant no value can
    be compared with raises only when some tuple reaches its condition.  A
    level-0 condition is skipped.  Values are keyed by Python equality,
    which is exact for every value a spec accepts; compiling checks every
    value of the column, so a relation built with a value its spec rejects
    raises when a condition reaches its column.  The output keeps the
    relation's sources.
    """
    levels = levels or LevelMap()
    prepared = []
    for attr, constant in conds:
        idx = r.attribute_index(attr)
        level = levels.level(attr)
        if level == 0.0:
            continue  # degree >= 0 always holds
        prepared.append((idx, constant, level))
    tuples = r.tuples
    kept = range(len(tuples))
    for idx, constant, level in prepared:
        if not kept:
            break
        index, cut = r._column_cut(idx)
        passing = cut.near(constant, level)
        if len(kept) == len(tuples):
            kept = sorted({pos for v in passing for pos in index.get(v, ())})
        kept = [pos for pos in kept if tuples[pos].components[idx] <= passing]
    return FuzzyRelation._derived(r.schema, tuple(tuples[pos] for pos in kept), r._sources)


def project(r: FuzzyRelation, attrs: Sequence[str],
            levels: LevelMap | None = None, mode: str | None = None) -> FuzzyRelation:
    """Drop all other columns, then merge the distinct projected rows, in
    order, through the merge core that ``merge_relation`` and ``join`` use.
    Each kept column keeps its source (see ``FuzzyRelation``)."""
    indices = [r.attribute_index(a) for a in attrs]
    schema = tuple(r.schema[i] for i in indices)
    _schema_names(schema)
    pick = itemgetter(*indices) if indices else lambda _: ()
    rows = dict.fromkeys(map(pick, map(attrgetter("components"), r.tuples)))
    sources = pick(r._sources)
    if len(indices) == 1:
        rows, sources = [(c,) for c in rows], (sources,)
    else:
        rows = list(rows)
    return FuzzyRelation._derived(
        schema, _merge(schema, rows, levels or LevelMap(), mode, sources), sources)


def _joined_schema(r1: FuzzyRelation, r2: FuzzyRelation, on: Sequence[str]):
    """The join's schema and the positions of the right columns it appends.

    A right column keeps its spec; one renamed ``X_2`` gets a new spec
    over the same proximity spec, and so shares its cell memos.
    """
    schema = list(r1.schema)
    names = {a.name for a in schema}
    right_rest = []
    for j, a in enumerate(r2.schema):
        if a.name in on:
            continue
        name = a.name
        while name in names:
            name += "_2"
        names.add(name)
        if name != a.name:
            a = AttributeSpec(name, a.proximity, a.default_method)
        schema.append(a)
        right_rest.append(j)
    return tuple(schema), right_rest


def join(r1: FuzzyRelation, r2: FuzzyRelation, on: Sequence[str],
         levels: LevelMap | None = None, mode: str | None = None) -> FuzzyRelation:
    """Join two relations on shared attributes, then merge the result.

    A pair of tuples joins when, for every join attribute, the union of
    their components passes the redundancy test at that attribute's
    level.  The output carries the union on join attributes, the left
    tuple's other components, and the right tuple's other components
    under a ``_2`` suffix where names collide.  Each join attribute's
    closure check holds the values of both columns, and so does its
    threshold check: the cut of the source both sides share (see
    ``FuzzyRelation``), or with none one compiled over both columns' values.
    One named twice raises ValidationError.  Tuples are hashed by the class
    keys of their class-checked join values, which this tests; threshold
    checks test only pairs with equal keys, all n*m with no class check.
    Each tuple's threshold join components are found once, as one
    ``(part, common)`` of ints (``_masks``), and a pair passes when the
    union's test holds on them: its bits are ``lp | rp`` and the AND of its
    members' masks ``lc & rc``, so ``lc & rc & (lp | rp) == lp | rp``.  A
    union is built only for a pair that passes.  The output's columns keep
    their sources; a join column keeps one only when both sides share it,
    and its output merge reads that cut through the pair test's memos (the
    mask rule of ``_build_checks``).
    """
    levels = levels or LevelMap()
    on = tuple(on)
    if not on:
        raise SchemaMismatchError("join needs at least one attribute")
    on_left, on_right = [], []
    for a in on:
        try:
            on_left.append(r1.attribute_index(a))
            on_right.append(r2.attribute_index(a))
        except UnknownAttributeError as exc:
            raise SchemaMismatchError(str(exc)) from None
        if r1.schema[on_left[-1]] != r2.schema[on_right[-1]]:
            raise SchemaMismatchError(f"join attribute {a!r} differs between schemas")
    if len(set(on)) != len(on):
        raise ValidationError(f"duplicate join attributes: {on}")

    # each side's join components, in ``on`` order: a check's index
    left_on = [[t.components[i] for i in on_left] for t in r1.tuples]
    right_on = [[t.components[j] for j in on_right] for t in r2.tuples]
    shared = [r1._sources[i] if r1._sources[i] is r2._sources[j] else None
              for i, j in zip(on_left, on_right)]
    memos: dict = {}  # (cut, level) -> value masks, shared with the output merge
    keyed, fields = _build_checks(tuple(r1.schema[i] for i in on_left), levels, mode,
                                  lambda k, _: _column(left_on, k) | _column(right_on, k),
                                  shared, memos)
    schema, right_rest = _joined_schema(r1, r2, on)
    buckets: dict[tuple, list] = {}  # none for a vector holding _MIXED
    for t, on_values, key, (part, common) in zip(r2.tuples, right_on, _key_vectors(
            right_on, keyed), _masks(fields, right_on)):
        if _MIXED not in key:
            buckets.setdefault(key, []).append(
                (on_values, part, common, tuple(t.components[j] for j in right_rest)))
    out_rows = {}
    for t, on_values, key, (lp, lc) in zip(r1.tuples, left_on, _key_vectors(left_on, keyed),
                                           _masks(fields, left_on)):
        for right_values, rp, rc, rest in buckets.get(key, ()):
            # the bucket decided the class checks; the union's bits are the
            # OR of both sides', the AND of its members' masks lc & rc
            if not fields or lc & rc & (part := lp | rp) == part:
                comps = list(t.components)
                for i, a, b in zip(on_left, on_values, right_values):
                    comps[i] = a | b
                out_rows[(*comps, *rest)] = None
    sources = [*r1._sources, *map(r2._sources.__getitem__, right_rest)]
    for i, source in zip(on_left, shared):
        sources[i] = source
    sources = tuple(sources)
    return FuzzyRelation._derived(
        schema, _merge(schema, list(out_rows), levels, mode, sources, memos), sources)
