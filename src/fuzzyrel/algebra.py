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
from operator import and_, le
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
    order lives on its ``ExplicitMatrix``, and ``embedding()`` gives the
    cells that interval, equalized and grid partitions cut.  A hidden
    cache, out of ``==``, ``repr`` and pickle, memoises each value's cell
    per method and level (see ``_cell_keys``).
    """

    _fields = ("name", "proximity", "default_method")
    __slots__ = _fields + ("_cells",)

    def __init__(self, name: str, proximity: ProximitySpec = CrispIdentity(),
                 default_method: str = "threshold"):
        if not name:
            raise ValidationError("attribute name must be non-empty")
        if default_method not in METHODS:
            raise ValidationError(
                f"method must be one of {METHODS}, got {default_method!r}"
            )
        self._set(name=name, proximity=proximity, default_method=default_method, _cells={})
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
        """Build from a name-to-value mapping; scalars become singletons."""
        names, comps = [], []
        for name, value in values.items():
            names.append(name)
            if isinstance(value, (str, int, float, bool)):
                comps.append(frozenset([value]))
            else:
                comps.append(frozenset(value))
        return cls(tuple(names), tuple(comps))

    def get(self, name: str) -> frozenset:
        try:
            return self.components[self.names.index(name)]
        except ValueError:
            raise UnknownAttributeError(f"no attribute {name!r} in tuple") from None


def _conform(tuples: Iterable[FuzzyTuple], names: tuple[str, ...]) -> None:
    """Raise SchemaMismatchError unless every tuple is named as ``names``."""
    for t in tuples:
        if t.names != names:
            raise SchemaMismatchError(
                f"tuple attributes {t.names} do not match schema {names}")


class FuzzyRelation(_Record):
    """An ordered schema plus a duplicate-free sequence of conforming tuples.

    Hidden caches, out of ``==``, ``repr`` and pickle, hold each column's
    value index and compiled cut over this relation's own values.
    """

    _fields = ("schema", "tuples")
    __slots__ = _fields + ("_indexes", "_cuts")

    def __init__(self, schema: tuple[AttributeSpec, ...], tuples: tuple[FuzzyTuple, ...]):
        schema = tuple(schema)
        names = tuple(a.name for a in schema)
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate attribute names in schema: {names}")
        tuples = tuple(tuples)
        _conform(tuples, names)
        self._set(schema=schema, tuples=tuple(dict.fromkeys(tuples)), _indexes={}, _cuts={})

    @classmethod
    def _derived(cls, schema: tuple[AttributeSpec, ...],
                 tuples: tuple[FuzzyTuple, ...]) -> "FuzzyRelation":
        """An operator's output: distinct tuples named as ``schema``."""
        r = object.__new__(cls)
        r._set(schema=schema, tuples=tuples, _indexes={}, _cuts={})
        return r

    @classmethod
    def from_rows(cls, schema: Sequence[AttributeSpec], rows: Iterable) -> "FuzzyRelation":
        """Build from mappings or per-schema value sequences.

        Every value is checked against its column's spec, which raises
        what ``degree`` raises for it.  Values are told apart by type as
        well, so ``True`` is checked even where an equal ``1`` is present.
        """
        specs = tuple(schema)
        names = tuple(a.name for a in specs)
        tuples = []
        for row in rows:
            if isinstance(row, FuzzyTuple):
                tuples.append(row)
            elif isinstance(row, Mapping):
                tuples.append(FuzzyTuple.of({n: row[n] for n in names}))
            else:
                tuples.append(FuzzyTuple.of(dict(zip(names, row))))
        relation = cls(specs, tuple(tuples))
        for idx, attr in enumerate(specs):
            values = {(type(v), v): v
                      for t in relation.tuples for v in t.components[idx]}
            attr.proximity.compile(values.values())
        return relation

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

    def _column_index(self, idx: int) -> dict:
        """Map from each value of column ``idx`` to the positions holding it.

        Built on first use and kept: the tuples never change.  Positions
        ascend, in machine-word arrays, and values are keyed by Python
        equality.
        """
        indexes = self._indexes
        index = indexes.get(idx)
        if index is None:
            index = {}
            for pos, t in enumerate(self.tuples):
                for v in t.components[idx]:
                    index.setdefault(v, array("l")).append(pos)
            indexes[idx] = index
        return index

    def _cut(self, idx: int):
        """Column ``idx``'s values compiled by its spec for alpha cuts.

        Built on first use and kept, like ``_column_index``; one per
        column, whatever the levels asked of it.
        """
        cuts = self._cuts
        cut = cuts.get(idx)
        if cut is None:
            cut = cuts[idx] = self.schema[idx].proximity.compile(self._column_index(idx))
        return cut

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
        self._set(levels=checked)

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


def _min_pairwise(spec: ProximitySpec, values: Iterable[Value]) -> float:
    degrees = [spec.degree(x, y) for x, y in itertools.combinations(values, 2)]
    return min(degrees, default=1.0)


def thres(r: FuzzyRelation, attr: str) -> float:
    """Smallest pairwise degree inside any component of one column.

    Relations with only singleton components on the attribute, and the
    empty relation, score 1 by the vacuous-minimum convention.
    """
    idx = r.attribute_index(attr)
    spec = r.schema[idx].proximity
    return min(
        (_min_pairwise(spec, t.components[idx]) for t in r.tuples), default=1.0
    )


def valid_tuple(schema: Sequence[AttributeSpec], t: FuzzyTuple, levels: LevelMap) -> bool:
    """True when each component's values are mutually proximate to its level.

    A merge's threshold checks decide it; ``t`` must be named as ``schema``.
    """
    _conform((t,), tuple(a.name for a in schema))
    checks = _build_checks(schema, levels, "threshold", lambda idx, _: t.components[idx])
    return all(c.component_ok(t.components[c.index]) for c in checks)


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

    A ``threshold_only`` spec (crisp) keeps the threshold check under
    every method: it has no cells, and above level 0 its closure classes
    are its single values, which the threshold check already decides.
    """
    if requested not in METHODS:
        raise ValidationError(f"unknown method {requested!r}")
    if requested == "threshold" or attr.proximity.threshold_only:
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


# (method, level) memos an attribute keeps, the oldest dropped first:
# levels are free floats.
_MAX_CELL_MEMOS = 16
# Values a memo keeps before it starts afresh, since a spec outlives the
# relations it keyed; the benchmark's query pool keys at most 123.
_MAX_MEMO_CELLS = 4096


class _CellMemo(dict):
    """Each value's cell key under one method and level, found on first lookup."""

    __slots__ = ("compute",)

    def __missing__(self, value):
        if len(self) >= _MAX_MEMO_CELLS:
            self.clear()
        cell = self[value] = self.compute(value)
        return cell


def _cell_keys(attr: AttributeSpec, method: str, level: float) -> Callable[[Value], object]:
    """``cell_key`` of the cells ``method`` cuts at ``level``, memoised on
    ``attr``: a value's cell depends only on the attribute's domain."""
    memos = attr._cells
    memo = memos.get((method, level))
    if memo is None:
        memo = _CellMemo()
        memo.compute = cell_key(*_partitioner(attr, method, level))
        if len(memos) == _MAX_CELL_MEMOS:
            del memos[next(iter(memos))]
        memos[method, level] = memo
    return memo.__getitem__


_MIXED = object()  # class key of a component that spans two classes


class _Check(_Record):
    """Redundancy test for one attribute position, built for one call.

    A cell test keys values by their cell (see ``_cell_keys``), a closure
    test by the ``class_index`` of a ``class_grouping`` that holds every
    value the call will test.  A threshold test holds those values
    compiled by the attribute's spec, and caches each value's
    neighbourhood: the values within the level of it.  A component is
    mutually close exactly when it lies inside the intersection of its
    members' neighbourhoods.  Values are keyed by Python equality.
    """

    _fields = ("index", "level", "cut", "classify")
    __slots__ = _fields + ("memo",)

    def __init__(self, index: int, level: float,
                 cut: object | None = None, classify: Callable | None = None):
        # a threshold test has a ``cut``, a class test a ``classify``
        self._set(index=index, level=level, cut=cut, classify=classify, memo={})

    def class_key(self, values: frozenset):
        """The one class key all ``values`` share, or ``_MIXED``."""
        if len(values) == 1:
            value, = values
            return self.classify(value)
        keys = set(map(self.classify, values))
        return keys.pop() if len(keys) == 1 else _MIXED

    def common(self, values: frozenset) -> frozenset:
        """The values within the level of each of ``values``."""
        memo = self.memo
        out = None
        for v in values:
            near = memo.get(v)
            if near is None:
                near = memo[v] = self.cut.near(v, self.level)
            out = near if out is None else out & near
        return out

    def component_ok(self, values: frozenset) -> bool:
        if self.classify is not None:
            return self.class_key(values) is not _MIXED
        return values <= self.common(values)

    __hash__ = None


def _build_checks(schema: Sequence[AttributeSpec], levels: LevelMap, mode: str | None,
                  values_of: Callable[[int, str], frozenset]) -> list[_Check]:
    """One check per attribute above level 0, at its position in ``schema``.

    ``values_of(idx, method)`` is the value set the check of position
    ``idx`` will see, given its resolved method.  A threshold check
    compiles it and a closure check groups it with ``class_grouping``: a
    neighbourhood or a closure class over more values would differ.  A
    cell check needs no values: it keys each value it tests by its cell.
    """
    checks = []
    for idx, attr in enumerate(schema):
        level = levels.level(attr.name)
        if level == 0.0:
            continue
        method = _resolve_method(attr, mode or attr.default_method)
        if method == "threshold":
            cut = attr.proximity.compile(values_of(idx, method))
            checks.append(_Check(idx, level, cut=cut))
        elif method == "closure":
            grouping = class_grouping(attr, method, level, values_of(idx, method))
            checks.append(_Check(idx, level, classify=grouping.class_index))
        else:
            checks.append(_Check(idx, level, classify=_cell_keys(attr, method, level)))
    return checks


def redundant(r: FuzzyRelation, t1: FuzzyTuple, t2: FuzzyTuple,
              levels: LevelMap, mode: str | None = None) -> bool:
    """Decide whether two tuples over r's schema would merge.

    ``mode`` forces one class-formation method for every attribute;
    None follows each attribute's configured default.  Closure classes
    are computed from r's current content.
    """
    _conform((t1, t2), r.names)
    # closure classes depend on r's content, cuts only on t1, t2
    checks = _build_checks(r.schema, levels, mode, lambda idx, method: _column(
        r.tuples if method == "closure" else (t1, t2), idx))
    return all(c.component_ok(t1.components[c.index] | t2.components[c.index])
               for c in checks)


def merge_tuples(t1: FuzzyTuple, t2: FuzzyTuple) -> FuzzyTuple:
    """Componentwise union of two tuples over the same attributes."""
    if t1.names != t2.names:
        raise SchemaMismatchError(f"cannot merge {t1.names} with {t2.names}")
    return FuzzyTuple._trusted(
        t1.names, tuple(a | b for a, b in zip(t1.components, t2.components)))


def merge_relation(r: FuzzyRelation, levels: LevelMap | None = None,
                   mode: str | None = None) -> FuzzyRelation:
    """Merge redundant tuples until none remain.

    The result is that of scanning pairs in relation order, merging the
    first redundant pair, dropping later tuples equal to the merged one
    and restarting.  One forward pass reaches it: a union only adds class
    keys and can only lower the minimum pairwise degree, so a pair found
    non-redundant stays so as either side grows.  Tuples are bucketed by
    the class keys of their class-checked components; a tuple with one
    spanning two classes never merges.  In a bucket, tuple i absorbs each
    later tuple that passes the threshold checks against it, and
    survivors keep the position of their first member: at most O(n^2)
    pair checks, O(n) with class checks only.  A later tuple equal to the
    growing one is absorbed when the scan reaches it.

    Threshold and closure checks are built over r's own column values
    and cell checks key each value by its cell (see ``_Check``); each
    value's neighbourhood is found once.  The growing tuple carries the
    intersection of its members' neighbourhoods, so a later tuple whose
    own components are mutually close is redundant with it exactly when
    each of those components lies inside that intersection: one subset
    test per attribute.  Keys are by Python equality, exact for every
    value a spec accepts.  Building the checks, or keying the tuples,
    tests every value of a checked column, so a value its spec rejects
    raises here.
    """
    levels = levels or LevelMap()
    checks = _build_checks(r.schema, levels, mode, lambda idx, _: _column(r.tuples, idx))
    class_checks = [c for c in checks if c.classify is not None]
    threshold_checks = [c for c in checks if c.classify is None]
    survivors: dict[int, FuzzyTuple] = {}
    buckets: dict[tuple, list[int]] = {}
    for pos, t in enumerate(r.tuples):
        keys = tuple(c.class_key(t.components[c.index]) for c in class_checks)
        if _MIXED in keys:
            survivors[pos] = t
        else:
            buckets.setdefault(keys, []).append(pos)
    for members in buckets.values():
        survivors.update(_absorb(r.tuples, members, threshold_checks))
    # distinct: of two equal survivors, the first would have absorbed the other
    return FuzzyRelation._derived(r.schema, tuple(survivors[p] for p in sorted(survivors)))


def _absorb(tuples: Sequence[FuzzyTuple], members: list[int],
            checks: Sequence[_Check]):
    """(position, merged tuple) of each survivor of one class-key bucket."""
    if len(members) == 1:  # nothing to absorb
        yield members[0], tuples[members[0]]
        return
    alive = [tuples[p] for p in members]
    parts = [[t.components[c.index] for c in checks] for t in alive]
    commons = [[c.common(v) for c, v in zip(checks, p)] for p in parts]
    # A tuple with a component that is not mutually close merges with none.
    mergeable = [all(map(le, p, common)) for p, common in zip(parts, commons)]
    for i, t in enumerate(alive):
        if t is None:
            continue
        common = commons[i]
        for j in range(i + 1, len(alive)):
            if alive[j] is None or not (
                    mergeable[i] and mergeable[j] and all(map(le, parts[j], common))):
                continue
            t = merge_tuples(t, alive[j])
            common = list(map(and_, common, commons[j]))
            alive[j] = None
        yield members[i], t


def select(r: FuzzyRelation, conds: Iterable[tuple[str, Value]],
           levels: LevelMap | None = None) -> FuzzyRelation:
    """Keep tuples whose components are close enough to the condition constants.

    A tuple passes a condition (attr, c) when every element of its attr
    component has degree >= level(attr) to c.  Conditions conjoin, in
    order.  No merging happens here; kept tuples stay in relation order.

    Each condition is one lookup, ``near(constant, level)``, on the
    column's values compiled by its spec, which the relation builds on
    first use and keeps beside its value-to-positions index.  The first
    condition finds its candidate tuples through that index; a tuple
    passes when its component is a subset of the neighbourhood.  Once no
    tuple is kept, later conditions are not evaluated, so a constant no
    value can be compared with raises only when some tuple reaches its
    condition.  A level-0 condition is skipped.  Values are keyed by
    Python equality, which is exact for every value a spec accepts;
    compiling checks every value of the column, so a relation built with
    a value its spec rejects raises when a condition reaches its column.
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
        passing = r._cut(idx).near(constant, level)
        if len(kept) == len(tuples):
            index = r._column_index(idx)
            kept = sorted({pos for v in passing for pos in index[v]})
        kept = [pos for pos in kept if tuples[pos].components[idx] <= passing]
    return FuzzyRelation._derived(r.schema, tuple(tuples[pos] for pos in kept))


def project(r: FuzzyRelation, attrs: Sequence[str],
            levels: LevelMap | None = None, mode: str | None = None) -> FuzzyRelation:
    """Drop all other columns, then merge redundant tuples."""
    indices = [r.attribute_index(a) for a in attrs]
    schema = tuple(r.schema[i] for i in indices)
    names = tuple(a.name for a in schema)
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate attribute names in schema: {names}")
    make = FuzzyTuple._trusted
    rows = {make(names, tuple(t.components[i] for i in indices)): None for t in r.tuples}
    return merge_relation(FuzzyRelation._derived(schema, tuple(rows)), levels, mode)


def _joined_schema(r1: FuzzyRelation, r2: FuzzyRelation, on: Sequence[str]):
    """The join's schema and the positions of the right columns it appends.

    A right column keeps its spec; one renamed ``X_2`` shares its cell
    memos, since a cell depends only on proximity, method and level.
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
            a, source = AttributeSpec(name, a.proximity, a.default_method), a
            a._set(_cells=source._cells)
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
    threshold or closure check holds the values of both columns; one
    named twice raises ValidationError.
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

    # a check's index is its attribute's position in ``on``
    on_checks = _build_checks(
        tuple(r1.schema[i] for i in on_left), levels, mode,
        lambda k, _: _column(r1.tuples, on_left[k]) | _column(r2.tuples, on_right[k]))
    schema, right_rest = _joined_schema(r1, r2, on)
    names = tuple(a.name for a in schema)

    out_rows = []
    for t1 in r1.tuples:
        left = t1.components
        for t2 in r2.tuples:
            right = t2.components
            unions = [left[i] | right[j] for i, j in zip(on_left, on_right)]
            if not all(c.component_ok(unions[c.index]) for c in on_checks):
                continue
            comps = list(left)
            for i, union in zip(on_left, unions):
                comps[i] = union
            comps.extend(right[i] for i in right_rest)
            out_rows.append(FuzzyTuple._trusted(names, tuple(comps)))
    joined = FuzzyRelation._derived(schema, tuple(dict.fromkeys(out_rows)))
    return merge_relation(joined, levels, mode)
