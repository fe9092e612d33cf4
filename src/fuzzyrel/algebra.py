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
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

from .closure import closure_classes, temporal_domain
from .errors import (
    DomainError,
    SchemaMismatchError,
    UnknownAttributeError,
    UnknownValueError,
    ValidationError,
)
from .partition import (
    Grouping,
    cell_key,
    classes_over,
    partition_line,
    partition_plane,
)
from .proximity import (
    CrispIdentity,
    ExplicitMatrix,
    Linear,
    Planar,
    ProximitySpec,
    Value,
    _linear_value,
    degree_of,
)

CELL_METHODS = ("interval", "equalized", "grid")
METHODS = ("threshold",) + CELL_METHODS + ("closure",)


@dataclass(frozen=True)
class AttributeSpec:
    """Binds an attribute name to its proximity and class-formation method.

    ``order`` lists the labels of a linearly ordered domain; it provides
    the integer embedding that interval and equalized partitions need.
    """

    name: str
    proximity: ProximitySpec = CrispIdentity()
    default_method: str = "threshold"
    order: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.name:
            raise ValidationError("attribute name must be non-empty")
        if self.default_method not in METHODS:
            raise ValidationError(
                f"method must be one of {METHODS}, got {self.default_method!r}"
            )
        if self.order is not None:
            order = tuple(self.order)
            if len(set(order)) != len(order) or len(order) < 2:
                raise ValidationError("order must list at least 2 distinct labels")
            if isinstance(self.proximity, ExplicitMatrix):
                if set(order) != set(self.proximity.matrix.labels):
                    raise ValidationError(
                        f"order for {self.name!r} does not match the matrix labels"
                    )
            object.__setattr__(self, "order", order)
        # Fail early on impossible method/proximity pairings.
        _resolve_method(self, self.default_method)

    __hash__ = None


@dataclass(frozen=True)
class FuzzyTuple:
    """A tuple whose components are non-empty finite value sets."""

    names: tuple[str, ...]
    components: tuple[frozenset, ...]

    def __post_init__(self):
        names = tuple(self.names)
        comps = tuple(frozenset(c) for c in self.components)
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

    def as_dict(self) -> dict[str, frozenset]:
        return dict(zip(self.names, self.components))


@dataclass(frozen=True)
class FuzzyRelation:
    """An ordered schema plus a duplicate-free sequence of conforming tuples."""

    schema: tuple[AttributeSpec, ...]
    tuples: tuple[FuzzyTuple, ...]

    def __post_init__(self):
        schema = tuple(self.schema)
        names = tuple(a.name for a in schema)
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate attribute names in schema: {names}")
        seen: dict[FuzzyTuple, None] = {}
        for t in self.tuples:
            if t.names != names:
                raise SchemaMismatchError(
                    f"tuple attributes {t.names} do not match schema {names}"
                )
            seen.setdefault(t)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "tuples", tuple(seen))

    @classmethod
    def from_rows(cls, schema: Sequence[AttributeSpec], rows: Iterable) -> "FuzzyRelation":
        """Build from mappings or per-schema value sequences."""
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
        return cls(specs, tuple(tuples))

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

    def tuple_set(self) -> frozenset:
        return frozenset(self.tuples)

    __hash__ = None


@dataclass(frozen=True)
class LevelMap:
    """Per-attribute merge thresholds and optional method overrides.

    Attributes missing from the map default to level 1.  A renamed join
    column ``X_2`` inherits the level configured for ``X``.
    """

    levels: Mapping[str, float] = field(default_factory=dict)
    methods: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        levels = {}
        for name, lvl in dict(self.levels).items():
            value = float(lvl)
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"level for {name!r} must lie in [0, 1], got {lvl}")
            levels[name] = value
        methods = dict(self.methods)
        for name, m in methods.items():
            if m not in METHODS:
                raise ValidationError(f"unknown method {m!r} for {name!r}")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "methods", methods)

    def _lookup(self, table: Mapping[str, object], name: str):
        while True:
            if name in table:
                return table[name]
            if name.endswith("_2"):
                name = name[:-2]
            else:
                return None

    def level(self, name: str) -> float:
        found = self._lookup(self.levels, name)
        return 1.0 if found is None else found

    def method(self, name: str) -> str | None:
        return self._lookup(self.methods, name)

    __hash__ = None


def interpretations(t: FuzzyTuple) -> frozenset:
    """All crisp tuples obtainable by picking one value per component."""
    return frozenset(itertools.product(*t.components))


def _min_pairwise(spec: ProximitySpec, values: Iterable[Value]) -> float:
    degrees = [degree_of(spec, x, y) for x, y in itertools.combinations(values, 2)]
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
    """True when each component's values are mutually proximate to its level."""
    specs = {a.name: a.proximity for a in schema}
    for name, comp in zip(t.names, t.components):
        level = levels.level(name)
        if level == 0.0:
            continue
        if _min_pairwise(specs[name], comp) < level:
            return False
    return True


def _embedding(attr: AttributeSpec):
    """(dimensions, length, resolve) of the attribute's cells, or None.

    A planar attribute is 2-D: [0, side]^2, reached through its locations.
    A linear attribute is 1-D: [0, length].  An ordinal attribute is 1-D:
    [0, len(order) - 1], reached through the rank of each label.
    """
    spec = attr.proximity
    if isinstance(spec, Planar):
        return 2, spec.side, spec.resolve
    if isinstance(spec, Linear):
        return 1, spec.length, _linear_value
    if attr.order is None:
        return None
    positions = {label: i for i, label in enumerate(attr.order)}

    def rank(v):
        try:
            return positions[v]
        except (KeyError, TypeError):
            raise UnknownValueError(
                f"label {v!r} not in the ordered domain of {attr.name!r}"
            ) from None

    return 1, float(len(attr.order) - 1), rank


def class_method(attr: AttributeSpec, requested: str) -> str:
    """The class-formation method that serves ``requested`` on this attribute.

    Closure serves every attribute.  A cell method needs an embedding: a
    planar attribute forms grid cells whichever cell method is asked, a
    linear or ordinal one forms interval cells when grid is asked.
    """
    if requested == "closure":
        return "closure"
    embedding = _embedding(attr)
    if requested not in CELL_METHODS or embedding is None:
        raise ValidationError(
            f"attribute {attr.name!r} does not support {requested!r} classes"
        )
    if embedding[0] == 2:
        return "grid"
    return "interval" if requested == "grid" else requested


def _resolve_method(attr: AttributeSpec, requested: str) -> str:
    """Map a requested merge method to one the attribute supports.

    A crisp attribute keeps the threshold check under every method: it
    has no cells, and its closure classes, its single values, would cost
    a degree evaluation per pair of values.
    """
    if requested not in METHODS:
        raise ValidationError(f"unknown method {requested!r}")
    if requested == "threshold" or isinstance(attr.proximity, CrispIdentity):
        return "threshold"
    return class_method(attr, requested)


def _cells(attr: AttributeSpec, method: str, level: float):
    """(partitioner, resolve) of a cell method's cells at one level."""
    dims, length, resolve = _embedding(attr)
    if dims == 2:
        return partition_plane(length, level), resolve
    mode = "equalized" if method == "equalized" else "standard"
    return partition_line(length, level, mode), resolve


def class_grouping(attr: AttributeSpec, method: str, level: float,
                   values) -> Grouping:
    """Equivalence classes of a finite value set of one attribute.

    ``method`` is mapped through ``class_method``, the same rule merges
    and joins follow, so two values share a class here exactly when their
    singleton tuples would merge at ``level``.  Closure classes come from
    ``values``; interval, equalized and grid classes from the cells of the
    attribute's domain, numbered in cell order.  Raises ValidationError
    when the attribute supports no such classes.
    """
    method = class_method(attr, method)
    if method == "closure":
        return closure_classes(values, attr.proximity, level)
    return classes_over(values, *_cells(attr, method, level))


def _classifier(attr: AttributeSpec, method: str, level: float,
                domain: frozenset | None) -> Callable[[Value], object]:
    """Function mapping a value to the key of its equivalence class."""
    if method == "closure":
        return closure_classes(domain or frozenset(), attr.proximity, level).class_index
    return cell_key(*_cells(attr, method, level))


@dataclass(frozen=True)
class _Check:
    """Redundancy test for one attribute position."""

    index: int
    name: str
    level: float
    spec: ProximitySpec | None = None          # threshold test
    classify: Callable | None = None           # class test

    def component_ok(self, values: frozenset) -> bool:
        if self.classify is not None:
            keys = {self.classify(v) for v in values}
            return len(keys) == 1
        return _min_pairwise(self.spec, values) >= self.level

    __hash__ = None


def _build_checks(r: FuzzyRelation, levels: LevelMap, mode: str | None,
                  domains: Mapping[str, frozenset] | None = None) -> list[_Check]:
    checks = []
    for idx, attr in enumerate(r.schema):
        level = levels.level(attr.name)
        if level == 0.0:
            continue
        requested = mode or levels.method(attr.name) or attr.default_method
        effective = _resolve_method(attr, requested)
        if effective == "threshold":
            checks.append(_Check(idx, attr.name, level, spec=attr.proximity))
        else:
            if domains is not None and attr.name in domains:
                domain = domains[attr.name]
            else:
                domain = temporal_domain(r, attr.name) if effective == "closure" else None
            checks.append(
                _Check(idx, attr.name, level,
                       classify=_classifier(attr, effective, level, domain))
            )
    return checks


def _pair_redundant(checks: Sequence[_Check], t1: FuzzyTuple, t2: FuzzyTuple) -> bool:
    return all(c.component_ok(t1.components[c.index] | t2.components[c.index])
               for c in checks)


def redundant(r: FuzzyRelation, t1: FuzzyTuple, t2: FuzzyTuple,
              levels: LevelMap, mode: str | None = None) -> bool:
    """Decide whether two tuples over r's schema would merge.

    ``mode`` forces one class-formation method for every attribute;
    None follows each attribute's configured default (or the LevelMap
    override).  Closure classes are computed from r's current content.
    """
    for t in (t1, t2):
        if t.names != r.names:
            raise SchemaMismatchError(
                f"tuple attributes {t.names} do not match schema {r.names}"
            )
    return _pair_redundant(_build_checks(r, levels, mode), t1, t2)


def merge_tuples(t1: FuzzyTuple, t2: FuzzyTuple) -> FuzzyTuple:
    """Componentwise union of two tuples over the same attributes."""
    if t1.names != t2.names:
        raise SchemaMismatchError(f"cannot merge {t1.names} with {t2.names}")
    return FuzzyTuple(t1.names, tuple(a | b for a, b in zip(t1.components, t2.components)))


def merge_relation(r: FuzzyRelation, levels: LevelMap | None = None,
                   mode: str | None = None) -> FuzzyRelation:
    """Merge redundant tuples until none remain.

    Scans pairs in stable order, merges the first redundant pair and
    restarts; each merge shrinks the relation, so the loop terminates.
    """
    levels = levels or LevelMap()
    checks = _build_checks(r, levels, mode)
    tuples = list(dict.fromkeys(r.tuples))
    merged_some = True
    while merged_some:
        merged_some = False
        for i in range(len(tuples)):
            for j in range(i + 1, len(tuples)):
                if _pair_redundant(checks, tuples[i], tuples[j]):
                    tuples[i] = merge_tuples(tuples[i], tuples[j])
                    del tuples[j]
                    tuples = list(dict.fromkeys(tuples))
                    merged_some = True
                    break
            if merged_some:
                break
    return FuzzyRelation(r.schema, tuple(tuples))


def _coerce_constant(spec: ProximitySpec, constant: Value) -> Value:
    if isinstance(spec, Linear) and isinstance(constant, str):
        try:
            return float(constant)
        except ValueError:
            raise UnknownValueError(
                f"cannot interpret {constant!r} as a number"
            ) from None
    return constant


def select(r: FuzzyRelation, conds: Iterable[tuple[str, Value]],
           levels: LevelMap | None = None) -> FuzzyRelation:
    """Keep tuples whose components are close enough to the condition constants.

    A tuple passes a condition (attr, c) when every element of its attr
    component has degree >= level(attr) to c.  Conditions conjoin.  No
    merging happens here.
    """
    levels = levels or LevelMap()
    prepared = []
    for attr, constant in conds:
        idx = r.attribute_index(attr)
        spec = r.schema[idx].proximity
        level = levels.level(attr)
        if level == 0.0:
            continue  # degree >= 0 always holds
        prepared.append((idx, spec, _coerce_constant(spec, constant), level))
    kept = tuple(
        t for t in r.tuples
        if all(
            all(degree_of(spec, v, constant) >= level for v in t.components[idx])
            for idx, spec, constant, level in prepared
        )
    )
    return FuzzyRelation(r.schema, kept)


def project(r: FuzzyRelation, attrs: Sequence[str],
            levels: LevelMap | None = None, mode: str | None = None) -> FuzzyRelation:
    """Drop all other columns, then merge redundant tuples."""
    indices = [r.attribute_index(a) for a in attrs]
    schema = tuple(r.schema[i] for i in indices)
    names = tuple(a.name for a in schema)
    rows = tuple(
        FuzzyTuple(names, tuple(t.components[i] for i in indices)) for t in r.tuples
    )
    return merge_relation(FuzzyRelation(schema, rows), levels, mode)


def _joined_schema(r1: FuzzyRelation, r2: FuzzyRelation, on: Sequence[str]):
    out = list(r1.schema)
    names = {a.name for a in out}
    right_extra = []
    for a in r2.schema:
        if a.name in on:
            continue
        new_name = a.name
        while new_name in names:
            new_name += "_2"
        names.add(new_name)
        right_extra.append((a.name, replace(a, name=new_name)))
    return tuple(out + [spec for _, spec in right_extra]), right_extra


def join(r1: FuzzyRelation, r2: FuzzyRelation, on: Sequence[str],
         levels: LevelMap | None = None, mode: str | None = None) -> FuzzyRelation:
    """Join two relations on shared attributes, then merge the result.

    A pair of tuples joins when, for every join attribute, the union of
    their components passes the redundancy test at that attribute's
    level.  The output carries the union on join attributes, the left
    tuple's other components, and the right tuple's other components
    under a ``_2`` suffix where names collide.
    """
    levels = levels or LevelMap()
    on = tuple(on)
    if not on:
        raise SchemaMismatchError("join needs at least one attribute")
    for a in on:
        try:
            left_spec = r1.attribute(a)
            right_spec = r2.attribute(a)
        except UnknownAttributeError as exc:
            raise SchemaMismatchError(str(exc)) from None
        if left_spec != right_spec:
            raise SchemaMismatchError(f"join attribute {a!r} differs between schemas")

    domains = {a: temporal_domain(r1, a) | temporal_domain(r2, a) for a in on}
    on_checks = _build_checks(
        FuzzyRelation(tuple(r1.attribute(a) for a in on), ()),
        levels, mode, domains=domains,
    )
    schema, right_extra = _joined_schema(r1, r2, on)
    names = tuple(a.name for a in schema)
    on_left = {a: r1.attribute_index(a) for a in on}
    on_right = {a: r2.attribute_index(a) for a in on}
    right_rest = [r2.attribute_index(original) for original, _ in right_extra]

    out_rows = []
    for t1 in r1.tuples:
        for t2 in r2.tuples:
            unions = {a: t1.components[on_left[a]] | t2.components[on_right[a]]
                      for a in on}
            if not all(c.component_ok(unions[c.name]) for c in on_checks):
                continue
            comps = [
                unions[a.name] if a.name in on else t1.components[i]
                for i, a in enumerate(r1.schema)
            ]
            comps.extend(t2.components[i] for i in right_rest)
            out_rows.append(FuzzyTuple(names, tuple(comps)))
    return merge_relation(FuzzyRelation(schema, tuple(out_rows)), levels, mode)
