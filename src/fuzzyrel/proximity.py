"""Proximity and similarity relations over attribute domains.

A proximity relation maps value pairs to a degree in [0, 1] and is
reflexive and symmetric.  A similarity relation additionally satisfies
max-min transitivity.  Four kinds of specification are supported:

* ``ExplicitMatrix`` -- a degree table over a finite label domain,
* ``Linear``         -- distance-based degrees on a real interval [0, L],
* ``Planar``         -- distance-based degrees on the square [0, L]^2,
* ``CrispIdentity``  -- classical equality (degree 1 or 0).

Each kind has the same members:

* ``degree(x, y)``    -- the degree of two domain values; it checks both and
  raises UnknownValueError for a value it cannot interpret, DomainError
  for one outside the domain,
* ``parse(text)``     -- the domain value a data file cell spells; it raises
  FormatError for text of the wrong shape, DomainError for a value
  outside the domain,
* ``compile(values)`` -- a finite value set prepared for alpha cuts.  It
  checks each value once, raising what ``degree`` raises for it.  Its
  ``near(x, level)``, for a level in [0, 1], is the frozenset of the
  values y with ``degree(x, y) >= level``; ``x`` need not be one of them
  and is checked as ``degree`` checks it.  Linear values are found by
  bisection, planar ones in a strip of x, matrix ones in the row of x;
  membership is decided by the float expression ``degree`` evaluates, so
  the set is exactly the one a scan of ``degree`` gives.  The compiled
  form does not depend on the level, and ``near`` is the only place the
  package decides ``degree >= level``,
* ``embedding()``     -- the cells that interval, equalized and grid
  partitions cut: ``(dimensions, length, resolve)``, ``resolve`` mapping a
  value onto [0, length] or [0, length]^2, or None for a domain without
  cells.  A matrix has cells only with an ``order``: its label ranks,
* ``threshold_only``  -- true for crisp domains only: merges keep their
  threshold check whatever method is asked.

Each kind checks a value on one path, which ``degree``, ``compile`` and
``near`` share.

All objects are immutable and every function here is pure.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from operator import attrgetter, itemgetter
from typing import Mapping, Union

from .errors import DomainError, FormatError, UnknownValueError, ValidationError

Value = Union[str, int, float]
Point = tuple[float, float]

_SQRT2 = math.sqrt(2.0)
_INT_RE = re.compile(r"[+-]?\d+")
# Widens a cut's candidate band or strip past (1 - level) * scale, so no
# rounding leaves a member out; ``degree``'s float expression then decides
# each candidate in ``near``, the one place ``degree >= level`` is decided.
_REACH_SLACK = 1e-9


class _Record:
    """Value semantics driven by a per-class ``_fields`` tuple.

    ``==`` compares the fields of two objects of exactly the same class,
    ``hash`` hashes them unless the class sets ``__hash__ = None``, ``repr``
    reads ``Name(field=value, ...)``, and copy and pickle call the class
    with them.  Objects are frozen: assignment and deletion raise
    AttributeError, so ``__init__`` stores through ``_set``.  Slots outside
    ``_fields`` hold hidden caches, out of ``==`` and ``repr``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The fields for == and hash in one C call: the bare value of a
        # one-field class, the class itself when there are none.  Neither
        # callable is a descriptor, so ``self._key`` is the callable.
        cls._key = attrgetter(*cls._fields) if cls._fields else type

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _as_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{what} must be a number, got {value!r}")
    return float(value)


class ProximityMatrix(_Record):
    """Reflexive, symmetric degree table over a finite label domain."""

    _fields = ("labels", "entries")
    __slots__ = _fields + ("_pos",)

    def __init__(self, labels: tuple[str, ...], entries: tuple[tuple[float, ...], ...]):
        labels = tuple(labels)
        entries = tuple(tuple(float(v) for v in row) for row in entries)
        n = len(labels)
        if n == 0:
            raise ValidationError("matrix needs at least one label")
        if len(set(labels)) != n:
            raise ValidationError("matrix labels must be distinct")
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValidationError(f"matrix must be {n}x{n}")
        for i, x in enumerate(labels):
            if entries[i][i] != 1.0:
                raise ValidationError(
                    f"diagonal entry for ({x}, {x}) is {entries[i][i]}, expected 1"
                )
            for j, y in enumerate(labels):
                v = entries[i][j]
                if not 0.0 <= v <= 1.0:
                    raise ValidationError(f"degree {v} for ({x}, {y}) outside [0, 1]")
                if v != entries[j][i]:
                    raise ValidationError(f"asymmetric entries for ({x}, {y})")
        self._set(labels=labels, entries=entries,
                  _pos={lab: i for i, lab in enumerate(labels)})

    def position(self, label: Value) -> int:
        """Row of ``label``; UnknownValueError for a label not in the domain."""
        try:
            return self._pos[label]
        except (KeyError, TypeError):
            raise UnknownValueError(f"label {label!r} not in matrix domain") from None

    def degree(self, x: Value, y: Value) -> float:
        return self.entries[self.position(x)][self.position(y)]


class _Kind(_Record):
    """Defaults of a spec kind: no cells, and not ``threshold_only``."""

    __slots__ = ()
    threshold_only = False

    def embedding(self):
        return None


class Linear(_Kind):
    """Degrees on [0, length] fall off linearly with distance."""

    __slots__ = _fields = ("length",)

    def __init__(self, length: float):
        length = _as_number(length, "length")
        if not 0 < length < math.inf:
            raise DomainError(f"length must be positive and finite, got {length}")
        self._set(length=length)

    def degree(self, x: Value, y: Value) -> float:
        p, q = self._position(x), self._position(y)
        return 1.0 - abs(q - p) / self.length

    def compile(self, values) -> "_LineCut":
        return _LineCut(self, values)

    def embedding(self):
        return 1, self.length, self._position

    def _position(self, v: Value) -> float:
        if isinstance(v, bool):
            raise UnknownValueError(f"cannot interpret {v!r} as a number")
        try:
            x = float(v)
        except (TypeError, ValueError):
            raise UnknownValueError(f"cannot interpret {v!r} as a number") from None
        if not 0.0 <= x <= self.length:
            raise DomainError(f"value {x} outside [0, {self.length}]")
        return x

    def parse(self, text: str) -> Value:
        """An int when ``text`` spells one, else a float."""
        try:
            number = int(text) if _INT_RE.fullmatch(text) else float(text)
        except ValueError:
            raise FormatError(f"{text!r} is not a number") from None
        if not 0.0 <= number <= self.length:
            raise DomainError(f"value {number} outside [0, {self.length}]")
        return number


class Planar(_Kind):
    """Degrees on the square [0, side]^2; labels resolve through ``locations``."""

    __slots__ = _fields = ("side", "locations")

    def __init__(self, side: float, locations: Mapping[str, Point]):
        side = _as_number(side, "side")
        if not 0 < side < math.inf:
            raise DomainError(f"side must be positive and finite, got {side}")
        self._set(side=side)
        self._set(locations={
            label: self._in_square(point, f"location {label!r}")
            for label, point in dict(locations).items()})

    def resolve(self, value: Value | Point) -> Point:
        """The location of a label, or a point checked to lie in the square."""
        if isinstance(value, tuple):
            return self._in_square(value, "point")
        try:
            return self.locations[value]
        except (KeyError, TypeError):
            raise UnknownValueError(f"no location known for {value!r}") from None

    def degree(self, x: Value | Point, y: Value | Point) -> float:
        return 1.0 - math.dist(self.resolve(x), self.resolve(y)) / (_SQRT2 * self.side)

    def compile(self, values) -> "_PlaneCut":
        return _PlaneCut(self, values)

    def embedding(self):
        return 2, self.side, self.resolve

    def _in_square(self, point, what: str) -> Point:
        if len(point) != 2:
            raise DomainError(f"{what} {point!r} is not an (x, y) pair")
        x, y = (_as_number(c, f"coordinate of {what}") for c in point)
        if not (0.0 <= x <= self.side and 0.0 <= y <= self.side):
            raise DomainError(f"{what} ({x}, {y}) outside the square [0, {self.side}]^2")
        return x, y

    def parse(self, text: str) -> Value:
        if text not in self.locations:
            raise DomainError(f"no location known for {text!r}")
        return text

    # Mapping fields rule out hashing; equality still works field-wise.
    __hash__ = None


class ExplicitMatrix(_Kind):
    """Wraps a ProximityMatrix as a proximity specification.

    ``order`` lists the matrix labels of a linearly ordered domain.  It
    gives the domain its cells: label i sits at rank i on
    [0, len(order) - 1], where interval and equalized partitions apply.
    Without an order a matrix domain has no cells.
    """

    _fields = ("matrix", "order")
    __slots__ = _fields + ("_ranks",)

    def __init__(self, matrix: ProximityMatrix, order: tuple[str, ...] | None = None):
        self._set(matrix=matrix, order=None, _ranks=None)
        if order is None:
            return
        order = tuple(order)
        if len(set(order)) != len(order) or len(order) < 2:
            raise ValidationError("order must list at least 2 distinct labels")
        if set(order) != set(matrix.labels):
            raise ValidationError("order does not match the matrix labels")
        rank = {label: i for i, label in enumerate(order)}
        self._set(order=order, _ranks=tuple(rank[lab] for lab in matrix.labels))

    def degree(self, x: Value, y: Value) -> float:
        return self.matrix.degree(x, y)

    def compile(self, values) -> "_MatrixCut":
        return _MatrixCut(self.matrix, values)

    def embedding(self):
        if self.order is None:
            return None
        ranks = self._ranks
        return 1, float(len(ranks) - 1), lambda v: ranks[self.matrix.position(v)]

    def parse(self, text: str) -> Value:
        if text not in self.matrix.labels:
            raise DomainError(f"unknown label {text!r}")
        return text


class CrispIdentity(_Kind):
    """Classical equality: degree 1 for equal values, 0 otherwise.

    A value unequal to itself, such as a float NaN, is rejected with
    UnknownValueError, so the relation stays reflexive.  It has no cells,
    and merges keep its threshold check under every method.
    """

    __slots__ = ()
    threshold_only = True

    def degree(self, x: Value, y: Value) -> float:
        return 1.0 if _crisp_value(x) == _crisp_value(y) else 0.0

    def compile(self, values) -> "_CrispCut":
        return _CrispCut(values)

    def parse(self, text: str) -> Value:
        return text


def _crisp_value(v: Value) -> Value:
    if v != v:
        raise UnknownValueError(f"crisp value {v!r} is not equal to itself")
    return v


ProximitySpec = Union[ExplicitMatrix, Linear, Planar, CrispIdentity]


class _LineCut:
    """Linear values sorted by position; a cut is a band found by bisection."""

    def __init__(self, spec: Linear, values):
        self._spec = spec
        ranked = sorted(((spec._position(v), v) for v in values), key=itemgetter(0))
        self._keys = [k for k, _ in ranked]
        self._values = [v for _, v in ranked]

    def near(self, x: Value, level: float) -> frozenset:
        p = self._spec._position(x)
        L = self._spec.length
        keys = self._keys
        reach = (1.0 - level + _REACH_SLACK) * L
        lo = bisect_left(keys, p - reach)
        hi = bisect_right(keys, p + reach, lo)
        # The degree falls monotonically with distance on either side of p,
        # so the members form one run: trim the band's ends to it.
        while lo < hi and 1.0 - abs(keys[lo] - p) / L < level:
            lo += 1
        while lo < hi and 1.0 - abs(keys[hi - 1] - p) / L < level:
            hi -= 1
        return frozenset(self._values[lo:hi])


class _PlaneCut:
    """Planar values sorted by x; a cut's candidates lie in a vertical strip."""

    def __init__(self, spec: Planar, values):
        self._spec = spec
        self._points = sorted(((spec.resolve(v), v) for v in values),
                              key=lambda pv: pv[0][0])
        self._xs = [p[0] for p, _ in self._points]

    def near(self, x: Value | Point, level: float) -> frozenset:
        p = self._spec.resolve(x)
        scale = _SQRT2 * self._spec.side
        reach = (1.0 - level + _REACH_SLACK) * scale
        lo = bisect_left(self._xs, p[0] - reach)
        hi = bisect_right(self._xs, p[0] + reach, lo)
        return frozenset(v for q, v in self._points[lo:hi]
                         if 1.0 - math.dist(p, q) / scale >= level)


class _MatrixCut:
    """Matrix labels with their rows; a cut reads the row of its centre."""

    def __init__(self, matrix: ProximityMatrix, values):
        self._matrix = matrix
        self._members = [(v, matrix.position(v)) for v in values]

    def near(self, x: Value, level: float) -> frozenset:
        row = self._matrix.entries[self._matrix.position(x)]
        return frozenset(v for v, j in self._members if row[j] >= level)


class _CrispCut:
    """Crisp values by equality; a cut is every value, the equal one or none."""

    def __init__(self, values):
        self._values = {_crisp_value(v): v for v in values}

    def near(self, x: Value, level: float) -> frozenset:
        _crisp_value(x)
        if level <= 0.0:
            return frozenset(self._values)
        try:
            y = self._values[x]
        except (KeyError, TypeError):
            return frozenset()
        return frozenset((y,)) if level <= 1.0 else frozenset()


def build_ordinal_matrix(labels) -> ProximityMatrix:
    """Degree table for a linearly ordered label domain.

    Label i sits at integer position i, so the degree of two labels
    depends only on their rank distance: 1 - |i - j| / (count - 1).
    """
    labs = tuple(labels)
    if len(labs) < 2:
        raise DomainError("ordinal domain needs at least 2 labels")
    if len(set(labs)) != len(labs):
        raise DomainError("ordinal labels must be distinct")
    span = len(labs) - 1
    entries = tuple(
        tuple(1.0 - abs(i - j) / span for j in range(len(labs)))
        for i in range(len(labs))
    )
    return ProximityMatrix(labs, entries)


class PropertyReport(_Record):
    """Which of the three similarity-relation properties a matrix satisfies."""

    __slots__ = _fields = ("reflexive", "symmetric", "max_min_transitive",
                           "first_violation")

    def __init__(self, reflexive: bool, symmetric: bool, max_min_transitive: bool,
                 first_violation: tuple[str, str, str] | None = None):
        self._set(reflexive=reflexive, symmetric=symmetric,
                  max_min_transitive=max_min_transitive, first_violation=first_violation)


def relation_properties(m: ProximityMatrix) -> PropertyReport:
    """Check reflexivity, symmetry and max-min transitivity.

    If transitivity fails, reports the first triple (x, y, z) in label
    order with degree(x, z) < min(degree(x, y), degree(y, z)).
    """
    n = len(m.labels)
    e = m.entries
    reflexive = all(e[i][i] == 1.0 for i in range(n))
    symmetric = all(e[i][j] == e[j][i] for i in range(n) for j in range(i + 1, n))
    violation = None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if e[i][k] < min(e[i][j], e[j][k]):
                    violation = (m.labels[i], m.labels[j], m.labels[k])
                    break
            if violation:
                break
        if violation:
            break
    return PropertyReport(reflexive, symmetric, violation is None, violation)


def degree_of(spec: ProximitySpec, x: Value, y: Value) -> float:
    """Degree of two values under any proximity specification."""
    return spec.degree(x, y)

