"""Proximity and similarity relations over attribute domains.

A proximity relation maps value pairs to a degree in [0, 1] and is
reflexive and symmetric.  A similarity relation additionally satisfies
max-min transitivity.  Four kinds of specification are supported:

* ``ExplicitMatrix`` -- a degree table over a finite label domain,
* ``Linear``         -- distance-based degrees on a real interval [0, L],
* ``Planar``         -- distance-based degrees on the square [0, L]^2,
* ``CrispIdentity``  -- classical equality (degree 1 or 0).

Each kind implements the same two methods:

* ``degree(x, y)`` -- the degree of two domain values; it checks both and
  raises UnknownValueError for a value it cannot interpret, DomainError
  for one outside the domain,
* ``parse(text)``  -- the domain value a data file cell spells; it raises
  FormatError for text of the wrong shape, DomainError for a value
  outside the domain.

All objects are immutable and every function here is pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import DomainError, FormatError, UnknownValueError, ValidationError

Value = Union[str, int, float]
Point = tuple[float, float]

_SQRT2 = math.sqrt(2.0)
_INT_RE = re.compile(r"[+-]?\d+")


def _as_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{what} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ProximityMatrix:
    """Reflexive, symmetric degree table over a finite label domain."""

    labels: tuple[str, ...]
    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        entries = tuple(tuple(float(v) for v in row) for row in self.entries)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", entries)
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
        object.__setattr__(self, "_pos", {lab: i for i, lab in enumerate(labels)})

    def degree(self, x: Value, y: Value) -> float:
        pos = getattr(self, "_pos")
        try:
            i, j = pos[x], pos[y]
        except (KeyError, TypeError):
            missing = x if not isinstance(x, str) or x not in pos else y
            raise UnknownValueError(f"label {missing!r} not in matrix domain") from None
        return self.entries[i][j]


@dataclass(frozen=True)
class Linear:
    """Degrees on [0, length] fall off linearly with distance."""

    length: float

    def __post_init__(self):
        object.__setattr__(self, "length", _as_number(self.length, "length"))
        if self.length <= 0:
            raise DomainError(f"length must be positive, got {self.length}")

    def degree(self, x: Value, y: Value) -> float:
        return proximity_linear(_linear_value(x), _linear_value(y), self.length)

    def parse(self, text: str) -> Value:
        """An int when ``text`` spells one, else a float."""
        try:
            number = int(text) if _INT_RE.fullmatch(text) else float(text)
        except ValueError:
            raise FormatError(f"{text!r} is not a number") from None
        if not 0.0 <= number <= self.length:
            raise DomainError(f"value {number} outside [0, {self.length}]")
        return number


@dataclass(frozen=True)
class Planar:
    """Degrees on the square [0, side]^2; labels resolve through ``locations``."""

    side: float
    locations: Mapping[str, Point]

    def __post_init__(self):
        side = _as_number(self.side, "side")
        if side <= 0:
            raise DomainError(f"side must be positive, got {side}")
        locs = {}
        for label, point in dict(self.locations).items():
            x, y = (_as_number(c, f"coordinate of {label!r}") for c in point)
            if not (0.0 <= x <= side and 0.0 <= y <= side):
                raise DomainError(f"location {label!r} = ({x}, {y}) outside the square")
            locs[label] = (x, y)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "locations", locs)

    def resolve(self, value: Value | Point) -> Point:
        if isinstance(value, tuple):
            return value
        try:
            return self.locations[value]
        except (KeyError, TypeError):
            raise UnknownValueError(f"no location known for {value!r}") from None

    def degree(self, x: Value | Point, y: Value | Point) -> float:
        return proximity_planar(self.resolve(x), self.resolve(y), self.side)

    def parse(self, text: str) -> Value:
        if text not in self.locations:
            raise DomainError(f"no location known for {text!r}")
        return text

    # Mapping fields rule out hashing; equality still works field-wise.
    __hash__ = None


@dataclass(frozen=True)
class ExplicitMatrix:
    """Wraps a ProximityMatrix as a proximity specification."""

    matrix: ProximityMatrix

    def degree(self, x: Value, y: Value) -> float:
        return self.matrix.degree(x, y)

    def parse(self, text: str) -> Value:
        if text not in self.matrix.labels:
            raise DomainError(f"unknown label {text!r}")
        return text


@dataclass(frozen=True)
class CrispIdentity:
    """Classical equality: degree 1 for equal values, 0 otherwise."""

    def degree(self, x: Value, y: Value) -> float:
        return 1.0 if x == y else 0.0

    def parse(self, text: str) -> Value:
        return text


ProximitySpec = Union[ExplicitMatrix, Linear, Planar, CrispIdentity]


def proximity_linear(a: float, b: float, length: float) -> float:
    """Degree of two reals in [0, length]: 1 - |b - a| / length."""
    L = _as_number(length, "length")
    if L <= 0:
        raise DomainError(f"length must be positive, got {L}")
    x = _as_number(a, "a")
    y = _as_number(b, "b")
    for v in (x, y):
        if not 0.0 <= v <= L:
            raise DomainError(f"value {v} outside [0, {L}]")
    return 1.0 - abs(y - x) / L


def proximity_planar(p1: Point, p2: Point, side: float) -> float:
    """Degree of two points of [0, side]^2: 1 - d(p1, p2) / (sqrt(2) * side)."""
    L = _as_number(side, "side")
    if L <= 0:
        raise DomainError(f"side must be positive, got {L}")
    for p in (p1, p2):
        x, y = (_as_number(c, "coordinate") for c in p)
        if not (0.0 <= x <= L and 0.0 <= y <= L):
            raise DomainError(f"point ({x}, {y}) outside the square [0, {L}]^2")
    return 1.0 - math.dist(p1, p2) / (_SQRT2 * L)


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


@dataclass(frozen=True)
class PropertyReport:
    """Which of the three similarity-relation properties a matrix satisfies."""

    reflexive: bool
    symmetric: bool
    max_min_transitive: bool
    first_violation: tuple[str, str, str] | None = None


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


def _linear_value(v: Value) -> float:
    if isinstance(v, bool):
        raise UnknownValueError(f"cannot interpret {v!r} as a number")
    try:
        return float(v)
    except (TypeError, ValueError):
        raise UnknownValueError(f"cannot interpret {v!r} as a number") from None
