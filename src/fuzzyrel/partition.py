"""Content-independent equivalence classes from interval and grid partitions.

For a threshold alpha, the interval [0, L] is cut into cells whose members
are pairwise proximate to degree >= alpha.  Two modes exist:

* standard  -- cell width m = (1 - alpha) * L; when 1 / (1 - alpha) is not
  an integer the last cell is shorter,
* equalized -- ceil(1 / (1 - alpha)) cells of equal width.

Cells are half-open except the last, which is closed at L.  The square
[0, L]^2 is partitioned by crossing the standard axis partition with
itself.  The classes a finite value set induces are the non-empty
intersections with the cells, numbered from 1 in cell order.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Union

from .errors import DomainError, UnknownValueError
from .proximity import Point, Value, _as_number, _Record

# Relative slack when deciding whether a value sits exactly on a cell
# boundary; boundaries are multiples of a float width, so exact data such
# as x = 40 on a width computed as 40.000000000000006 must not land left.
_EPS = 1e-9

# Most cells a line partition may have.  ``class_of`` computes v / width,
# which is at most the cell count n, with a relative error of a few ulps
# (2**-53 ~ 1.1e-16 each) from ``width`` and the division.  A value
# exactly on the boundary k * width may thus come out below k by about
# k * 4 * 1.1e-16, and ``_EPS`` must absorb that: n * 4.4e-16 <= 1e-9
# holds up to n ~ 2.3e6.  Past about 10**6 cells a boundary value can
# land in the wrong cell, so finer partitions are refused.
_MAX_CELLS = 10**6

MODES = ("standard", "equalized")


def _unit_interval(alpha, what: str = "alpha") -> float:
    a = _as_number(alpha, what)
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"{what} must lie in [0, 1], got {a}")
    return a


class Partition1D(_Record):
    """Decomposition of [0, length] for one threshold.

    ``singleton`` marks the degenerate alpha = 1 partition in which every
    value forms its own class; it has no numbered cells.
    """

    __slots__ = _fields = ("length", "alpha", "mode", "width", "cell_count", "singleton")

    def __init__(self, length: float, alpha: float, mode: str, width: float,
                 cell_count: int, singleton: bool = False):
        self._set(length=length, alpha=alpha, mode=mode, width=width,
                  cell_count=cell_count, singleton=singleton)


def partition_line(length, alpha, mode: str = "standard") -> Partition1D:
    """Partition [0, length] for the given threshold.

    alpha = 0 collapses everything into the single cell [0, length];
    alpha = 1 yields the singleton partition.
    """
    L = _as_number(length, "length")
    if L <= 0:
        raise DomainError(f"length must be positive, got {L}")
    a = _unit_interval(alpha)
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    if a == 1.0:
        return Partition1D(L, a, mode, 0.0, 0, singleton=True)
    q = 1.0 / (1.0 - a)
    if q > _MAX_CELLS:
        raise DomainError(
            f"alpha {a} cuts [0, {L}] into more than {_MAX_CELLS} cells")
    integral = abs(q - round(q)) <= _EPS * max(1.0, q)
    if mode == "standard":
        n = round(q) if integral else math.floor(q)
        count = n if integral else n + 1
        width = (1.0 - a) * L
    else:
        count = round(q) if integral else math.ceil(q)
        width = L / count
    return Partition1D(L, a, mode, width, count)


def class_of(x, p: Partition1D) -> int:
    """1-based index of the cell containing x; x = length maps to the last."""
    v = _as_number(x, "x")
    if not 0.0 <= v <= p.length:
        raise DomainError(f"value {v} outside [0, {p.length}]")
    if p.singleton:
        raise DomainError("a singleton partition has no numbered cells")
    j = int(v / p.width + _EPS)
    return min(j, p.cell_count - 1) + 1


class Partition2D(_Record):
    """Grid over [0, length]^2: the standard axis partition crossed with itself."""

    __slots__ = _fields = ("axis",)

    def __init__(self, axis: Partition1D):
        self._set(axis=axis)

    @property
    def cell_count(self) -> int:
        return self.axis.cell_count ** 2

    @property
    def singleton(self) -> bool:
        return self.axis.singleton


def partition_plane(length, alpha) -> Partition2D:
    """Grid partition of the square [0, length]^2."""
    return Partition2D(partition_line(length, alpha, "standard"))


def cell_of(pt: Point, g: Partition2D) -> tuple[int, int]:
    """1-based (column, row) indices of the grid cell containing pt."""
    try:
        x, y = pt
    except (TypeError, ValueError):
        raise DomainError(f"expected an (x, y) point, got {pt!r}") from None
    return (class_of(x, g.axis), class_of(y, g.axis))


def value_sort_key(v: Value):
    """Total order across mixed value types: numbers first, then strings."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return (0, "", float(v))
    return (1, str(v), 0.0)


class Grouping(_Record):
    """A partition of a finite value set into non-empty classes.

    Classes are indexed from 1 in the order of ``classes``; ``index`` maps
    every value to its class ordinal.  ``from_classes`` orders classes by
    their smallest member; a grouping built by ``classes_over`` is in cell
    order instead.
    """

    __slots__ = _fields = ("classes", "index")

    def __init__(self, classes: tuple[frozenset, ...], index: Mapping[Value, int]):
        self._set(classes=classes, index=index)

    __hash__ = None

    @classmethod
    def from_classes(cls, groups) -> "Grouping":
        """Grouping whose classes are ordered by their smallest member."""
        return cls.in_order(sorted(
            (g for g in groups if g),
            key=lambda c: value_sort_key(min(c, key=value_sort_key)),
        ))

    @classmethod
    def in_order(cls, groups) -> "Grouping":
        """Grouping whose classes are numbered in the order given."""
        classes = tuple(frozenset(g) for g in groups if g)
        index = {v: i for i, c in enumerate(classes, start=1) for v in c}
        return cls(classes, index)

    def class_index(self, v: Value) -> int:
        try:
            return self.index[v]
        except (KeyError, TypeError):
            raise UnknownValueError(f"value {v!r} is in no class") from None

    def as_sets(self) -> frozenset:
        return frozenset(self.classes)


Partitioner = Union[Partition1D, Partition2D]
Resolver = Union[Mapping, Callable, None]


def _make_resolver(resolve: Resolver):
    if resolve is None:
        return lambda v: v
    if callable(resolve):
        return resolve
    mapping = resolve

    def lookup(v):
        try:
            return mapping[v]
        except (KeyError, TypeError):
            raise UnknownValueError(f"value {v!r} cannot be resolved") from None

    return lookup


def cell_key(partitioner: Partitioner, resolve: Resolver = None) -> Callable[[Value], object]:
    """Function mapping a value to the key of the cell it falls in: its
    ``class_of`` index on a line, ``cell_of``'s ``(column, row)`` on a grid.
    ``resolve`` is as in ``classes_over``.  The singleton partition has no
    cells, so it keys every value by itself, unresolved."""
    if partitioner.singleton:
        return lambda v: v
    resolver = _make_resolver(resolve)
    cell = cell_of if isinstance(partitioner, Partition2D) else class_of
    return lambda v: cell(resolver(v), partitioner)


def classes_over(values, partitioner: Partitioner, resolve: Resolver = None) -> Grouping:
    """Group a finite value set by the cell ``cell_key`` gives each value.

    ``resolve`` maps raw values to reals (1D) or points (2D); labels of an
    ordinal domain resolve to their rank, city names to their coordinates.
    Only non-empty classes are returned, numbered from 1 in cell order.
    The singleton partition (alpha = 1) has no cells, so each value,
    unresolved, forms its own class, ordered by ``value_sort_key``.
    """
    if partitioner.singleton:
        return Grouping.from_classes({v} for v in set(values))
    key = cell_key(partitioner, resolve)
    buckets: dict = {}
    for v in values:
        buckets.setdefault(key(v), set()).add(v)
    return Grouping.in_order(buckets[k] for k in sorted(buckets))
