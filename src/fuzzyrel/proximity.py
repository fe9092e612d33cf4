"""Proximity and similarity relations over attribute domains.

A proximity relation maps value pairs to a degree in [0, 1] and is
reflexive and symmetric.  A similarity relation additionally satisfies
max-min transitivity.  Four kinds of specification are supported:

* ``ExplicitMatrix`` -- a degree table over a finite label domain,
  optionally ranked by an ``order`` of its labels,
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
  the set is exactly the one a scan of ``degree`` gives.  Its
  ``classes(level)`` are the cut's connected components: walked through
  ``near``, on a line the runs of sorted values whose gaps reach the level.
  The compiled form does not depend on the level.  Only ``near`` and a
  line's gaps decide ``degree >= level``; on a line both call one helper.
  ``near_mask(x, level)`` is the same set as an int over the cut's bit
  order: the value at ``positions()[v]`` = i of that order is bit
  ``1 << i``.  ``compile`` keeps one value of each equality class, so one
  bit per distinct value.  On a line the order is by position, so a mask
  is the run of bits of the band ``near`` bisects and trims; other kinds
  sum the bits of ``near``'s members.  ``masks(level)`` memoises
  ``near_mask`` by value on the cut, across calls: at most
  ``_MAX_LEVEL_MEMOS`` levels, the oldest dropped first, holding at most
  ``_MAX_MEMO_BITS`` mask bits (``int.bit_length``) together, past which
  they all start afresh.  The
  superset rule: for values V inside a cut's value set S, ``near`` over S
  meets V exactly in ``near`` over V, so one cut over a stored column
  decides every subset test, and every intersection of neighbourhoods that
  such a test reads, for any relation whose values lie in that column; a
  mask is as wide as S, not V,
* ``embedding()``     -- the cells that interval, equalized and grid
  partitions cut: ``(dimensions, length, resolve)``, ``resolve`` mapping a
  value onto [0, length] or [0, length]^2, or None for a domain without
  cells.  A matrix has cells only with an ``order``: its label ranks,
* ``keys(level)``     -- for a level in (0, 1], a function from a value to
  its class key in the cut at ``level``, or None at every level.  Crisp
  equality and a max-min transitive matrix have keys: their cuts are
  equivalences, so values share a key exactly when each is ``near`` the other.

Each kind checks a value on one path, which ``degree``, ``compile``,
``near`` and ``keys`` share.  Hidden caches, out of ``==``, ``repr`` and
pickle, hold what depends only on the domain: every spec's ``_cells``,
where ``algebra._cell_keys`` keeps each component's class key per method
and level, and a matrix's ``_violation``, its transitivity decided on first need.
A compiled cut keeps its positions and its level memos of masks.

Apart from these caches all objects are immutable; every function is pure.
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
_INT_RE = re.compile(r"[+-]?[0-9]+")
_DECIMAL_RE = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
# Widens a cut's candidate band or strip past (1 - level) * scale, so no
# rounding leaves a member out; ``degree``'s float expression then decides
# each candidate in ``near``.
_REACH_SLACK = 1e-9
_UNDECIDED = object()  # a matrix's transitivity before its first need
# A cut's memos of ``near_mask``, kept across calls (see ``_Cut.masks``).
# The benchmark's threshold queries read 3 levels per stored column; levels
# are free floats, so the oldest of more is dropped.
_MAX_LEVEL_MEMOS = 16
# Mask bits, by ``int.bit_length``, that a cut's memos hold together before
# they start afresh: 1 MiB of mask payload per cut.  A full memo holds
# about width^2 / 2 bits per level on a line, so at 3 levels a cut of up
# to about 2000 values keeps every mask (the benchmark's widest holds 200).
_MAX_MEMO_BITS = 1 << 23


class _Record:
    """Value semantics driven by a per-class ``_fields`` tuple.

    ``==`` compares the fields of two objects of exactly the same class,
    ``hash`` hashes them unless the class sets ``__hash__ = None``, ``repr``
    reads ``Name(field=value, ...)``, and copy and pickle call the class
    with them.  Objects are frozen: assignment and deletion raise
    AttributeError.  Fields live in slots, and slots outside ``_fields`` hold
    hidden caches, out of ``==`` and ``repr``.  ``__init__`` stores them with
    ``_set``, by position in slot order (the class's own ``__slots__``, then
    each base's) through slot setters found once per class, or one apart
    with ``object.__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(base.__dict__[name].__set__ for base in cls.__mro__
                             for name in base.__dict__.get("__slots__", ()))
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


class _Kind(_Record):
    """Defaults of a spec kind: no cells, no keys, an empty cell memo."""

    __slots__ = ("_cells",)

    def __init__(self):
        object.__setattr__(self, "_cells", {})

    def embedding(self):
        return None

    def keys(self, level: float):
        return None


class Linear(_Kind):
    """Degrees on [0, length] fall off linearly with distance."""

    __slots__ = _fields = ("length",)

    def __init__(self, length: float):
        length = _as_number(length, "length")
        if not 0 < length < math.inf:
            raise DomainError(f"length must be positive and finite, got {length}")
        self._set(length)
        object.__setattr__(self, "_cells", {})

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
        """An int when ``text`` spells one, else a float; ASCII decimal text only."""
        try:
            if not _DECIMAL_RE.fullmatch(text):
                raise ValueError
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
        self._set(side, {})  # ``locations`` is filled once ``side`` is set
        object.__setattr__(self, "_cells", {})
        self.locations.update((label, self._in_square(point, f"location {label!r}"))
                              for label, point in dict(locations).items())

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
    """A reflexive, symmetric degree table over a finite label domain.

    ``entries[i][j]`` is the degree of ``labels[i]`` and ``labels[j]``; the
    table must be square, with distinct labels, a diagonal of 1 and every
    degree in [0, 1].  ``order`` lists the labels of a linearly ordered
    domain.  It gives the domain its cells: label i of the order sits at
    rank i on [0, len(order) - 1], where interval and equalized partitions
    apply.  A cell bounds the rank-distance degree ``build_ordinal_matrix``
    builds, not the table's: survey Extreme and Irreversible, of degree 0,
    share a cell at 0.8.  Without an order a matrix domain has no cells.
    A table found max-min transitive, on first need, has keys.
    """

    _fields = ("labels", "entries", "order")
    __slots__ = _fields + ("_pos", "_ranks", "_violation")

    def __init__(self, labels: tuple[str, ...], entries: tuple[tuple[float, ...], ...],
                 order: tuple[str, ...] | None = None):
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
        ranks = None
        if order is not None:
            order = tuple(order)
            if len(set(order)) != len(order) or len(order) < 2:
                raise ValidationError("order must list at least 2 distinct labels")
            if set(order) != set(labels):
                raise ValidationError("order does not match the matrix labels")
            rank = {label: i for i, label in enumerate(order)}
            ranks = tuple(rank[lab] for lab in labels)
        self._set(labels, entries, order, {lab: i for i, lab in enumerate(labels)}, ranks,
                  _UNDECIDED)
        object.__setattr__(self, "_cells", {})

    def position(self, label: Value) -> int:
        """Row of ``label``; UnknownValueError for a label not in the domain."""
        try:
            return self._pos[label]
        except (KeyError, TypeError):
            raise UnknownValueError(f"label {label!r} not in matrix domain") from None

    def degree(self, x: Value, y: Value) -> float:
        return self.entries[self.position(x)][self.position(y)]

    def compile(self, values) -> "_MatrixCut":
        return _MatrixCut(self, values)

    def embedding(self):
        if self.order is None:
            return None
        ranks = self._ranks
        return 1, float(len(ranks) - 1), lambda v: ranks[self.position(v)]

    def parse(self, text: str) -> Value:
        if text not in self._pos:
            raise DomainError(f"unknown label {text!r}")
        return text

    def keys(self, level: float):
        if self._first_violation() is not None:
            return None
        # its row's first column that reaches the level, by ``near``'s predicate
        entries, position = self.entries, self.position
        return lambda v: next(j for j, d in enumerate(entries[position(v)]) if d >= level)

    def _first_violation(self) -> tuple[str, str, str] | None:
        """``relation_properties``' first violation, found on the first call and kept."""
        if self._violation is _UNDECIDED:
            e, labels, n = self.entries, self.labels, range(len(self.labels))
            object.__setattr__(self, "_violation", next(
                ((labels[i], labels[j], labels[k]) for i in n for j in n for k in n
                 if e[i][k] < min(e[i][j], e[j][k])), None))
        return self._violation


class CrispIdentity(_Kind):
    """Classical equality: degree 1 for equal values, 0 otherwise.

    A value unequal to itself, such as a float NaN, is rejected with
    UnknownValueError, so the relation stays reflexive.  It has no cells;
    its keys are its values, so merges bucket by them under every method.
    """

    __slots__ = ()

    def degree(self, x: Value, y: Value) -> float:
        return 1.0 if _crisp_value(x) == _crisp_value(y) else 0.0

    def keys(self, level: float):
        return _crisp_value

    def compile(self, values) -> "_CrispCut":
        return _CrispCut(values)

    def parse(self, text: str) -> Value:
        return text


def _crisp_value(v: Value) -> Value:
    if v != v:
        raise UnknownValueError(f"crisp value {v!r} is not equal to itself")
    return v


ProximitySpec = Union[ExplicitMatrix, Linear, Planar, CrispIdentity]


class _Cut:
    """A compiled value set, its ``_values`` in bit order, whose closure
    classes are walked through ``near``."""

    _positions = None  # value -> its position in bit order, built on first need
    _masks = None  # level -> _Masks, the oldest dropped first
    _memo_bits = 0  # mask bits the level memos hold together

    def classes(self, level: float) -> list:
        """The connected components of the alpha cut at ``level``, walked through ``near``."""
        seen, components = set(), []
        for v in self._values:
            if v not in seen:
                seen.add(v)
                component = [v]
                for u in component:  # a breadth-first walk: it reaches what it appends
                    found = self.near(u, level) - seen
                    seen |= found
                    component.extend(found)
                components.append(component)
        return components

    def positions(self) -> dict:
        """Each value's position i in bit order: its bit is ``1 << i``."""
        if self._positions is None:
            self._positions = {v: i for i, v in enumerate(self._values)}
        return self._positions

    def near_mask(self, x: Value, level: float) -> int:
        """``near(x, level)`` as the sum of its members' bits."""
        return sum(map((1).__lshift__, map(self.positions().__getitem__, self.near(x, level))))

    def masks(self, level: float) -> "_Masks":
        """The memo of ``near_mask`` at ``level``, kept across calls."""
        memos = self._masks
        if memos is None:
            memos = self._masks = {}
        memo = memos.get(level)
        if memo is None:
            if len(memos) == _MAX_LEVEL_MEMOS:
                self._memo_bits -= memos.pop(next(iter(memos))).bits
            memo = memos[level] = _Masks(self, level)
        return memo

    def _spend(self, bits: int) -> None:
        """Count ``bits`` more in the level memos; past the bound, empty them all."""
        self._memo_bits += bits
        if self._memo_bits > _MAX_MEMO_BITS:
            for memo in self._masks.values():
                memo.clear()
                memo.bits = 0
            self._memo_bits = 0


class _Masks(dict):
    """Each value's ``near_mask`` at one level, found on first lookup; a
    lookup that raises stores nothing.  ``bits`` counts the mask bits held,
    which the cut bounds over all its levels, since free levels and wide
    columns would let the memos grow without end."""

    __slots__ = ("cut", "level", "bits")

    def __init__(self, cut: _Cut, level: float):
        self.cut, self.level, self.bits = cut, level, 0

    def __missing__(self, x: Value) -> int:
        mask = self[x] = self.cut.near_mask(x, self.level)
        bits = mask.bit_length()
        self.bits += bits
        self.cut._spend(bits)
        return mask


class _LineCut(_Cut):
    """Linear values sorted by position; a cut is a band found by bisection,
    and its mask the band's run of bits."""

    def __init__(self, spec: Linear, values):
        self._spec = spec
        ranked = sorted({v: spec._position(v) for v in values}.items(), key=itemgetter(1))
        self._keys = [k for _, k in ranked]
        self._values = [v for v, _ in ranked]

    def _reaches(self, p: float, q: float, level: float) -> bool:
        """``degree >= level`` at positions p and q, by ``degree``'s float expression."""
        return 1.0 - abs(q - p) / self._spec.length >= level

    def _band(self, x: Value, level: float) -> tuple[int, int]:
        """The positions [lo, hi) of ``near(x, level)`` in sorted order."""
        p = self._spec._position(x)
        keys = self._keys
        reach = (1.0 - level + _REACH_SLACK) * self._spec.length
        lo = bisect_left(keys, p - reach)
        hi = bisect_right(keys, p + reach, lo)
        # The degree falls monotonically with distance on either side of p,
        # so the members form one run: trim the band's ends to it.
        while lo < hi and not self._reaches(keys[lo], p, level):
            lo += 1
        while lo < hi and not self._reaches(keys[hi - 1], p, level):
            hi -= 1
        return lo, hi

    def near(self, x: Value, level: float) -> frozenset:
        lo, hi = self._band(x, level)
        return frozenset(self._values[lo:hi])

    def near_mask(self, x: Value, level: float) -> int:
        lo, hi = self._band(x, level)
        return ((1 << (hi - lo)) - 1) << lo

    def classes(self, level: float) -> list:
        """The runs of sorted values whose gaps reach ``level`` (single linkage):
        float arithmetic is monotone, so no pair is closer than a gap between."""
        keys = self._keys
        cuts = [i for i in range(1, len(keys)) if not self._reaches(keys[i - 1], keys[i], level)]
        return [self._values[i:j] for i, j in zip([0, *cuts], [*cuts, len(keys)])]


class _PlaneCut(_Cut):
    """Planar values sorted by x; a cut's candidates lie in a vertical strip."""

    def __init__(self, spec: Planar, values):
        self._spec = spec
        self._points = sorted({v: spec.resolve(v) for v in values}.items(),
                              key=lambda vp: vp[1][0])
        self._xs = [p[0] for _, p in self._points]
        self._values = [v for v, _ in self._points]

    def near(self, x: Value | Point, level: float) -> frozenset:
        p = self._spec.resolve(x)
        scale = _SQRT2 * self._spec.side
        reach = (1.0 - level + _REACH_SLACK) * scale
        lo = bisect_left(self._xs, p[0] - reach)
        hi = bisect_right(self._xs, p[0] + reach, lo)
        return frozenset(v for v, q in self._points[lo:hi]
                         if 1.0 - math.dist(p, q) / scale >= level)


class _MatrixCut(_Cut):
    """Matrix labels with their rows; a cut reads the row of its centre."""

    def __init__(self, spec: ExplicitMatrix, values):
        self._spec = spec
        self._values = {v: spec.position(v) for v in values}

    def near(self, x: Value, level: float) -> frozenset:
        row = self._spec.entries[self._spec.position(x)]
        return frozenset(v for v, j in self._values.items() if row[j] >= level)


class _CrispCut(_Cut):
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
        return frozenset((y,))


def build_ordinal_matrix(labels) -> ExplicitMatrix:
    """Degree table for a linearly ordered label domain, ordered by ``labels``.

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
    return ExplicitMatrix(labs, entries, labs)


class PropertyReport(_Record):
    """Whether a matrix is max-min transitive, and its first violation if not."""

    __slots__ = _fields = ("max_min_transitive", "first_violation")

    def __init__(self, max_min_transitive: bool,
                 first_violation: tuple[str, str, str] | None = None):
        self._set(max_min_transitive, first_violation)


def relation_properties(m: ExplicitMatrix) -> PropertyReport:
    """Whether ``m`` is max-min transitive, as ``m`` keeps it, else the first
    (x, y, z) in label order with degree(x, z) < min(degree(x, y), degree(y, z))."""
    violation = m._first_violation()
    return PropertyReport(violation is None, violation)


def degree_of(spec: ProximitySpec, x: Value, y: Value) -> float:
    """Degree of two values under any proximity specification."""
    return spec.degree(x, y)

