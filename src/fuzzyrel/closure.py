"""Equivalence classes from the transitive closure of an alpha cut.

Two values are alpha-similar when their degree is >= alpha, and
alpha-proximate when a chain of alpha-similar values links them.  The
alpha-proximate classes are the connected components of the alpha-cut
graph over the values currently present, so they depend on the database
content, not only on the domain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .partition import Grouping, _unit_interval
from .proximity import ProximitySpec

if TYPE_CHECKING:  # pragma: no cover
    from .algebra import FuzzyRelation


def temporal_domain(relation: "FuzzyRelation", attr: str) -> frozenset:
    """Values currently present in one column: the union of its component sets."""
    return _column((t.components for t in relation.tuples), relation.attribute_index(attr))


def _column(rows, idx: int) -> frozenset:
    return frozenset().union(*(row[idx] for row in rows))


def closure_classes(values, spec: ProximitySpec, alpha) -> Grouping:
    """Connected components of the alpha-cut graph over ``values``.

    The compiled cut answers them, ``spec.compile(values).classes(alpha)``:
    on a line the runs of sorted values whose gaps reach alpha, else a walk
    through ``near`` sets, so no degree is taken for every pair.  This is
    the reflexive-symmetric-transitive closure of alpha-similarity on the
    value set.  Classes are ordered by their smallest member under
    ``value_sort_key``, text after numbers.  Every value must be one
    ``spec.degree`` can interpret; compiling checks each and raises what
    ``degree`` raises.
    """
    a = _unit_interval(alpha)
    return Grouping.from_classes(spec.compile(set(values)).classes(a))
