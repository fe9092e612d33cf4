"""Equivalence classes from the transitive closure of an alpha cut.

Two values are alpha-similar when their degree is >= alpha, and
alpha-proximate when a chain of alpha-similar values links them.  The
alpha-proximate classes are the connected components of the alpha-cut
graph over the values currently present, so they depend on the database
content, not only on the domain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .partition import Grouping, _unit_interval, value_sort_key
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

    Each component is walked from its smallest member through alpha-cut
    neighbourhoods, ``spec.compile(values).near(v, alpha)``, so the work
    follows the cut's edges, found by bisection, strip or matrix row,
    instead of a degree for every pair.  This equals the
    reflexive-symmetric-transitive closure of alpha-similarity restricted
    to the value set.  Classes are ordered by their smallest member.
    Every value must be one ``spec.degree`` can interpret; compiling
    checks each and raises what ``degree`` raises.
    """
    a = _unit_interval(alpha)
    nodes = set(values)
    cut = spec.compile(nodes)
    seen: set = set()
    components = []
    for v in sorted(nodes, key=value_sort_key):
        if v in seen:
            continue
        seen.add(v)
        component, frontier = {v}, [v]
        while frontier:
            found = cut.near(frontier.pop(), a) - seen
            seen |= found
            component |= found
            frontier.extend(found)
        components.append(component)
    return Grouping.in_order(components)  # each found from its smallest member
