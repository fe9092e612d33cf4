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
    idx = relation.attribute_index(attr)
    out: set = set()
    for t in relation.tuples:
        out |= t.components[idx]
    return frozenset(out)


def closure_classes(values, spec: ProximitySpec, alpha) -> Grouping:
    """Connected components of the alpha-cut graph over ``values``.

    Unions every pair of values whose degree is >= alpha, which equals the
    reflexive-symmetric-transitive closure of alpha-similarity restricted
    to the value set.  Classes are ordered by their smallest member.
    Every value must be one ``spec.degree`` can interpret.
    """
    a = _unit_interval(alpha)
    nodes = sorted(set(values), key=value_sort_key)
    parent = {v: v for v in nodes}  # union-find forest

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for i, x in enumerate(nodes):
        for y in nodes[i + 1:]:
            if spec.degree(x, y) >= a:
                parent[find(y)] = find(x)
    components: dict = {}
    for v in nodes:
        components.setdefault(find(v), set()).add(v)
    return Grouping.from_classes(components.values())
