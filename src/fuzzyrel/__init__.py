"""In-memory fuzzy relational database engine.

Relations hold tuples whose components are non-empty value sets;
redundant tuples are merged instead of deduplicated.  Equivalence
classes over attribute domains come three ways: degree-threshold tests
against an explicit proximity relation, the transitive closure of an
alpha cut over the values currently present, and content-independent
interval or grid partitions of a bounded domain.  A small query language
covers select, project and join with per-attribute levels.
"""

from .algebra import (
    AttributeSpec,
    FuzzyRelation,
    FuzzyTuple,
    LevelMap,
    class_grouping,
    interpretations,
    join,
    merge_relation,
    merge_tuples,
    project,
    redundant,
    select,
    thres,
    valid_tuple,
)
from .closure import closure_classes, temporal_domain
from .config import AttributeConfig, Database, load_database
from .errors import (
    DomainError,
    FormatError,
    FuzzyRelError,
    SchemaMismatchError,
    UnknownAttributeError,
    UnknownRelationError,
    UnknownValueError,
    ValidationError,
)
from .partition import (
    Grouping,
    Partition1D,
    Partition2D,
    cell_of,
    class_of,
    classes_over,
    partition_line,
    partition_plane,
)
from .proximity import (
    CrispIdentity,
    ExplicitMatrix,
    Linear,
    Planar,
    PropertyReport,
    ProximityMatrix,
    build_ordinal_matrix,
    degree_of,
    proximity_linear,
    proximity_planar,
    relation_properties,
)
from .query import ParseError, Query, evaluate, parse, render
from .tables import (
    format_grouping,
    format_matrix,
    format_table,
    load_locations,
    load_matrix,
    load_relation,
    relation_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeConfig",
    "AttributeSpec",
    "CrispIdentity",
    "Database",
    "DomainError",
    "ExplicitMatrix",
    "FormatError",
    "FuzzyRelError",
    "FuzzyRelation",
    "FuzzyTuple",
    "Grouping",
    "LevelMap",
    "Linear",
    "ParseError",
    "Partition1D",
    "Partition2D",
    "Planar",
    "PropertyReport",
    "ProximityMatrix",
    "Query",
    "SchemaMismatchError",
    "UnknownAttributeError",
    "UnknownRelationError",
    "UnknownValueError",
    "ValidationError",
    "build_ordinal_matrix",
    "cell_of",
    "class_of",
    "class_grouping",
    "classes_over",
    "closure_classes",
    "degree_of",
    "evaluate",
    "format_grouping",
    "format_matrix",
    "format_table",
    "interpretations",
    "join",
    "load_database",
    "load_locations",
    "load_matrix",
    "load_relation",
    "merge_relation",
    "merge_tuples",
    "parse",
    "partition_line",
    "partition_plane",
    "project",
    "proximity_linear",
    "proximity_planar",
    "redundant",
    "relation_properties",
    "relation_to_csv",
    "render",
    "select",
    "temporal_domain",
    "thres",
    "valid_tuple",
]
