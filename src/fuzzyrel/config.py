"""Database directories: a schema config plus relation and domain files.

A database lives in one directory with a ``schema.cfg`` in INI form:

    [attribute STATUS]
    kind = numeric          ; ordinal | numeric | planar | crisp
    length = 100
    method = interval       ; default class-formation method
    alpha = 0.6             ; optional fixed merge level in [0, 1]

    [attribute CITY]
    kind = planar
    length = 100
    locations = city_locations.csv
    method = grid

    [relation SUPPLIERS]
    file = suppliers.csv
    attributes = SNAME, STATUS, CITY

Ordinal attributes list ``labels`` in domain order and may name a
``matrix`` file; without one the degree table is built from the ranks.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path
from typing import Mapping

from .algebra import AttributeSpec, FuzzyRelation, LevelMap
from .closure import temporal_domain
from .errors import (DomainError, FormatError, UnknownAttributeError, UnknownRelationError,
                     ValidationError)
from .proximity import (CrispIdentity, ExplicitMatrix, Linear, Planar, _Record,
                        build_ordinal_matrix)
from .tables import load_locations, load_matrix, load_relation

# kind -> (default method, keys its section must set)
_KINDS = {
    "ordinal": ("interval", ("labels",)),
    "numeric": ("interval", ("length",)),
    "planar": ("grid", ("length", "locations")),
    "crisp": ("threshold", ()),
}


class Database(_Record):
    """Named relations plus the attributes they share.

    ``attributes`` maps each configured name to its AttributeSpec, and
    ``alphas`` maps the names configured with an ``alpha`` to that fixed
    merge level.
    """

    __slots__ = _fields = ("path", "relations", "attributes", "alphas")

    def __init__(self, path: Path, relations: Mapping[str, FuzzyRelation],
                 attributes: Mapping[str, AttributeSpec], alphas: Mapping[str, float]):
        self._set(path, relations, attributes, alphas)

    __hash__ = None

    def relation(self, name: str) -> FuzzyRelation:
        try:
            return self.relations[name]
        except KeyError:
            raise UnknownRelationError(
                f"no relation named {name!r} (have {sorted(self.relations)})"
            ) from None

    def attribute(self, name: str) -> AttributeSpec:
        try:
            return self.attributes[name]
        except KeyError:
            raise UnknownAttributeError(
                f"no attribute named {name!r} (have {sorted(self.attributes)})"
            ) from None

    def temporal_domain(self, attr: str) -> frozenset:
        """Values present for an attribute across all relations carrying it."""
        self.attribute(attr)
        values: set = set()
        for rel in self.relations.values():
            if attr in rel.names:
                values |= temporal_domain(rel, attr)
        return frozenset(values)

    def levels(self, alpha: float | None = None) -> LevelMap:
        """Merge levels: configured alphas win, ``alpha`` fills the rest."""
        fill = dict.fromkeys(self.attributes, alpha) if alpha is not None else {}
        return LevelMap({**fill, **self.alphas})


def _split_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _number(section: Mapping[str, str], key: str, where: str) -> float:
    try:
        value = float(section[key])
    except ValueError:
        raise FormatError(
            f"{where}: {key} = {section[key]!r} is not a number") from None
    if not math.isfinite(value):
        raise FormatError(
            f"{where}: {key} = {section[key]!r} is not a finite number")
    return value


def _length(section: Mapping[str, str], where: str) -> float:
    length = _number(section, "length", where)
    if length <= 0:
        raise FormatError(f"{where}: length = {section['length']!r} is not positive")
    return length


def _parse_attribute(name: str, section: Mapping[str, str],
                     base: Path) -> tuple[AttributeSpec, float | None]:
    """The attribute's spec and its fixed merge level, None when not configured."""
    where = f"{base / 'schema.cfg'}: attribute {name!r}"
    kind = section.get("kind", "").strip().lower()
    if kind not in _KINDS:
        raise FormatError(f"{where}: kind must be one of {tuple(_KINDS)}, got {kind!r}")
    default_method, needs = _KINDS[kind]
    for key in needs:
        if key not in section:
            raise FormatError(f"{where}: {kind} kind needs {key}")
    try:
        if kind == "crisp":
            proximity = CrispIdentity()
        elif kind == "numeric":
            proximity = Linear(_length(section, where))
        elif kind == "planar":
            locations = load_locations(base / section["locations"])
            proximity = Planar(_length(section, where), locations)
        else:
            labels = _split_list(section["labels"])
            if "matrix" in section:
                table = load_matrix(base / section["matrix"])
                proximity = ExplicitMatrix(table.labels, table.entries, labels)
            else:
                proximity = build_ordinal_matrix(labels)
        method = section.get("method", default_method).strip()
        alpha = _number(section, "alpha", where) if "alpha" in section else None
        if alpha is not None and not 0.0 <= alpha <= 1.0:
            raise FormatError(f"{where}: alpha = {section['alpha']!r} is not in [0, 1]")
        spec = AttributeSpec(name, proximity, method)
    except (DomainError, ValidationError) as exc:
        raise ValidationError(f"{where}: {exc}") from None
    return spec, alpha


def load_database(path) -> Database:
    """Load the schema config, which must define a relation, and its files."""
    base = Path(path)
    cfg_path = base / "schema.cfg"
    if not cfg_path.is_file():
        raise FormatError(f"no schema.cfg in {base}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read(cfg_path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise FormatError(f"{cfg_path}: {message}") from None

    attributes: dict[str, AttributeSpec] = {}
    alphas: dict[str, float] = {}
    pending_relations: list[tuple[str, str, list[str]]] = []
    for section in parser.sections():
        if section.startswith("attribute "):
            name = section[len("attribute "):].strip()
            attributes[name], alpha = _parse_attribute(name, parser[section], base)
            if alpha is not None:
                alphas[name] = alpha
        elif section.startswith("relation "):
            name = section[len("relation "):].strip()
            body = parser[section]
            if "file" not in body or "attributes" not in body:
                raise FormatError(
                    f"{cfg_path}: relation {name!r}: needs file and attributes keys")
            pending_relations.append((name, body["file"], _split_list(body["attributes"])))
        else:
            raise FormatError(f"{cfg_path}: unknown section {section!r}")
    if not pending_relations:
        raise ValidationError(f"{cfg_path}: defines no relation")

    relations: dict[str, FuzzyRelation] = {}
    for name, filename, attr_names in pending_relations:
        schema = []
        for attr in attr_names:
            if attr not in attributes:
                raise FormatError(f"{cfg_path}: relation {name!r} references "
                                  f"unconfigured attribute {attr!r}")
            schema.append(attributes[attr])
        relations[name] = load_relation(base / filename, schema)
    return Database(base, relations, attributes, alphas)
