"""Database directories: a schema config plus relation and domain files.

A database lives in one directory with a ``schema.cfg`` in INI form:

    [attribute STATUS]
    kind = numeric          ; ordinal | numeric | planar | crisp
    length = 100
    method = interval       ; default class-formation method
    alpha = 0.6             ; optional fixed merge level

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
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .algebra import AttributeSpec, FuzzyRelation, LevelMap
from .closure import temporal_domain
from .errors import FormatError, UnknownAttributeError, UnknownRelationError
from .proximity import CrispIdentity, ExplicitMatrix, Linear, Planar, build_ordinal_matrix
from .tables import load_locations, load_matrix, load_relation

_KINDS = ("ordinal", "numeric", "planar", "crisp")
_DEFAULT_METHOD = {
    "ordinal": "interval",
    "numeric": "interval",
    "planar": "grid",
    "crisp": "threshold",
}


@dataclass(frozen=True)
class AttributeConfig:
    """One configured attribute: its spec plus an optional fixed level."""

    spec: AttributeSpec
    alpha: float | None = None

    __hash__ = None


@dataclass(frozen=True)
class Database:
    """Named relations plus the attribute configuration they share."""

    path: Path
    relations: Mapping[str, FuzzyRelation]
    attributes: Mapping[str, AttributeConfig]

    __hash__ = None

    def relation(self, name: str) -> FuzzyRelation:
        try:
            return self.relations[name]
        except KeyError:
            raise UnknownRelationError(
                f"no relation named {name!r} (have {sorted(self.relations)})"
            ) from None

    def attribute(self, name: str) -> AttributeConfig:
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
        levels = {}
        for name, cfg in self.attributes.items():
            if cfg.alpha is not None:
                levels[name] = cfg.alpha
            elif alpha is not None:
                levels[name] = alpha
        return LevelMap(levels)


def _split_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _number(section: Mapping[str, str], key: str, where: str) -> float:
    try:
        return float(section[key])
    except ValueError:
        raise FormatError(
            f"{where}: {key} = {section[key]!r} is not a number") from None


def _parse_attribute(name: str, section: Mapping[str, str], base: Path) -> AttributeConfig:
    where = f"{base / 'schema.cfg'}: attribute {name!r}"
    kind = section.get("kind", "").strip().lower()
    if kind not in _KINDS:
        raise FormatError(f"{where}: kind must be one of {_KINDS}, got {kind!r}")
    order = None
    if kind == "crisp":
        proximity = CrispIdentity()
    elif kind == "numeric":
        if "length" not in section:
            raise FormatError(f"{where}: numeric kind needs length")
        proximity = Linear(_number(section, "length", where))
    elif kind == "planar":
        for key in ("length", "locations"):
            if key not in section:
                raise FormatError(f"{where}: planar kind needs {key}")
        locations = load_locations(base / section["locations"])
        proximity = Planar(_number(section, "length", where), locations)
    else:
        if "labels" not in section:
            raise FormatError(f"{where}: ordinal kind needs labels")
        labels = _split_list(section["labels"])
        order = tuple(labels)
        if "matrix" in section:
            proximity = ExplicitMatrix(load_matrix(base / section["matrix"]))
        else:
            proximity = ExplicitMatrix(build_ordinal_matrix(labels))
    method = section.get("method", _DEFAULT_METHOD[kind]).strip()
    alpha = _number(section, "alpha", where) if "alpha" in section else None
    spec = AttributeSpec(name, proximity, method, order)
    return AttributeConfig(spec, alpha)


def load_database(path) -> Database:
    """Load the schema config and every relation file it names."""
    base = Path(path)
    cfg_path = base / "schema.cfg"
    if not cfg_path.is_file():
        raise FormatError(f"no schema.cfg in {base}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read(cfg_path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise FormatError(f"{cfg_path}: {exc}") from None

    attributes: dict[str, AttributeConfig] = {}
    pending_relations: list[tuple[str, str, list[str]]] = []
    for section in parser.sections():
        if section.startswith("attribute "):
            name = section[len("attribute "):].strip()
            attributes[name] = _parse_attribute(name, parser[section], base)
        elif section.startswith("relation "):
            name = section[len("relation "):].strip()
            body = parser[section]
            if "file" not in body or "attributes" not in body:
                raise FormatError(
                    f"relation {name!r}: needs file and attributes keys"
                )
            pending_relations.append((name, body["file"], _split_list(body["attributes"])))
        else:
            raise FormatError(f"{cfg_path}: unknown section {section!r}")

    relations: dict[str, FuzzyRelation] = {}
    for name, filename, attr_names in pending_relations:
        schema = []
        for attr in attr_names:
            if attr not in attributes:
                raise FormatError(
                    f"relation {name!r} references unconfigured attribute {attr!r}"
                )
            schema.append(attributes[attr].spec)
        relations[name] = load_relation(base / filename, schema)
    return Database(base, relations, attributes)
