"""CSV loading and table rendering for relations, matrices and locations.

Relation files carry one header row naming the attributes; set-valued
cells separate their members with ``|``.  Matrix files are square, with
matching labels in the first row and first column.  Location files have
the columns ``label,x,y``.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Sequence

from .algebra import AttributeSpec, FuzzyRelation, FuzzyTuple
from .errors import DomainError, FormatError, ValidationError
from .partition import Grouping, value_sort_key
from .proximity import ExplicitMatrix, Point, Value

SET_SEPARATOR = "|"
MATRIX_DECIMALS = 3  # places of each degree that format_matrix prints


def _read_rows(path: Path) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return [row for row in csv.reader(fh)]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def load_matrix(path) -> ExplicitMatrix:
    """Read an unordered degree table; header labels must match the row labels
    in order.  An invalid table raises ValidationError naming the file."""
    path = Path(path)
    rows = [r for r in _read_rows(path) if r]
    if len(rows) < 2:
        raise FormatError(f"{path}: matrix file needs a header and body")
    labels = tuple(cell.strip() for cell in rows[0][1:])
    if len(rows) - 1 != len(labels):
        raise FormatError(
            f"{path}: {len(labels)} header labels but {len(rows) - 1} body rows"
        )
    entries = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(labels) + 1:
            raise FormatError(f"{path}:{lineno}: expected {len(labels) + 1} cells")
        row_label = row[0].strip()
        if row_label != labels[lineno - 2]:
            raise FormatError(
                f"{path}:{lineno}: row label {row_label!r} does not match "
                f"header label {labels[lineno - 2]!r}"
            )
        try:
            entries.append(tuple(float(cell) for cell in row[1:]))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    try:
        return ExplicitMatrix(labels, entries)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_locations(path) -> dict[str, Point]:
    """Read a ``label,x,y`` file into a label-to-point mapping."""
    path = Path(path)
    rows = [r for r in _read_rows(path) if r]
    if not rows:
        raise FormatError(f"{path}: empty locations file")
    header = [c.strip().lower() for c in rows[0]]
    if header != ["label", "x", "y"]:
        raise FormatError(f"{path}: header must be label,x,y, got {rows[0]}")
    locations: dict[str, Point] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 cells")
        label = row[0].strip()
        try:
            x, y = float(row[1]), float(row[2])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        if label in locations:
            raise FormatError(f"{path}:{lineno}: duplicate label {label!r}")
        locations[label] = (x, y)
    return locations


def _parse_cell(cell: str, attr: AttributeSpec, where: str) -> frozenset:
    parts = [p.strip() for p in cell.split(SET_SEPARATOR)]
    if any(not p for p in parts):
        raise FormatError(f"{where}: empty value in column {attr.name!r}")
    parse = attr.proximity.parse
    try:
        return frozenset(map(parse, parts))
    except (FormatError, DomainError) as exc:
        raise type(exc)(f"{where}: {exc} in column {attr.name!r}") from None


def load_relation(path, schema: Sequence[AttributeSpec]) -> FuzzyRelation:
    """Read a relation file, validating every value against its domain."""
    path = Path(path)
    schema = tuple(schema)
    rows = _read_rows(path)
    rows = [r for r in rows if any(cell.strip() for cell in r)]
    if not rows:
        raise FormatError(f"{path}: missing header row")
    header = tuple(c.strip() for c in rows[0])
    expected = tuple(a.name for a in schema)
    if header != expected:
        raise FormatError(
            f"{path}: header {header} does not match schema {expected}"
        )
    names = expected
    tuples = []
    # Cells of one column with the same text share one parsed set: parsing
    # is deterministic, and a set per cell would cost memory per row.
    parsed: list[dict[str, frozenset]] = [{} for _ in schema]
    make = FuzzyTuple._trusted  # row lengths are checked; cells parse to non-empty sets
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(schema):
            raise FormatError(f"{path}:{lineno}: expected {len(schema)} cells")
        comps = []
        for cell, attr, seen in zip(row, schema, parsed):
            comp = seen.get(cell)
            if comp is None:
                comp = seen[cell] = _parse_cell(cell, attr, f"{path}:{lineno}")
            comps.append(comp)
        tuples.append(make(names, tuple(comps)))
    return FuzzyRelation(schema, tuple(tuples))


def _sorted_values(component) -> list[Value]:
    return sorted(component, key=value_sort_key)


def _cell_text(component) -> str:
    rendered = [str(v) for v in _sorted_values(component)]
    if len(rendered) == 1:
        return rendered[0]
    return "{" + ", ".join(rendered) + "}"


def format_table(r: FuzzyRelation) -> str:
    """Aligned text table with set-valued cells in braces."""
    header = list(r.names)
    body = [[_cell_text(c) for c in t.components] for t in r.tuples]
    widths = [len(h) for h in header]
    for row in body:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def relation_to_csv(r: FuzzyRelation) -> str:
    """Machine-readable form; loading it back reproduces an equal relation."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(r.names)
    for t in r.tuples:
        writer.writerow(
            [SET_SEPARATOR.join(map(str, _sorted_values(c)))
             for c in t.components]
        )
    return out.getvalue()


def format_grouping(g: Grouping) -> str:
    """One class per line, in the grouping's class order."""
    lines = []
    for i, cls in enumerate(g.classes, start=1):
        members = ", ".join(map(str, _sorted_values(cls)))
        lines.append(f"{i}: {{{members}}}")
    return "\n".join(lines)


def groupings_to_csv(runs: Sequence[tuple[tuple, Grouping]], keys: Sequence[str] = ()) -> str:
    """A row per class of each ``(key values, grouping)`` run: keys, number, members."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([*keys, "class", "members"])
    for key, g in runs:
        for i, cls in enumerate(g.classes, start=1):
            writer.writerow([*key, i, SET_SEPARATOR.join(map(str, _sorted_values(cls)))])
    return out.getvalue()


def format_matrix(labels: Sequence[str], degree) -> str:
    """Render a degree table; values are printed rounded, never stored so."""
    labels = list(labels)
    cells = [[f"{degree(x, y):.{MATRIX_DECIMALS}f}" for y in labels] for x in labels]
    widths = [max(len(labels[j]), MATRIX_DECIMALS + 2) for j in range(len(labels))]
    head_width = max((len(x) for x in labels), default=1)
    lines = [
        " ".join([" " * head_width] + [labels[j].rjust(widths[j])
                                       for j in range(len(labels))]).rstrip()
    ]
    for i, x in enumerate(labels):
        lines.append(
            " ".join([x.ljust(head_width)] + [cells[i][j].rjust(widths[j])
                                              for j in range(len(labels))]).rstrip()
        )
    return "\n".join(lines)
