"""CSV loading and table rendering for relations, matrices and locations.

Relation files carry one header row naming the attributes; set-valued
cells separate their members with ``|``.  Matrix files are square, with
matching labels in the first row and first column.  Location files have
the columns ``label,x,y``.
"""

from __future__ import annotations

import csv
import io
from contextlib import closing
from operator import getitem
from pathlib import Path
from typing import Iterator, Sequence

from .algebra import AttributeSpec, FuzzyRelation, FuzzyTuple, _schema_names, _StoredColumn
from .errors import DomainError, FormatError, ValidationError
from .partition import Grouping, value_sort_key
from .proximity import ExplicitMatrix, Point, Value

SET_SEPARATOR = "|"
MATRIX_DECIMALS = 3  # places of each degree that format_matrix prints


def _records(path: Path) -> Iterator[tuple[int, list[str]]]:
    """Each CSV record of ``path`` with the file line it starts on, read as
    the caller asks for it: a record with a quoted line break ends on a
    later line, which the reader's ``line_num`` counts."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            line = 1
            for cells in reader:
                yield line, cells
                line = reader.line_num + 1
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def load_matrix(path) -> ExplicitMatrix:
    """Read an unordered degree table; header labels must match the row labels
    in order.  An invalid table raises ValidationError naming the file."""
    path = Path(path)
    rows = [(line, r) for line, r in _records(path) if r]
    if len(rows) < 2:
        raise FormatError(f"{path}: matrix file needs a header and body")
    labels = tuple(cell.strip() for cell in rows[0][1][1:])
    if len(rows) - 1 != len(labels):
        raise FormatError(
            f"{path}: {len(labels)} header labels but {len(rows) - 1} body rows"
        )
    entries = []
    for label, (line, row) in zip(labels, rows[1:]):
        if len(row) != len(labels) + 1:
            raise FormatError(f"{path}:{line}: expected {len(labels) + 1} cells")
        row_label = row[0].strip()
        if row_label != label:
            raise FormatError(
                f"{path}:{line}: row label {row_label!r} does not match "
                f"header label {label!r}"
            )
        try:
            entries.append(tuple(float(cell) for cell in row[1:]))
        except ValueError as exc:
            raise FormatError(f"{path}:{line}: {exc}") from None
    try:
        return ExplicitMatrix(labels, entries)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_locations(path) -> dict[str, Point]:
    """Read a ``label,x,y`` file into a label-to-point mapping."""
    path = Path(path)
    rows = [(line, r) for line, r in _records(path) if r]
    if not rows:
        raise FormatError(f"{path}: empty locations file")
    header = [c.strip().lower() for c in rows[0][1]]
    if header != ["label", "x", "y"]:
        raise FormatError(f"{path}: header must be label,x,y, got {rows[0][1]}")
    locations: dict[str, Point] = {}
    for line, row in rows[1:]:
        if len(row) != 3:
            raise FormatError(f"{path}:{line}: expected 3 cells")
        label = row[0].strip()
        try:
            x, y = float(row[1]), float(row[2])
        except ValueError as exc:
            raise FormatError(f"{path}:{line}: {exc}") from None
        if label in locations:
            raise FormatError(f"{path}:{line}: duplicate label {label!r}")
        locations[label] = (x, y)
    return locations


class _CellSets(dict):
    """One column's value set per cell text, parsed on the first lookup of
    that text; a text that does not parse raises and is not kept.  Parsing
    is deterministic, so the cells of one text share one set instead of
    costing a set each."""

    __slots__ = ("attr",)

    def __init__(self, attr: AttributeSpec):
        self.attr = attr

    def __missing__(self, cell: str) -> frozenset:
        name = self.attr.name
        parts = list(map(str.strip, cell.split(SET_SEPARATOR)))
        if "" in parts:
            raise FormatError(f"empty value in column {name!r}")
        try:
            values = self[cell] = frozenset(map(self.attr.proximity.parse, parts))
        except (FormatError, DomainError) as exc:
            raise type(exc)(f"{exc} in column {name!r}") from None
        return values


def _blank(cells: list[str]) -> bool:
    return not any(cell.strip() for cell in cells)


def load_relation(path, schema: Sequence[AttributeSpec]) -> FuzzyRelation:
    """Read a relation file, validating every value against its domain.

    Rows whose cells are all blank are skipped, and a row equal to an
    earlier one, component by component, is dropped.  Each distinct cell
    text of a column is parsed once, and its cells share the one set.  An
    error names ``path:line`` of the line on which the faulty row starts.
    The file is read once, front to back, and the first fault met wins:
    one in a cell comes before a decode error further down the file.  A
    schema that repeats a name is refused only after every cell parses.
    """
    path = Path(path)
    schema = tuple(schema)
    names = tuple(a.name for a in schema)
    width = len(schema)
    columns = [_CellSets(attr) for attr in schema]
    rows: dict[tuple[frozenset, ...], None] = {}
    with closing(_records(path)) as records:
        header = next((cells for _, cells in records if not _blank(cells)), None)
        if header is None:
            raise FormatError(f"{path}: missing header row")
        header = tuple(c.strip() for c in header)
        if header != names:
            raise FormatError(f"{path}: header {header} does not match schema {names}")
        for line, cells in records:
            if len(cells) != width:
                if _blank(cells):
                    continue
                raise FormatError(f"{path}:{line}: expected {width} cells")
            try:
                row = tuple(map(getitem, columns, cells))
            except (FormatError, DomainError) as exc:
                # a full row of blank cells fails on its first: an empty member
                if _blank(cells):
                    continue
                raise type(exc)(f"{path}:{line}: {exc}") from None
            rows[row] = None  # an equal later row leaves the first one's key
    _schema_names(schema)
    make = FuzzyTuple._trusted  # row lengths are checked; cells parse to non-empty sets
    # each column its own source (see FuzzyRelation)
    return FuzzyRelation._derived(schema, tuple(make(names, row) for row in rows), tuple(
        _StoredColumn(a.proximity, tuple(sets.values())) for a, sets in zip(schema, columns)))


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
