"""Command-line surface: classes, compare, query, check-matrix, merge.

Exit codes: 0 on success, 2 for parse or validation problems, 3 for data
errors (unknown names, out-of-range values).  Output cut short because
its reader went away (``fuzzyrel compare ... | head``) still exits 0,
with nothing on standard error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import query as querylang
from .algebra import class_grouping, class_method, merge_relation
from .config import Database, load_database
from .errors import (
    FormatError,
    FuzzyRelError,
    UnknownRelationError,
    ValidationError,
)
from .proximity import relation_properties
from .query import ParseError
from .tables import (
    format_grouping,
    format_matrix,
    format_table,
    format_value,
    grouping_to_csv,
    load_matrix,
    relation_to_csv,
)

CLASS_METHODS = ("interval", "equalized", "grid", "closure")
ALL_METHODS = CLASS_METHODS + ("threshold",)


def cmd_classes(db: Database, attr: str, alpha: float, method: str,
                emit: str) -> str:
    attribute = db.attribute(attr).spec
    grouping = class_grouping(attribute, method, alpha, db.temporal_domain(attr))
    if emit == "csv":
        return grouping_to_csv(grouping)
    head = f"attribute {attr}  method {method}  alpha {format_value(alpha)}"
    return head + "\n" + format_grouping(grouping)


def cmd_compare(db: Database, attr: str, alphas: list[float], emit: str) -> str:
    attribute = db.attribute(attr).spec
    methods = (class_method(attribute, "interval"), "closure")
    domain = db.temporal_domain(attr)
    runs = [(alpha, method, class_grouping(attribute, method, alpha, domain))
            for alpha in alphas for method in methods]
    if emit == "csv":
        lines = ["alpha,method,class,members"]
        for alpha, method, grouping in runs:
            for i, cls in enumerate(grouping.classes, start=1):
                members = "|".join(format_value(v) for v in sorted(cls, key=str))
                lines.append(f"{format_value(alpha)},{method},{i},{members}")
        return "\n".join(lines) + "\n"
    labels = [str(v) for v in sorted(domain, key=str)]
    lines = [f"attribute {attr}: proximity matrix",
             format_matrix(labels, attribute.proximity.degree, decimals=3)]
    for alpha, method, grouping in runs:
        if method == methods[0]:
            lines += ["", f"alpha {format_value(alpha)}"]
        count = len(grouping.classes)
        lines.append(f"  {method}: {count} {'class' if count == 1 else 'classes'}")
        lines += [f"    {line}" for line in format_grouping(grouping).splitlines()]
    return "\n".join(lines)


def cmd_query(db: Database, text: str, emit: str,
              method: str | None = None) -> str:
    parsed = querylang.parse(text)
    result = querylang.evaluate(parsed, db.relations, method)
    if emit == "csv":
        return relation_to_csv(result)
    body = format_table(result)
    if parsed.giving:
        return f"{parsed.giving}\n{body}"
    return body


def cmd_check_matrix(path: str) -> str:
    matrix = load_matrix(path)
    report = relation_properties(matrix)

    def yesno(flag: bool) -> str:
        return "yes" if flag else "no"

    lines = [
        f"labels: {len(matrix.labels)}",
        f"reflexive: {yesno(report.reflexive)}",
        f"symmetric: {yesno(report.symmetric)}",
        f"max-min transitive: {yesno(report.max_min_transitive)}",
    ]
    if report.first_violation:
        x, y, z = report.first_violation
        lines.append(f"first violation: ({x}, {y}, {z})")
    return "\n".join(lines)


def cmd_merge(db: Database, relation: str | None, alpha: float | None,
              method: str | None, emit: str) -> str:
    if relation is None:
        if len(db.relations) != 1:
            raise UnknownRelationError(
                f"--relation is required; database has {sorted(db.relations)}"
            )
        relation = next(iter(db.relations))
    rel = db.relation(relation)
    merged = merge_relation(rel, db.levels(alpha), method)
    if emit == "csv":
        return relation_to_csv(merged)
    return format_table(merged)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyrel",
        description="Fuzzy relational engine with proximity-based equivalence classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_db(p):
        p.add_argument("--db", required=True, help="database directory")

    def add_emit(p):
        p.add_argument("--emit", choices=("text", "csv"), default="text")

    p = sub.add_parser("classes", help="equivalence classes of one attribute")
    add_db(p)
    p.add_argument("--attr", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=CLASS_METHODS, default="closure")
    add_emit(p)

    p = sub.add_parser("compare", help="cell-based vs closure classes side by side")
    add_db(p)
    p.add_argument("--attr", required=True)
    p.add_argument("--alpha", type=float, action="append",
                   help="repeatable; defaults to 0.4 0.6 0.8")
    add_emit(p)

    p = sub.add_parser("query", help="parse and evaluate a query")
    add_db(p)
    p.add_argument("text", help="query text")
    p.add_argument("--method", choices=ALL_METHODS, default=None,
                   help="force one class-formation method on every merge")
    add_emit(p)

    p = sub.add_parser("check-matrix", help="report the properties of a degree table")
    p.add_argument("path")

    p = sub.add_parser("merge", help="merge the redundant tuples of a relation")
    add_db(p)
    p.add_argument("--relation", default=None)
    p.add_argument("--alpha", type=float, default=None,
                   help="level for attributes without a configured alpha")
    p.add_argument("--method", choices=ALL_METHODS, default=None)
    add_emit(p)
    return parser


def _show_parse_error(text: str, err: ParseError) -> str:
    lines = text.splitlines() or [""]
    line = lines[min(err.line, len(lines)) - 1]
    caret = " " * (err.column - 1) + "^"
    return f"{err}\n{line}\n{caret}"


def _run(args) -> str:
    if args.command == "check-matrix":
        return cmd_check_matrix(args.path)
    db = load_database(args.db)
    if args.command == "classes":
        return cmd_classes(db, args.attr, args.alpha, args.method, args.emit)
    if args.command == "compare":
        return cmd_compare(db, args.attr, args.alpha or [0.4, 0.6, 0.8], args.emit)
    if args.command == "query":
        return cmd_query(db, args.text, args.emit, args.method)
    return cmd_merge(db, args.relation, args.alpha, args.method, args.emit)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        print(_run(args))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: point standard output at the null device so
        # the flush at interpreter exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except ParseError as err:  # only query text is parsed
        print(_show_parse_error(args.text, err), file=sys.stderr)
        return 2
    except (FormatError, ValidationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FuzzyRelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
