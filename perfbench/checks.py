"""Order-free digests of program outputs, and the stored expectations.

Query results are compared as a set of tuples, each a tuple of value
sets.  CLI csv outputs are compared as a set of rows with set-valued
cells; for ``classes`` and ``compare`` the class ordinal column is
dropped, so the outputs compare as sets of classes.  CLI text outputs
are compared as a set of lines with any leading class ordinal removed.
``check-matrix`` output is compared byte for byte.  Nothing depends on
row order or class numbering.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

_ORDINAL_RE = re.compile(r"^(\s*)\d+: ")


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def _value_key(v) -> str:
    return f"{type(v).__name__}:{v!r}"


def relation_digest(r) -> str:
    """Digest of a FuzzyRelation as its attribute names and set of tuples."""
    rows = sorted(
        [sorted(_value_key(v) for v in comp) for comp in t.components] for t in r.tuples
    )
    return _digest([list(r.names), rows])


def _cells(row: list[str]) -> list[list[str]]:
    return [sorted(cell.split("|")) for cell in row]


def cli_digest(argv, stdout: str) -> str:
    """Digest of the output of ``fuzzyrel *argv``, insensitive to row order
    and class numbering."""
    command = argv[0]
    if command == "check-matrix":
        return _digest(stdout)
    if "--emit" not in argv or argv[argv.index("--emit") + 1] == "text":
        return _digest(sorted({_ORDINAL_RE.sub(r"\1", line) for line in stdout.splitlines()}))
    rows = list(csv.reader(io.StringIO(stdout)))
    header, body = rows[0], rows[1:]
    if command in ("classes", "compare"):
        drop = header.index("class")
        body = [row[:drop] + row[drop + 1:] for row in body]
    return _digest([header, sorted(_cells(row) for row in body)])


def database_digest(files: dict[str, str]) -> str:
    """Digest of the generated database files, to detect generator drift."""
    return _digest(sorted(files.items()))


def query_key(method: str | None, text: str) -> str:
    return f"{method or 'default'}\t{text}"


def cli_key(argv) -> str:
    return "\t".join(argv)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
