"""Golden snapshots of whole CLI runs on the bundled databases.

Each case runs ``fuzzyrel.cli.main`` from the repository root and compares
its exit code, standard output and standard error, byte for byte, with
``tests/golden/<case>.txt``.  To record the snapshots again after an
intended change of output, run ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from fuzzyrel.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# The cli benchmark workload: every command runs with --emit text and with
# --emit csv, and check-matrix runs on each bundled matrix.
WORKLOAD = {
    "classes-status-interval": (
        "classes", "--db", "data/suppliers", "--attr", "STATUS", "--alpha", "0.8",
        "--method", "interval"),
    "classes-hair-interval": (
        "classes", "--db", "data/arson", "--attr", "HAIR COLOR", "--alpha", "0.6",
        "--method", "interval"),
    "classes-city-closure": (
        "classes", "--db", "data/gb", "--attr", "CITY", "--alpha", "0.8",
        "--method", "closure"),
    "classes-effect-closure": (
        "classes", "--db", "data/survey", "--attr", "Effect", "--alpha", "0.8",
        "--method", "closure"),
    "compare-city": ("compare", "--db", "data/gb", "--attr", "CITY"),
    "compare-status": (
        "compare", "--db", "data/suppliers", "--attr", "STATUS", "--alpha", "0.6",
        "--alpha", "0.8"),
    "query-suppliers-project": (
        "query", "--db", "data/suppliers",
        'project (select (SUPPLIERS) where CITY = "Rohan" with level(CITY) = 0.7) '
        "over STATUS, CITY with level(STATUS) = 0.8, level(CITY) = 0.8"),
    "query-suppliers-join": (
        "query", "--db", "data/suppliers",
        "join (project (SUPPLIERS) over STATUS, CITY with level(STATUS) = 0.8, "
        'level(CITY) = 0.8, project (select (SUPPLIERS) where CITY = "Rohan" with '
        "level(CITY) = 0.7) over STATUS, SNAME with level(SNAME) = 0) on STATUS "
        "with level(STATUS) = 0.9, level(CITY) = 0.8, level(SNAME) = 0"),
    "query-survey-project": (
        "query", "--db", "data/survey",
        "project (select (SURVEY) where Type = Expert) over Pollutant, Effect "
        "with level(Effect) = 0.8"),
    "query-arson-closure": (
        "query", "--db", "data/arson",
        'project ("PHYSICAL CHARACTERISTICS") over "HAIR COLOR", BUILD with '
        'level("HAIR COLOR") = 0.7, level(BUILD) = 0.6', "--method", "closure"),
    "merge-suppliers": ("merge", "--db", "data/suppliers", "--alpha", "0.8"),
    "merge-survey": ("merge", "--db", "data/survey", "--alpha", "0.8"),
    "merge-arson-threshold": (
        "merge", "--db", "data/arson", "--alpha", "0.7", "--method", "threshold"),
    "merge-gb": ("merge", "--db", "data/gb", "--alpha", "0.9"),
}
CASES = {
    f"{name}-{emit}": argv + ("--emit", emit)
    for name, argv in WORKLOAD.items() for emit in ("text", "csv")
}
CASES.update({
    "check-matrix-hair": ("check-matrix", "data/arson/hair_matrix.csv"),
    "check-matrix-build": ("check-matrix", "data/arson/build_matrix.csv"),
    "check-matrix-effect": ("check-matrix", "data/survey/effect_matrix.csv"),
})


def _classes(db, attr, alpha, method):
    return ("classes", "--db", f"data/{db}", "--attr", attr, "--alpha", alpha,
            "--method", method)


def _query(db, text):
    return ("query", "--db", f"data/{db}", text)


# Where the class-formation choices of the classes/compare commands and of
# merge/query meet: crisp, linear, ordinal and planar attributes under each
# method, and select constants that no domain accepts.
CASES.update({
    "classes-sname-closure": _classes("suppliers", "SNAME", "0.8", "closure"),
    "classes-sname-interval": _classes("suppliers", "SNAME", "0.8", "interval"),
    "classes-status-grid": _classes("suppliers", "STATUS", "0.8", "grid"),
    "classes-status-equalized": _classes("suppliers", "STATUS", "0.8", "equalized"),
    "classes-status-alpha1": _classes("suppliers", "STATUS", "1", "interval"),
    "classes-effect-grid": _classes("survey", "Effect", "0.8", "grid"),
    "classes-effect-equalized": _classes("survey", "Effect", "0.8", "equalized"),
    "classes-city-equalized": _classes("gb", "CITY", "0.8", "equalized"),
    "classes-city-interval-095": _classes("gb", "CITY", "0.95", "interval"),
    "classes-city-grid-alpha1": _classes("gb", "CITY", "1", "grid"),
    "compare-sname": ("compare", "--db", "data/suppliers", "--attr", "SNAME"),
    "compare-effect": ("compare", "--db", "data/survey", "--attr", "Effect"),
    "compare-build-csv": (
        "compare", "--db", "data/arson", "--attr", "BUILD", "--emit", "csv"),
    "select-linear-not-a-number": _query(
        "suppliers", "select (SUPPLIERS) where STATUS = abc"),
    "select-linear-numeric-text": _query(
        "suppliers",
        'select (SUPPLIERS) where STATUS = "20" with level(STATUS) = 0.9'),
    "select-linear-out-of-range": _query(
        "suppliers", "select (SUPPLIERS) where STATUS = 500"),
    "select-planar-unknown": _query(
        "suppliers", "select (SUPPLIERS) where CITY = Nowhere"),
    "select-matrix-unknown": _query("survey", "select (SURVEY) where Effect = Awful"),
    "select-crisp-unknown": _query("survey", "select (SURVEY) where Type = Nobody"),
})
for _method in ("threshold", "interval", "equalized", "grid", "closure"):
    for _db in ("suppliers", "survey"):
        CASES[f"merge-{_db}-{_method}"] = (
            "merge", "--db", f"data/{_db}", "--alpha", "0.8", "--method", _method)


def render(argv) -> str:
    """Exit code, standard output and standard error of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_snapshot(case):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert render(CASES[case]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.txt").write_text(render(argv), encoding="utf-8")
    print(f"recorded {len(CASES)} snapshots in {GOLDEN}", file=sys.stderr)
