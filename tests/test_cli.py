"""End-to-end runs of the command-line surface."""

import csv
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fuzzyrel.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_process(*argv, **kwargs):
    """``python -m fuzzyrel.cli`` in a child process with this checkout's sources."""
    return subprocess.run(
        [sys.executable, "-m", "fuzzyrel.cli", *map(str, argv)],
        env=child_env(), stderr=subprocess.PIPE, timeout=120, **kwargs,
    )


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    return [row for row in csv.reader(io.StringIO(text)) if row]


@pytest.fixture
def odd_db(tmp_path):
    """Planar labels holding a comma and quotes; numbers whose text order is
    not their value order."""
    (tmp_path / "schema.cfg").write_text(
        "[attribute PLACE]\nkind = planar\nlength = 10\nlocations = places.csv\n\n"
        "[attribute SIZE]\nkind = numeric\nlength = 100\n\n"
        "[relation SITES]\nfile = sites.csv\nattributes = PLACE, SIZE\n")
    (tmp_path / "places.csv").write_text(
        'label,x,y\n"Bath, Somerset",1,1\n"""Quoted"" Place",1.2,1.1\nWells,9,9\n')
    (tmp_path / "sites.csv").write_text(
        'PLACE,SIZE\n"Bath, Somerset",5\n"""Quoted"" Place",9.5\nWells,10\nWells,100\n')
    return tmp_path


def test_import_leaves_out_dataclasses_and_inspect():
    # every command pays for the import; these modules cost start-up time
    # and nothing in fuzzyrel needs them
    heavy = ("dataclasses", "inspect", "ast", "dis", "decimal")
    code = f"import fuzzyrel.cli, sys; print([m for m in {heavy} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[]"


class TestClasses:
    def test_status_interval(self, capsys):
        code, out, _ = run(capsys, "classes", "--db", DATA / "suppliers",
                           "--attr", "STATUS", "--alpha", "0.8",
                           "--method", "interval")
        assert code == 0
        assert "1: {10}" in out
        assert "5: {80, 90}" in out

    def test_hair_interval_classes_in_cell_order(self, capsys):
        # ranks 0..6 at width 2.4: {Black, Dark brown, Auburn} [0, 2.4),
        # {Red} [2.4, 4.8) (Light brown is absent), {Blond, Bleached} [4.8, 6]
        code, out, _ = run(capsys, "classes", "--db", DATA / "arson",
                           "--attr", "HAIR COLOR", "--alpha", "0.6",
                           "--method", "interval")
        assert code == 0
        assert "2: {Red}" in out
        assert "3: {Bleached, Blond}" in out

    def test_gb_closure_single_class(self, capsys):
        code, out, _ = run(capsys, "classes", "--db", DATA / "gb",
                           "--attr", "CITY", "--alpha", "0.8",
                           "--method", "closure")
        assert code == 0
        body = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(body) == 1

    def test_gb_grid_singletons_at_095(self, capsys):
        # interval on a planar attribute falls through to the grid
        code, out, _ = run(capsys, "classes", "--db", DATA / "gb",
                           "--attr", "CITY", "--alpha", "0.95",
                           "--method", "interval")
        assert code == 0
        body = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(body) == 23
        assert all(l.count(",") == 0 for l in body)

    def test_grid_on_a_line_gives_interval_classes(self, capsys):
        # merge and query --method grid use intervals on a line; so does
        # classes, and its header names the method it used
        argv = ("classes", "--db", DATA / "suppliers", "--attr", "STATUS",
                "--alpha", "0.8", "--method")
        code, grid, _ = run(capsys, *argv, "grid")
        assert code == 0
        assert grid.splitlines()[0] == "attribute STATUS  method interval  alpha 0.8"
        assert grid.splitlines()[1:] == [
            "1: {10}", "2: {20, 25, 30, 35}", "3: {40, 45, 50, 55}",
            "4: {60, 65, 75}", "5: {80, 90}",
        ]
        _, interval, _ = run(capsys, *argv, "interval")
        assert grid.splitlines()[1:] == interval.splitlines()[1:]

    def test_csv_emit(self, capsys):
        code, out, _ = run(capsys, "classes", "--db", DATA / "suppliers",
                           "--attr", "STATUS", "--alpha", "0.8",
                           "--method", "interval", "--emit", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "class,members"
        assert lines[1] == "1,10"
        assert lines[2] == "2,20|25|30|35"

    def test_unknown_attribute_is_data_error(self, capsys):
        code, _, err = run(capsys, "classes", "--db", DATA / "suppliers",
                           "--attr", "NOPE", "--alpha", "0.8",
                           "--method", "interval")
        assert code == 3
        assert "NOPE" in err


class TestCompare:
    def test_gb_summary(self, capsys):
        code, out, _ = run(capsys, "compare", "--db", DATA / "gb",
                           "--attr", "CITY", "--alpha", "0.4",
                           "--alpha", "0.6", "--alpha", "0.8")
        assert code == 0
        assert out.count("closure: 1 class\n") == 3
        assert "grid: 4 classes" in out
        assert "grid: 8 classes" in out
        assert "grid: 14 classes" in out
        # matrix is rendered to three decimals
        assert "0.457" in out

    def test_csv_emit(self, capsys):
        code, out, _ = run(capsys, "compare", "--db", DATA / "gb",
                           "--attr", "CITY", "--alpha", "0.95", "--emit", "csv")
        assert code == 0
        assert out.splitlines()[0] == "alpha,method,class,members"
        assert "closure" in out and "grid" in out

    @pytest.mark.parametrize("attr, members", [
        ("PLACE", ['"Quoted" Place|Bath, Somerset', "Wells"]),
        ("SIZE", ["5|9.5|10", "100"]),
    ])
    def test_csv_rows_are_the_classes_csv_rows(self, capsys, odd_db, attr, members):
        code, out, _ = run(capsys, "compare", "--db", odd_db, "--attr", attr,
                           "--alpha", "0.8", "--emit", "csv")
        assert code == 0
        rows = csv_rows(out)
        assert all(len(row) == 4 for row in rows)
        cell_method = "grid" if attr == "PLACE" else "interval"
        assert [row[3] for row in rows if row[1] == cell_method] == members
        for method in (cell_method, "closure"):
            code, classes, _ = run(capsys, "classes", "--db", odd_db, "--attr", attr,
                                   "--alpha", "0.8", "--method", method, "--emit", "csv")
            assert code == 0
            assert [row[3] for row in rows if row[1] == method] == [
                row[1] for row in csv_rows(classes)[1:]]

    def test_matrix_labels_in_value_order(self, capsys, odd_db):
        code, out, _ = run(capsys, "compare", "--db", odd_db, "--attr", "SIZE",
                           "--alpha", "0.8")
        assert code == 0
        assert out.splitlines()[1].split() == ["5", "9.5", "10", "100"]
        assert "    1: {5, 9.5, 10}" in out


class TestQuery:
    def test_survey_join_pipeline(self, capsys):
        text = (
            "join ("
            'project (select (SURVEY) where Type = "Expert") '
            "over Pollutant, Name, Effect "
            "with level(Effect) = 0.85, level(Name) = 0, "
            'project (select (SURVEY) where Type = "Resident") '
            "over Pollutant, Name, Effect "
            "with level(Effect) = 0.85, level(Name) = 0"
            ") on Pollutant, Effect with level(Effect) = 0.85, level(Name) = 0"
        )
        code, out, _ = run(capsys, "query", "--db", DATA / "survey",
                           text, "--emit", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "Pollutant,Name,Effect,Name_2"
        assert len(lines) == 5

    def test_arson_query_single_row(self, capsys):
        text = (
            'project (select ("PHYSICAL CHARACTERISTICS") '
            'where "HAIR COLOR" = "Blond", BUILD = "Large" '
            'with level("HAIR COLOR") = 0.7, level(BUILD) = 0.7) '
            'over NAME, "HAIR COLOR", BUILD '
            'with level(NAME) = 0, level("HAIR COLOR") = 0.7, level(BUILD) = 0.7 '
            'giving "LIKELY ARSONISTS"'
        )
        code, out, _ = run(capsys, "query", "--db", DATA / "arson", text)
        assert code == 0
        assert "LIKELY ARSONISTS" in out
        assert "{Gary, James}" in out

    def test_malformed_query_exits_2_with_caret(self, capsys):
        code, _, err = run(capsys, "query", "--db", DATA / "survey",
                           "project (SURVEY) over")
        assert code == 2
        assert "^" in err
        assert "expected" in err


class TestCheckMatrix:
    def test_similarity_matrix(self, capsys):
        code, out, _ = run(capsys, "check-matrix",
                           DATA / "survey" / "effect_matrix.csv")
        assert code == 0
        assert "max-min transitive: yes" in out

    def test_proximity_only_matrix(self, capsys):
        code, out, _ = run(capsys, "check-matrix",
                           DATA / "arson" / "hair_matrix.csv")
        assert code == 0
        assert "max-min transitive: no" in out
        assert "first violation: (Black, Dark brown, Auburn)" in out

    def test_invalid_matrix_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("s,a,b\na,1.0,0.6\nb,0.5,1.0\n")
        code, _, err = run(capsys, "check-matrix", bad)
        assert code == 2
        assert "asymmetric" in err


class TestMerge:
    def test_suppliers_class_merge(self, capsys):
        code, out, _ = run(capsys, "merge", "--db", DATA / "suppliers",
                           "--alpha", "0.6", "--emit", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9  # header + 8 merged tuples
        assert "Arwen|Barliman|Elrond|Gamgee|Glorfindel|Took" in out

    def test_merge_without_alpha_changes_nothing(self, capsys):
        # levels default to 1 on STATUS and CITY; SNAME is pinned to 0
        code, out, _ = run(capsys, "merge", "--db", DATA / "suppliers",
                           "--emit", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 19


def _replace(name, old, new):
    def edit(db):
        path = db / name
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
    return edit


def _not_utf8(name):
    def edit(db):
        path = db / name
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
    return edit


def _classes(attr, alpha="0.8", method="interval"):
    return ("classes", "--db", "{db}", "--attr", attr, "--alpha", alpha,
            "--method", method)


# (database copied, edit of the copy, argv with {db} for the copy,
#  exit code, texts the error message names)
ERROR_PATHS = {
    "length-not-a-number": (
        "suppliers", _replace("schema.cfg", "length = 100", "length = abc"),
        _classes("STATUS"), 2, ["schema.cfg", "'STATUS'", "length", "'abc'"]),
    "length-infinite": (
        "suppliers", _replace("schema.cfg", "length = 100", "length = inf"),
        _classes("STATUS"), 2, ["schema.cfg", "'STATUS'", "length", "'inf'", "finite"]),
    "length-nan": (
        "suppliers", _replace("schema.cfg", "length = 100", "length = nan"),
        _classes("STATUS"), 2, ["schema.cfg", "'STATUS'", "length", "'nan'", "finite"]),
    "length-zero": (
        "suppliers", _replace("schema.cfg", "length = 100", "length = 0"),
        _classes("STATUS"), 2, ["schema.cfg", "'STATUS'", "length", "'0'", "positive"]),
    "length-negative": (
        "suppliers", _replace("schema.cfg", "length = 100", "length = -5"),
        _classes("STATUS"), 2, ["schema.cfg", "'STATUS'", "length", "'-5'", "positive"]),
    "side-zero": (
        "gb", _replace("schema.cfg", "length = 2", "length = 0"),
        _classes("CITY"), 2, ["schema.cfg", "'CITY'", "length", "'0'", "positive"]),
    "location-outside-square": (
        "gb", _replace("schema.cfg", "length = 2", "length = 1"),
        _classes("CITY"), 3, ["location 'Peterborough'", "outside the square"]),
    "side-infinite": (
        "gb", _replace("schema.cfg", "length = 2", "length = Infinity"),
        _classes("CITY"), 2, ["schema.cfg", "'CITY'", "length", "'Infinity'"]),
    "alpha-infinite": (
        "suppliers", _replace("schema.cfg", "alpha = 0", "alpha = infinity"),
        _classes("STATUS"), 2, ["schema.cfg", "'SNAME'", "alpha", "'infinity'"]),
    "alpha-not-a-number": (
        "suppliers", _replace("schema.cfg", "alpha = 0", "alpha = zero"),
        _classes("STATUS"), 2, ["schema.cfg", "'SNAME'", "alpha", "'zero'"]),
    "alpha-above-one": (
        "suppliers", _replace("schema.cfg", "alpha = 0", "alpha = 1.5"),
        _classes("STATUS"), 2, ["schema.cfg", "'SNAME'", "alpha", "'1.5'", "[0, 1]"]),
    "alpha-negative": (
        "suppliers", _replace("schema.cfg", "alpha = 0", "alpha = -0.1"),
        _classes("STATUS"), 2, ["schema.cfg", "'SNAME'", "alpha", "'-0.1'", "[0, 1]"]),
    "method-unknown": (
        "suppliers", _replace("schema.cfg", "method = interval", "method = bogus"),
        _classes("STATUS"), 2, ["schema.cfg", "'STATUS'", "method", "'bogus'"]),
    "schema-not-utf8": (
        "suppliers", _not_utf8("schema.cfg"), _classes("STATUS"), 2, ["schema.cfg"]),
    "relation-not-utf8": (
        "suppliers", _not_utf8("suppliers.csv"), _classes("STATUS"), 2,
        ["suppliers.csv"]),
    "locations-not-utf8": (
        "suppliers", _not_utf8("city_locations.csv"), _classes("STATUS"), 2,
        ["city_locations.csv"]),
    "ordinal-label-not-in-matrix": (
        "survey", _replace("schema.cfg", "Severe, Major", "Severe, Awful"),
        _classes("Effect"), 2,
        ["schema.cfg", "'Effect'", "does not match the matrix labels"]),
    "matrix-not-utf8": (
        "survey", _not_utf8("effect_matrix.csv"), _classes("Effect"), 2,
        ["effect_matrix.csv"]),
    "check-matrix-not-utf8": (
        "survey", _not_utf8("effect_matrix.csv"),
        ("check-matrix", "{db}/effect_matrix.csv"), 2, ["effect_matrix.csv"]),
    "cell-not-a-number": (
        "suppliers", _replace("suppliers.csv", ",20,", ",abc,"), _classes("STATUS"),
        2, ["suppliers.csv:", "'abc'", "'STATUS'"]),
    "cell-out-of-range": (
        "suppliers", _replace("suppliers.csv", ",20,", ",200,"), _classes("STATUS"),
        3, ["suppliers.csv:", "200", "'STATUS'"]),
    "unknown-attribute": (
        "suppliers", None, _classes("NOPE"), 3, ["NOPE"]),
    "unknown-relation": (
        "suppliers", None, ("merge", "--db", "{db}", "--relation", "NOPE"), 3,
        ["NOPE"]),
    "alpha-out-of-range": (
        "suppliers", None, _classes("STATUS", alpha="1.5"), 3, ["1.5"]),
    "alpha-nan": (
        "suppliers", None, _classes("STATUS", alpha="nan"), 3, ["nan"]),
    "query-parse-error": (
        "survey", None, ("query", "--db", "{db}", "project (SURVEY) over"), 2,
        ["expected", "^"]),
    "missing-directory": (
        None, None, _classes("STATUS"), 2, ["schema.cfg"]),
}


class TestErrorPaths:
    @pytest.mark.parametrize("case", sorted(ERROR_PATHS))
    def test_exits_with_a_code_not_a_traceback(self, case, tmp_path):
        source, edit, argv, expected_code, needles = ERROR_PATHS[case]
        db = tmp_path / "db"
        if source is not None:
            shutil.copytree(DATA / source, db)
        if edit is not None:
            edit(db)
        proc = run_process(*(a.replace("{db}", str(db)) for a in argv),
                           stdout=subprocess.PIPE)
        err = proc.stderr.decode()
        assert "Traceback" not in err
        assert proc.returncode == expected_code, err
        for needle in needles:
            assert needle in err

    def test_closed_stdout_pipe_exits_quietly(self):
        # the read end is closed before the child starts, so its first
        # write fails however large the pipe buffer is
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_process("compare", "--db", DATA / "gb", "--attr", "CITY",
                               stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 0
