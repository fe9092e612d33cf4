"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys

import checks
import gen
import hostspeed
import workloads
from fuzzyrel.algebra import FuzzyRelation
from fuzzyrel.config import load_database
from fuzzyrel.query import evaluate, parse

ROOT = workloads.ROOT
RUN = ["perfbench/run.py"]
CLASSES_CSV = ("classes", "--db", "d", "--attr", "A", "--alpha", "0.8", "--emit", "csv")
CLASSES_TEXT = CLASSES_CSV[:-1] + ("text",)


def _declared(section: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[section]}


def _result(argv) -> dict:
    proc = subprocess.run([sys.executable, *RUN, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_same_seed_gives_identical_files(tmp_path):
    first = gen.write(tmp_path / "a", 7)
    second = gen.write(tmp_path / "b", 7)
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name
    other = gen.write(tmp_path / "c", 8)
    assert (tmp_path / "c" / "classmode.queries").read_bytes() != \
        (tmp_path / "a" / "classmode.queries").read_bytes()
    assert {p.name for p in other} == {p.name for p in first}


def test_database_matches_recorded_digest():
    assert checks.database_digest(gen.database_files()) == checks.load_expected()["database"]


def test_every_sequence_query_has_an_expected_digest():
    expected = checks.load_expected()
    for workload in ("classmode", "thresholdmode"):
        for method, text in gen.sequence(3, workload):
            assert checks.query_key(method, text) in expected["queries"]
    for argv in workloads.cli_invocations():
        assert checks.cli_key(argv) in expected["cli"]


def test_checks_ignore_order_but_catch_a_changed_result(tmp_path):
    gen.write(tmp_path, 1)
    relations = load_database(tmp_path).relations
    expected = checks.load_expected()
    text = next(q for q in gen.query_pool() if q.startswith("join"))
    result = evaluate(parse(text), relations, "threshold")
    assert len(result) >= 2
    assert workloads.query_ok(expected, ("threshold", text), result)
    reordered = FuzzyRelation(result.schema, tuple(reversed(result.tuples)))
    assert workloads.query_ok(expected, ("threshold", text), reordered)
    dropped = FuzzyRelation(result.schema, result.tuples[1:])
    assert not workloads.query_ok(expected, ("threshold", text), dropped)


def test_cli_digest_is_order_free_and_ignores_class_numbers():
    csv_out = "class,members\n1,10\n2,20|25\n"
    swapped = "class,members\n1,25|20\n2,10\n"
    assert checks.cli_digest(CLASSES_CSV, csv_out) == \
        checks.cli_digest(CLASSES_CSV, swapped)
    assert checks.cli_digest(CLASSES_CSV, csv_out) != \
        checks.cli_digest(CLASSES_CSV, "class,members\n1,10|20\n2,25\n")
    text_out = "attribute A\n1: {10}\n2: {20, 25}"
    renumbered = "attribute A\n1: {20, 25}\n2: {10}"
    assert checks.cli_digest(CLASSES_TEXT, text_out) == \
        checks.cli_digest(CLASSES_TEXT, renumbered)
    assert checks.cli_digest(("check-matrix", "m.csv"), "labels: 5\n") != \
        checks.cli_digest(("check-matrix", "m.csv"), "labels: 5 \n")


def test_perturbed_results_count_as_failures(tmp_path, monkeypatch):
    real = workloads._run_query
    calls, changed = [], []

    def perturbed(relations, method, text):
        result = real(relations, method, text)
        calls.append(text)
        if len(calls) % 4 == 0 and len(result):  # drop the first tuple
            changed.append(text)
            return FuzzyRelation(result.schema, result.tuples[1:])
        return result

    monkeypatch.setattr(workloads, "_run_query", perturbed)
    run = workloads.query_workload("classmode", 2, 0.0, False, tmp_path)
    assert run.attempted == len(calls) >= workloads.MIN_OPS
    assert run.failed == len(changed) > 0
    assert any(note.startswith("first failed check") for note in run.notes)


def test_host_speed_scale_uses_nearby_samples():
    ref = hostspeed.Reference("t", None, reference_s=1.0, every_s=0.2)
    ref.starts = [0.0, 0.5, 1.0, 10.0, 10.5]
    ref.times = [2.0, 2.0, 4.0, 0.5, 0.5]
    assert ref.scale(0.2) == 0.5  # median of 2, 2, 4
    assert ref.scale(10.2) == 2.0
    assert ref.scale(5.0) == 0.25  # no sample within the window: the nearest
    assert ref.scale(50.0) == 2.0


def test_untraced_metrics_are_the_declared_end_to_end_metrics():
    result = _result(["--workload", "classmode", "--seed", "1", "--seconds", "0",
                      "--trace", "0"])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _declared("end_to_end")


def test_traced_metrics_are_the_declared_per_layer_metrics():
    result = _result(["--workload", "classmode", "--seed", "1", "--seconds", "0",
                      "--trace", "1"])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _declared("per_layer")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *RUN, "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
