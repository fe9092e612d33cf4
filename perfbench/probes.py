"""Traced calls into single fuzzyrel layers.

``walk`` evaluates a parsed query bottom-up through ``algebra.select``,
``project`` and ``join`` -- the calls ``query.evaluate`` makes -- with a
span per operator.  The ``probe_*`` functions time one layer each on
values, tuples and files drawn from the workload, batching calls that
take microseconds so the span's own cost stays small.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import subprocess
import sys

from fuzzyrel import algebra, cli, closure, config, partition, proximity, tables
from fuzzyrel.algebra import FuzzyRelation, FuzzyTuple, LevelMap
from fuzzyrel.query import Join, Project, RelationRef, Select, parse

BATCH = 2000
MERGE_SIZES = (50, 100, 200)
LEVEL = 0.9
CHILD_TIMEOUT_S = 120


def _levels(clauses) -> LevelMap:
    return LevelMap({c.attr: c.value for c in clauses})


def walk(tracer, node, relations, method):
    """Evaluate ``node`` exactly as ``query.evaluate`` does, one span per operator."""
    if isinstance(node, RelationRef):
        return relations[node.name]
    if isinstance(node, Select):
        child = walk(tracer, node.child, relations, method)
        conds = [(c.attr, c.value) for c in node.conds]
        with tracer.span("algebra.select", rows_in=len(child)) as counts:
            out = algebra.select(child, conds, _levels(node.levels))
            counts["rows_out"] = len(out)
        return out
    if isinstance(node, Project):
        child = walk(tracer, node.child, relations, method)
        with tracer.span("algebra.project", rows_in=len(child)) as counts:
            out = algebra.project(child, node.attrs, _levels(node.levels), method)
            counts["rows_out"] = len(out)
        return out
    if isinstance(node, Join):
        left = walk(tracer, node.left, relations, method)
        right = walk(tracer, node.right, relations, method)
        with tracer.span("algebra.join", pairs=len(left) * len(right)) as counts:
            out = algebra.join(left, right, node.on, _levels(node.levels), method)
            counts["rows_out"] = len(out)
        return out
    raise TypeError(f"not a query node: {node!r}")


def traced_query(tracer, relations, method, text):
    """One query operation (parse + evaluate) as a request of its own."""
    tracer.next_request()
    with tracer.span("query"):
        with tracer.span("query.parse"):
            parsed = parse(text)
        with tracer.span("query.evaluate"):
            return walk(tracer, parsed.root, relations, method)


def _batched(tracer, name, fn, calls):
    """Call ``fn(*args)`` for each args tuple, one span per batch of calls."""
    for start in range(0, len(calls), BATCH):
        batch = calls[start:start + BATCH]
        with tracer.span(name, calls=len(batch)):
            for args in batch:
                fn(*args)


def _column_values(r: FuzzyRelation, attr: str) -> list:
    idx = r.attribute_index(attr)
    return [v for t in r.tuples for v in sorted(t.components[idx], key=str)]


def probe_degrees(tracer, rng, r: FuzzyRelation, attrs: dict[str, str]):
    """``degree_of`` on value pairs of each proximity kind: attrs maps kind -> column."""
    for kind, attr in attrs.items():
        spec = r.attribute(attr).proximity
        values = _column_values(r, attr)
        calls = [(spec, rng.choice(values), rng.choice(values)) for _ in range(5 * BATCH)]
        _batched(tracer, f"proximity.degree_{kind}", proximity.degree_of, calls)


def probe_partition(tracer, rng, r: FuzzyRelation, linear: str, planar: str):
    """``class_of``, ``cell_of`` and ``classes_over`` on the workload's values."""
    line_spec = r.attribute(linear).proximity
    plane_spec = r.attribute(planar).proximity
    line = partition.partition_line(line_spec.length, LEVEL)
    grid = partition.partition_plane(plane_spec.side, LEVEL)
    xs = _column_values(r, linear)
    points = [plane_spec.resolve(v) for v in _column_values(r, planar)]
    _batched(tracer, "partition.class_of", partition.class_of,
             [(rng.choice(xs), line) for _ in range(5 * BATCH)])
    _batched(tracer, "partition.cell_of", partition.cell_of,
             [(rng.choice(points), grid) for _ in range(5 * BATCH)])
    line_domain = closure.temporal_domain(r, linear)
    plane_domain = closure.temporal_domain(r, planar)
    for _ in range(5):
        with tracer.span("partition.classes_over"):
            partition.classes_over(line_domain, line)
        with tracer.span("partition.classes_over"):
            partition.classes_over(plane_domain, grid, plane_spec.resolve)


def probe_closure(tracer, r: FuzzyRelation, attrs):
    """``temporal_domain`` and ``closure_classes`` on each fuzzy column."""
    for attr in attrs:
        spec = r.attribute(attr).proximity
        for _ in range(3):
            with tracer.span("closure.temporal_domain"):
                domain = closure.temporal_domain(r, attr)
            with tracer.span("closure.closure_classes"):
                closure.closure_classes(domain, spec, LEVEL)


def _projected(r: FuzzyRelation, rows, attrs) -> FuzzyRelation:
    """Rows restricted to ``attrs`` without merging, as ``project`` sees them."""
    idx = [r.attribute_index(a) for a in attrs]
    schema = tuple(r.schema[i] for i in idx)
    return FuzzyRelation(schema, tuple(
        FuzzyTuple(tuple(attrs), tuple(t.components[i] for i in idx)) for t in rows
    ))


def probe_redundant(tracer, rng, r: FuzzyRelation, groups, attrs, mode):
    """Public ``redundant`` on tuple pairs from the same selection group."""
    levels = LevelMap({a: LEVEL for a in attrs})
    for rows in groups:
        sub = _projected(r, rows, attrs)
        if len(sub) < 2:
            continue
        for _ in range(10):
            t1, t2 = rng.sample(sub.tuples, 2)
            with tracer.span("algebra.redundant"):
                algebra.redundant(sub, t1, t2, levels, mode)


def probe_merge(tracer, rng, r: FuzzyRelation, attrs, mode):
    """``merge_relation`` on 50, 100 and 200 sampled rows."""
    levels = LevelMap({a: LEVEL for a in attrs})
    for n in MERGE_SIZES:
        sub = _projected(r, rng.sample(r.tuples, n), attrs)
        with tracer.span(f"algebra.merge_n{n}"):
            algebra.merge_relation(sub, levels, mode)


def merge_exponent(times: dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n in times]
    ys = [math.log(t) for t in times.values()]
    return statistics.linear_regression(xs, ys).slope


def probe_loading(tracer, sources, reps: int = 3):
    """``load_database`` and ``load_relation`` per (directory, relation, csv file)."""
    for path, relation, filename in sources:
        for _ in range(reps):
            with tracer.span("config.load_database"):
                db = config.load_database(path)
        schema = db.relation(relation).schema
        for _ in range(reps):
            with tracer.span("tables.load_relation"):
                tables.load_relation(path / filename, schema)


def probe_formatting(tracer, results):
    """``format_table`` and ``relation_to_csv`` on query results."""
    for r in results:
        with tracer.span("tables.format_table"):
            tables.format_table(r)
        with tracer.span("tables.relation_to_csv"):
            tables.relation_to_csv(r)


def probe_cli_main(tracer, argvs):
    """In-process ``cli.main`` with standard output captured."""
    for argv in argvs:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), tracer.span("cli.main"):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli.main{argv} exited with {code}")


def run_process(cmd, env, cwd) -> subprocess.CompletedProcess:
    """Run ``cmd`` to completion with its output captured; a child that runs
    past CHILD_TIMEOUT_S is killed and ``TimeoutExpired`` is raised."""
    return subprocess.run(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def probe_import(tracer, env, cwd, reps: int = 7) -> None:
    """Fresh processes that import ``fuzzyrel.cli``, and bare ones to subtract."""
    for _ in range(reps):
        for name, code in (("process.bare", "pass"), ("process.import_cli", "import fuzzyrel.cli")):
            with tracer.span(name):
                proc = run_process([sys.executable, "-c", code], env, cwd)
            if proc.returncode != 0:
                raise RuntimeError(f"{code!r} failed: {proc.stderr}")
