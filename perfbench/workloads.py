"""The benchmark's three workloads and the metrics each run reports.

Load comes from one client in a closed loop: the next operation starts
only after the previous one has finished, with no threads, and the cli
workload runs one child process at a time.

* ``classmode`` / ``thresholdmode`` -- parse + evaluate of a seeded query
  sequence over the generated database; the two differ only in the
  method that decides redundancy (class methods against ``threshold``).
* ``cli`` -- whole ``fuzzyrel`` processes on the bundled ``data/*``.

An untraced run times operations and reports the end-to-end metrics,
scaled to a reference host speed (see hostspeed.py).  A
traced run alternates untraced and traced operations (the ratio of their
times is the tracing overhead), then probes single layers, and reports
per-layer metrics from the spans.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen
import hostspeed
import probes
from tracing import Tracer

from fuzzyrel import closure, config
from fuzzyrel.query import evaluate, parse

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
MIN_OPS = 100
WARM_OPS = 48
SETUP_REPS = {"classmode": 15, "thresholdmode": 15, "cli": 60}
LAYER_ATTRS = ("NUM", "LOC", "ORD")
DEGREE_ATTRS = {"crisp": "TAG", "matrix": "ORD", "linear": "NUM", "planar": "LOC"}
MODES = {"classmode": None, "thresholdmode": "threshold", "cli": None}
# Reference times of the host-speed tasks (see hostspeed.py), in seconds, and
# how often each is sampled during the timed loop.
PYTHON_REFERENCE_S, PYTHON_EVERY_S = 1.0e-3, 0.2
PROCESS_REFERENCE_S, PROCESS_EVERY_S = 40e-3, 0.3

BUNDLED = (
    ("suppliers", "SUPPLIERS", "suppliers.csv"),
    ("survey", "SURVEY", "survey.csv"),
    ("arson", "PHYSICAL CHARACTERISTICS", "physical_characteristics.csv"),
    ("gb", "GB_CITIES", "gb_cities.csv"),
)

# Every command but check-matrix runs once with --emit text and once with
# --emit csv.  The queries cover select, project and join.
CLI_COMMANDS = (
    ("classes", "--db", "data/suppliers", "--attr", "STATUS", "--alpha", "0.8",
     "--method", "interval"),
    ("classes", "--db", "data/arson", "--attr", "HAIR COLOR", "--alpha", "0.6",
     "--method", "interval"),
    ("classes", "--db", "data/gb", "--attr", "CITY", "--alpha", "0.8", "--method", "closure"),
    ("classes", "--db", "data/survey", "--attr", "Effect", "--alpha", "0.8",
     "--method", "closure"),
    ("compare", "--db", "data/gb", "--attr", "CITY"),
    ("compare", "--db", "data/suppliers", "--attr", "STATUS", "--alpha", "0.6",
     "--alpha", "0.8"),
    ("query", "--db", "data/suppliers",
     'project (select (SUPPLIERS) where CITY = "Rohan" with level(CITY) = 0.7) '
     "over STATUS, CITY with level(STATUS) = 0.8, level(CITY) = 0.8"),
    ("query", "--db", "data/suppliers",
     "join (project (SUPPLIERS) over STATUS, CITY with level(STATUS) = 0.8, "
     'level(CITY) = 0.8, project (select (SUPPLIERS) where CITY = "Rohan" with '
     "level(CITY) = 0.7) over STATUS, SNAME with level(SNAME) = 0) on STATUS "
     "with level(STATUS) = 0.9, level(CITY) = 0.8, level(SNAME) = 0"),
    ("query", "--db", "data/survey",
     "project (select (SURVEY) where Type = Expert) over Pollutant, Effect "
     "with level(Effect) = 0.8"),
    ("query", "--db", "data/arson",
     'project ("PHYSICAL CHARACTERISTICS") over "HAIR COLOR", BUILD with '
     'level("HAIR COLOR") = 0.7, level(BUILD) = 0.6', "--method", "closure"),
    ("merge", "--db", "data/suppliers", "--alpha", "0.8"),
    ("merge", "--db", "data/survey", "--alpha", "0.8"),
    ("merge", "--db", "data/arson", "--alpha", "0.7", "--method", "threshold"),
    ("merge", "--db", "data/gb", "--alpha", "0.9"),
)
CHECK_MATRIX = (
    ("check-matrix", "data/arson/hair_matrix.csv"),
    ("check-matrix", "data/arson/build_matrix.csv"),
    ("check-matrix", "data/survey/effect_matrix.csv"),
)


def cli_invocations() -> list[tuple[str, ...]]:
    """Every CLI argv the cli workload issues."""
    out = [cmd + ("--emit", emit) for cmd in CLI_COMMANDS for emit in ("text", "csv")]
    return out + list(CHECK_MATRIX)


def cli_queries() -> list[tuple[Path, str | None, str]]:
    """(database directory, method, query text) of each cli ``query`` command."""
    return [(ROOT / argv[2], argv[argv.index("--method") + 1] if "--method" in argv else None,
             argv[3]) for argv in CLI_COMMANDS if argv[0] == "query"]


def child_env() -> dict[str, str]:
    """Environment of CLI children: this checkout's sources, byte code cached
    as an installed CLI would have it, whatever the caller's setting."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Run:
    """What one run attempted, what failed its check, and what it measured."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            if self.failed == 0:
                self.notes.append(f"first failed check: {what}")
            self.failed += 1


class SetupSamples:
    """Times ``load()`` ``reps`` times, spread evenly over the timed loop;
    ``samples`` holds (start, seconds) of each.

    Spread out, the samples see the same host conditions as the operations
    rather than the first second of the run.  Each sample starts from a
    collected heap and drops what it loaded, so whether a full garbage
    collection falls inside the load does not change from sample to sample.
    """

    def __init__(self, load, reps: int, seconds: float):
        self.load, self.reps, self.seconds = load, reps, seconds
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        gc.collect()
        t0 = time.perf_counter()
        self.load()
        self.samples.append((t0, time.perf_counter() - t0))

    def __call__(self, elapsed: float) -> None:
        """Take the next sample if ``elapsed`` seconds of the loop reach its turn."""
        n = len(self.samples)
        if n < self.reps and elapsed >= n * self.seconds / self.reps:
            self.sample()

    def finish(self) -> list[tuple[float, float]]:
        while len(self.samples) < self.reps:
            self.sample()
        return self.samples


def _closed_loop(seconds: float, cycle: int, step, hooks=()) -> float:
    """Call ``step(i)`` for i = 0, 1, ... in whole cycles of ``cycle`` steps
    until ``seconds`` pass and MIN_OPS are done; returns the loop's wall time.

    Each ``hook(elapsed)`` runs before each step; their time, and the
    seconds each step returns, are left out of the wall time.
    """
    start = time.perf_counter()
    deadline = start + seconds
    excluded = 0.0
    i = 0
    while i < MIN_OPS or i % cycle or time.perf_counter() < deadline:
        if hooks:
            t0 = time.perf_counter()
            for hook in hooks:
                hook(t0 - start)
            excluded += time.perf_counter() - t0
        excluded += step(i)
        i += 1
    return time.perf_counter() - start - excluded


def _timed(fn, item):
    """(result or None, (start, seconds)); an exception counts as a failed operation."""
    t0 = time.perf_counter()
    try:
        result = fn(item)
    except Exception:  # the loop must keep running; the failure is counted
        traceback.print_exc(file=sys.stderr)
        result = None
    return result, (t0, time.perf_counter() - t0)


def _measure(run: Run, seconds: float, items, ok, *variants, hooks=()):
    """Closed loop over whole cycles of ``items``; returns (wall seconds,
    (start, seconds) of each operation per variant).

    Each step times every variant on the same item, alternating which goes
    first, so an untraced and a traced variant see the same conditions.
    Every output is checked with ``ok(item, output)`` as soon as it is made
    and then dropped, so the outputs do not add to the runner's memory; the
    checks are left out of the wall time.
    """
    times = [[] for _ in variants]

    def step(i):
        item = items[i % len(items)]
        order = range(len(variants)) if i % 2 == 0 else reversed(range(len(variants)))
        checking = 0.0
        for v in order:
            output, timing = _timed(variants[v], item)
            times[v].append(timing)
            t0 = time.perf_counter()
            run.record(ok(item, output), str(item))
            checking += time.perf_counter() - t0
        return checking

    wall = _closed_loop(seconds, len(items), step, hooks)
    return wall, times


def _timings(setup: list[float], latencies: list[float], wall: float) -> dict:
    ms = sorted(x * 1e3 for x in latencies)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "ops_per_s": (len(ms) / wall, "1/s"),
    }


def _end_to_end(run: Run, setup, setup_ref, ops, op_ref, wall: float, rusage_who: int) -> None:
    """End-to-end metrics from (start, seconds) of each set-up sample and
    operation, each scaled to the reference host speed by its reference."""
    raw = [dt for _, dt in ops]
    scaled = [dt * op_ref.scale(t) for t, dt in ops]
    scaled_wall = wall * sum(scaled) / sum(raw)
    run.metrics.update(_timings([dt * setup_ref.scale(t) for t, dt in setup], scaled, scaled_wall))
    run.metrics["peak_rss_mb"] = (resource.getrusage(rusage_who).ru_maxrss / 1024, "MB")
    unscaled = _timings([dt for _, dt in setup], raw, wall)
    run.notes.append("unscaled: " + ", ".join(
        f"{name} {value:.6g} {unit}" for name, (value, unit) in unscaled.items()))
    run.notes.extend(ref.describe() for ref in dict.fromkeys((setup_ref, op_ref)))
    run.notes.append(f"{len(ops)} operations, {len(ops) - int(0.9 * len(ops))} "
                     "beyond the 90th percentile")


def _python_reference() -> hostspeed.Reference:
    return hostspeed.Reference("python", hostspeed.python_task, PYTHON_REFERENCE_S,
                               PYTHON_EVERY_S)


def _overhead(untraced, traced) -> float:
    """Traced time over untraced time of the same operations, minus one."""
    return sum(dt for _, dt in traced) / sum(dt for _, dt in untraced) - 1.0


# --- query workloads ---------------------------------------------------------


def _run_query(relations, method, text):
    return evaluate(parse(text), relations, method)


def query_ok(expected: dict, item, result) -> bool:
    """Whether ``result`` of the (method, text) query matches its recorded digest."""
    want = expected["queries"].get(checks.query_key(*item))
    return result is not None and checks.relation_digest(result) == want


def _input_properties(run: Run, db, relation: str, warm: Tracer) -> None:
    r = db.relation(relation)
    distinct = ", ".join(f"{a}={len(closure.temporal_domain(r, a))}" for a in r.names)
    fuzzy = [r.attribute_index(a) for a in LAYER_ATTRS]
    multi = sum(len(t.components[i]) > 1 for t in r.tuples for i in fuzzy)
    run.notes.append(f"input: {len(r)} rows; distinct values {distinct}; "
                     f"set-valued share {multi / (len(r) * len(fuzzy)):.3f} of "
                     f"{'/'.join(LAYER_ATTRS)} cells")
    counts = operator_counts(warm.layers())
    run.notes.append(f"input, first {WARM_OPS} queries: " + ", ".join(
        f"{name.split('.')[1]} {value:.4g}" for name, (value, _) in counts.items()))


def query_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> Run:
    run = Run()
    gen.write(work, seed)
    expected = checks.load_expected()
    sequence = gen.read_sequence(work / f"{name}.queries")

    db = config.load_database(work)
    relations = db.relations

    warm = Tracer()
    warm_results = [probes.traced_query(warm, relations, m, q)
                    for m, q in sequence[:WARM_OPS]]
    _input_properties(run, db, gen.RELATION, warm)

    def ok(item, result):
        return query_ok(expected, item, result)

    def plain(item):
        return _run_query(relations, *item)

    if not trace:
        host = _python_reference()
        setup = SetupSamples(lambda: config.load_database(work), SETUP_REPS[name], seconds)
        wall, (ops,) = _measure(run, seconds, sequence, ok, plain, hooks=(host, setup))
        _end_to_end(run, setup.finish(), host, ops, host, wall, resource.RUSAGE_SELF)
        return run

    tracer = Tracer()
    _, (untraced, traced) = _measure(
        run, seconds, sequence, ok, plain,
        lambda item: probes.traced_query(tracer, relations, *item))
    overhead = _overhead(untraced, traced)
    rng = random.Random(f"{seed}/probes")
    _probe_synthetic(tracer, rng, db.relation(gen.RELATION), MODES[name])
    probes.probe_loading(tracer, [(work, gen.RELATION, "r.csv")])
    probes.probe_formatting(tracer, warm_results)
    argvs = [["query", "--db", str(work), text, "--emit", "csv"]
             + (["--method", method] if method else []) for method, text in sequence[:3]]
    probes.probe_cli_main(tracer, argvs)
    probes.probe_import(tracer, child_env(), ROOT)
    run.metrics = layer_metrics(tracer, overhead)
    tracer.write(WORK / f"trace-{name}-{seed}.json", run.metrics)
    return run


def _probe_synthetic(tracer: Tracer, rng: random.Random, r, mode) -> None:
    """Single-layer probes on the generated relation, in the workload's mode."""
    probes.probe_degrees(tracer, rng, r, DEGREE_ATTRS)
    probes.probe_partition(tracer, rng, r, "NUM", "LOC")
    probes.probe_closure(tracer, r, LAYER_ATTRS)
    tag = r.attribute_index("TAG")
    by_tag: dict = {}
    for t in r.tuples:
        by_tag.setdefault(next(iter(t.components[tag])), []).append(t)
    groups = [by_tag[k] for k in rng.sample(sorted(by_tag), 20)]
    probes.probe_redundant(tracer, rng, r, groups, LAYER_ATTRS, mode)
    # Merge time depends strongly on which rows are drawn, so every run draws
    # the same rows and the exponent compares across runs and commits.
    probes.probe_merge(tracer, random.Random(f"{gen.DATA_SEED}/merge"), r, LAYER_ATTRS, mode)


# --- cli workload ------------------------------------------------------------


def spawn_cli(argv, env):
    """One ``fuzzyrel`` process from this checkout's sources, run to completion."""
    return probes.run_process([sys.executable, "-m", "fuzzyrel.cli", *argv], env, ROOT)


def _bare_process(env) -> None:
    """Start and end a bare interpreter, as a CLI process starts and ends."""
    proc = probes.run_process([sys.executable, "-c", "pass"], env, ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"bare interpreter failed: {proc.stderr}")


def cli_ok(expected: dict, argv, proc) -> bool:
    """Whether a CLI process exited cleanly with its recorded output."""
    if proc is None or proc.returncode != 0 or proc.stderr:
        return False
    return checks.cli_digest(argv, proc.stdout) == expected["cli"].get(checks.cli_key(argv))


def cli_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> Run:
    run = Run()
    expected = checks.load_expected()
    env = child_env()
    commands = cli_invocations()
    random.Random(f"{seed}/cli").shuffle(commands)
    run.notes.append(f"input: {len(commands)} commands on {len(BUNDLED)} bundled databases")

    for argv in commands:  # warm the byte-code and file caches
        spawn_cli(argv, env)

    def ok(argv, proc):
        return cli_ok(expected, argv, proc)

    def plain(argv):
        return spawn_cli(argv, env)

    if not trace:
        host = _python_reference()
        process = hostspeed.Reference(
            "process", lambda: _bare_process(env), PROCESS_REFERENCE_S, PROCESS_EVERY_S)
        setup = SetupSamples(
            lambda: [config.load_database(ROOT / "data" / d) for d, _, _ in BUNDLED],
            SETUP_REPS[name], seconds)
        wall, (ops,) = _measure(run, seconds, commands, ok, plain, hooks=(host, process, setup))
        _end_to_end(run, setup.finish(), host, ops, process, wall, resource.RUSAGE_CHILDREN)
        return run

    tracer = Tracer()

    def traced_spawn(argv):
        tracer.next_request()
        with tracer.span("cli.process"):
            return spawn_cli(argv, env)

    _, (untraced, traced) = _measure(run, seconds, commands, ok, plain, traced_spawn)
    overhead = _overhead(untraced, traced)

    # The algebra underneath the CLI's query commands, in process.
    results = []
    for path, method, text in cli_queries():
        relations = config.load_database(path).relations
        for _ in range(5):
            result = probes.traced_query(tracer, relations, method, text)
            run.record(query_ok(expected, (method, text), result), text)
        results.append(result)
    probes.probe_loading(tracer, [(ROOT / "data" / d, rel, f) for d, rel, f in BUNDLED])
    probes.probe_formatting(tracer, results)
    probes.probe_cli_main(tracer, [[str(ROOT / a) if a.startswith("data/") else a for a in argv]
                                   for argv in cli_invocations()])
    probes.probe_import(tracer, env, ROOT)

    # Degree, class and merge layers need more rows than the bundled data has.
    gen.write(work, seed)
    synthetic = config.load_database(work).relation(gen.RELATION)
    _probe_synthetic(tracer, random.Random(f"{seed}/probes"), synthetic, MODES[name])
    run.metrics = layer_metrics(tracer, overhead)
    tracer.write(WORK / f"trace-{name}-{seed}.json", run.metrics)
    return run


# --- per-layer metrics -------------------------------------------------------


def operator_counts(layers: dict) -> dict[str, tuple[float, str]]:
    """Rows and pairs per operator call, the merge ratio and join selectivity."""

    def total(span, key):
        return layers[span]["counts"][key]

    def mean(span, key):
        return total(span, key) / layers[span]["spans"]

    pin, pout = total("algebra.project", "rows_in"), total("algebra.project", "rows_out")
    return {
        "algebra.select_rows_in": (mean("algebra.select", "rows_in"), "rows"),
        "algebra.select_rows_out": (mean("algebra.select", "rows_out"), "rows"),
        "algebra.project_rows_in": (mean("algebra.project", "rows_in"), "rows"),
        "algebra.project_rows_out": (mean("algebra.project", "rows_out"), "rows"),
        "algebra.merge_ratio": ((pin - pout) / pin, "ratio"),
        "algebra.join_pairs": (mean("algebra.join", "pairs"), "pairs"),
        "algebra.join_rows_out": (mean("algebra.join", "rows_out"), "rows"),
        "algebra.join_selectivity": (
            total("algebra.join", "rows_out") / total("algebra.join", "pairs"), "ratio"),
    }

NS = {"ms": 1e6, "us": 1e3, "ns": 1.0}

# (span, unit): the metric ``<span>_<unit>`` is the mean self time per call.
SELF_TIME = (
    ("query.parse", "us"),
    ("query.evaluate", "ms"),
    ("algebra.select", "ms"),
    ("algebra.project", "ms"),
    ("algebra.join", "ms"),
    ("algebra.redundant", "us"),
    ("algebra.merge_n50", "ms"),
    ("algebra.merge_n100", "ms"),
    ("algebra.merge_n200", "ms"),
    ("proximity.degree_crisp", "ns"),
    ("proximity.degree_matrix", "ns"),
    ("proximity.degree_linear", "ns"),
    ("proximity.degree_planar", "ns"),
    ("partition.class_of", "ns"),
    ("partition.cell_of", "ns"),
    ("partition.classes_over", "ms"),
    ("closure.closure_classes", "ms"),
    ("closure.temporal_domain", "ms"),
    ("config.load_database", "ms"),
    ("tables.load_relation", "ms"),
    ("tables.format_table", "ms"),
    ("tables.relation_to_csv", "ms"),
    ("cli.main", "ms"),
)


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, from the spans of one traced run."""
    layers = tracer.layers()
    out = {}
    for span, unit in SELF_TIME:
        agg = layers[span]
        out[f"{span}_{unit}"] = (agg["self_ns"] / agg["calls"] / NS[unit], unit)
    out.update(operator_counts(layers))
    sizes = {n: layers[f"algebra.merge_n{n}"]["self_ns"] for n in probes.MERGE_SIZES}
    out["algebra.merge_exponent"] = (probes.merge_exponent(sizes), "1")

    def median_ms(span):
        return statistics.median(
            s["end"] - s["start"] for s in tracer.spans if s["name"] == span) / 1e6

    out["cli.import_ms"] = (median_ms("process.import_cli") - median_ms("process.bare"), "ms")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


WORKLOADS = {
    "classmode": query_workload,
    "thresholdmode": query_workload,
    "cli": cli_workload,
}
