"""Record the expected output digests that the benchmark checks against.

    python3 perfbench/record.py

Evaluates every pool query in every method the query workloads use, and
runs every CLI invocation of the cli workload, at the current commit, and
writes ``perfbench/expected.json``.  Run it only when the program's
intended output changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from fuzzyrel import config  # noqa: E402
from fuzzyrel.query import evaluate, parse  # noqa: E402


def main() -> int:
    work = workloads.WORK / "record"
    gen.write(work, 0)
    relations = config.load_database(work).relations
    queries = {}
    for i, text in enumerate(gen.query_pool()):
        for method in (gen.class_method(i), "threshold"):
            result = evaluate(parse(text), relations, method)
            queries[checks.query_key(method, text)] = checks.relation_digest(result)
    for path, method, text in workloads.cli_queries():
        result = evaluate(parse(text), config.load_database(path).relations, method)
        queries[checks.query_key(method, text)] = checks.relation_digest(result)
    cli = {}
    env = workloads.child_env()
    for argv in workloads.cli_invocations():
        proc = workloads.spawn_cli(argv, env)
        if proc.returncode != 0 or proc.stderr:
            raise SystemExit(f"{argv} failed: {proc.stderr}")
        cli[checks.cli_key(argv)] = checks.cli_digest(argv, proc.stdout)
    expected = {
        "database": checks.database_digest(gen.database_files()),
        "queries": queries,
        "cli": cli,
    }
    checks.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    print(f"{len(queries)} query and {len(cli)} cli digests -> {checks.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
