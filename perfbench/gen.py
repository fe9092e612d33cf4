"""Seeded generator for the synthetic database and the query workloads.

The database is one relation ``R`` of about 5000 tuples over

* ``KEY`` -- crisp, unique per row, configured at level 0,
* ``TAG`` -- crisp, 200 tags of 25 rows each; queries select on it,
* ``NUM`` -- numeric, ``Linear(100)``, interval classes by default,
* ``LOC`` -- planar over 200 locations in [0, 100]^2, grid classes,
* ``ORD`` -- 8-label ordinal domain with an explicit, non-transitive
  degree matrix, interval classes by default.

Rows of one tag cluster around a tag centre on NUM, LOC and ORD, so a
selection on TAG yields tens of similar tuples that ``project`` merges
and ``join`` pairs.  About 10% of the NUM, LOC and ORD cells are
set-valued.

The database and the query pool come from ``DATA_SEED``, so the expected
result digests stored in ``expected.json`` hold for every run.  The run
seed sets the order in which the whole pool is issued.  Every run issues
the same queries, because a few of them cost ten times the median and a
sample that happened to leave them out ran about 10% faster.  Both query workloads use the same texts; ``classmode`` evaluates
each with a class method (configured defaults, ``equalized`` or
``closure``), ``thresholdmode`` with ``threshold``.

Usage: python3 perfbench/gen.py --seed N --out DIR
"""

from __future__ import annotations

import argparse
import csv
import io
import random
from pathlib import Path

DATA_SEED = 1908
N_TAGS = 200
ROWS_PER_TAG = 25
N_LOCATIONS = 200
NEAR_LOCATIONS = 6
SET_VALUED_SHARE = 0.10
ORD_LABELS = ("Negligible", "Minor", "Low", "Moderate",
              "Elevated", "High", "Severe", "Critical")
# Query shapes, one pool slot each per round of the pool.  Two-column
# projects, whose cost is mostly the select scan, are the majority so the
# median lies inside that group; joins are the most costly and numerous
# enough that the 90th percentile lies inside theirs.  A percentile on the
# edge between two groups would jump between them from run to run.
SHAPES = ("pair",) * 10 + ("triple",) * 2 + ("join",) * 4
POOL_SIZE = 12 * len(SHAPES)
CLASS_METHODS = (None, "equalized", "closure")
RELATION = "R"

SCHEMA_CFG = """\
[attribute KEY]
kind = crisp
alpha = 0

[attribute TAG]
kind = crisp

[attribute NUM]
kind = numeric
length = 100
method = interval

[attribute LOC]
kind = planar
length = 100
locations = locations.csv
method = grid

[attribute ORD]
kind = ordinal
labels = {labels}
matrix = ord_matrix.csv
method = interval

[relation R]
file = r.csv
attributes = KEY, TAG, NUM, LOC, ORD
"""


def _csv_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _ord_matrix(rng: random.Random) -> list[list[float]]:
    """Rank-based degrees with symmetric jitter, so max-min transitivity fails."""
    n = len(ORD_LABELS)
    m = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            base = 1.0 - (j - i) / (n - 1)
            d = round(min(0.95, max(0.0, base + rng.choice((-0.05, 0.0, 0.05)))), 2)
            m[i][j] = m[j][i] = d
    return m


def _database_files(rng: random.Random) -> tuple[dict[str, str], list]:
    locations = [
        (f"P{i:03d}", round(rng.uniform(0, 100), 2), round(rng.uniform(0, 100), 2))
        for i in range(1, N_LOCATIONS + 1)
    ]
    rows, centres = [], []
    for t in range(1, N_TAGS + 1):
        num_centre = rng.uniform(5, 95)
        cx, cy = rng.uniform(0, 100), rng.uniform(0, 100)
        near = sorted(locations, key=lambda p: (p[1] - cx) ** 2 + (p[2] - cy) ** 2)
        near = [p[0] for p in near[:NEAR_LOCATIONS]]
        ord_centre = rng.randrange(1, len(ORD_LABELS) - 1)
        centres.append({"NUM": (num_centre,), "LOC": (cx, cy), "ORD": (ord_centre,),
                        "place": near[0]})
        for _ in range(ROWS_PER_TAG):
            num = min(100, max(0, round(rng.gauss(num_centre, 4))))
            ordinal = ord_centre + rng.choice((-1, 0, 0, 1))
            rows.append([f"T{t:03d}", [num], [rng.choice(near)], [ordinal], near])
    rng.shuffle(rows)

    fuzzy_cells = [(r, c) for r in range(len(rows)) for c in (1, 2, 3)]
    for r, c in rng.sample(fuzzy_cells, round(SET_VALUED_SHARE * len(fuzzy_cells))):
        row = rows[r]
        first = row[c][0]
        if c == 1:
            second = min(100, first + rng.randint(1, 6))
            second = second if second != first else first - rng.randint(1, 6)
        elif c == 2:
            second = rng.choice([p for p in row[4] if p != first])
        else:
            second = first + 1 if first + 1 < len(ORD_LABELS) else first - 1
        row[c].append(second)

    body = [["KEY", "TAG", "NUM", "LOC", "ORD"]]
    for i, (tag, nums, locs, ords, _) in enumerate(rows, start=1):
        body.append([
            f"K{i:05d}", tag,
            "|".join(str(v) for v in nums),
            "|".join(locs),
            "|".join(ORD_LABELS[v] for v in ords),
        ])
    matrix = _ord_matrix(rng)
    matrix_rows = [["s", *ORD_LABELS]] + [
        [label, *(f"{d:.2f}" for d in row)] for label, row in zip(ORD_LABELS, matrix)
    ]
    files = {
        "schema.cfg": SCHEMA_CFG.format(labels=", ".join(ORD_LABELS)),
        "r.csv": _csv_text(body),
        "locations.csv": _csv_text([["label", "x", "y"], *locations]),
        "ord_matrix.csv": _csv_text(matrix_rows),
    }
    return files, centres


def _levels(rng: random.Random, attrs) -> str:
    return ", ".join(f"level({a}) = {rng.choice((0.7, 0.8, 0.9))}" for a in attrs)


def _select(tag: int) -> str:
    return f'select ({RELATION}) where TAG = "T{tag:03d}"'


def _query(rng: random.Random, shape: str, centres: list) -> str:
    """One query.  ``pair`` and ``triple`` project two or three columns of one
    tag.  ``join`` joins that projection with the projection of the rows at
    the location nearest the tag's centre, a fuzzy selection on ``LOC``."""
    tag = rng.randint(1, N_TAGS)
    if shape != "join":
        attrs = rng.sample(("NUM", "LOC", "ORD"), 2 if shape == "pair" else 3)
        return f"project ({_select(tag)}) over {', '.join(attrs)} with {_levels(rng, attrs)}"
    on = rng.choice(("NUM", "LOC", "ORD"))
    rest = [a for a in ("NUM", "LOC", "ORD") if a != on]
    place = centres[tag - 1]["place"]
    near = f'select ({RELATION}) where LOC = "{place}" with level(LOC) = 0.99'
    left = f"project ({_select(tag)}) over {on}, {rest[0]} with {_levels(rng, [on, rest[0]])}"
    right = f"project ({near}) over {on}, {rest[1]} with {_levels(rng, [on, rest[1]])}"
    return f"join ({left}, {right}) on {on} with {_levels(rng, [on, *rest])}"


def query_pool() -> list[str]:
    """The fixed query texts both query workloads draw from; query i has
    shape ``SHAPES[i % len(SHAPES)]``."""
    _, centres = _database_files(random.Random(DATA_SEED))
    rng = random.Random(f"{DATA_SEED}/queries")
    return [_query(rng, SHAPES[i % len(SHAPES)], centres) for i in range(POOL_SIZE)]


def class_method(index: int) -> str | None:
    """Class method the classmode workload forces on pool query ``index``.

    Every shape meets every method equally often.
    """
    return CLASS_METHODS[index // len(SHAPES) % len(CLASS_METHODS)]


def sequence(seed: int, workload: str) -> list[tuple[str | None, str]]:
    """The (method, query text) pairs one run issues, in order."""
    pool = query_pool()
    picks = list(range(len(pool)))
    random.Random(f"{seed}/sequence").shuffle(picks)
    if workload == "classmode":
        return [(class_method(i), pool[i]) for i in picks]
    return [("threshold", pool[i]) for i in picks]


def database_files() -> dict[str, str]:
    """File name to content for the synthetic database."""
    return _database_files(random.Random(DATA_SEED))[0]


def write(out: Path, seed: int) -> list[Path]:
    """Write the database and both query sequences for ``seed`` into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    files = dict(database_files())
    for workload in ("classmode", "thresholdmode"):
        files[f"{workload}.queries"] = "".join(
            f"{method or 'default'}\t{text}\n" for method, text in sequence(seed, workload)
        )
    written = []
    for name, content in files.items():
        path = out / name
        path.write_text(content, encoding="utf-8")
        written.append(path)
    return written


def read_sequence(path: Path) -> list[tuple[str | None, str]]:
    """Parse a ``<method>\\t<query>`` file written by ``write``."""
    pairs = []
    for line in path.read_text(encoding="utf-8").splitlines():
        method, text = line.split("\t", 1)
        pairs.append((None if method == "default" else method, text))
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for path in write(args.out, args.seed):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
