"""A seeded mutation sweep over the bundled databases.

Each run takes a golden CLI case, breaks one file of a copy of the
database it reads in one fixed way, and runs ``fuzzyrel.cli.main`` on the
copy in this process.  Whatever the damage, the command must end with
exit code 0, 2 or 3 and never with an exception; an exit of 0 prints
nothing on standard error, any other exactly one ``error:`` line or a
query parse error ending in its caret.  The runs are a fixed sample of
every (case, file, mutation) triple, so the sweep is the same each time.
"""

import contextlib
import io
import random
import re
import shutil
import signal

from fuzzyrel.cli import main
from test_golden import CASES, ROOT

SEED = 16
RUNS = 400
SECONDS_PER_RUN = 10


def _one(pattern, replace):
    """Replace one match of ``pattern``, picked by the rng; no match, no change."""
    pattern = re.compile(pattern)

    def mutate(text, rng):
        matches = list(pattern.finditer(text))
        if not matches:
            return text
        m = rng.choice(matches)
        return text[:m.start()] + replace(m.group()) + text[m.end():]
    return mutate


def _line(edit):
    """Replace one line, picked by the rng, with the lines ``edit`` makes of it."""
    def mutate(text, rng):
        lines = text.splitlines(keepends=True)
        if lines:
            k = rng.randrange(len(lines))
            lines[k:k + 1] = edit(lines[k])
        return "".join(lines)
    return mutate


MUTATIONS = {
    "empty": lambda text, rng: "",
    "half": lambda text, rng: text[:len(text) // 2],
    "drop-line": _line(lambda line: []),
    "duplicate-line": _line(lambda line: [line, line]),
    **{f"digit-to-{new or 'nothing'}": _one(r"\d", lambda _, new=new: new)
       for new in ("x", "-1", "nan", "inf", "1e309", "", "9999")},
    "separator-deleted": _one(r"[,=]", lambda _: ""),
    "separator-doubled": _one(r"[,=]", lambda sep: sep + sep),
    "word-renamed": _one(r"[A-Za-z]+", lambda word: word + "_x"),
}


def _plans():
    """(case, database, file, mutation) of every run, sampled by SEED."""
    plans = []
    for case, argv in sorted(CASES.items()):
        db = next(a.split("/")[1] for a in argv if a.startswith("data/"))
        for path in sorted((ROOT / "data" / db).iterdir()):
            plans += [(case, db, path.name, mutation) for mutation in MUTATIONS]
    return plans


@contextlib.contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no exit within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _run(argv):
    """Exit code and standard error of one in-process run, or the exception."""
    err = io.StringIO()
    try:
        with _deadline(SECONDS_PER_RUN), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            return main(argv), err.getvalue()
    except (Exception, SystemExit) as exc:  # noqa: BLE001 -- an escape is the finding
        return exc, err.getvalue()


def _reported(code, err):
    lines = err.splitlines()
    if code == 0:
        return not lines
    return code in (2, 3) and (
        len(lines) == 1 and lines[0].startswith("error: ")
        or len(lines) == 3 and lines[-1].strip() == "^")


def test_no_mutation_ends_outside_the_exit_code_contract(tmp_path):
    rng = random.Random(SEED)
    plans = rng.sample(_plans(), RUNS)
    copies = {}
    bad = []
    for case, db, name, mutation in plans:
        if db not in copies:
            copies[db] = shutil.copytree(ROOT / "data" / db, tmp_path / db)
        path = copies[db] / name
        original = path.read_bytes()
        path.write_text(MUTATIONS[mutation](original.decode("utf-8"), rng), encoding="utf-8")
        try:
            code, err = _run([a.replace(f"data/{db}", str(copies[db])) for a in CASES[case]])
        finally:
            path.write_bytes(original)
        if not _reported(code, err):
            bad.append((case, name, mutation, code, err))
    assert bad == []
