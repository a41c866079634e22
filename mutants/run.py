"""Run the mutants of table.py and report which the tests kill.

    python3 mutants/run.py [NAME ...]

With no names every row runs. For each row the runner copies src/, tests/,
perfbench/ (which tests/test_route_ledger.py imports) and pyproject.toml
to a temporary directory, checks that the snippet occurs exactly once in
its file, applies the replacement and runs the row's tests there with
Tier-1's pytest settings (pyproject.toml), with -x so the first failure
ends the run. The mutant is killed when they fail. Before any mutant, the
tests of the rows to run must pass on the unchanged copy, or no kill
would mean anything.

It prints one line per mutant with the time taken, and exits 1 when a
mutant survives or a row is stale: its snippet is not found exactly once,
its CHANGES.md phrase is missing, or it names a test file or a test that
is gone. A stale row is reported by name and left out of every run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from table import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120  # a mutant that hangs its tests counts as killed


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(tree: Path, tests) -> tuple[bool, str]:
    """Whether the tests pass in tree, and the tail of their output."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *tests]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = (done.stdout + done.stderr).strip().splitlines()
    return done.returncode == 0, lines[-1] if lines else ""


def collected(tree: Path, files) -> set[str]:
    """The pytest node ids that the test files collect in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "--collect-only",
           "-p", "no:cacheprovider", *files]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if done.returncode != 0:
        lines = (done.stdout + done.stderr).strip().splitlines()
        raise SystemExit(f"the tests fail to collect: {lines[-1] if lines else ''}")
    return {line for line in done.stdout.splitlines() if "::" in line}


def stale_reason(row, changes: str, ids: set[str]) -> str | None:
    text = (ROOT / "src" / "ncfsieve" / row.file).read_text()
    found = text.count(row.snippet)
    if found != 1:
        return f"snippet found {found} times in {row.file}"
    if row.changes not in changes:
        return f"CHANGES.md has no {row.changes!r}"
    for test in row.tests:
        if not (ROOT / test.split("::")[0]).is_file():
            return f"no test file {test}"
        # a parametrized test collects as test[id]
        if "::" in test and not any(i == test or i.startswith(test + "[") for i in ids):
            return f"no test {test}"
    return None


def main(names: list[str]) -> int:
    rows = [r for r in MUTANTS if not names or r.name in names]
    unknown = set(names) - {r.name for r in rows}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}")
        return 1
    changes = (ROOT / "CHANGES.md").read_text()
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        files = sorted({t.split("::")[0] for r in rows for t in r.tests
                        if (ROOT / t.split("::")[0]).is_file()})
        ids = collected(base, files)
        fresh = []
        for row in rows:
            reason = stale_reason(row, changes, ids)
            if reason is None:
                fresh.append(row)
            else:
                print(f"STALE     {row.name}: {reason}")
                bad += 1
        tests = sorted({t for r in fresh for t in r.tests})
        ok, tail = run_tests(base, tests) if tests else (True, "")
        if not ok:
            print(f"the tests fail with no mutant: {tail}")
            return 1
        for row in fresh:
            tree = Path(tmp) / row.name
            copy_tree(tree)
            path = tree / "src" / "ncfsieve" / row.file
            path.write_text(path.read_text().replace(row.snippet, row.replacement))
            t0 = time.perf_counter()
            survived, tail = run_tests(tree, row.tests)
            elapsed = time.perf_counter() - t0
            verdict = "SURVIVED" if survived else "killed"
            print(f"{verdict:9} {row.name} ({elapsed:.1f} s): {tail}")
            bad += survived
            shutil.rmtree(tree)
    print(f"{len(rows) - bad} of {len(rows)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
