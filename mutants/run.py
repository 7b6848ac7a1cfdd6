"""Mutation check of the test suite against ``catalogue.py``.

Usage, from the root of a checkout:

    python3 mutants/run.py

The runner first checks that every entry's old text occurs exactly once
in its file.  It then copies ``src/``, ``tests/`` and ``pyproject.toml`` to
a temporary directory, checks that each named test passes on the unmutated
copy, and applies one entry at a time, running

    python -m pytest -q -x -p no:cacheprovider <test>

in the copy with byte-code writing off, so that no stale compiled file can
hide an edit.  A mutant is killed when its test fails (or runs past
TIMEOUT_S).  The exit status is 1 for a stale entry, for a test that fails
on the unmutated copy and for a mutant that survives, and 0 otherwise.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable

from catalogue import CATALOGUE, Mutant

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 600


def stale(entries: Iterable[Mutant]) -> list[str]:
    """One line for each entry whose old text does not occur exactly once."""
    lines = []
    for m in entries:
        count = (ROOT / m.file).read_bytes().count(m.old.encode())
        if count != 1:
            lines.append(f"stale    {m.name}: old text occurs {count} times in {m.file}")
    return lines


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=skip)
        else:
            shutil.copy2(ROOT / name, dest / name)


def pytest_fails(tree: Path, test: str) -> bool:
    # the copy's src goes in front of the caller's PYTHONPATH, which may be
    # where pytest itself is found
    inherited = os.environ.get("PYTHONPATH")
    path = f"{tree / 'src'}{os.pathsep}{inherited}" if inherited else str(tree / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test]
    try:
        done = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True
    return done.returncode != 0


def run(entries: list[Mutant]) -> int:
    problems = stale(entries)
    for line in problems:
        print(line)
    if problems:
        return 1
    with tempfile.TemporaryDirectory(prefix="franel-mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        tests = dict.fromkeys(m.test for m in entries)
        broken = [t for t in tests if pytest_fails(tree, t)]
        for test in broken:
            print(f"broken   {test} fails on the unmutated tree")
        if broken:
            return 1
        survivors = 0
        for m in entries:
            path = tree / m.file
            original = path.read_bytes()
            path.write_bytes(original.replace(m.old.encode(), m.new.encode()))
            started = time.monotonic()
            killed = pytest_fails(tree, m.test)
            path.write_bytes(original)
            survivors += not killed
            verdict = "killed  " if killed else "SURVIVED"
            print(f"{verdict} {m.name} by {m.test} "
                  f"({time.monotonic() - started:.1f} s)", flush=True)
    print(f"{len(entries) - survivors} of {len(entries)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(run(list(CATALOGUE)))
