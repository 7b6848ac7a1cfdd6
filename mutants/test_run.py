"""Checks of the mutation runner itself.

    python3 -m pytest mutants

A stale entry and a surviving mutant each fail the runner; every entry of
the catalogue is current; and the copy's tests import the copy's package
while the caller's PYTHONPATH stays on the path after it.
"""
from __future__ import annotations

import importlib.util
import os
import subprocess
from pathlib import Path

from catalogue import CATALOGUE, Mutant

# loaded under its own name: perfbench/run.py is imported as "run"
_spec = importlib.util.spec_from_file_location(
    "mutants_run", Path(__file__).resolve().parent / "run.py")
runner = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(runner)


def test_catalogue_is_current():
    assert runner.stale(CATALOGUE) == []
    assert len({m.name for m in CATALOGUE}) == len(CATALOGUE)


def test_stale_entry_fails_the_runner(capsys):
    missing = Mutant("missing", "src/franel/registry.py", "no such text", "",
                     "tests/test_reports.py")
    twice = Mutant("twice", "src/franel/congruences.py", "    if p <= 3:", "    if p < 3:",
                   "tests/test_congruences.py")
    assert runner.run([missing, twice]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "stale    missing: old text occurs 0 times in src/franel/registry.py",
        "stale    twice: old text occurs 2 times in src/franel/congruences.py",
    ]


def test_survivor_fails_the_runner(capsys):
    # a docstring edit that no test can see
    survivor = Mutant(
        "docstring", "src/franel/reports.py",
        '"""Verification report records and their serialization.',
        '"""Verification records and their serialization.',
        "tests/test_reports.py::test_serialized_form_is_pinned",
    )
    assert runner.run([survivor]) == 1
    assert "SURVIVED docstring" in capsys.readouterr().out


def test_copy_src_goes_in_front_of_inherited_pythonpath(tmp_path, monkeypatch):
    inherited = os.pathsep.join([str(tmp_path / "site-a"), str(tmp_path / "site-b")])
    monkeypatch.setenv("PYTHONPATH", inherited)
    seen = {}

    def run(argv, **kwargs):
        seen.update(kwargs["env"])
        return subprocess.CompletedProcess(argv, 0)

    monkeypatch.setattr(runner.subprocess, "run", run)
    assert not runner.pytest_fails(tmp_path, "tests/test_reports.py")
    assert seen["PYTHONPATH"].split(os.pathsep) == [
        str(tmp_path / "src"), str(tmp_path / "site-a"), str(tmp_path / "site-b")]
    assert seen["PYTHONDONTWRITEBYTECODE"] == "1"

    monkeypatch.delenv("PYTHONPATH")
    runner.pytest_fails(tmp_path, "tests/test_reports.py")
    assert seen["PYTHONPATH"] == str(tmp_path / "src")
