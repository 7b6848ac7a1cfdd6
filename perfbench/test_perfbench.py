"""Determinism checks the benchmark relies on, run from outside the CLI.

    python3 -m pytest perfbench

Each check streams the full default grid (about 10 s a sweep on 2 cores).
"""
from __future__ import annotations

import functools
import json
import sys
import time

from run import (
    CLI_ENTRY, NPROC, OUT_DIR, REFERENCE_PATH, WORKLOADS, Workload, read_output,
    spawn_timed, stream_digest, sweep_argv,
)

REFERENCE = json.loads(REFERENCE_PATH.read_text())["grid-stream"]
# At least two workers, so the pool path is compared even on one core.
POOL = max(NPROC, 2)


@functools.cache
def streamed_grid(workers: int, seed: int) -> tuple[dict, str]:
    """(summary, record digest) of one streamed full-grid sweep."""
    flags = ("--format", "json-lines", "--workers", str(workers))
    w = Workload(WORKLOADS["grid-stream"].statements, flags, streamed=True)
    OUT_DIR.mkdir(exist_ok=True)
    stdout = OUT_DIR / f"test-{workers}-{seed}.stdout"
    stderr = OUT_DIR / f"test-{workers}-{seed}.stderr"
    sample = spawn_timed([sys.executable, "-c", CLI_ENTRY, *sweep_argv(w, seed)],
                         stdout, stderr, time.monotonic() + 600)
    assert sample.returncode == 0, stderr.read_text()
    summary, records = read_output(stdout)
    stdout.unlink()
    stderr.unlink()
    return summary, stream_digest(records)


def test_digest_same_at_one_and_nproc_workers():
    assert streamed_grid(1, seed=1) == streamed_grid(POOL, seed=1)


def test_digest_and_counts_do_not_depend_on_seed():
    assert streamed_grid(POOL, seed=1) == streamed_grid(POOL, seed=2)
    assert streamed_grid(POOL, seed=1) == (REFERENCE["summary"], REFERENCE["digest"])
