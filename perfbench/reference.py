"""Write reference.json: the summary of every workload and of the set-up
grid, plus the record digest of each streamed workload, from one sweep of
the current code.

    python3 perfbench/reference.py

Every benchmark sweep is gated against this file, so regenerate it only on
a commit whose records are trusted, and only when the records are meant to
change.
"""
from __future__ import annotations

import json
import sys
import time

from run import (
    CLI_ENTRY, OUT_DIR, REFERENCE_PATH, WORKLOADS, read_output, spawn_timed,
    stream_digest, sweep_argv,
)


def reference_entry(argv: list[str], streamed: bool) -> dict:
    stdout, stderr = OUT_DIR / "reference.stdout", OUT_DIR / "reference.stderr"
    sample = spawn_timed([sys.executable, "-c", CLI_ENTRY, *argv], stdout, stderr,
                         time.monotonic() + 600)
    summary, records = read_output(stdout)
    if sample.returncode != 0 or summary is None:
        raise SystemExit(f"sweep {argv} failed: exit {sample.returncode}")
    entry = {"summary": summary}
    if streamed:
        entry["digest"] = stream_digest(records)
    stdout.unlink()
    return entry


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    reference = {
        name: reference_entry(sweep_argv(w, seed=0), w.streamed)
        for name, w in WORKLOADS.items()
    }
    reference["setup"] = reference_entry(
        sweep_argv(WORKLOADS["grid-quiet"], seed=0, setup=True), streamed=False
    )
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
