"""Traced sweep: runs the franel CLI in this process with the public
functions of its layers wrapped at every import binding.

    python3 perfbench/tracer.py TRACE.json sweep --statements ... --workers N

Hot leaf calls (``binomial``, ``mod_inverse``, ...) get plain counters;
the other named functions get spans, aggregated in memory as calls,
inclusive seconds and self seconds (inclusive minus nested spans).  Each
``registry.run_cells`` job is a span named after its statement and is
also kept as a (statement, cells, start, end, pid) record.  Under a
process pool the forked workers hold their own counters; each worker
rewrites its state to ``TRACE.json.workers/<pid>.json`` after every job
and the parent merges those files when the sweep ends.  Nothing is
written until then, apart from those per-job worker files.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

COUNTED = (
    ("combinatorics", "binomial"),
    ("combinatorics", "binomial_generalized"),
    ("modular", "mod_inverse"),
    ("modular", "is_prime"),
)
SPANNED = (
    ("combinatorics", "franel_upto"),
    ("combinatorics", "central_binomials_upto"),
    ("combinatorics", "franel_direct"),
    ("congruences", "family_sum"),
    ("congruences", "inverse_weighted_sum_mod"),
    ("modular", "primes_in_range"),
    ("reports", "serialize"),
    ("harness", "run_sweep"),
)
# The traced CLI process; forked pool workers have other pids.
MAIN_PID = os.getpid()


class Tracer:
    def __init__(self, worker_dir: Path):
        self.worker_dir = worker_dir
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.result_bytes = 0
        self.jobs: list[tuple] = []
        self.stack: list[list[float]] = []
        self.pid = os.getpid()

    def start_worker(self) -> None:
        """Forget the state a forked worker inherited from the parent."""
        self.calls.clear()
        self.seconds.clear()
        self.self_seconds.clear()
        self.result_bytes = 0
        self.jobs.clear()
        self.stack.clear()
        self.pid = os.getpid()

    def counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _enter(self) -> tuple[list[float], float]:
        frame = [0.0]
        self.stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, name: str, frame: list[float], t0: float) -> float:
        t1 = time.perf_counter()
        dur = t1 - t0
        self.stack.pop()
        if self.stack:
            self.stack[-1][0] += dur
        self.calls[name] += 1
        self.seconds[name] += dur
        self.self_seconds[name] += dur - frame[0]
        return t1

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, frame, t0)

        return wrapper

    def job(self, fn):
        """Wrap registry.run_cells: one span per job, named by statement."""
        from multiprocessing.reduction import ForkingPickler

        @functools.wraps(fn)
        def run_cells(statement_id, params):
            if os.getpid() != self.pid:
                self.start_worker()
            name = f"registry.{statement_id}"
            frame, t0 = self._enter()
            try:
                result = fn(statement_id, params)
            finally:
                t1 = self._exit(name, frame, t0)
            self.calls["registry.cells"] += len(params)
            self.calls["registry.records"] += len(result)
            self.jobs.append((statement_id, len(params), t0, t1, self.pid))
            # what the pool pickles to send the result back
            self.result_bytes += len(ForkingPickler.dumps(result))
            if self.pid != MAIN_PID:
                self.worker_dir.mkdir(exist_ok=True)
                (self.worker_dir / f"{self.pid}.json").write_text(json.dumps(self.state()))
            return result

        return run_cells

    def state(self) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "result_bytes": self.result_bytes,
            "jobs": self.jobs,
        }


def install(tracer: Tracer) -> None:
    """Replace each target at every binding in the loaded franel modules,
    including module-level dicts of functions such as the route table."""
    modules = [m for n, m in sys.modules.items() if n == "franel" or n.startswith("franel.")]
    wrappers = {}
    for mod, name in COUNTED:
        fn = getattr(sys.modules[f"franel.{mod}"], name)
        wrappers[id(fn)] = tracer.counted(f"{mod}.{name}", fn)
    for mod, name in SPANNED:
        fn = getattr(sys.modules[f"franel.{mod}"], name)
        wrappers[id(fn)] = tracer.spanned(f"{mod}.{name}", fn)
    run_cells = sys.modules["franel.registry"].run_cells
    wrappers[id(run_cells)] = tracer.job(run_cells)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
            elif isinstance(value, dict):
                for key, item in value.items():
                    if id(item) in wrappers:
                        value[key] = wrappers[id(item)]


def merge(states: list[dict]) -> dict:
    out = {"calls": Counter(), "seconds": Counter(), "self_seconds": Counter(),
           "result_bytes": 0, "jobs": []}
    for s in states:
        for key in ("calls", "seconds", "self_seconds"):
            out[key].update(s[key])
        out["result_bytes"] += s["result_bytes"]
        out["jobs"].extend(s["jobs"])
    return {k: dict(v) if isinstance(v, Counter) else v for k, v in out.items()}


def per_layer_metrics(layers: dict, statement_ids, workers: int, wall_s: float,
                      output_bytes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json from a merged trace.

    A layer that did no work on this workload reads 0.  The registry spans
    divided by the worker count, plus harness.remainder_s, equal the traced
    sweep's wall time, so time outside every statement shows as remainder.
    """
    calls, seconds = layers["calls"], layers["seconds"]
    m: dict[str, tuple[float, str]] = {}
    for mod, name in COUNTED:
        m[f"{mod}.{name}.calls"] = (calls.get(f"{mod}.{name}", 0), "count")
    for mod, name in SPANNED:
        key = f"{mod}.{name}"
        m[f"{key}.s"] = (seconds.get(key, 0.0), "s")
        m[f"{key}.calls"] = (calls.get(key, 0), "count")
    statement_s = 0.0
    for sid in statement_ids:
        s = seconds.get(f"registry.{sid}", 0.0)
        m[f"registry.{sid}.s"] = (s, "s")
        statement_s += s
    m["registry.cells"] = (calls.get("registry.cells", 0), "count")
    m["registry.records"] = (calls.get("registry.records", 0), "count")
    m["reports.output_bytes"] = (output_bytes, "bytes")
    m["harness.jobs"] = (len(layers["jobs"]), "count")
    m["harness.result_bytes"] = (layers["result_bytes"], "bytes")
    m["harness.longest_job_s"] = (max((j[3] - j[2] for j in layers["jobs"]), default=0.0), "s")
    m["harness.remainder_s"] = (wall_s - statement_s / workers, "s")
    m["trace.wall_s"] = (wall_s, "s")
    return m


def main(argv: list[str]) -> int:
    trace_path = Path(argv[0])
    worker_dir = Path(f"{trace_path}.workers")
    for stale in worker_dir.glob("*.json"):
        stale.unlink()

    import franel.cli

    tracer = Tracer(worker_dir)
    install(tracer)
    try:
        return franel.cli.main(argv[1:])
    finally:
        sys.stdout.flush()
        states = [tracer.state()]
        for path in sorted(worker_dir.glob("*.json")):
            states.append(json.loads(path.read_text()))
            path.unlink()
        if worker_dir.exists():
            worker_dir.rmdir()
        trace_path.write_text(json.dumps(merge(states)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
