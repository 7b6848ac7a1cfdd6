"""End-to-end benchmark of the ``franel sweep`` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-quiet --seed 1 --seconds 26 --trace 0

The benchmark drives the CLI from outside, one sweep at a time, with the
package imported from ``src/`` of the same checkout.  Every sweep is
gated on correctness (exit code, summary counts and, where records are
streamed, the digest of the sorted record lines, all against
``reference.json``); a sweep that fails the gate is counted as failed and
its timing is left out of the medians.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
also runs one sweep under ``tracer.py`` and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A detailed record
(environment, every sample, the full trace) goes to ``perfbench/out/``.

NOTES.md lists the workloads, what each metric should move, and what is
deliberately not measured.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

# The installed ``franel`` console script calls exactly this.
CLI_ENTRY = "import sys; from franel.cli import main; sys.exit(main())"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 9
# A run must end within 180 s; sweeps still going at this point are killed.
HARD_LIMIT_S = 160.0


@dataclass(frozen=True)
class Workload:
    statements: tuple[str, ...]
    flags: tuple[str, ...]
    p_range: str | None = None
    streamed: bool = False

    @property
    def workers(self) -> int:
        return int(self.flags[self.flags.index("--workers") + 1])


GRID = tuple(
    "babbage central_pmod conjecture1 conjecture2 family_new1 family_new2 "
    "fermat_square final_reflect half_binom induction integrality "
    "jarvis_verrill macmahon morley multinomial partial_fraction "
    "product_note recurrence reduction_chain route_agreement strehl "
    "summation_lemma sun_expansion theorem1 theorem2 theorem3 "
    "third_conjecture zw_guo zw_strengthened".split()
)

WORKLOADS = {
    "grid-quiet": Workload(GRID, ("--quiet", "--workers", "1")),
    "grid-stream": Workload(
        GRID, ("--format", "json-lines", "--workers", str(NPROC)), streamed=True
    ),
    "prime-axis": Workload(
        ("theorem2", "theorem3", "conjecture1", "conjecture2"),
        ("--quiet", "--workers", "1"),
        p_range="3..3000",
    ),
}

# The one-cell grid that measures set-up: imports, registry, pool start.
SETUP_STATEMENTS = ("morley",)
SETUP_P_RANGE = "5..5"


def sweep_argv(w: Workload, seed: int, setup: bool = False, reverse: bool = False) -> list[str]:
    """CLI arguments for one sweep.  The seed permutes only the order of
    the --statements list, so records and counts do not depend on it;
    ``reverse`` takes that permutation backwards."""
    if setup:
        ids, p_range = list(SETUP_STATEMENTS), SETUP_P_RANGE
    else:
        ids, p_range = list(w.statements), w.p_range
        random.Random(seed).shuffle(ids)
        if reverse:
            ids.reverse()
    argv = ["sweep", "--statements", ",".join(ids), *w.flags]
    if p_range is not None:
        argv += ["--p-range", p_range]
    return argv


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn_timed(cmd: list[str], stdout: Path, stderr: Path, deadline: float) -> Sample:
    """Run cmd to completion and return its wall time and the resource use
    of its whole process tree (wait4 covers the children it waited for;
    ru_maxrss is the largest single process).  Killed at the deadline."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            env=child_env(), cwd=ROOT, process_group=0,
        )
        # The child leads its own process group, so killing the group
        # also stops any pool workers it started.
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        returncode=proc.returncode,
    )


def stream_digest(lines: list[bytes]) -> str:
    """sha256 of the sorted record lines, each followed by a newline."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line)
        h.update(b"\n")
    return h.hexdigest()


def read_output(stdout: Path) -> tuple[dict | None, list[bytes]]:
    """(summary, record lines) of one sweep's standard output."""
    lines = stdout.read_bytes().splitlines()
    if not lines:
        return None, []
    try:
        summary = json.loads(lines[-1])
    except ValueError:
        return None, lines
    if not isinstance(summary, dict) or summary.get("record_type") != "summary":
        return None, lines
    return {k: summary.get(k) for k in ("statements", "total")}, lines[:-1]


def gate(sample: Sample, stdout: Path, expect: dict, streamed: bool) -> list[str]:
    """Reasons this sweep is wrong; empty when it passes."""
    problems = []
    if sample.returncode != 0:
        problems.append(f"exit code {sample.returncode}")
    summary, records = read_output(stdout)
    if summary is None:
        problems.append("no summary line")
    elif summary != expect["summary"]:
        problems.append(f"summary {summary['total']} != reference {expect['summary']['total']}")
    if streamed:
        digest = stream_digest(records)
        if digest != expect["digest"]:
            problems.append(f"record digest {digest} != reference {expect['digest']}")
    return problems


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


ENV_PROBE = (
    "import json, multiprocessing, sys, franel.cli; print(json.dumps({"
    "'franel': franel.cli.__file__, 'python': sys.version.split()[0], "
    "'int_max_str_digits': sys.get_int_max_str_digits(), "
    "'start_method': multiprocessing.get_start_method()}))"
)


def environment() -> dict:
    """What the sweeps run on, from a child with the sweeps' interpreter
    and path.  Also imports the CLI once, so byte-code is compiled before
    anything is timed."""
    done = subprocess.run(
        [sys.executable, "-c", ENV_PROBE], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    env = json.loads(done.stdout)
    if not Path(env.pop("franel")).resolve().is_relative_to(SRC):
        raise RuntimeError("franel was not imported from this checkout's src/")
    env.update(
        nproc=NPROC,
        machine=platform.machine(),
        git_commit=git_commit(),
    )
    return env


BINOMIAL_PROBE = (
    "import time; from franel.combinatorics import binomial; "
    "t = time.perf_counter(); binomial(2048, 1024); "
    "print(time.perf_counter() - t)"
)


def binomial_first_call_s() -> float:
    """Time of binomial(2048, 1024) in a fresh process: the Pascal build."""
    done = subprocess.run(
        [sys.executable, "-c", BINOMIAL_PROBE], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


class Runner:
    """Runs gated sweeps of one workload and keeps every sample."""

    def __init__(self, name: str, seed: int, reference: dict, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.reference = reference
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[dict] = []
        self.stdout = OUT_DIR / f"{name}.stdout"
        self.stderr = OUT_DIR / f"{name}.stderr"

    def sweep(self, cmd_prefix: list[str], setup: bool = False,
              reverse: bool = False) -> Sample | None:
        """One gated sweep; None when it failed the gate."""
        argv = sweep_argv(self.workload, self.seed, setup=setup, reverse=reverse)
        expect = self.reference["setup" if setup else self.name]
        self.attempted += 1
        sample = spawn_timed(cmd_prefix + argv, self.stdout, self.stderr, self.deadline)
        problems = gate(sample, self.stdout, expect, self.workload.streamed and not setup)
        if problems:
            self.failures.append({
                "argv": argv, "problems": problems,
                "stderr": self.stderr.read_text(errors="replace")[-2000:],
            })
            return None
        return sample

    def cli_sweep(self, setup: bool = False, reverse: bool = False) -> Sample | None:
        return self.sweep([sys.executable, "-c", CLI_ENTRY], setup=setup, reverse=reverse)


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics: set-up on the one-cell grid, then full sweeps
    until ``seconds`` have passed and at least two ran; medians over the
    sweeps that passed, except peak_rss_mb, which is their largest.

    The sweeps alternate the seed's statement order and its reverse.  Which
    statement pays a lazy table build, and which transient records coexist
    with it, depends on that order: the grid's peak RSS is 216 MB when
    multinomial (which builds Pascal rows to 1496) runs before
    third_conjecture (95,760 records held at once) and 177 MB otherwise.
    Both orders of every pair of statements run in each run, so a run
    measures the same peak whatever the seed.
    """
    setups = [runner.cli_sweep(setup=True) for _ in range(SETUP_REPEATS)]
    sweeps = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        sweeps.append(runner.cli_sweep(reverse=len(sweeps) % 2 == 1))
        now = time.monotonic()
        if now + (now - t0) > runner.deadline:
            break
        if len(sweeps) >= 2 and now - start >= seconds:
            break
    ok_setups = [s for s in setups if s is not None]
    ok_sweeps = [s for s in sweeps if s is not None]
    records = sum(runner.reference[runner.name]["summary"]["total"].values())
    metrics = {}
    if ok_sweeps:
        wall = statistics.median(s.wall_s for s in ok_sweeps)
        metrics.update(
            wall_s=(wall, "s"),
            records_per_s=(records / wall, "1/s"),
            cpu_s=(statistics.median(s.cpu_s for s in ok_sweeps), "s"),
            peak_rss_mb=(max(s.peak_rss_mb for s in ok_sweeps), "MB"),
        )
    if ok_setups:
        metrics["setup_s"] = (statistics.median(s.wall_s for s in ok_setups), "s")
    return {
        "metrics": metrics,
        "samples": {
            "setup": [vars(s) if s else None for s in setups],
            "sweeps": [vars(s) if s else None for s in sweeps],
        },
    }


def trace(runner: Runner, untraced_wall_s: float | None) -> dict:
    """Per-layer metrics from one sweep run under tracer.py."""
    import tracer

    trace_path = OUT_DIR / f"{runner.name}.trace.json"
    trace_path.unlink(missing_ok=True)
    sample = runner.sweep([sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path)])
    if sample is None:
        return {"metrics": {}, "trace": None}
    layers = json.loads(trace_path.read_text())
    metrics = tracer.per_layer_metrics(
        layers, GRID, runner.workload.workers, sample.wall_s,
        runner.stdout.stat().st_size,
    )
    metrics["combinatorics.binomial.first_call_s"] = (binomial_first_call_s(), "s")
    if untraced_wall_s is not None:
        metrics["trace.overhead_s"] = (sample.wall_s - untraced_wall_s, "s")
    return {"metrics": metrics, "trace": layers, "traced_sample": vars(sample)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # Turn SIGTERM into SystemExit, so the running sweep is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "franel" / "cli.py").is_file():
        print(f"error: no franel sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE_PATH.read_text())
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    runner = Runner(args.workload, args.seed, reference, started + HARD_LIMIT_S)

    result = measure(runner, args.seconds)
    if args.trace:
        wall = result["metrics"].get("wall_s", (None,))[0]
        result = {"end_to_end": result, **trace(runner, wall)}
    runner.stdout.unlink(missing_ok=True)
    runner.stderr.unlink(missing_ok=True)

    expected = "per_layer" if args.trace else "end_to_end"
    with open(ROOT / "BENCHMARK.json") as f:
        names = [m["name"] for m in json.load(f)[expected]]
    missing = [n for n in names if n not in result["metrics"]]
    line = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {
            n: {"value": v, "unit": u}
            for n, (v, u) in result["metrics"].items()
            if n in names
        },
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "failures": runner.failures,
        "missing_metrics": missing, **result,
    }
    detail_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1, default=str) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    for failure in runner.failures:
        print("FAILED " + json.dumps(failure["problems"]), file=sys.stderr)
    print(f"detail {detail_path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
