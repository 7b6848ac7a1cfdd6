"""Run the benchmark over several seeds and print, per end-to-end metric,
the median and the interquartile spread as a share of the median.

    python3 perfbench/spread.py --workload grid-quiet --seeds 1-10 [--seconds 24]

The spread of every metric except setup_s must stay within its bound in
BENCHMARK.json for the benchmark to be steady on this machine.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH_DIR, ROOT


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range LO-HI")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    lo, hi = map(int, args.seeds.split("-"))

    values: dict[str, list[float]] = {}
    for seed in range(lo, hi + 1):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        line = json.loads(done.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()),
              flush=True)
        for name, metric in line["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for m in spec["end_to_end"]:
        vals = values.get(m["name"], [])
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        print(f"{m['name']:>14}: median {med:.4g} {m['unit']}, spread {spread:.3f} "
              f"(bound {m['bound']}, {'ok' if spread < m['bound'] / 3 else 'WIDE'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
