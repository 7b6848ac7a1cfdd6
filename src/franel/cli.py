"""Command-line harness: compute tables, verify statements, run sweeps,
and manage the on-disk Franel cache.

Exit codes: 0 all pass, 1 mathematical failure (or corrupt cache),
2 usage/configuration error, 141 stdout closed by its reader (as in
`franel sweep | head -1`).  Reports stream to stdout, one record per
line; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import os
import sys

from .cache import CacheError, load_table, store_table
from .combinatorics import ROUTES, build_franel_table
from .harness import UsageError, run_sweep
from .reports import VERDICTS, long_decimals

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PIPE = 141  # the status a shell reports for a process stopped by SIGPIPE


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range must look like LO..HI, got {text!r}"
        ) from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _parse_n_range(text: str) -> tuple[int, int]:
    lo, hi = _parse_range(text)
    if lo < 0:
        raise argparse.ArgumentTypeError(f"n-range must be nonnegative, got {text!r}")
    return lo, hi


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_routes(text: str) -> list[str]:
    routes = [r.strip() for r in text.split(",") if r.strip()]
    if not routes:
        raise argparse.ArgumentTypeError(f"no route given in {text!r}")
    for r in routes:
        if r not in ROUTES:
            raise argparse.ArgumentTypeError(
                f"unknown route {r!r}; expected one of {ROUTES}"
            )
    return routes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="franel",
        description="Exact computation and verification of Franel-number "
        "identities, congruences, and conjectures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print (n, f_n) for a range")
    p_compute.add_argument("--n-range", type=_parse_n_range, required=True)
    p_compute.add_argument("--route", type=_parse_routes, default=["recurrence"])
    p_compute.add_argument("--cross-check", action="store_true",
                           help="fail unless all requested routes agree")
    p_compute.add_argument("--cache", metavar="PATH",
                           help="also write f_0..f_HI to this cache file, "
                           "atomically replacing it")

    p_verify = sub.add_parser("verify", help="run named checks over ranges")
    p_verify.add_argument("--statements", required=True,
                          help="comma-separated statement ids")
    p_sweep = sub.add_parser("sweep", help="run the full verification grid")
    p_sweep.add_argument("--statements",
                         help="optional comma-separated subset of the grid")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="emit only the summary, not per-cell records")
    for p_run in (p_verify, p_sweep):
        p_run.add_argument("--n-range", type=_parse_n_range)
        p_run.add_argument("--p-range", type=_parse_range)
        p_run.add_argument("--format", choices=("json-lines", "tsv"),
                           default="json-lines")
        p_run.add_argument("--workers", type=_positive_int, default=1)

    p_cache = sub.add_parser("cache", help="build or validate a cache file")
    p_cache.add_argument("--cache", metavar="PATH", required=True)
    p_cache.add_argument("--n-range", type=_parse_n_range,
                         help="build f_0..f_HI and write (LO must be 0)")

    return parser


def _write_cache(path: str, table: tuple[int, ...]) -> int:
    try:
        store_table(path, table)
    except OSError as exc:
        print(f"error: cannot write cache {path!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _cmd_compute(args) -> int:
    lo, hi = args.n_range
    routes = args.route if args.cross_check else args.route[:1]
    tables = {route: build_franel_table(hi, route) for route in routes}
    primary = tables[args.route[0]]
    if args.cross_check:
        for route, table in tables.items():
            for n in range(hi + 1):
                if table[n] != primary[n]:
                    print(
                        f"error: route disagreement at n={n}: "
                        f"{args.route[0]}={primary[n]} {route}={table[n]}",
                        file=sys.stderr,
                    )
                    return EXIT_FAIL
    for n in range(lo, hi + 1):
        print(f"{n} {primary[n]}")
    return _write_cache(args.cache, primary) if args.cache else EXIT_OK


def _cmd_sweep(args) -> int:
    """verify and sweep: run_sweep decides whether the request is valid."""
    ids = None
    if args.statements is not None:
        ids = [s.strip() for s in args.statements.split(",") if s.strip()]
    try:
        summary = run_sweep(
            statement_ids=ids,
            n_range=args.n_range,
            p_range=args.p_range,
            workers=args.workers,
            fmt=args.format,
            out=None if getattr(args, "quiet", False) else sys.stdout,
        )
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _print_summary(summary, args.format)
    if summary["total"]["fail"]:
        print(
            f"FAILED: {summary['total']['fail']} failing record(s); first: "
            f"{summary['first_failure']}",
            file=sys.stderr,
        )
        return EXIT_FAIL
    return EXIT_OK


def _print_summary(summary: dict, fmt: str) -> None:
    if fmt == "json-lines":
        import json

        record = {"record_type": "summary", "statements": summary["statements"],
                  "total": summary["total"]}
        print(json.dumps(record, sort_keys=True))
    else:
        rows = [*summary["statements"].items(), ("TOTAL", summary["total"])]
        for sid, c in rows:
            print("\t".join(["summary", sid, *(str(c[v]) for v in VERDICTS)]))


def _cmd_cache(args) -> int:
    if args.n_range is not None:
        lo, hi = args.n_range
        if lo != 0:
            print("error: cache files start at index 0", file=sys.stderr)
            return EXIT_USAGE
        rc = _write_cache(args.cache, build_franel_table(hi, "recurrence"))
        if rc == EXIT_OK:
            print(f"wrote franel-cache v1 N={hi}")
        return rc
    try:
        table = load_table(args.cache)
    except CacheError as exc:
        print(f"error: corrupt cache: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"error: cannot read cache {args.cache!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"franel-cache v1 N={len(table) - 1} ok")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # compute and cache print and parse f_n past 4300 digits
        with long_decimals():
            if args.command == "compute":
                code = _cmd_compute(args)
            elif args.command in ("verify", "sweep"):
                code = _cmd_sweep(args)
            else:
                code = _cmd_cache(args)
        sys.stdout.flush()  # here, not at exit, so that a closed stdout is caught
    except BrokenPipeError:
        # the reader stopped early, which is not a failure; what is still
        # buffered for stdout goes to devnull, so the flush at exit is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
