"""Command-line harness: compute tables, run statements over their
ranges, and manage the on-disk Franel cache.

Each thing is done one way.  `compute` prints f_n; `cache` alone writes
a cache file, and validates one; `sweep` alone runs statements (the
`route_agreement` statement compares the Franel routes), and parses only
the syntax of a request, leaving run_sweep to judge it.

Exit codes: 0 all pass, 1 mathematical failure, error record or corrupt
cache, 2 usage/configuration error, 141 stdout closed by its reader (as in
`franel sweep | head -1`).  Reports stream to stdout, one record per
line; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import os
import sys

from .cache import CacheError, load_table, store_table
from .combinatorics import franel_upto
from .harness import UsageError, run_sweep
from .reports import FORMATTERS, long_decimals

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


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own print_help drops an OSError, so an unbuffered
        # stdout closed by its reader would exit 0, not 141; stdout is None
        # when fd 1 was closed at startup, and the help then goes nowhere
        file = file or sys.stdout
        if file is not None:
            file.write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="franel",
        description="Exact computation and verification of Franel-number "
        "identities, congruences, and conjectures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print (n, f_n) for a range")
    p_compute.add_argument("--n-range", type=_parse_n_range, required=True)

    p_sweep = sub.add_parser("sweep", help="run statements over their ranges")
    p_sweep.add_argument("--statements",
                         help="comma-separated statement ids (default: all)")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="emit only the summary, not per-cell records")
    p_sweep.add_argument("--n-range", type=_parse_range)
    p_sweep.add_argument("--p-range", type=_parse_range)
    p_sweep.add_argument("--format", default="json-lines",
                         help=f"one of: {', '.join(FORMATTERS)}")
    p_sweep.add_argument("--workers", type=int, default=1)

    p_cache = sub.add_parser("cache", help="build or validate a cache file")
    p_cache.add_argument("--cache", metavar="PATH", required=True)
    p_cache.add_argument("--n-range", type=_parse_n_range,
                         help="build f_0..f_HI and write (LO must be 0)")

    return parser


@long_decimals()  # the one command that prints f_n, past 4300 digits, itself
def _cmd_compute(args) -> int:
    lo, hi = args.n_range
    table = franel_upto(hi)
    for n in range(lo, hi + 1):
        print(f"{n} {table[n]}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    """run_sweep decides whether the request is valid, and its UsageError
    is exit 2."""
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
            out=None if args.quiet else sys.stdout,
        )
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(FORMATTERS[args.format].summary(summary))
    total = summary["total"]
    if total["fail"] or "error" in total:
        counts = f"{total['fail']} failing record(s)"
        if "error" in total:
            counts += f", {total['error']} error record(s)"
        print(f"FAILED: {counts}; first: {summary['first_failure']}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _cmd_cache(args) -> int:
    if args.n_range is not None:
        lo, hi = args.n_range
        if lo != 0:
            print("error: cache files start at index 0", file=sys.stderr)
            return EXIT_USAGE
        try:
            store_table(args.cache, franel_upto(hi))
        except OSError as exc:
            print(f"error: cannot write cache {args.cache!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"wrote franel-cache v1 N={hi}")
        return EXIT_OK
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
    try:
        try:
            args = build_parser().parse_args(argv)
            # no digit limit lifted here: a sweep takes run_sweep's own path
            if args.command == "compute":
                code = _cmd_compute(args)
            elif args.command == "sweep":
                code = _cmd_sweep(args)
            else:
                code = _cmd_cache(args)
        finally:
            # here, not at exit, so that a closed stdout is caught below, also
            # after --help, which exits inside parse_args; stdout is None when
            # fd 1 was closed at startup
            if sys.stdout is not None:
                sys.stdout.flush()
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
