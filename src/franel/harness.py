"""Sweep engine: runs statement grids serially or across worker processes.

run_sweep is the one place that decides whether a sweep request is valid:
it works out each requested statement's cells once, and raises UsageError
(the CLI's exit 2) before any output if the request cannot run.

The grid is cut into jobs (one per cell serially, otherwise about four
per worker and statement).  Each job counts its records by verdict and
serializes them in the process that computed them, as one string joined
from its lines, so a pool sends back text and counts, never report
objects.  The parent takes the jobs' results in the order it made the
jobs, at any worker count: it adds up counts and writes each job's text
with one call.  A serial sweep holds one cell's records at a time; a
pool's parent holds a finished job's text only until every job before it
is written.  If writing fails (a reader that closed stdout, say), the
pool's jobs not yet started are cancelled, not run.

Workers share nothing mutable; each process rebuilds the (cheap) Franel and
central-binomial caches on first use.  The record stream, the summary and
the first failing line are therefore identical for any worker count.

The process pool (concurrent.futures and multiprocessing) is imported only
when a pool starts, so a serial sweep never loads it.
"""
from __future__ import annotations

from itertools import repeat
from typing import Iterable, TextIO

from . import registry
from .reports import FORMATTERS, VERDICTS, serialize


def _empty_counts() -> dict:
    return dict.fromkeys(VERDICTS, 0)


def _run_job(
    statement_id: str, cells: list[int], fmt: str, stream: bool
) -> tuple[str, dict, str, str | None]:
    """Run one job: (statement id, counts by verdict, its record lines as
    one string, empty unless stream, and its first failing line or None)."""
    reports = registry.run_cells(statement_id, cells)
    reports.reverse()  # popped one by one: a job never holds all reports and lines
    counts = _empty_counts()
    first_failure = None
    lines = []
    while reports:
        r = reports.pop()
        verdict = r.verdict
        counts[verdict] += 1
        if verdict == "fail" and first_failure is None:
            first_failure = serialize(r, fmt)
        if stream:
            lines.append(serialize(r, fmt) + "\n")
    return statement_id, counts, "".join(lines), first_failure


class UsageError(ValueError):
    """A sweep request that cannot run: raised by run_sweep before it
    writes any record or starts any pool."""


def run_sweep(
    statement_ids: list[str] | None = None,
    n_range: tuple[int, int] | None = None,
    p_range: tuple[int, int] | None = None,
    workers: int = 1,
    fmt: str = "json-lines",
    out: TextIO | None = None,
) -> dict:
    """Run the requested statements (default: every statement) over their
    grids; n_range and p_range replace the default range of every
    requested statement on that axis.

    Raises UsageError, before any record is written or any pool started,
    for a bare string in place of the id list, an empty id list, an
    unknown or repeated id, a negative n_range, a range that no requested
    statement takes, a requested statement left with no cell, workers < 1
    or an unknown fmt.

    Returns {"statements": {id: {pass, fail, skipped}}, "total": {...},
    "first_failure": line or None}, where first_failure is the first
    failing record of the stream, serialized in fmt.  When out is given,
    every record is written to it as a line in fmt; the stream is the same,
    byte for byte, at any worker count.
    """
    if workers < 1:
        raise UsageError("workers must be positive")
    if fmt not in FORMATTERS:
        raise UsageError(f"unknown format {fmt!r}")
    if isinstance(statement_ids, str):
        raise UsageError(
            f"statement_ids must be a list of ids, not the string {statement_ids!r}"
        )
    ids = registry.statement_ids() if statement_ids is None else list(statement_ids)
    if not ids:
        raise UsageError("no statement id given")
    for sid in ids:
        if sid not in registry.STATEMENTS:
            raise UsageError(
                f"unknown statement id {sid!r}; known ids: "
                f"{', '.join(registry.statement_ids())}"
            )
        if ids.count(sid) > 1:
            raise UsageError(f"statement id {sid!r} given more than once")
    if n_range is not None and n_range[0] < 0:
        raise UsageError(f"n-range must be nonnegative, got {n_range[0]}..{n_range[1]}")
    stmts = [registry.STATEMENTS[sid] for sid in ids]
    ranges = {"n": n_range, "p": p_range}
    for kind, rng in ranges.items():
        if rng is not None and all(stmt.kind != kind for stmt in stmts):
            raise UsageError(
                f"{kind}-range is not used by any requested statement "
                f"({', '.join(ids)})"
            )
    statement_cells: list[tuple[str, list[int]]] = []
    for stmt in stmts:
        lo, hi = ranges[stmt.kind] or stmt.default_range
        cells = registry.cells_for(stmt, lo, hi)
        if not cells:
            raise UsageError(
                f"statement {stmt.id!r} has no cell in {stmt.kind}-range {lo}..{hi}"
            )
        statement_cells.append((stmt.id, cells))

    def jobs() -> Iterable[tuple[str, list[int]]]:
        # made as they are run, so a serial sweep holds no list of jobs
        for sid, cells in statement_cells:
            size = max(1, len(cells) // (workers * 4)) if workers > 1 else 1
            for i in range(0, len(cells), size):
                yield sid, cells[i : i + size]

    counts: dict[str, dict] = {sid: _empty_counts() for sid, _ in statement_cells}
    stream = out is not None

    def absorb(results: Iterable[tuple[str, dict, str, str | None]]) -> str | None:
        # the one result loop, over the jobs in the order jobs() made them
        first_failure = None
        for sid, job_counts, text, failure in results:
            for key, value in job_counts.items():
                counts[sid][key] += value
            if text:
                out.write(text)
            if first_failure is None:
                first_failure = failure
        return first_failure

    if workers == 1:
        first_failure = absorb(_run_job(sid, chunk, fmt, stream) for sid, chunk in jobs())
    else:
        # imported only here, so that a serial sweep never loads the pool
        # stack (multiprocessing, socket, selectors, pickle, logging)
        from concurrent.futures import ProcessPoolExecutor

        sids, chunks = zip(*jobs())
        # the fork start method forks every worker at the first submit
        pool = ProcessPoolExecutor(max_workers=min(workers, len(sids)))
        try:
            first_failure = absorb(
                pool.map(_run_job, sids, chunks, repeat(fmt), repeat(stream))
            )
        finally:
            # if absorb raised (say, on a closed stdout), drop the jobs not
            # yet started instead of running the rest of the grid
            pool.shutdown(cancel_futures=True)

    total = _empty_counts()
    for c in counts.values():
        for key in total:
            total[key] += c[key]
    return {
        "statements": {sid: counts[sid] for sid in sorted(counts)},
        "total": total,
        "first_failure": first_failure,
    }
