"""Sweep engine: runs statement grids serially or across worker processes.

run_sweep is the one place that decides whether a sweep request is valid
(the CLI parses only its syntax): it works out each requested statement's
cells once, and raises UsageError (the CLI's exit 2) before any output if
the request cannot run.

The grid is cut into jobs (one per cell serially, otherwise about four
per pool process and statement).  A pool starts at most as many processes
as the CPUs this process may run on, however many workers are asked for:
all of them at its first submit under the fork start method, at most one
per submit under forkserver and spawn.  Each job counts its records by
verdict and serializes them in the process that computed them, as one
string joined from its lines, so a pool sends back text and counts, never
report objects.  run_sweep makes one list of jobs and maps the same job
function over it, serially or on the pool; the parent takes the results
in the order of that list, at any worker count, pairs each with its job's
statement by that order, adds up counts and writes each job's text with
one call.  A serial sweep holds one cell's records at a time; a pool's
parent holds a finished job's text only until every job before it is
written.  If writing fails (a reader that closed stdout, say), the pool's
jobs not yet started are cancelled, not run.  If a pool process dies,
each cell of each job not yet written gets one error record
(registry.error_report), so the sweep still ends in a summary and exits 1.

Workers share nothing mutable.  Each process builds its own caches on
first use: the Franel, central-binomial and C(3k,k) tables, the family
walk's one state per base, the zw prefix tables, the third-conjecture
record templates and the lru_cache memos.  Each holds
values of a pure function, so the record stream, the summary and the
first failing or error line are identical for any worker count.

A check that raises at a cell gives that cell one error record
(registry.run_cell), so a sweep runs its whole grid either way; the
registry alone makes error records, and this module counts and writes them.

The process pool (concurrent.futures and multiprocessing) is imported only
when a pool starts, so a serial sweep never loads it.
"""
from __future__ import annotations

import os
from itertools import repeat
from typing import Iterable, TextIO

from . import registry
from .reports import FORMATTERS, VERDICTS, Report, serialize


def _empty_counts() -> dict:
    return dict.fromkeys((*VERDICTS, "error"), 0)


def _job_result(
    reports: Iterable[Report], fmt: str, stream: bool
) -> tuple[dict, str, str | None]:
    """(counts by verdict, the record lines as one string, empty unless
    stream, and the first failing or error line or None)."""
    counts = _empty_counts()
    first_failure = None
    lines = []
    for r in reports:
        verdict = r.verdict
        counts[verdict] += 1
        if verdict in ("fail", "error") and first_failure is None:
            first_failure = serialize(r, fmt)
        if stream:
            lines.append(serialize(r, fmt) + "\n")
    return counts, "".join(lines), first_failure


def _run_job(
    statement_id: str, cells: list[int], fmt: str, stream: bool
) -> tuple[dict, str, str | None]:
    """Run one job's cells and return its _job_result."""
    return _job_result(registry.run_cells(statement_id, cells), fmt, stream)


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
    failing or error record of the stream, serialized in fmt; every count
    dict also has an error count when the sweep has an error record.  When
    out is given, every record is written to it as a line in fmt; the
    stream is the same, byte for byte, at any worker count.
    """
    if workers < 1:
        raise UsageError("workers must be positive")
    if fmt not in FORMATTERS:
        raise UsageError(
            f"unknown format {fmt!r}; known formats: {', '.join(FORMATTERS)}"
        )
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

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    procs = min(workers, cpus)

    sids: list[str] = []
    chunks: list[list[int]] = []
    for sid, cells in statement_cells:
        size = max(1, len(cells) // (procs * 4)) if workers > 1 else 1
        for i in range(0, len(cells), size):
            sids.append(sid)
            chunks.append(cells[i : i + size])

    counts: dict[str, dict] = {sid: _empty_counts() for sid, _ in statement_cells}
    stream = out is not None
    first_failure = None
    absorbed = 0

    def absorb(results: Iterable[tuple[dict, str, str | None]]) -> None:
        # the one result loop: the i-th result is the i-th job's
        nonlocal first_failure, absorbed
        for job_counts, text, failure in results:
            sid_counts = counts[sids[absorbed]]
            for key, value in job_counts.items():
                sid_counts[key] += value
            if text:
                out.write(text)
            if first_failure is None:
                first_failure = failure
            absorbed += 1

    job_args = (sids, chunks, repeat(fmt), repeat(stream))
    if workers == 1:
        absorb(map(_run_job, *job_args))
    else:
        # imported only here, so that a serial sweep never loads the pool
        # stack (multiprocessing, socket, selectors, pickle, logging)
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # fork starts every worker at the first submit, forkserver and spawn
        # one per submit up to max_workers, and map submits every job at once:
        # either way no more processes start than there are jobs
        pool = ProcessPoolExecutor(max_workers=min(procs, len(sids)))
        try:
            absorb(pool.map(_run_job, *job_args))
        except BrokenProcessPool as exc:
            # a worker died: every cell of every job not yet absorbed gets
            # one error record
            absorb(
                _job_result([registry.error_report(sid, cell, exc) for cell in cells],
                            fmt, stream)
                for sid, cells in zip(sids[absorbed:], chunks[absorbed:])
            )
        finally:
            # if absorb raised (say, on a closed stdout), drop the jobs not
            # yet started instead of running the rest of the grid
            pool.shutdown(cancel_futures=True)

    total = _empty_counts()
    for c in counts.values():
        for key in total:
            total[key] += c[key]
    if not total["error"]:
        for c in (*counts.values(), total):
            del c["error"]
    return {
        "statements": {sid: counts[sid] for sid in sorted(counts)},
        "total": total,
        "first_failure": first_failure,
    }
