import concurrent.futures
import dataclasses
import functools
import hashlib
import io
import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import weakref
from concurrent.futures import Future
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from franel import cli, congruences, harness, identities, registry, reports
from franel.cache import CacheError, load_table, store_table
from franel.cli import main
from franel.combinatorics import InconsistencyError, franel, franel_upto
from franel.harness import UsageError, run_sweep
from franel.modular import NotCoprimeError
from franel.reports import Format, OutsideHypothesis, Report, long_decimals, to_json_line


def _sorted_lines(statement_ids, workers, **kwargs):
    out = io.StringIO()
    run_sweep(statement_ids, workers=workers, out=out, **kwargs)
    return sorted(out.getvalue().splitlines())


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the process pool by one that runs each job at submit, in
    this process; map is the real Executor.map.  Records each pool size
    asked for and a weak reference to each Future."""
    log = SimpleNamespace(requested=[], futures=[])

    class InlinePool(concurrent.futures.Executor):
        def __init__(self, max_workers):
            log.requested.append(max_workers)

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            log.futures.append(weakref.ref(fut))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return log


@pytest.fixture
def fork_pool(monkeypatch):
    """Bind the sweep's process pool to the fork start method, so that its
    workers inherit the test's patches."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method")
    pool = functools.partial(concurrent.futures.ProcessPoolExecutor,
                             mp_context=multiprocessing.get_context("fork"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)


# digits, the separators and line breaks of the format, and bytes that
# int() or str.splitlines() read differently from the format
_EDIT_BYTES = [*(bytes([c]) for c in b"0123456789\t\n\r +-_\x00\x0b\x1c"), "é".encode()]


class TestCache:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.txt")
        store_table(path, franel_upto(3))
        loaded = load_table(path)
        assert loaded == (1, 2, 10, 56)

    def test_roundtrip_large(self, tmp_path, default_int_str_limit):
        # f_4800 has more than 4300 digits: the module lifts the limit itself
        for n in (200, 4800):
            path = str(tmp_path / f"cache-{n}.txt")
            table = tuple(franel_upto(n))
            store_table(path, table)
            assert load_table(path) == table
        assert sys.get_int_max_str_digits() == 4300

    def test_tampered_value_detected(self, tmp_path):
        path = str(tmp_path / "cache.txt")
        store_table(path, franel_upto(3))
        lines = Path(path).read_text().splitlines()
        lines[3] = "2\t11"
        Path(path).write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheError, match="line 4"):
            load_table(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("")
        with pytest.raises(CacheError, match="missing header"):
            load_table(str(path))
        path.write_text("0\t1\n")
        with pytest.raises(CacheError, match="missing header"):
            load_table(str(path))

    def test_non_contiguous(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("franel-cache v1 N=2\n0\t1\n2\t10\n1\t2\n")
        with pytest.raises(CacheError, match="non-contiguous"):
            load_table(str(path))

    def test_wrong_record_count(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("franel-cache v1 N=3\n0\t1\n1\t2\n")
        with pytest.raises(CacheError, match="expected 4 records"):
            load_table(str(path))

    def test_empty_table_rejected(self, tmp_path):
        target = tmp_path / "cache.txt"
        with pytest.raises(ValueError, match="empty table"):
            store_table(str(target), ())
        assert not target.exists()

    def test_no_partial_file_on_failure(self, tmp_path):
        # writes go to a temp file first; target never appears on error
        target = tmp_path / "sub" / "cache.txt"
        with pytest.raises(OSError):
            store_table(str(target), franel_upto(3))
        assert not target.exists()

    @settings(max_examples=200, deadline=None)
    # a CR in place of, or just before, the header's LF (byte 20), which a
    # reader with universal newlines would take for a line break
    @example(edits=[("replace", 20, b"\r")])
    @example(edits=[("insert", 20, b"\r")])
    @given(st.lists(st.tuples(
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(0, 400),
        st.sampled_from(_EDIT_BYTES),
    ), min_size=1, max_size=3))
    def test_byte_edits_rejected_or_harmless(self, tmp_path_factory, edits):
        # a cache loads only from a well-formed file with the original values
        # (after an added leading zero, say); anything else is a CacheError,
        # which the cache command reports with exit 1
        table = tuple(franel_upto(12))
        path = str(tmp_path_factory.mktemp("edits") / "cache.txt")
        store_table(path, table)
        data = bytearray(Path(path).read_bytes())
        for op, at, byte in edits:
            if op != "insert" and data:
                del data[at % len(data)]
            if op != "delete":
                at %= len(data) + 1
                data[at:at] = byte
        Path(path).write_bytes(data)
        try:
            loaded = load_table(path)
        except CacheError:
            loaded = None
        lines = data.decode("latin-1").split("\n")
        header, records, end = lines[0], lines[1:-1], lines[-1]
        well_formed = (
            data.isascii() and end == ""
            and re.fullmatch("franel-cache v1 N=[0-9]+", header) is not None
            and int(header.split("=")[1]) == len(table) - 1
            and all(re.fullmatch("[0-9]+\t[0-9]+", line) for line in records)
            and [tuple(map(int, line.split("\t"))) for line in records]
            == list(enumerate(table))
        )
        assert loaded == (table if well_formed else None)
        assert main(["cache", "--cache", path]) == (0 if well_formed else 1)


class TestComputeCommand:
    def test_examples(self, capsys):
        assert main(["compute", "--n-range", "0..3"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0 1", "1 2", "2 10", "3 56"]
        assert main(["compute", "--n-range", "0..0"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0 1"]
        assert main(["compute", "--n-range", "2..4"]) == 0
        assert capsys.readouterr().out.splitlines() == ["2 10", "3 56", "4 346"]

    def test_cross_check(self, capsys):
        # the route_agreement statement compares every route with direct
        assert main(["sweep", "--statements", "route_agreement", "--n-range", "0..60",
                     "--quiet"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["statements"]["route_agreement"] == {
            "pass": 183, "fail": 0, "skipped": 0,
        }

    def test_route_disagreement_exits_1(self, monkeypatch, capsys):
        # a route that disagrees with direct at one n fails that n's record
        strehl = identities.franel_strehl
        monkeypatch.setattr(identities, "franel_strehl", lambda n: strehl(n) + (n == 2))
        assert main(["sweep", "--statements", "route_agreement", "--n-range", "0..3",
                     "--workers", "1"]) == 1
        line = ('{"lhs": "11", "modulus": "exact", "params": {"n": "2", "route": "strehl"}, '
                '"rhs": "10", "statement": "route_agreement", "verdict": "fail"}')
        assert capsys.readouterr().err == f"FAILED: 1 failing record(s); first: {line}\n"

    def test_bad_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--n-range", "5..2"])
        assert exc.value.code == 2

    def test_value_past_int_str_limit(self, default_int_str_limit, capsys):
        assert main(["compute", "--n-range", "5000..5000"]) == 0
        n, value = capsys.readouterr().out.split()
        assert sys.get_int_max_str_digits() == 4300
        assert n == "5000" and len(value) > 4300
        with long_decimals():  # compute restores the limit on return
            assert value == str(franel(5000))


class TestVerifyCommand:
    """Named statements, as `franel sweep --statements` runs them, and the
    registry's cells.  `sweep` is the one command that runs statements: this
    class, and the `verify` ids of parametrized cases in this file, keep the
    name of the removed `franel verify`, which took the same flags, so that
    the suite's test names stay the same."""

    def test_single_pass_record(self, capsys):
        assert main(["sweep", "--statements", "theorem1", "--n-range", "2..2"]) == 0
        out = capsys.readouterr().out.splitlines()
        record = json.loads(out[0])
        assert record["verdict"] == "pass" and record["witness"] == "0"
        summary = json.loads(out[-1])
        assert summary["record_type"] == "summary"
        assert summary["statements"]["theorem1"] == {
            "pass": 1, "fail": 0, "skipped": 0,
        }

    def test_theorem2_prime_sweep(self, capsys):
        assert main(["sweep", "--statements", "theorem2", "--p-range", "3..100"]) == 0
        out = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in out[:-1]]
        assert len(records) == 24  # odd primes in [3, 100]
        assert all(r["verdict"] == "pass" for r in records)

    def test_out_of_hypothesis_skipped_not_failed(self, capsys):
        assert main(["sweep", "--statements", "theorem3", "--p-range", "3..20"]) == 0
        out = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in out[:-1]]
        by_verdict = {}
        for r in records:
            by_verdict.setdefault(r["verdict"], []).append(r["params"]["p"])
        assert by_verdict["pass"] == ["3", "7", "11", "19"]
        assert by_verdict["skipped"] == ["5", "13", "17"]
        assert "fail" not in by_verdict

    @pytest.mark.parametrize("sid", registry.statement_ids())
    def test_skip_rule_matches_check_guard(self, sid):
        # the check's guard is the one statement of its hypothesis: run_cell
        # returns the check's records, or, where the check raises
        # OutsideHypothesis, one skipped record whose reason is its message
        stmt = registry.STATEMENTS[sid]
        for v in range(6) if stmt.kind == "n" else (2, 3, 5, 7, 11, 13):
            try:
                reports = stmt.run(v)
            except OutsideHypothesis as exc:
                assert str(exc), (sid, v)
                assert registry.run_cell(sid, v) == [
                    Report(sid, {stmt.kind: v}, skipped_reason=str(exc))
                ], (sid, v)
                continue
            assert reports and all(type(r) is Report for r in reports), (sid, v)
            assert not any(r.verdict == "skipped" for r in reports), (sid, v)
            assert registry.run_cell(sid, v) == reports, (sid, v)

    @pytest.mark.parametrize("error, text", [
        (ValueError("a plain ValueError"), "ValueError: a plain ValueError"),
        (NotCoprimeError("2 is not invertible mod 4 (gcd=2)"),
         "NotCoprimeError: 2 is not invertible mod 4 (gcd=2)"),
        (InconsistencyError("division by 3 inexact at k=3"),
         "InconsistencyError: division by 3 inexact at k=3"),
    ], ids=["value-error", "not-coprime", "inconsistency"])
    def test_run_cell_skips_only_outside_hypothesis(self, error, text, monkeypatch):
        # any other exception from a check is not a skip: it is the cell's
        # one error record, with the exception's type and message
        def run(n):
            raise error

        stmt = registry.STATEMENTS["strehl"]
        monkeypatch.setitem(registry.STATEMENTS, "strehl", dataclasses.replace(stmt, run=run))
        assert registry.run_cell("strehl", 3) == [Report("strehl", {"n": 3}, error=text)]

    @pytest.mark.parametrize("sid", [
        sid for sid in registry.statement_ids() if registry.STATEMENTS[sid].kind == "p"
    ])
    def test_composite_p_raises_not_skips(self, sid):
        # a composite p is a caller's error, not a parameter outside the
        # hypothesis: the check raises a plain ValueError, and run_cell makes
        # it an error record, never a skip
        with pytest.raises(ValueError, match="not prime") as raised:
            registry.STATEMENTS[sid].run(9)
        assert not isinstance(raised.value, OutsideHypothesis)
        assert registry.run_cell(sid, 9) == [
            Report(sid, {"p": 9}, error="ValueError: 9 is not prime")]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--statements", ","],
        ["sweep", "--statements", ""],
    ], ids=["sweep-comma", "sweep-empty"])
    def test_empty_statement_list_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: no statement id given")

    def test_unknown_statement_exits_2(self, capsys):
        assert main(["sweep", "--statements", "bogus-id"]) == 2
        assert "unknown statement id" in capsys.readouterr().err

    def test_verify_command_is_gone(self, capsys):
        # sweep --statements runs named statements; verify was its second name
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--statements", "theorem2"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "invalid choice: 'verify'" in err

    def test_compute_route_option_is_gone(self, capsys):
        # sweep --statements route_agreement compares the routes
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--n-range", "0..3", "--route", "direct"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert "unrecognized arguments: --route" in err

    @pytest.mark.parametrize("statements", ["theorem1,theorem1", "strehl,theorem1,strehl"])
    def test_repeated_statement_exits_2(self, statements, capsys):
        assert main(["sweep", "--statements", statements, "--n-range", "5..6"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: statement id ") and "given more than once" in line

    def test_tsv_format(self, capsys):
        assert main(
            ["sweep", "--statements", "strehl", "--n-range", "0..2",
             "--format", "tsv"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split("\t")[:2] == ["strehl", "n=0"]
        assert out[-1].startswith("summary\tTOTAL\t")

    def test_added_format_streams_records_and_summary(self, monkeypatch, capsys):
        # a format is one entry of FORMATTERS: its record line and its summary
        def line(r):
            return f"{r.statement};{r.params['n']};{r.verdict}"

        def summary(s):
            return "\n".join(f"total;{v};{c}" for v, c in s["total"].items())

        monkeypatch.setitem(reports.FORMATTERS, "semicolons", Format(line, summary))
        assert main(["sweep", "--statements", "theorem1", "--n-range", "1..3",
                     "--format", "semicolons"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "theorem1;1;skipped", "theorem1;2;pass", "theorem1;3;pass",
            "total;pass;2", "total;fail;0", "total;skipped;1",
        ]

    @pytest.mark.parametrize("fmt", ["xml", "TSV", ""])
    def test_unknown_format_is_usage_error(self, fmt, capsys):
        # run_sweep judges the format, as it does the statement ids
        assert main(["sweep", "--statements", "strehl", "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: unknown format {fmt!r}; known formats: json-lines, tsv"
        ]


class TestClosedStdout:
    @pytest.fixture(params=["", "1"], ids=["buffered", "unbuffered"])
    def cli(self, request):
        """The CLI's command line and environment, with stdout block-buffered
        (the default) or unbuffered (PYTHONUNBUFFERED)."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
        env = dict(os.environ, PYTHONUNBUFFERED=request.param,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        return [sys.executable, "-m", "franel.cli"], env

    @pytest.mark.parametrize("argv", [
        ["sweep", "--workers", "1"],
        ["sweep", "--workers", "2"],
        ["compute", "--n-range", "0..3000"],
    ], ids=["sweep-serial", "sweep-pool", "compute"])
    def test_reader_gone_exits_141_quietly(self, cli, argv):
        # as `franel sweep | head -1`: the reader takes one line and closes
        # the pipe, which is not a failure (exit 1) and prints no traceback
        command, env = cli
        with subprocess.Popen([*command, *argv], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env) as proc:
            try:
                assert proc.stdout.readline()
                proc.stdout.close()
                _, err = proc.communicate(timeout=120)
            finally:
                proc.kill()
        assert proc.returncode == 141
        assert b"Traceback" not in err and b"Exception ignored" not in err

    @staticmethod
    def _into_closed_pipe(cli, argv):
        # a pipe whose read end is closed before the CLI starts: the few
        # lines of output reach it only when stdout is flushed
        command, env = cli
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([*command, *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == 141
        assert b"Traceback" not in done.stderr
        assert b"Exception ignored" not in done.stderr

    def test_reader_gone_before_a_short_output(self, cli):
        self._into_closed_pipe(
            cli, ["sweep", "--statements", "theorem1", "--n-range", "2..3"])

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]],
                             ids=["help", "sweep-help"])
    def test_help_into_closed_pipe(self, cli, argv):
        # argparse prints the help and exits inside parse_args
        self._into_closed_pipe(cli, argv)

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["sweep", "--help"],
        ["compute", "--n-range", "0..3"],
        ["sweep", "--statements", "theorem1", "--n-range", "2..3"],
    ], ids=["help", "sweep-help", "compute", "verify"])
    def test_help_with_stdout_closed_at_start(self, cli, argv):
        # fd 1 closed before the CLI starts: sys.stdout is None, and the
        # output goes nowhere, as argparse's own print_help would send it
        command, env = cli
        done = subprocess.run(["sh", "-c", '"$@" >&-', "sh", *command, *argv],
                              stderr=subprocess.PIPE, env=env, timeout=120)
        assert done.returncode == 0
        assert done.stderr == b""


class TestSweepCommand:
    def test_limited_grid(self, capsys):
        rc = main(
            ["sweep", "--statements", "zw_guo,zw_strengthened",
             "--n-range", "1..30", "--quiet"]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["statements"]["zw_guo"] == {
            "pass": 30, "fail": 0, "skipped": 0,
        }
        assert summary["statements"]["zw_strengthened"] == {
            "pass": 29, "fail": 0, "skipped": 1,
        }

    def test_edge_of_domain_records_pinned(self):
        # n from 0 and p from 2 reach every check's OutsideHypothesis guard:
        # 19 distinct skipped_reason strings, among them each auxiliary
        # congruence's "requires an odd prime" / "requires p > 3"
        out = io.StringIO()
        summary = run_sweep(n_range=(0, 2), p_range=(2, 5), out=out)
        lines = sorted(out.getvalue().splitlines())
        assert summary["total"] == {"pass": 1759, "fail": 0, "skipped": 31}
        reasons = {json.loads(line).get("skipped_reason") for line in lines} - {None}
        assert len(reasons) == 19
        digest = hashlib.sha256("".join(f"{line}\n" for line in lines).encode())
        assert digest.hexdigest() == (
            "0aa335f58e43244e52ac3e0270495ae3689f6df431609004d477501189ce8af9"
        )

    def test_worker_counts_agree(self):
        kwargs = dict(
            statement_ids=["theorem2", "macmahon", "family_new1"],
            n_range=(0, 25),
            p_range=(3, 60),
        )
        s1 = run_sweep(workers=1, **kwargs)
        s2 = run_sweep(workers=2, **kwargs)
        assert s1 == s2
        assert s1["total"]["fail"] == 0

    def test_pool_asks_for_no_more_workers_than_jobs(self, inline_pool):
        summary = run_sweep(["theorem1"], n_range=(5, 5), workers=64)
        assert inline_pool.requested == [1]
        assert summary["total"] == {"pass": 1, "fail": 0, "skipped": 0}
        # no job at all is a usage error, raised before any pool is asked for
        with pytest.raises(UsageError):
            run_sweep(["theorem3"], p_range=(24, 28), workers=64)
        assert inline_pool.requested == [1]

    def test_pool_asks_for_no_more_workers_than_cpus(self, inline_pool):
        # a pool forks every process it is sized for at the first submit
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        summary = run_sweep(["babbage"], p_range=(3, 499), workers=500)
        assert inline_pool.requested == [min(cpus, len(inline_pool.futures))]
        assert summary["total"] == {"pass": 94, "fail": 0, "skipped": 0}

    @pytest.mark.parametrize("ids, kwargs, message", [
        ([], {}, "no statement id given"),
        (["bogus-id"], {}, "unknown statement id 'bogus-id'; known ids: babbage, "),
        (["theorem2"], {"n_range": (3, 10)}, "n-range is not used"),
        (["strehl", "macmahon"], {"p_range": (3, 10)}, "p-range is not used"),
        (["theorem2", "babbage"], {"n_range": (3, 10)}, "n-range is not used"),
        (["zw_guo"], {"p_range": (3, 10)}, "p-range is not used"),
        (["babbage"], {"p_range": (0, 1)}, "'babbage' has no cell in p-range 0..1"),
        (["theorem3"], {"p_range": (24, 28)}, "'theorem3' has no cell in p-range 24..28"),
        (["theorem1", "theorem3"], {"p_range": (24, 28)}, "'theorem3' has no cell"),
        (["theorem2"], {"p_range": (10, 5)}, "'theorem2' has no cell in p-range 10..5"),
        (None, {"p_range": (0, 1)}, "'babbage' has no cell in p-range 0..1"),
        (["strehl"], {"workers": 0}, "workers must be positive"),
        (["strehl"], {"fmt": "xml"}, "unknown format 'xml'"),
        (["theorem1", "theorem1"], {"n_range": (5, 6)},
         "statement id 'theorem1' given more than once"),
        (["strehl"], {"n_range": (-1, 0)}, r"n-range must be nonnegative, got -1\.\.0"),
        (["macmahon"], {"n_range": (-1, 0)}, "n-range must be nonnegative"),
        ("theorem1", {"n_range": (5, 6)},
         "statement_ids must be a list of ids, not the string 'theorem1'"),
    ], ids=["empty", "unknown", "n-unused", "p-unused", "n-unused-pair",
            "p-unused-quiet", "no-prime", "no-prime-gap", "subset", "reversed-p", "grid",
            "workers", "format", "repeated", "negative-n-pass", "negative-n-raise",
            "bare-string"])
    def test_library_usage_error_before_output(self, ids, kwargs, message, inline_pool):
        # the requests the CLI exits 2 on raise in run_sweep itself, before
        # any record is written or any pool is asked for
        out = io.StringIO()
        with pytest.raises(UsageError, match=message):
            run_sweep(ids, out=out, **{"workers": 2, **kwargs})
        assert out.getvalue() == ""
        assert inline_pool.requested == []

    def test_pool_keeps_no_absorbed_result(self, inline_pool):
        # each Future holds its job's text; the parent must drop it once written
        live_at_write = []

        class Out(io.StringIO):
            def write(self, text):
                live_at_write.append(sum(ref() is not None for ref in inline_pool.futures))
                return super().write(text)

        out = Out()
        summary = run_sweep(["babbage"], p_range=(3, 60), workers=2, out=out)
        jobs = len(inline_pool.futures)
        assert jobs > 1
        # Executor.map drops each Future before its result is written, so
        # the job being written and every earlier one are gone
        assert live_at_write == list(range(jobs - 1, -1, -1))
        assert summary["total"] == {"pass": 16, "fail": 0, "skipped": 0}
        assert len(out.getvalue().splitlines()) == 16

    def test_failed_write_cancels_the_jobs_not_started(self, monkeypatch, tmp_path):
        # as a reader that closed stdout: the first write raises, and the
        # pool's jobs not yet started are cancelled, not run; three statements
        # of 94 primes each give a 2-process pool 27 jobs of 11 cells
        sids = ["babbage", "morley", "multinomial"]
        for sid in sids:
            def run(p, sid=sid):
                (tmp_path / f"{sid}-{p}").touch()
                time.sleep(0.02)
                return [Report(sid, {"p": p})]

            # setitem, not a module attribute: forked pool workers inherit it
            stmt = dataclasses.replace(registry.STATEMENTS[sid], run=run)
            monkeypatch.setitem(registry.STATEMENTS, sid, stmt)

        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        with pytest.raises(BrokenPipeError):
            run_sweep(sids, p_range=(3, 499), workers=2, out=Closed())
        # the first write comes only after the first job's 11 cells ran, so
        # fewer means the patched statements never reached a worker and the
        # test saw nothing; at most 77 cells ran in 20 runs on 2 CPUs, and
        # all 282 run when the pending jobs are not cancelled
        ran = len(list(tmp_path.iterdir()))
        assert 11 <= ran < 3 * 94 // 2

    def test_stream_does_not_depend_on_completion_order(self, inline_pool, monkeypatch):
        # jobs that complete last-submitted-first are still written in job order
        monkeypatch.setattr(concurrent.futures, "as_completed",
                            lambda fs, timeout=None: reversed(list(fs)))
        streams = {}
        for workers in (1, 2):
            streams[workers] = io.StringIO()
            run_sweep(["theorem1", "babbage", "strehl"], n_range=(2, 30),
                      p_range=(3, 60), workers=workers, out=streams[workers])
        assert len(inline_pool.futures) > 1
        assert streams[2].getvalue() == streams[1].getvalue()

    def test_serial_jobs_are_single_cells(self, monkeypatch):
        job_cells = []
        run_job = harness._run_job

        def recording_run_job(sid, cells, *args):
            job_cells.append((sid, list(cells)))
            return run_job(sid, cells, *args)

        monkeypatch.setattr(harness, "_run_job", recording_run_job)
        out = io.StringIO()
        summary = run_sweep(["strehl", "babbage"], n_range=(0, 6), p_range=(3, 13),
                            workers=1, out=out)
        assert job_cells == [("strehl", [n]) for n in range(7)] + [
            ("babbage", [p]) for p in (3, 5, 7, 11, 13)
        ]
        assert summary["total"]["pass"] + summary["total"]["skipped"] == len(
            out.getvalue().splitlines())

    @pytest.mark.parametrize("workers, pool", [("1", False), ("2", True)])
    def test_pool_stack_imported_only_for_a_pool(self, workers, pool):
        # in a fresh interpreter, since pytest itself may load multiprocessing;
        # morley over 5..13 is four cells, so two workers get four jobs
        probe = (
            "import json, sys\n"
            "bare = set(sys.modules)\n"
            "from franel.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(set(sys.modules) - bare)]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run(
            [sys.executable, "-c", probe, "sweep", "--statements", "morley",
             "--p-range", "5..13", "--quiet", "--workers", workers],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        code, loaded = json.loads(done.stdout.splitlines()[-1])
        assert code == 0
        pool_modules = [m for m in loaded if m == "concurrent.futures.process"
                        or m.split(".")[0] == "multiprocessing"]
        if pool:
            assert "concurrent.futures.process" in pool_modules
            assert "multiprocessing" in pool_modules
        else:
            assert pool_modules == []

    def test_serial_sweep_holds_one_cell_at_a_time(self):
        # third_conjecture has 798 reports per n; a serial sweep must not
        # hold a whole statement's reports, so five cells peak like one
        def peak(n_range):
            tracemalloc.start()
            try:
                run_sweep(["third_conjecture"], n_range=n_range, workers=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_sweep(["third_conjecture"], n_range=(116, 120), workers=1)  # warm tables
        one, five = peak((120, 120)), peak((116, 120))
        assert five < 2 * one

    @pytest.mark.parametrize("command", [
        ["sweep"], ["sweep", "--statements", "babbage"],
    ])
    def test_zero_workers_is_usage_error(self, command, capsys):
        assert main([*command, "--workers", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.splitlines() == ["error: workers must be positive"]

    @pytest.mark.parametrize("command", [
        ["sweep"], ["sweep", "--statements", "route_agreement"],
    ])
    def test_negative_n_range_is_usage_error(self, command, capsys):
        assert main([*command, "--n-range=-2..1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.splitlines() == ["error: n-range must be nonnegative, got -2..1"]

    def test_witness_past_int_str_limit(self, default_int_str_limit, capsys):
        rc = main(["sweep", "--statements", "family_new1", "--n-range", "1500..1500"])
        assert rc == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[:-1]]
        assert len(records) == 7
        assert max(len(r["witness"]) for r in records) > 4300
        assert all(r["witness"].lstrip("-").isdigit() for r in records)

    def test_witness_past_int_str_limit_in_pool_worker(self, default_int_str_limit, capsys):
        # the worker serializes, at the limit it inherited from the parent
        out = io.StringIO()
        summary = run_sweep(["family_new1"], n_range=(1500, 1500), workers=2, out=out)
        assert summary["total"] == {"pass": 7, "fail": 0, "skipped": 0}
        library = [json.loads(line) for line in out.getvalue().splitlines()]
        assert max(len(r["witness"]) for r in library) > 4300
        assert sys.get_int_max_str_digits() == 4300

        rc = main(["sweep", "--statements", "family_new1", "--n-range", "1500..1500",
                   "--workers", "2"])
        assert rc == 0
        cli = [json.loads(line) for line in capsys.readouterr().out.splitlines()[:-1]]
        assert sorted(cli, key=json.dumps) == sorted(library, key=json.dumps)
        assert all(r["witness"].lstrip("-").isdigit() for r in cli)
        assert sys.get_int_max_str_digits() == 4300

    @pytest.mark.parametrize("fmt, line", [
        ("json-lines", '{"lhs": "1", "modulus": "7", "params": {"n": "3"}, "rhs": "2", '
                       '"statement": "strehl", "verdict": "fail"}'),
        ("tsv", "strehl\tn=3\t7\t1\t2\tfail\t\t"),
    ], ids=["json", "tsv"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("command", [
        ["sweep", "--statements", "strehl"],
        ["sweep", "--statements", "strehl", "--quiet"],
    ], ids=["verify", "sweep-quiet"])
    def test_failing_record_exits_1_and_names_it(self, command, workers, fmt, line,
                                                 monkeypatch, capsys):
        stmt = registry.STATEMENTS["strehl"]

        def run(n):
            # n = 17 fails too, in a later job at either worker count
            if n in (3, 17):
                return [Report("strehl", {"n": n}, modulus=7, lhs=1, rhs=2)]
            return stmt.run(n)

        # setitem, not a module attribute: forked pool workers inherit it
        monkeypatch.setitem(registry.STATEMENTS, "strehl", dataclasses.replace(stmt, run=run))
        rc = main([*command, "--n-range", "0..20", "--workers", str(workers),
                   "--format", fmt])
        assert rc == 1
        out, err = capsys.readouterr()
        assert err == f"FAILED: 2 failing record(s); first: {line}\n"
        records = out.splitlines()[:-1] if fmt == "json-lines" else out.splitlines()[:-2]
        if "--quiet" not in command:
            later = line.replace('"3"', '"17"').replace("n=3", "n=17")
            assert len(records) == 21
            assert records.index(line) < records.index(later)
        else:
            assert records == []

    @pytest.mark.parametrize("fmt", ["json-lines", "tsv"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_cell_is_an_error_record_and_exits_1(self, workers, fmt,
                                                       monkeypatch, capsys):
        stmt = registry.STATEMENTS["strehl"]

        def run(n):
            return [Report("strehl", {"n": n}, lhs=1 // 0)] if n == 3 else stmt.run(n)

        # setitem, not a module attribute: forked pool workers inherit it
        monkeypatch.setitem(registry.STATEMENTS, "strehl", dataclasses.replace(stmt, run=run))
        rc = main(["sweep", "--statements", "strehl,sun_expansion", "--n-range", "0..20",
                   "--workers", str(workers), "--format", fmt])
        assert rc == 1
        out, err = capsys.readouterr()
        text = "ZeroDivisionError: integer division or modulo by zero"
        if fmt == "json-lines":
            line = ('{"error": "' + text + '", "lhs": "0", "modulus": "exact", '
                    '"params": {"n": "3"}, "rhs": "0", "statement": "strehl", '
                    '"verdict": "error"}')
            *records, summary = out.splitlines()
            assert json.loads(summary) == {"record_type": "summary", "statements": {
                "strehl": {"pass": 20, "fail": 0, "skipped": 0, "error": 1},
                "sun_expansion": {"pass": 21, "fail": 0, "skipped": 0, "error": 0},
            }, "total": {"pass": 41, "fail": 0, "skipped": 0, "error": 1}}
        else:
            line = f"strehl\tn=3\texact\t0\t0\terror\t\t{text}"
            *records, s1, s2, s3 = out.splitlines()
            assert [s1, s2, s3] == ["summary\tstrehl\t20\t0\t0\t1",
                                    "summary\tsun_expansion\t21\t0\t0\t0",
                                    "summary\tTOTAL\t41\t0\t0\t1"]
        # the grid runs on past the error, one record per cell
        assert len(records) == 42 and records[3] == line
        assert err == f"FAILED: 0 failing record(s), 1 error record(s); first: {line}\n"

    def test_dead_worker_gives_unwritten_cells_error_records(self, fork_pool, monkeypatch,
                                                             capsys):
        stmt = registry.STATEMENTS["strehl"]

        def run(n):
            if n == 3:
                os._exit(3)
            return stmt.run(n)

        # setitem, not a module attribute: forked pool workers inherit it
        monkeypatch.setitem(registry.STATEMENTS, "strehl", dataclasses.replace(stmt, run=run))
        rc = main(["sweep", "--statements", "strehl", "--n-range", "0..20", "--workers", "2"])
        assert rc == 1
        out, err = capsys.readouterr()
        *records, summary = [json.loads(line) for line in out.splitlines()]
        # cells written before the pool broke keep their records; every other
        # cell, n = 3 among them, has one error record, in cell order
        assert [r["params"]["n"] for r in records] == [str(n) for n in range(21)]
        errors = [r for r in records if r["verdict"] == "error"]
        written = 21 - len(errors)
        assert records[3] in errors and records[written:] == errors
        assert all(r["verdict"] == "pass" for r in records[:written])
        assert {r["error"] for r in errors} == {
            "BrokenProcessPool: A process in the process pool was terminated abruptly "
            "while the future was running or pending."
        }
        total = {"pass": written, "fail": 0, "skipped": 0, "error": len(errors)}
        assert summary["total"] == total
        first = out.splitlines()[written]
        assert err == (f"FAILED: 0 failing record(s), {len(errors)} error record(s); "
                       f"first: {first}\n")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_cells_see_the_interpreters_digit_limit(self, workers, monkeypatch,
                                                          default_int_str_limit, capsys):
        # a CLI sweep takes the library's path: no limit lifted around it
        stmt = registry.STATEMENTS["strehl"]

        def run(n):
            return [Report("strehl", {"n": n, "limit": sys.get_int_max_str_digits()})]

        monkeypatch.setitem(registry.STATEMENTS, "strehl", dataclasses.replace(stmt, run=run))
        assert main(["sweep", "--statements", "strehl", "--n-range", "0..5",
                     "--workers", str(workers)]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[:-1]]
        assert [r["params"]["limit"] for r in records] == ["4300"] * 6

    def test_prime_axis_records_same_at_one_and_two_workers_and_any_order(
            self, monkeypatch):
        ids = ["theorem2", "theorem3", "conjecture1", "conjecture2", "reduction_chain"]
        lines = {}
        for workers in (2, 1):
            # an empty walk and memo, also in the forked pool workers
            monkeypatch.setattr(congruences, "_FAMILY_CACHE", {})
            congruences.inverse_weighted_sum_mod.cache_clear()
            lines[workers] = _sorted_lines(ids, workers)
        monkeypatch.setattr(congruences, "_FAMILY_CACHE", {})
        congruences.inverse_weighted_sum_mod.cache_clear()
        descending = []
        for sid in ids:
            stmt = registry.STATEMENTS[sid]
            primes = registry.cells_for(stmt, *stmt.default_range)[::-1]
            descending += map(to_json_line, registry.run_cells(sid, primes))
        assert len(lines[1]) == 14762
        assert lines[1] == lines[2] == sorted(descending)

    def test_divisibility_records_same_at_one_and_two_workers(self, monkeypatch):
        ids = ["theorem1", "family_new1", "family_new2", "reduction_chain"]
        lines = {}
        for workers in (2, 1):
            # empty prefix tables, so pool workers walk up from mid-range chunks
            monkeypatch.setattr(congruences, "_FAMILY_CACHE", {})
            lines[workers] = _sorted_lines(ids, workers)
        assert len(lines[1]) == 20584
        assert lines[1] == lines[2]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--statements", "theorem2", "--n-range", "3..10"],
        ["sweep", "--statements", "strehl,macmahon", "--p-range", "3..10"],
        ["sweep", "--statements", "theorem2,babbage", "--n-range", "3..10"],
        ["sweep", "--statements", "zw_guo", "--p-range", "3..10", "--quiet"],
    ], ids=["verify-n", "verify-p", "sweep-n", "sweep-p"])
    def test_range_no_statement_uses_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert "range is not used by any requested statement" in line

    @pytest.mark.parametrize("argv, sid, rng", [
        (["sweep", "--statements", "babbage", "--p-range", "0..1"],
         "babbage", "p-range 0..1"),
        (["sweep", "--statements", "theorem3", "--p-range", "24..28"],
         "theorem3", "p-range 24..28"),
        (["sweep", "--statements", "theorem1,theorem3", "--p-range", "24..28"],
         "theorem3", "p-range 24..28"),
        (["sweep", "--p-range", "0..1", "--quiet", "--format", "tsv"],
         "babbage", "p-range 0..1"),
    ], ids=["verify-no-prime", "verify-no-prime-gap", "sweep-subset", "sweep-grid"])
    def test_range_with_no_cell_is_usage_error(self, argv, sid, rng, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ")
        assert repr(sid) in line and rng in line

    def test_records_then_summary(self, capsys):
        rc = main(["sweep", "--statements", "babbage", "--p-range", "3..20"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert json.loads(out[-1])["record_type"] == "summary"
        assert all(
            json.loads(line)["statement"] == "babbage" for line in out[:-1]
        )


class TestCacheCommand:
    def test_build_then_validate(self, tmp_path, capsys):
        path = str(tmp_path / "cache.txt")
        assert main(["cache", "--cache", path, "--n-range", "0..20"]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache", path]) == 0
        assert "N=20 ok" in capsys.readouterr().out

    def test_cache_write(self, tmp_path, capsys):
        path = str(tmp_path / "cache.txt")
        assert main(["cache", "--cache", path, "--n-range", "0..5"]) == 0
        assert capsys.readouterr().out == "wrote franel-cache v1 N=5\n"
        assert load_table(path) == tuple(franel(n) for n in range(6))

    def test_cache_is_replaced_not_extended(self, tmp_path, capsys):
        path = str(tmp_path / "cache.txt")
        assert main(["cache", "--cache", path, "--n-range", "0..50"]) == 0
        assert main(["cache", "--cache", path, "--n-range", "0..5"]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache", path]) == 0
        assert capsys.readouterr().out == "franel-cache v1 N=5 ok\n"

    def test_corrupt_cache_exits_1(self, tmp_path, capsys):
        path = tmp_path / "cache.txt"
        path.write_text("franel-cache v1 N=1\n0\t1\n1\t3\n")
        assert main(["cache", "--cache", str(path)]) == 1
        assert "corrupt cache" in capsys.readouterr().err

    def test_corrupt_middle_value_rejected(self, tmp_path, capsys):
        # every recurrence step is checked, not a sample of them
        path = str(tmp_path / "cache.txt")
        store_table(path, franel_upto(999))
        lines = Path(path).read_text().splitlines()
        idx, value = lines[501].split("\t")
        assert idx == "500"
        lines[501] = f"{idx}\t{int(value) + 1}"
        Path(path).write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheError, match=r"\(line 502\)"):
            load_table(path)
        assert main(["cache", "--cache", path]) == 1
        assert "line 502" in capsys.readouterr().err

    def test_values_past_int_str_limit(self, tmp_path, default_int_str_limit, capsys):
        path = str(tmp_path / "cache.txt")
        assert main(["cache", "--cache", path, "--n-range", "0..6000"]) == 0
        assert main(["cache", "--cache", path]) == 0
        assert "N=6000 ok" in capsys.readouterr().out

    @pytest.mark.parametrize("record", [
        b"1\t\xff",
        "1\t\u0662".encode(),  # an Arabic-Indic 2, which int() reads as f_1 = 2
    ], ids=["invalid-utf8", "non-ascii-digit"])
    def test_non_ascii_cache_exits_1(self, record, tmp_path, capsys):
        path = tmp_path / "cache.txt"
        path.write_bytes(b"franel-cache v1 N=1\n0\t1\n" + record + b"\n")
        with pytest.raises(CacheError, match="non-ASCII"):
            load_table(str(path))
        assert main(["cache", "--cache", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: corrupt cache: ")

    @pytest.mark.parametrize("header, records, error", [
        ("N= 2", ["0\t1", "1\t2", "2\t10"], "malformed header"),
        ("N=+2", ["0\t1", "1\t2", "2\t10"], "malformed header"),
        ("N=0_2", ["0\t1", "1\t2", "2\t10"], "malformed header"),
        ("N=2", ["0\t1", "1\t 2", "2\t10"], r"non-decimal record \(line 3\)"),
        ("N=2", ["0\t1", "1 \t2", "2\t10"], r"non-decimal record \(line 3\)"),
        ("N=2", ["0\t1", "1\t+2", "2\t10"], r"non-decimal record \(line 3\)"),
        ("N=2", ["0\t1", "+1\t2", "2\t10"], r"non-decimal record \(line 3\)"),
        ("N=2", ["0\t1", "1\t2", "2\t1_0"], r"non-decimal record \(line 4\)"),
    ], ids=["header-space", "header-sign", "header-underscore", "value-space",
            "index-space", "value-sign", "index-sign", "value-underscore"])
    def test_non_decimal_cache_exits_1(self, header, records, error, tmp_path, capsys):
        # each file holds f_0..f_2 = 1, 2, 10 as int() reads them
        path = tmp_path / "cache.txt"
        path.write_text("\n".join([f"franel-cache v1 {header}", *records]) + "\n")
        with pytest.raises(CacheError, match=error):
            load_table(str(path))
        assert main(["cache", "--cache", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: corrupt cache: ")

    @pytest.mark.parametrize("text, error", [
        ("franel-cache v1 N=2\r\n0\t1\r\n1\t2\r\n2\t10\r\n", "malformed header"),
        ("franel-cache v1 N=2\r0\t1\r1\t2\r2\t10\r", "no LF at the end"),
        ("franel-cache v1 N=2\n0\t1\x0b1\t2\n2\t10\n", "expected 3 records, found 2"),
        ("franel-cache v1 N=2\n0\t1\n1\t2\x1c2\t10\n", "expected 3 records, found 2"),
        ("franel-cache v1 N=2\n0\t1\n1\t2\n2\t10", "no LF at the end"),
    ], ids=["crlf", "cr", "vertical-tab", "file-separator", "no-final-lf"])
    def test_line_break_other_than_lf_exits_1(self, text, error, tmp_path, capsys):
        # each file holds f_0..f_2 = 1, 2, 10 if any line break were taken
        path = tmp_path / "cache.txt"
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(CacheError, match=error):
            load_table(str(path))
        assert main(["cache", "--cache", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: corrupt cache: ")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["cache", "--cache", str(tmp_path / "nope.txt")]) == 2

    def test_unwritable_cache_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "cache.txt"
        assert main(["cache", "--cache", str(path), "--n-range", "0..3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"error: cannot write cache {str(path)!r}")


def test_readme_cli_examples_parse():
    # every `franel ...` line of the README's CLI block names only options
    # the parser takes; the commands are parsed, not run
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    examples = [shlex.split(line) for line in lines if line.startswith("franel ")]
    assert examples
    parser = cli.build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {' '.join(argv)}")


def test_package_root_defines_only_version():
    # each name is imported from the module that defines it: the root
    # re-exports nothing, and its one public name is __version__
    import franel

    public = {name for name, value in vars(franel).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set()
    assert not hasattr(franel, "__all__")
    assert isinstance(franel.__version__, str)
