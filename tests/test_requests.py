"""A request model of `franel sweep` (property test).

Requests come from a small grammar: statement lists with repeats, unknown
ids, blanks and whitespace; an n-range and a p-range for every axis that a
requested statement uses (so no default range is run), which may be
negative, reversed, give no cell or one cell; sometimes a range for an
axis that no requested statement uses; either format, sometimes an
unknown one, and --quiet.  The exit code is compared with an oracle
written from the README's rules, and the records with the summary that
ends the output.  Every sweep is serial,
so no pool starts.
"""
import contextlib
import io
import json
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from franel import registry
from franel.cli import main
from franel.reports import VERDICTS

IDS = registry.statement_ids()
FORMATS = ["json-lines", "tsv"]
KIND = {sid: registry.STATEMENTS[sid].kind for sid in IDS}


def is_prime(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, q))


def cells(kind: str, lo: int, hi: int) -> list[int]:
    """An axis's cells over lo..hi: every n, or every prime p."""
    return [v for v in range(lo, hi + 1) if kind == "n" or is_prime(v)]


def requested_ids(statements: str | None) -> list[str]:
    """--statements is a comma-separated list; blanks around an id and
    empty items are dropped.  Without it, a sweep runs every statement."""
    if statements is None:
        return IDS
    return [s.strip() for s in statements.split(",") if s.strip()]


def expected_exit(statements: str | None, ranges: dict, fmt: str) -> int:
    """2 for a usage error: an unknown format, no id, an unknown or
    repeated id, a reversed range, a negative n-range, a range that no
    requested statement takes, or one that leaves a requested statement
    with no cell.  Otherwise 0, as every statement holds and an
    out-of-hypothesis cell is skipped."""
    if fmt not in FORMATS:
        return 2
    ids = requested_ids(statements)
    if not ids or any(s not in KIND for s in ids) or len(set(ids)) < len(ids):
        return 2
    for kind, (lo, hi) in ranges.items():
        if lo > hi or (kind == "n" and lo < 0):
            return 2
        if all(KIND[s] != kind for s in ids):
            return 2
    if any(not cells(KIND[s], *ranges[KIND[s]]) for s in ids):
        return 2
    return 0


def one_in(k: int):
    """True in about one draw in k."""
    return st.integers(1, k).map(lambda i: i == 1)


@st.composite
def requests(draw):
    argv = ["sweep"]
    statements = None
    if draw(st.booleans()):
        tokens = draw(st.lists(st.sampled_from(IDS), max_size=4, unique=True))
        if tokens and draw(one_in(3)):
            tokens.append(draw(st.sampled_from(tokens)))  # a repeat
        if draw(one_in(5)):
            tokens.append(draw(st.sampled_from(["bogus", "Strehl", "help"])))
        tokens += draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=2))
        tokens = draw(st.permutations(tokens))
        pad = st.sampled_from(["", " ", "\t", "  "])
        statements = ",".join(draw(pad) + t + draw(pad) for t in tokens)
        argv += ["--statements", statements]
    axes = {KIND[s] for s in requested_ids(statements) if s in KIND}
    if draw(one_in(5)):
        axes.add(draw(st.sampled_from(["n", "p"])))
    ranges = {}
    for kind in sorted(axes):
        top = 8 if kind == "n" else 30
        lo = draw(st.integers(-2 if kind == "n" else 0, top))
        if draw(one_in(10)):
            hi = lo - draw(st.integers(1, 3))  # reversed
        else:
            hi = draw(st.integers(lo, top))
        ranges[kind] = (lo, hi)
        argv.append(f"--{kind}-range={lo}..{hi}")
    fmt = draw(st.sampled_from(FORMATS))
    if draw(one_in(10)):
        fmt = draw(st.sampled_from(["xml", "TSV", "json", ""]))
    argv += ["--format", fmt, "--workers", "1"]
    quiet = draw(st.booleans())
    if quiet:
        argv.append("--quiet")
    return argv, statements, ranges, fmt, quiet


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parse_json_lines(lines: list[str]):
    records = []
    for line in lines[:-1]:
        r = json.loads(line)
        assert {"statement", "params", "modulus", "lhs", "rhs", "verdict"} <= r.keys()
        int(r["lhs"]), int(r["rhs"]), int(r.get("witness", 0))
        assert r["modulus"] == "exact" or int(r["modulus"]) > 0
        records.append((r["statement"], r["params"], r["verdict"],
                        r.get("skipped_reason"), r["lhs"] == r["rhs"]))
    summary = json.loads(lines[-1])
    assert summary.pop("record_type") == "summary"
    return records, summary["statements"], summary["total"]


def parse_tsv(lines: list[str], n_statements: int):
    split = len(lines) - n_statements - 1
    records = []
    for line in lines[:split]:
        statement, params, modulus, lhs, rhs, verdict, witness, reason = (
            line.split("\t"))
        int(lhs), int(rhs), int(witness or 0)
        assert modulus == "exact" or int(modulus) > 0
        # params of a skipped record: the one cell, as kind=value
        kind, _, value = params.partition("=")
        records.append((statement, {kind: value}, verdict, reason or None, lhs == rhs))
    statements = {}
    for line in lines[split:]:
        tag, sid, *counts = line.split("\t")
        assert tag == "summary"
        statements[sid] = dict(zip(VERDICTS, map(int, counts), strict=True))
    return records, statements, statements.pop("TOTAL")


@settings(max_examples=150, deadline=None)
@given(requests())
# a repeated id, which the strategy draws in only some runs: in a request
# that is otherwise valid, and in a --quiet tsv one
@example((["sweep", "--statements", "strehl, babbage,strehl", "--n-range=0..2",
           "--p-range=3..5", "--format", "json-lines", "--workers", "1"],
          "strehl, babbage,strehl", {"n": (0, 2), "p": (3, 5)}, "json-lines", False))
@example((["sweep", "--statements", "theorem3,theorem3", "--p-range=3..7", "--format",
           "tsv", "--workers", "1", "--quiet"],
          "theorem3,theorem3", {"p": (3, 7)}, "tsv", True))
def test_request_exit_code_and_records(request):
    argv, statements, ranges, fmt, quiet = request
    code, out, err = run(argv)
    assert code == expected_exit(statements, ranges, fmt), (argv, err)
    if code:
        # a usage error is reported before any output
        assert out == "" and err, argv
        return
    assert err == ""
    ids = requested_ids(statements)
    lines = out.splitlines()
    if fmt == "json-lines":
        records, per_statement, total = parse_json_lines(lines)
    else:
        records, per_statement, total = parse_tsv(lines, len(ids))
    assert sorted(per_statement) == sorted(ids)
    assert total == {v: sum(c[v] for c in per_statement.values()) for v in VERDICTS}
    assert total["fail"] == 0
    if quiet:
        assert records == []
        return
    assert Counter(r[2] for r in records) == Counter(total)
    for statement, params, verdict, reason, sides_equal in records:
        assert verdict in VERDICTS
        assert (reason is not None) == (verdict == "skipped"), (argv, statement)
        if verdict == "skipped":
            # one record per skipped cell, named by the requested id
            kind = KIND[statement]
            (value,) = params.values()
            assert params.keys() == {kind} and int(value) in cells(kind, *ranges[kind])
            assert reason.strip()
        else:
            assert (verdict == "pass") == sides_equal, (argv, statement, params)
