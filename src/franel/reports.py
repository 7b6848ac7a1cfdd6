"""Verification report records and their serialization.

Big integers are rendered as decimal strings in both output formats so
downstream tooling never has to parse thousand-digit numerics.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, NamedTuple


# the verdicts every summary counts, in its order; "error" (a check that
# raised) follows them only in the summary of a sweep that has one
VERDICTS = ("pass", "fail", "skipped")


class OutsideHypothesis(ValueError):
    """A check's parameter lies outside the statement's hypothesis; the
    message is the reason that the skipped record carries."""


@dataclass(slots=True)
class Report:
    """One verification outcome.

    modulus None means the two sides were compared as exact integers.
    witness carries the quotient for divisibility statements.
    A skipped_reason marks an out-of-hypothesis parameter; skipped
    reports are neither passes nor failures.  An error carries
    "<ExceptionType>: <message>" of a check that raised at this cell.

    Slotted rather than frozen: hundreds of thousands are built per sweep,
    and nothing assigns to or hashes one.
    """

    statement: str
    params: dict = field(default_factory=dict)
    modulus: int | None = None
    lhs: int = 0
    rhs: int = 0
    witness: int | None = None
    skipped_reason: str | None = None
    error: str | None = None

    @property
    def verdict(self) -> str:
        """The one outcome rule: "error", "skipped", "pass" or "fail"."""
        if self.error is not None:
            return "error"
        if self.skipped_reason is not None:
            return "skipped"
        return "pass" if self.lhs == self.rhs else "fail"


def divisibility_report(statement: str, params: dict, s: int, modulus: int) -> Report:
    """The record of modulus | s: the remainder against 0, with the
    quotient as witness when the division is exact."""
    q, r = divmod(s, modulus)
    witness = q if r == 0 else None
    return Report(statement, params, modulus, lhs=r, rhs=0, witness=witness)


@contextlib.contextmanager
def long_decimals():
    """Lift CPython's 4300-digit limit on int <-> decimal string conversion
    for the block, restoring it afterwards (a no-op before 3.10.7).

    f_n, witnesses and cache values outgrow the limit; they are this
    package's own exact results, not untrusted input.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _retry_past_digit_limit(fmt: Callable[[Report], str]) -> Callable[[Report], str]:
    """fmt, retried under long_decimals() when a value is past the
    int -> str digit limit."""

    @functools.wraps(fmt)
    def formatted(r: Report) -> str:
        try:
            return fmt(r)
        except ValueError:
            with long_decimals():
                return fmt(r)

    return formatted


def _json_params(params: dict) -> str:
    parts = []
    for k in sorted(params):
        v = params[k]
        if type(v) is int:
            parts.append(f'{_quote(k)}: "{v}"')
        else:
            parts.append(f"{_quote(k)}: {_quote(str(v))}")
    return ", ".join(parts)


@_retry_past_digit_limit
def to_json_line(r: Report) -> str:
    """json.dumps(..., sort_keys=True) of the record with every value a
    decimal string, written directly: keys in sorted order, strings (and
    the str() of non-int params) escaped by json's own ASCII encoder, ints
    as they are, since their digits need no escaping.  Params keys are
    strings."""
    modulus = "exact" if r.modulus is None else r.modulus
    head = "{" if r.error is None else f'{{"error": {_quote(r.error)}, '
    line = (
        f'{head}"lhs": "{r.lhs}", "modulus": "{modulus}", '
        f'"params": {{{_json_params(r.params)}}}, "rhs": "{r.rhs}", '
    )
    if r.skipped_reason is not None:
        line += f'"skipped_reason": {_quote(r.skipped_reason)}, '
    line += f'"statement": {_quote(r.statement)}, "verdict": "{r.verdict}"'
    if r.witness is not None:
        line += f', "witness": "{r.witness}"'
    return line + "}"


# a tab, and each line break that str.splitlines() splits at, as a space
_ONE_FIELD = str.maketrans(dict.fromkeys("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", " "))


@_retry_past_digit_limit
def to_tsv_line(r: Report) -> str:
    """statement, params (k=v,... in insertion order), modulus, lhs, rhs,
    verdict, witness, skipped_reason; tab-separated, unescaped.  An error
    record's text takes the reason column, its tabs and line breaks
    replaced by spaces."""
    params = ",".join(f"{k}={v}" for k, v in r.params.items())
    modulus = "exact" if r.modulus is None else r.modulus
    witness = "" if r.witness is None else r.witness
    if r.error is not None:
        reason = r.error.translate(_ONE_FIELD)
    else:
        reason = "" if r.skipped_reason is None else r.skipped_reason
    return (
        f"{r.statement}\t{params}\t{modulus}\t{r.lhs}\t{r.rhs}\t"
        f"{r.verdict}\t{witness}\t{reason}"
    )


def json_summary(summary: dict) -> str:
    """The summary record: counts by verdict per statement and in total
    (an error count only in the summary of a sweep that has one)."""
    return json.dumps({"record_type": "summary", "statements": summary["statements"],
                       "total": summary["total"]}, sort_keys=True)


def tsv_summary(summary: dict) -> str:
    """One summary row per statement, then the TOTAL row; the count
    columns follow VERDICTS, then error in a sweep that has one."""
    rows = [*summary["statements"].items(), ("TOTAL", summary["total"])]
    columns = (*VERDICTS, "error") if "error" in summary["total"] else VERDICTS
    return "\n".join("\t".join(["summary", sid, *(str(c[v]) for v in columns)])
                     for sid, c in rows)


class Format(NamedTuple):
    """An output format: a record's line, and the lines of run_sweep's summary."""

    line: Callable[[Report], str]
    summary: Callable[[dict], str]


FORMATTERS = {
    "json-lines": Format(to_json_line, json_summary),
    "tsv": Format(to_tsv_line, tsv_summary),
}


def serialize(r: Report, fmt: str) -> str:
    """r as one line in fmt; run_sweep has already rejected an unknown fmt."""
    return FORMATTERS[fmt].line(r)
