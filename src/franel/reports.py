"""Verification report records and their serialization.

Big integers are rendered as decimal strings in both output formats so
downstream tooling never has to parse thousand-digit numerics.
"""
from __future__ import annotations

import contextlib
import json
import sys
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Report:
    """One verification outcome.

    modulus None means the two sides were compared as exact integers.
    witness carries the quotient for divisibility statements.
    A skipped_reason marks an out-of-hypothesis parameter; skipped
    reports are neither passes nor failures.
    """

    statement: str
    params: dict = field(default_factory=dict)
    modulus: int | None = None
    lhs: int = 0
    rhs: int = 0
    witness: int | None = None
    skipped_reason: str | None = None

    @property
    def skipped(self) -> bool:
        return self.skipped_reason is not None

    @property
    def passed(self) -> bool:
        return not self.skipped and self.lhs == self.rhs

    @property
    def verdict(self) -> str:
        if self.skipped:
            return "skipped"
        return "pass" if self.passed else "fail"


TSV_COLUMNS = (
    "statement",
    "params",
    "modulus",
    "lhs",
    "rhs",
    "verdict",
    "witness",
    "skipped_reason",
)


def _params_str(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in params.items())


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


def report_to_dict(r: Report) -> dict:
    try:
        return _report_fields(r)
    except ValueError:  # a value past the int -> str digit limit
        with long_decimals():
            return _report_fields(r)


def _report_fields(r: Report) -> dict:
    d = {
        "statement": r.statement,
        "params": {k: str(v) for k, v in r.params.items()},
        "modulus": "exact" if r.modulus is None else str(r.modulus),
        "lhs": str(r.lhs),
        "rhs": str(r.rhs),
        "verdict": r.verdict,
    }
    if r.witness is not None:
        d["witness"] = str(r.witness)
    if r.skipped_reason is not None:
        d["skipped_reason"] = r.skipped_reason
    return d


def to_json_line(r: Report) -> str:
    return json.dumps(report_to_dict(r), sort_keys=True)


def to_tsv_line(r: Report) -> str:
    d = report_to_dict(r)
    return "\t".join(
        (
            d["statement"],
            _params_str(r.params),
            d["modulus"],
            d["lhs"],
            d["rhs"],
            d["verdict"],
            d.get("witness", ""),
            d.get("skipped_reason", ""),
        )
    )


def serialize(r: Report, fmt: str) -> str:
    if fmt == "json-lines":
        return to_json_line(r)
    if fmt == "tsv":
        return to_tsv_line(r)
    raise ValueError(f"unknown format {fmt!r}")
