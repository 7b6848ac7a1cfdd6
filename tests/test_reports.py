import dataclasses
import io
import json
import pickle
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from franel import registry
from franel.conjectures import FamilyTriple, check_families
from franel.harness import run_sweep
from franel.reports import Report, to_json_line, to_tsv_line
from oracles import json_line_via_dict, tsv_line_via_dict

# The serialized forms the record-stream digest covers, one per shape of
# record: exact comparison, modular with a witness, skipped, error.
GOLDEN = [
    (
        Report("strehl", {"n": 2}, lhs=10, rhs=10),
        '{"lhs": "10", "modulus": "exact", "params": {"n": "2"}, "rhs": "10", '
        '"statement": "strehl", "verdict": "pass"}',
        "strehl\tn=2\texact\t10\t10\tpass\t\t",
    ),
    (
        Report("theorem1", {"n": 3}, modulus=60, lhs=0, rhs=0, witness=7),
        '{"lhs": "0", "modulus": "60", "params": {"n": "3"}, "rhs": "0", '
        '"statement": "theorem1", "verdict": "pass", "witness": "7"}',
        "theorem1\tn=3\t60\t0\t0\tpass\t7\t",
    ),
    (
        Report("theorem3", {"p": 5},
               skipped_reason="hypothesis requires p = 3 (mod 4)"),
        '{"lhs": "0", "modulus": "exact", "params": {"p": "5"}, "rhs": "0", '
        '"skipped_reason": "hypothesis requires p = 3 (mod 4)", '
        '"statement": "theorem3", "verdict": "skipped"}',
        "theorem3\tp=5\texact\t0\t0\tskipped\t\thypothesis requires p = 3 (mod 4)",
    ),
    (
        Report("strehl", {"n": 3}, error="ZeroDivisionError: integer division\tor\r\nmodulo"),
        '{"error": "ZeroDivisionError: integer division\\tor\\r\\nmodulo", "lhs": "0", '
        '"modulus": "exact", "params": {"n": "3"}, "rhs": "0", "statement": "strehl", '
        '"verdict": "error"}',
        "strehl\tn=3\texact\t0\t0\terror\t\tZeroDivisionError: integer division or  modulo",
    ),
]


@pytest.mark.parametrize("report, json_line, tsv_line", GOLDEN,
                         ids=["exact", "witness", "skipped", "error"])
def test_serialized_form_is_pinned(report, json_line, tsv_line):
    assert to_json_line(report) == json_line
    assert to_tsv_line(report) == tsv_line


@pytest.mark.parametrize("report", [g[0] for g in GOLDEN],
                         ids=["exact", "witness", "skipped", "error"])
def test_pickle_and_replace_keep_every_field(report):
    # slots cost neither pickling nor dataclasses.replace
    for copy in (pickle.loads(pickle.dumps(report)), dataclasses.replace(report)):
        assert copy == report and copy is not report
        assert to_json_line(copy) == to_json_line(report)
    assert not hasattr(report, "__dict__")


def test_serializes_past_int_str_limit(default_int_str_limit):
    # a library caller outside the CLI
    [r] = check_families((FamilyTriple(102, 11, 10400),), 1500)
    record = json.loads(to_json_line(r))
    assert record["verdict"] == "pass" and len(record["witness"]) > 4300
    assert to_tsv_line(r).split("\t")[6] == record["witness"]
    assert sys.get_int_max_str_digits() == 4300


def _small_grid_reports() -> list[Report]:
    reports = []
    for sid in registry.statement_ids():
        stmt = registry.STATEMENTS[sid]
        lo, hi = (0, 6) if stmt.kind == "n" else (2, 13)
        reports += registry.run_cells(sid, registry.cells_for(stmt, lo, hi))
    return reports


@pytest.mark.parametrize("fmt, formatter, oracle", [
    ("json-lines", to_json_line, json_line_via_dict),
    ("tsv", to_tsv_line, tsv_line_via_dict),
], ids=["json", "tsv"])
def test_small_grid_matches_dict_route(fmt, formatter, oracle):
    reports = _small_grid_reports()
    shapes = {
        "list param": any(isinstance(v, list) for r in reports for v in r.params.values()),
        "string param": {r.statement for r in reports
                         if any(isinstance(v, str) for v in r.params.values())}
        >= {"multinomial", "integrality"},
        "skipped": any(r.verdict == "skipped" for r in reports),
        "witness": any(r.witness is not None and r.witness > 0 for r in reports),
        "negative witness": any(r.witness is not None and r.witness < 0 for r in reports),
    }
    assert all(shapes.values()), shapes
    expected = [oracle(r) for r in reports]
    assert [formatter(r) for r in reports] == expected

    out = io.StringIO()
    run_sweep(n_range=(0, 6), p_range=(2, 13), workers=2, fmt=fmt, out=out)
    assert sorted(out.getvalue().splitlines()) == sorted(expected)


_AWKWARD = st.text(st.one_of(st.sampled_from('"\\\t\n\x00/é∑\U0001f600'), st.characters()))
_BIG = st.one_of(st.integers(), st.integers(-(10**5000), 10**5000))
_PARAM_VALUE = st.one_of(_BIG, _AWKWARD, st.booleans(), st.lists(st.integers(-3, 3), max_size=3))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    statement=_AWKWARD,
    params=st.dictionaries(_AWKWARD, _PARAM_VALUE, max_size=5),
    modulus=st.none() | _BIG,
    lhs=_BIG,
    rhs=_BIG,
    witness=st.none() | _BIG,
    skipped_reason=st.none() | _AWKWARD,
    error=st.none() | _AWKWARD,
)
def test_any_report_matches_dict_route(default_int_str_limit, statement, params,
                                       modulus, lhs, rhs, witness, skipped_reason, error):
    r = Report(statement, params, modulus, lhs, rhs, witness, skipped_reason, error)
    assert to_json_line(r) == json_line_via_dict(r)
    assert to_tsv_line(r) == tsv_line_via_dict(r)
    assert sys.get_int_max_str_digits() == 4300
