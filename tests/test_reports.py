import json
import sys

import pytest

from franel.conjectures import FamilyTriple, check_family
from franel.reports import Report, to_json_line, to_tsv_line

# The serialized forms the record-stream digest covers, one per shape of
# record: exact comparison, modular with a witness, skipped.
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
]


@pytest.mark.parametrize("report, json_line, tsv_line", GOLDEN,
                         ids=["exact", "witness", "skipped"])
def test_serialized_form_is_pinned(report, json_line, tsv_line):
    assert to_json_line(report) == json_line
    assert to_tsv_line(report) == tsv_line


def test_serializes_past_int_str_limit(default_int_str_limit):
    # a library caller, e.g. run_sweep(on_report=...), outside the CLI
    r = check_family(FamilyTriple(102, 11, 10400), 1500)
    record = json.loads(to_json_line(r))
    assert record["verdict"] == "pass" and len(record["witness"]) > 4300
    assert to_tsv_line(r).split("\t")[6] == record["witness"]
    assert sys.get_int_max_str_digits() == 4300
