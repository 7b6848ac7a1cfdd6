import pytest

from franel import identities
from franel.combinatorics import binomial, franel_direct
from franel.identities import (
    check_induction_identity,
    check_integrality,
    check_macmahon,
    check_partial_fraction,
    check_recurrence_step,
    check_route_agreement,
    check_strehl,
    check_summation_lemma,
    check_sun_expansion,
    induction_lhs,
)
from franel.reports import Report


def test_report_verdict():
    assert Report("x", {}, lhs=3, rhs=3).verdict == "pass"
    assert Report("x", {}, lhs=3, rhs=4).verdict == "fail"
    # a skip and an error win over equal sides, and an error over a skip
    assert Report("x", {}, lhs=3, rhs=3, skipped_reason="out of range").verdict == "skipped"
    assert Report("x", {}, lhs=3, rhs=3, error="ValueError: x").verdict == "error"
    assert Report("x", {}, skipped_reason="r", error="ValueError: x").verdict == "error"


class TestSunExpansion:
    def test_examples(self):
        [r] = check_sun_expansion(0)
        assert r.verdict == "pass" and r.lhs == 1
        [r] = check_sun_expansion(2)
        assert r.verdict == "pass" and r.lhs == 10
        [r] = check_sun_expansion(20)
        assert r.verdict == "pass"

    def test_sweep(self):
        for n in range(40):
            [r] = check_sun_expansion(n)
            assert r.verdict == "pass"


class TestInduction:
    def test_examples(self):
        for k in range(5):
            r = check_induction_identity(k)[k]
            assert r.verdict == "pass" and r.lhs == 0  # empty sum, (k-n) factor
        r = check_induction_identity(1)[0]
        assert r.verdict == "pass" and r.lhs == r.rhs == 8  # raw value 1, scaled by 8(2k+1)
        assert check_induction_identity(6)[2].verdict == "pass"

    def test_one_record_per_k(self):
        # k runs over 0 <= k <= n, and no further
        for n in range(6):
            assert [r.params["k"] for r in check_induction_identity(n)] == list(range(n + 1))

    def test_sweep(self):
        for n in range(25):
            reports = check_induction_identity(n)
            for k in range(n + 1):
                assert reports[k].verdict == "pass", (n, k)

    def test_induction_step_relation(self):
        # stepping n by one adds exactly the new m=n term to the raw sum
        for n, k in [(3, 1), (7, 0), (10, 4), (15, 15), (20, 7)]:
            new_term = (
                (3 * n + 1)
                * binomial(2 * n, n)
                * binomial(n + 2 * k, 3 * k)
                * (-4) ** (n - k)
            )
            assert induction_lhs(n + 1, k) - (-16) * induction_lhs(n, k) == new_term


class TestSummationLemma:
    def test_examples(self):
        for k in range(5):
            r = check_summation_lemma(k)[k]
            assert r.verdict == "pass" and r.lhs == 1
        r = check_summation_lemma(2)[1]
        assert r.verdict == "pass" and r.lhs == -2
        assert check_summation_lemma(7)[3].verdict == "pass"

    def test_one_record_per_k(self):
        # k runs over 0 <= k <= n, and no further
        for n in range(6):
            assert [r.params["k"] for r in check_summation_lemma(n)] == list(range(n + 1))

    def test_sweep(self):
        for n in range(30):
            reports = check_summation_lemma(n)
            for k in range(n + 1):
                assert reports[k].verdict == "pass", (n, k)

    def test_telescopes_to_zero_beyond_3k(self):
        # right side vanishes for n > 3k; the left must telescope to 0
        for n in range(1, 40):
            reports = check_summation_lemma(n)
            for k in range(n + 1):
                if n > 3 * k:
                    r = reports[k]
                    assert r.rhs == 0 and r.lhs == 0, (n, k)


class TestIntegrality:
    def test_examples(self):
        [r] = check_integrality(2)
        assert r.verdict == "pass"
        # k=1: C(3,1)/3 = 1 = 3 - 2*C(3,0)
        assert binomial(3, 1) // 3 == binomial(3, 1) - 2 * binomial(3, 0) == 1
        [r] = check_integrality(10)
        assert r.verdict == "pass"

    def test_bad_args(self):
        with pytest.raises(ValueError):
            check_integrality(1)

    def test_sweep(self):
        for n in range(2, 60):
            [r] = check_integrality(n)
            assert r.verdict == "pass"


class TestRecurrence:
    def test_examples(self):
        [r] = check_recurrence_step(2)
        assert r.verdict == "pass" and r.lhs == 9 * 56
        for n in range(1, 100):
            [r] = check_recurrence_step(n)
            assert r.verdict == "pass", n


class TestStrehl:
    def test_examples(self):
        [r] = check_strehl(0)
        assert r.verdict == "pass"
        [r] = check_strehl(2)
        assert r.verdict == "pass" and r.lhs == 10
        [r] = check_strehl(30)
        assert r.verdict == "pass"


def test_macmahon_and_partial_fraction_wrappers():
    # one record per point x = -3..3, in order
    for n in range(6):
        assert [r.params["x"] for r in check_macmahon(n)] == [-3, -2, -1, 0, 1, 2, 3]
    assert check_macmahon(2)[4].verdict == "pass"  # x = 1
    assert check_macmahon(1)[2].lhs == 0  # x = -1
    [r] = check_partial_fraction(0)
    assert r.verdict == "pass"
    [r] = check_partial_fraction(25)
    assert r.verdict == "pass"


def test_route_agreement_reports():
    for n in (0, 1, 7, 30):
        reports = check_route_agreement(n)
        assert len(reports) == 3
        assert all(r.verdict == "pass" for r in reports)
        assert all(r.rhs == franel_direct(n) for r in reports)


@pytest.mark.parametrize("name, route", [
    ("franel_strehl", "strehl"),
    ("franel", "recurrence"),
    ("franel_sun_expansion", "sun-expansion"),
])
def test_route_agreement_reads_each_route(monkeypatch, name, route):
    # each record's lhs is its own route's value: a wrong route fails its
    # record and no other, so no record compares the reference with itself
    monkeypatch.setattr(identities, name, lambda n: franel_direct(n) + 1)
    verdicts = {r.params["route"]: r.verdict for r in check_route_agreement(7)}
    assert verdicts == {key: "fail" if key == route else "pass"
                        for key in ("strehl", "recurrence", "sun-expansion")}
