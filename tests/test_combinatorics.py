import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from franel import combinatorics
from franel.combinatorics import (
    InconsistencyError,
    binomial,
    binomial_generalized,
    central_binomial,
    central_binomials_upto,
    exact_div,
    franel,
    franel_direct,
    franel_strehl,
    franel_sun_expansion,
    franel_upto,
    macmahon_sides,
    partial_fraction_sides,
    recurrence_rhs,
)


def factorial_binomial(n, k):
    # independent oracle
    if k < 0 or k > n:
        return 0
    return math.factorial(n) // (math.factorial(k) * math.factorial(n - k))


def falling_factorial_binomial(x, k):
    # independent oracle for the generalized coefficient
    num = 1
    for j in range(k):
        num *= x - j
    q, r = divmod(num, math.factorial(k))
    assert r == 0
    return q


class TestBinomial:
    def test_examples(self):
        assert binomial(0, 0) == 1
        assert binomial(4, 2) == 6
        assert binomial(5, 7) == 0
        assert binomial(5, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(0, 120), st.integers(-5, 125))
    def test_against_factorial_oracle(self, n, k):
        assert binomial(n, k) == factorial_binomial(n, k)

    @given(st.integers(0, 80), st.integers(0, 80))
    def test_symmetry(self, n, k):
        if k <= n:
            assert binomial(n, k) == binomial(n, n - k)

    @given(st.integers(1, 80), st.integers(1, 79))
    def test_pascal(self, n, k):
        if k <= n - 1:
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_large_n_against_factorial_oracle(self):
        n = 2100
        for k in (-1, 0, 1, 7, 1049, 1050, 2099, 2100, 2101):
            assert binomial(n, k) == factorial_binomial(n, k), k

    def test_central_binomials(self, monkeypatch):
        # the single-entry read grows the shared cache on its own
        monkeypatch.setattr(combinatorics, "_CENTRAL_CACHE", [1])
        assert central_binomial(30) == factorial_binomial(60, 30)
        cb = central_binomials_upto(30)
        assert cb == [factorial_binomial(2 * k, k) for k in range(31)]
        assert [central_binomial(k) for k in range(31)] == cb
        with pytest.raises(ValueError):
            central_binomial(-1)

    def test_exact_div_message_names_each_index(self):
        assert exact_div(12, 3, "term", "n k", 5, 3) == 4
        with pytest.raises(InconsistencyError) as err:
            exact_div(7, 3, "term", "n x k", 5, -1, 3)
        assert str(err.value) == "term: division by 3 inexact at n=5, x=-1, k=3"

    def test_central_binomial_inexact_step_raises(self, monkeypatch):
        # C(4,2) = 5 instead of 6: the next step is 50/3
        monkeypatch.setattr(combinatorics, "_CENTRAL_CACHE", [1, 2, 5])
        with pytest.raises(InconsistencyError, match="division by 3 inexact at k=3"):
            central_binomials_upto(3)


class TestGeneralizedBinomial:
    def test_examples(self):
        assert binomial_generalized(-2, 3) == -4
        assert binomial_generalized(7, 0) == 1
        assert binomial_generalized(-100, 0) == 1
        assert binomial_generalized(5, 2) == 10

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            binomial_generalized(3, -1)

    @given(st.integers(-60, 60), st.integers(0, 40))
    def test_against_falling_factorial_oracle(self, x, k):
        assert binomial_generalized(x, k) == falling_factorial_binomial(x, k)

    def test_agrees_with_binomial_on_nonnegative_args(self):
        for x in range(51):
            for k in range(x + 1):
                assert binomial_generalized(x, k) == binomial(x, k)


# the four routes to f_n
ROUTES = (franel_direct, franel_strehl, franel, franel_sun_expansion)


class TestFranel:
    def test_first_values(self):
        # f_n = sum of cubes of row n, evaluated longhand
        expected = [1, 2, 10, 56, 346, 2252]
        for route in ROUTES:
            assert [route(n) for n in range(6)] == expected

    def test_examples(self):
        assert franel_direct(0) == 1
        assert franel_direct(2) == 1 + 8 + 1
        assert franel(3) == 56  # 9*f_3 = 44*10 + 32*2
        assert franel_strehl(5) == sum(binomial(5, k) ** 3 for k in range(6))

    def test_negative_index(self):
        with pytest.raises(ValueError):
            franel(-1)

    def test_direct_route_against_full_row(self):
        # franel_direct sums half the row; odd and even n, the middle term
        for n in range(302):
            assert franel_direct(n) == oracles.franel_direct_comb(n), n

    @given(st.integers(0, 40))
    @settings(max_examples=30)
    def test_routes_agree(self, n):
        values = {route.__name__: route(n) for route in ROUTES}
        assert len(set(values.values())) == 1, values

    def test_table_routes(self):
        assert franel_upto(3) == [1, 2, 10, 56]
        assert franel_upto(0) == [1]
        assert franel_sun_expansion(5) == 2252

    def test_recurrence_rhs_against_direct_route(self):
        # (n+1)^2 f_{n+1}, with f_{-1} = 0 at n = 0
        f = [franel_direct(n) for n in range(302)]
        for n in range(301):
            f_prev = f[n - 1] if n else 0
            assert recurrence_rhs(n, f_prev, f[n]) == (n + 1) ** 2 * f[n + 1]

    def test_table_strictly_increasing(self):
        values = franel_upto(200)
        assert values[0] == 1 and values[1] == 2
        assert all(b > a > 0 for a, b in zip(values[1:], values[2:]))


class TestMacmahon:
    def test_examples(self):
        assert macmahon_sides(2, 1) == (10, 10)
        for n in range(10):
            assert macmahon_sides(n, 0) == (1, 1)
        assert macmahon_sides(1, -1) == (0, 0)

    def test_degenerate_zero_power(self):
        # x = -1 with n = 2k exercises the 0^0 = 1 convention
        lhs, rhs = macmahon_sides(4, -1)
        assert lhs == rhs

    def test_small_sweep(self):
        for n in range(25):
            for x in range(-3, 4):
                lhs, rhs = macmahon_sides(n, x)
                assert lhs == rhs, (n, x)


class TestPartialFraction:
    def test_examples(self):
        # (lhs, rhs, L): both numerators over L = (2n+1)!!
        assert partial_fraction_sides(0) == (2, 2, 1)
        assert partial_fraction_sides(1) == (4, 4, 3)
        lhs, rhs, den = partial_fraction_sides(2)
        assert lhs == rhs and den == 15

    def test_oracle(self):
        # brute-force both sides as Fractions from their definitions
        for n in range(30):
            lhs, rhs, den = partial_fraction_sides(n)
            assert den == math.prod(range(1, 2 * n + 2, 2))
            half = Fraction(1, 2)
            lhs_q = sum(
                (-1) ** k * math.comb(n, k) / (half + k) for k in range(n + 1)
            )
            prod = Fraction(1)
            for j in range(n + 1):
                prod *= half + j
            rhs_q = Fraction(math.factorial(n)) / prod
            assert Fraction(rhs, den) == rhs_q
            assert Fraction(lhs, den) == lhs_q
            assert lhs == rhs
