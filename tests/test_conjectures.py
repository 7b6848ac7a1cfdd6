import itertools

import pytest

from franel import conjectures
from franel.combinatorics import binomial, franel_upto
from franel.congruences import check_theorem2
from franel.conjectures import (
    NEW1_TRIPLES,
    NEW2_TRIPLES,
    FamilyTriple,
    check_conjecture1,
    check_conjecture2,
    check_families,
    check_product_note,
    check_zw_guo,
    check_zw_strengthened,
    conjecture2_target,
    third_conjecture_grid,
)
from franel.modular import primes_in_range
from franel.reports import to_json_line

import oracles
from oracles import (
    MultiIndexSpec,
    check_third_conjecture,
    third_conjecture_grid_per_tuple,
)


class TestConjecture1:
    def test_examples(self):
        [r] = check_conjecture1(5)
        assert r.verdict == "pass" and r.lhs == 5 and r.modulus == 25
        [r] = check_conjecture1(7)
        assert r.verdict == "pass" and r.lhs == -7 % 49 == 42
        [r] = check_conjecture1(499)
        assert r.verdict == "pass"

    def test_hypothesis_bound(self):
        with pytest.raises(ValueError):
            check_conjecture1(3)

    def test_implied_by_theorem2(self):
        # agreement between the p^2 and p^3 checks
        for p in primes_in_range(5, 100):
            [c1] = check_conjecture1(p)
            [t2] = check_theorem2(p)
            assert c1.lhs == t2.lhs % (p * p)
            assert c1.rhs == t2.rhs % (p * p)
            assert c1.verdict == "pass" and t2.verdict == "pass"


class TestConjecture2:
    def test_case_3_mod_4(self):
        [r] = check_conjecture2(7)
        assert r.verdict == "pass" and r.rhs == 0 and r.params["case"] == "3mod4"

    def test_case_1_mod_12(self):
        [r] = check_conjecture2(13)
        # x=3 (so 6 | x-3): target 2p - 4x^2 = -10 = 159 (mod 169)
        assert r.verdict == "pass" and r.rhs == 159 and r.params["case"] == "1mod12_x"
        target, case = conjecture2_target(61)  # 61 = 5^2 + 6^2, 6 | y
        assert case == "1mod12_y" and target == (4 * 25 - 2 * 61) % (61 * 61)

    def test_case_5_mod_12(self):
        [r] = check_conjecture2(5)
        # x=1, y=2, legendre(2,3) = -1: target -8 = 17 (mod 25)
        assert r.verdict == "pass" and r.rhs == 17 and r.params["case"] == "5mod12"

    def test_sweep(self):
        for p in primes_in_range(3, 300):
            [r] = check_conjecture2(p)
            assert r.verdict == "pass", p

    def test_rejects_2_and_composites(self):
        with pytest.raises(ValueError):
            check_conjecture2(2)
        with pytest.raises(ValueError):
            check_conjecture2(15)

    def test_target_sign_flip_invariance(self):
        # the 5 mod 12 target is invariant under sign flips of x, y
        from franel.modular import legendre_symbol

        for p in primes_in_range(5, 500):
            if p % 12 != 5:
                continue
            target, _ = conjecture2_target(p)
            from franel.modular import two_squares_decompose

            ts = two_squares_decompose(p)
            for sx in (1, -1):
                for sy in (1, -1):
                    x, y = sx * ts.x, sy * ts.y
                    assert 4 * legendre_symbol(x * y, 3) * x * y % (p * p) == target


class TestFamilies:
    def test_examples(self):
        [r] = check_families((FamilyTriple(3, 1, -16),), 3)
        assert r.verdict == "pass" and r.witness == 7
        [r] = check_families((FamilyTriple(9, 4, 5),), 2)
        assert r.verdict == "pass" and r.witness == 6
        [r] = check_families((FamilyTriple(15, 4, -49),), 2)
        assert r.verdict == "pass" and r.witness == -10

    def test_listed_triples_small_sweep(self):
        for triples in (NEW1_TRIPLES, NEW2_TRIPLES):
            for n in range(2, 60):
                reports = check_families(triples, n)
                assert len(reports) == len(triples), n
                for t, r in zip(triples, reports):
                    assert r.verdict == "pass", (t, n)
                    assert r.params == {"a": t.a, "b": t.b, "c": t.c, "n": n}

    def test_zero_base(self):
        # c = 0: S_3 = (1*2 + 1) C(4,2) f_2 = 180 = 3 * (3 C(6,3))
        [r] = check_families((FamilyTriple(1, 1, 0),), 3)
        assert r.verdict == "pass" and r.witness == 3

    def test_bad_args(self):
        with pytest.raises(ValueError):
            check_families((FamilyTriple(9, 4, 5),), 1)


class TestThirdConjecture:
    def test_examples(self):
        r = check_third_conjecture(MultiIndexSpec(1, (1,)), 2, "linear")
        assert r.verdict == "pass" and r.modulus == 4  # sum = 2 + 30 = 32
        r = check_third_conjecture(MultiIndexSpec(1, (1,)), 1, "linear")
        assert r.verdict == "pass" and r.modulus == 1
        r = check_third_conjecture(MultiIndexSpec(2, (1, -1)), 3, "quadratic")
        assert r.verdict == "pass"

    def test_degenerate_zero_multiplier_flagged(self):
        r = check_third_conjecture(MultiIndexSpec(2, (0, 2)), 4, "linear")
        assert r.verdict == "pass" and r.params["degenerate"] is True

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            MultiIndexSpec(2, (1,))
        with pytest.raises(ValueError):
            check_third_conjecture(MultiIndexSpec(1, (1,)), 2, "cubic")

    def test_grid_matches_single_checks(self):
        for n in (1, 2, 5, 9):
            grid = {
                (r.params["m"], tuple(r.params["a"]), r.params["variant"]): r
                for r in third_conjecture_grid(n)
            }
            for m, tuples in ((1, [(-2,), (0,), (3,)]), (2, [(-2, 3), (0, 0)])):
                for tup in tuples:
                    for variant in ("linear", "quadratic"):
                        single = check_third_conjecture(
                            MultiIndexSpec(m, tup), n, variant
                        )
                        r = grid[(m, tup, variant)]
                        assert (r.lhs, r.rhs, r.modulus) == (
                            single.lhs,
                            single.rhs,
                            single.modulus,
                        )

    def test_small_sweep(self):
        for n in range(1, 30):
            assert all(r.verdict == "pass" for r in third_conjecture_grid(n)), n


def _assert_grid_matches_single_checks(n):
    """Every record of the grid at n equals the one-cell oracle's record,
    and the grid has exactly one record per (tuple, variant)."""
    cells = []
    for r in third_conjecture_grid(n):
        tup, variant = tuple(r.params["a"]), r.params["variant"]
        single = check_third_conjecture(MultiIndexSpec(len(tup), tup), n, variant)
        assert (r.statement, r.lhs, r.rhs, r.modulus, r.params) == (
            single.statement,
            single.lhs,
            single.rhs,
            single.modulus,
            single.params,
        ), (n, tup, variant)
        cells.append((tup, variant))
    expected = [
        (tup, variant)
        for m in range(1, conjectures.THIRD_MAX_LENGTH + 1)
        for tup in itertools.product(conjectures.THIRD_MULTIPLIERS, repeat=m)
        for variant in ("linear", "quadratic")
    ]
    assert sorted(cells) == sorted(expected)


class TestThirdConjectureKernel:
    """The packed dot-product grid against the per-cell oracle and the
    per-tuple route it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 120])
    def test_default_grid_matches_single_checks(self, n):
        _assert_grid_matches_single_checks(n)

    @pytest.mark.parametrize("n", [3, 9, 27, 81])
    def test_digits_at_their_bound(self, n, monkeypatch):
        # Worst-case residues: every factor column is (-1)^(k+1), so its
        # signed column (-1)^k c_a(k) is -1, and the Franel column makes each
        # linear weight (3k+2) f_k equal (-1)^k mod n^2 (3k+2 is a unit there
        # when n is a power of 3), so each packed linear digit is -1 too and
        # every length-2 linear sum is n * (n^2 - 1)^2, the digit bound itself.
        m2 = n * n

        def columns(a, size, modulus):
            return [(-1) ** (k + 1) % modulus for k in range(size)]

        def franel(top):
            return [(-1) ** k * pow(3 * k + 2, -1, m2) for k in range(top + 1)]

        for module in (conjectures, oracles):
            monkeypatch.setattr(module, "product_factor_columns", columns)
            monkeypatch.setattr(module, "franel_upto", franel)
        grid = third_conjecture_grid(n)
        assert list(map(to_json_line, grid)) == list(
            map(to_json_line, third_conjecture_grid_per_tuple(n))
        )
        at_bound = [
            r.lhs for r in grid
            if r.params["m"] == 2 and r.params["variant"] == "linear"
        ]
        assert at_bound == [n * (m2 - 1) ** 2 % m2] * 49

    def test_lines_identical_to_per_tuple_route(self):
        for n in range(1, 121):
            assert list(map(to_json_line, third_conjecture_grid(n))) == list(
                map(to_json_line, third_conjecture_grid_per_tuple(n))
            ), n


class TestProductNote:
    @staticmethod
    def _by_a_k(p):
        return {(r.params["a"], r.params["k"]): r for r in check_product_note(p)}

    def test_examples(self):
        r = self._by_a_k(3)[1, 1]
        assert r.verdict == "pass" and r.lhs == 8 % 9 and r.rhs == -1 % 9
        for p, a in [(3, 1), (5, 2), (7, 5)]:
            assert self._by_a_k(p)[a, 0].lhs == 1
        assert self._by_a_k(5)[2, 3].verdict == "pass"

    def test_bad_args(self):
        with pytest.raises(ValueError):
            check_product_note(4)

    def test_sweep(self):
        for p in primes_in_range(3, 50):
            reports = check_product_note(p)
            assert [(r.params["a"], r.params["k"]) for r in reports] == [
                (a, k) for a in range(1, 6) for k in range(p)
            ], p
            assert all(r.verdict == "pass" for r in reports), p

    def test_cross_check_product_free_form_at_prime_n(self):
        # at prime n the product factors reduce to (-1)^k mod n^2, so the
        # full sum must agree with the (-1)^(mk)-weighted product-free sum
        f = franel_upto(12)
        for n in (3, 5, 7, 11, 13):
            m2 = n * n
            for m in (1, 2, 3):
                for a_list in [(1,) * m, (2,) * m, tuple(range(1, m + 1))]:
                    full = check_third_conjecture(
                        MultiIndexSpec(m, a_list), n, "linear"
                    ).lhs
                    free = (
                        sum(
                            (3 * k + 2)
                            * (-1) ** ((m - 1) * k)
                            * (-1) ** (m * k)
                            * f[k]
                            for k in range(n)
                        )
                        % m2
                    )
                    assert full == free, (n, m, a_list)


class TestZwSun:
    def test_examples(self):
        [r] = check_zw_guo(2)
        assert r.verdict == "pass" and r.witness == -1 and r.modulus == 8
        [r] = check_zw_strengthened(2)
        assert r.verdict == "pass" and r.witness == -7 and r.modulus == 4
        [r] = check_zw_guo(100)
        assert r.verdict == "pass"

    def test_bad_args(self):
        with pytest.raises(ValueError):
            check_zw_strengthened(1)
        with pytest.raises(ValueError):
            check_zw_guo(0)

    def test_sweep(self):
        for n in range(1, 80):
            [r] = check_zw_guo(n)
            assert r.verdict == "pass"
            if n >= 2:
                [r] = check_zw_strengthened(n)
                assert r.verdict == "pass"

    def test_any_query_order_matches_direct_sum(self, monkeypatch):
        monkeypatch.setattr(conjectures, "_ZW_CACHE", {})
        f = franel_upto(120)
        checks = {check_zw_guo: lambda k: 3 * k + 2,
                  check_zw_strengthened: lambda k: 9 * k * k + 5 * k}
        for check, weight in checks.items():
            for n in list(range(120, 80, -1)) + list(range(2, 81)):
                direct = sum(weight(k) * (-1) ** k * f[k] for k in range(n))
                [r] = check(n)
                assert r.witness * r.modulus + r.lhs == direct, (check.__name__, n)


def test_witnesses_reconstruct_sums():
    for t in (FamilyTriple(9, 4, 5), FamilyTriple(9, 2, -112)):
        for n in (2, 7, 20):
            [r] = check_families((t,), n)
            from franel.congruences import family_sum

            assert r.witness * n * binomial(2 * n, n) == family_sum(t.a, t.b, t.c, n)
