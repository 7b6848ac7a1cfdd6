import math

import pytest

from franel import congruences, registry
from franel.combinatorics import (
    InconsistencyError,
    binomial,
    central_binomials_upto,
    franel_upto,
    pulled_out_sum,
)
from franel.congruences import (
    check_babbage,
    check_central_pmod,
    check_fermat_square,
    check_final_reflect,
    check_half_binom,
    check_jarvis_verrill,
    check_morley,
    check_multinomial,
    check_reduction_chain,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    family_sum,
    final3_rhs_terms,
    inverse_weighted_sum_mod,
)
from franel.conjectures import NEW1_TRIPLES, NEW2_TRIPLES
from franel.harness import run_sweep
from franel.modular import NotCoprimeError, mod_inverse, primes_in_range
from franel.reports import OutsideHypothesis
from oracles import (
    chain_inner_sum,
    family_sum_noinc,
    inverse_weighted_sum_bigint,
    inverse_weighted_sum_residue,
)

# theorem1's weights, then the conjectured families
REGISTERED = [(3, 1, -16)] + [(t.a, t.b, t.c) for t in NEW1_TRIPLES + NEW2_TRIPLES]


def test_family_sum_matches_reference():
    # c = 0 leaves only the k = n-1 term (0^0 = 1); c = +-1 have no growth
    extra = [(1, 1, 0), (3, 2, 0), (2, 5, 1), (3, 1, -1)]
    for a, b, c in REGISTERED + extra:
        for n in range(0, 40):
            assert family_sum(a, b, c, n) == family_sum_noinc(a, b, c, n), (a, b, c, n)


# two more weight pairs on theorem1's base, so they share its walk
SHARED_BASE = REGISTERED + [(0, 1, -16), (7, -2, -16)]
MID_RANGE_START = list(range(100, 201)) + list(range(100))


@pytest.mark.parametrize("queries", [
    [(t, n) for t in SHARED_BASE for n in range(200, -1, -1)],  # descending
    [(t, n) for t in SHARED_BASE for n in MID_RANGE_START],
    [(t, n) for n in MID_RANGE_START for t in SHARED_BASE],  # every triple per n
], ids=["descending", "mid-range-start", "interleaved"])
def test_family_sum_any_query_order(queries, monkeypatch):
    # an empty table, as in a fresh pool worker handed a later chunk
    monkeypatch.setattr(congruences, "_FAMILY_CACHE", {})
    for (a, b, c), n in queries:
        assert family_sum(a, b, c, n) == family_sum_noinc(a, b, c, n), (a, b, c, n)


def _count_walk_steps(monkeypatch) -> list:
    """From now on, record each step of the family walk as (k,), where P_k
    is the term the step reaches."""
    steps = []
    exact_div = congruences.exact_div

    def counting(num, den, what, *rest):
        if what == "C(2k,k) f_k recurrence":
            steps.append(rest[1:])
        return exact_div(num, den, what, *rest)

    monkeypatch.setattr(congruences, "exact_div", counting)
    return steps


def test_family_sum_keeps_one_state_per_base(monkeypatch):
    monkeypatch.setattr(congruences, "_FAMILY_CACHE", {})
    s = family_sum(102, 11, 10400, 3000)
    j, state = congruences._FAMILY_CACHE[10400]
    assert (j, 102 * state[0] + 11 * state[1]) == (3000, s)
    # (U, V, P_{j-1}, P_j) where the walk ended, and nothing else
    assert len(state) == 4
    # a lower n walks again from k = 0 and leaves the state at n
    steps = _count_walk_steps(monkeypatch)
    u = family_sum_noinc(1, 0, 10400, 2999)
    v = family_sum_noinc(0, 1, 10400, 2999)
    assert family_sum(102, 11, 10400, 2999) == 102 * u + 11 * v
    assert steps == [(k,) for k in range(1, 3000)]
    cb, f = central_binomials_upto(2998), franel_upto(2998)
    # P_2998, and P_2999 as the walk to 3000 left it
    assert congruences._FAMILY_CACHE[10400] == (2999, (u, v, cb[2998] * f[2998], state[2]))
    # other weights on the same base read the same walk
    steps.clear()
    assert family_sum(0, 1, 10400, 3000) == state[1]
    assert steps == [(3000,)]
    assert list(congruences._FAMILY_CACHE) == [10400]


def test_family_sum_rejects_negative_n():
    with pytest.raises(ValueError):
        family_sum(3, 1, -16, -1)


class TestTheorem1:
    def test_examples(self):
        [r] = check_theorem1(2)
        assert r.verdict == "pass" and r.witness == 0
        assert family_sum(3, 1, -16, 2) == -16 + 16 == 0
        [r] = check_theorem1(3)
        assert r.verdict == "pass" and r.witness == 7
        assert family_sum(3, 1, -16, 3) == 256 - 256 + 420 == 420
        [r] = check_theorem1(50)
        assert r.verdict == "pass"

    def test_bad_args(self):
        with pytest.raises(ValueError):
            check_theorem1(1)

    def test_sweep(self):
        for n in range(2, 120):
            [r] = check_theorem1(n)
            assert r.verdict == "pass"
            assert r.witness * n * binomial(2 * n, n) == family_sum(3, 1, -16, n)


class TestTheorem2:
    def test_p3_hand_checked(self):
        # lhs = 1 + 16*inv(11) + 420*inv(13) = 1 + 26 + 24 = 24 (mod 27)
        [r] = check_theorem2(3)
        assert r.verdict == "pass" and r.lhs == r.rhs == 24 and r.modulus == 27
        assert 16 * mod_inverse(-16, 27) % 27 == 26
        assert 420 * mod_inverse(256, 27) % 27 == 24

    def test_p5(self):
        [r] = check_theorem2(5)
        assert r.verdict == "pass" and r.lhs == r.rhs == 5 and r.modulus == 125

    def test_large(self):
        [r] = check_theorem2(997)
        assert r.verdict == "pass"

    def test_oracle_modular_sum(self):
        # rebuild the sum with one modular division per term
        f = franel_upto(6)
        for p in (3, 5, 7):
            m = p**3
            total = 0
            for k in range(p):
                num = (3 * k + 1) * binomial(2 * k, k) * f[k]
                total += num * mod_inverse((-16) ** k, m) % m
            [r] = check_theorem2(p)
            assert total % m == r.lhs

    def test_p2_outside_hypothesis(self):
        # a plain skip, as at every other prime-axis check: no second type
        with pytest.raises(OutsideHypothesis, match=r"^p = 2: -16 not invertible$") as raised:
            check_theorem2(2)
        assert not isinstance(raised.value, NotCoprimeError)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            check_theorem2(9)


class TestTheorem3:
    def test_examples(self):
        for p in (3, 7, 19):
            [r] = check_theorem3(p)
            assert r.verdict == "pass"

    def test_rejects_1_mod_4(self):
        with pytest.raises(ValueError):
            check_theorem3(5)

    def test_sweep(self):
        for p in primes_in_range(3, 200):
            if p % 4 == 3:
                [r] = check_theorem3(p)
                assert r.verdict == "pass"


# the auxiliary congruences, each registered with its congruences.check_<id>
AUX_IDS = (
    "babbage",
    "morley",
    "jarvis_verrill",
    "multinomial",
    "half_binom",
    "central_pmod",
    "fermat_square",
    "final_reflect",
)


def assert_aux_cell(aux_id, p):
    """A cell is exactly one skipped record at p = 2, and at p = 3 for
    morley and multinomial (which need p > 3); elsewhere every report
    passes."""
    stmt = registry.STATEMENTS[aux_id]
    assert stmt.run is getattr(congruences, f"check_{aux_id}")
    reports = registry.run_cell(aux_id, p)
    if p == 2 or (p == 3 and aux_id in ("morley", "multinomial")):
        assert [r.verdict for r in reports] == ["skipped"], (aux_id, p)
    else:
        assert reports and all(r.verdict == "pass" for r in reports), (aux_id, p)


class TestAuxiliary:
    def test_babbage(self):
        (r,) = check_babbage(5)
        assert r.verdict == "pass" and binomial(9, 4) == 126 and r.lhs == 126 % 25 == 1

    def test_babbage_mod_p_squared(self):
        # C(2p-1, p-1) = 1 holds mod p^2, more than the mod p that Lucas's
        # theorem gives, so the record's modulus is p^2
        for p in primes_in_range(3, 60):
            (r,) = check_babbage(p)
            assert r.verdict == "pass" and r.modulus == p * p
            assert r.lhs == math.comb(2 * p - 1, p - 1) % (p * p) == 1

    def test_morley(self):
        (r,) = check_morley(5)
        assert r.verdict == "pass" and r.lhs == 6 and r.rhs == 256 % 125 == 6
        with pytest.raises(ValueError):
            check_morley(3)

    def test_jarvis_verrill(self):
        reports = check_jarvis_verrill(3)
        assert [r.verdict for r in reports] == ["pass"] * 3
        # f_0 = 1 = f_2 (mod 3); f_1 = 2 = -8 f_1 (mod 3)
        assert reports[0].lhs == reports[0].rhs == 1
        assert reports[1].lhs == reports[1].rhs == 2

    def test_multinomial(self):
        reports = {r.params["k"]: r for r in check_multinomial(5)}
        assert 2 not in reports  # k = (p-1)/2 routed to half_binom
        r = reports[1]
        assert r.verdict == "pass" and r.lhs == 105 % 25 == 5
        with pytest.raises(ValueError):
            check_multinomial(3)

    def test_half_binom(self):
        exact, mod = check_half_binom(5)
        assert exact.verdict == "pass" and exact.lhs == -4536
        assert mod.verdict == "pass" and mod.lhs == -4536 % 25 == (-(16**4)) % 25 == 14

    def test_central_pmod(self):
        reports = {r.params["k"]: r for r in check_central_pmod(5)}
        r = reports[2]
        assert r.verdict == "pass" and r.lhs == 6 * pow(16, -1, 5) % 5 == 1

    def test_fermat_square(self):
        (r,) = check_fermat_square(3)
        assert r.verdict == "pass" and r.modulus == 9 and r.rhs == 1

    def test_final_reflect(self):
        for p in (3, 5, 7, 11, 13):
            assert all(r.verdict == "pass" for r in check_final_reflect(p))

    def test_half_binom_inexact_term_raises(self, monkeypatch):
        # every binomial 1: the k=(p-1)/2 numerator is k - p, not a multiple of p
        monkeypatch.setattr(congruences, "binomial", lambda n, k: 1)
        with pytest.raises(InconsistencyError):
            check_half_binom(5)

    @pytest.mark.parametrize("aux_id", AUX_IDS)
    def test_requires_odd_prime(self, aux_id):
        check = getattr(congruences, f"check_{aux_id}")
        with pytest.raises(OutsideHypothesis, match=f"^{aux_id} requires "):
            check(2)
        with pytest.raises(ValueError, match="not prime") as raised:
            check(9)
        assert not isinstance(raised.value, OutsideHypothesis)

    def test_all_ids_small_sweep(self):
        for p in primes_in_range(2, 60):
            for aux_id in AUX_IDS:
                assert_aux_cell(aux_id, p)


class TestReductionChain:
    def test_central_vanish_p5(self):
        reports = [
            r for r in check_reduction_chain(5)
            if r.statement == "chain_central_vanish"
        ]
        assert [r.params["k"] for r in reports] == [3, 4]
        assert reports[0].lhs == 20 % 5 == 0 and reports[1].lhs == 70 % 5 == 0

    def test_final3_p7_both_zero(self):
        (r,) = [
            r for r in check_reduction_chain(7) if r.statement == "chain_final3"
        ]
        assert r.verdict == "pass" and r.lhs == 0 and r.rhs == 0

    def test_final3_p13_nonzero_common_residue(self):
        (r,) = [
            r for r in check_reduction_chain(13) if r.statement == "chain_final3"
        ]
        assert r.verdict == "pass" and r.lhs != 0

    def test_pair_cancellation_is_exact(self):
        for p in (3, 7, 11, 19, 23):
            terms = final3_rhs_terms(p)
            half = (p - 1) // 2
            for k in range((half + 1) // 2):
                assert terms[k] + terms[half - k] == 0
            pair_reports = [
                r for r in check_reduction_chain(p)
                if r.statement == "chain_final3_pair"
            ]
            assert pair_reports and all(r.verdict == "pass" for r in pair_reports)

    def test_no_pair_reports_for_1_mod_4(self):
        assert not [
            r for r in check_reduction_chain(13)
            if r.statement == "chain_final3_pair"
        ]

    def test_inverse_sum_not_multiple_of_p_raises(self, monkeypatch):
        # an explicit raise, so it also holds under python -O
        monkeypatch.setattr(
            congruences, "inverse_weighted_sum_mod", lambda p: (1, 0)
        )
        with pytest.raises(InconsistencyError, match="not divisible by p"):
            check_reduction_chain(5)

    def test_pulled_out_sum_against_displayed_inner_sum(self):
        # (-1)^k 4^(p-1-k) = -(-4)^(p-k) / 4 for odd p
        for p in primes_in_range(3, 499):
            assert -pulled_out_sum(p) // 4 == chain_inner_sum(p)

    def test_full_chain_small_primes(self):
        for p in primes_in_range(3, 80):
            reports = check_reduction_chain(p)
            assert all(r.verdict == "pass" for r in reports), (
                p,
                [r.statement for r in reports if r.verdict != "pass"],
            )


def test_inverse_weighted_sum_matches_theorem_reports():
    for p in (3, 5, 7, 11):
        m = p * p
        oracle = inverse_weighted_sum_bigint(p, m, [3 * k + 1 for k in range(p)])
        assert inverse_weighted_sum_mod(p)[0] % m == oracle
        [r] = check_theorem2(p)
        assert r.lhs % m == oracle


def test_inverse_weighted_sum_matches_bigint():
    for p in primes_in_range(3, 1000) + [1999, 2999]:
        m = p**3
        assert inverse_weighted_sum_mod(p) == (
            inverse_weighted_sum_bigint(p, m, [3 * k + 1 for k in range(p)]),
            inverse_weighted_sum_bigint(p, m),
        ), p


@pytest.fixture(scope="module")
def residue_pairs():
    return {p: inverse_weighted_sum_residue(p) for p in primes_in_range(3, 3000)}


@pytest.mark.parametrize("order", [
    primes_in_range(3, 3000),  # ascending
    primes_in_range(3, 3000)[::-1],  # descending
    primes_in_range(1500, 3000) + primes_in_range(3, 1499),  # mid-range start
], ids=["ascending", "descending", "mid-range-start"])
def test_inverse_walk_matches_residue_route(order, residue_pairs, monkeypatch):
    # an empty walk and memo, as in a fresh pool worker handed any chunk
    monkeypatch.setattr(congruences, "_FAMILY_CACHE", {})
    inverse_weighted_sum_mod.cache_clear()
    assert len(order) == len(residue_pairs) == 429
    for p in order:
        assert inverse_weighted_sum_mod(p) == residue_pairs[p], p


def test_inverse_sums_share_one_walk(monkeypatch):
    # 89 is below the state at 97, so both sums of the pair come from one
    # walk of 89 steps from k = 0
    monkeypatch.setattr(congruences, "_FAMILY_CACHE", {})
    inverse_weighted_sum_mod.cache_clear()
    inverse_weighted_sum_mod(97)
    steps = _count_walk_steps(monkeypatch)
    inverse_weighted_sum_mod(89)
    assert steps == [(k,) for k in range(1, 90)]


def test_base_minus_16_statements_walk_once_per_ascending_run(monkeypatch):
    # in registry order: conjecture1 walks to 997, conjecture2 walks again
    # to 3 (conjecture1 starts at 5), the reduction chain on to 499, and
    # theorem1 again to 2, then on to 500; the rest read the pair's memo
    monkeypatch.setattr(congruences, "_FAMILY_CACHE", {})
    inverse_weighted_sum_mod.cache_clear()
    steps = _count_walk_steps(monkeypatch)
    ids = ["conjecture1", "conjecture2", "reduction_chain", "theorem1", "theorem2",
           "theorem3"]
    summary = run_sweep(ids)
    assert summary["total"] == {"pass": 15181, "fail": 0, "skipped": 80}
    assert len(steps) == 997 + 3 + 496 + 500 == 1996


def test_inverse_walk_steps_central_binomial_times_franel(monkeypatch):
    # at c = 0 only the k = n-1 term is left, with weight b = 1
    monkeypatch.setattr(congruences, "_FAMILY_CACHE", {})
    cb = central_binomials_upto(300)
    f = franel_upto(300)
    for k in range(301):
        assert family_sum(0, 1, 0, k + 1) == cb[k] * f[k], k


def test_inverse_walk_inexact_step_raises(monkeypatch):
    monkeypatch.setattr(congruences, "_FAMILY_CACHE", {})
    family_sum(0, 1, -16, 1)
    j, (u, v, p_prev, p_k) = congruences._FAMILY_CACHE[-16]
    assert (j, p_prev, p_k) == (1, 1, 4)
    # P_1 is 4; 5 leaves 27 P_3 = 36480, not a multiple of 27
    congruences._FAMILY_CACHE[-16] = (j, (u, v, p_prev, 5))
    inverse_weighted_sum_mod.cache_clear()
    with pytest.raises(InconsistencyError, match="inexact at k=3"):
        inverse_weighted_sum_mod(5)


def test_failed_walk_leaves_the_state_as_it_was(monkeypatch):
    # a P_31 off by 2^13 keeps the k = 31 step exact, so the walk takes two
    # steps past the state before the step to P_33 fails
    monkeypatch.setattr(congruences, "_FAMILY_CACHE", {})
    family_sum(0, 1, -16, 31)
    j, (u, v, p_prev, p_k) = congruences._FAMILY_CACHE[-16]
    bad = (u, v, p_prev, p_k + 2**13)
    congruences._FAMILY_CACHE[-16] = (j, bad)
    with pytest.raises(InconsistencyError, match="inexact at k=33"):
        family_sum(0, 1, -16, 40)
    assert congruences._FAMILY_CACHE[-16] == (31, bad)


def test_inverse_weighted_sum_rejects_non_odd_prime():
    # the guard is explicit: (-16)^(p-1) is a unit mod p^3 for every odd p,
    # and -16 has no inverse mod 8
    for n in (2, 4, 9, 15, 25):
        with pytest.raises(NotCoprimeError):
            inverse_weighted_sum_mod(n)
