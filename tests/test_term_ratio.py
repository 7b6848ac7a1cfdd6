"""Every sum that the package steps by its term ratio, against the
math.comb form in oracles.py over the range that the sweep runs it on,
and a wrong ratio caught by the checked division of the step."""
import inspect
import re
import textwrap

import pytest

import oracles
from franel import combinatorics, congruences, conjectures, identities
from franel.combinatorics import (
    InconsistencyError,
    alternating_row,
    binomial,
    central_binomials_upto,
    franel_strehl,
    franel_sun_expansion,
    franel_upto,
    macmahon_sides,
    pulled_out_sum,
    triple_binomials_upto,
)
from franel.congruences import (
    check_central_pmod,
    check_final_reflect,
    check_multinomial,
    check_reduction_chain,
    final3_rhs_terms,
)
from franel.conjectures import check_product_note, product_factor_columns
from franel.identities import MACMAHON_POINTS, check_summation_lemma, induction_lhs
from franel.modular import primes_in_range
from franel.reports import to_json_line

ODD_PRIMES = primes_in_range(3, 499)


def test_strehl_and_sun_expansion():
    for n in range(301):
        assert franel_strehl(n) == oracles.franel_strehl_comb(n), n
        assert franel_sun_expansion(n) == oracles.franel_sun_expansion_comb(n), n


def test_pulled_out_sum():
    assert [pulled_out_sum(n) for n in range(501)] == oracles.pulled_out_sums_comb(500)


def test_macmahon_sides():
    for n in range(101):
        for x in MACMAHON_POINTS:
            assert macmahon_sides(n, x) == oracles.macmahon_sides_comb(n, x), (n, x)


def test_shared_columns(monkeypatch):
    # (half, k) <= 249 covers the primes up to 499 that the sweep runs; each
    # shared column is grown from its seed in uneven steps, each call
    # resuming where the last one stopped, against math.comb or a direct sum
    f = [oracles.franel_direct_comb(n) for n in range(250)]
    zw_weights = {"linear": lambda k: 3 * k + 2, "quadratic": lambda k: 9 * k * k + 5 * k}
    monkeypatch.setattr(combinatorics, "_RECURRENCE_CACHE", [1, 2])
    monkeypatch.setattr(combinatorics, "_CENTRAL_CACHE", [1])
    monkeypatch.setattr(combinatorics, "_TRIPLE_CACHE", [1])
    monkeypatch.setattr(conjectures, "_ZW_CACHE", {})
    for k_max in (0, 1, 7, 6, 100, 249):
        ks = range(k_max + 1)
        assert franel_upto(k_max) == f[: k_max + 1], k_max
        assert central_binomials_upto(k_max) == [binomial(2 * k, k) for k in ks], k_max
        assert triple_binomials_upto(k_max) == [binomial(3 * k, k) for k in ks], k_max
        for variant, weight in zw_weights.items():
            assert conjectures._zw_prefix(variant, k_max) == sum(
                weight(k) * (-1) ** k * f[k] for k in range(k_max)
            ), (variant, k_max)
    # the readers grew the shared tables themselves, not copies of them
    assert combinatorics._RECURRENCE_CACHE == f
    assert combinatorics._CENTRAL_CACHE == [binomial(2 * k, k) for k in range(250)]
    assert combinatorics._TRIPLE_CACHE == [binomial(3 * k, k) for k in range(250)]
    for h in range(250):
        assert alternating_row(h) == [
            (-1) ** k * binomial(h, k) for k in range(h + 1)
        ], h


@pytest.mark.parametrize("read", [
    pytest.param(combinatorics.franel, id="franel"),
    pytest.param(franel_upto, id="franel_upto"),
    pytest.param(combinatorics.central_binomial, id="central_binomial"),
    pytest.param(central_binomials_upto, id="central_binomials_upto"),
    pytest.param(triple_binomials_upto, id="triple_binomials_upto"),
    pytest.param(lambda n: conjectures._zw_prefix("linear", n), id="zw_prefix-linear"),
    pytest.param(lambda n: conjectures._zw_prefix("quadratic", n), id="zw_prefix-quadratic"),
    pytest.param(combinatorics.franel_direct, id="franel_direct"),
    pytest.param(franel_sun_expansion, id="franel_sun_expansion"),
    pytest.param(pulled_out_sum, id="pulled_out_sum"),
    pytest.param(alternating_row, id="alternating_row"),
    pytest.param(lambda n: product_factor_columns(2, n, 49), id="product_factor_columns"),
])
@pytest.mark.parametrize("index", [-1, -3])
def test_negative_index_raises(read, index):
    # even after a shared table has grown past the index's size, which
    # a table[: index + 1] slice would read as a prefix
    read(5)
    with pytest.raises(ValueError, match=f"must be nonnegative, got {index}$"):
        read(index)


def test_factor_columns():
    # a modulus far above |C(an-1,k) C(an+k,k)| compares the exact products;
    # n^2 is the modulus the third-conjecture grid and the product note use
    cases = [(a, n) for a in range(-3, 4) for n in range(1, 121)]
    cases += [(a, p) for a in (4, 5) for p in primes_in_range(3, 47)]
    for a, n in cases:
        for modulus in (n * n, 1 << 2048):
            assert product_factor_columns(a, n, modulus) == (
                oracles.product_factor_columns_comb(a, n, modulus)
            ), (a, n, modulus)


def test_negated_multiplier_has_the_same_factor_column():
    """C(-an-1, k) C(-an+k, k) = C(an-1, k) C(an+k, k) for every k, by upper
    negation C(r, k) = (-1)^k C(k-r-1, k): the first factor becomes
    (-1)^k C(an+k, k) and the second (-1)^k C(an-1, k), and the two signs
    cancel.  So the grid builds the columns of |a| only.  The modulus lies
    above every exact term (below 2^(4*3*120)), so the exact products are
    compared."""
    for a in range(1, 4):
        for n in range(1, 121):
            assert product_factor_columns(-a, n, 1 << 2048) == (
                product_factor_columns(a, n, 1 << 2048)
            ), (a, n)


def test_product_note():
    for p in primes_in_range(3, 47):
        assert list(map(to_json_line, check_product_note(p))) == [
            to_json_line(oracles.product_note_comb(p, a, k))
            for a in range(1, 6)
            for k in range(p)
        ], p


def test_prime_rows():
    for p in ODD_PRIMES:
        if p > 3:
            assert [r.lhs for r in check_multinomial(p)] == oracles.multinomial_lhs_comb(p)
        assert [r.rhs for r in check_central_pmod(p)] == oracles.central_pmod_rhs_comb(p)
        assert [r.rhs for r in check_final_reflect(p)] == oracles.final_reflect_rhs_comb(p)
        assert final3_rhs_terms(p) == oracles.final3_rhs_terms_comb(p), p
        chain = {r.statement: r.rhs for r in check_reduction_chain(p)}
        assert (chain["chain_newsum2_line1"], chain["chain_newsum2_line2"]) == (
            oracles.chain_newsum2_rhs_comb(p)), p
        assert chain["chain_newsum3"] == oracles.chain_newsum3_rhs_comb(p), p


def test_induction_and_summation_lemma():
    for n in range(81):
        summation = check_summation_lemma(n)
        for k in range(n + 1):
            assert induction_lhs(n, k) == oracles.induction_lhs_comb(n, k), (n, k)
            assert summation[k].lhs == oracles.summation_lemma_lhs_comb(n, k), (n, k)


def _with_ratio(fn, old: str, new: str):
    """fn recompiled from its source with one piece of a step ratio
    replaced, in fn's own module namespace (which is left unchanged)."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, old
    namespace: dict = {}
    exec(source.replace(old, new), fn.__globals__, namespace)
    return namespace[fn.__name__]


@pytest.mark.parametrize("fn, old, new, args, what", [
    (combinatorics.franel_sun_expansion, "4 * (k + 1) ** 3,", "4 * (k + 1) ** 3 + 1,",
     (5,), "sun expansion term"),
    (combinatorics.franel_strehl, "(2 * k + 1 - n),", "(2 * k + 1 - n) + 1,",
     (4,), "strehl term"),
    (identities.check_integrality, "2 * k * (2 * k + 3),", "2 * k * (2 * k + 5),",
     (5,), "C(3k,k-1) step"),
    (conjectures.product_factor_columns, "(k + 1) ** 2,", "(k + 2) ** 2,",
     (1, 2, 4), "factor column step"),
    (congruences.check_multinomial, "(2 * k - 1) * 2 * k * k,",
     "(2 * k - 1) * 2 * k * k * 1009,", (7,), "multinomial step"),
    (combinatorics._triple_step, "2 * k * (2 * k - 1),", "2 * k * (2 * k - 1) + 1,",
     ([1, 3], 2), "C(3k,k) step"),
    (combinatorics._franel_step, "n * n,", "n * n + 1,", ([1, 2, 10], 3),
     "franel recurrence"),
    (combinatorics.alternating_row, "(h - k), k + 1,", "(h - k), k + 2,",
     (3,), "C(h,k) step"),
], ids=["sun", "strehl", "integrality", "factor-column", "multinomial",
        "triple-binomial", "franel-recurrence", "alternating-row"])
def test_inexact_step_raises(fn, old, new, args, what):
    with pytest.raises(InconsistencyError, match=re.escape(what)):
        _with_ratio(fn, old, new)(*args)
