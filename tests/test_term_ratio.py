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
    franel_strehl,
    franel_sun_expansion,
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


def test_shared_columns():
    # (half, k) <= 249 covers the primes up to 499 that the sweep runs
    assert triple_binomials_upto(249) == [binomial(3 * k, k) for k in range(250)]
    for h in range(250):
        assert alternating_row(h) == [
            (-1) ** k * binomial(h, k) for k in range(h + 1)
        ], h


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
    (combinatorics.triple_binomials_upto, "2 * (k + 1) * (2 * k + 1),",
     "2 * (k + 1) * (2 * k + 1) + 1,", (3,), "C(3k,k) step"),
    (combinatorics.alternating_row, "(h - k), k + 1,", "(h - k), k + 2,",
     (3,), "C(h,k) step"),
], ids=["sun", "strehl", "integrality", "factor-column", "multinomial",
        "triple-binomial", "alternating-row"])
def test_inexact_step_raises(fn, old, new, args, what):
    with pytest.raises(InconsistencyError, match=re.escape(what)):
        _with_ratio(fn, old, new)(*args)
