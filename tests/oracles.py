"""Slow reference implementations that the tests compare the package's
fast code against.  Each one computes the same value by a more direct
route; none is used by the package itself.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from franel.combinatorics import (
    binomial,
    binomial_generalized,
    central_binomials_upto,
    franel_upto,
)
from franel.conjectures import product_factor_columns
from franel.modular import mod_inverse
from franel.reports import Report, long_decimals


def family_sum_noinc(a: int, b: int, c: int, n: int) -> int:
    """congruences.family_sum term by term, from the f_k and C(2k,k) tables
    and each power c^(n-k-1) computed afresh, instead of by the walk."""
    f = franel_upto(max(n - 1, 0))
    cb = central_binomials_upto(max(n - 1, 0))
    return sum((a * k + b) * c ** (n - k - 1) * cb[k] * f[k] for k in range(n))


def inverse_weighted_sum_bigint(p: int, m: int, weights: list[int] | None = None) -> int:
    """sum_{k=0}^{p-1} w(k) C(2k,k) f_k (-16)^(-k) mod m, w defaulting to 1,
    reducing each big-integer f_k and C(2k,k) mod m rather than dividing an
    exact sum by (-16)^(p-1) as congruences.inverse_weighted_sum_mod does.

    Raises NotCoprimeError when 16 is not invertible mod m.
    """
    f = franel_upto(p - 1)
    cb = central_binomials_upto(p - 1)
    inv16 = mod_inverse(-16 % m, m)
    total = 0
    power = 1
    for k in range(p):
        w = weights[k] if weights is not None else 1
        total = (total + w * (cb[k] % m) * (f[k] % m) * power) % m
        power = power * inv16 % m
    return total


def inverse_weighted_sum_residue(p: int) -> tuple[int, int]:
    """congruences.inverse_weighted_sum_mod by one O(p) loop mod p^3 per
    prime, rather than from the exact family_sum walk at base -16.

    Division-free: g_k = (k!)^2 f_k obeys
    g_{k+1} = (7k^2+7k+2) g_k + 8k^4 g_{k-1}, each term is
    w_k (2k)! g_k / D_k with D_k = (-16)^k (k!)^4, so each sum is
    N / D_{p-1} with N <- -16k^4 N + w_k (2k)! g_k.  Raises NotCoprimeError
    unless p is an odd prime, since otherwise D_{p-1} shares a factor with
    p^3.
    """
    m = p**3
    weighted = unweighted = 1  # the k = 0 term
    g_prev, g = 1, 2  # g_{k-1}, g_k at k = 1
    fact2k = 2  # (2k)!
    half = (p - 1) // 2
    fact_pm1 = 1  # (p-1)!, taken from (2k)! at 2k = p - 1; 1! for p = 2
    for k in range(1, p):
        kk = k * k
        k4 = kk * kk
        step = -16 * k4  # D_k / D_{k-1}
        term = fact2k * g
        weighted = (step * weighted + (3 * k + 1) * term) % m
        unweighted = (step * unweighted + term) % m
        if k == half:
            fact_pm1 = fact2k
        g_prev, g = g, ((7 * (kk + k) + 2) * g + 8 * k4 * g_prev) % m
        fact2k = fact2k * (2 * k + 1) * (2 * k + 2) % m
    # D_{p-1} = (-16)^(p-1) ((p-1)!)^4 = 16^(p-1) ((p-1)!)^4 for odd p
    inv = mod_inverse(pow(16, p - 1, m) * pow(fact_pm1, 4, m), m)
    return weighted * inv % m, unweighted * inv % m


def chain_inner_sum(p: int) -> int:
    """The inner sum of the reduction chain's exact pulled-out form,
    sum_{k<p} C(p+2k,3k) C(3k,k)/(2k+1) C(2k,k) (k-p) (-1)^k 4^(p-1-k),
    term by term as the proof displays it: the route that
    -combinatorics.pulled_out_sum(p) / 4 replaced."""
    inner = 0
    cb = central_binomials_upto(p - 1)
    for k in range(p):
        gk = binomial(3 * k, k) - 2 * binomial(3 * k, k - 1)  # C(3k,k)/(2k+1)
        inner += (
            binomial(p + 2 * k, 3 * k)
            * gk
            * cb[k]
            * (k - p)
            * (-1) ** k
            * 4 ** (p - 1 - k)
        )
    return inner


# The hypergeometric sums below are the math.comb forms that the package
# now steps by term ratio: each term taken afresh from binomial coefficients.


def franel_strehl_comb(n: int) -> int:
    return sum(binomial(n, k) ** 2 * binomial(2 * k, n) for k in range(n + 1))


def franel_sun_expansion_comb(n: int) -> int:
    return sum(
        binomial(n + 2 * k, 3 * k)
        * binomial(3 * k, k)
        * binomial(2 * k, k)
        * (-4) ** (n - k)
        for k in range(n + 1)
    )


def pulled_out_sums_comb(n_max: int) -> list[int]:
    """[combinatorics.pulled_out_sum(n) for n in 0..n_max], each term from
    binomials, with the integer C(3k,k)/(2k+1) taken as
    C(3k,k) - 2 C(3k,k-1).  The factors that depend on k alone are
    computed once for every n."""
    col = [
        (binomial(3 * k, k) - 2 * binomial(3 * k, k - 1)) * binomial(2 * k, k)
        for k in range(n_max)
    ]
    return [
        sum(
            binomial(n + 2 * k, 3 * k) * col[k] * (k - n) * (-4) ** (n - k)
            for k in range(n)
        )
        for n in range(n_max + 1)
    ]


def macmahon_sides_comb(n: int, x: int) -> tuple[int, int]:
    lhs = sum(binomial(n, k) ** 3 * x**k for k in range(n + 1))
    rhs = sum(
        binomial(n + k, 3 * k)
        * binomial(3 * k, 2 * k)
        * binomial(2 * k, k)
        * x**k
        * (1 + x) ** (n - 2 * k)
        for k in range(n // 2 + 1)
    )
    return lhs, rhs


def product_factor_columns_comb(a: int, n: int, modulus: int) -> list[int]:
    return [
        binomial_generalized(a * n - 1, k) * binomial_generalized(a * n + k, k) % modulus
        for k in range(n)
    ]


def product_note_comb(p: int, a: int, k: int) -> Report:
    """One record of conjectures.check_product_note(p), its product taken
    from two generalized binomials rather than from a's factor column."""
    m = p * p
    lhs = (
        binomial_generalized(a * p - 1, k)
        * binomial_generalized(a * p + k, k)
        % m
    )
    return Report(
        statement="product_note",
        params={"p": p, "a": a, "k": k},
        modulus=m,
        lhs=lhs,
        rhs=(-1) ** k % m,
    )


def multinomial_lhs_comb(p: int) -> list[int]:
    """The lhs column of congruences.check_multinomial(p), in record order."""
    m = p * p
    half = (p - 1) // 2
    return [
        binomial(p + 2 * k, 3 * k) * binomial(3 * k, k) % m
        for k in range(1, p)
        if k != half
    ]


def central_pmod_rhs_comb(p: int) -> list[int]:
    """The rhs column of congruences.check_central_pmod(p)."""
    half = (p - 1) // 2
    return [(-1) ** k * binomial(half, k) % p for k in range(p)]


def chain_newsum2_rhs_comb(p: int) -> tuple[int, int]:
    """The rhs of the chain_newsum2_line1 and chain_newsum2_line2 records of
    congruences.check_reduction_chain, from math.comb and a fresh inverse
    of (2k+1) 4^k mod p^2 per k, in two separate sums."""
    m2 = p * p
    half = (p - 1) // 2
    inv4_pow = pow(mod_inverse(4, m2), p - 1, m2)
    neg4_half = pow(-4 % m2, half, m2)

    def weight(k: int) -> int:  # C(2k,k) / ((2k+1) 4^k) mod p^2
        return binomial(2 * k, k) * mod_inverse((2 * k + 1) * 4**k, m2)

    acc1 = sum(weight(k) * (p - p * p * mod_inverse(k, m2)) for k in range(1, half))
    acc2 = sum(weight(k) * p for k in range(half))
    line1 = (p * inv4_pow + neg4_half + inv4_pow * acc1) % m2
    line2 = (neg4_half + inv4_pow * acc2) % m2
    return line1, line2


def chain_newsum3_rhs_comb(p: int) -> int:
    """The rhs of the chain_newsum3 record of congruences.check_reduction_chain."""
    m2 = p * p
    half = (p - 1) // 2
    acc = 0
    for k in range(half):
        acc = (
            acc + (-1) ** k * binomial(half, k) * p * mod_inverse(2 * k + 1, m2)
        ) % m2
    inv4_pow = pow(mod_inverse(4, m2), p - 1, m2)
    return (pow(-4 % m2, half, m2) + inv4_pow * acc) % m2


def final3_rhs_terms_comb(p: int) -> list[int]:
    half = (p - 1) // 2
    return [
        (-1) ** k
        * binomial(half, k)
        * binomial(3 * k, k)
        * binomial(3 * half - 3 * k, half - k)
        for k in range(half + 1)
    ]


def final_reflect_rhs_comb(p: int) -> list[int]:
    """The rhs column of congruences.check_final_reflect(p)."""
    half = (p - 1) // 2
    return [
        (-1) ** (half - k) * binomial(3 * half - 3 * k, half - k) % p
        for k in range(half + 1)
    ]


def induction_lhs_comb(n: int, k: int) -> int:
    return sum(
        (3 * m + 1)
        * (-16) ** (n - m - 1)
        * binomial(2 * m, m)
        * binomial(m + 2 * k, 3 * k)
        * (-4) ** (m - k)
        for m in range(k, n)
    )


def summation_lemma_lhs_comb(n: int, k: int) -> int:
    return sum(
        binomial(n, m) * binomial(m + 2 * k, 3 * k) * (-1) ** (m - k)
        for m in range(k, n + 1)
    )


@dataclass(frozen=True)
class MultiIndexSpec:
    """Multi-index configuration: m factors with integer multipliers a_i."""

    m: int
    a_list: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be positive")
        if len(self.a_list) != self.m:
            raise ValueError(
                f"a_list has {len(self.a_list)} entries, expected m={self.m}"
            )


def check_third_conjecture(
    s: MultiIndexSpec, n: int, variant: str = "linear"
) -> Report:
    """One (tuple, variant) cell of conjectures.third_conjecture_grid,
    computed on its own: the multi-index product sum mod n^2.

    linear uses weight 3k+2, quadratic uses 9k^2+5k.  Zero multipliers are
    admitted (the factor degenerates to (-1)^k) and flagged in the report.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if variant not in ("linear", "quadratic"):
        raise ValueError(f"unknown variant {variant!r}")
    m = n * n
    if m == 1:
        # modulus 1: trivially zero, no residue arithmetic needed
        lhs = 0
    else:
        f = franel_upto(n - 1)
        cols = [product_factor_columns(a, n, m) for a in s.a_list]
        sign = (-1) ** (s.m - 1)
        total = 0
        sgn = 1
        for k in range(n):
            w = 3 * k + 2 if variant == "linear" else 9 * k * k + 5 * k
            prod = w * sgn * (f[k] % m) % m
            for col in cols:
                prod = prod * col[k] % m
            total = (total + prod) % m
            sgn *= sign
        lhs = total
    params = {"m": s.m, "a": list(s.a_list), "n": n, "variant": variant}
    if 0 in s.a_list:
        params["degenerate"] = True
    return Report(
        statement=f"third_{variant}", params=params, modulus=max(m, 1), lhs=lhs, rhs=0
    )


def third_conjecture_grid_per_tuple(
    n: int, m_max: int = 3, a_values: tuple[int, ...] = (-3, -2, -1, 0, 1, 2, 3)
) -> list[Report]:
    """conjectures.third_conjecture_grid by one elementwise product column
    and two weighted sums per tuple, in the same record order: the route
    that the packed dot products replaced."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out: list[Report] = []
    m2 = n * n
    f = franel_upto(n - 1)
    cols1 = {a: product_factor_columns(a, n, m2) for a in a_values}
    w_lin = [(3 * k + 2) * f[k] % m2 for k in range(n)]
    w_quad = [(9 * k * k + 5 * k) * f[k] % m2 for k in range(n)]
    w_lin_alt = [w if k % 2 == 0 else -w % m2 for k, w in enumerate(w_lin)]
    w_quad_alt = [w if k % 2 == 0 else -w % m2 for k, w in enumerate(w_quad)]

    def report(variant: str, m: int, tup: tuple[int, ...], lhs: int) -> Report:
        params = {"m": m, "a": list(tup), "n": n, "variant": variant}
        if 0 in tup:
            params["degenerate"] = True
        return Report(
            statement=f"third_{variant}", params=params, modulus=m2, lhs=lhs, rhs=0
        )

    def emit(m: int, tup: tuple[int, ...], col: list[int]) -> None:
        wl = w_lin if m % 2 == 1 else w_lin_alt
        wq = w_quad if m % 2 == 1 else w_quad_alt
        s_lin = s_quad = 0
        for k in range(n):
            ck = col[k]
            s_lin += wl[k] * ck
            s_quad += wq[k] * ck
        out.append(report("linear", m, tup, s_lin % m2))
        out.append(report("quadratic", m, tup, s_quad % m2))

    prev: dict[tuple[int, ...], list[int]] = {(): [1] * n}
    for m in range(1, m_max + 1):
        cur: dict[tuple[int, ...], list[int]] = {}
        for tup, col in prev.items():
            for a in a_values:
                new = [x * y % m2 for x, y in zip(col, cols1[a])]
                cur[tup + (a,)] = new
                emit(m, tup + (a,), new)
        prev = cur
    return out


def report_to_dict(r: Report) -> dict:
    """The record as a dict of decimal strings: the route that
    reports.to_json_line and to_tsv_line replaced."""
    with long_decimals():
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
        if r.error is not None:
            d["error"] = r.error
    return d


def json_line_via_dict(r: Report) -> str:
    return json.dumps(report_to_dict(r), sort_keys=True)


def tsv_line_via_dict(r: Report) -> str:
    d = report_to_dict(r)
    with long_decimals():
        params = ",".join(f"{k}={v}" for k, v in r.params.items())
    reason = d.get("skipped_reason", "")
    if "error" in d:
        # a tab, and each character that splits a line, as a space
        reason = "".join(c if c != "\t" and c.splitlines() == [c] else " "
                         for c in d["error"])
    return "\t".join(
        (
            d["statement"],
            params,
            d["modulus"],
            d["lhs"],
            d["rhs"],
            d["verdict"],
            d.get("witness", ""),
            reason,
        )
    )
