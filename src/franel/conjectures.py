"""Numeric verification of the conjectured congruence families.

Everything here is checked, never proved: divisibility families with their
quotient witnesses, the two-square case split mod p^2, the multi-index
product congruences mod n^2, and the strengthened alternating forms.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

from .combinatorics import central_binomial, exact_div, franel_upto
from .congruences import family_sum, inverse_weighted_sum_mod
from .modular import (
    legendre_symbol, require_odd_prime, require_prime, two_squares_decompose
)
from .reports import Report, divisibility_report


@dataclass(frozen=True)
class FamilyTriple:
    """Weights of one divisibility family: sum weight a*k+b, base c."""

    a: int
    b: int
    c: int


# the two published lists of triples; anything else is "extra-paper"
NEW1_TRIPLES = (
    FamilyTriple(9, 4, 5),
    FamilyTriple(5, 2, 16),
    FamilyTriple(9, 2, 50),
    FamilyTriple(5, 1, 96),
    FamilyTriple(6, 1, 320),
    FamilyTriple(90, 13, 896),
    FamilyTriple(102, 11, 10400),
)
NEW2_TRIPLES = (
    FamilyTriple(15, 4, -49),
    FamilyTriple(9, 2, -112),
    FamilyTriple(99, 17, -400),
    FamilyTriple(855, 109, -2704),
    FamilyTriple(585, 58, -24304),
)


def check_conjecture1(p: int) -> Report:
    """(3k+1)-weighted inverse sum against p*(-1)^((p-1)/2), mod p^2."""
    require_prime(p)
    if p <= 3:
        raise ValueError(f"need p > 3, got {p}")
    m = p * p
    lhs = inverse_weighted_sum_mod(p)[0] % m
    rhs = p * (-1) ** ((p - 1) // 2) % m
    return Report(
        statement="conjecture1", params={"p": p}, modulus=m, lhs=lhs, rhs=rhs
    )


def conjecture2_target(p: int) -> tuple[int, str]:
    """The case target for the unweighted inverse sum mod p^2, plus the name
    of the case that fired."""
    m = p * p
    if p % 4 == 3:
        return 0, "3mod4"
    ts = two_squares_decompose(p)
    x, y = ts.x, ts.y
    if p % 12 == 1:
        y_div = y % 6 == 0
        x_div = (x - 3) % 6 == 0
        if y_div == x_div:
            raise AssertionError(
                f"p={p}: expected exactly one of 6|y and 6|x-3, got both/neither"
            )
        if y_div:
            return (4 * x * x - 2 * p) % m, "1mod12_y"
        return (2 * p - 4 * x * x) % m, "1mod12_x"
    # p = 5 (mod 12); 3 never divides xy here (x^2+y^2 = 2 mod 3 forces both
    # nonzero mod 3), checked rather than assumed
    if (x * y) % 3 == 0:
        raise AssertionError(f"p={p}: 3 | xy in the 5 mod 12 case")
    return 4 * legendre_symbol(x * y, 3) * x * y % m, "5mod12"


def check_conjecture2(p: int) -> Report:
    require_odd_prime(p)
    m = p * p
    lhs = inverse_weighted_sum_mod(p)[1] % m
    target, case = conjecture2_target(p)
    return Report(
        statement="conjecture2",
        params={"p": p, "case": case},
        modulus=m,
        lhs=lhs,
        rhs=target,
    )


def check_family(t: FamilyTriple, n: int) -> Report:
    """Divisibility of the (a*k+b, c)-weighted sum by n*C(2n,n)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    extra = t not in NEW1_TRIPLES and t not in NEW2_TRIPLES
    params = {"a": t.a, "b": t.b, "c": t.c, "n": n}
    if extra:
        params["origin"] = "extra-paper"
    return divisibility_report(
        "family", params, family_sum(t.a, t.b, t.c, n),
        n * central_binomial(n),
    )


def product_factor_columns(a: int, n: int, modulus: int) -> list[int]:
    """[C(a*n-1, k) * C(a*n+k, k) mod modulus for k in 0..n-1], the exact
    product stepped in k by (a*n-1-k)(a*n+k+1) / (k+1)^2, which holds for
    a <= 0 too (C(-1,k) C(k,k) = (-1)^k at a = 0)."""
    col = []
    term = 1
    for k in range(n):
        col.append(term % modulus)
        term = exact_div(
            term * (a * n - 1 - k) * (a * n + k + 1), (k + 1) ** 2,
            "factor column step", "a n k", a, n, k + 1,
        )
    return col


def _grid_report(
    variant: str, m: int, tup: tuple[int, ...], n: int, lhs: int, modulus: int
) -> Report:
    params = {"m": m, "a": list(tup), "n": n, "variant": variant}
    if 0 in tup:
        params["degenerate"] = True
    return Report(
        statement=f"third_{variant}", params=params, modulus=modulus, lhs=lhs, rhs=0
    )


def third_conjecture_grid(
    n: int, m_max: int = 3, a_values: tuple[int, ...] = (-3, -2, -1, 0, 1, 2, 3)
) -> list[Report]:
    """Multi-index product sums vanishing mod n^2, for both weight variants
    (linear 3k+2, quadratic 9k^2+5k) over every multiplier tuple of length
    <= m_max.  Zero multipliers are admitted (the factor degenerates to
    (-1)^k) and flagged in the report.

    A tuple's sum is sum_k prefix(k) * w(k) * c_a(k) mod n^2, where prefix
    is the product column of the tuple without its last multiplier a and
    c_a is a's factor column.  A prefix is extended by the signed column
    (-1)^k c_a(k), so a prefix of odd length carries the (-1)^k that a
    tuple of even length needs.  The 2 * len(a_values) residues
    w(k) * c_a(k) mod n^2 of each k are packed into one int as base-2^width
    digits, so one dot product of a prefix column with the packed rows
    gives the sums of every one-multiplier extension of that prefix.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out: list[Report] = []
    m2 = n * n
    f = franel_upto(n - 1)
    cols1 = {a: product_factor_columns(a, n, m2) for a in a_values}
    signed = {
        a: [c if k % 2 == 0 else -c % m2 for k, c in enumerate(col)]
        for a, col in cols1.items()
    }
    w_lin = [(3 * k + 2) * f[k] % m2 for k in range(n)]
    w_quad = [(9 * k * k + 5 * k) * f[k] % m2 for k in range(n)]

    # Digit bound: a digit of a dot product is a sum of n products of two
    # residues in [0, n^2 - 1], so it is at most n * (n^2 - 1)^2 < 2^width
    # and never carries into the next digit.
    width = max(1, (n * (n * n - 1) ** 2).bit_length())
    mask = (1 << width) - 1

    # per k, the residues w_lin(k) c_a(k) and w_quad(k) c_a(k) for each a in
    # turn, as base-2^width digits from the lowest up
    rows = [0] * n
    shift = 0
    for a in a_values:
        for w in (w_lin, w_quad):
            rows = [r | (x * c % m2) << shift for r, x, c in zip(rows, w, cols1[a])]
            shift += width

    prefixes: list[tuple[tuple[int, ...], list[int]]] = [((), [1] * n)]
    for m in range(1, m_max + 1):
        longer = []
        for tup, col in prefixes:
            t = sum(map(operator.mul, col, rows))
            for a in a_values:
                ext = tup + (a,)
                out.append(_grid_report("linear", m, ext, n, (t & mask) % m2, m2))
                t >>= width
                out.append(_grid_report("quadratic", m, ext, n, (t & mask) % m2, m2))
                t >>= width
                if m < m_max:
                    longer.append((ext, [x * y % m2 for x, y in zip(col, signed[a])]))
        prefixes = longer
    return out


def check_product_note(p: int) -> list[Report]:
    """C(a*p-1, k) * C(a*p+k, k) = (-1)^k mod p^2 for a = 1..5 and
    0 <= k <= p-1, each lhs read from a's factor column at n = p."""
    require_odd_prime(p)
    m = p * p
    return [
        Report(
            statement="product_note",
            params={"p": p, "a": a, "k": k},
            modulus=m,
            lhs=lhs,
            rhs=(-1) ** k % m,
        )
        for a in range(1, 6)
        for k, lhs in enumerate(product_factor_columns(a, p, m))
    ]


_ZW_WEIGHTS = {
    "guo": lambda k: 3 * k + 2,
    "strengthened": lambda k: 9 * k * k + 5 * k,
}
# grow-only prefix tables [T_0, T_1, ...] of T_n = sum_{k<n} w(k) (-1)^k f_k,
# one per variant, shared like the Franel cache
_ZW_CACHE: dict[str, list[int]] = {}


def _zw_prefix(variant: str, n: int) -> int:
    table = _ZW_CACHE.setdefault(variant, [0])
    if len(table) <= n:
        weight = _ZW_WEIGHTS[variant]
        f = franel_upto(n - 1)
        s = table[-1]
        for k in range(len(table) - 1, n):
            s += weight(k) * (-1) ** k * f[k]
            table.append(s)
    return table[n]


def check_zw_sun(n: int, variant: str = "guo") -> Report:
    """Alternating Franel sums: guo is (3k+2) mod 2n^2; strengthened is
    (9k^2+5k) mod n^2(n-1)."""
    if variant == "guo":
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        modulus = 2 * n * n
    elif variant == "strengthened":
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        modulus = n * n * (n - 1)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return divisibility_report(
        f"zw_{variant}", {"n": n}, _zw_prefix(variant, n), modulus
    )
