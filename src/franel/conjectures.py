"""Numeric verification of the conjectured congruence families.

Everything here is checked, never proved: divisibility families with their
quotient witnesses, the two-square case split mod p^2, the multi-index
product congruences mod n^2, and the strengthened alternating forms.  Each
check_* takes one parameter (n or p; check_families also takes its list of
triples) and returns that cell's records.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .combinatorics import central_binomial, exact_div, franel_upto
from .congruences import family_sum, inverse_weighted_sum_mod
from .modular import (
    legendre_symbol, require_prime, two_squares_decompose
)
from .reports import OutsideHypothesis, Report, divisibility_report


@dataclass(frozen=True)
class FamilyTriple:
    """Weights of one divisibility family: sum weight a*k+b, base c."""

    a: int
    b: int
    c: int


# the two published lists of triples
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


def check_conjecture1(p: int) -> list[Report]:
    """(3k+1)-weighted inverse sum against p*(-1)^((p-1)/2), mod p^2."""
    require_prime(p)
    if p <= 3:
        raise OutsideHypothesis("hypothesis requires p > 3")
    m = p * p
    lhs = inverse_weighted_sum_mod(p)[0] % m
    rhs = p * (-1) ** ((p - 1) // 2) % m
    return [Report(
        statement="conjecture1", params={"p": p}, modulus=m, lhs=lhs, rhs=rhs
    )]


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


def check_conjecture2(p: int) -> list[Report]:
    require_prime(p)
    if p == 2:
        raise OutsideHypothesis("p must be odd")
    m = p * p
    lhs = inverse_weighted_sum_mod(p)[1] % m
    target, case = conjecture2_target(p)
    return [Report(
        statement="conjecture2",
        params={"p": p, "case": case},
        modulus=m,
        lhs=lhs,
        rhs=target,
    )]


def check_families(triples: tuple[FamilyTriple, ...], n: int) -> list[Report]:
    """Divisibility of each triple's (a*k+b, c)-weighted sum by n*C(2n,n)."""
    if n < 2:
        raise OutsideHypothesis("outside published claim (needs n > 1)")
    modulus = n * central_binomial(n)
    return [
        divisibility_report(
            "family", {"a": t.a, "b": t.b, "c": t.c, "n": n},
            family_sum(t.a, t.b, t.c, n), modulus,
        )
        for t in triples
    ]


def product_factor_columns(a: int, n: int, modulus: int) -> list[int]:
    """[C(a*n-1, k) * C(a*n+k, k) mod modulus for k in 0..n-1], the exact
    product stepped in k by (a*n-1-k)(a*n+k+1) / (k+1)^2, which holds for
    a <= 0 too (C(-1,k) C(k,k) = (-1)^k at a = 0).

    The column of -a is the column of a: upper negation,
    C(r, k) = (-1)^k C(k-r-1, k), turns C(-a*n-1, k) into
    (-1)^k C(a*n+k, k) and C(-a*n+k, k) into (-1)^k C(a*n-1, k), so the
    two products are equal term by term (and so is the step ratio).
    """
    col = []
    term = 1
    for k in range(n):
        col.append(term % modulus)
        term = exact_div(
            term * (a * n - 1 - k) * (a * n + k + 1), (k + 1) ** 2,
            "factor column step", "a n k", a, n, k + 1,
        )
    return col


# the third conjecture's grid: every tuple of these, of length 1 to 3 (the
# packing in third_conjecture_grid is written for these two constants)
THIRD_MAX_LENGTH = 3
THIRD_MULTIPLIERS = (-3, -2, -1, 0, 1, 2, 3)
_THIRD_VARIANTS = ("linear", "quadratic")


@functools.cache
def _third_templates() -> list[tuple[str, dict, int]]:
    """(statement, params without n's value, index into the grid's residue
    list) for every record of the grid, in record order: tuples of length
    1 to THIRD_MAX_LENGTH in product order over THIRD_MULTIPLIERS, each
    linear then quadratic.  A tuple of length m reads the residue at
    2 * (its |a| digits in base 4) + variant, after the 2 * 4^j residues
    of every shorter length j.  Built on first call, once per process."""
    out = []
    offset = 0
    for m in range(1, THIRD_MAX_LENGTH + 1):
        for tup in itertools.product(THIRD_MULTIPLIERS, repeat=m):
            base4 = 0
            for a in tup:
                base4 = 4 * base4 + abs(a)
            for v, variant in enumerate(_THIRD_VARIANTS):
                params = {"m": m, "a": list(tup), "n": None, "variant": variant}
                if 0 in tup:
                    params["degenerate"] = True
                out.append((f"third_{variant}", params, offset + 2 * base4 + v))
        offset += 2 * 4 ** m
    return out


def third_conjecture_grid(n: int) -> list[Report]:
    """Multi-index product sums vanishing mod n^2, for both weight variants
    (linear 3k+2, quadratic 9k^2+5k) over every multiplier tuple of the
    grid.  Zero multipliers are admitted (the factor degenerates to
    (-1)^k) and flagged in the report.

    A tuple's sum is sum_k w(k) prod_i c_{a_i}(k) mod n^2, times (-1)^k
    when the tuple's length is even, and c_a = c_{-a}
    (product_factor_columns), so only the columns of |a| = 0..3 are built
    and a tuple's sum depends only on its |a|.  Each k's residues
    w(k) c_b(k) mod n^2, for both weights and every b, are packed into
    rows[k] as base-2^width digits; rows2[k] holds s_c(k) rows[k] in its
    own block for each c, where s_c(k) = (-1)^k c_c(k) is the signed
    column.  Then sum(rows) gives every sum of length 1, sum(rows2) every
    sum of length 2, and the dot product of s_d with rows2 every sum of
    length 3 that starts with d: six big-int sums per n in all.
    """
    if n < 1:
        raise OutsideHypothesis("third conjecture requires parameter >= 1")
    m2 = n * n
    f = franel_upto(n - 1)
    cols = [product_factor_columns(b, n, m2) for b in range(4)]
    signed = [[c if k % 2 == 0 else -c % m2 for k, c in enumerate(col)] for col in cols]
    w_lin = [(3 * k + 2) * f[k] % m2 for k in range(n)]
    w_quad = [(9 * k * k + 5 * k) * f[k] % m2 for k in range(n)]

    # Digit bound: a length-3 digit is a sum of n products of three
    # residues in [0, n^2 - 1], so it is at most n * (n^2 - 1)^3, and the
    # shorter lengths stay below that.  Digits take whole bytes, so they
    # are read back with int.to_bytes, and never carry.
    nbytes = max(1, ((n * (m2 - 1) ** 3).bit_length() + 7) // 8)
    width = 8 * nbytes

    # rows[k]: 8 digits, w_lin(k) c_b(k) and w_quad(k) c_b(k) for b = 0..3
    rows = [0] * n
    shift = 0
    for col in cols:
        for w in (w_lin, w_quad):
            rows = [r | (x * c % m2) << shift for r, x, c in zip(rows, w, col)]
            shift += width
    # rows2[k]: 4 blocks of 8 digits, s_c(k) rows[k] for c = 0..3
    rows2 = [
        s0 * r + (s1 * r << shift) + (s2 * r << 2 * shift) + (s3 * r << 3 * shift)
        for r, s0, s1, s2, s3 in zip(rows, *signed)
    ]
    row_bytes = shift // 8
    packed = sum(rows).to_bytes(row_bytes, "little") + b"".join(
        t.to_bytes(4 * row_bytes, "little")
        for t in [sum(rows2), *(sum(map(operator.mul, s, rows2)) for s in signed)]
    )
    residues = [
        int.from_bytes(packed[i:i + nbytes], "little") % m2
        for i in range(0, len(packed), nbytes)
    ]
    return [
        Report(statement, {**params, "a": params["a"].copy(), "n": n},
               m2, residues[i], 0)
        for statement, params, i in _third_templates()
    ]


def check_product_note(p: int) -> list[Report]:
    """C(a*p-1, k) * C(a*p+k, k) = (-1)^k mod p^2 for a = 1..5 and
    0 <= k <= p-1, each lhs read from a's factor column at n = p."""
    require_prime(p)
    if p == 2:
        raise OutsideHypothesis("p must be odd")
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


def check_zw_guo(n: int) -> list[Report]:
    """The (3k+2)-weighted alternating Franel sum mod 2n^2."""
    if n < 1:
        raise OutsideHypothesis("zw_guo requires parameter >= 1")
    return [divisibility_report("zw_guo", {"n": n}, _zw_prefix("guo", n), 2 * n * n)]


def check_zw_strengthened(n: int) -> list[Report]:
    """The (9k^2+5k)-weighted alternating Franel sum mod n^2(n-1)."""
    if n < 2:
        raise OutsideHypothesis("zw_strengthened requires parameter >= 2")
    return [divisibility_report(
        "zw_strengthened", {"n": n}, _zw_prefix("strengthened", n), n * n * (n - 1)
    )]
