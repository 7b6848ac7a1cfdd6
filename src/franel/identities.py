"""Exact verification of the binomial identities the congruence proofs use.

Identities with rational factors are compared after cross-multiplication,
so every check is a pure integer equality and a failure is exact.
"""
from __future__ import annotations

import math

from .combinatorics import (
    binomial,
    central_binomial,
    central_binomials_upto,
    exact_div,
    franel,
    franel_direct,
    franel_strehl,
    franel_sun_expansion,
    macmahon_sides,
    partial_fraction_sides,
    pulled_out_sum,
    recurrence_rhs,
    triple_binomials_upto,
)
from .reports import OutsideHypothesis, Report


MACMAHON_POINTS = (-3, -2, -1, 0, 1, 2, 3)


def check_sun_expansion(n: int) -> list[Report]:
    """f_n against the alternating central-binomial expansion."""
    return [Report(
        statement="sun_expansion",
        params={"n": n},
        lhs=franel_sun_expansion(n),
        rhs=franel_direct(n),
    )]


def check_strehl(n: int) -> list[Report]:
    return [Report(
        statement="strehl",
        params={"n": n},
        lhs=franel_strehl(n),
        rhs=franel_direct(n),
    )]


def check_macmahon(n: int) -> list[Report]:
    """MacMahon's identity at index n, one record per point x."""
    out = []
    for x in MACMAHON_POINTS:
        lhs, rhs = macmahon_sides(n, x)
        out.append(Report(
            statement="macmahon", params={"n": n, "x": x}, lhs=lhs, rhs=rhs
        ))
    return out


def check_partial_fraction(n: int) -> list[Report]:
    """Both sides are exact rationals; compare numerators over the common
    denominator so the report stays integer-valued."""
    (lhs_num, lhs_den), (rhs_num, rhs_den) = partial_fraction_sides(n)
    den = math.lcm(lhs_den, rhs_den)
    return [Report(
        statement="partial_fraction",
        params={"n": n},
        lhs=lhs_num * (den // lhs_den),
        rhs=rhs_num * (den // rhs_den),
    )]


def induction_lhs(n: int, k: int) -> int:
    """The raw weighted sum on the left of the induction identity,
    sum_{k<=m<n} (3m+1) (-16)^(n-m-1) C(2m,m) C(m+2k,3k) (-4)^(m-k): Horner
    in -16 over m, with C(m+2k,3k) stepped in m by (m+2k+1)/(m+1-k)."""
    cb = central_binomials_upto(n - 1)
    total = 0
    c = 1  # C(m+2k, 3k) at m = k
    power = 1  # (-4)^(m-k)
    for m in range(k, n):
        total = -16 * total + (3 * m + 1) * cb[m] * c * power
        c = exact_div(c * (m + 2 * k + 1), m + 1 - k, "C(m+2k,3k) step", "k m", k, m + 1)
        power *= -4
    return total


def check_induction_identity(n: int) -> list[Report]:
    """Weighted partial-sum identity for each 0 <= k <= n, compared after
    cross-multiplying by 8(2k+1) so both sides are integers."""
    out = []
    for k in range(n + 1):
        lhs = 8 * (2 * k + 1) * induction_lhs(n, k)
        rhs = central_binomial(n) * binomial(n + 2 * k, 3 * k) * n * (k - n) * (-4) ** (n - k)
        out.append(Report(
            statement="induction", params={"n": n, "k": k}, lhs=lhs, rhs=rhs
        ))
    return out


def check_summation_lemma(n: int) -> list[Report]:
    """Alternating sum telescoping to a single (possibly zero) binomial,
    for each 0 <= k <= n."""
    out = []
    for k in range(n + 1):
        # t_m = C(n,m) C(m+2k,3k) (-1)^(m-k), stepped in m from t_k = C(n,k)
        lhs = 0
        term = binomial(n, k)
        for m in range(k, n + 1):
            lhs += term
            term = exact_div(
                -term * (n - m) * (m + 2 * k + 1), (m + 1) * (m + 1 - k),
                "summation lemma term", "n k m", n, k, m + 1,
            )
        rhs = binomial(2 * k, n - k) * (-1) ** (n - k)
        out.append(Report(
            statement="summation_lemma", params={"n": n, "k": k}, lhs=lhs, rhs=rhs
        ))
    return out


def check_integrality(n: int) -> list[Report]:
    """Integrality facts used to pull the n*C(2n,n) factor out of the main
    divisibility sum.  For each 0 <= k < n:

      (a) C(3k,k)/(2k+1) is an integer, equal to C(3k,k) - 2 C(3k,k-1);
      (b) C(2k,k) * (-4)^(n-k) / 8 is an integer (n >= 2);
      (c) the full pulled-out sum is an integer (exact division check).

    On failure the report carries the first failing k in its params.
    """
    if n < 2:
        raise OutsideHypothesis("integrality requires parameter >= 2")
    cb = central_binomials_upto(n - 1)
    # C(3k,k) from its column and C(3k,k-1) stepped here by its own ratio,
    # so that (a) compares two independent columns; C(3k,k-1) is 0 at k = 0,
    # and its steps start from C(3,0) = 1 at k = 1
    c3 = triple_binomials_upto(n - 1)
    c3k_1 = 0
    for k, c3k in enumerate(c3):
        q, r = divmod(c3k, 2 * k + 1)
        alt = c3k - 2 * c3k_1
        if r != 0 or q != alt:
            return [Report(
                statement="integrality", params={"n": n, "k": k, "part": "a"},
                lhs=q if r == 0 else c3k, rhs=alt if r == 0 else q * (2 * k + 1),
            )]
        num = cb[k] * (-4) ** (n - k)
        if num % 8:
            return [Report(
                statement="integrality", params={"n": n, "k": k, "part": "b"},
                lhs=num % 8, rhs=0,
            )]
        if k:
            c3k_1 = exact_div(
                c3k_1 * 3 * (3 * k + 1) * (3 * k + 2), 2 * k * (2 * k + 3),
                "C(3k,k-1) step", "k", k + 1,
            )
        else:
            c3k_1 = 1
    # (c): the pulled-out sum divides exactly by 8
    return [Report(
        statement="integrality", params={"n": n, "part": "c"},
        lhs=pulled_out_sum(n) % 8, rhs=0,
    )]


def check_recurrence_step(n: int) -> list[Report]:
    """One step of the three-term recurrence, against direct-route values."""
    if n < 1:
        raise OutsideHypothesis("recurrence step requires parameter >= 1")
    return [Report(
        statement="recurrence",
        params={"n": n},
        lhs=(n + 1) * (n + 1) * franel_direct(n + 1),
        rhs=recurrence_rhs(n, franel_direct(n - 1), franel_direct(n)),
    )]


def check_route_agreement(n: int) -> list[Report]:
    """The Strehl, recurrence and Sun-expansion routes against the direct
    route at one index."""
    ref = franel_direct(n)
    return [
        Report(statement="route_agreement", params={"n": n, "route": route},
               lhs=value, rhs=ref)
        for route, value in (
            ("strehl", franel_strehl(n)),
            ("recurrence", franel(n)),
            ("sun-expansion", franel_sun_expansion(n)),
        )
    ]
