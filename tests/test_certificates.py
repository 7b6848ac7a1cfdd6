"""A Wilf-Zeilberger certificate that proves the Franel recurrence for
every n, by finitely many integer checks (Wilf and Zeilberger, "Rational
functions certify combinatorial identities", J. AMS 3, 1990).

With F(n,k) = C(n,k)^3, so that f_n = sum_k F(n,k),

    A(n) F(n+2,k) - B(n) F(n+1,k) - C(n) F(n,k) = G(n,k+1) - G(n,k),
    A = (n+2)^2,  B = 7n^2 + 21n + 16,  C = 8(n+1)^2,
    G(n,k) = Q(n,k) C(n+1,k-1)^3 / (n+1),

with Q as in Q_COEFFS.  Why the checks below prove this for all integers
n >= 0 and k:

* 0 <= k <= n.  Divide by C(n,k)^3 and multiply by (n+1-k)^3 (n+2-k)^3,
  both nonzero there.  The ratios C(n+2,k)/C(n,k), C(n+1,k)/C(n,k) and
  C(n+1,k-1)/C(n,k) are rational in n and k, and what is left is
  P(n,k+1) (n+2-k)^3 - k^3 P(n,k) = L(n,k) with P = (n+1)^2 Q and L the
  cleared left side.  Both sides are polynomials of degree <= 8 in n and
  <= 6 in k.  A polynomial of those degrees that vanishes on a 9 x 7 grid
  of integers is zero: at each grid n its k-polynomial has 7 roots, so
  each coefficient, a polynomial in n, has 9 roots.
* k = n+1 and k = n+2.  Each binomial is 0, 1, (n+1)^3 or (n+2)^3, and
  the identity times n+1 is a polynomial identity in n alone, of degree 6
  and 3, checked at 7 and 4 points.
* k < 0 and k >= n+3.  Every binomial on both sides is 0.

Summing over k, G telescopes to 0, since G(n,k) = 0 for k <= 0 and for
k >= n+3.  So A(n) f_{n+2} = B(n) f_{n+1} + C(n) f_n for every n >= 0,
which is the recurrence that combinatorics.recurrence_rhs evaluates.  The
walk over P_k = C(2k,k) f_k in congruences.family_sum follows from it and
C(2k+2,k+1) = C(2k,k) 2(2k+1)/(k+1), in test_family_step.

A changed coefficient of Q or of the recurrence leaves the degree bounds
as they are, so one of these checks fails for every such change;
test_a_changed_coefficient_is_caught runs each one.
"""
import functools
import math

import pytest

from franel.combinatorics import recurrence_rhs

# Q(n,k) as {(power of k, power of n): coefficient}
Q_COEFFS = {
    (3, 0): 4, (2, 1): -18, (2, 0): -30, (1, 2): 27, (1, 1): 93, (1, 0): 78,
    (0, 3): -14, (0, 2): -74, (0, 1): -128, (0, 0): -72,
}
# A(n), B(n), C(n) as coefficient lists in increasing powers of n
RECURRENCE = ((4, 4, 1), (16, 21, 7), (8, 16, 8))
# the walk's step (k+1)^3 P_{k+1} = E(k) P_k + H(k) P_{k-1}, as family_sum
# steps it: D(k) = (k+1)^3, E(k) = 2(2k+1)(7k^2+7k+2), H(k) = 2(2k+1) 16k(2k-1)
FAMILY_STEP = (
    lambda k: (k + 1) ** 3,
    lambda k: (4 * k + 2) * (7 * k * k + 7 * k + 2),
    lambda k: (4 * k + 2) * 16 * k * (2 * k - 1),
)


def _poly(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


def _q(q_coeffs, n, k):
    return sum(c * k**a * n**b for (a, b), c in q_coeffs.items())


def _failures(q_coeffs, recurrence):
    """The points at which a check of the module docstring fails."""
    a, b, c = (functools.partial(_poly, co) for co in recurrence)

    def p(n, k):
        return (n + 1) ** 2 * _q(q_coeffs, n, k)

    bad = []
    for n in range(9):
        for k in range(7):
            cleared = (
                a(n) * (n + 1) ** 3 * (n + 2) ** 3
                - b(n) * (n + 1) ** 3 * (n + 2 - k) ** 3
                - c(n) * (n + 1 - k) ** 3 * (n + 2 - k) ** 3
            )
            if p(n, k + 1) * (n + 2 - k) ** 3 - k**3 * p(n, k) != cleared:
                bad.append(("0 <= k <= n", n, k))
    for n in range(7):
        if (n + 1) * (a(n) * (n + 2) ** 3 - b(n)) != (
            _q(q_coeffs, n, n + 2) - (n + 1) ** 3 * _q(q_coeffs, n, n + 1)
        ):
            bad.append(("k = n+1", n))
    for n in range(4):
        if (n + 1) * a(n) + _q(q_coeffs, n, n + 2) != 0:
            bad.append(("k = n+2", n))
    return bad


def test_certificate_proves_the_recurrence():
    assert _failures(Q_COEFFS, RECURRENCE) == []


def _binomial(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def test_certificate_termwise():
    # the identity itself, times n+1, with no clearing of denominators
    a, b, c = (functools.partial(_poly, co) for co in RECURRENCE)
    for n in range(40):
        for k in range(-2, n + 6):
            lhs = (
                a(n) * _binomial(n + 2, k) ** 3
                - b(n) * _binomial(n + 1, k) ** 3
                - c(n) * _binomial(n, k) ** 3
            )
            g_next = _q(Q_COEFFS, n, k + 1) * _binomial(n + 1, k) ** 3
            g = _q(Q_COEFFS, n, k) * _binomial(n + 1, k - 1) ** 3
            assert (n + 1) * lhs == g_next - g, (n, k)
            assert g % (n + 1) == 0, (n, k)  # G is an integer


def test_recurrence_rhs_is_the_proved_recurrence():
    # recurrence_rhs(n, f_prev, f_n) is linear in f_prev and f_n, with
    # coefficients of degree 2 in n: C(n-1) and B(n-1), checked at 3+ points
    _, b, c = (functools.partial(_poly, co) for co in RECURRENCE)
    for n in range(1, 10):
        assert recurrence_rhs(n, 1, 0) == c(n - 1), n
        assert recurrence_rhs(n, 0, 1) == b(n - 1), n


def _family_step_failures(recurrence):
    """With u = C(2k-2,k-1), P_{k-1} = u f_{k-1}, P_k = u s f_k and
    P_{k+1} = u s r f_{k+1}, where s = 2(2k-1)/k, r = 2(2k+1)/(k+1) and
    f_{k+1} = (B f_k + C f_{k-1}) / A at n = k-1.  The step holds for
    k >= 1 if D r B = E A and D s r C = H A, which cleared of k and k+1
    are polynomial identities of degree 6 and 7 in k, checked at 9 points.
    At k = 0 it steps P_0 = 1 to P_1 = C(2,1) f_1 = 4."""
    a, b, c = (functools.partial(_poly, co) for co in recurrence)
    d, e, h = FAMILY_STEP
    bad = []
    for k in range(1, 10):
        n = k - 1
        if d(k) * 2 * (2 * k + 1) * b(n) != e(k) * (k + 1) * a(n):
            bad.append(("P_k", k))
        if d(k) * 4 * (2 * k - 1) * (2 * k + 1) * c(n) != h(k) * k * (k + 1) * a(n):
            bad.append(("P_{k-1}", k))
    if d(0) * 4 != e(0) * 1:
        bad.append(("P_0", 0))
    return bad


def test_family_step():
    assert _family_step_failures(RECURRENCE) == []


def _changed(coeffs, i, delta):
    return coeffs[:i] + (coeffs[i] + delta,) + coeffs[i + 1:]


@pytest.mark.parametrize("delta", [1, -1])
def test_a_changed_coefficient_is_caught(delta):
    for key in Q_COEFFS:
        q = {**Q_COEFFS, key: Q_COEFFS[key] + delta}
        assert _failures(q, RECURRENCE), ("Q", key)
    for j, coeffs in enumerate(RECURRENCE):
        for i in range(len(coeffs)):
            rec = RECURRENCE[:j] + (_changed(coeffs, i, delta),) + RECURRENCE[j + 1:]
            assert _failures(Q_COEFFS, rec), ("recurrence", j, i)
            assert _family_step_failures(rec), ("family step", j, i)
