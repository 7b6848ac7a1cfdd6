"""Exact integer combinatorics: binomial coefficients and Franel numbers.

Everything here is closed over (arbitrary-precision) integers; the one
rational identity is carried as reduced (numerator, denominator) int
pairs.  No floats anywhere.

Each hypergeometric sum steps its term t_{k+1} from t_k by the term
ratio, a rational function of k: a product with small ints and one
division through exact_div, which raises InconsistencyError on a
remainder.  franel_direct and binomial stay plain math.comb.  The
central-binomial, C(3k,k) and Franel columns are shared grow-only caches.
"""
from __future__ import annotations

import functools
import math


class InconsistencyError(ArithmeticError):
    """An exact division that must be exact left a nonzero remainder."""


def exact_div(num: int, den: int, what: str, names: str, *at: int) -> int:
    """num // den, raising InconsistencyError on a remainder.  The message
    names what was divided and the indices at, named by the space-separated
    names, and is built only on failure: exact_div(7, 3, "term", "n k", 5, 3)
    raises "term: division by 3 inexact at n=5, k=3"."""
    q, r = divmod(num, den)
    if r:
        where = ", ".join(f"{key}={value}" for key, value in zip(names.split(), at))
        raise InconsistencyError(f"{what}: division by {den} inexact at {where}")
    return q


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0; zero for k outside [0, n] (the vanishing-term
    convention every sum in this package relies on)."""
    if n < 0:
        raise ValueError(f"binomial: n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binomial_generalized(x: int, k: int) -> int:
    """C(x, k) = x(x-1)...(x-k+1)/k! for integer x of any sign, k >= 0."""
    if k < 0:
        raise ValueError(f"binomial_generalized: k must be nonnegative, got {k}")
    if x >= 0:
        return math.comb(x, k)
    # reflection: C(x, k) = (-1)^k C(k - x - 1, k)
    return (-1) ** k * math.comb(k - x - 1, k)


@functools.lru_cache(maxsize=None)
def franel_direct(n: int) -> int:
    """Sum of cubes of the n-th binomial row, by math.comb: the reference
    route that the stepped Strehl and Sun-expansion sums are checked against.

    The row is symmetric, C(n,k) = C(n,n-k), so it sums the half below
    the middle, doubles it and adds the middle term C(n,n/2)^3 at even n.

    Memoized because the recurrence, route-agreement, Strehl and
    Sun-expansion statements all compare against it at the same n.
    """
    total = 2 * sum(math.comb(n, k) ** 3 for k in range((n + 1) // 2))
    if n % 2 == 0:
        total += math.comb(n, n // 2) ** 3
    return total


def franel_strehl(n: int) -> int:
    """sum_k C(n,k)^2 C(2k,n), stepped by its term ratio from k = ceil(n/2),
    below which C(2k,n) = 0."""
    start = (n + 1) // 2
    term = binomial(n, start) ** 2 * binomial(2 * start, n)
    total = 0
    for k in range(start, n + 1):
        total += term
        term = exact_div(
            term * 2 * (n - k) ** 2 * (2 * k + 1),
            (k + 1) * (2 * k + 2 - n) * (2 * k + 1 - n),
            "strehl term", "n k", n, k + 1,
        )
    return total


def franel_sun_expansion(n: int) -> int:
    """Alternating central-binomial expansion with (-4)^(n-k) weights:
    sum_k C(n+2k,3k) C(3k,k) C(2k,k) (-4)^(n-k), whose term
    (n+2k)!/((n-k)! k!^3) (-4)^(n-k) is stepped by its ratio
    (n+2k+1)(n+2k+2)(n-k) / (-4 (k+1)^3)."""
    term = (-4) ** n
    total = 0
    for k in range(n + 1):
        total += term
        term = exact_div(
            -term * (n + 2 * k + 1) * (n + 2 * k + 2) * (n - k),
            4 * (k + 1) ** 3,
            "sun expansion term", "n k", n, k + 1,
        )
    return total


def recurrence_rhs(n: int, f_prev: int, f_n: int) -> int:
    """(7n^2+7n+2) f_n + 8n^2 f_{n-1}, the right side of the three-term
    recurrence (n+1)^2 f_{n+1} = (7n^2+7n+2) f_n + 8n^2 f_{n-1}."""
    return (7 * n * n + 7 * n + 2) * f_n + 8 * n * n * f_prev


# shared grow-only table for the recurrence route (cheapest route; used as
# the workhorse by all sweeps)
_RECURRENCE_CACHE: list[int] = [1, 2]


def _recurrence_extend(n_max: int) -> None:
    """Extend the shared Franel table up to index n_max via the recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    values = _RECURRENCE_CACHE
    while len(values) <= n_max:
        n = len(values) - 1
        num = recurrence_rhs(n, values[n - 1], values[n])
        values.append(exact_div(num, (n + 1) * (n + 1), "franel recurrence", "n", n + 1))


def franel_upto(n_max: int) -> list[int]:
    """f_0..f_n_max by the recurrence route, from a shared cache."""
    _recurrence_extend(n_max)
    return _RECURRENCE_CACHE[: n_max + 1]


_CENTRAL_CACHE: list[int] = [1]


def _central_extend(k_max: int) -> None:
    cache = _CENTRAL_CACHE
    while len(cache) <= k_max:
        k = len(cache) - 1
        # C(2k+2, k+1) = C(2k, k) * 2(2k+1)/(k+1)
        cache.append(
            exact_div(cache[-1] * 2 * (2 * k + 1), k + 1, "central binomial", "k", k + 1)
        )


def central_binomials_upto(k_max: int) -> list[int]:
    """[C(0,0), C(2,1), ..., C(2*k_max, k_max)] from a shared cache."""
    _central_extend(k_max)
    return _CENTRAL_CACHE[: k_max + 1]


def central_binomial(k: int) -> int:
    """C(2k, k) from the same shared cache, without copying a prefix."""
    if k < 0:
        raise ValueError(f"central_binomial: k must be nonnegative, got {k}")
    _central_extend(k)
    return _CENTRAL_CACHE[k]


_TRIPLE_CACHE: list[int] = [1]


def triple_binomials_upto(k_max: int) -> list[int]:
    """[C(0,0), C(3,1), ..., C(3*k_max, k_max)] from a shared cache, each
    stepped from the one before by 3(3k+1)(3k+2) / (2(k+1)(2k+1))."""
    col = _TRIPLE_CACHE
    for k in range(len(col) - 1, k_max):
        col.append(exact_div(
            col[-1] * 3 * (3 * k + 1) * (3 * k + 2), 2 * (k + 1) * (2 * k + 1),
            "C(3k,k) step", "k", k + 1,
        ))
    return col[: k_max + 1]


def alternating_row(h: int) -> list[int]:
    """[(-1)^k C(h, k) for k in 0..h], each stepped from the one before by
    -(h-k)/(k+1)."""
    row = [1]
    for k in range(h):
        row.append(exact_div(-row[-1] * (h - k), k + 1, "C(h,k) step", "h k", h, k + 1))
    return row


def pulled_out_sum(n: int) -> int:
    """sum_{k<n} C(n+2k,3k) C(3k,k)/(2k+1) C(2k,k) (k-n) (-4)^(n-k), the sum
    that the proof of Theorem 1 pulls n C(2n,n) out of.  The term without
    its (k-n) is the Sun-expansion term over 2k+1, stepped by the ratio
    (n+2k+1)(n+2k+2)(n-k)(2k+1) / (-4 (k+1)^3 (2k+3))."""
    term = (-4) ** n
    total = 0
    for k in range(n):
        total += term * (k - n)
        term = exact_div(
            -term * (n + 2 * k + 1) * (n + 2 * k + 2) * (n - k) * (2 * k + 1),
            4 * (k + 1) ** 3 * (2 * k + 3),
            "pulled-out term", "n k", n, k + 1,
        )
    return total


def franel(n: int) -> int:
    """f_n by the recurrence, from the shared table."""
    if n < 0:
        raise ValueError(f"franel: n must be nonnegative, got {n}")
    _recurrence_extend(n)
    return _RECURRENCE_CACHE[n]


def macmahon_sides(n: int, x: int) -> tuple[int, int]:
    """Both sides of the cube-sum / central-trinomial expansion at integer x.

    Left: sum_k C(n,k)^3 x^k.
    Right: sum_k C(n+k,3k) C(3k,2k) C(2k,k) x^k (1+x)^(n-2k).
    Convention 0^0 = 1, so x = -1 with n = 2k still contributes.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    lhs = 0
    term = 1  # C(n,k)^3 x^k
    for k in range(n + 1):
        lhs += term
        term = exact_div(
            term * x * (n - k) ** 3, (k + 1) ** 3,
            "macmahon left term", "n x k", n, x, k + 1,
        )
    # sum_k m_k x^k y^(n-2k) with y = 1+x and m_k = (n+k)!/((n-2k)! k!^3),
    # by Horner in y^2 from k = 0, so y is never divided by (it is 0 at x = -1)
    top = n // 2  # C(n+k,3k) = 0 for k > n/2
    y2 = (1 + x) ** 2
    acc = 0
    term = 1  # m_k x^k
    for k in range(top + 1):
        acc = acc * y2 + term
        term = exact_div(
            term * x * (n + k + 1) * (n - 2 * k) * (n - 2 * k - 1),
            (k + 1) ** 3,
            "macmahon right term", "n x k", n, x, k + 1,
        )
    return lhs, acc * (1 + x) ** (n - 2 * top)


def partial_fraction_sides(n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Both sides of sum_k (-1)^k C(n,k)/(x+k) = n!/(x(x+1)...(x+n)) at x=1/2,
    each a reduced (numerator, denominator) pair with denominator > 0.

    Over L = (2n+1)!! = prod_j (2j+1) the left side is
    sum_k (-1)^k C(n,k) 2L/(2k+1) / L and the right side n! 2^(n+1) / L.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    odd = math.prod(range(1, 2 * n + 2, 2))  # L
    lhs = 0
    term = 2 * odd  # (-1)^k C(n,k) 2L, stepped along the binomial row
    for k in range(n + 1):
        lhs += exact_div(term, 2 * k + 1, "partial fraction term", "n k", n, k)
        term = exact_div(-term * (n - k), k + 1, "partial fraction step", "n k", n, k + 1)
    rhs = math.factorial(n) << (n + 1)
    return _reduced(lhs, odd), _reduced(rhs, odd)


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g
