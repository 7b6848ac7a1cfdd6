"""Verification of the three divisibility/supercongruence theorems and the
auxiliary congruences their proofs route through.

Divisibility statements keep the exact big-integer sum and emit the quotient
as a witness.  Every sum sum_{k<n} (a*k + b) c^(n-1-k) C(2k,k) f_k comes from
one ascending walk per base c over P_k = C(2k,k) f_k, whose exact division
at each step is checked.  The modular statements on the prime axis
(Theorems 2 and 3, Conjectures 1 and 2, the reduction chain) read one
memoized pair per prime, the weighted and unweighted inverse sums mod p^3,
which is the base -16 sum at n = p over the unit (-16)^(p-1).  So Theorem 1
and the prime axis share one walk, and a sweep up to P walks to P once.
"""
from __future__ import annotations

import functools

from .combinatorics import (
    InconsistencyError,
    alternating_row,
    binomial,
    central_binomial,
    central_binomials_upto,
    exact_div,
    franel_upto,
    pulled_out_sum,
    triple_binomials_upto,
)
from .modular import (
    NotCoprimeError, is_prime, mod_inverse, require_odd_prime, require_prime
)
from .reports import Report, divisibility_report


# K: family_sum keeps the walk's state at every K-th step as a checkpoint
_FAMILY_STRIDE = 32
# per base c: the checkpoints [W_0, W_K, W_2K, ...] up to the cursor j, then
# the cursor j and W_j, the furthest state reached so far, where
# W_j = (U_j, V_j, P_{j-1}, P_j) as in family_sum
_FAMILY_CACHE: dict[int, tuple[list[tuple[int, ...]], int, tuple[int, ...]]] = {}
_FAMILY_START = (0, 0, 0, 1)  # W_0; P_{-1} is multiplied by 0, P_0 = 1


def family_sum(a: int, b: int, c: int, n: int) -> int:
    """Exact S_n = sum_{k=0}^{n-1} (a*k + b) c^(n-k-1) C(2k,k) f_k.

    S_n = a*U_n + b*V_n, where U_n and V_n are the sums with weights k and
    1, so one walk per base c serves every (a, b).  The walk steps
    U_{k+1} = c*U_k + k*P_k and V_{k+1} = c*V_k + P_k along with
    P_k = C(2k,k) f_k, by
    (k+1)^3 P_{k+1} = 2(2k+1) [(7k^2+7k+2) P_k + 16k(2k-1) P_{k-1}];
    an inexact division raises InconsistencyError.  Every step multiplies
    or divides a big int by a small one.  An n at or past the cursor walks
    on from it, so an ascending sweep costs O(n) steps in total; a lower n
    walks fewer than _FAMILY_STRIDE steps from the checkpoint at or below
    it.  A base holds four big ints per checkpoint, about 4n/_FAMILY_STRIDE.
    """
    u, v = _family_walk(c, n)
    return a * u + b * v


def _family_walk(c: int, n: int) -> tuple[int, int]:
    """(U_n, V_n) of the base c walk that family_sum describes."""
    if n < 0:
        raise ValueError(f"family_sum: n must be nonnegative, got {n}")
    checkpoints, j, state = _FAMILY_CACHE.get(c) or ([_FAMILY_START], 0, _FAMILY_START)
    ahead = n >= j
    if not ahead:
        j = n - n % _FAMILY_STRIDE
        state = checkpoints[j // _FAMILY_STRIDE]
    u, v, p_prev, p_k = state
    passed = []  # committed with the cursor, so a failed walk leaves no trace
    for k in range(j, n):
        u = c * u + k * p_k
        v = c * v + p_k
        num = (4 * k + 2) * (
            (7 * k * k + 7 * k + 2) * p_k + 16 * k * (2 * k - 1) * p_prev
        )
        p_next = exact_div(num, (k + 1) ** 3, "C(2k,k) f_k recurrence", "k", k + 1)
        p_prev, p_k = p_k, p_next
        if ahead and (k + 1) % _FAMILY_STRIDE == 0:
            passed.append((u, v, p_prev, p_k))
    if ahead:
        checkpoints.extend(passed)
        _FAMILY_CACHE[c] = (checkpoints, n, (u, v, p_prev, p_k))
    return u, v


@functools.lru_cache(maxsize=None)
def inverse_weighted_sum_mod(p: int) -> tuple[int, int]:
    """The weighted and unweighted inverse sums over 0 <= k < p,

        sum (3k+1) C(2k,k) f_k (-16)^(-k)  and  sum C(2k,k) f_k (-16)^(-k),

    both mod p^3.  Each sum is family_sum(a, b, -16, p) / (-16)^(p-1) for
    (a, b) = (3, 1) and (0, 1), and both come from one pass of the base -16
    walk that Theorem 1 and the reduction chain share.  Primes up to P
    cost one walk to P, plus a walk of fewer than _FAMILY_STRIDE steps from
    a checkpoint for each prime asked for below the cursor; theorem2,
    theorem3, conjecture1/2 and the reduction chain, which reduce the pair
    to p^3, p^2 or p, then read it from this memo.

    Raises NotCoprimeError unless p is an odd prime.  (-16)^(p-1) is
    invertible mod p^3 for every odd p, so this is an explicit guard: the
    statements are about primes, and for p = 2, -16 has no inverse mod 8.
    """
    if p % 2 == 0 or not is_prime(p):
        raise NotCoprimeError(f"inverse sums need an odd prime p, got {p}")
    m = p**3
    inv = pow(16, 1 - p, m)  # ((-16)^(p-1))^-1, as p - 1 is even
    u, v = _family_walk(-16, p)
    return (3 * u + v) * inv % m, v * inv % m


def check_theorem1(n: int) -> Report:
    """Divisibility of the (3k+1)-weighted sum by n*C(2n,n), with witness."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return divisibility_report(
        "theorem1", {"n": n}, family_sum(3, 1, -16, n),
        n * central_binomial(n),
    )


def check_theorem2(p: int) -> Report:
    """(3k+1)-weighted inverse sum against p*(-1)^((p-1)/2), mod p^3."""
    # p = 2 is deliberately not rejected here: -16 has no inverse mod 8, so
    # the sum raises NotCoprimeError, which is the contractual failure mode.
    require_prime(p)
    m = p**3
    lhs = inverse_weighted_sum_mod(p)[0]
    rhs = p * (-1) ** ((p - 1) // 2) % m
    return Report(
        statement="theorem2", params={"p": p}, modulus=m, lhs=lhs, rhs=rhs
    )


def check_theorem3(p: int) -> Report:
    """Unweighted inverse sum vanishing mod p for p = 3 (mod 4)."""
    require_prime(p)
    if p % 4 != 3:
        raise ValueError(f"need p = 3 (mod 4), got p={p}")
    lhs = inverse_weighted_sum_mod(p)[1] % p
    return Report(
        statement="theorem3", params={"p": p}, modulus=p, lhs=lhs, rhs=0
    )


# ---------------------------------------------------------------------------
# auxiliary congruences


def check_babbage(p: int) -> list[Report]:
    require_odd_prime(p)
    m = p * p
    return [
        Report(
            statement="babbage",
            params={"p": p},
            modulus=m,
            # C(2p-1, p-1) = C(2p, p)/2
            lhs=exact_div(central_binomial(p), 2, "C(2p,p)/2", "p", p) % m,
            rhs=1,
        )
    ]


def check_morley(p: int) -> list[Report]:
    require_odd_prime(p)
    if p <= 3:
        raise ValueError("morley requires p > 3")
    m = p**3
    return [
        Report(
            statement="morley",
            params={"p": p},
            modulus=m,
            lhs=central_binomial((p - 1) // 2) % m,
            rhs=(-1) ** ((p - 1) // 2) * pow(4, p - 1, m) % m,
        )
    ]


def check_jarvis_verrill(p: int) -> list[Report]:
    require_odd_prime(p)
    f = franel_upto(p - 1)
    out = []
    for n in range(p):
        out.append(
            Report(
                statement="jarvis_verrill",
                params={"p": p, "n": n},
                modulus=p,
                lhs=f[n] % p,
                rhs=pow(-8 % p, n, p) * f[p - 1 - n] % p,
            )
        )
    return out


def check_multinomial(p: int) -> list[Report]:
    """Two-branch reduction of (p+2k)!/((2k)! k! (p-k)!) mod p^2 for
    1 <= k < p, k != (p-1)/2."""
    require_odd_prime(p)
    if p <= 3:
        raise ValueError("multinomial requires p > 3")
    m = p * p
    half = (p - 1) // 2
    out = []
    value = 1  # the multinomial at k = 0
    for k in range(1, p):
        # step from k-1 by (p+2k-1)(p+2k)(p-k+1) / ((2k-1)(2k)k)
        value = exact_div(
            value * (p + 2 * k - 1) * (p + 2 * k) * (p - k + 1),
            (2 * k - 1) * 2 * k * k,
            "multinomial step", "p k", p, k,
        )
        if k == half:
            continue  # handled by half_binom
        scale = p if k < half else 2 * p
        target = (-1) ** (k - 1) * scale * mod_inverse(k, m) % m
        out.append(
            Report(
                statement="multinomial",
                params={"p": p, "k": k, "branch": "low" if k < half else "high"},
                modulus=m,
                lhs=value % m,
                rhs=target,
            )
        )
    return out


def check_half_binom(p: int) -> list[Report]:
    """The k=(p-1)/2 term: exact product shape, then its value mod p^2."""
    require_odd_prime(p)
    m = p * p
    k = (p - 1) // 2
    cb = central_binomial(k)  # C(2k, k) = C(p-1, k)
    num = binomial(p + 2 * k, 3 * k) * binomial(3 * k, k) * cb * (k - p)
    term = exact_div(num, 2 * k + 1, "the k=(p-1)/2 term", "p", p)
    # C(2p-1, p-1) = C(2p, p)/2
    closed = -exact_div(central_binomial(p), 2, "C(2p,p)/2", "p", p) * cb**2
    return [
        Report(
            statement="half_binom",
            params={"p": p, "part": "exact"},
            modulus=None,
            lhs=term,
            rhs=closed,
        ),
        Report(
            statement="half_binom",
            params={"p": p, "part": "mod"},
            modulus=m,
            lhs=term % m,
            rhs=-pow(16, p - 1, m) % m,
        ),
    ]


def check_central_pmod(p: int) -> list[Report]:
    require_odd_prime(p)
    half = (p - 1) // 2
    inv4 = mod_inverse(4, p)
    out = []
    power = 1
    row = alternating_row(half) + [0] * half  # C(half, k) is 0 past k = half
    cb = central_binomials_upto(p - 1)
    for k in range(p):
        out.append(
            Report(
                statement="central_pmod",
                params={"p": p, "k": k},
                modulus=p,
                lhs=cb[k] * power % p,
                rhs=row[k] % p,
            )
        )
        power = power * inv4 % p
    return out


def check_fermat_square(p: int) -> list[Report]:
    require_odd_prime(p)
    m = p * p
    lhs = (pow(2, p - 1, m) + pow(8, 1 - p, m) - pow(4, 1 - p, m)) % m
    return [
        Report(
            statement="fermat_square", params={"p": p}, modulus=m, lhs=lhs, rhs=1
        )
    ]


def check_final_reflect(p: int) -> list[Report]:
    require_odd_prime(p)
    half = (p - 1) // 2
    out = []
    c3 = triple_binomials_upto(half)
    for k in range(half + 1):
        j = half - k
        out.append(
            Report(
                statement="final_reflect",
                params={"p": p, "k": k},
                modulus=p,
                lhs=binomial(2 * k, j) % p,
                rhs=(-1) ** j * c3[j] % p,
            )
        )
    return out


# ---------------------------------------------------------------------------
# intermediate reduction chain of the two supercongruence proofs


def final3_rhs_terms(p: int) -> list[int]:
    """Exact terms (-1)^k C(half,k) C(3k,k) C(3(half-k), half-k) of the
    reflected half-range sum equivalent (mod p) to the unweighted inverse
    sum, for k = 0..half with half = (p-1)/2.  The column C(3j,j),
    j = 0..half, is read at j = k and at half - k."""
    half = (p - 1) // 2
    c3 = triple_binomials_upto(half)
    return [row * c3[k] * c3[half - k] for k, row in enumerate(alternating_row(half))]


def check_reduction_chain(p: int) -> list[Report]:
    """Every displayed intermediate congruence of the two proofs, verified
    numerically and independently (no elided steps reconstructed)."""
    require_odd_prime(p)
    m2 = p * p
    half = (p - 1) // 2
    reports: list[Report] = []

    # exact pulled-out form: S = -p C(2p-1,p-1) * inner, where inner is the
    # displayed sum of C(p+2k,3k) C(3k,k)/(2k+1) C(2k,k) (k-p) (-1)^k
    # 4^(p-1-k); for odd p, (-1)^k 4^(p-1-k) = -(-4)^(p-k) / 4, so inner is
    # minus a quarter of the pulled-out sum
    inner = -exact_div(pulled_out_sum(p), 4, "pulled-out sum", "p", p)
    cb = central_binomials_upto(p)
    reports.append(
        Report(
            statement="chain_newsum_pp",
            params={"p": p},
            modulus=None,
            lhs=family_sum(3, 1, -16, p),
            # C(2p-1, p-1) = C(2p, p)/2
            rhs=-p * exact_div(cb[p], 2, "C(2p,p)/2", "p", p) * inner,
        )
    )

    # L = (1/p) * sum (3k+1) C(2k,k) f_k (-16)^(-k), taken mod p^2
    r3, unweighted = inverse_weighted_sum_mod(p)
    if r3 % p:
        raise InconsistencyError(
            f"p={p}: weighted inverse sum is not divisible by p"
        )
    big_l = r3 // p % m2

    inv4 = mod_inverse(4, m2)
    inv4_pow = pow(4, 1 - p, m2)
    neg4_half = pow(-4 % m2, half, m2)

    # one pass over 0 <= k < half: lines 1 and 2 weigh C(2k,k) by
    # 1/((2k+1) 4^k), line 1 over k >= 1 with its displayed p^2/k term, and
    # line 3 weighs (-1)^k C(half, k) by 1/(2k+1)
    acc1 = acc2 = acc3 = 0
    inv4_k = 1  # 4^(-k)
    row = alternating_row(half)  # (-1)^k C(half, k)
    for k in range(half):
        inv_odd = mod_inverse(2 * k + 1, m2)
        term = cb[k] % m2 * inv4_k * inv_odd % m2
        if k:
            acc1 += term * (p - p * p * mod_inverse(k, m2))
        acc2 += term * p
        acc3 += row[k] % m2 * p * inv_odd
        inv4_k = inv4_k * inv4 % m2
    lines = {
        "chain_newsum2_line1": p * inv4_pow + neg4_half + inv4_pow * acc1,
        "chain_newsum2_line2": neg4_half + inv4_pow * acc2,
        "chain_newsum3": neg4_half + inv4_pow * acc3,
    }
    reports.extend(
        Report(statement=sid, params={"p": p}, modulus=m2, lhs=big_l, rhs=rhs % m2)
        for sid, rhs in lines.items()
    )

    # unweighted inverse sum against the reflected half-range form, mod p
    terms = final3_rhs_terms(p)
    reports.append(
        Report(
            statement="chain_final3",
            params={"p": p},
            modulus=p,
            lhs=unweighted % p,
            rhs=sum(terms) % p,
        )
    )

    # central binomials vanish mod p on the upper half range
    for k in range(half + 1, p):
        reports.append(
            Report(
                statement="chain_central_vanish",
                params={"p": p, "k": k},
                modulus=p,
                lhs=cb[k] % p,
                rhs=0,
            )
        )

    # for p = 3 (mod 4) the reflected sum cancels in pairs, exactly
    if p % 4 == 3:
        for k in range((half + 1) // 2):
            reports.append(
                Report(
                    statement="chain_final3_pair",
                    params={"p": p, "k": k},
                    modulus=None,
                    lhs=terms[k] + terms[half - k],
                    rhs=0,
                )
            )
    return reports
