"""Modular inverses, primes and prime guards, Legendre symbols, two squares."""
from __future__ import annotations

import math
from dataclasses import dataclass


class NotCoprimeError(ValueError):
    """Requested inverse of a residue that shares a factor with the modulus."""


def mod_inverse(a: int, m: int) -> int:
    """The r in [0, m) with a*r == 1 (mod m)."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotCoprimeError(
            f"{a % m} is not invertible mod {m} (gcd={math.gcd(a, m)})"
        ) from None


def is_prime(n: int) -> bool:
    """Deterministic trial division; intended for desk-scale n (< 10^7)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending."""
    if lo < 2:
        raise ValueError(f"lo must be >= 2, got {lo}")
    if lo > hi:
        raise ValueError(f"empty interval bounds reversed: [{lo}, {hi}]")
    return [n for n in range(lo, hi + 1) if is_prime(n)]


def require_prime(p: int) -> None:
    """ValueError unless p is prime: the guard of every check on a prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def legendre_symbol(a: int, p: int) -> int:
    """Euler's criterion: 1 for a nonzero square mod p, -1 for a nonsquare,
    0 when p divides a.  p must be an odd prime."""
    require_prime(p)
    if p == 2:
        raise ValueError("p must be odd")
    e = pow(a % p, (p - 1) // 2, p)
    return -1 if e == p - 1 else e


@dataclass(frozen=True)
class TwoSquares:
    """Normalized decomposition p = x^2 + y^2 with x odd > 0, y even > 0."""

    p: int
    x: int
    y: int

    def __post_init__(self):
        if self.x * self.x + self.y * self.y != self.p:
            raise ValueError("x^2 + y^2 != p")
        if self.x <= 0 or self.x % 2 == 0:
            raise ValueError("x must be positive and odd")
        if self.y <= 0 or self.y % 2 == 1:
            raise ValueError("y must be positive and even")


def two_squares_decompose(p: int) -> TwoSquares:
    """The unique normalized two-square decomposition of a prime p = 1 mod 4,
    by exhaustive search over odd x <= sqrt(p)."""
    require_prime(p)
    if p % 4 != 1:
        raise ValueError(f"{p} != 1 (mod 4): no two-square decomposition")
    for x in range(1, math.isqrt(p) + 1, 2):
        y2 = p - x * x
        y = math.isqrt(y2)
        if y * y == y2:
            return TwoSquares(p=p, x=x, y=y)
    raise AssertionError(f"no decomposition found for prime {p} = 1 (mod 4)")
