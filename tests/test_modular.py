import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from franel.modular import (
    NotCoprimeError,
    is_prime,
    legendre_symbol,
    mod_inverse,
    primes_in_range,
    two_squares_decompose,
)

big_ints = st.integers(min_value=-(10**30), max_value=10**30)
moduli = st.integers(min_value=2, max_value=10**15)


class TestInverse:
    def test_examples(self):
        assert mod_inverse(11, 27) == 5
        assert mod_inverse(13, 27) == 25
        assert mod_inverse(-16, 27) == 5
        for m in (2, 9, 100):
            assert mod_inverse(1, m) == 1

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            mod_inverse(6, 27)
        with pytest.raises(NotCoprimeError):
            mod_inverse(0, 7)

    def test_bad_modulus(self):
        for m in (1, 0, -5):
            with pytest.raises(ValueError):
                mod_inverse(3, m)

    @given(big_ints, moduli)
    def test_roundtrip(self, a, m):
        if math.gcd(a, m) == 1:
            r = mod_inverse(a, m)
            assert type(r) is int and 0 <= r < m
            assert a * r % m == 1
        else:
            with pytest.raises(NotCoprimeError):
                mod_inverse(a, m)

    def test_rational_residue(self):
        # num/den mod m is num * den^-1 mod m
        assert 1 * mod_inverse(-16, 27) % 27 == 5
        assert 420 * mod_inverse(256, 27) % 27 == 24
        for k in (1, 2, 4, 5):
            assert k * mod_inverse(k, 9) % 9 == 1
        with pytest.raises(NotCoprimeError):
            mod_inverse(3, 9)


class TestLegendre:
    def test_examples(self):
        assert legendre_symbol(2, 7) == 1  # 3^2 = 2 (mod 7)
        assert legendre_symbol(3, 7) == -1
        assert legendre_symbol(0, 11) == 0
        assert legendre_symbol(14, 7) == 0

    def test_bad_p(self):
        with pytest.raises(ValueError, match="p must be odd"):
            legendre_symbol(3, 2)
        with pytest.raises(ValueError, match="15 is not prime"):
            legendre_symbol(3, 15)

    def test_matches_square_enumeration(self):
        for p in primes_in_range(3, 100):
            squares = {x * x % p for x in range(1, p)}
            for a in range(p):
                expected = 0 if a == 0 else (1 if a in squares else -1)
                assert legendre_symbol(a, p) == expected

    def test_multiplicative(self):
        for p in primes_in_range(3, 100):
            for a in range(1, p):
                for b in range(1, p):
                    assert (
                        legendre_symbol(a * b, p)
                        == legendre_symbol(a, p) * legendre_symbol(b, p)
                    )


class TestPrimes:
    def test_examples(self):
        assert primes_in_range(2, 10) == [2, 3, 5, 7]
        assert primes_in_range(24, 28) == []
        assert primes_in_range(3, 3) == [3]

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            primes_in_range(1, 10)
        with pytest.raises(ValueError):
            primes_in_range(10, 5)

    def test_against_sieve(self):
        limit = 2000
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        expected = [i for i in range(2, limit + 1) if sieve[i]]
        assert primes_in_range(2, limit) == expected
        assert [n for n in range(limit + 1) if is_prime(n)] == expected


class TestTwoSquares:
    def test_examples(self):
        for p, x, y in [(5, 1, 2), (13, 3, 2), (29, 5, 2)]:
            ts = two_squares_decompose(p)
            assert (ts.x, ts.y) == (x, y)

    def test_rejects_3_mod_4_and_composites(self):
        with pytest.raises(ValueError):
            two_squares_decompose(7)
        with pytest.raises(ValueError):
            two_squares_decompose(25)

    def test_unique_normalized_up_to_10000(self):
        for p in primes_in_range(5, 10**4):
            if p % 4 != 1:
                continue
            ts = two_squares_decompose(p)
            assert ts.x**2 + ts.y**2 == p
            assert ts.x % 2 == 1 and ts.y % 2 == 0
            found = [
                (x, y)
                for x in range(1, p)
                if x * x < p
                for y in [int((p - x * x) ** 0.5)]
                if x % 2 == 1 and y % 2 == 0 and y > 0 and x * x + y * y == p
            ]
            assert found == [(ts.x, ts.y)]

    def test_case_split_for_1_mod_12(self):
        # matches the two-square case split: exactly one predicate fires
        for p in primes_in_range(13, 2000):
            if p % 12 != 1:
                continue
            ts = two_squares_decompose(p)
            assert (ts.y % 6 == 0) != ((ts.x - 3) % 6 == 0), (p, ts)

    def test_3_never_divides_xy_for_5_mod_12(self):
        for p in primes_in_range(5, 2000):
            if p % 12 != 5:
                continue
            ts = two_squares_decompose(p)
            assert (ts.x * ts.y) % 3 != 0, (p, ts)
