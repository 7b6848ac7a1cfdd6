"""Exact-arithmetic computation and verification of Franel-number
identities, supercongruences, and conjectured divisibility families."""

from .combinatorics import (
    ROUTES,
    InconsistencyError,
    binomial,
    binomial_generalized,
    franel,
    macmahon_sides,
    partial_fraction_sides,
)
from .modular import (
    NotCoprimeError,
    TwoSquares,
    legendre_symbol,
    mod_inverse,
    primes_in_range,
    two_squares_decompose,
)
from .reports import OutsideHypothesis, Report

__all__ = [
    "ROUTES",
    "InconsistencyError",
    "NotCoprimeError",
    "OutsideHypothesis",
    "Report",
    "TwoSquares",
    "binomial",
    "binomial_generalized",
    "franel",
    "legendre_symbol",
    "macmahon_sides",
    "mod_inverse",
    "partial_fraction_sides",
    "primes_in_range",
    "two_squares_decompose",
]

__version__ = "0.1.0"
