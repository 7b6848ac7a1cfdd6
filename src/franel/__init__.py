"""Exact-arithmetic computation and verification of Franel-number
identities, supercongruences, and conjectured divisibility families."""

__version__ = "0.1.0"
