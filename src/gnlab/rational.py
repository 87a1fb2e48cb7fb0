"""Exact rational plumbing for exponent arithmetic.

Integrability and summability exponents p, q live in (0, infinity] and are
stored as reciprocals (1/p, 1/q), so p = infinity is the exact rational 0 and
every checker condition becomes an affine comparison of Fractions.  No
floating point enters any verdict.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[Fraction, int, str]

INFINITY = "inf"


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints, Fractions, and strings like '3/4' to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not an exact rational: {x!r}")


def as_exact(x) -> Fraction:
    """as_fraction that also takes floats, each read as the decimal it prints
    as, so 2.2 is 11/5."""
    if isinstance(x, (Fraction, int, str)):
        return as_fraction(x)
    return Fraction(str(float(x)))


def inv_exponent(p) -> Fraction:
    """Reciprocal of an exponent in (0, inf]; 'inf' maps to the exact 0."""
    if p is None:
        raise TypeError("exponent missing")
    if isinstance(p, str) and p.strip().lower() == INFINITY:
        return Fraction(0)
    if isinstance(p, float):
        if p == float("inf"):
            return Fraction(0)
        raise TypeError("exponents must be exact rationals or 'inf'")
    p = as_fraction(p)
    if p <= 0:
        raise ValueError(f"exponent must be positive, got {p}")
    return 1 / p


def format_rational(x: Fraction) -> str:
    """Canonical string form: '3', '-1/2'."""
    x = as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_exponent_from_inv(inv: Fraction) -> str:
    """Render a stored reciprocal back as the exponent ('inf' when 1/p = 0)."""
    if inv == 0:
        return INFINITY
    return format_rational(1 / inv)
