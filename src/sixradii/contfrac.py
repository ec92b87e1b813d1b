"""Continued fractions and Euclid-style quotient extraction.

The measurement's two iteration counts are the first partial quotients of
the continued fraction of pi/3 after the leading 1: pi/3 = [1; 21, 5, ...],
and the convergent [1; 21, 5] is 111/106. Every input, float or exact, is
first written as an exact pair of integers; one integer division loop then
expands it, and the same loop runs directly on a pair of lengths. Nothing is
divided in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence


# A double resolves a real x only to about x / 2**53, and a convergent p/q is
# within 1/q**2 of it, so a quotient giving q**2 * x above this is rounding noise.
_FLOAT_RESOLUTION = 2**53


@dataclass(frozen=True)
class CFExpansion:
    """Quotient list plus whether the expansion terminated exactly."""

    quotients: tuple[int, ...]
    exact: bool


def cf_expand(
    x: float | int | Fraction, max_terms: int | None = None, tolerance: float = 0.0
) -> CFExpansion:
    """Standard continued-fraction expansion of x > 0.

    a0 = floor(x), then recurse on 1/frac(x). Stops after ``max_terms``
    quotients or once the fractional part drops below ``tolerance`` (or hits
    zero, in which case the expansion is exact). Every input is expanded in
    exact arithmetic, a float as the exact binary value it holds. Since a
    double only approximates the real it was computed from, a float
    expansion also stops, inexact, before a quotient whose convergent
    denominator q has q**2 * x > 2**53, past what a double resolves, whatever
    ``max_terms`` is; quotients up to the first nonzero one are always kept.
    """
    if not 0 < x < math.inf:
        raise ValueError("x must be > 0 and finite")
    if max_terms is not None and max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if not tolerance >= 0:
        raise ValueError("tolerance must be >= 0")
    stop = None
    if tolerance:
        # r/b < tolerance, compared exactly in integers. Every r/b is below 1,
        # so a tolerance above 1 (even inf) acts like 1.
        tn, td = min(tolerance, 1).as_integer_ratio()
        stop = lambda r, b: r * td < tn * b
    p, d = x.as_integer_ratio()
    quotients, exact = _divide(p, d, max_terms, stop, isinstance(x, float))
    return CFExpansion(tuple(quotients), exact)


def _divide(
    a: int, b: int, max_terms: int | None, stop: Callable | None, resolve: bool = False
) -> tuple[list[int], bool]:
    """Repeated division with remainder of the integer a by the integer b.

    Stops after ``max_terms`` quotients, when a remainder reaches zero
    (reported as True), or when ``stop(remainder, divisor)`` holds. With
    ``resolve``, a/b is a double's value and the loop also stops before the
    first quotient past its resolution, once a nonzero quotient is kept.
    """
    p, d = a, b
    k_prev, k = 1, 0  # convergent denominators k(n-2), k(n-1)
    quotients: list[int] = []
    while max_terms is None or len(quotients) < max_terms:
        q, r = divmod(a, b)
        if resolve:
            k_prev, k = k, q * k + k_prev
            if any(quotients) and k * k * p > _FLOAT_RESOLUTION * d:
                break  # a double cannot resolve this quotient
        quotients.append(q)
        if r == 0:
            return quotients, True
        if stop is not None and stop(r, b):
            break
        a, b = b, r
    return quotients, False


def convergent(quotients: Sequence[int]) -> Fraction:
    """Fold a quotient list into a reduced rational."""
    qs = list(quotients)
    if not qs:
        raise ValueError("quotient list must be non-empty")
    if qs[0] < 0:
        raise ValueError("leading quotient must be >= 0")
    if any(a < 1 for a in qs[1:]):
        raise ValueError("quotients after the first must be >= 1")
    h_prev, h = 1, qs[0]
    k_prev, k = 0, 1
    for a in qs[1:]:
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    return Fraction(h, k)


def euclid_quotients(
    a: float | int | Fraction,
    b: float | int | Fraction,
    max_terms: int | None = None,
    tolerance: float = 0.0,
) -> list[int]:
    """Quotients of repeated division-with-remainder of a by b.

    Stops at ``max_terms`` quotients or when the remainder falls below
    ``tolerance`` (always when it reaches zero). The tolerance is compared in
    the same absolute units as the inputs, mirroring a physical measurement
    that discards a leftover too small to mean anything. Both lengths are
    first scaled to integers over one common denominator, so float lengths
    run Euclid's algorithm exactly on the values they hold.
    """
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError("both lengths must be > 0 and finite")
    if max_terms is not None and max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if not tolerance >= 0:
        raise ValueError("tolerance must be >= 0")
    pa, da = a.as_integer_ratio()
    pb, db = b.as_integer_ratio()
    stop = None
    if tolerance:
        # r / (da * db) < tolerance, compared exactly in integers. Every
        # remainder is below b, so a tolerance above b (even inf) acts like b.
        tn, td = min(tolerance, b).as_integer_ratio()
        den = da * db
        stop = lambda r, _: r * td < tn * den
    return _divide(pa * db, pb * da, max_terms, stop)[0]


def pi_estimate(ratio: Fraction) -> float:
    """The pi value implied by a rational estimate of pi/3 (not of pi)."""
    if ratio <= 0:
        raise ValueError("ratio must be > 0")
    return float(3 * ratio)
