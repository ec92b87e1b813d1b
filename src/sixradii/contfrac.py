"""Continued fractions and Euclid-style quotient extraction.

The measurement's two iteration counts are the first partial quotients of
the continued fraction of pi/3 after the leading 1: pi/3 = [1; 21, 5, ...],
and the convergent [1; 21, 5] is 111/106. Every input, float or exact, is
first written as an exact pair of integers; one integer division loop then
expands it, and the same loop runs directly on a pair of lengths. Nothing is
divided in floating point.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from numbers import Rational, Real
from typing import Callable, Iterable, NamedTuple


# A double resolves a real x only to about x / 2**53, and a convergent p/q is
# within 1/q**2 of it, so a quotient giving q**2 * x above this is rounding noise.
_FLOAT_RESOLUTION = 2**53
# cf_expand's usual input types, tested before the slower abstract number types
_PLAIN = frozenset((Fraction, float, int))


class CFExpansion(NamedTuple):
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
    Any other binary float, such as numpy's float32, is a ValueError.
    """
    if type(x) not in _PLAIN and isinstance(x, Real) and not isinstance(x, (float, Rational)):
        raise ValueError(f"x must be a double or an exact rational, not {type(x).__name__}")
    p, d = _positive_ratio(x, "x")
    if max_terms is not None and max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if not tolerance >= 0:
        raise ValueError("tolerance must be >= 0")
    stop = None
    if tolerance:
        # r/b < tolerance, compared exactly in integers. Every r/b is below 1,
        # so a tolerance above 1 (even inf) acts like 1.
        tn, td = _positive_ratio(min(tolerance, 1), "tolerance")
        stop = lambda r, b: r * td < tn * b
    # isinstance, not a type test: numpy.float64 is a double too
    quotients, exact = _divide(p, d, max_terms, stop, isinstance(x, float))
    return CFExpansion(tuple(quotients), exact)


def _positive_ratio(x: float | int | Fraction, name: str) -> tuple[int, int]:
    """The exact value of x > 0 as a pair of integers (p, d), d > 0.

    Integer types without ``as_integer_ratio``, such as numpy's, are the
    integers ``operator.index`` gives. Anything not finite and above zero is
    a ValueError naming ``name``.
    """
    try:
        p, d = x.as_integer_ratio()
    except AttributeError:
        p, d = operator.index(x), 1
    except (OverflowError, ValueError):  # inf and nan have no ratio
        p, d = 0, 1
    if p <= 0:
        raise ValueError(f"{name} must be > 0 and finite")
    return p, d


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
        q = a // b
        r = a - q * b
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


def convergent(quotients: Iterable[int]) -> Fraction:
    """Fold a quotient list into a reduced rational."""
    terms = iter(quotients)
    try:
        h = next(terms)
    except StopIteration:
        raise ValueError("quotient list must be non-empty") from None
    if h < 0:
        raise ValueError("leading quotient must be >= 0")
    h_prev, k_prev, k = 1, 0, 1
    for a in terms:
        if a < 1:
            raise ValueError("quotients after the first must be >= 1")
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
    pa, da = _positive_ratio(a, "both lengths")
    pb, db = _positive_ratio(b, "both lengths")
    if max_terms is not None and max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if not tolerance >= 0:
        raise ValueError("tolerance must be >= 0")
    stop = None
    if tolerance:
        # r / (da * db) < tolerance, compared exactly in integers. Every
        # remainder is below b, so a tolerance above b (even inf) acts like b.
        tn, td = _positive_ratio(min(tolerance, b), "tolerance")
        den = da * db
        stop = lambda r, _: r * td < tn * den
    return _divide(pa * db, pb * da, max_terms, stop)[0]


def pi_estimate(ratio: Fraction) -> float:
    """The pi value implied by a rational estimate of pi/3 (not of pi)."""
    if ratio <= 0:
        raise ValueError("ratio must be > 0")
    return float(3 * ratio)
