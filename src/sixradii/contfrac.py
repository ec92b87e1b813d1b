"""Continued fractions and Euclid-style quotient extraction.

The measurement's two iteration counts are the first partial quotients of
the continued fraction of pi/3 after the leading 1: pi/3 = [1; 21, 5, ...],
and the convergent [1; 21, 5] is 111/106. These helpers expand reals or
exact rationals, fold quotient lists back into rationals, and run the
division-with-remainder loop directly on a pair of lengths.
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
    zero), in which case the expansion is exact. ``int`` and ``Fraction``
    inputs are expanded in exact arithmetic; floats expand the float value
    itself, so feed a Fraction when exact round-trips matter. A float
    expansion also stops, inexact, before a quotient whose convergent
    denominator q has q**2 > 2**53 / x, past what a double resolves, whatever
    ``max_terms`` is; quotients up to the first nonzero one are always kept.
    """
    if x <= 0:
        raise ValueError("x must be > 0")
    if max_terms is not None and max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if not tolerance >= 0:
        raise ValueError("tolerance must be >= 0")
    if isinstance(x, (int, Fraction)):
        # r/q < tolerance, compared exactly in integers. Every r/q is below 1,
        # so a tolerance above 1 (even inf) acts like 1.
        tn, td = Fraction(min(tolerance, 1)).as_integer_ratio()
        p, q = Fraction(x).as_integer_ratio()
        quotients, exact = _divide(p, q, max_terms, lambda r, b: r * td < tn * b)
        return CFExpansion(tuple(quotients), exact)
    quotients: list[int] = []
    value = float(x)
    exact = False
    q_limit = _FLOAT_RESOLUTION / value  # largest resolvable q**2
    q_prev, q = 1, 0  # convergent denominators k(n-2), k(n-1)
    while max_terms is None or len(quotients) < max_terms:
        a = math.floor(value)
        q_prev, q = q, a * q + q_prev
        if any(quotients) and q * q > q_limit:
            break  # a double cannot resolve this quotient
        quotients.append(int(a))
        remainder = value - a
        if remainder == 0.0 or remainder < tolerance:
            exact = remainder == 0.0
            break
        value = 1.0 / remainder
    return CFExpansion(tuple(quotients), exact)


def _divide(
    a: float | int, b: float | int, max_terms: int | None, stop: Callable
) -> tuple[list[int], bool]:
    """Repeated division with remainder of a by b, Euclid style.

    Integer pairs divide exactly; any float divides in floating point.
    Stops after ``max_terms`` quotients, when a remainder reaches zero
    (reported as True), or when ``stop(remainder, divisor)`` holds.
    """
    exact_arithmetic = isinstance(a, int) and isinstance(b, int)
    quotients: list[int] = []
    while max_terms is None or len(quotients) < max_terms:
        if exact_arithmetic:
            q, r = divmod(a, b)
        else:
            q = math.floor(a / b)
            r = a - q * b
        quotients.append(int(q))
        if r == 0:
            return quotients, True
        if stop(r, b):
            break
        a, b = b, r
    return quotients, False


def canonicalize(quotients: Sequence[int]) -> tuple[int, ...]:
    """Collapse a trailing ``..., n, 1`` into ``..., n + 1`` for comparisons.

    A finite continued fraction has two representations; this picks the one
    without a trailing 1 (the single-term expansion [1] stays as is).
    """
    qs = list(quotients)
    if len(qs) >= 2 and qs[-1] == 1:
        qs = qs[:-2] + [qs[-2] + 1]
    return tuple(qs)


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
    a: float | int,
    b: float | int,
    max_terms: int | None = None,
    tolerance: float = 0.0,
) -> list[int]:
    """Quotients of repeated division-with-remainder of a by b.

    Stops at ``max_terms`` quotients or when the remainder falls below
    ``tolerance`` (always when it reaches zero). The tolerance is compared in
    the same absolute units as the inputs, mirroring a physical measurement
    that discards a leftover too small to mean anything. Integer inputs with
    tolerance 0 run Euclid's algorithm exactly.
    """
    if a <= 0 or b <= 0:
        raise ValueError("both lengths must be > 0")
    if max_terms is not None and max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    return _divide(a, b, max_terms, lambda r, _: r < tolerance)[0]


def pi_estimate(ratio: Fraction) -> float:
    """The pi value implied by a rational estimate of pi/3 (not of pi)."""
    if ratio <= 0:
        raise ValueError("ratio must be > 0")
    return 3.0 * ratio.numerator / ratio.denominator
