import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixradii.contfrac import (
    CFExpansion,
    cf_expand,
    convergent,
    euclid_quotients,
    pi_estimate,
)


def test_pi_over_three_expansion(deadline):
    assert cf_expand(math.pi / 3, 3).quotients == (1, 21, 5)
    # Without max_terms a float expansion ends where a double runs out of
    # resolution, instead of expanding rounding noise forever.
    for x in (math.pi / 3, random.Random(1).uniform(0.01, 100)):
        with deadline(5):
            expansion = cf_expand(x)
        assert not expansion.exact
        assert expansion == cf_expand(x, len(expansion.quotients))
        assert convergent(expansion.quotients).denominator ** 2 <= 2**53
    assert cf_expand(math.pi / 3).quotients[:5] == (1, 21, 5, 3, 97)
    # an explicit max_terms past the resolution limit does not expand noise
    assert cf_expand(math.pi / 3, 60) == cf_expand(math.pi / 3)


def test_integer_input_is_exact():
    expansion = cf_expand(1.0)
    assert expansion.quotients == (1,)
    assert expansion.exact


def test_hand_checkable_rational():
    # 2.75 is 11/4 exactly, so its float expansion ends with a zero remainder
    assert cf_expand(2.75, 5) == CFExpansion((2, 1, 3), True)


def test_small_float_keeps_resolvable_quotients():
    # A float expands the exact binary value it holds. The double nearest 1e-8
    # lies just above 1/100000000, so it expands as [0; 99999999, 1, 477952964,
    # ...] and stops at the double's resolution, which scales with x (~1e-24
    # here), after the 1. The convergent is still 1/100000000. Before floats
    # went through the integer loop, 1/frac(x) rounded to 100000000.0 and the
    # expansion was reported as (0, 100000000), exact. Decimal text, which the
    # CLI parses as a Fraction, still expands exactly.
    assert cf_expand(1e-8, 3) == cf_expand(1e-8) == CFExpansion((0, 99999999, 1), False)
    assert convergent(cf_expand(1e-8).quotients) == Fraction(1, 100000000)
    assert cf_expand(1e-4, 3).quotients == (0, 9999, 1)
    assert cf_expand(Fraction("1e-8")) == CFExpansion((0, 100000000), True)
    # below ~1e-16 the second quotient is past resolution but is still kept,
    # so the convergent stays positive
    assert convergent(cf_expand(3e-17, 3).quotients) > 0


def test_subnormal_float_returns(deadline):
    # x = p/d stays an integer pair, so no reciprocal of a subnormal overflows
    with deadline(5):
        smallest = cf_expand(5e-324)
        tiny = cf_expand(1e-320, None)
    assert smallest == CFExpansion((0, 2**1074), True)
    assert tiny.quotients[0] == 0 and len(tiny.quotients) == 2
    assert convergent(tiny.quotients) > 0


finite_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(x=finite_positive, max_terms=st.one_of(st.none(), st.integers(1, 40)))
@settings(max_examples=300, deadline=None)
def test_float_expansion_is_a_prefix_of_the_exact_one(x, max_terms):
    quotients = cf_expand(x, max_terms).quotients
    assert quotients == cf_expand(Fraction(x)).quotients[: len(quotients)]


@given(a=finite_positive, b=finite_positive)
@settings(max_examples=300, deadline=None)
def test_euclid_on_floats_is_exact(a, b):
    assert euclid_quotients(a, b) == list(cf_expand(Fraction(a) / Fraction(b)).quotients)


def test_exact_fraction_expansion():
    expansion = cf_expand(Fraction(111, 106))
    assert expansion.quotients == (1, 21, 5)
    assert expansion.exact


def test_cf_expand_validation():
    with pytest.raises(ValueError):
        cf_expand(0.0)
    with pytest.raises(ValueError):
        cf_expand(-1.5)
    with pytest.raises(ValueError):
        cf_expand(math.inf)
    with pytest.raises(ValueError):
        cf_expand(math.nan)
    with pytest.raises(ValueError):
        cf_expand(2.0, max_terms=0)
    with pytest.raises(ValueError):
        cf_expand(2.0, tolerance=-0.1)
    with pytest.raises(ValueError):
        cf_expand(Fraction(3, 2), tolerance=math.nan)


def test_fraction_tolerance_is_compared_exactly():
    # 1/10 < float 0.1 (whose binary value is slightly above 1/10), so this stops
    assert cf_expand(Fraction(21, 10), tolerance=0.1) == CFExpansion((2,), False)
    # 1/2 is not below 0.5, so the expansion runs on to a zero remainder
    assert cf_expand(Fraction(7, 2), tolerance=0.5) == CFExpansion((3, 2), True)
    assert cf_expand(Fraction(111, 106), tolerance=math.inf) == CFExpansion((1,), False)
    assert cf_expand(2, tolerance=math.inf) == CFExpansion((2,), True)


def test_convergent_values():
    assert convergent([1, 21, 5]) == Fraction(111, 106)
    assert convergent([1]) == Fraction(1, 1)
    assert convergent([3, 7, 16]) == Fraction(355, 113)


def test_convergent_validation():
    with pytest.raises(ValueError):
        convergent([])
    with pytest.raises(ValueError):
        convergent([2, 0, 3])
    with pytest.raises(ValueError):
        convergent([-1, 2])


def test_euclid_integer_inputs():
    assert euclid_quotients(355, 113) == [3, 7, 16]
    assert euclid_quotients(7 * 13, 13) == [7]


def test_euclid_on_the_measurement_lengths():
    six_r = 2700.0
    piece = 2 * math.pi * 450 - 2700.0
    assert euclid_quotients(six_r, piece, max_terms=2) == [21, 5]


def test_euclid_validation():
    with pytest.raises(ValueError):
        euclid_quotients(0, 5)
    with pytest.raises(ValueError):
        euclid_quotients(5, -1)
    with pytest.raises(ValueError):
        euclid_quotients(5, math.inf)
    with pytest.raises(ValueError):
        euclid_quotients(5, 3, tolerance=math.nan)


def test_euclid_tolerance_stops_early():
    # remainder below the tolerance is treated as measurement noise
    quotients = euclid_quotients(10.2, 2.0, tolerance=0.5)
    assert quotients == [5]
    # every remainder is below b, so a tolerance past b acts like b
    assert euclid_quotients(10.2, 2.0, tolerance=math.inf) == [5]
    assert euclid_quotients(Fraction(21, 2), 2, tolerance=Fraction(1, 2)) == [5, 4]


def test_pi_estimate_convention():
    # takes the ratio estimating pi/3, not pi itself
    assert pi_estimate(Fraction(111, 106)) == pytest.approx(3.141509, abs=5e-7)
    assert pi_estimate(Fraction(1, 1)) == 3.0
    assert pi_estimate(Fraction(333, 106)) == pytest.approx(3 * 333 / 106)
    # correctly rounded even where the denominator has no double
    assert pi_estimate(Fraction(1, 10**320)) == 3e-320
    with pytest.raises(ValueError):
        pi_estimate(Fraction(-1, 2))


def test_roundtrip_small_sweep():
    for q in range(1, 201):
        for p in range(1, 201):
            if math.gcd(p, q) != 1:
                continue
            expansion = cf_expand(Fraction(p, q))
            assert expansion.exact
            assert convergent(expansion.quotients) == Fraction(p, q)
            assert euclid_quotients(p, q) == list(expansion.quotients)


def test_no_trailing_one_from_exact_expansion():
    for q in range(1, 120):
        for p in range(1, 120):
            if math.gcd(p, q) != 1:
                continue
            quotients = cf_expand(Fraction(p, q)).quotients
            if len(quotients) > 1:
                assert quotients[-1] != 1


def test_convergents_alternate_and_bound():
    x = math.pi / 3
    quotients = cf_expand(x, 6).quotients
    values = [convergent(quotients[: k + 1]) for k in range(len(quotients))]
    signs = [1 if float(v) > x else -1 for v in values]
    assert all(a != b for a, b in zip(signs, signs[1:]))
    # |x - h/k| < 1/(k * k_next) for consecutive convergents
    for current, nxt in zip(values, values[1:]):
        bound = 1.0 / (current.denominator * nxt.denominator)
        assert abs(float(current) - x) < bound
