import math
import random
from fractions import Fraction

import pytest

from sixradii.contfrac import (
    CFExpansion,
    canonicalize,
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
    assert cf_expand(2.75, 3).quotients == (2, 1, 3)


def test_small_float_keeps_resolvable_quotients():
    # the resolution limit scales with x: a double resolves 1e-8 to ~1e-24
    assert cf_expand(1e-8, 3) == cf_expand(1e-8) == CFExpansion((0, 100000000), True)
    assert cf_expand(1e-4, 3).quotients == (0, 10000)
    # below ~1e-16 the second quotient is past resolution but is still kept,
    # so the convergent stays positive
    assert convergent(cf_expand(3e-17, 3).quotients) > 0


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


def test_euclid_tolerance_stops_early():
    # remainder below the tolerance is treated as measurement noise
    quotients = euclid_quotients(10.2, 2.0, tolerance=0.5)
    assert quotients == [5]


def test_pi_estimate_convention():
    # takes the ratio estimating pi/3, not pi itself
    assert pi_estimate(Fraction(111, 106)) == pytest.approx(3.141509, abs=5e-7)
    assert pi_estimate(Fraction(1, 1)) == 3.0
    assert pi_estimate(Fraction(333, 106)) == pytest.approx(3 * 333 / 106)
    with pytest.raises(ValueError):
        pi_estimate(Fraction(-1, 2))


def test_canonicalize_collapses_trailing_one():
    assert canonicalize((1, 21, 4, 1)) == (1, 21, 5)
    assert canonicalize((1,)) == (1,)
    assert canonicalize((2, 1)) == (3,)


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
