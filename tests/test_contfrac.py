import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import reference
from hypothesis import example, given, settings
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


@given(x=finite_positive, max_terms=st.one_of(st.none(), st.integers(1, 40)))
@example(x=5e-324, max_terms=None)
@example(x=1e-320, max_terms=None)
@example(x=math.pi / 3, max_terms=None)
@example(x=1e-8, max_terms=None)
@example(x=math.sqrt(29), max_terms=None)  # a bound of 2**52 or 2**54 stops it elsewhere
@settings(max_examples=300, deadline=None)
def test_float_expansion_stops_where_the_reference_resolution_rule_does(x, max_terms):
    quotients, exact = reference.cf_expand(x, max_terms)
    assert cf_expand(x, max_terms) == CFExpansion(tuple(quotients), exact)


@given(a=finite_positive, b=finite_positive)
@settings(max_examples=300, deadline=None)
def test_euclid_on_floats_is_exact(a, b):
    assert euclid_quotients(a, b) == list(cf_expand(Fraction(a) / Fraction(b)).quotients)


positive_exact = st.one_of(
    st.integers(1, 10**30),
    st.fractions(min_value=0, max_denominator=10**12).filter(lambda x: x > 0),
)
max_terms_or_none = st.one_of(st.none(), st.integers(1, 12))
tolerances = st.one_of(
    st.just(0), st.fractions(0, 3, max_denominator=10**6), st.floats(0, 3), st.just(math.inf))


@given(x=positive_exact, max_terms=max_terms_or_none, tolerance=tolerances)
@settings(max_examples=400, deadline=None)
def test_exact_expansion_matches_the_fraction_reference(x, max_terms, tolerance):
    quotients, exact = reference.cf_expand(x, max_terms, tolerance)
    assert cf_expand(x, max_terms, tolerance) == CFExpansion(tuple(quotients), exact)
    assert convergent(iter(quotients)) == convergent(quotients)
    if exact:
        assert convergent(quotients) == x


@given(a=positive_exact, b=positive_exact, max_terms=max_terms_or_none, tolerance=tolerances)
@settings(max_examples=400, deadline=None)
def test_euclid_matches_the_fraction_reference(a, b, max_terms, tolerance):
    assert euclid_quotients(a, b, max_terms, tolerance) == reference.euclid_quotients(
        a, b, max_terms, tolerance)


@given(quotients=st.lists(st.integers(1, 10**6), max_size=30), first=st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_convergent_matches_the_backward_fold(quotients, first):
    assert convergent([first, *quotients]) == reference.convergent([first, *quotients])


@pytest.mark.parametrize("int_type", [np.int64, np.int32, np.uint16])
def test_numpy_integers_are_the_integers_they_hold(int_type):
    assert cf_expand(int_type(7)) == cf_expand(7)
    assert cf_expand(Fraction(7, 3), tolerance=int_type(1)) == CFExpansion((2,), False)
    assert euclid_quotients(int_type(355), 113) == euclid_quotients(355, 113) == [3, 7, 16]
    assert euclid_quotients(355, int_type(113)) == [3, 7, 16]
    assert euclid_quotients(Fraction(21, 2), 2, tolerance=int_type(5)) == [5]
    with pytest.raises(ValueError):
        cf_expand(int_type(0))


def test_a_numpy_double_keeps_the_resolution_stop(deadline):
    # numpy.float64 subclasses float, so it too stops where a double's
    # resolution runs out instead of expanding its exact binary value
    with deadline(5):
        assert cf_expand(np.float64(math.pi / 3)) == cf_expand(math.pi / 3)
    assert not cf_expand(np.float64(math.pi / 3)).exact


@pytest.mark.parametrize("float_type", [np.float32, np.float16, np.longdouble])
def test_a_float_other_than_a_double_is_rejected(float_type):
    # its exact value is not the double's, and the double's resolution stop
    # does not fit it: float32(pi/3) would expand exactly as [1; 21, 5, 3, 145, ...]
    with pytest.raises(ValueError, match=f"x must be .*{float_type.__name__}"):
        cf_expand(float_type(math.pi / 3))
    assert cf_expand(Decimal("2.75")) == CFExpansion((2, 1, 3), True)


def test_exact_fraction_expansion():
    expansion = cf_expand(Fraction(111, 106))
    assert expansion.quotients == (1, 21, 5)
    assert expansion.exact


def test_an_expansion_is_an_immutable_hashable_record():
    expansion = cf_expand(Fraction(111, 106))
    assert repr(expansion) == "CFExpansion(quotients=(1, 21, 5), exact=True)"
    assert (expansion.quotients, expansion.exact) == ((1, 21, 5), True)
    with pytest.raises(AttributeError):
        expansion.exact = False
    assert expansion == cf_expand(Fraction(111, 106)) == CFExpansion((1, 21, 5), True)
    assert hash(expansion) == hash(cf_expand(Fraction(111, 106)))


def test_cf_expand_validation():
    for x in (0.0, 0, Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            cf_expand(x)
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
    # any iterable, a one-shot iterator included, is checked the same way
    for quotients in ([], iter([]), [2, 0, 3], (x for x in [2, 0, 3]), [-1, 2], iter([-1, 2])):
        with pytest.raises(ValueError):
            convergent(quotients)


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
