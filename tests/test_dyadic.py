"""Exact dyadic arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from omegalab.dyadic import DyadicRational


def test_zero_and_powers():
    assert DyadicRational.zero().fraction == 0
    assert DyadicRational.half_power(3).fraction == Fraction(1, 8)
    assert DyadicRational.half_power(0).fraction == 1


def test_rejects_non_dyadic_denominator():
    with pytest.raises(ValueError):
        DyadicRational(Fraction(1, 3))
    with pytest.raises(ValueError):
        DyadicRational(Fraction(5, 48))


def test_rejects_negative():
    with pytest.raises(ValueError):
        DyadicRational(Fraction(-1, 2))


def test_addition_is_exact_at_extreme_scale():
    # far beyond float resolution: no rounding anywhere
    small = DyadicRational.half_power(200)
    total = DyadicRational.zero()
    for _ in range(2**8):
        total = total + small
    assert total.fraction == Fraction(2**8, 2**200)
    assert (total + DyadicRational.half_power(192)).fraction == Fraction(2, 2**192)


@given(st.integers(min_value=0, max_value=400), st.integers(min_value=0, max_value=400))
def test_difference_of_two_powers_exact(j, k):
    big, small = DyadicRational.half_power(min(j, k)), DyadicRational.half_power(max(j, k))
    difference = big - small
    assert difference.fraction == Fraction(1, 2 ** min(j, k)) - Fraction(1, 2 ** max(j, k))
    assert difference + small == big
    if j != k:
        with pytest.raises(ValueError):
            small - big


def test_comparisons():
    a = DyadicRational.half_power(3)
    b = DyadicRational.half_power(2)
    assert a < b
    assert b > a
    assert a <= a
    assert a == DyadicRational(Fraction(2, 16))
    assert a != b


# Unreduced constructions: numerator n over 2**k, reduced by Fraction.
dyadics = st.builds(
    lambda n, k: (Fraction(n, 2**k), DyadicRational(Fraction(n, 2**k))),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=0, max_value=8),
)


@given(dyadics, dyadics)
@example(
    (Fraction(2, 16), DyadicRational(Fraction(2, 16))),
    (Fraction(1, 8), DyadicRational.half_power(3)),
)
def test_comparisons_and_hash_follow_the_fractions(x, y):
    (f, a), (g, b) = x, y
    assert (a == b, a != b, a < b, a <= b, a > b, a >= b) == (
        f == g, f != g, f < g, f <= g, f > g, f >= g)
    if a == b:
        assert hash(a) == hash(b)
    assert a != f and not a == f
    with pytest.raises(TypeError):
        a < f


def test_truncate_keeps_leading_bits():
    x = DyadicRational(Fraction(0b10110111, 2**8))
    assert x.truncate(4) == DyadicRational(Fraction(0b1011, 2**4))
    assert x.truncate(8) == x
    assert x.truncate(0) == DyadicRational.zero()
    assert x.truncate(12) == x


def test_truncate_is_a_lower_bound():
    x = DyadicRational(Fraction(32397, 2**24))
    for n in range(0, 30):
        assert x.truncate(n) <= x


def test_binary_expansion():
    x = DyadicRational(Fraction(0b1011, 2**4))
    assert x.binary_expansion() == "0.1011"
    assert x.binary_expansion(6) == "0.101100"
    assert x.binary_expansion(2) == "0.10"
    assert DyadicRational.zero().binary_expansion(3) == "0.000"
    assert DyadicRational.half_power(0).binary_expansion(2) == "1.00"
    assert DyadicRational.zero().binary_expansion() == "0."


def test_binary_expansion_rejects_negative_width():
    x = DyadicRational(Fraction(0b1011, 2**4))
    for n in (-1, -2, -5):
        with pytest.raises(ValueError):
            x.binary_expansion(n)


def test_str_forms():
    assert str(DyadicRational.zero()) == "0"
    assert str(DyadicRational.half_power(0)) == "1"
    assert str(DyadicRational(Fraction(3, 8))) == "3/2^3"


def test_exponent_and_numerator():
    x = DyadicRational(Fraction(6, 16))  # reduces to 3/8
    assert x.numerator == 3
    assert x.exponent == 3


@given(st.integers(min_value=0, max_value=400), st.integers(min_value=0, max_value=400))
def test_sum_of_two_powers_exact(j, k):
    total = DyadicRational.half_power(j) + DyadicRational.half_power(k)
    assert total.fraction == Fraction(1, 2**j) + Fraction(1, 2**k)


@given(
    st.lists(st.integers(min_value=1, max_value=64), min_size=0, max_size=40),
    st.integers(min_value=0, max_value=64),
)
def test_truncation_bound_and_expansion_consistency(ks, n):
    total = DyadicRational.zero()
    for k in ks:
        total = total + DyadicRational.half_power(k)
    truncated = total.truncate(n)
    assert truncated <= total
    # the first n digits of the expansion match the truncation's value
    digits = total.binary_expansion(n)
    whole, frac = digits.split(".")
    rebuilt = Fraction(int(whole)) + (
        Fraction(int(frac, 2), 2**n) if n else Fraction(0)
    )
    assert rebuilt == truncated.fraction
