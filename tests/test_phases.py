"""Exact turn-fraction arithmetic."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ghzcert import PhaseParseError, RationalPhase, ZERO_PHASE

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=1000
)


def test_addition_examples():
    third = RationalPhase(1, 3)
    assert third + third == RationalPhase(2, 3)
    assert RationalPhase(2, 3) + RationalPhase(2, 3) == RationalPhase(1, 3)
    assert RationalPhase(1, 2) + RationalPhase(1, 2) == ZERO_PHASE


def test_scaling_examples():
    assert RationalPhase(1, 9) * 3 == RationalPhase(1, 3)
    assert RationalPhase(1, 9) * -1 == RationalPhase(8, 9)
    assert RationalPhase(1, 25) * 5 == RationalPhase(1, 5)
    with pytest.raises(TypeError):  # only whole multiples are angles
        RationalPhase(1, 9) * 0.5


def test_is_multiple_of_unit_examples():
    assert RationalPhase(2, 3).is_multiple_of_unit(3)
    assert not RationalPhase(1, 9).is_multiple_of_unit(3)
    assert ZERO_PHASE.is_multiple_of_unit(5)
    with pytest.raises(ValueError, match="d must be at least 2"):
        RationalPhase(1, 3).is_multiple_of_unit(1)


def test_to_complex_examples():
    assert ZERO_PHASE.to_complex() == pytest.approx(1 + 0j)
    assert RationalPhase(1, 2).to_complex() == pytest.approx(-1 + 0j)
    assert RationalPhase(1, 4).to_complex() == pytest.approx(1j)


def test_normalization():
    assert RationalPhase(4, 6) == RationalPhase(2, 3)
    assert RationalPhase(-1, 3) == RationalPhase(2, 3)
    assert RationalPhase(7, 3) == RationalPhase(1, 3)
    assert RationalPhase(3, -9) == RationalPhase(2, 3)
    with pytest.raises(ValueError):
        RationalPhase(1, 0)


@given(rationals, rationals)
def test_addition_commutes(x, y):
    a, b = RationalPhase.from_fraction(x), RationalPhase.from_fraction(y)
    assert a + b == b + a
    assert a + ZERO_PHASE == a


@given(rationals, st.integers(min_value=0, max_value=12))
def test_scaling_is_repeated_addition(x, k):
    a = RationalPhase.from_fraction(x)
    total = ZERO_PHASE
    for _ in range(k):
        total = total + a
    assert a * k == total


@given(rationals)
def test_normalization_idempotent(x):
    once = RationalPhase.from_fraction(x)
    assert RationalPhase(once.num, once.den) == once
    assert 0 <= once.num < once.den or (once.num, once.den) == (0, 1)


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=-30, max_value=30))
def test_unit_multiples_stay_on_grid(d, k):
    assert (RationalPhase(1, d) * k).is_multiple_of_unit(d)


@given(rationals)
def test_to_complex_matches_exponential(x):
    a = RationalPhase.from_fraction(x)
    expected = cmath.exp(2j * cmath.pi * float(a.as_fraction()))
    assert a.to_complex() == pytest.approx(expected, abs=1e-12)


def test_parse_round_trip():
    for text in ["0/1", "1/9", "7/9", "1/2", "24/25"]:
        assert str(RationalPhase.parse(text)) == text


@pytest.mark.parametrize(
    "bad",
    [
        "2/18", "5/3", "-1/3", "1/1", "0/3", "1/0", "1", "x", "1/ 3", "1/3 ",
        "01/3", "1/03", "1/3\n", "\u0661/\u0663",  # the last is Arabic-Indic 1/3
    ],
)
def test_parse_rejects_non_canonical(bad):
    with pytest.raises(PhaseParseError):
        RationalPhase.parse(bad)


def test_signed_fraction_mixing():
    # signed rationals are accepted on either side of +/-
    assert RationalPhase(1, 9) + Fraction(-1, 9) == ZERO_PHASE
    assert RationalPhase(1, 9) - Fraction(1, 9) == ZERO_PHASE
    assert Fraction(1, 2) - RationalPhase(1, 3) == RationalPhase(1, 6)
    assert 0 + RationalPhase(1, 9) == RationalPhase(1, 9)
