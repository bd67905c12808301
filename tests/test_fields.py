"""Exact coefficient arithmetic over the rationals and prime fields."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfkit as mk
from mfkit.fields import Field, QQ

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=30
)


def test_rational_field_basics():
    assert QQ.char == 0
    assert QQ.zero == Fraction(0)
    assert QQ.one == Fraction(1)
    assert QQ.of("2/3") == Fraction(2, 3)
    assert QQ.of(-4) == Fraction(-4)
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert QQ.inv(Fraction(-5, 7)) == Fraction(-7, 5)
    assert QQ.div(Fraction(1), Fraction(8)) == Fraction(1, 8)


def test_prime_field_basics():
    F7 = Field(7)
    assert F7.char == 7
    assert F7.of(-3) == 4
    assert F7.of("10") == 3
    assert F7.add(5, 4) == 2
    assert F7.mul(3, 5) == 1
    assert F7.inv(3) == 5
    assert F7.neg(0) == 0
    assert F7.sub(2, 5) == 4


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        Field(5).div(3, 0)


def test_bad_text_and_noninvertible_denominators_are_parse_errors():
    for bad in ("abc", "1/0", ""):
        with pytest.raises(mk.ParseError):
            QQ.of(bad)
    with pytest.raises(mk.ParseError):
        Field(101).of("1/101")
    with pytest.raises(mk.ParseError):
        Field(5).of(Fraction(2, 15))


def test_composite_characteristic_rejected():
    for bad in (4, 6, 9, 100):
        with pytest.raises(ValueError):
            Field(bad)
    with pytest.raises(ValueError):
        Field(-3)


def test_sample_is_deterministic_and_in_range():
    F101 = Field(101)
    a = [F101.sample(random.Random(7)) for _ in range(10)]
    b = [F101.sample(random.Random(7)) for _ in range(10)]
    assert a == b
    assert all(0 <= x < 101 for x in a)
    nz = [F101.sample(random.Random(i), nonzero=True) for i in range(50)]
    assert all(x != 0 for x in nz)


@settings(max_examples=50, deadline=None)
@given(rationals, rationals, rationals)
def test_rational_field_axioms(x, y, z):
    assert QQ.add(QQ.add(x, y), z) == QQ.add(x, QQ.add(y, z))
    assert QQ.mul(QQ.mul(x, y), z) == QQ.mul(x, QQ.mul(y, z))
    assert QQ.mul(x, QQ.add(y, z)) == QQ.add(QQ.mul(x, y), QQ.mul(x, z))
    assert QQ.add(x, QQ.neg(x)) == QQ.zero
    if x != 0:
        assert QQ.mul(x, QQ.inv(x)) == QQ.one


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100), st.integers(0, 100))
def test_prime_field_inverse_identity(a, b):
    F101 = Field(101)
    x, y = F101.of(a), F101.of(b)
    assert F101.sub(F101.add(x, y), y) == x
    if y != 0:
        assert F101.mul(F101.div(x, y), y) == x


def test_field_equality_and_name():
    assert Field(0) == QQ
    assert Field(101) == Field(101)
    assert Field(101) != Field(103)
    assert mk.parse_field_token("QQ") == QQ
    assert mk.parse_field_token("F101") == Field(101)
