"""Exact coefficient arithmetic over the rationals and prime fields."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfkit as mk
from mfkit.fields import Field, QQ, _is_prime, rational

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


@pytest.mark.parametrize("field", [QQ, Field(101)])
@pytest.mark.parametrize("bad", [0.5, 1.5, 0.1, 2.0, None, [1], 1j])
def test_floats_and_other_types_are_parse_errors(field, bad):
    # a float used to be truncated over F_p (0.5 -> 0) and taken at its
    # binary value over Q (0.1 -> 3602879701896397/36028797018963968)
    with pytest.raises(mk.ParseError):
        field.of(bad)
    R = mk.PolyRing(field)
    with pytest.raises(mk.ParseError):
        R.const(bad)
    with pytest.raises(mk.ParseError):
        R.var("X").scale(bad)


@pytest.mark.parametrize("field", [QQ, Field(101)])
@pytest.mark.parametrize("text", ["1e5000", "1e-5000", "-1.5E+30000000", "12e4299", "1_0e9_999"])
def test_number_text_that_expands_past_the_digit_limit_is_a_parse_error(field, text):
    with pytest.raises(mk.ParseError, match="expands past"):
        field.of(text)


def test_number_text_within_the_digit_limit_is_read():
    assert QQ.of("1e4299") == 10**4299
    assert QQ.of("2.5e-3") == Fraction(1, 400)
    assert Field(101).of("1e3") == 1000 % 101


def test_integral_rationals_are_ints():
    assert type(QQ.inv(Fraction(-1))) is int and QQ.inv(Fraction(-1)) == -1
    assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
    assert type(QQ.of("4/2")) is int and QQ.of("4/2") == 2
    assert type(QQ.of(Fraction(6, 3))) is int and type(QQ.of(7)) is int
    assert type(QQ.div(6, -3)) is int and QQ.div(6, -3) == -2
    assert QQ.div(3, -2) == Fraction(-3, 2) and QQ.div(Fraction(1, 2), Fraction(1, 4)) == 2
    assert QQ.zero == 0 and type(QQ.zero) is int and type(QQ.one) is int
    assert QQ.of("2/3") == Fraction(2, 3) and type(QQ.inv(2)) is Fraction
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50).filter(bool))
def test_rational_is_an_int_exactly_when_integral(n, d):
    q = rational(n, d)
    assert q == Fraction(n, d)
    assert type(q) is (int if n % d == 0 else Fraction)


def test_composite_characteristic_rejected():
    for bad in (4, 6, 9, 100):
        with pytest.raises(ValueError):
            Field(bad)
    with pytest.raises(ValueError):
        Field(-3)


def trial_division_is_prime(n):
    if n < 2:
        return False
    q = 2
    while q * q <= n:
        if n % q == 0:
            return False
        q += 1
    return True


def test_primality_agrees_with_trial_division():
    # every n below 20,000; the strong pseudoprimes to base 2 (2047), to
    # bases 2 and 3 (1373653) and to bases 2, 3 and 5 (25326001); and the
    # largest prime below 2^31, the next prime down and a composite between
    extra = [2047, 1373653, 25326001, 2147483647, 2147483629, 2147483645]
    for n in [*range(-3, 20_000), *extra]:
        assert _is_prime(n) == trial_division_is_prime(n), n
    assert [_is_prime(n) for n in extra] == [False, False, False, True, True, False]
    assert Field(2**31 - 1).char == 2**31 - 1
    for bad in (2047, 1373653, 25326001, 2147483645):
        with pytest.raises(ValueError):
            Field(bad)


def test_sample_is_deterministic_and_in_range():
    F101 = Field(101)
    a = [F101.sample(random.Random(7)) for _ in range(10)]
    b = [F101.sample(random.Random(7)) for _ in range(10)]
    assert a == b
    assert all(0 <= x < 101 for x in a)
    q = [QQ.sample(random.Random(i)) for i in range(50)]
    assert all(x.denominator == 1 and -(2**31) <= x < 2**31 for x in q)


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
