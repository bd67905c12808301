"""Exact coefficient fields: the rationals and prime fields F_p (p < 2**31).

Elements are plain Python values — over the rationals an int when the value
is integral and a Fraction when it is not, over F_p ints in [0, p) — and the
Field object supplies coercion and arithmetic.  Python's numeric tower mixes
ints and Fractions exactly, so catalog objects with integer coefficients are
multiplied, reduced and verified on ints alone.  A sum or product of two
Fractions may be an integral Fraction; it compares, hashes and prints as the
equal int.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

# Most digits the numerator or denominator of a number read from text may
# expand to: Python's default limit on int/str conversion, so every value read
# can be written back.  Numeric text such as "1e30000000" is refused before
# Fraction expands its exponent.
MAX_NUMBER_DIGITS = 4300

# Numeric text with a decimal exponent, as Fraction reads it: the digits of the
# mantissa's integer and decimal parts, then the exponent.
_SCIENTIFIC = re.compile(r"\s*[-+]?(\d[\d_]*|)(?:\.([\d_]*))?[eE]([-+]?[\d_]+)\s*")


def rational(n: int, d: int = 1):
    """The rational n / d (d nonzero): the int n // d when d divides n,
    otherwise the Fraction, so an integral quotient builds no Fraction."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _number(text: str) -> Fraction:
    """Read numeric text, refusing an exponent that would expand it past
    MAX_NUMBER_DIGITS digits."""
    try:
        m = _SCIENTIFIC.fullmatch(text)
        if m and len(m[1]) + len(m[2] or "") + abs(int(m[3])) > MAX_NUMBER_DIGITS:
            raise ParseError(f"number text expands past {MAX_NUMBER_DIGITS} digits: {text[:40]!r}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a field element: {text!r}") from exc


def _is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin on the bases 2, 3, 5, 7: exact for every
    n < 3,215,031,751 (Pomerance, Selfridge and Wagstaff, Math. Comp. 35
    (1980)), which covers every characteristic a Field accepts."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals when char == 0, otherwise the prime field F_char."""

    __slots__ = ("char",)
    zero, one = 0, 1

    def __init__(self, char: int = 0):
        if char and (char >= 2**31 or not _is_prime(char)):
            raise ValueError(f"characteristic must be 0 or a prime < 2^31, got {char}")
        self.char = char

    def of(self, x):
        """Coerce an int, Fraction, or numeric string into the field.  Over Q
        an int passes through unchanged, and a Fraction or text becomes an
        int when it is integral.  ParseError for any other type (a float
        would be truncated or rounded), for text that is not a number or
        whose exponent expands it past MAX_NUMBER_DIGITS digits, and for a
        denominator divisible by the characteristic."""
        if type(x) is int:
            return x % self.char if self.char else x
        if isinstance(x, str):
            x = _number(x)
        elif not isinstance(x, (int, Fraction)):
            raise ParseError(f"not a field element: {type(x).__name__} {x!r}")
        if self.char == 0:
            return rational(x.numerator, x.denominator)
        if isinstance(x, Fraction):
            if x.denominator % self.char == 0:
                raise ParseError(
                    f"denominator {x.denominator} is not invertible mod {self.char}"
                )
            return x.numerator * pow(x.denominator, -1, self.char) % self.char
        return int(x) % self.char

    def add(self, a, b):
        return (a + b) % self.char if self.char else a + b

    def sub(self, a, b):
        return (a - b) % self.char if self.char else a - b

    def mul(self, a, b):
        return (a * b) % self.char if self.char else a * b

    def neg(self, a):
        return -a % self.char if self.char else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("field inverse of zero")
        return pow(a, -1, self.char) if self.char else rational(a.denominator, a.numerator)

    def div(self, a, b):
        if self.char:
            return self.mul(a, self.inv(b))
        return rational(a.numerator * b.denominator, a.denominator * b.numerator)

    def sample(self, rng):
        """Draw a random element: uniform over F_p, and over Q an integer
        uniform in [-2^31, 2^31), so that by Schwartz–Zippel a nonzero
        polynomial of degree d vanishes at a random point of Q^n with
        probability at most d / 2^32."""
        return rng.randrange(self.char) if self.char else rng.randrange(-(2**31), 2**31)

    def __eq__(self, other):
        return isinstance(other, Field) and other.char == self.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"


QQ = Field(0)
