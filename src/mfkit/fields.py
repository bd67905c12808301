"""Exact coefficient fields: the rationals and prime fields F_p (p < 2**31).

Elements are plain Python values — Fraction over the rationals, ints in
[0, p) over F_p — and the Field object supplies coercion and arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    q = 2
    while q * q <= n:
        if n % q == 0:
            return False
        q += 1
    return True


class Field:
    """The rationals when char == 0, otherwise the prime field F_char."""

    __slots__ = ("char",)

    def __init__(self, char: int = 0):
        if char and (char >= 2**31 or not _is_prime(char)):
            raise ValueError(f"characteristic must be 0 or a prime < 2^31, got {char}")
        self.char = char

    def of(self, x):
        """Coerce an int, Fraction, or numeric string into the field; text
        that is not a number, or a denominator divisible by the
        characteristic, raises ParseError."""
        if isinstance(x, str):
            try:
                x = Fraction(x)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"not a field element: {x!r}") from exc
        if self.char == 0:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.char == 0:
                raise ParseError(
                    f"denominator {x.denominator} is not invertible mod {self.char}"
                )
            return x.numerator * pow(x.denominator, -1, self.char) % self.char
        return int(x) % self.char

    @property
    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.char == 0 else 1

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
        return pow(a, -1, self.char) if self.char else 1 / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def sample(self, rng):
        """Draw a random element: uniform over F_p, and over Q an integer
        uniform in [-2^31, 2^31), so that by Schwartz–Zippel a nonzero
        polynomial of degree d vanishes at a random point of Q^n with
        probability at most d / 2^32."""
        return rng.randrange(self.char) if self.char else Fraction(rng.randrange(-(2**31), 2**31))

    def __eq__(self, other):
        return isinstance(other, Field) and other.char == self.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"


QQ = Field(0)
