"""Sparse exact linear algebra over Q and F_p.

Vectors are dicts {column index: nonzero coefficient}; a column index is
any int, and columns are ordered as ints.  `RowSpace` is the one
eliminator: it keeps its rows in fully reduced echelon form and works on
rows in stored form, whose entries are nonzero plain ints:

- over F_p they lie in [0, p), each stored pivot is 1, and the arithmetic is
  inline `% p`;
- over Q a row may be any nonzero multiple of the field row, and
  elimination is fraction-free: clearing a pivot cross-multiplies the two
  rows (the idea of Bareiss, Math. Comp. 22 (1968)).  Every stored row is
  primitive (its content is 1) with a positive pivot, so it is the reduced
  echelon row times a positive integer.

`RowSpace.add` and `row_space` take rows in stored form, and `add` keeps the
row it is given and may change it, so a caller hands over a row it does not
use again.  Field elements become stored form in one place, `int_row`
(reduced mod p, or over Q scaled by the lcm of the denominators).  Callers
that hold field elements convert through it, and so do `reduce` and
`contains`, which take field elements and leave them untouched.  Rows born
as ints skip it: the Hom systems (`homs._images`), and the Gröbner
basis rows, which a pass keeps as stored here and shifts (`groebner`).
Field elements come back out only where `inverse` and `nullspace` hand them
out, through `RowSpace.scalar`: over Q the quotient of an entry by its
pivot, an int when the pivot divides it and a `Fraction` only otherwise
(`fields.rational`).

A stored row has entries only at or right of its pivot, so a new pivot left
of the smallest stored pivot lies in no stored row, and `add` then skips
back-substitution without looking at the stored rows.  `row_space` adds a
batch largest leading column first, as F4 does (Faugère–Lachartre, PASCO
2010): every new pivot whose leading entry survives reduction then takes
that skip, and the reduced form being unique, the order changes nothing
else.

Because of the scaling, `RowSpace.reduce` returns the reduced vector only up
to a nonzero scalar over Q; its support, and so `contains`, is exact.
"""

from __future__ import annotations

from math import gcd, inf, lcm

from .fields import Field, rational


def _eliminate(v: dict, row: dict, piv: int, p: int) -> None:
    """Clear v[piv] in place with the stored row whose pivot is piv:
    v ← v − v[piv]·row over F_p, and over Q v ← a·v − c·row, where a/c is
    row[piv]/v[piv] in lowest terms."""
    c = v[piv]
    if p:
        for j, x in row.items():
            s = (v.get(j, 0) - c * x) % p
            if s:
                v[j] = s
            else:
                del v[j]
        return
    a = row[piv]
    g = gcd(a, c)
    a //= g
    c //= g
    if a != 1:
        for j in v:
            v[j] *= a
    for j, x in row.items():
        s = v.get(j, 0) - c * x
        if s:
            v[j] = s
        else:
            del v[j]


def _normalise(v: dict, piv: int, p: int) -> None:
    """Scale v in place to stored form: pivot 1 over F_p; primitive with a
    positive pivot over Q."""
    if p:
        inv = pow(v[piv], -1, p)
        for j in v:
            v[j] = v[j] * inv % p
        return
    g = gcd(*v.values())
    if v[piv] < 0:
        g = -g
    if g != 1:
        for j in v:
            v[j] //= g


def int_row(vec: dict, field: Field) -> dict:
    """A new row in stored form from vec, a dict of field elements: reduced
    mod p, or over Q times the lcm of its denominators."""
    p = field.char
    if p:
        return {j: c % p for j, c in vec.items() if c % p}
    den = lcm(*(c.denominator for c in vec.values()))
    return {j: c.numerator * (den // c.denominator) for j, c in vec.items() if c}


class RowSpace:
    """Incrementally built row space in fully reduced echelon form."""

    def __init__(self, field: Field):
        self.field = field
        self.rows: dict[int, dict[int, int]] = {}  # pivot column -> row
        self._least = inf  # smallest stored pivot

    def _clear(self, v: dict) -> dict:
        """Fully reduce the stored-form row v in place against the stored rows.

        In a fully reduced echelon form, clearing one pivot adds entries only
        at non-pivot columns, so only the pivots already in v are visited."""
        rows, p = self.rows, self.field.char
        for piv in [j for j in v if j in rows]:
            _eliminate(v, rows[piv], piv, p)
        return v

    def reduce(self, vec: dict) -> dict:
        """vec, a dict of field elements, fully reduced against the stored
        rows, in stored form; vec is untouched."""
        return self._clear(int_row(vec, self.field))

    def add(self, row: dict) -> dict | None:
        """Insert row, in stored form, which is reduced in place and kept;
        return it if it enlarged the space, else None.

        The new pivot is back-substituted into the stored rows only when it
        lies right of the smallest stored pivot: a stored row has no entry
        left of its own pivot, so otherwise no stored row can contain it."""
        p = self.field.char
        v = self._clear(row)
        if not v:
            return None
        piv = min(v)
        _normalise(v, piv, p)
        if piv < self._least:
            self._least = piv
        else:
            for q, row in self.rows.items():
                if piv in row:
                    _eliminate(row, v, piv, p)
                    if not p:
                        _normalise(row, q, p)
        self.rows[piv] = v
        return v

    def scalar(self, piv: int, x: int):
        """The field element x / (pivot entry of the row at piv)."""
        p = self.field.char
        return x % p if p else rational(x, self.rows[piv][piv])

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


def row_space(rows: list[dict], field: Field) -> RowSpace:
    """The span of rows in stored form, which it keeps, added largest
    leading column first (empty rows dropped), so a new pivot seldom lies in
    a stored row.  The reduced form is unique, so the order changes only the
    cost; a caller that needs its own order calls `add` row by row."""
    space = RowSpace(field)
    for r in sorted(filter(None, rows), key=lambda r: -min(r)):
        space.add(r)
    return space


def inverse(rows: list[list], field: Field) -> list[list] | None:
    """Inverse of a square matrix of field scalars, or None if it is singular.

    The rows of [U | I] span a space of rank n whose reduced echelon form is
    [I | U^-1] exactly when its pivots are the columns 0..n-1.
    """
    n = len(rows)
    space = RowSpace(field)
    for i, row in enumerate(rows):
        vec = dict(enumerate(row))
        vec[n + i] = field.one
        space.add(int_row(vec, field))
    if any(p not in space.rows for p in range(n)):
        return None
    return [[space.scalar(i, space.rows[i].get(n + k, 0)) for k in range(n)] for i in range(n)]


def nullspace(space: RowSpace, ncols: int) -> list[dict]:
    """Basis of the vectors x in ncols coordinates with row·x = 0 for every
    row of space, one vector per free column, each keyed by its free column
    and then by the pivots in insertion order (mostly descending for a
    `row_space`).  Built in one transposed pass over the pivot rows."""
    one = space.field.one
    basis = {free: {free: one} for free in range(ncols) if free not in space.rows}
    for piv, row in space.rows.items():
        for j, x in row.items():
            vec = basis.get(j)
            if vec is not None:
                vec[piv] = space.scalar(piv, -x)
    return list(basis.values())
