"""Sparse exact linear algebra over Q and F_p.

Vectors are dicts {column index: nonzero coefficient} of field elements.
`RowSpace` is the one eliminator: it keeps its rows in fully reduced echelon
form and stores every entry as a plain int.  A stored row has entries only at
or right of its pivot, so a new pivot left of the smallest stored pivot lies
in no stored row, and `add` then skips back-substitution without looking at
the stored rows.  `row_space` adds a batch largest leading column first, as
F4 does (Faugère–Lachartre, PASCO 2010): every new pivot whose leading entry
survives reduction then takes that skip, and the reduced form being unique,
the order changes nothing else.

- Over F_p the entries lie in [0, p), each pivot is 1, and the arithmetic is
  inline `% p`.
- Over Q an input row is scaled by the lcm of its denominators on entry, and
  elimination is fraction-free: clearing a pivot cross-multiplies the two
  rows (the idea of Bareiss, Math. Comp. 22 (1968)).  Every stored row is
  primitive (its content is 1) with a positive pivot, so it is the reduced
  echelon row times a positive integer.  `Fraction`s are built only where
  `inverse` and `nullspace` hand out field elements.

Because of the scaling, `RowSpace.reduce` returns the reduced vector only up
to a nonzero scalar over Q; its support, and so `contains`, is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm

from .fields import Field


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


class RowSpace:
    """Incrementally built row space in fully reduced echelon form."""

    def __init__(self, field: Field):
        self.field = field
        self.rows: dict[int, dict[int, int]] = {}  # pivot column -> row
        self._least = inf  # smallest stored pivot

    def _ints(self, vec: dict) -> dict:
        """vec as ints: reduced mod p, or over Q times the lcm of its denominators."""
        p = self.field.char
        if p:
            return {j: c % p for j, c in vec.items() if c % p}
        den = lcm(*(c.denominator for c in vec.values()))
        return {j: c.numerator * (den // c.denominator) for j, c in vec.items() if c}

    def reduce(self, vec: dict) -> dict:
        """Fully reduce vec against the stored rows (pure; vec untouched).

        In a fully reduced echelon form, clearing one pivot adds entries only
        at non-pivot columns, so only the pivots already in vec are visited."""
        rows, p = self.rows, self.field.char
        v = self._ints(vec)
        for piv in [j for j in v if j in rows]:
            _eliminate(v, rows[piv], piv, p)
        return v

    def add(self, vec: dict) -> dict | None:
        """Insert vec; return its reduced form if it enlarged the space, else None.

        The new pivot is back-substituted into the stored rows only when it
        lies right of the smallest stored pivot: a stored row has no entry
        left of its own pivot, so otherwise no stored row can contain it."""
        p = self.field.char
        v = self.reduce(vec)
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
        return x % p if p else Fraction(x, self.rows[piv][piv])

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


def row_space(rows: list[dict], field: Field) -> RowSpace:
    """The span of rows, added largest leading column first (empty rows
    dropped), so a new pivot seldom lies in a stored row.  The reduced form
    is unique, so the order changes only the cost; a caller that needs its
    own order calls `add` row by row."""
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
        vec = {j: c for j, c in enumerate(row) if c}
        vec[n + i] = field.one
        space.add(vec)
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
