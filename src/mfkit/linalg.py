"""Sparse exact linear algebra over Q and F_p.

Vectors are dicts {column index: nonzero coefficient}.  Everything here is
plain Gaussian elimination kept in fully reduced form, which is all the
Hom-space and isomorphism-search computations need.
"""

from __future__ import annotations

from .fields import Field


class RowSpace:
    """Incrementally built row space in fully reduced echelon form."""

    def __init__(self, field: Field):
        self.field = field
        self.rows: dict[int, dict[int, object]] = {}  # pivot column -> row

    def reduce(self, vec: dict) -> dict:
        """Fully reduce vec against the stored rows (pure; vec untouched)."""
        fld = self.field
        v = dict(vec)
        for piv, row in self.rows.items():
            c = v.get(piv)
            if not c:
                continue
            for j, x in row.items():
                s = fld.sub(v.get(j, fld.zero), fld.mul(c, x))
                if s:
                    v[j] = s
                else:
                    v.pop(j, None)
        return v

    def add(self, vec: dict) -> dict | None:
        """Insert vec; return its reduced form if it enlarged the space, else None."""
        fld = self.field
        v = self.reduce(vec)
        if not v:
            return None
        piv = min(v)
        inv = fld.inv(v[piv])
        v = {j: fld.mul(c, inv) for j, c in v.items()}
        for p, row in self.rows.items():
            c = row.get(piv)
            if not c:
                continue
            for j, x in v.items():
                s = fld.sub(row.get(j, fld.zero), fld.mul(c, x))
                if s:
                    row[j] = s
                else:
                    row.pop(j, None)
        self.rows[piv] = v
        return v

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


def rank(rows: list[dict], field: Field) -> int:
    space = RowSpace(field)
    for r in rows:
        space.add(r)
    return space.rank


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
    return [[space.rows[i].get(n + k, field.zero) for k in range(n)] for i in range(n)]


def nullspace(rows: list[dict], ncols: int, field: Field) -> list[dict]:
    """Basis of {x : row·x = 0 for all rows}, one vector per free column."""
    space = RowSpace(field)
    for r in rows:
        space.add(r)
    pivots = space.rows
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: field.one}
        for piv, row in pivots.items():
            c = row.get(free)
            if c:
                vec[piv] = field.neg(c)
        basis.append(vec)
    return basis
