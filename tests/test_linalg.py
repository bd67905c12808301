"""Sparse exact linear algebra over coefficient fields."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfkit as mk
from mfkit import linalg
from mfkit.fields import Field, QQ
from mfkit.linalg import RowSpace, int_row, inverse, nullspace, row_space
from mfkit.poly import GradedMatrix, PolyRing, graded_inverse, validate_graded_matrix

from fixtures import catalog_objects

FIELDS = st.sampled_from([QQ, Field(7), Field(101)])


def dense_to_rows(mat, field):
    rows = []
    for r in mat:
        row = {j: field.of(v) for j, v in enumerate(r) if field.of(v) != field.zero}
        rows.append(row)
    return rows


def stored(rows, field):
    """Rows of field elements in RowSpace's stored form, each a new dict."""
    return [int_row(r, field) for r in rows]


def mat_vec(rows, vec, field):
    out = []
    for row in rows:
        acc = field.zero
        for j, c in row.items():
            acc = field.add(acc, field.mul(c, vec.get(j, field.zero)))
        out.append(acc)
    return out


def test_rank_and_nullspace_small():
    rows = dense_to_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]], QQ)
    space = row_space(stored(rows, QQ), QQ)
    assert space.rank == 2
    null = nullspace(space, 3)
    assert len(null) == 1
    for row in rows:
        assert all(v == QQ.zero for v in mat_vec([row], null[0], QQ))


def test_nullspace_of_identity_is_trivial():
    rows = dense_to_rows([[1, 0], [0, 1]], Field(7))
    space = row_space(stored(rows, Field(7)), Field(7))
    assert nullspace(space, 2) == []
    assert space.rank == 2


def test_rowspace_membership_and_rank():
    F = Field(101)
    space = RowSpace(F)
    r1 = {0: F.of(1), 1: F.of(2)}
    r2 = {1: F.of(1), 2: F.of(5)}
    assert space.add(int_row(r1, F))
    assert space.add(int_row(r2, F))
    # A linear combination of r1, r2 is already contained.
    combo = {0: F.of(3), 1: F.of(6 + 4), 2: F.of(20)}
    assert space.contains(dict(combo))
    assert space.add(int_row(combo, F)) is None
    assert space.rank == 2
    fresh = {3: F.of(1)}
    assert not space.contains(dict(fresh))
    assert space.add(int_row(fresh, F))
    assert space.rank == 3


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(2, 6))
def test_rank_nullity_theorem(seed, nrows, ncols):
    F = Field(101)
    rng = random.Random(seed)
    dense = [[rng.randrange(101) for _ in range(ncols)] for _ in range(nrows)]
    rows = dense_to_rows(dense, F)
    space = row_space(stored(rows, F), F)
    null = nullspace(space, ncols)
    assert space.rank + len(null) == ncols
    for vec in null:
        assert all(v == F.zero for v in mat_vec(rows, vec, F))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_nullspace_vectors_independent(seed):
    F = Field(101)
    rng = random.Random(seed)
    dense = [[rng.randrange(101) for _ in range(5)] for _ in range(3)]
    rows = dense_to_rows(dense, F)
    null = nullspace(row_space(stored(rows, F), F), 5)
    space = RowSpace(F)
    for vec in null:
        assert space.add(int_row(vec, F))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 5), FIELDS)
def test_inverse_exists_iff_full_rank(seed, n, F):
    rng = random.Random(seed)
    dense = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.3:
        # force a dependent row
        dense[-1] = [a + 2 * b for a, b in zip(dense[0], dense[1])]
    U = [[F.of(v) for v in row] for row in dense]
    inv = inverse(U, F)
    if row_space(stored(dense_to_rows(dense, F), F), F).rank < n:
        assert inv is None
        return
    assert inv is not None
    for i in range(n):
        for k in range(n):
            acc = F.zero
            for j in range(n):
                acc = F.add(acc, F.mul(U[i][j], inv[j][k]))
            assert acc == (F.one if i == k else F.zero)


def random_graded_matrix(ring, tgt, src, rng):
    """Entry (i, j) homogeneous of degree src[j] - tgt[i] with up to two
    terms of small coefficients, zero where that degree is negative."""
    F = ring.field
    entries = []
    for b in tgt:
        row = []
        for a in src:
            monos = ring.monomials_of_degree(a - b)
            picked = rng.sample(monos, min(2, len(monos)))
            row.append(ring.from_terms({e: F.of(rng.randrange(-2, 3)) for e in picked}))
        entries.append(row)
    return GradedMatrix(ring, tgt, src, entries)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.sampled_from([3, 4, 5]), max_size=4), FIELDS)
def test_graded_inverse_is_two_sided_iff_constant_part_invertible(seed, src, F):
    ring = PolyRing(F)
    rng = random.Random(seed)
    tgt = rng.sample(src, len(src)) if rng.random() < 0.8 else [rng.choice([3, 4, 5]) for _ in src]
    mat = random_graded_matrix(ring, tgt, src, rng)
    const = [
        {j: e.constant_value() for j, (a, e) in enumerate(zip(src, row)) if a == b and e.terms}
        for b, row in zip(tgt, mat.entries)
    ]
    inv = graded_inverse(mat)
    if row_space(stored(const, F), F).rank < len(src):
        assert inv is None
        return
    assert inv is not None
    assert inv.target_twists == src and inv.source_twists == tgt
    assert validate_graded_matrix(inv) == []
    assert (mat * inv).same_entries(GradedMatrix.identity(ring, tgt))
    assert (inv * mat).same_entries(GradedMatrix.identity(ring, src))


def test_graded_inverse_of_non_square_matrix_is_none():
    ring = PolyRing(Field(101))
    X, Y, Z = ring.gens()
    assert graded_inverse(GradedMatrix(ring, [3], [3, 4], [[ring.one(), X]])) is None


# ---------------------------------------------------------------------------
# differential test of the integer-row kernel against plain Gauss–Jordan


class FieldRowSpace:
    """Reference eliminator: fully reduced echelon form kept with `Field`
    arithmetic (Fraction over Q), every pivot scaled to 1."""

    def __init__(self, field):
        self.field = field
        self.rows = {}

    def reduce(self, vec):
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

    def add(self, vec):
        fld = self.field
        v = self.reduce(vec)
        if not v:
            return None
        piv = min(v)
        inv = fld.inv(v[piv])
        v = {j: fld.mul(c, inv) for j, c in v.items()}
        for row in self.rows.values():
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


def reference_nullspace(rows, ncols, field):
    space = FieldRowSpace(field)
    for r in rows:
        space.add(r)
    basis = []
    for free in range(ncols):
        if free in space.rows:
            continue
        vec = {free: field.one}
        for piv, row in space.rows.items():
            c = row.get(free)
            if c:
                vec[piv] = field.neg(c)
        basis.append(vec)
    return basis


def reference_inverse(rows, field):
    n = len(rows)
    space = FieldRowSpace(field)
    for i, row in enumerate(rows):
        vec = {j: c for j, c in enumerate(row) if c}
        vec[n + i] = field.one
        space.add(vec)
    if any(p not in space.rows for p in range(n)):
        return None
    return [[space.rows[i].get(n + k, field.zero) for k in range(n)] for i in range(n)]


KERNEL_FIELDS = st.sampled_from([QQ, Field(7), Field(101), Field(2**31 - 1)])


def random_entry(rng, F):
    if F.char:
        return F.of(rng.randrange(1, F.char))
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 1, 2, 3, 4, 7]))


def random_rows(rng, F, nrows, ncols, density):
    """Sparse random rows; some are combinations of earlier ones, so the
    rank is often deficient."""
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(rows, 2)
            ca, cb = random_entry(rng, F), random_entry(rng, F)
            vec = {}
            for j in set(a) | set(b):
                c = F.add(F.mul(ca, a.get(j, F.zero)), F.mul(cb, b.get(j, F.zero)))
                if c:
                    vec[j] = c
        else:
            vec = {j: random_entry(rng, F) for j in range(ncols) if rng.random() < density}
        rows.append(vec)
    return rows


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(0, 9),
    st.integers(1, 9),
    st.sampled_from([0.2, 0.5, 0.9]),
    KERNEL_FIELDS,
)
def test_kernel_matches_field_gauss_jordan(seed, nrows, ncols, density, F):
    rng = random.Random(seed)
    rows = random_rows(rng, F, nrows, ncols, density)

    space, ref = RowSpace(F), FieldRowSpace(F)
    for r in rows:
        assert (space.add(int_row(r, F)) is None) == (ref.add(r) is None)
    assert space.rows.keys() == ref.rows.keys()
    batch = row_space(stored(rows, F), F)
    assert batch.rank == len(ref.rows)
    got = nullspace(space, ncols)
    want = reference_nullspace(rows, ncols, F)
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
    for piv, row in space.rows.items():
        assert all(type(x) is int for x in row.values())
        assert row.keys() == ref.rows[piv].keys()
        assert {j: space.scalar(piv, x) for j, x in row.items()} == ref.rows[piv]
        if F.char == 0:
            assert row[piv] > 0 and gcd(*row.values()) == 1
    probes = random_rows(rng, F, 6, ncols + 1, density)
    probes += [
        {j: F.add(a.get(j, F.zero), b.get(j, F.zero)) for j in set(a) | set(b)}
        for a, b in zip(rows, rows[1:])
    ]
    for vec in probes:
        vec = {j: c for j, c in vec.items() if c}
        assert space.contains(vec) == (not ref.reduce(vec))

    n = min(nrows, ncols)
    square = [[r.get(j, F.zero) for j in range(n)] for r in rows[:n]]
    assert inverse(square, F) == reference_inverse(square, F)

    # the fully reduced form is unique (over Q up to the stored primitive,
    # positive-pivot scaling), so row_space's own insertion order changes only
    # the cost: the same rows, pivot by pivot, and the same kernel vectors
    shuffled = rows[:]
    rng.shuffle(shuffled)
    other = row_space(stored(shuffled, F), F)
    assert batch.rows == other.rows == space.rows
    assert nullspace(batch, ncols) == nullspace(other, ncols) == got


def test_row_space_skips_empty_rows_and_adds_largest_leading_column_first(monkeypatch):
    added = []
    add = RowSpace.add
    # add may reduce the row it keeps in place, so each is recorded as handed over
    monkeypatch.setattr(RowSpace, "add", lambda self, vec: added.append(dict(vec)) or add(self, vec))
    space = row_space([{}, {0: 3, 2: 1}, {2: 1}, {}, {1: 1}, {}], Field(7))
    assert added == [{2: 1}, {1: 1}, {0: 3, 2: 1}]
    assert space.rows == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}


@pytest.mark.parametrize("F", [QQ, Field(101)])
def test_add_back_substitutes_only_a_pivot_right_of_a_stored_pivot(monkeypatch, F):
    # every row add reduces and stores is a Probed dict, since add keeps the
    # row it is handed, and every space is recorded, so the stored rows add
    # looks into and those it eliminates into are both seen
    looked, cleared, spaces = [], [], []

    class Probed(dict):
        def __contains__(self, j):
            looked.append(j)
            return dict.__contains__(self, j)

    init, add, eliminate = RowSpace.__init__, RowSpace.add, linalg._eliminate

    def counted(v, row, piv, p):
        if any(v is r for s in spaces for r in s.rows.values()):
            cleared.append(piv)
        eliminate(v, row, piv, p)

    monkeypatch.setattr(RowSpace, "__init__", lambda self, field: spaces.append(self) or init(self, field))
    monkeypatch.setattr(RowSpace, "add", lambda self, row: add(self, Probed(row)))
    monkeypatch.setattr(linalg, "_eliminate", counted)

    def as_field(space):
        return {q: {j: space.scalar(q, x) for j, x in row.items()} for q, row in space.rows.items()}

    # distinct leading columns, added largest first: every leading entry
    # survives reduction, so no stored row can hold the new pivot
    rng = random.Random(5)
    batch = [{i: random_entry(rng, F), **{j: random_entry(rng, F) for j in range(i + 1, 8) if rng.random() < 0.6}}
             for i in range(6)]
    space, ref = row_space(stored(batch, F), F), FieldRowSpace(F)
    for r in sorted(batch, key=lambda r: -min(r)):
        ref.add(r)
    assert space.rank == 6
    assert all(type(row) is Probed for row in space.rows.values())
    assert looked == [] and cleared == []
    assert as_field(space) == ref.rows

    # pivot 1 lands right of the stored pivot 0, whose row holds column 1
    space, ref = RowSpace(F), FieldRowSpace(F)
    for r in ({0: F.one, 1: F.one, 2: F.one}, {1: F.one, 2: F.of(2)}):
        space.add(int_row(r, F))
        ref.add(r)
    assert all(type(row) is Probed for row in space.rows.values())
    assert cleared == [1]
    assert as_field(space) == ref.rows == {0: {0: F.one, 2: F.neg(F.one)}, 1: {1: F.one, 2: F.of(2)}}


def test_add_keeps_a_fraction_row_converted_once():
    # int_row turns a row of Fractions into stored form, leaving it as it
    # was; add keeps the very dict it is handed, and the rows match the
    # field reference; the third row is half the sum of the first two
    rows = [
        {0: Fraction(1, 2), 2: Fraction(-3, 4)},
        {1: Fraction(2, 3), 2: Fraction(5, 6)},
        {0: Fraction(1, 4), 1: Fraction(1, 3), 2: Fraction(1, 24)},
    ]
    assert int_row(rows[0], QQ) == {0: 2, 2: -3}
    space, ref = RowSpace(QQ), FieldRowSpace(QQ)
    for r in rows:
        before = dict(r)
        row = int_row(r, QQ)
        assert r == before and all(type(x) is int for x in row.values())
        kept = space.add(row)
        assert (kept is None) == (ref.add(r) is None)
        assert kept is None or space.rows[min(kept)] is kept is row
    assert space.rank == 2
    assert {q: {j: space.scalar(q, x) for j, x in row.items()} for q, row in space.rows.items()} == ref.rows
    probe = {0: Fraction(1, 2), 1: Fraction(2, 3), 2: Fraction(1, 12)}
    before = dict(probe)
    assert space.contains(probe) and probe == before


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([0, 101]),
    st.sampled_from(mk.CATALOG_KINDS),
    st.sampled_from(mk.CATALOG_KINDS),
    st.integers(-1, 1),
)
def test_every_caller_hands_add_stored_rows(char, kind_m, kind_n, shift):
    # Hom spaces, their representatives, null-homotopy tests, the iso search
    # (graded_inverse) and Groebner syzygies: every row add sees is nonzero
    # plain ints, in [0, p) over GF(p)
    curve, objs = catalog_objects(char, 0, "1/2")
    M, N = mk.shift_mf(objs[kind_m], shift), objs[kind_n]
    seen = []
    add = RowSpace.add

    def checked(self, row):
        p = self.field.char
        assert all(type(x) is int and x and (not p or x < p) for x in row.values()), row
        seen.append(row)
        return add(self, row)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RowSpace, "add", checked)
        H = mk.hom_space(M, N)
        for phi in H.basis:
            assert not mk.is_null_homotopic(phi)
        assert mk.is_null_homotopic(mk.zero_morphism(M, N))
        assert mk.is_stably_isomorphic(M, M, samples=2).status == "yes"
        mk.syzygy_basis(M.alpha, f=curve.f)
    assert seen


# ---------------------------------------------------------------------------
# oracle: sympy's nullspace (test-only dependency)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 7), st.integers(1, 8), st.sampled_from([0.3, 0.6]), st.sampled_from([QQ, Field(101)]))
def test_nullspace_matches_sympy(seed, nrows, ncols, density, F):
    # each returns one vector per free column, in column order, with that column
    # set to 1 (DomainMatrix only with divide_last) and the other free columns 0,
    # so the vectors themselves agree, not only their spans
    sympy = pytest.importorskip("sympy")
    rows = random_rows(random.Random(seed), F, nrows, ncols, density)
    dense = [[r.get(j, F.zero) for j in range(ncols)] for r in rows]
    ours = [[v.get(j, F.zero) for j in range(ncols)] for v in nullspace(row_space(stored(rows, F), F), ncols)]
    if F.char:
        from sympy.polys.matrices import DomainMatrix

        K = sympy.GF(F.char)
        kernel = DomainMatrix([[K(x) for x in r] for r in dense], (nrows, ncols), K).nullspace(divide_last=True)
        theirs = [[int(x) % F.char for x in v] for v in kernel.to_list()]
    else:
        kernel = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in dense]).nullspace()
        theirs = [[Fraction(int(x.p), int(x.q)) for x in v] for v in kernel]
    assert ours == theirs
