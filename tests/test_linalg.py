"""Sparse exact linear algebra over coefficient fields."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from mfkit.fields import Field, QQ
from mfkit.linalg import RowSpace, inverse, nullspace, rank
from mfkit.poly import GradedMatrix, PolyRing, graded_inverse, validate_graded_matrix

FIELDS = st.sampled_from([QQ, Field(7), Field(101)])


def dense_to_rows(mat, field):
    rows = []
    for r in mat:
        row = {j: field.of(v) for j, v in enumerate(r) if field.of(v) != field.zero}
        rows.append(row)
    return rows


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
    assert rank(rows, QQ) == 2
    null = nullspace(rows, 3, QQ)
    assert len(null) == 1
    for row in rows:
        assert all(v == QQ.zero for v in mat_vec([row], null[0], QQ))


def test_nullspace_of_identity_is_trivial():
    rows = dense_to_rows([[1, 0], [0, 1]], Field(7))
    assert nullspace(rows, 2, Field(7)) == []
    assert rank(rows, Field(7)) == 2


def test_rowspace_membership_and_rank():
    F = Field(101)
    space = RowSpace(F)
    r1 = {0: F.of(1), 1: F.of(2)}
    r2 = {1: F.of(1), 2: F.of(5)}
    assert space.add(dict(r1))
    assert space.add(dict(r2))
    # A linear combination of r1, r2 is already contained.
    combo = {0: F.of(3), 1: F.of(6 + 4), 2: F.of(20)}
    assert space.contains(dict(combo))
    assert space.add(dict(combo)) is None
    assert space.rank == 2
    fresh = {3: F.of(1)}
    assert not space.contains(dict(fresh))
    assert space.add(dict(fresh))
    assert space.rank == 3


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(2, 6))
def test_rank_nullity_theorem(seed, nrows, ncols):
    F = Field(101)
    rng = random.Random(seed)
    dense = [[rng.randrange(101) for _ in range(ncols)] for _ in range(nrows)]
    rows = dense_to_rows(dense, F)
    r = rank(rows, F)
    null = nullspace(rows, ncols, F)
    assert r + len(null) == ncols
    for vec in null:
        assert all(v == F.zero for v in mat_vec(rows, vec, F))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_nullspace_vectors_independent(seed):
    F = Field(101)
    rng = random.Random(seed)
    dense = [[rng.randrange(101) for _ in range(5)] for _ in range(3)]
    rows = dense_to_rows(dense, F)
    null = nullspace(rows, 5, F)
    space = RowSpace(F)
    for vec in null:
        assert space.add(dict(vec))


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
    if rank(dense_to_rows(dense, F), F) < n:
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
    if rank(const, F) < len(src):
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
