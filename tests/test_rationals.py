"""Integral rationals are plain ints: a value over Q is a Fraction only where
a division leaves a remainder, and the ints give the same values and text as
the equal Fractions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfkit as mk
from mfkit.fields import QQ
from mfkit.linalg import RowSpace, int_row, inverse, nullspace, row_space
from mfkit.poly import GradedMatrix, Poly, PolyRing, format_poly, graded_inverse

from fixtures import catalog_objects

R = PolyRing(QQ)


def as_fractions(p: Poly) -> Poly:
    """p with every coefficient an equal Fraction, built past Field.of."""
    return Poly(p.ring, {e: Fraction(c) for e, c in p.terms.items()})


def matrix_as_fractions(M: GradedMatrix) -> GradedMatrix:
    return GradedMatrix(M.ring, M.target_twists, M.source_twists,
                        [[as_fractions(e) for e in row] for row in M.entries])


def random_int_poly(rng, degree):
    monos = R.monomials_of_degree(degree)
    picked = rng.sample(monos, min(rng.randrange(4), len(monos)))
    return R.from_terms({e: rng.randrange(-3, 4) for e in picked})


def random_int_matrix(rng, tgt, src):
    return GradedMatrix(R, tgt, src, [
        [random_int_poly(rng, a - b) if a >= b else R.zero() for a in src] for b in tgt
    ])


def assert_same(got, want):
    """Equal polynomials with the same text, entry by entry for matrices."""
    if isinstance(got, GradedMatrix):
        assert got.same_entries(want)
        pairs = [(g, w) for gr, wr in zip(got.entries, want.entries) for g, w in zip(gr, wr)]
    else:
        pairs = [(got, want)]
    for g, w in pairs:
        assert g == w
        assert format_poly(g) == format_poly(w)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 3), st.integers(0, 3))
def test_poly_arithmetic_is_the_same_on_ints_and_fractions(seed, d, e):
    rng = random.Random(seed)
    p, q = random_int_poly(rng, d), random_int_poly(rng, e)
    pf, qf = as_fractions(p), as_fractions(q)
    for got, want in ((p * q, pf * qf), (p + q, pf + qf), (p - q, pf - qf), (p - p, pf - pf), (-p, -pf)):
        assert_same(got, want)
    assert all(type(c) is int for c in (p * q).terms.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), *[st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=3)] * 3)
def test_graded_matrix_products_are_the_same_on_ints_and_fractions(seed, t0, t1, t2):
    rng = random.Random(seed)
    A, B = random_int_matrix(rng, t0, t1), random_int_matrix(rng, t1, t2)
    got = A * B
    assert_same(got, matrix_as_fractions(A) * matrix_as_fractions(B))
    assert all(type(c) is int for row in got.entries for e in row for c in e.terms.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.lists(st.sampled_from([3, 4, 5]), min_size=1, max_size=4))
def test_graded_inverse_is_the_same_on_ints_and_fractions(seed, src):
    rng = random.Random(seed)
    mat = random_int_matrix(rng, sorted(src), sorted(src))
    got, want = graded_inverse(mat), graded_inverse(matrix_as_fractions(mat))
    assert (got is None) == (want is None)
    if got is not None:
        assert_same(got, want)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 6))
def test_inverse_and_nullspace_are_the_same_on_ints_and_fractions(seed, n, ncols):
    rng = random.Random(seed)
    square = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
    got, want = inverse(square, QQ), inverse([[Fraction(x) for x in r] for r in square], QQ)
    assert got == want
    if got is not None:
        assert [[format_poly(R.const(x)) for x in r] for r in got] == [
            [format_poly(R.const(x)) for x in r] for r in want
        ]
    rows = [{j: x for j in range(ncols) if (x := rng.randrange(-2, 3))} for _ in range(n)]
    spaces = [row_space([int_row(r, QQ) for r in rr], QQ)
              for rr in (rows, [{j: Fraction(x) for j, x in r.items()} for r in rows])]
    assert nullspace(spaces[0], ncols) == nullspace(spaces[1], ncols)


def test_parsed_division_is_a_fraction_only_with_a_remainder():
    got = R.parse("4/2*X - 6/3 + 2/3*Y - Z/1")
    assert list(got.terms.items()) == [((1, 0, 0), 2), ((0, 0, 0), -2), ((0, 1, 0), Fraction(2, 3)), ((0, 0, 1), -1)]
    assert [type(c) for c in got.terms.values()] == [int, int, Fraction, int]


def test_row_space_scalar_is_an_int_on_an_integral_quotient():
    space = RowSpace(QQ)
    space.add({0: 2, 1: 3})  # primitive, so stored as is, with pivot entry 2
    assert space.scalar(0, 4) == 2 and type(space.scalar(0, 4)) is int
    assert space.scalar(0, -6) == -3 and type(space.scalar(0, -6)) is int
    assert space.scalar(0, 3) == Fraction(3, 2)


@pytest.mark.parametrize("lam, mu", [(0, 1), (0, -1), (-1, 0)])
def test_catalog_and_picard_images_have_int_coefficients(lam, mu):
    """At these points the catalog over Q and both Picard images of each of
    its objects have integer coefficients, so none is a Fraction."""
    curve, objects = catalog_objects(0, lam, mu)
    seen = 0
    for M in objects.values():
        for X in (M, mk.picard_tensor(M, -1, curve), mk.picard_tensor(M, +1, curve)):
            coeffs = [c for m in (X.alpha, X.beta) for row in m.entries for e in row for c in e.terms.values()]
            assert all(type(c) is int for c in coeffs)
            seen += len(coeffs)
    assert seen > 800
