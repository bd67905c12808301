"""Graded presentations, minimal free resolutions, and Hilbert functions."""

import pytest

import mfkit as mk
from mfkit.poly import GradedMatrix


def nf_zero_mod(ring, fpoly, poly):
    gb = mk.groebner_basis([fpoly], ring=ring)
    return mk.normal_form(poly, gb).is_zero()


# ---------------------------------------------------------------------------
# presentations and minimization


def test_free_presentation_hilbert_series(curve):
    A = mk.Presentation.free(curve.ring, curve.f, [0])
    # The homogeneous coordinate ring has dimensions 1, 3, 6, 9, ...
    assert [mk.hilbert_function(A, i) for i in range(6)] == [1, 3, 6, 9, 12, 15]
    assert mk.hilbert_function(A, -1) == 0


def test_shifted_free_hilbert_function(curve):
    A1 = mk.Presentation.free(curve.ring, curve.f, [1])
    assert [mk.hilbert_function(A1, i) for i in range(5)] == [0, 1, 3, 6, 9]
    assert mk.free_hilbert_function(curve.ring, curve.f, [1], 4) == 9


def test_point_module_hilbert_function(curve, point_presentation, points):
    P = point_presentation(points[0])
    assert [mk.hilbert_function(P, i) for i in range(8)] == [1] * 8


def test_residue_field_hilbert_function(curve, residue_presentation):
    K = residue_presentation()
    vals = [mk.hilbert_function(K, i) for i in range(4)]
    assert vals == [1, 0, 0, 0]


def test_minimize_removes_redundant_generators(curve):
    ring, f = curve.ring, curve.f
    X, Y, Z = ring.gens()
    # Ambient A(0) + A(-1) with the second generator equal to X times the first:
    # relations say e1*X - e2 = 0, so one generator suffices.
    rel = GradedMatrix(ring, [0, 1], [1], [[X], [ring.const(-1)]])
    P = mk.Presentation(ring, f, [0, 1], rel)
    Q = mk.minimize_presentation(P)
    assert Q.ambient == [0]
    assert [mk.hilbert_function(Q, i) for i in range(5)] == [
        mk.hilbert_function(P, i) for i in range(5)
    ]


def test_minimize_is_idempotent(curve, point_presentation, points):
    P = point_presentation(points[1])
    Q = mk.minimize_presentation(P)
    R2 = mk.minimize_presentation(Q)
    assert R2.ambient == Q.ambient
    assert R2.relations.source_twists == Q.relations.source_twists


# ---------------------------------------------------------------------------
# minimal resolutions


def test_residue_field_resolution_twists(curve, residue_presentation):
    res = mk.minimal_resolution(residue_presentation(), 4)
    assert res.twists == [
        [0],
        [1, 1, 1],
        [2, 2, 2, 3],
        [3, 4, 4, 4],
        [5, 5, 5, 6],
    ]


def test_point_module_resolution_twists(curve, point_presentation, points):
    res = mk.minimal_resolution(point_presentation(points[0]), 4)
    assert res.twists[0] == [0]
    assert res.twists[1] == [1, 1]
    # Eventually two-periodic: twists climb by 3 every two steps.
    assert res.twists[4] == [t + 3 for t in res.twists[2]]


def test_resolution_differentials_compose_to_zero(curve, residue_presentation):
    res = mk.minimal_resolution(residue_presentation(), 4)
    ring, f = curve.ring, curve.f
    for k in range(len(res.diffs) - 1):
        prod = res.diffs[k] * res.diffs[k + 1]
        for row in prod.entries:
            for e in row:
                assert nf_zero_mod(ring, f, e)


def test_resolution_is_minimal(curve, residue_presentation):
    res = mk.minimal_resolution(residue_presentation(), 4)
    for d in res.diffs:
        for i, ti in enumerate(d.target_twists):
            for j, tj in enumerate(d.source_twists):
                if tj == ti:
                    assert d.entries[i][j].is_zero()


def test_resolution_exactness_via_euler_characteristic(curve, residue_presentation):
    # For degrees below the generators of the next syzygy module, the
    # alternating sum of free-module dimensions equals HF(K, i).
    res = mk.minimal_resolution(residue_presentation(), 4)
    ring, f = curve.ring, curve.f
    K = residue_presentation()
    next_min = min(res.twists[4]) + 1  # kernel of the last map starts here
    for i in range(0, next_min):
        total = 0
        for k, tw in enumerate(res.twists):
            total += (-1) ** k * mk.free_hilbert_function(ring, f, tw, i)
        assert total == mk.hilbert_function(K, i)


# ---------------------------------------------------------------------------
# Hilbert function identities


def test_first_syzygy_hilbert_function(curve, residue_presentation):
    res = mk.minimal_resolution(residue_presentation(), 3)
    ring, f = curve.ring, curve.f
    # Syzygies of (X, Y, Z): presented by the next differential.
    L = mk.Presentation(ring, f, res.twists[2], res.diffs[2])
    A = mk.Presentation.free(ring, f, [0])
    for i in range(2, 11):
        hf = mk.hilbert_function(L, i)
        assert hf == 6 * i - 9
        assert hf == 3 * mk.hilbert_function(A, i - 1) - mk.hilbert_function(A, i)


def test_truncation_hilbert_function(curve):
    A = mk.Presentation.free(curve.ring, curve.f, [0])
    T = mk.truncate_geq(A, 2)
    for i in range(6):
        expect = mk.hilbert_function(A, i) if i >= 2 else 0
        assert mk.hilbert_function(T, i) == expect


def test_truncation_at_the_generator_degree_keeps_the_module(curve, residue_presentation):
    # the generator of K lies in degree 0, so tr_{>=0} K keeps it as it is
    K = residue_presentation()
    T = mk.truncate_geq(K, 0)
    assert T.ambient == [0]
    assert [mk.hilbert_function(T, i) for i in range(4)] == [mk.hilbert_function(K, i) for i in range(4)]


def test_resolution_of_a_free_module_stops_at_its_zero_differential(curve):
    # a free module has no relations: its first differential is the zero
    # map from nothing, and every later term is zero
    res = mk.minimal_resolution(mk.Presentation.free(curve.ring, curve.f, [0]), 3)
    assert res.twists == [[0], [], [], []]
    assert all(d.cols == 0 for d in res.diffs)


def test_subquotient_presentation(curve):
    ring, f = curve.ring, curve.f
    X, Y, Z = ring.gens()
    # (X, Y, Z)·A as a submodule of A: dimensions drop by one in degree 0 only.
    u = [{(0, (1, 0, 0)): ring.field.one},
         {(0, (0, 1, 0)): ring.field.one},
         {(0, (0, 0, 1)): ring.field.one}]
    P = mk.present_subquotient(ring, f, [0], u, [])
    A = mk.Presentation.free(ring, f, [0])
    assert mk.hilbert_function(P, 0) == 0
    for i in range(1, 6):
        assert mk.hilbert_function(P, i) == mk.hilbert_function(A, i)


# ---------------------------------------------------------------------------
# hom presentations


@pytest.mark.parametrize("char", [0, 101])
def test_hom_of_free_modules(char):
    curve = mk.default_curve(mk.Field(char))
    ring, f = curve.ring, curve.f
    A = mk.Presentation.free(ring, f, [0])
    H = mk.hom_presentation(A, A)
    for i in range(5):
        assert mk.hilbert_function(H, i) == mk.hilbert_function(A, i)
    # Hom(A(-1), A) = A(1).
    H2 = mk.hom_presentation(mk.Presentation.free(ring, f, [1]), A)
    for i in range(-1, 4):
        assert mk.hilbert_function(H2, i) == mk.hilbert_function(A, i + 1)
    # Hom(A ⊕ A(-2), A) = A ⊕ A(2).
    H3 = mk.hom_presentation(mk.Presentation.free(ring, f, [0, 2]), A)
    for i in range(-3, 4):
        assert mk.hilbert_function(H3, i) == mk.hilbert_function(A, i) + mk.hilbert_function(A, i + 2)


def test_hom_from_torsion_to_free_vanishes(curve, residue_presentation):
    A = mk.Presentation.free(curve.ring, curve.f, [0])
    H = mk.hom_presentation(residue_presentation(), A)
    assert all(mk.hilbert_function(H, i) == 0 for i in range(-3, 6))
