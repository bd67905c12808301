"""Graded presentations, minimal free resolutions, and Hilbert functions."""

import dataclasses
from math import comb

import pytest

import mfkit as mk
from mfkit.poly import GradedMatrix

from fixtures import catalog_objects, counting, same_basis


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


def test_a_presentation_cannot_be_reassigned(curve):
    # a field reassigned after a Hilbert function read would leave the cached
    # module basis stale, so it is refused
    ring, f = curve.ring, curve.f
    X = ring.gens()[0]
    P = mk.Presentation.free(ring, f, [0])
    assert [mk.hilbert_function(P, i) for i in range(4)] == [1, 3, 6, 9]
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.relations = GradedMatrix(ring, [0], [1], [[X]])
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.ambient = [1]
    Q = mk.Presentation(ring, f, (0,), GradedMatrix(ring, [0], [1], [[X]]))
    assert Q.ambient == [0] and [mk.hilbert_function(Q, i) for i in range(4)] == [1, 2, 3, 3]


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
# the module basis a minimised presentation keeps from its own pass

NONTRIVIAL_KINDS = [k for k in mk.CATALOG_KINDS if k != "trivial"]


def middles(char, lam, mu):
    """(name, ar_middle) for every non-trivial catalog kind at the point and
    for the non-brick k(p) ⊕ k(-p), whose middle is a Hom presentation."""
    curve, objs = catalog_objects(char, lam, mu)
    fld = curve.field
    q = mk.point_on(curve, fld.of(lam), fld.neg(fld.of(mu)))
    objs = {kind: objs[kind] for kind in NONTRIVIAL_KINDS}
    objs["k(p)+k(q)"] = mk.direct_sum_mf(objs["point"], mk.catalog_mf(curve, "point", q))
    return [(name, mk.ar_middle(M, curve)) for name, M in objs.items()]


@pytest.mark.parametrize("char, lam, mu", [(0, 0, 1), (101, 2, 3)])
def test_seeded_module_basis_matches_a_fresh_pass(char, lam, mu):
    # a minimised presentation's module basis is the one its minimisation
    # kept, and a fresh pass over its relations gives the same basis
    for name, mid in middles(char, lam, mu):
        for P in (mid, mk.truncate_geq(mid, min(mid.ambient) + 1)):
            assert "_module_gb" in P.__dict__, name
            assert same_basis(P._module_gb, mk.groebner_basis(P.relations, f=P.f)), name


def test_hilbert_function_of_a_middle_builds_no_basis(monkeypatch):
    built, passes = counting(monkeypatch, "buchberger"), counting(monkeypatch, "_degree_pass")
    for name, mid in middles(101, 2, 3):
        built.clear()
        passes.clear()
        values = [mk.hilbert_function(mid, i) for i in range(11)]
        assert built == passes == [], name
        fresh = mk.Presentation(mid.ring, mid.f, mid.ambient, mid.relations)
        assert values == [mk.hilbert_function(fresh, i) for i in range(11)], name
        assert len(built) == len(passes) == 1, name  # a fresh presentation builds its basis


def free_dimension(twists, i):
    """dim_K of the degree-i piece of ⊕ K[X, Y, Z](-t) over the twists t."""
    return sum(comb(i - t + 2, 2) for t in twists if i >= t)


@pytest.mark.parametrize("char, lam, mu", [(0, 0, 1), (101, 2, 3)])
def test_cokernel_hilbert_function_matches_the_closed_form(char, lam, mu):
    # det α·det β = f^rank, so β: ⊕R(-b) → ⊕R(-(a - 3)) is injective over R
    # and H(coker β) is the difference of two free Hilbert functions;
    # f kills coker β, so its dimensions over A are the same
    for kind, M in catalog_objects(char, lam, mu)[1].items():
        P = mk.cokernel_module(M)
        for i in range(-3, 61):
            want = free_dimension([a - 3 for a in M.p0], i) - free_dimension(M.p1, i)
            assert mk.hilbert_function(P, i) == want, (kind, i)


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
