"""Matrix factorisations: verification, functors on objects, reduction, extraction."""

import json

import pytest

import mfkit as mk
from mfkit.poly import GradedMatrix, graded_inverse


@pytest.fixture(scope="module")
def kp(curve, points):
    return mk.catalog_mf(curve, "point", points[0])


@pytest.fixture(scope="module")
def osheaf(curve):
    return mk.catalog_mf(curve, "structure-sheaf")


# ---------------------------------------------------------------------------
# verification


def test_catalog_object_verifies(kp):
    assert mk.verify_mf(kp) == []
    mk.assert_valid_mf(kp)


def test_tampered_entry_is_reported(curve, kp):
    ring = curve.ring
    X, Y, Z = ring.gens()
    bad_alpha = GradedMatrix(
        ring,
        kp.alpha.target_twists,
        kp.alpha.source_twists,
        [list(row) for row in kp.alpha.entries],
    )
    bad_alpha.entries[0][0] = bad_alpha.entries[0][0] + X
    bad = mk.MatrixFactorization(ring, curve.f, bad_alpha, kp.beta)
    msgs = mk.verify_mf(bad)
    assert msgs
    assert any("!=" in m or "degree" in m for m in msgs)
    with pytest.raises(mk.ValidationError):
        mk.assert_valid_mf(bad)


def test_wrong_degree_entry_is_reported(curve, kp):
    ring = curve.ring
    X, Y, Z = ring.gens()
    bad_alpha = GradedMatrix(
        ring,
        kp.alpha.target_twists,
        kp.alpha.source_twists,
        [list(row) for row in kp.alpha.entries],
    )
    bad_alpha.entries[0][0] = X * X
    bad = mk.MatrixFactorization(ring, curve.f, bad_alpha, kp.beta)
    msgs = mk.verify_mf(bad)
    assert any("(0,0)" in m for m in msgs)


def two_product_violations(M):
    """The product part of the report as forming both products gives it:
    each (i, j) in order, (beta*alpha) before (alpha*beta)."""
    ba, ab = (M.beta * M.alpha).entries, (M.alpha * M.beta).entries
    out = []
    for i in range(M.rank):
        for j in range(M.rank):
            want = M.f if i == j else M.ring.zero()
            for name, prod in (("beta*alpha", ba), ("alpha*beta", ab)):
                if prod[i][j] != want:
                    out.append(f"({name})[{i}][{j}] != {'f' if i == j else '0'}")
    return out


def with_entry(G, i, j, value):
    entries = [list(row) for row in G.entries]
    entries[i][j] = value
    return GradedMatrix(G.ring, G.target_twists, G.source_twists, entries)


def test_failed_products_are_reported_as_both_products_give_them(curve, kp, osheaf):
    # each pair passes the potential, rank, twist and degree checks, so the
    # whole report is the products' violations, in the order the report had
    # when both products were always formed
    X, Y, Z = curve.ring.gens()
    D = mk.direct_sum_mf(kp, osheaf)
    pairs = {
        "alpha entry": (with_entry(kp.alpha, 0, 0, kp.alpha.entries[0][0] + X), kp.beta),
        "beta entry": (kp.alpha, with_entry(kp.beta, 1, 0, kp.beta.entries[1][0] + Y)),
        # a block B: P1(O) → P0(kp)(3) above the diagonal of beta; alpha·beta
        # is then f·I plus alpha_kp·B, which lies off the diagonal
        "off-diagonal": (D.alpha, with_entry(D.beta, 0, kp.rank, X * X)),
    }
    cases = {what: mk.MatrixFactorization(curve.ring, curve.f, a, b) for what, (a, b) in pairs.items()}
    for what, bad in cases.items():
        want = two_product_violations(bad)
        assert any(m.startswith("(alpha*beta)") for m in want), what
        assert mk.verify_mf(bad) == want, what
    ab = (cases["off-diagonal"].alpha * cases["off-diagonal"].beta).entries
    assert all(ab[i][i] == curve.f for i in range(D.rank))


@pytest.mark.parametrize("char", [0, 101])
def test_valid_factorisations_pass_and_satisfy_both_products(char):
    # the oracle for the one-product rule: on every catalog kind, its shifts,
    # twists and pairwise direct sums, verify_mf accepts and beta·alpha = f·I
    cv = mk.default_curve(mk.Field(char) if char else mk.QQ)
    pt = mk.default_points(cv, 1)[0]
    kinds = [mk.catalog_mf(cv, k, pt if k in mk.POINT_KINDS else None) for k in mk.CATALOG_KINDS]
    objects = list(kinds)
    for M in kinds:
        objects += [mk.shift_mf(M, 1), mk.shift_mf(M, -1), mk.twist_mf(M, 1), mk.twist_mf(M, -2)]
    objects += [mk.direct_sum_mf(A, B) for k, A in enumerate(kinds) for B in kinds[k:]]
    for M in objects:
        assert mk.verify_mf(M) == []
        ba = (M.beta * M.alpha).entries
        n = M.rank
        assert all(ba[i][j] == (cv.f if i == j else cv.ring.zero()) for i in range(n) for j in range(n))


def test_nonhomogeneous_potential_rejected(curve):
    ring = curve.ring
    X, Y, Z = ring.gens()
    M = mk.trivial_mf(ring, curve.f)
    wrong = mk.MatrixFactorization(ring, X * X, M.alpha, M.beta)
    assert mk.verify_mf(wrong)


def test_trivial_factorisation(curve):
    T = mk.trivial_mf(curve.ring, curve.f)
    assert mk.verify_mf(T) == []
    assert T.rank == 1
    assert T.p0 == [0] and T.p1 == [0]
    assert T.beta.target_twists == [-3]


# ---------------------------------------------------------------------------
# twists, shifts, transpose


def test_twist_changes_twists_not_entries(kp):
    N = mk.twist_mf(kp, 2)
    assert N.p0 == [t - 2 for t in kp.p0]
    assert N.p1 == [t - 2 for t in kp.p1]
    assert N.alpha.same_entries(kp.alpha)
    assert mk.verify_mf(N) == []
    assert mk.twist_mf(N, -2) == kp


def test_shift_inverts(kp):
    assert mk.shift_mf(mk.shift_mf(kp, 1), -1) == kp
    assert mk.shift_mf(mk.shift_mf(kp, -1), 1) == kp


def test_shift_equals_repeated_single_shifts(curve, points):
    def single(M, step):
        if step > 0:
            return mk.MatrixFactorization(M.ring, M.f, M.beta, M.alpha.retwist(3))
        return mk.MatrixFactorization(M.ring, M.f, M.beta.retwist(-3), M.alpha)

    for kind in mk.CATALOG_KINDS:
        M = mk.catalog_mf(curve, kind, points[0] if kind in mk.POINT_KINDS else None)
        for k in range(-7, 8):
            want = M
            for _ in range(abs(k)):
                want = single(want, 1 if k > 0 else -1)
            assert mk.shift_mf(M, k) == want
    # closed form: a huge shift costs no more than a small one
    kp = mk.catalog_mf(curve, "point", points[0])
    assert mk.shift_mf(kp, 10**9) == mk.twist_mf(kp, 3 * 10**9 // 2)


def test_double_shift_is_twist(kp, osheaf):
    for M in (kp, osheaf):
        assert mk.shift_mf(M, 2) == mk.twist_mf(M, 3)
        assert mk.shift_mf(mk.shift_mf(M, 1), 1) == mk.twist_mf(M, 3)
        assert mk.shift_mf(M, -2) == mk.twist_mf(M, -3)


def test_shift_swaps_halves(kp):
    S = mk.shift_mf(kp, 1)
    assert mk.verify_mf(S) == []
    assert S.alpha.same_entries(kp.beta)
    assert S.p0 == kp.p1


def test_transpose_is_an_involution(kp, osheaf):
    for M in (kp, osheaf):
        T = mk.transpose_mf(M)
        assert mk.verify_mf(T) == []
        assert mk.transpose_mf(T) == M


def test_transpose_of_trivial(curve):
    T = mk.trivial_mf(curve.ring, curve.f)
    assert mk.transpose_mf(T) == mk.twist_mf(T, -6)


def test_direct_sum(kp, osheaf):
    D = mk.direct_sum_mf(kp, osheaf)
    assert mk.verify_mf(D) == []
    assert D.rank == kp.rank + osheaf.rank
    assert D.p0 == kp.p0 + osheaf.p0


# ---------------------------------------------------------------------------
# reduction


def test_reduce_is_identity_on_reduced_objects(kp):
    R = mk.reduce_mf(kp)
    assert R == kp


def test_reduce_strips_trivial_summands(curve, kp):
    T = mk.trivial_mf(curve.ring, curve.f)
    padded = mk.direct_sum_mf(kp, T)
    R = mk.reduce_mf(padded)
    assert R == kp
    padded2 = mk.direct_sum_mf(mk.twist_mf(T, 1), mk.direct_sum_mf(kp, T))
    assert mk.reduce_mf(padded2) == kp


def test_reduce_shifted_trivial_to_rank_zero(curve):
    T = mk.trivial_mf(curve.ring, curve.f)
    S = mk.shift_mf(T, 1)
    R = mk.reduce_mf(mk.direct_sum_mf(T, S))
    assert R.rank == 0


@pytest.mark.parametrize("unit_in", ["alpha", "beta"])
def test_reduce_rejects_a_pair_that_does_not_split(curve, unit_in):
    ring, f = curve.ring, curve.f
    X = ring.gens()[0]
    one, g = GradedMatrix(ring, [0], [0], [[ring.one()]]), f + X**3
    if unit_in == "alpha":
        bad = mk.MatrixFactorization(ring, f, one, GradedMatrix(ring, [-3], [0], [[g]]))
    else:
        bad = mk.MatrixFactorization(ring, f, GradedMatrix(ring, [0], [3], [[g]]), one)
    with pytest.raises(mk.ValidationError, match="reduction invariant failed"):
        mk.reduce_mf(bad)


# ---------------------------------------------------------------------------
# factorisations from periodicity


def test_point_module_periodicity(curve, point_presentation, points):
    res = mk.minimal_resolution(point_presentation(points[0]), 4)
    found = mk.detect_periodicity(res)
    assert found is not None
    s, M = found
    assert s == 2
    assert mk.verify_mf(M) == []


def test_residue_field_periodicity(curve, residue_presentation):
    res = mk.minimal_resolution(residue_presentation(), 4)
    found = mk.detect_periodicity(res)
    assert found is not None
    s, M = found
    assert s == 3
    assert mk.verify_mf(M) == []


def test_mf_from_pair_rejects_bad_windows(curve, point_presentation, points):
    res = mk.minimal_resolution(point_presentation(points[0]), 4)
    with pytest.raises(mk.InputError):
        mk.mf_from_pair(res, 0)
    with pytest.raises(mk.InputError):
        mk.mf_from_pair(res, 1)  # ranks 1 and 2 differ
    with pytest.raises(mk.InputError):
        mk.mf_from_pair(res, 4)  # window exceeds resolution length


def test_composite_not_a_multiple_of_f_is_input_error(curve):
    ring, f = curve.ring, curve.f
    X, Y, Z = ring.gens()
    d1, d2 = GradedMatrix(ring, [0], [1], [[X]]), GradedMatrix(ring, [1], [3], [[Y * Z]])
    res = mk.Resolution(ring, f, [[0], [1], [3]], [d1, d2])
    with pytest.raises(mk.InputError, match="does not lift through d"):
        mk.mf_from_pair(res, 1)
    assert mk.detect_periodicity(res) is None
    # β lifts f·id through d^s, which means nothing for f = 0, so a zero
    # potential is refused before any lift is tried
    with pytest.raises(mk.InputError, match="nonzero potential"):
        mk.mf_from_pair(mk.Resolution(ring, ring.zero(), res.twists, res.diffs), 1)


def _curve(field, a, b):
    return mk.curve_new(field, field.of(a), field.of(b))


def _first_point(curve):
    return mk.rational_points(curve)[0] if curve.field.char else mk.default_points(curve, 1)[0]


def _catalog_cokernels(curve):
    """coker(beta) of the reduced form of every non-trivial catalog kind."""
    pt = _first_point(curve)
    return {
        kind: mk.cokernel_module(mk.reduce_mf(mk.catalog_mf(curve, kind, pt if kind in mk.POINT_KINDS else None)))
        for kind in mk.CATALOG_KINDS
        if kind != "trivial"
    }


CURVES = [pytest.param(mk.QQ, 0, 1, id="QQ(0,1)"), pytest.param(mk.Field(101), 3, 7, id="GF(101)(3,7)")]


@pytest.mark.parametrize(
    "field, a, b", [pytest.param(mk.QQ, -2, 1, id="QQ(-2,1)"), pytest.param(mk.Field(101), 3, 7, id="GF(101)(3,7)")]
)
def test_residue_field_periodicity_off_the_default_curve(residue_presentation, field, a, b):
    found = mk.detect_periodicity(mk.minimal_resolution(residue_presentation(_curve(field, a, b)), 4))
    assert found is not None and found[0] == 3
    assert mk.verify_mf(found[1]) == []


@pytest.mark.parametrize("field, a, b", CURVES)
def test_a_factorisations_cokernel_is_periodic_from_the_start(field, a, b):
    # coker(beta) is maximal Cohen-Macaulay, so its resolution is periodic at s = 1
    for kind, cok in _catalog_cokernels(_curve(field, a, b)).items():
        found = mk.detect_periodicity(mk.minimal_resolution(cok, 2))
        assert found is not None and found[0] == 1, kind
        assert mk.verify_mf(found[1]) == [], kind


def reference_pair(res, s):
    """The constant-U reading of a periodic pair: β = d^{s+1}·U⁻¹, where
    d^s·d^{s+1} = f·U with U constant and invertible; None where the window
    or U does not fit."""
    ring, f = res.ring, res.f
    lo, mid, hi = res.twists[s - 1], res.twists[s], res.twists[s + 1]
    if not (len(lo) == len(mid) == len(hi)) or hi != [t + 3 for t in lo]:
        return None
    alpha, beta0 = res.diffs[s - 1], res.diffs[s]
    m, composite = next(iter(f.terms)), (alpha * beta0).entries
    u = [[ring.field.div(e.coeff(m), f.terms[m]) for e in row] for row in composite]
    if any(e != f.scale(c) for row, cs in zip(composite, u) for e, c in zip(row, cs)):
        return None
    u_inv = graded_inverse(GradedMatrix(ring, lo, lo, [[ring.const(c) for c in row] for row in u]))
    if u_inv is None:
        return None
    return mk.MatrixFactorization(ring, f, alpha, (beta0 * u_inv).with_twists([t - 3 for t in mid], list(lo)))


@pytest.mark.parametrize("field, a, b", CURVES)
def test_mf_from_pair_agrees_with_the_constant_normalisation_wherever_that_applies(
    residue_presentation, point_presentation, field, a, b
):
    curve = _curve(field, a, b)
    modules = [residue_presentation(curve), point_presentation(_first_point(curve), curve)]
    modules += _catalog_cokernels(curve).values()
    agreed = 0
    for P in modules:
        res = mk.minimal_resolution(P, 4)
        for s in range(1, res.length):
            ref = reference_pair(res, s)
            if ref is not None:
                got = mk.mf_from_pair(res, s)
                assert json.dumps(mk.mf_to_dict(got)) == json.dumps(mk.mf_to_dict(ref))
                agreed += 1
    assert agreed >= len(modules)


# ---------------------------------------------------------------------------
# extraction


def test_point_extraction_matches_catalog(curve, point_presentation, points):
    for pt in points[:2]:
        M = mk.extract_mf(point_presentation(pt), "point")
        C = mk.catalog_mf(curve, "point", pt)
        assert mk.verify_mf(M) == []
        res = mk.is_stably_isomorphic(M, C)
        assert res.status == "yes"


def test_point_extraction_requires_point_like_module(
    curve, residue_presentation
):
    with pytest.raises(mk.InputError) as exc:
        mk.extract_mf(residue_presentation(), "point")
    assert "cohomology-not-concentrated" in str(exc.value)


def test_structure_sheaf_extraction(curve, residue_presentation):
    M = mk.extract_mf(residue_presentation(), "structure-sheaf")
    assert mk.verify_mf(M) == []
    O = mk.catalog_mf(curve, "structure-sheaf")
    assert mk.is_stably_isomorphic(M, O).status == "yes"


def test_raw_extraction(curve, point_presentation, points):
    M = mk.extract_mf(point_presentation(points[0]), "raw", 2)
    assert mk.verify_mf(M) == []
    with pytest.raises(mk.InputError):
        mk.extract_mf(point_presentation(points[0]), "raw")


def test_mode_aliases(curve, residue_presentation):
    M1 = mk.extract_mf(residue_presentation(), "structure_sheaf")
    M2 = mk.extract_mf(residue_presentation(), "structure-sheaf")
    assert M1 == M2


def test_unknown_mode_rejected(curve, point_presentation, points):
    with pytest.raises(mk.InputError):
        mk.extract_mf(point_presentation(points[0]), "nonsense")


# ---------------------------------------------------------------------------
# cokernel round trip


def test_cokernel_of_point_factorisation(curve, kp, osheaf):
    # Cokernels of beta are maximal Cohen-Macaulay modules with the expected
    # Hilbert functions: 3i+1 for a point object, 6i for the structure sheaf.
    cok = mk.cokernel_module(kp)
    assert [mk.hilbert_function(cok, i) for i in range(6)] == [1, 4, 7, 10, 13, 16]
    cok_o = mk.cokernel_module(osheaf)
    assert [mk.hilbert_function(cok_o, i) for i in range(5)] == [1, 6, 12, 18, 24]
