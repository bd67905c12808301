"""Matrix factorisations: verification, functors on objects, reduction, extraction."""

import dataclasses
import json

import pytest

import mfkit as mk
from mfkit.poly import GradedMatrix, graded_inverse

from fixtures import fresh_violations, refreshed


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
    # twists and pairwise direct sums, a fresh check accepts and beta·alpha = f·I
    cv = mk.default_curve(mk.Field(char) if char else mk.QQ)
    pt = mk.default_points(cv, 1)[0]
    kinds = [mk.catalog_mf(cv, k, pt if k in mk.POINT_KINDS else None) for k in mk.CATALOG_KINDS]
    objects = list(kinds)
    for M in kinds:
        objects += [mk.shift_mf(M, 1), mk.shift_mf(M, -1), mk.twist_mf(M, 1), mk.twist_mf(M, -2)]
    objects += [mk.direct_sum_mf(A, B) for k, A in enumerate(kinds) for B in kinds[k:]]
    for M in objects:
        assert fresh_violations(M) == []
        ba = (M.beta * M.alpha).entries
        n = M.rank
        assert all(ba[i][j] == (cv.f if i == j else cv.ring.zero()) for i in range(n) for j in range(n))


@pytest.mark.parametrize("kind", mk.CATALOG_KINDS)
def test_a_catalog_entry_is_verified_once(monkeypatch, curve, points, kind):
    # catalog_mf asserts an assembled object valid, and catalog_entry_dict's
    # "verified" field reads the same verdict: one alpha·beta product in all.
    # lb-minus-p and lb-minus-e are shifted and twisted from an asserted
    # object, whose clean verdict they inherit, and trivial_mf asserts
    # nothing, so its one product is the "verified" field's
    built = []
    real = mk.mf._violations
    monkeypatch.setattr(mk.mf, "_violations", lambda M: built.append(M) or real(M))
    pt = points[0] if kind in mk.POINT_KINDS else None
    entry = mk.catalog_entry_dict(kind, curve, pt, mk.catalog_mf(curve, kind, pt))
    assert entry["verified"] is True
    assert len(built) == 1
    assert len({id(M) for M in built}) == len(built)  # no instance checked twice


def test_a_factorisation_cannot_be_reassigned(kp):
    with pytest.raises(dataclasses.FrozenInstanceError):
        kp.alpha = kp.beta
    assert mk.verify_mf(kp) == []


@pytest.mark.parametrize("char", [0, 101])
def test_the_verdict_belongs_to_its_instance(char):
    # a new object with the checked one's ring, potential and twists but one
    # alpha entry doubled is checked afresh: the verdict is not keyed by content
    cv = mk.default_curve(mk.Field(char) if char else mk.QQ)
    M = mk.catalog_mf(cv, "point", mk.default_points(cv, 1)[0])
    assert mk.verify_mf(M) == []
    bad = mk.MatrixFactorization(M.ring, M.f, with_entry(M.alpha, 0, 0, M.alpha.entries[0][0].scale(2)), M.beta)
    assert mk.verify_mf(bad) == two_product_violations(bad) != []
    with pytest.raises(mk.ValidationError):
        mk.assert_valid_mf(bad)
    assert mk.verify_mf(M) == []


def test_verify_returns_a_new_list_each_time(curve, kp):
    X = curve.ring.gens()[0]
    bad = mk.MatrixFactorization(curve.ring, curve.f, with_entry(kp.alpha, 0, 0, kp.alpha.entries[0][0] + X), kp.beta)
    for M in (kp, bad):
        first = mk.verify_mf(M)
        want = list(first)
        first.append("appended by the caller")
        assert mk.verify_mf(M) == want


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
    assert fresh_violations(N) == []
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
    assert fresh_violations(S) == []
    assert S.alpha.same_entries(kp.beta)
    assert S.p0 == kp.p1


def test_transpose_is_an_involution(kp, osheaf):
    for M in (kp, osheaf):
        T = mk.transpose_mf(M)
        assert fresh_violations(T) == []
        assert mk.transpose_mf(T) == M


def test_transpose_of_trivial(curve):
    T = mk.trivial_mf(curve.ring, curve.f)
    assert mk.transpose_mf(T) == mk.twist_mf(T, -6)


def test_direct_sum(kp, osheaf):
    D = mk.direct_sum_mf(kp, osheaf)
    assert fresh_violations(D) == []
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
    with pytest.raises(mk.ValidationError, match="invalid reduction input"):
        mk.reduce_mf(bad)


# ---------------------------------------------------------------------------
# verdicts passed on by the constructors


def holds_clean_verdict(M):
    return vars(M).get("violations") == ()


@pytest.fixture(scope="module", params=[0, 101])
def checked(request):
    """The default curve over QQ or GF(101) and its catalog, every entry's
    verdict read (trivial_mf asserts nothing, so its verdict is read here)."""
    cv = mk.default_curve(mk.Field(request.param) if request.param else mk.QQ)
    pt = mk.default_points(cv, 1)[0]
    kinds = {k: mk.catalog_mf(cv, k, pt if k in mk.POINT_KINDS else None) for k in mk.CATALOG_KINDS}
    assert all(mk.verify_mf(M) == [] for M in kinds.values())
    assert mk.verify_mf(cv.structure_sheaf) == []
    return cv, kinds


def test_inherited_verdicts_agree_with_a_fresh_check(checked):
    cv, kinds = checked
    derived = []
    for M in kinds.values():
        derived += [mk.shift_mf(M, k) for k in (-2, -1, 1, 2)]
        derived += [mk.twist_mf(M, -1), mk.twist_mf(M, 1), mk.transpose_mf(M), mk.reduce_mf(M)]
        derived += [mk.direct_sum_mf(M, N) for N in kinds.values()]
        derived += [mk.picard_tensor(M, -1, cv), mk.picard_tensor(M, 1, cv)]
    cones = [mk.cone_mf(phi) for M in kinds.values() for N in kinds.values() for phi in mk.hom_space(M, N).basis]
    assert cones
    derived += cones + [mk.reduce_mf(C) for C in cones]
    for D in derived:
        assert holds_clean_verdict(D)
        assert fresh_violations(D) == []


def test_a_picard_round_trip_on_a_checked_object_forms_no_product(monkeypatch, checked):
    cv, kinds = checked
    calls = []
    real = mk.mf._violations
    monkeypatch.setattr(mk.mf, "_violations", lambda M: calls.append(M) or real(M))
    for M in kinds.values():
        back = mk.picard_tensor(mk.picard_tensor(M, -1, cv), 1, cv)
        assert mk.is_stably_isomorphic(back, M).status == "yes"
        assert mk.verify_mf(back) == []
    assert calls == []


def test_an_unread_or_bad_verdict_passes_nothing_on(monkeypatch, checked):
    cv, kinds = checked
    M = kinds["point"]
    j = next(j for j, e in enumerate(M.beta.entries[0]) if not e.is_zero())
    bad_beta = with_entry(M.beta, 0, j, M.beta.entries[0][j].scale(2))

    def derive(B):
        return [mk.shift_mf(B, 1), mk.shift_mf(B, -2), mk.twist_mf(B, 1), mk.transpose_mf(B),
                mk.direct_sum_mf(B, M), mk.direct_sum_mf(M, B)]

    unread = mk.MatrixFactorization(M.ring, M.f, M.alpha, bad_beta)
    for D in derive(unread):
        assert "violations" not in vars(D)
        assert mk.verify_mf(D)
    assert "violations" not in vars(unread)
    assert mk.verify_mf(unread)
    for D in derive(unread):  # a non-empty verdict passes nothing on either
        assert "violations" not in vars(D)
        assert mk.verify_mf(D)
    # a valid but unread source: the derived object is checked afresh
    calls = []
    real = mk.mf._violations
    monkeypatch.setattr(mk.mf, "_violations", lambda M: calls.append(M) or real(M))
    for D in derive(refreshed(M)):
        assert "violations" not in vars(D)
        assert mk.verify_mf(D) == []
    assert len(calls) == 6


def test_a_cone_refuses_every_bent_morphism(checked):
    # doubling a nonzero entry of f1 breaks the alpha-square, since E·alpha_M
    # is nonzero for a nonzero E (alpha_M is injective over the fraction field)
    cv, kinds = checked
    bent = 0
    for M in kinds.values():
        for N in kinds.values():
            for phi in mk.hom_space(M, N).basis:
                i, j = next(((i, j) for i, row in enumerate(phi.f1.entries) for j, e in enumerate(row) if e.terms),
                            (None, None))
                if i is None:
                    continue
                f1 = with_entry(phi.f1, i, j, phi.f1.entries[i][j].scale(2))
                with pytest.raises(mk.ValidationError, match="invalid cone input"):
                    mk.cone_mf(mk.MFMorphism(M, N, phi.f0, f1))
                bent += 1
    assert bent


def test_reduce_refuses_a_tampered_pair(checked):
    # with a unit entry to split and without one: either way the input is refused
    cv, kinds = checked
    T = mk.trivial_mf(cv.ring, cv.f)
    for M in (kinds["point"], mk.direct_sum_mf(kinds["point"], T)):
        j = next(j for j, e in enumerate(M.beta.entries[0]) if not e.is_zero())
        bad = mk.MatrixFactorization(M.ring, M.f, M.alpha, with_entry(M.beta, 0, j, M.beta.entries[0][j].scale(2)))
        with pytest.raises(mk.ValidationError, match="invalid reduction input"):
            mk.reduce_mf(bad)
    assert mk.direct_sum_mf(kinds["point"], T).alpha.unit_entry() is not None


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


@pytest.mark.parametrize("char", [0, 101])
def test_structure_sheaf_extraction_of_the_irrelevant_ideal(char, residue_presentation):
    # the irrelevant ideal (X, Y, Z), presented as the cokernel of the second
    # differential of K's resolution, has Hilbert function [0, 3, 6, 9]; its
    # extraction is the residue field's, byte for byte
    cv = mk.default_curve(mk.Field(char))
    K = residue_presentation(cv)
    d = mk.minimal_resolution(K, 2).diffs[1]
    ideal = mk.Presentation(cv.ring, cv.f, list(d.target_twists), d)
    assert [mk.hilbert_function(ideal, i) for i in range(4)] == [0, 3, 6, 9]
    M = mk.extract_mf(ideal, "structure-sheaf")
    assert json.dumps(mk.mf_to_dict(M)) == json.dumps(mk.mf_to_dict(mk.extract_mf(K, "structure-sheaf")))
    assert mk.is_stably_isomorphic(M, mk.catalog_mf(cv, "structure-sheaf")).status == "yes"


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
