"""Acceptance suite.

Each test exercises one end-to-end guarantee of the package with exact
(zero-tolerance) assertions and prints a single summary line so a test run
shows one PASS/FAIL line per criterion.
"""

import itertools
import time

import pytest

import mfkit as mk
from mfkit.fields import Field

from fixtures import CONE_CASES, CONE_SHAPES, cone_generator, cone_target, fresh_violations


def announce(capsys, number, description, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} FAIL: {description}", flush=True)
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number} PASS: {description}", flush=True)


@pytest.fixture(scope="module")
def qcurve():
    return mk.default_curve()


@pytest.fixture(scope="module")
def qpoints(qcurve):
    return mk.default_points(qcurve, 5)


@pytest.fixture(scope="module")
def fcurve():
    return mk.default_curve(Field(101))


def point_module(curve, pt):
    ring = curve.ring
    X, Y, Z = ring.gens()
    rel = mk.GradedMatrix(
        ring, [0], [1, 1], [[Y - Z.scale(pt.mu), X - Z.scale(pt.lam)]]
    )
    return mk.Presentation(ring, curve.f, [0], rel)


def residue_module(curve):
    ring = curve.ring
    X, Y, Z = ring.gens()
    rel = mk.GradedMatrix(ring, [0], [1, 1, 1], [[X, Y, Z]])
    return mk.Presentation(ring, curve.f, [0], rel)


def test_criterion_01_factorisation_identities(capsys, fcurve):
    def body():
        start = time.monotonic()
        pts = mk.rational_points(fcurve)
        assert len(pts) == 101
        checked = 0
        for kind in mk.CATALOG_KINDS:
            if kind in mk.POINT_KINDS:
                for pt in pts:
                    assert fresh_violations(mk.catalog_mf(fcurve, kind, pt)) == []
                    checked += 1
            else:
                assert fresh_violations(mk.catalog_mf(fcurve, kind)) == []
                checked += 1
        elapsed = time.monotonic() - start
        assert checked == 101 * len(mk.POINT_KINDS) + (
            len(mk.CATALOG_KINDS) - len(mk.POINT_KINDS)
        )
        assert elapsed < 30.0, f"took {elapsed:.1f}s"

    announce(
        capsys,
        1,
        "all 410 catalog factorisations over GF(101) verify exactly in < 30 s",
        body,
    )


def test_criterion_02_residue_field_resolution(capsys, qcurve):
    def body():
        res = mk.minimal_resolution(residue_module(qcurve), 4)
        assert res.twists == [
            [0],
            [1, 1, 1],
            [2, 2, 2, 3],
            [3, 4, 4, 4],
            [5, 5, 5, 6],
        ]
        found = mk.detect_periodicity(res)
        assert found is not None
        s, M = found
        assert mk.verify_mf(M) == []
        O = mk.catalog_mf(qcurve, "structure-sheaf")
        assert mk.is_stably_isomorphic(M, O).status == "yes"

    announce(
        capsys,
        2,
        "residue-field resolution has the golden twist pattern and its "
        "periodic pair is the structure-sheaf object",
        body,
    )


def test_criterion_03_syzygy_hilbert_identity(capsys, qcurve):
    def body():
        res = mk.minimal_resolution(residue_module(qcurve), 3)
        L = mk.Presentation(qcurve.ring, qcurve.f, res.twists[2], res.diffs[2])
        for i in range(2, 11):
            assert mk.hilbert_function(L, i) == 6 * i - 9

    announce(
        capsys,
        3,
        "first syzygy of (X, Y, Z) has Hilbert function 6i - 9 for i = 2..10",
        body,
    )


def test_criterion_04_extraction_matches_catalog(capsys, qcurve, qpoints, fcurve):
    def body():
        for pt in qpoints:
            M = mk.extract_mf(point_module(qcurve, pt), "point")
            C = mk.catalog_mf(qcurve, "point", pt)
            res = mk.is_stably_isomorphic(M, C)
            assert res.status == "yes" and res.forward is not None
        fpts = mk.rational_points(fcurve)[:5]
        assert len(fpts) == 5
        for pt in fpts:
            M = mk.extract_mf(point_module(fcurve, pt), "point")
            C = mk.catalog_mf(fcurve, "point", pt)
            assert mk.is_stably_isomorphic(M, C).status == "yes"
        K = mk.extract_mf(residue_module(qcurve), "structure-sheaf")
        O = mk.catalog_mf(qcurve, "structure-sheaf")
        assert mk.is_stably_isomorphic(K, O).status == "yes"

    announce(
        capsys,
        4,
        "stabilised point modules match the catalog at 5 rational and 5 "
        "GF(101) points, and the residue field stabilises to the structure sheaf",
        body,
    )


def test_criterion_05_cone_goldens(capsys, qcurve, qpoints):
    def body():
        pt = qpoints[0]
        for which in CONE_CASES:
            phi, _ = cone_generator(qcurve, which, pt)
            assert mk.verify_morphism(phi) == []
            C = mk.reduce_mf(mk.cone_mf(phi))
            assert C.rank == CONE_SHAPES[which][3]
            T = cone_target(qcurve, which, pt)
            assert mk.is_stably_isomorphic(C, T).status == "yes"

    announce(
        capsys,
        5,
        "the three evaluation cones reduce to the displayed shifted "
        "line-bundle objects",
        body,
    )


def test_criterion_06_duality(capsys, qcurve, qpoints):
    def body():
        for pt in qpoints[:2]:
            M = mk.catalog_mf(qcurve, "point", pt)
            D = mk.duality_image(M, qcurve)
            assert mk.is_stably_isomorphic(D, mk.shift_mf(M, -1)).status == "yes"
        O = mk.catalog_mf(qcurve, "structure-sheaf")
        assert mk.is_stably_isomorphic(mk.duality_image(O, qcurve), O).status == "yes"

    announce(
        capsys,
        6,
        "duality sends point objects to their negative shift and fixes the "
        "structure sheaf",
        body,
    )


def test_criterion_07_picard_invertibility(capsys, qcurve, qpoints):
    def body():
        pt = qpoints[0]
        for kind in mk.CATALOG_KINDS:
            M = mk.catalog_mf(qcurve, kind, pt if kind in mk.POINT_KINDS else None)
            down = mk.picard_tensor(M, -1, qcurve)
            back = mk.picard_tensor(down, +1, qcurve)
            assert mk.is_stably_isomorphic(back, M).status == "yes", kind
            # Shift-twist compatibility holds on the nose.
            assert mk.shift_mf(M, 2) == mk.twist_mf(M, 3)
            assert mk.shift_mf(mk.shift_mf(M, 1), 1) == mk.twist_mf(M, 3)

    announce(
        capsys,
        7,
        "the degree -1/+1 Picard actions invert each other on every catalog "
        "object and double shift equals twist by 3",
        body,
    )


def test_criterion_08_non_isomorphism(capsys, qcurve, qpoints):
    def body():
        pairs = list(itertools.combinations(qpoints, 2))
        assert len(pairs) == 10
        for p, q in pairs:
            kp = mk.catalog_mf(qcurve, "point", p)
            kq = mk.catalog_mf(qcurve, "point", q)
            for shift in range(-3, 4):
                assert mk.stable_hom_dim(kp, kq, shift=shift) == 0
                assert mk.stable_hom_dim(kq, kp, shift=shift) == 0
        # Self-Hom support of every indecomposable object is confined to at
        # most two consecutive shifts inside [-2, 2].
        for kind in mk.CATALOG_KINDS:
            if kind == "trivial":
                continue
            M = mk.catalog_mf(qcurve, kind, qpoints[0] if kind in mk.POINT_KINDS else None)
            dims = [mk.stable_hom_dim(M, M, shift=i) for i in range(-3, 4)]
            support = [i - 3 for i, d in enumerate(dims) if d > 0]
            assert dims[0] == 0 and dims[6] == 0
            assert len(support) <= 2
            if len(support) == 2:
                assert support[1] - support[0] == 1

    announce(
        capsys,
        8,
        "distinct points have vanishing stable Homs in shifts -3..3 and "
        "self-Hom support is two consecutive shifts",
        body,
    )


def test_criterion_09_size_bound(capsys, qcurve, qpoints):
    def body():
        for pt in qpoints[:3]:
            report = mk.size_bound_check(qcurve, pt)
            assert report.cone_rank in (5, 6)
            assert report.cone_rank >= 4
            assert report.within_bounds

    announce(
        capsys,
        9,
        "twisted evaluation cones land in the 5x5-or-6x6 window at 3 points",
        body,
    )


def test_criterion_10_almost_split_middle(capsys, qcurve, qpoints):
    def body():
        for M in (
            mk.catalog_mf(qcurve, "point", qpoints[0]),
            mk.fundamental_module_mf(qcurve),
        ):
            middle = mk.ar_middle(M, qcurve)
            cok = mk.cokernel_module(M)
            for i in range(0, 11):
                assert mk.hilbert_function(middle, i) == 2 * mk.hilbert_function(
                    cok, i
                )

    announce(
        capsys,
        10,
        "almost-split middle terms double the cokernel Hilbert function up "
        "to degree 10",
        body,
    )
