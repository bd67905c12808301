"""Curves, points, the object catalog, and the derived-category operations."""

import json
from fractions import Fraction

import pytest

import mfkit as mk
from mfkit.fields import Field, QQ

from fixtures import catalog_objects, fresh_violations


# ---------------------------------------------------------------------------
# curves and points


def test_default_curve():
    c = mk.default_curve()
    assert c.a == Fraction(0) and c.b == Fraction(1)
    assert c.f == c.ring.parse("Y^2*Z - X^3 - Z^3")


def test_singular_curves_rejected():
    with pytest.raises(mk.InputError):
        mk.curve_new(QQ, 0, 0)
    # 4a^3 + 27b^2 = 0 for (a, b) = (-3, 2).
    with pytest.raises(mk.InputError):
        mk.curve_new(QQ, -3, 2)


@pytest.mark.parametrize("a, b", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_every_curve_over_gf2_is_rejected(a, b):
    # in characteristic 2 every y^2z = x^3 + axz^2 + bz^3 is singular at (a : b : 1),
    # whatever 4a^3 + 27b^2 is
    with pytest.raises(mk.InputError, match="characteristic 2"):
        mk.curve_new(Field(2), a, b)


def test_point_membership_is_validated():
    c = mk.default_curve()
    pt = mk.point_on(c, 2, 3)
    assert (pt.lam, pt.mu) == (Fraction(2), Fraction(3))
    with pytest.raises(mk.InputError):
        mk.point_on(c, 0, 2)


def test_default_points_are_distinct_and_on_curve(curve, points):
    assert len(points) == 5
    assert len({(p.lam, p.mu) for p in points}) == 5
    for p in points:
        mk.point_on(curve, p.lam, p.mu)


def test_pe_poly_refuses_a_point_off_the_curve():
    # built by hand, so point_on's own check never sees it
    for char in (0, 101):
        curve = mk.default_curve(Field(char))
        with pytest.raises(mk.InputError, match="point does not lie on the curve cone"):
            mk.pe_poly(curve, mk.CurvePoint(curve.field.of(1), curve.field.of(1)))


def test_curve_potential_is_built_once_and_curve_is_frozen():
    curve = mk.curve_new(Field(101), 2, 3)
    X, Y, Z = curve.ring.gens()
    assert curve.f == Y * Y * Z - X * X * X - X * Z * Z * 2 - Z * Z * Z * 3
    assert curve.f is curve.f
    assert curve == mk.curve_new(Field(101), 2, 3)
    with pytest.raises(AttributeError):
        curve.a = 5


def test_point_polynomial_identity(curve, points):
    ring = curve.ring
    X, Y, Z = ring.gens()
    for pt in points:
        pe = mk.pe_poly(curve, pt)
        lhs = (X - Z.scale(pt.lam)) * pe + Z * (Y * Y - (Z * Z).scale(
            curve.field.mul(pt.mu, pt.mu)
        ))
        assert lhs == curve.f


def test_rational_point_enumeration():
    c = mk.default_curve(Field(101))
    pts = mk.rational_points(c)
    assert len(pts) == 101
    f101 = Field(101)
    for p in pts:
        rhs = f101.add(
            f101.add(f101.mul(f101.mul(p.lam, p.lam), p.lam), f101.mul(c.a, p.lam)),
            c.b,
        )
        assert f101.mul(p.mu, p.mu) == rhs
    # Deterministic ordering: coordinates ascending.
    assert pts == mk.rational_points(c)
    keys = [(p.lam, p.mu) for p in pts]
    assert keys == sorted(keys)


def test_curve_recovery_from_potential():
    for a, b in ((0, 1), (-1, 1), (2, 3)):
        c = mk.curve_new(QQ, a, b)
        c2 = mk.curve_from_potential(c.f)
        assert (c2.a, c2.b) == (c.a, c.b)
    ring = mk.default_curve().ring
    X, Y, Z = ring.gens()
    with pytest.raises(mk.InputError):
        mk.curve_from_potential(X**3)
    with pytest.raises(mk.InputError):
        mk.curve_from_potential(mk.default_curve().f + X * Y * Z)
    # a Weierstrass cubic in variables other than X, Y, Z, and one whose
    # Y^2Z coefficient is not 1
    U, V, W = mk.PolyRing(QQ, ("a", "b", "c")).gens()
    for f in (V * V * W - U**3 - W**3, (Y * Y * Z).scale(2) - X**3 - Z**3):
        with pytest.raises(mk.InputError, match="Weierstrass shape"):
            mk.curve_from_potential(f)


# ---------------------------------------------------------------------------
# the catalog


def test_catalog_kinds_all_verify(curve, points):
    for kind in mk.CATALOG_KINDS:
        pt = points[0] if kind in mk.POINT_KINDS else None
        M = mk.catalog_mf(curve, kind, pt)
        assert mk.verify_mf(M) == [], kind


def test_catalog_over_prime_field(curve101):
    pts = mk.rational_points(curve101)
    for kind in mk.CATALOG_KINDS:
        pt = pts[7] if kind in mk.POINT_KINDS else None
        M = mk.catalog_mf(curve101, kind, pt)
        assert mk.verify_mf(M) == [], kind


def test_catalog_shapes(curve, points):
    shapes = {
        "point": (2, [3, 4], [2, 2]),
        "point-e": (2, [3, 4], [2, 2]),
        "lb-minus-p": (2, [4, 4], [2, 3]),
        "lb-minus-e": (2, [4, 4], [2, 3]),
        "lb-e-plus-p": (2, [5, 4], [3, 3]),
        "lb-2e": (2, [5, 4], [3, 3]),
        "lb-2e-plus-p": (3, [5, 5, 5], [3, 3, 3]),
        "structure-sheaf": (4, [3, 4, 4, 4], [2, 2, 2, 3]),
        "fundamental": (4, [3, 4, 4, 4], [2, 2, 2, 3]),
        "trivial": (1, [0], [0]),
    }
    for kind, (rank, p0, p1) in shapes.items():
        pt = points[0] if kind in mk.POINT_KINDS else None
        M = mk.catalog_mf(curve, kind, pt)
        assert (M.rank, M.p0, M.p1) == (rank, p0, p1), kind


def _literal_lb_minus(curve, kind, pt=None):
    """O(-e) and O(-p) as written out entry by entry, before they were built
    from point-e and point with the shift and twist functors."""
    ring, fld = curve.ring, curve.field
    X, Y, Z = ring.gens()
    a, b = curve.a, curve.b
    if kind == "lb-minus-e":
        aZZ = (Z * Z).scale(a)
        bZZ = (Z * Z).scale(b)
        alpha = [[-(X * X) - aZZ, bZZ - Y * Y], [-Z, -X]]
        beta = [[X, bZZ - Y * Y], [-Z, X * X + aZZ]]
    else:
        lam, mu = pt.lam, pt.mu
        pe = -(X * X) - (X * Z).scale(lam) - (Z * Z).scale(fld.add(a, fld.mul(lam, lam)))
        XmlZ, YmmZ, YpmZ = X - Z.scale(lam), Y - Z.scale(mu), Y + Z.scale(mu)
        alpha = [[pe, -(Z * YpmZ)], [YmmZ, XmlZ]]
        beta = [[XmlZ, Z * YpmZ], [-YmmZ, pe]]
    return mk.MatrixFactorization(
        ring,
        curve.f,
        mk.GradedMatrix(ring, [2, 3], [4, 4], alpha),
        mk.GradedMatrix(ring, [1, 1], [2, 3], beta),
    )


@pytest.mark.parametrize(
    "fld, a, lam, mu",
    [(Field(101), 0, 0, 1), (Field(101), 2, 3, 7), (Field(7), 0, 2, 3), (QQ, 0, 0, 1), (QQ, -1, -2, 1)],
)
def test_line_bundles_minus_a_point_are_shifted_twisted_skyscrapers(fld, a, lam, mu):
    # b puts (lam, mu) on y^2 = x^3 + a*x + b
    b = fld.sub(fld.mul(fld.of(mu), fld.of(mu)), fld.add(fld.of(lam**3), fld.mul(fld.of(a), fld.of(lam))))
    curve = mk.curve_new(fld, a, b)
    pt = mk.point_on(curve, lam, mu)
    for kind in ("lb-minus-e", "lb-minus-p"):
        M, ref = mk.catalog_mf(curve, kind, pt), _literal_lb_minus(curve, kind, pt)
        assert M == ref, kind
        assert json.dumps(mk.catalog_entry_dict(kind, curve, pt, M)) == json.dumps(mk.catalog_entry_dict(kind, curve, pt, ref))
    with pytest.raises(mk.InputError, match="lb-minus-p"):
        mk.catalog_mf(curve, "lb-minus-p")


def test_point_kinds_require_a_point(curve):
    for kind in mk.POINT_KINDS:
        with pytest.raises(mk.InputError):
            mk.catalog_mf(curve, kind)


def test_unknown_kind_rejected(curve):
    with pytest.raises(mk.InputError):
        mk.catalog_mf(curve, "banana")


def test_fundamental_module_equals_structure_sheaf_object(curve):
    assert mk.fundamental_module_mf(curve) == mk.catalog_mf(curve, "structure-sheaf")


def test_distinct_points_give_distinct_objects(curve, points):
    A = mk.catalog_mf(curve, "point", points[0])
    B = mk.catalog_mf(curve, "point", points[1])
    assert A != B
    assert mk.is_stably_isomorphic(A, B).status == "no"


# ---------------------------------------------------------------------------
# Picard action, duality, AR middle, size bound


def test_picard_round_trip_on_a_point(curve, points):
    M = mk.catalog_mf(curve, "point", points[0])
    down = mk.picard_tensor(M, -1, curve)
    up = mk.picard_tensor(down, +1, curve)
    assert mk.is_stably_isomorphic(up, M).status == "yes"


def test_the_structure_sheaf_is_built_once_per_curve(monkeypatch):
    # picard_tensor, duality_image and size_bound_check twist along the
    # curve's O, which catalog_mf builds and checks on first read only
    built = []
    catalog = mk.catalog.catalog_mf
    monkeypatch.setattr(mk.catalog, "catalog_mf", lambda c, kind, pt=None: built.append(kind) or catalog(c, kind, pt))
    curve = mk.curve_new(Field(101), 2, 3)
    pt = mk.default_points(curve, 1)[0]
    M = catalog(curve, "point", pt)
    down = mk.picard_tensor(M, -1, curve)
    mk.picard_tensor(down, +1, curve)
    assert built == ["structure-sheaf"]
    mk.duality_image(M, curve)
    mk.size_bound_check(curve, pt)
    assert built == ["structure-sheaf", "point"]
    assert curve.structure_sheaf is curve.structure_sheaf
    assert mk.verify_mf(curve.structure_sheaf) == []
    assert curve.structure_sheaf == catalog(curve, "structure-sheaf")


def test_picard_degree_moves_rank(curve):
    O = mk.catalog_mf(curve, "structure-sheaf")
    up = mk.picard_tensor(O, -1, curve)
    assert fresh_violations(up) == []


def test_duality_on_point_object(curve, points):
    M = mk.catalog_mf(curve, "point", points[0])
    D = mk.duality_image(M, curve)
    assert fresh_violations(D) == []
    assert mk.is_stably_isomorphic(D, mk.shift_mf(M, -1)).status == "yes"


def test_duality_fixes_structure_sheaf(curve):
    O = mk.catalog_mf(curve, "structure-sheaf")
    D = mk.duality_image(O, curve)
    assert mk.is_stably_isomorphic(D, O).status == "yes"


def test_ar_middle_hilbert_doubling(curve, points):
    M = mk.catalog_mf(curve, "point", points[0])
    mid = mk.ar_middle(M, curve)
    cok = mk.cokernel_module(M)
    for i in range(0, 7):
        assert mk.hilbert_function(mid, i) == 2 * mk.hilbert_function(cok, i)


def test_ar_middle_rejects_stably_trivial_input(curve):
    T = mk.trivial_mf(curve.ring, curve.f)
    with pytest.raises(mk.InputError):
        mk.ar_middle(T, curve)


CURVE_POINTS = [(0, 0, 1), (101, 2, 3)]
NONTRIVIAL_KINDS = [k for k in mk.CATALOG_KINDS if k != "trivial"]


def _shape(P):
    """Ambient and relation twist multisets and the Hilbert function in
    degrees -6..10."""
    return (
        sorted(P.ambient),
        sorted(P.relations.source_twists),
        [mk.hilbert_function(P, i) for i in range(-6, 11)],
    )


@pytest.mark.parametrize("char, lam, mu", CURVE_POINTS)
def test_ar_middle_matches_auslanders_formula(char, lam, mu):
    # The almost-split middle is Hom_A(M*, E), E the fundamental module and
    # M* the cokernel of the transposed reduced factorisation; for every
    # catalog brick ar_middle takes the cone route instead, so the two agree
    # only if that route is right.
    curve, objs = catalog_objects(char, lam, mu)
    E = mk.cokernel_module(mk.fundamental_module_mf(curve))
    for kind in NONTRIVIAL_KINDS:
        Mr = mk.reduce_mf(objs[kind])
        auslander = mk.hom_presentation(mk.cokernel_module(mk.transpose_mf(Mr)), E)
        assert _shape(mk.ar_middle(objs[kind], curve)) == _shape(auslander), kind


@pytest.mark.parametrize("char, lam, mu", CURVE_POINTS)
def test_dual_module_is_the_cokernel_of_the_transposed_factorisation(char, lam, mu):
    curve, objs = catalog_objects(char, lam, mu)
    A = mk.Presentation.free(curve.ring, curve.f, [0])
    for kind in NONTRIVIAL_KINDS:
        M = objs[kind]
        dual = mk.cokernel_module(mk.transpose_mf(M))
        hom = mk.hom_presentation(mk.cokernel_module(M), A)
        assert sorted(dual.ambient) == sorted(hom.ambient), kind
        for i in range(-6, 11):
            assert mk.hilbert_function(dual, i) == mk.hilbert_function(hom, i), (kind, i)


@pytest.mark.parametrize("char, lam, mu", CURVE_POINTS)
def test_ar_middle_builds_a_hom_presentation_only_for_non_bricks(monkeypatch, char, lam, mu):
    from mfkit import catalog

    calls = []

    def refused(P, Q):
        raise AssertionError("a brick's middle needs no Hom presentation")

    def counted(P, Q):
        calls.append((P, Q))
        return mk.hom_presentation(P, Q)

    curve, objs = catalog_objects(char, lam, mu)
    monkeypatch.setattr(catalog, "hom_presentation", refused)
    for kind in NONTRIVIAL_KINDS:
        mk.ar_middle(objs[kind], curve)

    # k(p) ⊕ k(-p), and Atiyah's F_2, the reduced cone over the spanning map
    # O[-1] → O: each has a 2-dimensional stable Hom(M[-1], M)
    fld = curve.field
    q = mk.point_on(curve, fld.of(lam), fld.neg(fld.of(mu)))
    O = objs["structure-sheaf"]
    non_bricks = {
        "k(p)+k(q)": mk.direct_sum_mf(objs["point"], mk.catalog_mf(curve, "point", q)),
        "F_2": mk.reduce_mf(mk.cone_mf(mk.hom_space(mk.shift_mf(O, -1), O).basis[0])),
    }
    monkeypatch.setattr(catalog, "hom_presentation", counted)
    for name, M in non_bricks.items():
        assert mk.stable_hom_dim(M, M, shift=-1) == 2, name
        calls.clear()
        mid = mk.ar_middle(M, curve)
        assert len(calls) == 1, name
        cok = mk.cokernel_module(M)
        for i in range(11):
            assert mk.hilbert_function(mid, i) == 2 * mk.hilbert_function(cok, i), (name, i)


def test_size_bound_report(curve, points):
    rep = mk.size_bound_check(curve, points[0])
    assert rep.hom_dim == 1
    assert rep.cone_rank in (5, 6)
    assert rep.cone_rank >= 4
    assert rep.within_bounds
    assert fresh_violations(rep.cone) == []
