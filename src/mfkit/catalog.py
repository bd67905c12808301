"""Weierstrass cone geometry: curves, rational points, the catalog of
small matrix factorisations attached to points and line bundles, and the
curve-level operations (Picard twists, duality, almost-split middles,
size bounds).

The potential is f = Y²Z - X³ - aXZ² - bZ³.  Every catalog entry is verified
against the factorisation axioms at construction time, or is built by the
shift and twist functors from one that is.  The structure sheaf O, which
the Picard twists, duality and the size bound all twist along, is built and
checked once per curve (`WeierstrassCurve.structure_sheaf`); a curve is
frozen, so O cannot change after its check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import InputError
from .fields import QQ, Field
from .homs import cone_mf, hom_space, reduce_mf, twist_functor, inverse_twist_functor
from .mf import (
    MatrixFactorization,
    assert_valid_mf,
    cokernel_module,
    shift_mf,
    smooth_weierstrass,
    transpose_mf,
    trivial_mf,
    twist_mf,
    weierstrass_potential,
)
from .poly import GradedMatrix, Poly, PolyRing
from .resolutions import Presentation, hom_presentation, minimize_presentation

CATALOG_KINDS = (
    "point",
    "point-e",
    "lb-minus-p",
    "lb-minus-e",
    "lb-e-plus-p",
    "lb-2e",
    "lb-2e-plus-p",
    "structure-sheaf",
    "fundamental",
    "trivial",
)

POINT_KINDS = ("point", "lb-minus-p", "lb-e-plus-p", "lb-2e-plus-p")


@dataclass(frozen=True)
class WeierstrassCurve:
    ring: PolyRing
    a: object
    b: object

    @property
    def field(self) -> Field:
        return self.ring.field

    @functools.cached_property
    def f(self) -> Poly:
        """The potential, built on first read; the curve is immutable."""
        return weierstrass_potential(self.ring, self.a, self.b)

    @functools.cached_property
    def structure_sheaf(self) -> MatrixFactorization:
        """O, built and checked by `catalog_mf` on first read, then shared
        by the curve-level operations on this curve."""
        return catalog_mf(self, "structure-sheaf")


def curve_new(field: Field, a, b) -> WeierstrassCurve:
    """Smooth Weierstrass cone y²z = x³ + a·xz² + b·z³ over the field."""
    return curve_from_potential(weierstrass_potential(PolyRing(field), field.of(a), field.of(b)))


@dataclass
class CurvePoint:
    lam: object
    mu: object


def point_on(curve: WeierstrassCurve, lam, mu) -> CurvePoint:
    fld = curve.field
    lam, mu = fld.of(lam), fld.of(mu)
    if fld.of(mu**2 - lam**3 - curve.a * lam - curve.b):
        raise InputError(f"({lam}, {mu}) does not satisfy mu^2 = lam^3 + a*lam + b")
    return CurvePoint(lam, mu)


def pe_poly(curve: WeierstrassCurve, pt: CurvePoint) -> Poly:
    """P_E = -X² - λ·XZ - (a+λ²)·Z², with (X-λZ)·P_E + Z(Y²-μ²Z²) = f.

    The identity holds exactly when the point is on the curve, since
    (X-λZ)·P_E + Z(Y²-μ²Z²) - f = (λ³ + aλ + b - μ²)·Z³.
    """
    lam, mu = pt.lam, pt.mu
    if curve.field.of(lam**3 + curve.a * lam + curve.b - mu**2):
        raise InputError("point does not lie on the curve cone")
    X, Y, Z = curve.ring.gens()
    return -(X * X) - (X * Z).scale(lam) - (Z * Z).scale(curve.a + lam**2)


def default_curve(field: Field = QQ) -> WeierstrassCurve:
    return curve_new(field, 0, 1)


def default_points(curve: WeierstrassCurve, count: int = 3) -> list[CurvePoint]:
    """Up to five canonical rational points, validated on the given curve."""
    seeds = [(0, 1), (2, 3), (0, -1), (2, -3), (-1, 0)]
    points = []
    for lam, mu in seeds:
        try:
            points.append(point_on(curve, lam, mu))
        except InputError:
            continue
        if len(points) == count:
            return points
    raise InputError(f"only found {len(points)} of the requested {count} canonical points")


def rational_points(curve: WeierstrassCurve) -> list[CurvePoint]:
    """All affine rational points over a prime field, ordered by (λ, μ)."""
    p = curve.field.char
    if p == 0:
        raise InputError("point enumeration needs a finite prime field")
    roots: dict[int, list[int]] = {}
    for m in range(p):
        roots.setdefault((m * m) % p, []).append(m)
    a = curve.a % p
    b = curve.b % p
    out = []
    for lam in range(p):
        rhs = (lam * lam * lam + a * lam + b) % p
        for mu in sorted(roots.get(rhs, [])):
            out.append(CurvePoint(lam, mu))
    return out


def curve_from_potential(f: Poly) -> WeierstrassCurve:
    """The curve of a potential of the shape Y²Z - X³ - aXZ² - bZ³, if it
    is smooth (`mf.smooth_weierstrass`)."""
    a, b = smooth_weierstrass(f)
    return WeierstrassCurve(f.ring, a, b)


def _require_point(kind: str, point: CurvePoint | None) -> CurvePoint:
    if point is None:
        raise InputError(f"catalog kind {kind!r} needs a point")
    return point


def catalog_mf(
    curve: WeierstrassCurve, kind: str, point: CurvePoint | None = None
) -> MatrixFactorization:
    """Named rank-one catalog entry; raises InputError on unknown kinds."""
    ring, fld = curve.ring, curve.field
    X, Y, Z = ring.gens()
    a, b = curve.a, curve.b
    kind = kind.replace("_", "-").lower()
    if kind not in CATALOG_KINDS:
        raise InputError(f"unknown catalog kind {kind!r}")
    if kind == "trivial":
        return trivial_mf(ring, curve.f)
    if kind in ("structure-sheaf", "fundamental"):
        aZZ = (Z * Z).scale(a)
        bZZ = (Z * Z).scale(b)
        alpha = [
            [Z, Y * Z, X * X, ring.zero()],
            [-Y, -bZZ, (Y * Z).scale(a), X * X + aZZ],
            [X, ring.zero(), -bZZ - (X * Z).scale(a), -(Y * Z)],
            [ring.zero(), X, Y, Z],
        ]
        beta = [
            [-bZZ - (X * Z).scale(a), -(Y * Z), -(X * X), (Z * Z * Y).scale(a)],
            [Y, Z, ring.zero(), -(X * X) - aZZ],
            [-X, ring.zero(), Z, Y * Z],
            [ring.zero(), -X, -Y, -bZZ],
        ]
        return _assemble(curve, [3, 4, 4, 4], [2, 2, 2, 3], alpha, beta, kind)
    if kind == "point-e":
        aZZ = (Z * Z).scale(a)
        bZZ = (Z * Z).scale(b)
        alpha = [[X, bZZ - Y * Y], [-Z, X * X + aZZ]]
        beta = [[-(X * X) - aZZ, bZZ - Y * Y], [-Z, -X]]
        return _assemble(curve, [3, 4], [2, 2], alpha, beta, kind)
    if kind == "lb-minus-e":
        # O(-e) and O(-p) are their skyscrapers shifted once and twisted by (-2)
        return twist_mf(shift_mf(catalog_mf(curve, "point-e"), 1), -2)
    if kind == "lb-2e":
        alpha = [[(X * Z).scale(a) - Y * Y + (Z * Z).scale(b), -X], [-(X * X), -Z]]
        beta = [[-Z, X], [X * X, (Z * Z).scale(b) - Y * Y + (X * Z).scale(a)]]
        return _assemble(curve, [5, 4], [3, 3], alpha, beta, kind)
    pt = _require_point(kind, point)
    if kind == "lb-minus-p":
        return twist_mf(shift_mf(catalog_mf(curve, "point", pt), 1), -2)
    lam, mu = pt.lam, pt.mu
    pe = pe_poly(curve, pt)
    XmlZ = X - Z.scale(lam)
    YmmZ = Y - Z.scale(mu)
    YpmZ = Y + Z.scale(mu)
    if kind == "point":
        alpha = [[XmlZ, Z * YpmZ], [-YmmZ, pe]]
        beta = [[pe, -(Z * YpmZ)], [YmmZ, XmlZ]]
        return _assemble(curve, [3, 4], [2, 2], alpha, beta, kind)
    if kind == "lb-e-plus-p":
        alpha = [[pe, -YpmZ], [-(Z * YmmZ), -XmlZ]]
        beta = [[XmlZ, -YpmZ], [-(Z * YmmZ), -pe]]
        return _assemble(curve, [5, 4], [3, 3], alpha, beta, kind)
    # kind == "lb-2e-plus-p"
    apl2 = fld.add(a, fld.mul(lam, lam))
    alpha = [
        [
            pe,
            -(Z * YpmZ),
            (Z * Z).scale(fld.mul(lam, mu)) + X * Y + (X * Z).scale(mu) + (Y * Z).scale(lam),
        ],
        [-(X * YmmZ), -(X * XmlZ), -(X * Z).scale(apl2) + Y * Y - (Z * Z).scale(b)],
        [-(Z * YmmZ), -(Z * XmlZ), X * X - (Z * Z).scale(fld.mul(lam, lam))],
    ]
    beta = [
        [XmlZ, ring.zero(), -YpmZ],
        [-YmmZ, X + Z.scale(lam), Z.scale(apl2)],
        [ring.zero(), Z, -X],
    ]
    return _assemble(curve, [5, 5, 5], [3, 3, 3], alpha, beta, kind)


def _assemble(curve, p0, p1, alpha_entries, beta_entries, kind) -> MatrixFactorization:
    ring = curve.ring
    alpha = GradedMatrix(ring, list(p1), list(p0), alpha_entries)
    beta = GradedMatrix(ring, [t - 3 for t in p0], list(p1), beta_entries)
    M = MatrixFactorization(ring, curve.f, alpha, beta)
    assert_valid_mf(M, f"catalog entry {kind!r}")
    return M


def fundamental_module_mf(curve: WeierstrassCurve) -> MatrixFactorization:
    return catalog_mf(curve, "fundamental")


# --- curve-level operations --------------------------------------------------


def _curve_for(M: MatrixFactorization, curve: WeierstrassCurve | None) -> WeierstrassCurve:
    if curve is not None:
        if curve.f != M.f:
            raise InputError("factorisation potential does not match the given curve")
        return curve
    return curve_from_potential(M.f)


def picard_tensor(
    M: MatrixFactorization, n: int, curve: WeierstrassCurve | None = None
) -> MatrixFactorization:
    """Tensor with the degree-n piece of the Picard action: n = -1 is the
    twist functor along the structure sheaf followed by (-1), and n = +1 its
    inverse; general n iterates."""
    curve = _curve_for(M, curve)
    O = curve.structure_sheaf
    out = M
    while n < 0:
        out = twist_mf(twist_functor(O, out), -1)
        n += 1
    while n > 0:
        out = inverse_twist_functor(O, twist_mf(out, 1))
        n -= 1
    return out


def duality_image(
    M: MatrixFactorization, curve: WeierstrassCurve | None = None
) -> MatrixFactorization:
    """Composite of the structure-sheaf twist with transposition; reduced,
    since the twist is and transposition keeps a factorisation reduced."""
    curve = _curve_for(M, curve)
    return transpose_mf(twist_functor(curve.structure_sheaf, M))


def ar_middle(M: MatrixFactorization, curve: WeierstrassCurve | None = None) -> Presentation:
    """Middle term Y of the almost-split extension of coker(beta).

    omega_A = A, so tau = id and the almost-split sequence of a brick M is
    0 → M → Y → M → 0 for any nonzero class in Ext¹(M, M) ≅ stable
    Hom(M[-1], M) (Yoshino, LMS LN 146 (1990), ch. 11–12).  When that Hom
    is 1-dimensional, End(M) = k and its spanning phi is that class; the
    triangle M[-1] → M → cone(phi) → M gives the sequence on cokernels, so
    Y = coker(beta) of the cone.  The cone is taken unreduced: coker(beta)
    of a trivial summand (1, f) is the free module A, so the trivial
    summands that reduce_mf would drop are the free summands of Y (one for
    the structure sheaf and the fundamental module).

    A larger Ext¹ (a decomposable M, or Atiyah's F_h with h >= 2) leaves the
    class to be chosen in the socle of Ext¹ over End(M); there Y is
    Hom(M*, E) with E the fundamental module, where M* = Hom_A(coker beta, A)
    = ker beta^t = im alpha^t ≅ coker beta^t is the cokernel of the
    transposed reduced factorisation."""
    curve = _curve_for(M, curve)
    Mr = reduce_mf(M)
    if Mr.rank == 0:
        raise InputError("almost-split middle needs a nonzero stable object")
    ext = hom_space(shift_mf(Mr, -1), Mr)
    if ext.stable_dim == 1:
        return minimize_presentation(cokernel_module(cone_mf(ext.basis[0])))
    mstar = cokernel_module(transpose_mf(Mr))
    return hom_presentation(mstar, cokernel_module(fundamental_module_mf(curve)))


@dataclass
class SizeBoundReport:
    hom_dim: int
    cone_rank: int
    within_bounds: bool
    cone: MatrixFactorization


def size_bound_check(curve: WeierstrassCurve, point: CurvePoint) -> SizeBoundReport:
    """Cone over a stable morphism Φ𝒪(-3e) → Φκ(p): the reduced cone stays
    within the predicted size window 4 <= rank <= 6."""
    X3 = twist_mf(curve.structure_sheaf, -1)
    kp = catalog_mf(curve, "point", point)
    hom = hom_space(X3, kp)
    if hom.stable_dim < 1:
        raise InputError("expected a nonzero stable morphism to the point object")
    phi = hom.basis[0]
    reduced = reduce_mf(cone_mf(phi))
    ok = 4 <= reduced.rank <= 6
    return SizeBoundReport(hom.stable_dim, reduced.rank, ok, reduced)
