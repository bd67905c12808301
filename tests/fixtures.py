"""Reusable evaluation morphisms whose mapping cones realise line-bundle objects.

Each generator returns a strict morphism between catalog factorisations whose
reduced mapping cone is stably isomorphic to a shifted catalog object:

* ``e-plus-p``:  O(-e) -> k(p),   cone ~ Phi(O(-e-p))[1]   (2x2)
* ``2e``:        O(-e) -> k(e),   cone ~ Phi(O(-2e))[1]    (2x2)
* ``2e-plus-p``: O(-2e) -> k(p),  cone ~ Phi(O(-2e-p))[1]  (3x3)
"""

import functools

import mfkit as mk
from mfkit import groebner

CONE_CASES = ("e-plus-p", "2e", "2e-plus-p")

# which -> (source kind, target kind, cone-target kind, reduced cone rank)
CONE_SHAPES = {
    "e-plus-p": ("lb-minus-e", "point", "lb-e-plus-p", 2),
    "2e": ("lb-minus-e", "point-e", "lb-2e", 2),
    "2e-plus-p": ("lb-2e", "point", "lb-2e-plus-p", 3),
}


@functools.cache
def catalog_objects(char, lam, mu):
    """The curve y^2 = x^3 + b through (lam, mu) over GF(char), or Q when char
    is 0, and its catalog as {kind: object} at that point.  The default curve
    (b = 1) passes through (0, 1) and (2, 3); at (0, 1/2), b = 1/4 and the
    alphas have denominators 2 and 4 over Q."""
    fld = mk.Field(char)
    lam, mu = fld.of(lam), fld.of(mu)
    curve = mk.curve_new(fld, 0, mu**2 - lam**3)
    pt = mk.point_on(curve, lam, mu)
    return curve, {
        kind: mk.catalog_mf(curve, kind, pt if kind in mk.POINT_KINDS else None)
        for kind in mk.CATALOG_KINDS
    }


def cone_generator(curve, which, pt=None):
    """Build the evaluation morphism for ``which`` at point ``pt``.

    Returns ``(morphism, target_kind)`` where the reduced cone of the morphism
    is stably isomorphic to ``catalog_mf(curve, target_kind, ...)[1]``.
    """
    ring, fld = curve.ring, curve.field
    X, Y, Z = ring.gens()
    neg_one = ring.const(fld.neg(fld.one))
    if which == "e-plus-p":
        lam, mu = pt.lam, pt.mu
        src = mk.catalog_mf(curve, "lb-minus-e")
        dst = mk.catalog_mf(curve, "point", pt)
        ymz = Y + Z.scale(mu)
        f0 = mk.GradedMatrix(
            ring,
            dst.p0,
            src.p0,
            [[ring.zero(), ymz], [ring.one(), ring.const(lam)]],
        )
        f1 = mk.GradedMatrix(
            ring,
            dst.p1,
            src.p1,
            [
                [ring.zero(), -ymz],
                [ring.one(), X.scale(lam) + Z.scale(fld.mul(lam, lam))],
            ],
        )
    elif which == "2e":
        a = curve.a
        src = mk.catalog_mf(curve, "lb-minus-e")
        dst = mk.catalog_mf(curve, "point-e")
        f0 = mk.GradedMatrix(
            ring, dst.p0, src.p0, [[X, -Z.scale(a)], [ring.zero(), neg_one]]
        )
        f1 = mk.GradedMatrix(
            ring, dst.p1, src.p1, [[neg_one, Z.scale(a)], [ring.zero(), X]]
        )
    elif which == "2e-plus-p":
        lam, mu, a = pt.lam, pt.mu, curve.a
        src = mk.catalog_mf(curve, "lb-2e")
        dst = mk.catalog_mf(curve, "point", pt)
        lam2 = fld.mul(lam, lam)
        big = (
            (Z * Z).scale(fld.mul(lam, mu))
            + X * Y
            + (X * Z).scale(mu)
            + (Y * Z).scale(lam)
        )
        f0 = mk.GradedMatrix(
            ring, dst.p0, src.p0, [[big, ring.zero()], [Z.scale(lam2), ring.one()]]
        )
        f1 = mk.GradedMatrix(
            ring,
            dst.p1,
            src.p1,
            [
                [ring.zero(), -(Y + Z.scale(mu))],
                [X + Z.scale(lam), Z.scale(fld.add(a, lam2))],
            ],
        )
    else:
        raise ValueError(f"unknown cone case {which!r}")
    target_kind = CONE_SHAPES[which][2]
    return mk.MFMorphism(src, dst, f0, f1), target_kind


def cone_target(curve, which, pt=None):
    """The shifted catalog object the reduced cone of ``which`` should match."""
    kind = CONE_SHAPES[which][2]
    need_pt = pt if kind in mk.POINT_KINDS else None
    return mk.shift_mf(mk.catalog_mf(curve, kind, need_pt), 1)


def cuspidal_object():
    """A rank-2 factorisation of the cuspidal cubic Y²Z − X³ over Q: a
    Weierstrass potential whose curve is singular."""
    ring = mk.PolyRing(mk.Field(0))
    X, Y, Z = ring.gens()
    alpha = mk.GradedMatrix(ring, [2, 1], [3, 3], [[Y, X], [X * X, Y * Z]])
    beta = mk.GradedMatrix(ring, [0, 0], [2, 1], [[Y * Z, -X], [-(X * X), Y]])
    M = mk.MatrixFactorization(ring, Y * Y * Z - X**3, alpha, beta)
    assert mk.verify_mf(M) == []
    return M


def same_basis(a, b):
    """Whether two GroebnerBasis objects agree: equal twists, equal stored
    rows in the same order, and equal decoded elements, keys in the same
    order.  The key order inside a stored row follows the order of
    elimination, so it may differ."""
    return (
        a.twists == b.twists
        and a._rows == b._rows
        and [list(v.items()) for v in a.basis] == [list(v.items()) for v in b.basis]
    )


def counting(monkeypatch, name):
    """Replace mfkit.groebner.<name> by a wrapper that records each call's
    arguments; returns the list it appends to."""
    calls = []
    real = getattr(groebner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, name, wrapper)
    return calls
