"""Reusable evaluation morphisms whose mapping cones realise line-bundle objects.

Each generator returns a strict morphism between catalog factorisations whose
reduced mapping cone is stably isomorphic to a shifted catalog object:

* ``e-plus-p``:  O(-e) -> k(p),   cone ~ Phi(O(-e-p))[1]   (2x2)
* ``2e``:        O(-e) -> k(e),   cone ~ Phi(O(-2e))[1]    (2x2)
* ``2e-plus-p``: O(-2e) -> k(p),  cone ~ Phi(O(-2e-p))[1]  (3x3)

It also holds the catalog per field and point (``catalog_objects``), helpers
shared by the Groebner tests, and ``reference_parse``, the polynomial parser
in its one-dict-per-factor form, which the parser tests compare against.
"""

import functools

import mfkit as mk
from mfkit import groebner
from mfkit.errors import ParseError
from mfkit.poly import (
    _OPS,
    MAX_PARSE_DEPTH,
    MAX_PARSE_DEGREE,
    MAX_PARSE_PRODUCTS,
    Poly,
    PolyRing,
    _add_products,
    _add_terms,
    _tokenize,
)

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


def refreshed(M):
    """A new instance with M's matrices, whose verdict nothing has read."""
    return mk.MatrixFactorization(M.ring, M.f, M.alpha, M.beta)


def fresh_violations(M):
    """`_violations` of `refreshed(M)`: the check runs even where M
    inherited a clean verdict."""
    return mk.mf._violations(refreshed(M))


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


class _ReferenceParser:
    """The descent `poly._Parser` replaced, kept as its test oracle: every
    factor, one-term or not, is its own term dict.  Recursive descent over
    the tokens, ending in a None sentinel.

    Every value is a term dict {exponent tuple: nonzero coefficient} that no
    other value shares (x^0 is a new {exp0: one} each time), so a sum adds
    into its first term's dict and a sign or a division scales its dict in
    place.  Products go through _add_products and sums through _add_terms,
    the term loops of Poly arithmetic, so the result's terms come in the
    same order as with Poly operands.  Each product of values with m and n
    terms is charged m·n term products against the budget before it is
    formed, so a nonzero constant or monomial counts 1 and zero 0.
    """

    __slots__ = ("tokens", "i", "ring", "char", "exp0", "one", "budget", "depth")

    def __init__(self, tokens: list, ring: PolyRing):
        self.tokens = tokens + [None]
        self.i = 0
        self.ring = ring
        self.char = ring.field.char
        self.exp0 = (0,) * ring.nvars
        self.one = ring.field.one
        self.budget = MAX_PARSE_PRODUCTS
        self.depth = 0

    def mul(self, v: dict, w: dict) -> dict:
        self.budget -= len(v) * len(w)
        if self.budget < 0:
            raise ParseError(f"polynomial text needs more than {MAX_PARSE_PRODUCTS} term products")
        out: dict = {}
        _add_products(out, v, w, self.char)
        return out

    def scale(self, v: dict, c) -> dict:
        char = self.char
        for e, a in v.items():
            v[e] = a * c % char if char else a * c
        return v

    def expr(self) -> dict:
        v = self.term()
        tokens = self.tokens
        while tokens[self.i] in ("+", "-"):
            sign = -1 if tokens[self.i] == "-" else 1
            self.i += 1
            _add_terms(v, self.term(), self.char, sign)
        return v

    def term(self) -> dict:
        v = self.factor()
        tokens = self.tokens
        while tokens[self.i] in ("*", "/"):
            op = tokens[self.i]
            self.i += 1
            w = self.factor()
            if op == "*":
                if max(map(sum, v), default=0) + max(map(sum, w), default=0) > MAX_PARSE_DEGREE:
                    raise ParseError(f"product of degree above {MAX_PARSE_DEGREE} in polynomial")
                v = self.mul(v, w)
            elif len(w) != 1 or self.exp0 not in w:
                raise ParseError("division only by nonzero constants")
            else:
                c, div = w[self.exp0], self.ring.field.div
                v = {e: div(a, c) for e, a in v.items()}
        return v

    def factor(self) -> dict:
        tokens = self.tokens
        minus = False
        while tokens[self.i] in ("-", "+"):
            minus ^= tokens[self.i] == "-"
            self.i += 1
        v = self.atom()
        if tokens[self.i] == "^":
            n = tokens[self.i + 1]
            self.i += 2
            if type(n) is not int:
                raise ParseError("exponent must be a nonnegative integer")
            if n > MAX_PARSE_DEGREE or max(map(sum, v), default=0) * n > MAX_PARSE_DEGREE:
                raise ParseError(f"power of degree or exponent above {MAX_PARSE_DEGREE} in polynomial")
            # n products from one, each charged as a product
            out = {self.exp0: self.one}
            for _ in range(n):
                out = self.mul(out, v)
            v = out
        return self.scale(v, -1) if minus else v

    def atom(self) -> dict:
        tok = self.tokens[self.i]
        self.i += 1
        if type(tok) is int:
            c = tok % self.char if self.char else tok
            return {self.exp0: c} if c else {}
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_PARSE_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_PARSE_DEPTH} in polynomial")
            v = self.expr()
            if self.tokens[self.i] != ")":
                raise ParseError("unbalanced parentheses")
            self.i += 1
            self.depth -= 1
            return v
        if tok is None or tok in _OPS:
            raise ParseError(f"unexpected token {tok!r} in polynomial")
        index = self.ring._index
        if tok not in index:
            raise ParseError(f"unknown variable {tok!r} in ring {self.ring.vars}")
        exp = list(self.exp0)
        exp[index[tok]] = 1
        return {tuple(exp): self.one}


def reference_parse(text: str, ring: PolyRing) -> Poly:
    """`poly.parse_poly` on the reference descent: the same tokens, trailing
    input check and messages, every factor its own term dict."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    parser = _ReferenceParser(tokens, ring)
    terms = parser.expr()
    if parser.i != len(tokens):
        rest = [
            ("int" if type(t) is int else "op" if t in _OPS else "name", t)
            for t in tokens[parser.i:]
        ]
        raise ParseError(f"trailing input after polynomial: {rest}")
    return Poly(ring, terms)
