"""JSON envelopes for factorisations, morphisms, and module presentations.

Loading is deliberately permissive about mathematical validity: a
structurally well-formed envelope always loads, and verify_mf reports any
per-cell violations afterwards, so tampered files are diagnosed rather than
rejected at parse time.  The loaders share one object-and-keys check, one
ring-and-potential reader and one integer reader for twists and shifts.
"""

from __future__ import annotations

import re

from .errors import ParseError, ValidationError
from .fields import QQ, Field
from .groebner import DEGREE_BITS
from .homs import MFMorphism
from .mf import MatrixFactorization, shift_mf, verify_mf
from .poly import GradedMatrix, Poly, PolyRing, format_poly
from .resolutions import Presentation

_FIELD_RATIONAL = {"q", "qq", "rational", "rationals", "0"}
MAX_TWIST = (1 << DEGREE_BITS) - 1  # twists are degrees, which a Gröbner pass keeps below 2^DEGREE_BITS


def parse_field_token(token) -> Field:
    """Lenient field spec: Q/QQ/rationals, or a prime via GF(p), Fp:p, F_p, p."""
    if isinstance(token, Field):
        return token
    if isinstance(token, bool):
        raise ParseError(f"unrecognised field spec {token!r}")
    text = str(token).strip().lower()
    if text in _FIELD_RATIONAL:
        return QQ
    m = re.fullmatch(r"(?:gf|fp|f)?[_:(\s]*([0-9]+)\s*\)?", text)
    if not m:
        raise ParseError(f"unrecognised field spec {token!r}")
    p = int(m.group(1))
    if p == 0:
        return QQ
    try:
        return Field(p)
    except Exception as exc:
        raise ParseError(f"unrecognised field spec {token!r}: {exc}") from exc


def field_name(field: Field) -> str:
    return "QQ" if field.char == 0 else f"GF({field.char})"


def ring_to_dict(ring: PolyRing) -> dict:
    return {"vars": list(ring.vars), "field": field_name(ring.field), "char": ring.field.char}


def ring_from_dict(data) -> PolyRing:
    if not isinstance(data, dict):
        raise ParseError("ring must be an object with vars/field/char")
    field = parse_field_token(data.get("field", data.get("char", "QQ")))
    if "char" in data and str(data["char"]).strip() != str(field.char):
        raise ParseError("ring char does not match the field spec")
    names = data.get("vars", ["X", "Y", "Z"])
    if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
        raise ParseError("ring vars must be a list of variable names")
    try:
        return PolyRing(field, names)
    except ValueError as exc:
        raise ParseError(f"bad ring vars: {exc}") from exc


def _matrix_rows(mat: GradedMatrix) -> list[list[str]]:
    return [[format_poly(e) for e in row] for row in mat.entries]


def _matrix_from_rows(ring: PolyRing, target, source, rows) -> GradedMatrix:
    if not isinstance(rows, list) or any(
        not isinstance(r, list) or any(not isinstance(e, str) for e in r) for r in rows
    ):
        raise ParseError("matrix must be a list of rows of polynomial strings")
    if len(rows) != len(target) or any(len(r) != len(source) for r in rows):
        raise ParseError(
            f"matrix shape {len(rows)}x{len(rows[0]) if rows else 0} does not match twists "
            f"{len(target)}x{len(source)}"
        )
    return GradedMatrix.from_strings(ring, list(target), list(source), rows)


def _int(value, what: str, message: str) -> int:
    """A twist or shift: an int, not a bool, of absolute value at most MAX_TWIST."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(message)
    if abs(value) > MAX_TWIST:
        raise ParseError(f"{what} must be below 2^{DEGREE_BITS} in absolute value")
    return value


def _int_list(value, what: str) -> list[int]:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list of integers")
    return [_int(v, f"{what} entries", f"{what} must be a list of integers") for v in value]


def _envelope(data, what: str, keys) -> None:
    if not isinstance(data, dict):
        raise ParseError(f"{what} envelope must be a JSON object")
    for key in keys:
        if key not in data:
            raise ParseError(f"{what} envelope is missing {key!r}")


def _ring_and_potential(data) -> tuple[PolyRing, Poly]:
    ring = ring_from_dict(data["ring"])
    try:
        return ring, ring.parse(data["f"])
    except (ParseError, TypeError) as exc:  # TypeError: f is not a string
        raise ParseError(f"cannot parse potential: {exc}") from exc


def mf_to_dict(M: MatrixFactorization) -> dict:
    return {
        "ring": ring_to_dict(M.ring),
        "f": format_poly(M.f),
        "d": 3,
        "p0_twists": list(M.p0),
        "p1_twists": list(M.p1),
        "alpha": _matrix_rows(M.alpha),
        "beta": _matrix_rows(M.beta),
    }


def mf_from_dict(data) -> MatrixFactorization:
    _envelope(data, "factorisation", ("ring", "f", "p0_twists", "p1_twists", "alpha", "beta"))
    if data.get("d", 3) != 3:
        raise ParseError("only potentials of degree d = 3 are supported")
    ring, f = _ring_and_potential(data)
    p0 = _int_list(data["p0_twists"], "p0_twists")
    p1 = _int_list(data["p1_twists"], "p1_twists")
    alpha = _matrix_from_rows(ring, p1, p0, data["alpha"])
    beta = _matrix_from_rows(ring, [a - 3 for a in p0], p1, data["beta"])
    return MatrixFactorization(ring, f, alpha, beta)


def morphism_to_dict(phi: MFMorphism) -> dict:
    return {
        "source": mf_to_dict(phi.source),
        "target": mf_to_dict(phi.target),
        "shift": 0,
        "f0": _matrix_rows(phi.f0),
        "f1": _matrix_rows(phi.f1),
    }


def morphism_from_dict(data) -> MFMorphism:
    _envelope(data, "morphism", ("source", "target", "f0", "f1"))
    source = mf_from_dict(data["source"])
    target = mf_from_dict(data["target"])
    source = shift_mf(source, _int(data.get("shift", 0), "shift", "shift must be an integer"))
    if source.ring != target.ring:
        raise ParseError("morphism source and target use different rings")
    f0 = _matrix_from_rows(source.ring, target.p0, source.p0, data["f0"])
    f1 = _matrix_from_rows(source.ring, target.p1, source.p1, data["f1"])
    return MFMorphism(source, target, f0, f1)


def presentation_to_dict(P: Presentation) -> dict:
    return {
        "ring": ring_to_dict(P.ring),
        "f": format_poly(P.f),
        "ambient_twists": list(P.ambient),
        "relation_twists": list(P.relations.source_twists),
        "relations": _matrix_rows(P.relations),
    }


def presentation_from_dict(data) -> Presentation:
    _envelope(data, "presentation", ("ring", "f", "ambient_twists", "relations"))
    ring, f = _ring_and_potential(data)
    ambient = _int_list(data["ambient_twists"], "ambient_twists")
    rows = data["relations"]
    try:
        if "relation_twists" in data:
            rel = _matrix_from_rows(ring, ambient, _int_list(data["relation_twists"], "relation_twists"), rows)
        else:
            # infer each relation's twist from its first nonzero entry
            ncols = len(rows[0]) if isinstance(rows, list) and rows and isinstance(rows[0], list) else 0
            rel = _matrix_from_rows(ring, ambient, [0] * ncols, rows)
            src = [
                next((e.homogeneous_degree() + t for t, e in zip(ambient, col) if e.terms), 0)
                for col in zip(*rel.entries)
            ]
            rel = rel.with_twists(ambient, src)
        return Presentation(ring, f, ambient, rel)
    except ValidationError as exc:
        raise ParseError(f"invalid presentation: {exc}") from exc


def catalog_entry_dict(kind: str, curve, point, M: MatrixFactorization) -> dict:
    meta = {
        "kind": kind,
        "curve": {"a": str(curve.a), "b": str(curve.b)},
        "point": None if point is None else [str(point.lam), str(point.mu)],
        "verified": not verify_mf(M),
    }
    out = mf_to_dict(M)
    out.update(meta)
    return out
