"""JSON envelopes: serialisation round trips and input validation."""

import copy
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mfkit as mk
from mfkit.fields import Field, QQ
from mfkit.io import (
    field_name,
    morphism_from_dict,
    morphism_to_dict,
    presentation_from_dict,
    presentation_to_dict,
    ring_from_dict,
    ring_to_dict,
)
from mfkit.poly import GradedMatrix, PolyRing, parse_poly


def through_json(d):
    return json.loads(json.dumps(d))


# ---------------------------------------------------------------------------
# field tokens and rings


def test_field_token_parsing():
    assert mk.parse_field_token("QQ") == QQ
    assert mk.parse_field_token("F101") == Field(101)
    assert mk.parse_field_token("GF(101)") == Field(101)
    assert mk.parse_field_token("Fp:101") == Field(101)
    assert mk.parse_field_token("101") == Field(101)
    assert mk.parse_field_token(7) == Field(7)


def test_bad_field_token_rejected():
    for bad in ("banana", "F", ""):
        with pytest.raises((mk.ParseError, ValueError)):
            mk.parse_field_token(bad)


def test_field_names():
    assert field_name(QQ) == "QQ"
    assert field_name(Field(101)) == "GF(101)"


def test_ring_round_trip():
    R = PolyRing(Field(7))
    d = ring_to_dict(R)
    R2 = ring_from_dict(through_json(d))
    assert R2.field == Field(7)
    assert R2.vars == R.vars


def test_ring_char_cross_check():
    d = {"vars": ["X", "Y", "Z"], "field": "QQ", "char": 7}
    with pytest.raises(mk.ParseError):
        ring_from_dict(d)


@pytest.mark.parametrize(
    "ring",
    [
        {"field": 4},
        {"field": True},
        {"field": "GF(7)", "char": True},
        {"vars": 5},
        {"vars": ["X", 1, "Z"]},
        {"vars": ["X", "X", "Z"]},
    ],
)
def test_bad_ring_specs_are_parse_errors(ring):
    with pytest.raises(mk.ParseError):
        ring_from_dict(ring)


# ---------------------------------------------------------------------------
# matrix factorisations


def test_mf_round_trip_rational(curve, points):
    M = mk.catalog_mf(curve, "point", points[0])
    assert mk.mf_from_dict(through_json(mk.mf_to_dict(M))) == M


def test_mf_round_trip_prime_field(curve101):
    pts = mk.rational_points(curve101)
    M = mk.catalog_mf(curve101, "lb-2e-plus-p", pts[5])
    assert mk.mf_from_dict(through_json(mk.mf_to_dict(M))) == M


def test_mf_round_trip_after_twist_and_shift(curve, points):
    M = mk.shift_mf(mk.twist_mf(mk.catalog_mf(curve, "point", points[1]), 2), 1)
    assert mk.mf_from_dict(through_json(mk.mf_to_dict(M))) == M


def test_mf_dict_missing_key_rejected(curve, points):
    d = mk.mf_to_dict(mk.catalog_mf(curve, "point", points[0]))
    del d["alpha"]
    with pytest.raises(mk.ParseError):
        mk.mf_from_dict(d)


def test_mf_dict_ragged_matrix_rejected(curve, points):
    d = through_json(mk.mf_to_dict(mk.catalog_mf(curve, "point", points[0])))
    d["alpha"][0] = d["alpha"][0][:1]
    with pytest.raises(mk.ParseError):
        mk.mf_from_dict(d)


def test_tampered_payload_loads_but_fails_verification(curve, points):
    d = through_json(mk.mf_to_dict(mk.catalog_mf(curve, "point", points[0])))
    d["alpha"][0][0] = "X^2"
    M = mk.mf_from_dict(d)
    assert mk.verify_mf(M)


# ---------------------------------------------------------------------------
# morphisms


def test_morphism_round_trip(curve, points):
    kp = mk.catalog_mf(curve, "point", points[0])
    phi = mk.identity_morphism(kp)
    d = through_json(morphism_to_dict(phi))
    assert d["shift"] == 0
    assert morphism_from_dict(d) == phi


def test_morphism_shift_field_shifts_source(curve, points):
    kp = mk.catalog_mf(curve, "point", points[0])
    phi = mk.identity_morphism(mk.shift_mf(kp, 1))
    d = through_json(morphism_to_dict(phi))
    # Re-encode the source as "kp shifted by one".
    d["source"] = mk.mf_to_dict(kp)
    d["shift"] = 1
    psi = morphism_from_dict(d)
    assert psi.source == mk.shift_mf(kp, 1)
    assert mk.verify_morphism(psi) == []


# ---------------------------------------------------------------------------
# presentations


def test_presentation_round_trip(curve, point_presentation, points):
    P = point_presentation(points[0])
    d = through_json(presentation_to_dict(P))
    Q = presentation_from_dict(d)
    assert Q.ambient == P.ambient
    assert Q.relations.source_twists == P.relations.source_twists
    assert Q.relations.entries == P.relations.entries


def test_presentation_relation_twists_inferred(curve, point_presentation, points):
    P = point_presentation(points[0])
    d = through_json(presentation_to_dict(P))
    del d["relation_twists"]
    Q = presentation_from_dict(d)
    assert Q.relations.source_twists == P.relations.source_twists


def test_presentation_zero_relations(curve):
    A = mk.Presentation.free(curve.ring, curve.f, [0, 2])
    d = through_json(presentation_to_dict(A))
    Q = presentation_from_dict(d)
    assert Q.ambient == [0, 2]
    assert len(Q.relations.source_twists) == 0


# ---------------------------------------------------------------------------
# catalog entries


def test_catalog_entry_metadata(curve, points):
    M = mk.catalog_mf(curve, "point", points[1])
    e = mk.catalog_entry_dict("point", curve, points[1], M)
    assert e["kind"] == "point"
    assert e["verified"] is True
    assert e["curve"] == {"a": "0", "b": "1"}
    assert e["point"] == [str(points[1].lam), str(points[1].mu)]
    assert mk.mf_from_dict(through_json(e)) == M


def test_catalog_entry_without_point(curve):
    M = mk.catalog_mf(curve, "lb-2e")
    e = mk.catalog_entry_dict("lb-2e", curve, None, M)
    assert e["point"] is None
    assert e["verified"] is True


# ---------------------------------------------------------------------------
# the input boundary under mutation: a loader returns or raises ParseError


def _valid_envelopes():
    curve = mk.default_curve()
    pt = mk.default_points(curve, 1)[0]
    kp = mk.catalog_mf(curve, "point", pt)
    X, Y, Z = curve.ring.gens()
    rel = GradedMatrix(curve.ring, [0], [1, 1], [[Y - Z.scale(pt.mu), X - Z.scale(pt.lam)]])
    return [
        (mk.mf_from_dict, mk.mf_to_dict(kp)),
        (morphism_from_dict, morphism_to_dict(mk.identity_morphism(kp))),
        (presentation_from_dict, presentation_to_dict(mk.Presentation(curve.ring, curve.f, [0], rel))),
    ]


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    out = copy.deepcopy(node)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


POLY_ALPHABET = "XYZW0129+-*/^() ._"
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(POLY_ALPHABET, max_size=12)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
ENVELOPES = _valid_envelopes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_envelope_with_one_field_replaced_loads_or_raises_parse_error(data):
    load, envelope = data.draw(st.sampled_from(ENVELOPES))
    path = data.draw(st.sampled_from(list(_paths(envelope))))
    try:
        load(_replaced(envelope, path, data.draw(JSON_VALUES)))
    except mk.ParseError:
        pass


# The envelope loaders let any exception of parse_poly but ParseError
# through, as an internal error: this property is what makes that safe.
@settings(max_examples=300, deadline=None)
@given(st.text(POLY_ALPHABET + "*", max_size=30))
@example("1/0")
@example("X^-1")
@example("9" * 5000)
@example("(" * 150 + "X" + ")" * 150)
def test_polynomial_text_parses_or_raises_parse_error(text):
    for ring in (PolyRing(QQ), PolyRing(Field(101)), PolyRing(Field(2))):
        try:
            parse_poly(text, ring)
        except mk.ParseError:
            pass


# ---------------------------------------------------------------------------
# the message of every refusal, one row per check


def _edited(envelope, drop=None, **fields):
    out = copy.deepcopy(envelope)
    out.pop(drop, None)
    out.update(fields)
    return out


_MF, _MOR, _PRES = (through_json(envelope) for _, envelope in ENVELOPES)
_ALPHA = _MF["alpha"]
_ERRORS = [
    ("mf-not-object", mk.mf_from_dict, [], "factorisation envelope must be a JSON object"),
    ("morphism-not-object", morphism_from_dict, "x", "morphism envelope must be a JSON object"),
    ("presentation-not-object", presentation_from_dict, None, "presentation envelope must be a JSON object"),
    *(
        (f"mf-missing-{key}", mk.mf_from_dict, _edited(_MF, drop=key), f"factorisation envelope is missing {key!r}")
        for key in ("ring", "f", "p0_twists", "p1_twists", "alpha", "beta")
    ),
    *(
        (f"morphism-missing-{key}", morphism_from_dict, _edited(_MOR, drop=key), f"morphism envelope is missing {key!r}")
        for key in ("source", "target", "f0", "f1")
    ),
    *(
        (
            f"presentation-missing-{key}",
            presentation_from_dict,
            _edited(_PRES, drop=key),
            f"presentation envelope is missing {key!r}",
        )
        for key in ("ring", "f", "ambient_twists", "relations")
    ),
    ("d-not-3", mk.mf_from_dict, _edited(_MF, d=4), "only potentials of degree d = 3 are supported"),
    ("ring-not-object", mk.mf_from_dict, _edited(_MF, ring=5), "ring must be an object with vars/field/char"),
    ("ring-bad-field", presentation_from_dict, _edited(_PRES, ring={"field": "banana"}), "unrecognised field spec 'banana'"),
    ("f-unparsable", mk.mf_from_dict, _edited(_MF, f="X +"), "cannot parse potential: unexpected token None in polynomial"),
    (
        "f-not-string",
        mk.mf_from_dict,
        _edited(_MF, f=5),
        "cannot parse potential: expected string or bytes-like object, got 'int'",
    ),
    (
        "presentation-f-not-string",
        presentation_from_dict,
        _edited(_PRES, f=["X"]),
        "cannot parse potential: expected string or bytes-like object, got 'list'",
    ),
    ("p0-twist-text", mk.mf_from_dict, _edited(_MF, p0_twists=[1, "2"]), "p0_twists must be a list of integers"),
    ("p1-twist-bool", mk.mf_from_dict, _edited(_MF, p1_twists=[True, 2]), "p1_twists must be a list of integers"),
    ("p1-twists-not-list", mk.mf_from_dict, _edited(_MF, p1_twists=2), "p1_twists must be a list of integers"),
    ("ambient-twist-float", presentation_from_dict, _edited(_PRES, ambient_twists=[0.5]), "ambient_twists must be a list of integers"),
    ("relation-twists-text", presentation_from_dict, _edited(_PRES, relation_twists="1"), "relation_twists must be a list of integers"),
    ("ragged-matrix", mk.mf_from_dict, _edited(_MF, alpha=[_ALPHA[0][:1], _ALPHA[1]]), "matrix shape 2x1 does not match twists 2x2"),
    ("entry-not-string", mk.mf_from_dict, _edited(_MF, beta=[[1, "X"], ["Y", "Z"]]), "matrix must be a list of rows of polynomial strings"),
    ("entry-text", mk.mf_from_dict, _edited(_MF, alpha=[["X +", _ALPHA[0][1]], _ALPHA[1]]), "unexpected token None in polynomial"),
    ("morphism-entry-text", morphism_from_dict, _edited(_MOR, f1=[["Q", "0"], ["0", "1"]]), "unknown variable 'Q' in ring ('X', 'Y', 'Z')"),
    ("morphism-ragged", morphism_from_dict, _edited(_MOR, f0=[["1"]]), "matrix shape 1x1 does not match twists 2x2"),
    (
        "morphism-rings-differ",
        morphism_from_dict,
        _edited(_MOR, target=_edited(_MF, ring={"field": "GF(101)"})),
        "morphism source and target use different rings",
    ),
    ("morphism-shift-text", morphism_from_dict, _edited(_MOR, shift="1"), "shift must be an integer"),
    ("morphism-shift-bool", morphism_from_dict, _edited(_MOR, shift=True), "shift must be an integer"),
    (
        "presentation-inhomogeneous",
        presentation_from_dict,
        _edited(_PRES, drop="relation_twists", relations=[["X + Y^2", "Y"]]),
        "invalid presentation: polynomial is not homogeneous: Y^2 + X",
    ),
    ("presentation-ragged", presentation_from_dict, _edited(_PRES, relations=[["X"]]), "matrix shape 1x1 does not match twists 1x2"),
    # twists are degrees, which a Gröbner pass keeps below 2^31
    ("p0-twist-2^31", mk.mf_from_dict, _edited(_MF, p0_twists=[2**31, 4]), "p0_twists entries must be below 2^31 in absolute value"),
    (
        "relation-twist-huge",
        presentation_from_dict,
        _edited(_PRES, relation_twists=[1, -(10**4299)]),
        "relation_twists entries must be below 2^31 in absolute value",
    ),
    ("morphism-shift-2^31", morphism_from_dict, _edited(_MOR, shift=-(2**31)), "shift must be below 2^31 in absolute value"),
]


@pytest.mark.parametrize("load, data, message", [row[1:] for row in _ERRORS], ids=[row[0] for row in _ERRORS])
def test_each_refusal_has_its_message(load, data, message):
    with pytest.raises(mk.ParseError) as info:
        load(data)
    assert type(info.value) is mk.ParseError
    assert str(info.value) == message


@pytest.mark.parametrize("twist", [-(2**31) + 1, 2**31 - 1])
def test_twists_up_to_the_bound_load(twist):
    M = mk.mf_from_dict(_edited(_MF, p0_twists=[twist, 4]))
    assert M.p0 == [twist, 4]
