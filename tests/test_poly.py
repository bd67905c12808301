"""Polynomial arithmetic, parsing, grading, and graded matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfkit as mk
from fixtures import reference_parse
from mfkit.errors import ValidationError
from mfkit.fields import Field, QQ
from mfkit.poly import (
    MAX_PARSE_DEGREE,
    MAX_PARSE_PRODUCTS,
    GradedMatrix,
    Poly,
    PolyRing,
    format_poly,
    grevlex_key,
    parse_poly,
    validate_graded_matrix,
)


@pytest.fixture(scope="module")
def R():
    return PolyRing(QQ)


def coeffs(field):
    if field.char == 0:
        return st.fractions(min_value=-9, max_value=9, max_denominator=5)
    return st.integers(0, field.char - 1)


def random_polys(ring, max_deg=3):
    monos = [m for d in range(max_deg + 1) for m in ring.monomials_of_degree(d)]

    def build(pairs):
        out = ring.zero()
        for idx, c in pairs:
            out = out + ring.monomial(monos[idx % len(monos)], c)
        return out

    return st.lists(
        st.tuples(st.integers(0, len(monos) - 1), coeffs(ring.field)),
        max_size=5,
    ).map(build)


# ---------------------------------------------------------------------------
# parsing / formatting


def test_parse_format_round_trip(R):
    samples = [
        "X^3 - Y^2*Z + 2*Z^3",
        "X*Y*Z",
        "-X + Y - Z",
        "1/2*X^2 - 3*Y*Z",
        "0",
        "7",
    ]
    for s in samples:
        p = parse_poly(s, R)
        again = parse_poly(format_poly(p), R)
        assert again == p


def test_parse_rejects_garbage(R):
    for bad in ("X +", "W^2", "X^^2", "X**2 + (", "2X"):
        with pytest.raises(mk.ParseError):
            parse_poly(bad, R)


def test_parse_caps_degree_and_exponent(R):
    # each is refused before any multiplication, so none of them hangs
    deep = "(" * 3000 + "X" + ")" * 3000
    for bad in ("(X+Y+Z)^100000", "X^13*Y^12", "2^25", "X^" + "9" * 5000, "1" * 5000, deep):
        with pytest.raises(mk.ParseError):
            parse_poly(bad, R)
    assert parse_poly(f"X^{MAX_PARSE_DEGREE}", R).degree() == MAX_PARSE_DEGREE
    # every power is within the degree cap, but together they exceed the
    # budget of term products, counted over `^` and `*` alike
    power = "(X+Y+Z+1)^24"
    for bad in ("+".join([power] * 4), "(X+Y+Z+1)^12*(X+Y+Z+1)^12"):
        with pytest.raises(mk.ParseError, match="term products"):
            parse_poly(bad, R)


def test_parse_charges_one_term_values_like_polys(R):
    # X^23*Y costs 24 term products: 23 for the power from one, 1 for `*`
    fits = MAX_PARSE_PRODUCTS // 24
    text = " + ".join(["X^23*Y"] * fits)
    assert parse_poly(text, R) == R.monomial((23, 1, 0), fits)
    with pytest.raises(mk.ParseError, match="term products"):
        parse_poly(text + " + X^23*Y", R)
    # a zero operand has no terms, so only the 23 of the power are charged
    assert parse_poly(" + ".join(["0*X^23*Y"] * (fits + 1)), R).is_zero()


def test_parse_accepts_fraction_and_prime_coefficients():
    R = PolyRing(QQ)
    p = parse_poly("2/3*X*Y - Z^2", R)
    assert p.coeff((1, 1, 0)) == Fraction(2, 3)
    Rp = PolyRing(Field(101))
    q = parse_poly("100*X + 3*Z", Rp)
    assert q.coeff((1, 0, 0)) == 100


def test_ring_parse_is_exposed(R):
    assert R.parse("X + Y") == parse_poly("X + Y", R)


# Expression trees for the parser oracle: ("int", n), ("var", name),
# (op, left, right) for op in + - *, ("/", tree, integer divisor),
# ("neg" | "pos" | "()", tree) and ("^", base, exponent, spelling).
EXPR_TREES = st.recursive(
    st.integers(0, 200).map(lambda n: ("int", n)) | st.sampled_from("XYZ").map(lambda v: ("var", v)),
    lambda inner: st.tuples(st.sampled_from("+-*"), inner, inner)
    | st.tuples(st.just("/"), inner, st.integers(0, 202))
    | st.tuples(st.sampled_from(["neg", "pos", "()"]), inner)
    | st.tuples(st.just("^"), inner, st.integers(0, 3), st.sampled_from(["^", "**"])),
    max_leaves=10,
)


def render(tree, prec=0) -> str:
    """Text that parses to exactly this tree; parentheses only where the
    grammar needs them (precedence 1 sum, 2 product, 3 signed factor,
    4 power, 5 atom)."""
    kind = tree[0]
    if kind == "int":
        text, own = str(tree[1]), 5
    elif kind == "var":
        text, own = tree[1], 5
    elif kind == "()":
        text, own = f"({render(tree[1])})", 5
    elif kind in ("neg", "pos"):
        text, own = ("-" if kind == "neg" else "+") + render(tree[1], 3), 3
    elif kind == "^":
        text, own = f"{render(tree[1], 5)}{tree[3]}{tree[2]}", 4
    elif kind == "/":
        text, own = f"{render(tree[1], 2)}/{tree[2]}", 2
    elif kind == "*":
        text, own = f"{render(tree[1], 2)}*{render(tree[2], 3)}", 2
    else:
        text, own = f"{render(tree[1], 1)} {kind} {render(tree[2], 2)}", 1
    return text if own >= prec else f"({text})"


class Refused(Exception):
    """The parser must refuse this tree with ParseError."""


def evaluate(tree, R) -> Poly:
    """The tree in Poly arithmetic, with the parser's refusals."""
    kind = tree[0]
    if kind == "int":
        return R.const(tree[1])
    if kind == "var":
        return R.var(tree[1])
    if kind in ("()", "pos"):
        return evaluate(tree[1], R)
    if kind == "neg":
        return -evaluate(tree[1], R)
    if kind == "/":
        p = evaluate(tree[1], R)
        if not R.field.of(tree[2]):
            raise Refused
        return p * R.const(Fraction(1, tree[2]))
    if kind == "^":
        p, n = evaluate(tree[1], R), tree[2]
        if (p.degree() or 0) * n > MAX_PARSE_DEGREE:
            raise Refused
        out = R.one()
        for _ in range(n):
            out = out * p
        return out
    p, q = evaluate(tree[1], R), evaluate(tree[2], R)
    if kind == "*":
        if (p.degree() or 0) + (q.degree() or 0) > MAX_PARSE_DEGREE:
            raise Refused
        return p * q
    return p + q if kind == "+" else p - q


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([QQ, Field(101)]), EXPR_TREES)
def test_parser_matches_poly_arithmetic_on_expression_trees(field, tree):
    R = PolyRing(field)
    text = render(tree)
    try:
        want = evaluate(tree, R)
    except Refused:
        with pytest.raises(mk.ParseError):
            parse_poly(text, R)
        return
    got = parse_poly(text, R)
    # same terms in the same insertion order, not only an equal Poly
    assert list(got.terms.items()) == list(want.terms.items()), text


@pytest.mark.parametrize(
    "char, text, terms",
    [
        (0, "X + X", [((1, 0, 0), 2)]),
        (0, "X + Y + X", [((1, 0, 0), 2), ((0, 1, 0), 1)]),
        (0, "X - X", []),
        (0, "0*X + Y", [((0, 1, 0), 1)]),
        (0, "Y*X*X^2", [((3, 1, 0), 1)]),
        (101, "150*X", [((1, 0, 0), 49)]),
        (0, "--X", [((1, 0, 0), 1)]),
        (0, "2/3*X", [((1, 0, 0), Fraction(2, 3))]),
        (101, "2/3*X", [((1, 0, 0), 68)]),
        (0, "Z + X - Z + Y - X + Z", [((0, 1, 0), 1), ((0, 0, 1), 1)]),
        (101, "-X^2", [((2, 0, 0), 100)]),
        (0, "(X - X)^0 + 0^0", [((0, 0, 0), 2)]),
        # each X^0 is a fresh one: a shared dict would be summed into itself
        (0, "X^0 + X^0 + X^0", [((0, 0, 0), 3)]),
        (101, "X^0 + X^0 + X^0", [((0, 0, 0), 3)]),
        (0, "-(X^0) + 1", []),
        (101, "-(X^0) + 1", []),
    ],
)
def test_parser_fixed_cases(char, text, terms):
    got = parse_poly(text, PolyRing(Field(char)))
    assert list(got.terms.items()) == terms
    # over Q a coefficient is a Fraction only where a `/` leaves a remainder
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in got.terms.values())


def test_parser_refuses_division_by_zero_mod_p():
    R = PolyRing(Field(101))
    for bad in ("X/101", "1/(X-X)", "X/(Y - Y)", "X/Y"):
        with pytest.raises(mk.ParseError, match="division only by nonzero constants"):
            parse_poly(bad, R)


def parse_outcome(parse, text, ring):
    """What a parser makes of text: its terms in insertion order with each
    coefficient's type, or the ParseError message."""
    try:
        p = parse(text, ring)
    except mk.ParseError as exc:
        return "ParseError", str(exc)
    return [(e, c, type(c)) for e, c in p.terms.items()]


PARSER_FIELDS = [QQ, Field(101), Field(2)]
MUTATION_CHARS = "XYZW0123456789+-*/^() ."


@st.composite
def mutated_texts(draw):
    """An expression tree's text, as it is or with one character deleted,
    inserted or with its tail cut off."""
    text = render(draw(EXPR_TREES))
    how = draw(st.sampled_from(["keep", "delete", "insert", "truncate"]))
    if how == "keep":
        return text
    at = draw(st.integers(0, len(text) - 1))
    if how == "delete":
        return text[:at] + text[at + 1:]
    if how == "insert":
        return text[:at] + draw(st.sampled_from(MUTATION_CHARS)) + text[at:]
    return text[:at]


# factors of every kind a run holds, and parenthesised ones that end it, with
# powers up to and past MAX_PARSE_DEGREE and constants that vanish mod 2 or 101
FACTORS = st.tuples(
    st.sampled_from(["", "-", "+", "--", "-+"]),
    st.sampled_from(["X", "Y", "Z", "0", "1", "2", "3", "7", "101", "202", "(X - Y)", "(2)", "(X^0)", "(0)"]),
    st.sampled_from(["", "^0", "^1", "^2", "^3", "^12", "^23", "^24", "^25"]),
).map("".join)
PRODUCTS = st.lists(
    st.tuples(st.sampled_from("*/"), FACTORS).map("".join), max_size=6
)
RUN_TEXTS = st.lists(
    st.tuples(FACTORS, PRODUCTS).map(lambda t: t[0] + "".join(t[1])), min_size=1, max_size=3
).map(" + ".join)

NEAR_LIMIT_TEXTS = [
    "(X+Y+Z+1)^24",
    "0*X^24*X",
    "3/X^0",
    "X^2^3",
    "X^24",
    "X^24*X",
    "X*X^24",
    "X^25",
    "0^25",
    "0^0",
    "-0^0",
    "X^0/2",
    "2/3*3*X",
    "2/3*3/1*X",
    "2/-3*X",
    "X/0^0",
    "X/0",
    "X/101",
    "X/Y^0",
    "X/(2/3)*Y",
    "(X)*2*Y^2",
    "2*X*(Y+Z)*3*Z",
    "(X+Y+Z+1)^12*(X+Y+Z+1)^12",
    "X^",
    "X^Y",
    "X*",
    "*X",
    "X*)",
    " + ".join(["X^23*Y"] * (MAX_PARSE_PRODUCTS // 24)),
    " + ".join(["X^23*Y"] * (MAX_PARSE_PRODUCTS // 24 + 1)),
    " + ".join(["0*X^23*Y"] * (MAX_PARSE_PRODUCTS // 24 + 1)),
    "2^" + str(MAX_PARSE_DEGREE) + "*" + "*".join(["X"] * MAX_PARSE_DEGREE),
]


@pytest.mark.parametrize("field", PARSER_FIELDS)
@pytest.mark.parametrize("text", NEAR_LIMIT_TEXTS, ids=range(len(NEAR_LIMIT_TEXTS)))
def test_parser_matches_the_reference_descent_near_the_limits(field, text):
    R = PolyRing(field)
    assert parse_outcome(parse_poly, text, R) == parse_outcome(reference_parse, text, R)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(PARSER_FIELDS), mutated_texts() | RUN_TEXTS)
def test_parser_matches_the_reference_descent(field, text):
    # the same terms in the same order, the same coefficient types, and the
    # same ParseError message as the one-dict-per-factor descent
    R = PolyRing(field)
    assert parse_outcome(parse_poly, text, R) == parse_outcome(reference_parse, text, R)


# ---------------------------------------------------------------------------
# monomial order


def test_grevlex_order_on_cubics(R):
    cubics = R.monomials_of_degree(3)
    assert len(cubics) == 10
    keys = [grevlex_key(e) for e in cubics]
    assert keys == sorted(keys, reverse=True)
    # X^3 is the largest cubic and Z^3 the smallest.
    assert cubics[0] == (3, 0, 0)
    assert cubics[-1] == (0, 0, 3)
    assert grevlex_key((3, 0, 0)) > grevlex_key((0, 2, 1))


def test_degree_and_homogeneity(R):
    f = R.parse("Y^2*Z - X^3")
    assert f.degree() == 3
    assert f.is_homogeneous()
    assert f.homogeneous_degree() == 3
    g = R.parse("X^2 + Y")
    assert not g.is_homogeneous()
    assert R.zero().is_zero()


# ---------------------------------------------------------------------------
# ring arithmetic


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ring_axioms_rational(data):
    R = PolyRing(QQ)
    polys = random_polys(R)
    p, q, r = data.draw(polys), data.draw(polys), data.draw(polys)
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == R.zero()
    assert p * R.one() == p
    assert p * R.zero() == R.zero()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ring_axioms_prime_field(data):
    R = PolyRing(Field(7))
    polys = random_polys(R)
    p, q = data.draw(polys), data.draw(polys)
    assert (p + q) * (p - q) == p * p - q * q


def field_loop_sum(p, q, sign):
    """Reference p + q (sign 1) or p - q (sign -1) through the Field
    methods: negate q with Field.neg, then add term by term with Field.add,
    new terms at the end."""
    fld = p.ring.field
    other = q.terms if sign > 0 else {e: fld.neg(c) for e, c in q.terms.items()}
    out = dict(p.terms)
    for e, c in other.items():
        s = fld.add(out.get(e, fld.zero), c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return list(out.items())


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([QQ, Field(101)]), st.data())
def test_sum_and_difference_match_the_field_loop(field, data):
    R = PolyRing(field)
    polys = random_polys(R)
    p = data.draw(polys)
    # q shares some of p's terms, equal (they cancel in p - q) or negated
    # (they cancel in p + q), in a drawn order
    shared = data.draw(st.lists(st.sampled_from(sorted(p.terms)), unique=True)) if p.terms else []
    q = data.draw(polys)
    for e in shared:
        q = q + R.monomial(e, p.terms[e] if data.draw(st.booleans()) else field.neg(p.terms[e]))
    for sign, got in ((1, p + q), (-1, p - q)):
        assert list(got.terms.items()) == field_loop_sum(p, q, sign)
        # over Q an int or a Fraction, and an int wherever every input is one
        ints = all(type(c) is int for c in (*p.terms.values(), *q.terms.values()))
        assert {type(c) for c in got.terms.values()} <= ({int} if ints else {int, Fraction})


def test_power_operator(R):
    X, Y, Z = R.gens()
    assert X**3 == X * X * X
    assert (X + Y) ** 2 == X * X + X * Y + X * Y + Y * Y


# ---------------------------------------------------------------------------
# graded matrices


def test_graded_matrix_validation(R):
    X, Y, Z = R.gens()
    good = GradedMatrix(R, [0], [1, 1], [[X, Y + Z]])
    assert validate_graded_matrix(good) == []
    bad = GradedMatrix.from_strings(R, [0], [1, 1], [["X^2", "Y"]])
    msgs = validate_graded_matrix(bad)
    assert msgs
    i, j, text = msgs[0]
    assert (i, j) == (0, 0)
    assert "degree 2" in text


def test_graded_matrix_multiplication_twists(R):
    X, Y, Z = R.gens()
    A = GradedMatrix(R, [0], [1, 1], [[X, Y]])
    B = GradedMatrix(R, [1, 1], [2, 2], [[Y, Z], [X, X]])
    C = A * B
    assert C.target_twists == [0]
    assert C.source_twists == [2, 2]
    assert C.entries[0][0] == X * Y + Y * X
    assert validate_graded_matrix(C) == []


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, Field(101)]), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_matrix_product_is_the_entrywise_sum_of_products(field, m, k, n, data):
    R = PolyRing(field)
    polys = random_polys(R, max_deg=2)
    A = GradedMatrix(R, [0] * m, [1] * k, [[data.draw(polys) for _ in range(k)] for _ in range(m)])
    B = GradedMatrix(R, [1] * k, [2] * n, [[data.draw(polys) for _ in range(n)] for _ in range(k)])
    C = A * B
    assert (C.target_twists, C.source_twists) == ([0] * m, [2] * n)
    for i in range(m):
        for j in range(n):
            want = R.zero()
            for t in range(k):
                want = want + A.entries[i][t] * B.entries[t][j]
            assert C.entries[i][j] == want


@pytest.mark.parametrize("char", [0, 101])
def test_matrix_product_cancellation_empty_shapes_and_errors(char):
    R = PolyRing(Field(char))
    X, Y, Z = R.gens()
    # (X, Y)·(Y, −X)ᵀ cancels across its two summands
    C = GradedMatrix(R, [0], [1, 1], [[X, Y]]) * GradedMatrix(R, [1, 1], [2], [[Y], [-X]])
    assert C.entries == [[R.zero()]] and C.entries[0][0].terms == {}
    C = GradedMatrix(R, [0, 0], [], [[], []]) * GradedMatrix.zero(R, [], [1, 2, 3])
    assert C.entries == [[R.zero()] * 3] * 2
    assert (C.target_twists, C.source_twists) == ([0, 0], [1, 2, 3])
    C = GradedMatrix.zero(R, [], [1, 1]) * GradedMatrix.zero(R, [1, 1], [4, 5, 6])
    assert C.entries == [] and (C.rows, C.cols) == (0, 3)
    assert C.source_twists == [4, 5, 6]
    A = GradedMatrix(R, [0], [1, 1], [[X, Y]])
    with pytest.raises(ValidationError, match="shapes do not compose"):
        A * A
    other = PolyRing(Field(7 if char else 101))
    with pytest.raises(ValidationError, match="different rings"):
        A * GradedMatrix(other, [1, 1], [2], [[other.var("X")], [other.var("Y")]])


def test_graded_matrix_block_and_hstack(R):
    X, Y, Z = R.gens()
    A = GradedMatrix(R, [0], [1], [[X]])
    B = GradedMatrix(R, [0], [1], [[Y]])
    Zb = GradedMatrix.zero(R, [1], [1])
    blk = GradedMatrix.block([[A, B], [Zb.with_twists([1], [1]), Zb]])
    assert blk.target_twists == [0, 1]
    assert blk.source_twists == [1, 1]


def test_graded_matrix_delete_and_select(R):
    X, Y, Z = R.gens()
    M = GradedMatrix(R, [0, 0], [1, 1], [[X, Y], [Y, Z]])
    D = M.delete(0, 1)
    assert D.entries == [[Y]]
    assert D.target_twists == [0] and D.source_twists == [1]


def test_graded_matrix_transpose_entries(R):
    X, Y, Z = R.gens()
    M = GradedMatrix(R, [0, 0], [1, 2], [[X, X * Y], [Y, Z * Z]])
    T = M.transpose_entries([-1, -2], [0, 0])
    assert T.entries == [[X, Y], [X * Y, Z * Z]]
    assert validate_graded_matrix(T) == []


def test_graded_matrix_retwist_and_scalar(R):
    X, Y, Z = R.gens()
    M = GradedMatrix(R, [0], [1], [[X]])
    N = M.retwist(2)
    assert N.target_twists == [-2] and N.source_twists == [-1]
    assert N.entries == M.entries
    S = GradedMatrix.scalar(X, [0, 1])
    assert S.entries[0][0] == X and S.entries[1][1] == X
    assert S.entries[0][1].is_zero()
    I = GradedMatrix.identity(R, [3, 4])
    assert I.entries[0][0] == R.one() and I.entries[1][0].is_zero()


def test_determinant_two_by_two(R):
    X, Y, Z = R.gens()
    M = GradedMatrix(R, [0, 0], [1, 1], [[X, Y], [Z, X]])
    assert M.det() == X * X - Y * Z


def test_same_entries(R):
    X, Y, Z = R.gens()
    A = GradedMatrix(R, [0], [1], [[X]])
    B = GradedMatrix(R, [5], [6], [[X]])
    assert A.same_entries(B)
    C = GradedMatrix(R, [0], [1], [[Y]])
    assert not A.same_entries(C)
