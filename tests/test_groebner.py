"""Groebner bases, normal forms, syzygies, spans, and minimal generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfkit as mk
from mfkit.fields import Field, QQ
from mfkit.groebner import (
    ColumnSpan,
    GroebnerBasis,
    _add_scaled,
    _f_unit_vectors,
    buchberger,
    columns_as_vectors,
    mingens,
    reduce_vec,
    term_divides,
    vec_degree,
    vec_lt,
    vectors_as_columns,
)
from mfkit.poly import GradedMatrix, PolyRing


@pytest.fixture(scope="module")
def R():
    return PolyRing(QQ)


@pytest.fixture(scope="module")
def fpoly(R):
    return R.parse("Y^2*Z - X^3 - Z^3")


def poly_vec(p):
    return {(0, e): c for e, c in p.terms.items()}


def spairs_reduce_to_zero(gb: GroebnerBasis) -> bool:
    """Post-hoc Buchberger criterion: every same-position S-pair reduces to 0."""
    fld = gb.ring.field
    for i in range(len(gb.basis)):
        for j in range(i + 1, len(gb.basis)):
            (pi, ei), ci = gb.lts[i]
            (pj, ej), cj = gb.lts[j]
            if pi != pj:
                continue
            lcm = tuple(max(a, b) for a, b in zip(ei, ej))
            s = {}
            _add_scaled(s, gb.basis[i], fld.inv(ci), tuple(a - b for a, b in zip(lcm, ei)), fld)
            _add_scaled(s, gb.basis[j], fld.neg(fld.inv(cj)), tuple(a - b for a, b in zip(lcm, ej)), fld)
            if reduce_vec(s, gb.basis, gb.lts, fld):
                return False
    return True


def mingens_per_candidate(vecs, twists, ring, f=None):
    """Reference for mingens: graded Nakayama with one Groebner basis per
    candidate, taken in (degree, index) order."""
    order = sorted(range(len(vecs)), key=lambda k: (vec_degree(vecs[k], twists), k))
    base = _f_unit_vectors(f, twists) if f is not None else []
    kept = []
    for k in order:
        v = vecs[k]
        if not v:
            continue
        gb = buchberger(base + kept, twists, ring)
        lts = [(vec_lt(g), g[vec_lt(g)]) for g in gb]
        if reduce_vec(v, gb, lts, ring.field):
            kept.append(v)
    return kept


# ---------------------------------------------------------------------------
# Groebner bases of ideals


def test_principal_ideal_basis(R, fpoly):
    gb = mk.groebner_basis([fpoly], ring=R)
    assert len(gb.basis) == 1
    assert spairs_reduce_to_zero(gb)
    # Leading coefficients are normalised to 1.
    for _, c in gb.lts:
        assert c == QQ.one


def test_normal_form_examples(R, fpoly):
    gb = mk.groebner_basis([fpoly], ring=R)
    X, Y, Z = R.gens()
    # X^3 is the leading monomial of the potential, so it reduces.
    assert mk.normal_form(X**3, gb) == Y * Y * Z - Z**3
    # Y^2*Z is not divisible by the leading monomial; it is already reduced.
    assert mk.normal_form(Y * Y * Z, gb) == Y * Y * Z
    assert mk.normal_form(fpoly, gb).is_zero()
    assert mk.normal_form(fpoly * (X + Z), gb).is_zero()


def test_membership_in_nonprincipal_ideal(R):
    X, Y, Z = R.gens()
    gb = mk.groebner_basis([X * X - Y * Y, X * Y], ring=R)
    assert spairs_reduce_to_zero(gb)
    # Y^3 = X*(X*Y) - Y*(X^2 - Y^2) lies in the ideal.
    assert mk.normal_form(Y**3, gb).is_zero()
    assert not mk.normal_form(Z**3, gb).is_zero()


def test_reduced_basis_invariants(R):
    X, Y, Z = R.gens()
    gb = mk.groebner_basis([X * X - Y * Z, X * Y - Z * Z, X * Z - Y * Y], ring=R)
    assert spairs_reduce_to_zero(gb)
    lead = [lt for lt, _ in gb.lts]
    # No leading term divides another one.
    for i, a in enumerate(lead):
        for j, b in enumerate(lead):
            if i != j:
                assert not term_divides(a, b)
    # Tails are fully reduced against all leading terms.
    for k, v in enumerate(gb.basis):
        for t in v:
            if t == lead[k]:
                continue
            assert not any(term_divides(lt, t) for lt in lead)


def test_normal_form_is_idempotent_and_linear(R):
    X, Y, Z = R.gens()
    gb = mk.groebner_basis([X * X - Y * Z, Y**3 - Z**3], ring=R)
    p = (X + Y + Z) ** 3
    n = mk.normal_form(p, gb)
    assert mk.normal_form(n, gb) == n
    assert mk.normal_form(p - n, gb).is_zero()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_random_combinations_reduce_to_zero(seed):
    R = PolyRing(Field(7))
    rng = random.Random(seed)
    monos = [m for d in (1, 2) for m in R.monomials_of_degree(d)]

    def rand_poly():
        out = R.zero()
        for _ in range(rng.randrange(1, 4)):
            out = out + R.monomial(rng.choice(monos), rng.randrange(1, 7))
        return out

    gens = [rand_poly() for _ in range(rng.randrange(1, 4))]
    gb = mk.groebner_basis(gens, ring=R)
    assert spairs_reduce_to_zero(gb)
    combo = R.zero()
    for g in gens:
        combo = combo + g * rand_poly()
    assert mk.normal_form(combo, gb).is_zero()


# ---------------------------------------------------------------------------
# syzygies and kernels


def test_koszul_syzygies_over_polynomial_ring(R):
    X, Y, Z = R.gens()
    M = GradedMatrix(R, [0], [1, 1, 1], [[X, Y, Z]])
    S = mk.syzygy_basis(M)
    assert len(S.source_twists) == 3
    prod = M * S
    assert prod.is_zero()
    assert S.target_twists == [1, 1, 1]


def test_syzygies_over_hypersurface_vanish_mod_potential(R, fpoly):
    X, Y, Z = R.gens()
    M = GradedMatrix(R, [0], [1, 1], [[Y - Z, X]])
    S = mk.syzygy_basis(M, f=fpoly)
    assert len(S.source_twists) >= 1
    gb = mk.groebner_basis([fpoly], ring=R)
    prod = M * S
    for row in prod.entries:
        for e in row:
            assert mk.normal_form(e, gb).is_zero()


def test_syzygies_over_hypersurface_are_minimal_generators(R, fpoly):
    X, Y, Z = R.gens()
    M = GradedMatrix(R, [0], [1, 1, 1], [[X, Y, Z]])
    # three Koszul syzygies and the one coming from f = X·(-X^2) + Y·(YZ) + Z·(-Z^2)
    assert mk.syzygy_basis(M, f=fpoly).source_twists == [2, 2, 2, 3]


def test_kernel_of_injective_map_is_zero(R):
    X, Y, Z = R.gens()
    M = GradedMatrix.identity(R, [0, 0])
    K = mk.syzygy_basis(M)
    assert len(K.source_twists) == 0


def test_kernel_columns_are_killed(R):
    X, Y, Z = R.gens()
    M = GradedMatrix(R, [0, 0], [1, 1], [[X, Y], [Y, X]])
    K = mk.syzygy_basis(M)
    assert (M * K).is_zero()


# ---------------------------------------------------------------------------
# column spans


def test_column_span_membership_and_lift(R):
    X, Y, Z = R.gens()
    cols = [poly_vec(X), poly_vec(Y)]
    span = ColumnSpan(R, [0], cols)
    w = poly_vec(X * X + X * Y)
    assert span.member(w)
    u = span.lift(w)
    assert u is not None
    # Recompute Σ u_j · col_j and compare.
    acc = R.zero()
    per_col = {}
    for (j, e), c in u.items():
        per_col.setdefault(j, {})[e] = c
    for j, terms in per_col.items():
        acc = acc + R.from_terms(terms) * (X if j == 0 else Y)
    assert acc == X * X + X * Y
    assert not span.member(poly_vec(Z * Z))
    assert span.lift(poly_vec(Z * Z)) is None


def test_column_span_syzygies_annihilate(R):
    X, Y, Z = R.gens()
    cols = columns_as_vectors(GradedMatrix(R, [0], [1, 1, 1], [[X, Y, Z]]))
    span = ColumnSpan(R, [0], cols)
    syz = span.syzygies()
    assert syz
    M = GradedMatrix(R, [0], [1, 1, 1], [[X, Y, Z]])
    S = vectors_as_columns(R, [1, 1, 1], syz)
    assert (M * S).is_zero()


# ---------------------------------------------------------------------------
# minimal generators


def test_minimal_generators_drop_redundant_columns(R):
    X, Y, Z = R.gens()
    M = GradedMatrix(R, [0], [1, 1, 1, 2], [[X, Y, X + Y, X * Y]])
    G = mk.minimal_generators(M)
    assert len(G.source_twists) == 2
    assert G.target_twists == [0]


def test_minimal_generators_over_hypersurface_kill_potential_multiples(R, fpoly):
    X, Y, Z = R.gens()
    M = GradedMatrix(R, [0], [3, 4], [[fpoly, fpoly * X]])
    G = mk.minimal_generators(M, f=fpoly)
    assert len(G.source_twists) == 0


def test_mingens_vector_form(R):
    X, Y, Z = R.gens()
    vecs = [poly_vec(X), poly_vec(Y), poly_vec(X + Y)]
    kept = mingens(vecs, [0], R)
    assert len(kept) == 2


def test_mingens_waits_for_the_s_pairs_of_each_degree(R):
    X, Y, Z = R.gens()
    # Y^3 = X·(XY) - Y·(X^2 - Y^2) is in the span only through the degree-3 S-pair
    vecs = [poly_vec(X * X - Y * Y), poly_vec(X * Y), poly_vec(Y**3)]
    assert mingens(vecs, [0], R) == vecs[:2]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([QQ, Field(7)]), st.booleans())
def test_mingens_matches_per_candidate_loop(seed, fld, over_a):
    R = PolyRing(fld)
    rng = random.Random(seed)
    twists = [rng.randrange(2) for _ in range(rng.randrange(1, 4))]
    f = R.parse("Y^2*Z - X^3 - Z^3") if over_a else None
    spanning = _f_unit_vectors(f, twists) if f is not None else []

    def rand_vec(d):
        v = {}
        for pos, t in enumerate(twists):
            if d >= t and rng.random() < 0.7:
                monos = R.monomials_of_degree(d - t)
                for exp in rng.sample(monos, rng.randrange(1, min(3, len(monos)) + 1)):
                    v[(pos, exp)] = fld.of(rng.randrange(1, 5))
        return v

    def combination(d):
        # a degree-d combination of earlier vectors (and of f·e_i over A)
        v = {}
        for w in spanning:
            e = vec_degree(w, twists)
            if w and e <= d and rng.random() < 0.6:
                shift = rng.choice(R.monomials_of_degree(d - e))
                _add_scaled(v, w, fld.of(rng.randrange(1, 5)), shift, fld)
        return v

    def s_vector():
        # in the span, but its leading term need not be a multiple of one before
        a, b = rng.sample([w for w in spanning if w], 2)
        (pa, ea), (pb, eb) = vec_lt(a), vec_lt(b)
        if pa != pb:
            return {}
        lcm = tuple(map(max, ea, eb))
        v = {}
        _add_scaled(v, a, fld.inv(a[(pa, ea)]), tuple(x - y for x, y in zip(lcm, ea)), fld)
        _add_scaled(v, b, fld.neg(fld.inv(b[(pb, eb)])), tuple(x - y for x, y in zip(lcm, eb)), fld)
        return v

    vecs = []
    for _ in range(rng.randrange(1, 7)):
        kind = rng.random()
        if kind < 0.3 and sum(1 for w in spanning if w) >= 2:
            v = s_vector()
        elif kind < 0.5:
            v = combination(rng.randrange(1, 5))
        else:
            v = rand_vec(rng.randrange(1, 5))
        vecs.append(v)
        spanning.append(v)
    rng.shuffle(vecs)
    assert mingens(vecs, twists, R, f=f) == mingens_per_candidate(vecs, twists, R, f)
