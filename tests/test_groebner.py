"""Groebner bases, normal forms, syzygies, spans, and minimal generators."""

import copy
import heapq
import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mfkit as mk
from mfkit.fields import Field, QQ
from mfkit import groebner
from mfkit.groebner import (
    DEGREE_BITS,
    ColumnSpan,
    GroebnerBasis,
    _f_basis,
    _f_unit_vectors,
    _index,
    _Packing,
    _reducer_space,
    buchberger,
    columns_as_vectors,
    hilbert_numerator,
    mingens,
    minimal_mod_f,
    reduce_vec,
    vec_degree,
    vectors_as_columns,
)
from mfkit.linalg import int_row, row_space
from mfkit.poly import GradedMatrix, PolyRing, grevlex_key

from fixtures import counting, same_basis


@pytest.fixture(scope="module")
def R():
    return PolyRing(QQ)


@pytest.fixture(scope="module")
def fpoly(R):
    return R.parse("Y^2*Z - X^3 - Z^3")


def poly_vec(p):
    return {(0, e): c for e, c in p.terms.items()}


# ---------------------------------------------------------------------------
# The module order on (position, exponent) tuples, independent of the packed
# terms the package eliminates on: position 0 highest, then degree, then the
# reversed exponents negated (degrevlex).


def term_key(t):
    pos, exp = t
    return (-pos, sum(exp), tuple(-e for e in reversed(exp)))


def vec_lt(v):
    return max(v, key=term_key)


def lts_of(basis):
    """(leading term, leading coefficient) of each vector."""
    return [(lt, v[lt]) for v in basis for lt in (vec_lt(v),)]


def term_divides(t1, t2):
    return t1[0] == t2[0] and all(a <= b for a, b in zip(t1[1], t2[1]))


# ---------------------------------------------------------------------------
# Reference Buchberger: the S-pair heap, the division loop and the
# inter-reduction that the row-echelon pass replaced, kept as an oracle.


def reference_add_scaled(u, v, c, shift, fld) -> None:
    """u += c * x^shift * v, in place."""
    for (pos, exp), cv in v.items():
        key = (pos, tuple(a + b for a, b in zip(exp, shift)))
        s = fld.add(u.get(key, fld.zero), fld.mul(c, cv))
        if s:
            u[key] = s
        else:
            u.pop(key, None)


def reference_reduce_vec(v, basis, lts, fld, positions_below=None):
    """Full normal form of v by the division algorithm, first divisor first;
    with positions_below set, the tail from that position on is left as is."""
    work = dict(v)
    out = {}
    while work:
        t = max(work, key=term_key)
        pos, exp = t
        if positions_below is not None and pos >= positions_below:
            out.update(work)
            break
        hit = None
        for g, (lt, lc) in zip(basis, lts):
            gpos, gexp = lt
            if gpos == pos and all(a <= b for a, b in zip(gexp, exp)):
                hit = (g, gexp, lc)
                break
        if hit is None:
            out[t] = work.pop(t)
            continue
        g, gexp, lc = hit
        shift = tuple(a - b for a, b in zip(exp, gexp))
        reference_add_scaled(work, g, fld.neg(fld.div(work[t], lc)), shift, fld)
    return out


def reference_monic(v, fld):
    c = fld.inv(v[vec_lt(v)])
    return {t: fld.mul(x, c) for t, x in v.items()}


def reference_s_vector(g, h, lt_g, lt_h, fld):
    (_, eg), cg = lt_g
    (_, eh), ch = lt_h
    lcm = tuple(max(a, b) for a, b in zip(eg, eh))
    s = {}
    reference_add_scaled(s, g, fld.inv(cg), tuple(a - b for a, b in zip(lcm, eg)), fld)
    reference_add_scaled(s, h, fld.neg(fld.inv(ch)), tuple(a - b for a, b in zip(lcm, eh)), fld)
    return s


def reference_degree_pass(gens, twists, ring):
    """Buchberger's loop, degree by degree: within a degree the S-pairs are
    reduced before the generators.  Returns a (not yet reduced) basis, its
    leading terms, and the generators that enlarged the span."""
    fld = ring.field
    G, lts, enlarged = [], [], []
    ideal_case = len(twists) == 1
    # items (degree, 0, i, j) are S-pairs, (degree, 1, k) generators
    queue = []
    for k, g in enumerate(gens):
        if g:
            pos, exp = vec_lt(g)
            queue.append((sum(exp) + twists[pos], 1, k))
    heapq.heapify(queue)

    def append(v):
        v = reference_monic(v, fld)
        k = len(G)
        lt = vec_lt(v)
        for i in range(k):
            ti = lts[i][0]
            if ti[0] != lt[0]:
                continue
            if ideal_case and all(min(a, b) == 0 for a, b in zip(ti[1], lt[1])):
                continue
            lcm = tuple(max(a, b) for a, b in zip(ti[1], lt[1]))
            heapq.heappush(queue, (sum(lcm) + twists[lt[0]], 0, i, k))
        G.append(v)
        lts.append((lt, v[lt]))

    while queue:
        item = heapq.heappop(queue)
        if item[1]:
            r = reference_reduce_vec(gens[item[2]], G, lts, fld)
            if r:
                enlarged.append(item[2])
        else:
            _, _, i, j = item
            r = reference_reduce_vec(reference_s_vector(G[i], G[j], lts[i], lts[j], fld), G, lts, fld)
        if r:
            append(r)
    return G, lts, enlarged


def reference_buchberger(gens, twists, ring):
    """Reduced basis: the degree pass, then inter-reduction."""
    fld = ring.field
    G, lts, _ = reference_degree_pass(gens, twists, ring)
    order = sorted(range(len(G)), key=lambda i: term_key(lts[i][0]))
    kept = []
    for i in order:
        if not any(term_divides(lts[j][0], lts[i][0]) for j in kept):
            kept.append(i)
    final = []
    for i in kept:
        others = [G[j] for j in kept if j != i]
        other_lts = [lts[j] for j in kept if j != i]
        final.append(reference_monic(reference_reduce_vec(G[i], others, other_lts, fld), fld))
    final.sort(key=lambda v: term_key(vec_lt(v)), reverse=True)
    return final


def reference_mingens(vecs, twists, ring, f=None):
    base = _f_unit_vectors(f, twists) if f is not None else []
    _, _, enlarged = reference_degree_pass(base + list(vecs), twists, ring)
    return [vecs[k - len(base)] for k in enlarged if k >= len(base)]


def spairs_reduce_to_zero(gb: GroebnerBasis) -> bool:
    """Post-hoc Buchberger criterion: every same-position S-pair reduces to 0."""
    fld = gb.ring.field
    lts = lts_of(gb.basis)
    for i in range(len(gb.basis)):
        for j in range(i + 1, len(gb.basis)):
            if lts[i][0][0] != lts[j][0][0]:
                continue
            s = reference_s_vector(gb.basis[i], gb.basis[j], lts[i], lts[j], fld)
            if reduce_vec(s, gb):
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
        if reduce_vec(v, gb):
            kept.append(v)
    return kept


# ---------------------------------------------------------------------------
# Groebner bases of ideals


def test_principal_ideal_basis(R, fpoly):
    gb = mk.groebner_basis([fpoly], ring=R)
    assert len(gb.basis) == 1
    assert spairs_reduce_to_zero(gb)
    # Leading coefficients are normalised to 1.
    for _, c in lts_of(gb.basis):
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
    lead = [vec_lt(v) for v in gb.basis]
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

    def rand_poly(d):
        """A homogeneous polynomial of degree d (possibly zero)."""
        out = R.zero()
        for _ in range(rng.randrange(1, 4)):
            out = out + R.monomial(rng.choice(R.monomials_of_degree(d)), rng.randrange(1, 7))
        return out

    gens = [rand_poly(rng.randrange(1, 3)) for _ in range(rng.randrange(1, 4))]
    gb = mk.groebner_basis(gens, ring=R)
    assert spairs_reduce_to_zero(gb)
    combo = R.zero()
    for g in gens:
        combo = combo + g * rand_poly(rng.randrange(0, 4))
    assert mk.normal_form(combo, gb).is_zero()


def test_inhomogeneous_generator_is_refused(R):
    X, Y, Z = R.gens()
    with pytest.raises(mk.ValidationError, match="not homogeneous"):
        mk.groebner_basis([X * X - Y * Z, X * Y - Z], ring=R)


def test_vector_coefficients_zero_mod_p_are_no_terms():
    # over GF(p) a caller's coefficient 0 or p is no term: neither a pivot to
    # invert nor an entry to keep, as a leading term or further down
    F = Field(101)
    ring = PolyRing(F)

    def vec(*terms):
        return {(0, exp): c for exp, c in terms}

    messy = [
        vec(((2, 0, 0), 101), ((1, 1, 0), 3), ((0, 1, 1), 0)),
        vec(((2, 0, 0), 1), ((0, 2, 0), 101), ((0, 0, 2), 5)),
    ]
    clean = [vec(((1, 1, 0), 3)), vec(((2, 0, 0), 1), ((0, 0, 2), 5))]
    gb = mk.groebner_basis(messy, ring=ring, twists=[0])
    assert gb.basis == mk.groebner_basis(clean, ring=ring, twists=[0]).basis
    assert all(0 < c < 101 for v in gb.basis for c in v.values())


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
    assert span.lift(poly_vec(Z * Z)) is None


def test_column_span_syzygies_annihilate(R):
    X, Y, Z = R.gens()
    cols = columns_as_vectors(GradedMatrix(R, [0], [1, 1, 1], [[X, Y, Z]]))
    span = ColumnSpan(R, [0], cols)
    syz = span.syzygies(len(cols))
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
    kept, gb = mingens(vecs, [0], R)
    assert len(kept) == 2
    assert same_basis(gb, buchberger(vecs, [0], R))


def test_mingens_waits_for_the_s_pairs_of_each_degree(R):
    X, Y, Z = R.gens()
    # Y^3 = X·(XY) - Y·(X^2 - Y^2) is in the span only through the degree-3 S-pair
    vecs = [poly_vec(X * X - Y * Y), poly_vec(X * Y), poly_vec(Y**3)]
    kept, gb = mingens(vecs, [0], R)
    assert kept == vecs[:2]
    assert same_basis(gb, buchberger(vecs, [0], R))


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
                reference_add_scaled(v, w, fld.of(rng.randrange(1, 5)), shift, fld)
        return v

    def s_vector():
        # in the span, but its leading term need not be a multiple of one before
        a, b = rng.sample([w for w in spanning if w], 2)
        (pa, ea), (pb, eb) = vec_lt(a), vec_lt(b)
        if pa != pb:
            return {}
        return reference_s_vector(a, b, ((pa, ea), a[(pa, ea)]), ((pb, eb), b[(pb, eb)]), fld)

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
    kept, gb = mingens(vecs, twists, R, f=f)
    assert kept == mingens_per_candidate(vecs, twists, R, f)
    assert same_basis(gb, buchberger(vecs + (_f_unit_vectors(f, twists) if over_a else []), twists, R))


# ---------------------------------------------------------------------------
# differential test against the reference Buchberger, and a sympy oracle


def random_coefficient(rng, fld):
    """A field element, possibly 0, with denominators 1–4 (over Q)."""
    return fld.of(Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)))


def random_homogeneous_vec(rng, R, twists, d):
    """A random vector of degree d for the ambient twists (possibly zero)."""
    v = {}
    for pos, t in enumerate(twists):
        if d >= t and rng.random() < 0.7:
            monos = R.monomials_of_degree(d - t)
            for exp in rng.sample(monos, rng.randrange(1, min(3, len(monos)) + 1)):
                c = random_coefficient(rng, R.field)
                if c:
                    v[(pos, exp)] = c
    return v


def random_combination(rng, R, twists, cols, d):
    """A degree-d combination of the homogeneous vectors cols."""
    w = {}
    for col in cols:
        e = vec_degree(col, twists)
        if col and e <= d:
            for _ in range(rng.randrange(3)):
                shift = rng.choice(R.monomials_of_degree(d - e))
                reference_add_scaled(w, col, random_coefficient(rng, R.field), shift, R.field)
    return w


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([QQ, Field(7), Field(101)]), st.booleans())
def test_row_echelon_pass_matches_reference_buchberger(seed, fld, over_a):
    R = PolyRing(fld)
    rng = random.Random(seed)
    twists = [rng.randrange(3) for _ in range(rng.randrange(1, 4))]
    f = R.parse("Y^2*Z - X^3 - Z^3") if over_a else None
    cols = _f_unit_vectors(f, twists) if over_a else []
    vecs = []
    for _ in range(rng.randrange(1, 5)):
        d = rng.randrange(1, 4)
        if rng.random() < 0.3:  # redundant for mingens
            vecs.append(random_combination(rng, R, twists, vecs + cols, d))
        else:
            vecs.append(random_homogeneous_vec(rng, R, twists, d))
    cols = vecs + cols

    gb = mk.groebner_basis(vecs, ring=R, twists=twists, f=f)
    ref = reference_buchberger(cols, twists, R)
    # same vectors, same coefficients, same key order
    assert [list(v.items()) for v in gb.basis] == [list(v.items()) for v in ref]
    kept, kept_gb = mingens(vecs, twists, R, f=f)
    assert kept == reference_mingens(vecs, twists, R, f)
    assert same_basis(kept_gb, gb)  # gb is buchberger of cols: vecs, then f·e_i
    lts = lts_of(gb.basis)
    for _ in range(3):
        w = random_homogeneous_vec(rng, R, twists, rng.randrange(5))
        assert list(mk.normal_form(w, gb).items()) == list(reference_reduce_vec(w, gb.basis, lts, fld).items())

    span = ColumnSpan(R, twists, cols)
    # f= appends f·e_i after the given columns, so the basis is the same
    assert [list(v.items()) for v in ColumnSpan(R, twists, vecs, f=f).gb.basis] == [
        list(v.items()) for v in span.gb.basis
    ]
    if over_a:
        mod_f = _f_unit_vectors(f, twists)
        want = [reference_reduce_vec(v, mod_f, lts_of(mod_f), fld) for v in vecs]
        kept, kept_gb = minimal_mod_f(vecs, twists, R, f)
        assert kept == reference_mingens([v for v in want if v], twists, R, f)
        assert same_basis(kept_gb, gb)
    d = rng.randrange(1, 5)
    w = random_combination(rng, R, twists, cols, d)
    span_lts = lts_of(span.gb.basis)
    for target in (w, random_homogeneous_vec(rng, R, twists, d)):
        u = span.lift(target)
        ambient = reference_reduce_vec(target, span.gb.basis, span_lts, fld, positions_below=len(twists))
        assert (u is None) == any(t[0] < len(twists) for t in ambient)
        if u is not None:
            acc = {}
            for (j, exp), c in u.items():
                reference_add_scaled(acc, cols[j], c, exp, fld)
            assert acc == target
    assert span.lift(w) is not None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([QQ, Field(101)]), st.booleans())
def test_a_degree_step_leaves_its_reducer_rows_alone(seed, fld, over_a):
    # each degree's reducers are cleared against but never written to: the
    # new rows are echelonised in a space of their own
    R = PolyRing(fld)
    rng = random.Random(seed)
    twists = [rng.randrange(3) for _ in range(rng.randrange(1, 4))]
    vecs = [random_homogeneous_vec(rng, R, twists, rng.randrange(1, 4)) for _ in range(rng.randrange(2, 6))]
    spaces = []

    def recorded(rows, at_pos, pk, field):
        space = _reducer_space(rows, at_pos, pk, field)
        spaces.append((space, copy.deepcopy(space.rows)))
        return space

    f = R.parse("Y^2*Z - X^3 - Z^3") if over_a else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_reducer_space", recorded)
        gb = mk.groebner_basis(vecs, ring=R, twists=twists, f=f)
    assume(any(rows for _, rows in spaces))
    assert all(space.rows == rows for space, rows in spaces)
    assert [list(v.items()) for v in gb.basis] == [
        list(v.items()) for v in reference_buchberger(vecs + (_f_unit_vectors(f, twists) if over_a else []), twists, R)
    ]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([QQ, Field(7), Field(101)]),
    st.sampled_from(["Y^2*Z - X^3 - Z^3", "Y^2*Z - X^3 + 2*X*Z^2 - 3*Z^3"]),
)
def test_minimal_mod_f_matches_reducing_every_vector_first(seed, fld, potential):
    # reference: the normal form of every vector against f·e_i, zero ones
    # dropped, then mingens over A; draws include multiples of f (normal
    # form 0) and combinations of earlier draws and f·e_i
    R = PolyRing(fld)
    rng = random.Random(seed)
    f = R.parse(potential)
    twists = [rng.randrange(3) for _ in range(rng.randrange(1, 4))]
    f_cols = _f_unit_vectors(f, twists)
    vecs = []
    for _ in range(rng.randrange(1, 7)):
        d, kind = rng.randrange(1, 6), rng.random()
        if kind < 0.25:
            vecs.append(random_combination(rng, R, twists, f_cols, d))
        elif kind < 0.5:
            vecs.append(random_combination(rng, R, twists, vecs + f_cols, d))
        else:
            vecs.append(random_homogeneous_vec(rng, R, twists, d))
    mod_f = buchberger(f_cols, twists, R)
    reduced = [v for v in (reduce_vec(v, mod_f) for v in vecs) if v]
    got, gb = minimal_mod_f(vecs, twists, R, f)
    assert [list(v.items()) for v in got] == [list(v.items()) for v in mingens(reduced, twists, R, f=f)[0]]
    assert all(reduce_vec(v, mod_f) == v for v in got)
    assert same_basis(gb, buchberger(vecs + f_cols, twists, R))


@pytest.mark.parametrize(
    "char, a, b",
    [(0, Fraction(1, 2), Fraction(-3, 7)), (101, Fraction(1, 2), Fraction(-3, 7)), (7, 1, 1)],
)
@pytest.mark.parametrize("twists", [[0], [0, 1, 1], [2, -1, 0, 5], [3, 3]])
def test_f_basis_is_the_pass_over_f_e_i(char, a, b, twists):
    curve = mk.curve_new(Field(char), a, b)
    R, f = curve.ring, curve.f
    direct = _f_basis(f, twists, R)
    passed = buchberger(_f_unit_vectors(f, twists), twists, R)
    assert same_basis(direct, passed)
    assert [list(r.items()) for r in direct._rows] == [list(r.items()) for r in passed._rows]
    assert direct.hilbert_numerators == passed.hilbert_numerators
    if not char:  # monic: X^3 - Y^2·Z + (1/2)·X·Z^2 - (3/7)·Z^3
        assert {type(c) for v in direct.basis for c in v.values()} == {int, Fraction}


@pytest.mark.parametrize("fld", [QQ, Field(101)])
def test_minimal_mod_f_runs_one_pass_and_no_buchberger(fld):
    R = PolyRing(fld)
    f = R.parse("Y^2*Z - X^3 - Z^3")
    rng = random.Random(5)
    twists = [0, 1, 1]
    vecs = [random_homogeneous_vec(rng, R, twists, d) for d in (1, 2, 2, 3, 4)]
    vecs.append(random_combination(rng, R, twists, vecs + _f_unit_vectors(f, twists), 4))
    with pytest.MonkeyPatch.context() as mp:
        built, passes = counting(mp, "buchberger"), counting(mp, "_degree_pass")
        kept, gb = minimal_mod_f(vecs, twists, R, f)
    assert built == [] and len(passes) == 1
    assert kept and same_basis(gb, buchberger(vecs + _f_unit_vectors(f, twists), twists, R))


def whole_basis_reducer_space(rows, basis, lts, fld):
    """_reducer_space by scanning the whole basis for each term: the reducer
    of a term is the multiple of the first element whose leading term divides it.
    Returns the space, its columns numbered by descending visited term, and
    those terms."""
    reducers = {}
    todo = [t for r in rows for t in r]
    while todo:
        t = todo.pop()
        if t in reducers:
            continue
        divisors = [(lt, g) for g, (lt, _) in zip(basis, lts) if term_divides(lt, t)]
        reducers[t] = None
        if divisors:
            lt, g = divisors[0]
            shift = [b - a for a, b in zip(lt[1], t[1])]
            reducers[t] = {(p, tuple(a + b for a, b in zip(e, shift))): c for (p, e), c in g.items()}
            todo.extend(reducers[t])
    terms = sorted(reducers, key=term_key, reverse=True)
    cols = {t: j for j, t in enumerate(terms)}
    space = row_space([int_row({cols[u]: c for u, c in r.items()}, fld) for r in reducers.values() if r], fld)
    return space, terms


def packed_reducer_space(rows, basis, twists, ring):
    """_reducer_space of rows against basis, packed here, its rows read
    back in terms: {pivot term: {term: stored coefficient}}."""
    pk, fld = _Packing(ring.nvars, tuple(twists)), ring.field
    at_pos = {}
    for v in basis:
        row = int_row({-pk.pack(t): c for t, c in v.items()}, fld)
        _index(at_pos, pk, min(row), row)
    packed = [{-pk.pack(t): c for t, c in r.items()} for r in rows]
    space = _reducer_space(packed, at_pos, pk, fld)
    return {pk.unpack(-q): {pk.unpack(-c): x for c, x in row.items()} for q, row in space.rows.items()}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([QQ, Field(101)]), st.booleans())
def test_reducer_space_matches_whole_basis_scan(seed, fld, reduced):
    # leading terms at several positions; an unreduced basis also has
    # elements whose leading terms divide one another, so "first in basis
    # order" decides the reducer
    R = PolyRing(fld)
    rng = random.Random(seed)
    twists = [rng.randrange(3) for _ in range(rng.randrange(2, 4))]
    gens = []
    for _ in range(rng.randrange(2, 7)):
        low = rng.randrange(len(twists))  # no terms above this position
        v = random_homogeneous_vec(rng, R, twists, rng.randrange(1, 4))
        gens.append({t: c for t, c in v.items() if t[0] >= low})
    gens = [v for v in gens if v]
    basis = mk.groebner_basis(gens, ring=R, twists=twists).basis if reduced and gens else gens
    rows = [random_homogeneous_vec(rng, R, twists, rng.randrange(2, 6)) for _ in range(3)]
    ref, terms = whole_basis_reducer_space(rows, basis, lts_of(basis), fld)
    # the reference's columns are its visited terms by descending term, so
    # its pivots are the terms that got a reducer, in the packed order
    want = {terms[q]: {terms[c]: x for c, x in row.items()} for q, row in ref.rows.items()}
    assert packed_reducer_space(rows, basis, twists, R) == want


def tuple_standard_count(basis, pos, degree, ring):
    """Standard monomials at pos by the tuple loop hilbert_function once ran:
    every monomial of the degree against every leading exponent there."""
    leads = [exp for p, exp in map(vec_lt, basis) if p == pos]
    return sum(
        1
        for exp in ring.monomials_of_degree(degree)
        if not any(all(a >= b for a, b in zip(exp, le)) for le in leads)
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([QQ, Field(101)]))
def test_standard_count_matches_the_tuple_loop(seed, fld):
    # generators with no terms above a random position leave the positions
    # above it with no leading term; over A every position has f·e_i
    R = PolyRing(fld)
    rng = random.Random(seed)
    twists = [rng.randrange(3) for _ in range(rng.randrange(1, 4))]
    gens = []
    for _ in range(rng.randrange(0, 6)):
        low = rng.randrange(len(twists))
        v = random_homogeneous_vec(rng, R, twists, rng.randrange(1, 4))
        gens.append({t: c for t, c in v.items() if t[0] >= low})
    gens = [v for v in gens if v]
    gb = mk.groebner_basis(gens, ring=R, twists=twists)
    for pos in range(len(twists)):
        for d in range(-3, 13):
            assert gb.standard_count(pos, d) == tuple_standard_count(gb.basis, pos, d, R)
    f = R.parse("Y^2*Z - X^3 - Z^3")
    P = mk.Presentation(R, f, twists, vectors_as_columns(R, twists, gens))
    module = mk.groebner_basis(gens, ring=R, twists=twists, f=f).basis
    for i in range(-3, 13):
        want = sum(tuple_standard_count(module, j, i - t, R) for j, t in enumerate(twists))
        assert mk.hilbert_function(P, i) == want


# ---------------------------------------------------------------------------
# Hilbert-series numerators of monomial ideals against brute-force counting


def exponents_of_degree(n, d):
    """Every n-variable exponent tuple of total degree d, enumerated here."""
    if d < 0:
        return
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in exponents_of_degree(n - 1, d - first):
            yield (first, *rest)


def brute_count(gens, n, d):
    """Exponents of degree d in n variables that no generator divides."""
    return sum(
        not any(all(a >= b for a, b in zip(e, g)) for g in gens) for e in exponents_of_degree(n, d)
    )


def trimmed(coeffs):
    """The coefficient list without trailing zeros."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def count_from_numerator(num, n, d):
    """Coefficient of t^d in N(t)/(1 - t)^n."""
    return sum(c * comb(d - k + n - 1, n - 1) for k, c in enumerate(num) if k <= d)


def monomial_basis(gens, n):
    """The reduced basis of the monomial ideal ⟨x^g⟩ in n variables over GF(101)."""
    R = PolyRing(Field(101), names=[f"x{i}" for i in range(n)])
    return mk.groebner_basis([R.monomial(g) for g in gens], ring=R, twists=[0])


def pure_powers(*powers):
    """Raw generators x_i^(a_i), one per variable: a complete intersection."""
    return [[a if j == i else 0 for j in range(4)] for i, a in enumerate(powers)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4), max_size=6))
@example(1, [])
@example(2, [])
@example(3, [])
@example(4, [])
@example(1, [[0] * 4])
@example(2, [[0] * 4])
@example(3, [[0] * 4])
@example(4, [[0] * 4])
@example(1, pure_powers(5))
@example(2, pure_powers(2, 3))
@example(3, pure_powers(1, 4, 2))
@example(4, pure_powers(3, 3, 3, 1))
def test_hilbert_numerator_matches_brute_force_counts(n, raw):
    # any generators, not only minimal ones: x^m already in I gives I : x^m = R.
    # The examples are the empty and the unit ideal and four pure powers
    gens = [tuple(g[:n]) for g in raw]
    num = hilbert_numerator(gens)
    top = max(len(num), 13)
    h = [brute_count(gens, n, d) for d in range(top)]
    # N(t) = H(t)·(1 - t)^n, coefficient by coefficient up to the top degree
    series = [sum((-1) ** j * comb(n, j) * h[d - j] for j in range(min(n, d) + 1)) for d in range(top)]
    assert trimmed(num) == trimmed(series)
    gb = monomial_basis(gens, n)
    for d in range(-3, 13):
        want = h[d] if d >= 0 else 0
        assert count_from_numerator(num, n, d) == want
        assert gb.standard_count(0, d) == want


def test_hilbert_numerator_of_a_long_staircase():
    # ⟨x^i·y^(N-i)⟩ = (x, y)^N: H(d) = d + 1 below N and 0 from N on, so
    # N(t) = 1 - (N + 1)·t^N + N·t^(N+1).  The N + 1 generators fold in a
    # loop, so there are far more of them than recursion levels
    N = 1500
    num = hilbert_numerator([(i, N - i) for i in range(N + 1)])
    assert trimmed(num) == [1] + [0] * (N - 1) + [-(N + 1), N]
    for d in (0, 1, N - 1, N, N + 1, 2 * N):
        assert count_from_numerator(num, 2, d) == (d + 1 if d < N else 0)


def uncached_numerator(gens):
    """The Bayer–Stillman fold of hilbert_numerator with no memo, trailing
    zeros cut."""
    num, done = [1], []
    for m in gens:
        colon = {tuple(max(a - b, 0) for a, b in zip(g, m)) for g in done}
        inner = uncached_numerator(sorted(colon))
        num += [0] * (sum(m) + len(inner) - len(num))
        for k, c in enumerate(inner, sum(m)):
            num[k] -= c
        done.append(m)
    return trimmed(num)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4), max_size=6), st.randoms())
def test_cached_numerators_match_the_uncached_fold(n, raw, rnd):
    # one generator set in several orders and with repeats: every call gets
    # the fold's numerator as a fresh list, and the memo stays bounded
    gens = [tuple(g[:n]) for g in raw]
    want = uncached_numerator(gens)
    shuffled = rnd.sample(gens, len(gens))
    doubled = gens + [rnd.choice(gens) for _ in gens]
    for order in (gens, shuffled, doubled, list(reversed(gens))):
        got = hilbert_numerator(order)
        assert got == want
        got.append(7)
    assert hilbert_numerator(gens) == want
    info = groebner._numerator.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_a_hom_pass_folds_each_leading_term_set_once(monkeypatch):
    # the image bases of one stable-Hom sweep share leading-term sets, so
    # the numerator memo answers most reads within one sweep
    curve = mk.default_curve(Field(101))
    kp = mk.catalog_mf(curve, "point", mk.default_points(curve, 1)[0])
    O = mk.catalog_mf(curve, "structure-sheaf")
    groebner._numerator.cache_clear()
    for M, N in ((kp, O), (O, kp), (O, O), (kp, kp)):
        [mk.stable_hom_dim(M, N, shift=s) for s in range(-3, 4)]
    info = groebner._numerator.cache_info()
    assert info.hits > info.misses > 0


# ---------------------------------------------------------------------------
# packed terms against the tuple form


def all_terms(nvars, positions, below):
    """Every (position, exponent) with |exponent| < below."""
    return [(pos, exp) for pos in range(positions) for exp in product(range(below), repeat=nvars) if sum(exp) < below]


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_packed_terms_match_the_tuple_order(nvars):
    pk = _Packing(nvars, (0, 0, 0, 0))
    terms = all_terms(nvars, 4, 8)
    packed = {t: pk.pack(t) for t in terms}
    assert sorted(terms, key=packed.get) == sorted(terms, key=term_key)
    assert len(set(packed.values())) == len(terms)
    assert all(pk.unpack(packed[t]) == t for t in terms)
    shifts = [exp for pos, exp in terms if pos == 0]
    zero = (0,) * nvars
    for i, (pos, exp) in enumerate(terms):
        for s in shifts[i % 5 :: 5]:
            key = pk.pack((i % 4, s)) - pk.pack((i % 4, zero))  # x^s as a shift, at any position
            assert packed[(pos, exp)] + key == pk.pack((pos, tuple(a + b for a, b in zip(exp, s))))


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_packed_divisibility_is_componentwise(nvars):
    pk = _Packing(nvars, (0, 0, 0, 0))
    terms = all_terms(nvars, 4, 8)
    packed = {t: pk.pack(t) for t in terms}
    at_2 = [t for t in terms if t[0] == 2]
    for i, a in enumerate(at_2):  # every pair at one position, and a slice across positions
        for b in at_2 + terms[i % 7 :: 7]:
            assert pk.divides(packed[a], packed[b]) == term_divides(a, b)


def test_packed_terms_up_to_the_degree_limit():
    # below 2^DEGREE_BITS every term packs, unpacks and divides exactly;
    # from there on it is refused
    pk = _Packing(3, (0, 0))
    top = (1 << DEGREE_BITS) - 1
    big = [(0, 0, 0), (1, 0, 0), (top, 0, 0), (top - 1, 1, 0), (0, 5, top - 5), (0, 0, top), (top >> 1, 0, top >> 1)]
    for a in big:
        assert pk.unpack(pk.pack((1, a))) == (1, a)
        for b in big:
            assert pk.divides(pk.pack((1, a)), pk.pack((1, b))) == term_divides((1, a), (1, b))
    for exp in [(1 << DEGREE_BITS, 0, 0), (0, 0, 1 << DEGREE_BITS), (1, 2, top - 2), (1 << 32, 0, 0)]:
        with pytest.raises(mk.ValidationError, match=f"below 2\\^{DEGREE_BITS}"):
            pk.pack((1, exp))
    # a term at a higher twist refuses the degree its module's lower twist would reach
    pk = _Packing(3, (0, 2))
    pk.pack((0, (top, 0, 0)))
    pk.pack((1, (top - 2, 0, 0)))
    with pytest.raises(mk.ValidationError):
        pk.pack((1, (top - 1, 0, 0)))


def test_terms_outside_the_ambient_positions_are_refused(R):
    X, Y, Z = R.gens()
    gb = mk.groebner_basis([X * X - Y * Z], ring=R)
    for pos in (1, -1):
        with pytest.raises(mk.ValidationError, match="positions"):
            mk.normal_form({(pos, (2, 0, 0)): QQ.one}, gb)


def sympy_monic_basis(sympy, gens, fld):
    """sympy's reduced grevlex basis of the ideal of gens (X > Y > Z), monic,
    as {exponent: coefficient} dicts sorted by leading monomial."""
    syms = sympy.symbols("X Y Z")
    exprs = []
    for p in gens:
        expr = 0
        for exp, c in p.terms.items():
            c = sympy.Rational(c.numerator, c.denominator) if fld.char == 0 else c
            expr += c * sympy.Mul(*(s**e for s, e in zip(syms, exp)))
        exprs.append(expr)
    opts = {"modulus": fld.char} if fld.char else {}
    out = []
    for g in sympy.groebner(exprs, *syms, order="grevlex", **opts).polys:
        terms = {exp: fld.of(Fraction(int(c.p), int(c.q))) for exp, c in g.terms()}
        lead = terms[max(terms, key=grevlex_key)]
        out.append({exp: fld.div(c, lead) for exp, c in terms.items()})
    return sorted(out, key=lambda t: grevlex_key(max(t, key=grevlex_key)), reverse=True)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([QQ, Field(101)]))
def test_groebner_basis_matches_sympy(seed, fld):
    sympy = pytest.importorskip("sympy")
    R = PolyRing(fld)
    rng = random.Random(seed)
    gens = []
    for _ in range(rng.randrange(1, 4)):
        monos = R.monomials_of_degree(rng.randrange(1, 4))
        p = R.from_terms({e: random_coefficient(rng, fld) for e in rng.sample(monos, rng.randrange(1, 4))})
        if not p.is_zero():
            gens.append(p)
    if not gens:
        return
    ours = [{e: c for (_, e), c in v.items()} for v in mk.groebner_basis(gens, ring=R).basis]
    assert ours == sympy_monic_basis(sympy, gens, fld)
