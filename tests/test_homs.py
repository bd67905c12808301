"""Morphisms, stable Hom spaces, cones, isomorphism search, twist functors."""

import functools
import random
from math import lcm

import pytest

import mfkit as mk
from mfkit import homs
from mfkit.homs import HomProblem
from mfkit.linalg import int_row, nullspace, row_space
from mfkit.poly import GradedMatrix, graded_inverse, pack_lex

from fixtures import CONE_CASES, CONE_SHAPES, catalog_objects, cone_generator, cone_target


@pytest.fixture(scope="module")
def kp(curve, points):
    return mk.catalog_mf(curve, "point", points[0])


@pytest.fixture(scope="module")
def kq(curve, points):
    return mk.catalog_mf(curve, "point", points[1])


@pytest.fixture(scope="module")
def osheaf(curve):
    return mk.catalog_mf(curve, "structure-sheaf")


# ---------------------------------------------------------------------------
# morphism algebra


def test_identity_and_zero_are_strict(kp, kq):
    assert mk.verify_morphism(mk.identity_morphism(kp)) == []
    assert mk.verify_morphism(mk.zero_morphism(kp, kq)) == []


def test_compose_add_scale(kp, curve):
    ida = mk.identity_morphism(kp)
    two = mk.add_morphisms(ida, ida)
    assert mk.verify_morphism(two) == []
    assert two.f0.entries[0][0] == curve.ring.const(2)
    sq = mk.compose_morphisms(two, two)
    assert sq.f0.entries[0][0] == curve.ring.const(4)
    neg = mk.scale_morphism(two, curve.field.of(-1))
    total = mk.add_morphisms(two, neg)
    assert total.f0.is_zero() and total.f1.is_zero()


def test_twist_mismatch_is_reported(kp, kq, curve):
    ring = curve.ring
    wrong = mk.MFMorphism(
        kp, kq, GradedMatrix.identity(ring, kp.p0), GradedMatrix.identity(ring, kp.p1)
    )
    assert mk.verify_morphism(wrong)


def test_nonchain_map_is_reported(kp, curve):
    ring = curve.ring
    X, Y, Z = ring.gens()
    f0 = GradedMatrix.scalar(X, kp.p0)
    f1 = GradedMatrix.zero(ring, [t - 1 for t in kp.p1], kp.p1)
    phi = mk.MFMorphism(kp, mk.twist_mf(kp, 1), f0, f1)
    msgs = mk.verify_morphism(phi)
    assert msgs and any("alpha" in m or "beta" in m for m in msgs)


def perturbed(A: GradedMatrix, rng) -> GradedMatrix:
    """A plus one random term in a random entry of nonnegative degree, so
    still graded; A itself when no entry has one."""
    ring = A.ring
    cells = [(i, j) for i in range(A.rows) for j in range(A.cols) if A.source_twists[j] >= A.target_twists[i]]
    if not cells:
        return A
    i, j = rng.choice(cells)
    entries = [list(row) for row in A.entries]
    exp = rng.choice(ring.monomials_of_degree(A.source_twists[j] - A.target_twists[i]))
    entries[i][j] = entries[i][j] + ring.monomial(exp, ring.field.of(rng.randrange(1, 5)))
    return GradedMatrix(ring, A.target_twists, A.source_twists, entries)


@pytest.mark.parametrize("char,lam,mu", [(0, 0, 1), (101, 2, 3)])
def test_alpha_square_decides_strictness_alone(char, lam, mu):
    # between factorisations of one f != 0 the beta-square follows from the
    # alpha-square, so both squares and verify_morphism, which checks only
    # the alpha-square, give one verdict
    curve, objs = catalog_objects(char, lam, mu)
    fld = curve.field
    rng = random.Random(char)
    kinds = sorted(objs)
    verdicts = []
    for _ in range(12):
        M, N = objs[rng.choice(kinds)], mk.twist_mf(objs[rng.choice(kinds)], rng.randrange(3))
        phi = mk.zero_morphism(M, N)
        for b in mk.hom_space(M, N).strict_basis:
            phi = mk.add_morphisms(phi, mk.scale_morphism(b, fld.of(rng.randrange(-3, 4))))
        f0, f1 = perturbed(phi.f0, rng), perturbed(phi.f1, rng)
        for g0, g1 in ((phi.f0, phi.f1), (f0, phi.f1), (phi.f0, f1), (f0, f1)):
            psi = mk.MFMorphism(M, N, g0, g1)
            alpha = (g1 * M.alpha).same_entries(N.alpha * g0)
            beta = (g0 * M.beta).same_entries(N.beta * g1)
            assert alpha == beta == (mk.verify_morphism(psi) == [])
            verdicts.append(alpha)
        assert verdicts[-4]  # the combination of strict morphisms
    assert not all(verdicts)


# ---------------------------------------------------------------------------
# homotopies


def test_zero_is_null_homotopic(kp, kq):
    assert mk.is_null_homotopic(mk.zero_morphism(kp, kq))


def test_identity_is_not_null_homotopic(kp, osheaf):
    assert not mk.is_null_homotopic(mk.identity_morphism(kp))
    assert not mk.is_null_homotopic(mk.identity_morphism(osheaf))


def test_multiplication_by_potential_is_null_homotopic(kp, curve):
    f = curve.f
    phi = mk.MFMorphism(
        kp,
        mk.twist_mf(kp, 3),
        GradedMatrix.scalar(f, kp.p0),
        GradedMatrix.scalar(f, kp.p1),
    )
    assert mk.verify_morphism(phi) == []
    assert mk.is_null_homotopic(phi)


# ---------------------------------------------------------------------------
# stable Hom dimensions (sheaf-cohomology oracles)


def test_stable_hom_dimension_table(curve, points, kp, kq, osheaf):
    cases = [
        (kp, kp, {-1: 1, 0: 1}),
        (kp, kq, {}),
        (osheaf, kp, {0: 1}),
        (osheaf, osheaf, {-1: 1, 0: 1}),
        (osheaf, mk.catalog_mf(curve, "lb-minus-p", points[0]), {-1: 1}),
        (osheaf, mk.catalog_mf(curve, "lb-minus-e"), {-1: 1}),
        (osheaf, mk.catalog_mf(curve, "lb-e-plus-p", points[0]), {-1: 2}),
        (osheaf, mk.catalog_mf(curve, "lb-2e"), {-1: 2}),
        (osheaf, mk.catalog_mf(curve, "lb-2e-plus-p", points[0]), {-1: 3}),
    ]
    for M, N, expected in cases:
        for shift in range(-3, 4):
            want = expected.get(shift, 0)
            assert mk.stable_hom_dim(M, N, shift=shift) == want


# (rank, degree) of the sheaf on E that each nontrivial catalog kind models
RANK_DEGREE = {
    "point": (0, 1),
    "point-e": (0, 1),
    "lb-minus-p": (1, -1),
    "lb-minus-e": (1, -1),
    "lb-e-plus-p": (1, -2),
    "lb-2e": (1, -2),
    "lb-2e-plus-p": (1, -3),
    "structure-sheaf": (1, 0),
    "fundamental": (1, 0),
}


@pytest.mark.parametrize("char, lam, mu", [(101, 2, 3), (0, 0, 1)])
def test_serre_duality_and_riemann_roch_on_all_pairs(char, lam, mu):
    # Orlov's equivalence with D^b(coh E) predicts, for all 81 ordered pairs,
    # dim Hom(X, Y) = dim Hom(Y[-1], X) and
    # dim Hom(X, Y) - dim Hom(X[-1], Y) = r_X d_Y - r_Y d_X;
    # neither identity shares code with hom_space
    curve = mk.default_curve(mk.Field(char))
    pt = mk.point_on(curve, curve.field.of(lam), curve.field.of(mu))
    objs = {k: mk.catalog_mf(curve, k, pt if k in mk.POINT_KINDS else None) for k in RANK_DEGREE}
    dim = {
        (x, y, s): mk.stable_hom_dim(objs[x], objs[y], shift=s)
        for x in objs
        for y in objs
        for s in (0, -1)
    }
    for x, (rx, dx) in RANK_DEGREE.items():
        for y, (ry, dy) in RANK_DEGREE.items():
            assert dim[x, y, 0] == dim[y, x, -1], (x, y)
            assert dim[x, y, 0] - dim[x, y, -1] == rx * dy - ry * dx, (x, y)


# An independent oracle for the Hom systems: the differential D applied by
# GradedMatrix products to monomial morphisms and homotopies, in the
# problem's slot coordinates, sharing no code with HomProblem's systems


def monomial_maps(ring, tgt, src):
    """Every graded map ⊕ R(−src) → ⊕ R(−tgt) with one monomial entry."""
    zero = ring.zero()
    for i, t in enumerate(tgt):
        for j, s in enumerate(src):
            for exp in ring.monomials_of_degree(s - t) if s >= t else ():
                entries = [[zero] * len(src) for _ in tgt]
                entries[i][j] = ring.monomial(exp)
                yield GradedMatrix(ring, list(tgt), list(src), entries)


def boundary_morphisms(M, N):
    """D(h, s) = (h·alpha_M + beta_N·s, alpha_N·h + s·beta_M) on every
    monomial homotopy h: P1(M) → P0(N) or s: P0(M) → P1(N)(−3), the other
    being zero; nonzero images only."""
    ring = M.ring
    images = [(h * M.alpha, N.alpha * h) for h in monomial_maps(ring, N.p0, M.p1)]
    images += [(N.beta * s, s * M.beta) for s in monomial_maps(ring, [b + 3 for b in N.p1], M.p0)]
    return [
        mk.MFMorphism(M, N, f0.with_twists(N.p0, M.p0), f1.with_twists(N.p1, M.p1))
        for f0, f1 in images
        if not (f0.is_zero() and f1.is_zero())
    ]


def full_strict_space(prob):
    """Both squares of D(f0, f1), alpha_N·f0 − f1·alpha_M and
    f0·beta_M − beta_N·f1, on every monomial morphism (f0, 0) or (0, f1),
    transposed on the slots, as a row space."""
    M, N, ring = prob.M, prob.N, prob.ring
    zero0, zero1 = GradedMatrix.zero(ring, N.p0, M.p0), GradedMatrix.zero(ring, N.p1, M.p1)
    minus_alpha_M, minus_beta_N = -M.alpha, -N.beta
    images = [(f0, zero1, N.alpha * f0, f0 * M.beta) for f0 in monomial_maps(ring, N.p0, M.p0)]
    images += [
        (zero0, f1, f1 * minus_alpha_M, minus_beta_N * f1) for f1 in monomial_maps(ring, N.p1, M.p1)
    ]
    assert len(images) == len(prob.slots)
    rows: dict = {}
    for f0, f1, *squares in images:
        [col] = prob.vector_from_morphism(mk.MFMorphism(M, N, f0, f1))
        for square, mat in enumerate(squares):
            for i, row in enumerate(mat.entries):
                for j, e in enumerate(row):
                    for exp, c in e.terms.items():
                        rows.setdefault((square, i, j, exp), {})[col] = c
    return row_space([int_row(r, ring.field) for r in rows.values()], ring.field)


def full_boundary_space(prob, boundaries):
    """The span of boundaries in full morphism coordinates."""
    fld = prob.ring.field
    return row_space([int_row(prob.vector_from_morphism(phi), fld) for phi in boundaries], fld)


def folded_representatives(H, boundaries):
    """The stable representatives by folding every strict solution, in
    order, into the full boundary span and keeping those that enlarge it."""
    prob = H.problem
    span, fld = full_boundary_space(prob, boundaries), prob.ring.field
    return [phi for phi in H.strict_basis if span.add(int_row(prob.vector_from_morphism(phi), fld)) is not None]


def test_boundaries_are_strict_morphisms(curve101):
    # D∘D = 0: every image D(h, s) must be an even cycle, i.e. a strict
    # morphism, so stopping the fold at stable_dim representatives keeps
    # exactly the representatives that folding every solution finds
    pt = mk.default_points(curve101, 1)[0]
    objs = [
        mk.catalog_mf(curve101, kind, pt if kind in mk.POINT_KINDS else None)
        for kind in mk.CATALOG_KINDS
    ]
    checked = 0
    for M in objs:
        for N in objs:
            for shift in (-1, 0, 1):
                Ms = mk.shift_mf(M, shift)
                H = mk.hom_space(Ms, N)
                # strict_dim is #slots − rank of the strict equations; the
                # kernel, built only now, must have exactly that many vectors
                assert len(H.solutions) == H.strict_dim
                boundaries = boundary_morphisms(Ms, N)
                for phi in boundaries:
                    assert mk.verify_morphism(phi) == []
                    checked += 1
                assert H.basis == folded_representatives(H, boundaries)
    assert checked > 0


@functools.cache
def catalog_pairs(char, lam, mu, kinds=mk.CATALOG_KINDS):
    """(M[s], N, the oracle's boundaries) for every ordered pair of the
    catalog kinds and s in -1..1."""
    objs = [catalog_objects(char, lam, mu)[1][k] for k in kinds]
    pairs = [(mk.shift_mf(M, s), N) for M in objs for N in objs for s in (-1, 0, 1)]
    return [(M, N, boundary_morphisms(M, N)) for M, N in pairs]


def assert_half_systems_match_full(M, N, oracle):
    # the alpha-square alone has the row space of both squares, the images
    # of the successor Hom(M[1], N) span the f1 parts of the oracle's
    # boundaries, and f1 coordinates see the fold as full coordinates do
    H = mk.hom_space(M, N)
    prob, fld = H.problem, M.ring.field
    strict, boundaries = full_strict_space(prob), full_boundary_space(prob, oracle)
    assert H._equations.rows == strict.rows
    assert H.boundary_rank == boundaries.rank
    assert H.shifted.M == mk.shift_mf(M, 1) and H.shifted.N == N
    f1_parts = [prob.f1_part(prob.vector_from_morphism(phi)) for phi in oracle]
    span = row_space(prob.boundary_vectors(H.shifted), fld)
    assert span.rows == row_space([int_row(v, fld) for v in f1_parts], fld).rows
    solutions = nullspace(strict, len(prob.slots))
    assert H.solutions == solutions
    reps = [v for v in solutions if boundaries.add(int_row(v, fld)) is not None]
    assert H.basis == [prob.morphism_from_vector(v) for v in reps]


# on y^2 = x^3 + 1/4 at (0, 1/2) the alphas have denominators 2 and 4, so
# the strict rows and the boundaries are scaled by D > 1; three kinds keep
# that case quick
HALF_SYSTEM_KINDS = {"1/2": ("point", "lb-2e-plus-p", "structure-sheaf")}


@pytest.mark.parametrize("char, lam, mu", [(0, 0, 1), (101, 2, 3), (0, 0, "1/2")])
def test_half_hom_systems_match_the_full_ones(char, lam, mu):
    for M, N, oracle in catalog_pairs(char, lam, mu, HALF_SYSTEM_KINDS.get(mu, mk.CATALOG_KINDS)):
        assert (alpha_denominators(M, N) > 1) == (mu == "1/2")
        assert_half_systems_match_full(M, N, oracle)


@pytest.fixture(scope="module")
def rank_nine(curve101):
    """T_O(lb-2e-plus-p) over GF(101): a reduced factorisation of rank 9."""
    pt = mk.default_points(curve101, 1)[0]
    O = mk.catalog_mf(curve101, "structure-sheaf")
    Y = mk.twist_functor(O, mk.catalog_mf(curve101, "lb-2e-plus-p", pt))
    assert Y.rank == 9
    return Y


def test_half_hom_systems_match_the_full_ones_at_rank_nine(rank_nine):
    for shift in (-1, 0, 1):
        M = mk.shift_mf(rank_nine, shift)
        assert_half_systems_match_full(M, rank_nine, boundary_morphisms(M, rank_nine))


def alpha_square_by_matrices(prob):
    """For each slot of prob, α_N·f0 − f1·α_M on its elementary morphism by
    GradedMatrix arithmetic, as {(row, column, monomial): coefficient}."""
    M, N, one = prob.M, prob.N, prob.ring.field.one
    images = []
    for col in range(len(prob.slots)):
        phi = prob.morphism_from_vector({col: one})
        img = N.alpha * phi.f0 - phi.f1 * M.alpha
        images.append({(i, j, exp): c for i, row in enumerate(img.entries)
                       for j, e in enumerate(row) for exp, c in e.terms.items()})
    return images


def alpha_denominators(M, N):
    """The lcm of every coefficient denominator of alpha_M and alpha_N."""
    return lcm(*(c.denominator for X in (M, N) for row in X.alpha.entries for e in row for c in e.terms.values()))


def square_by_matrices(prob, shifted, char):
    """strict_rows of prob and its boundary_vectors from shifted =
    Hom(M[1], N) by `alpha_square_by_matrices`, and the scales D used: the
    images of the slots of prob transposed, grouped by image key in order
    of first appearance, and those of the slots of shifted slot by slot, on
    the f1 slots of prob they land on, each system scaled by its D (the lcm
    of the alpha denominators over Q, 1 over GF(p)) to plain ints."""
    scales, scaled = set(), {}
    for p in (prob, shifted):
        D = alpha_denominators(p.M, p.N) if char == 0 else 1
        scales.add(D)
        scaled[p] = [{key: int(D * c) for key, c in img.items()} for img in alpha_square_by_matrices(p)]
    rows: dict = {}
    for col, img in enumerate(scaled[prob]):
        for key, c in img.items():
            rows.setdefault(key, {})[col] = c
    vecs = [{prob.index[("f1", *key)]: c for key, c in img.items()} for img in scaled[shifted]]
    return list(rows.values()), vecs, scales


@pytest.mark.parametrize("char, lam, mu", [(0, 0, 1), (101, 2, 3), (0, 0, "1/2")])
def test_alpha_square_rows_match_matrix_arithmetic(char, lam, mu):
    # strict_rows and boundary_vectors are D times the coefficients of the
    # matrix products, plain ints (D = 1 over GF(p); over Q the lcm of the
    # alpha denominators, 4 on y^2 = x^3 + 1/4), in the oracle's order
    kinds = catalog_objects(char, lam, mu)[1]
    objs = [kinds[k] for k in ("point", "lb-2e-plus-p", "structure-sheaf", "trivial")]
    scales = set()
    for M in objs:
        for N in objs:
            prob, shifted = HomProblem(M, N), HomProblem(mk.shift_mf(M, 1), N)
            rows, vecs, D = square_by_matrices(prob, shifted, char)
            assert repr(prob.strict_rows()) == repr(rows)
            assert repr(prob.boundary_vectors(shifted)) == repr(vecs)
            scales |= D
    assert max(scales) == (4 if mu == "1/2" else 1)


@pytest.mark.parametrize("char, lam, mu", [(0, 0, 1), (101, 2, 3)])
def test_packed_keys_at_the_width_of_their_fields(monkeypatch, char, lam, mu):
    # raising the twists of M walks the largest image exponent through
    # 2^K - 1, the largest a field of K bits holds, and the degrees through
    # the powers of two where K grows; at every step the packed rows and
    # boundaries equal the matrix products, and the slots are the exponent
    # tuples sorted descending, stably
    kinds = catalog_objects(char, lam, mu)[1]
    full, widths = set(), set()
    for M, N in ((kinds["point"], kinds["point"]), (kinds["lb-2e"], kinds["structure-sheaf"])):
        for t in range(7):
            prob = HomProblem(mk.twist_mf(M, -t), N)
            shifted = HomProblem(mk.shift_mf(prob.M, 1), N)
            rows, vecs, _ = square_by_matrices(prob, shifted, char)
            assert repr(prob.strict_rows()) == repr(rows)
            assert repr(prob.boundary_vectors(shifted)) == repr(vecs)
            tuples = [(tag, i, j, exp)
                      for tag, tgt, src in (("f0", prob.N.p0, prob.M.p0), ("f1", prob.N.p1, prob.M.p1))
                      for i, a in enumerate(tgt) for j, b in enumerate(src) if b >= a
                      for exp in prob.ring.monomials_of_degree(b - a)]
            assert prob.slots == sorted(tuples, key=lambda s: s[3], reverse=True)
            assert prob.packed == [pack_lex(s[3], prob.width) for s in prob.slots]
            top = max(max(exp) for img in alpha_square_by_matrices(prob) for *_, exp in img)
            assert top < 2**prob.width
            if top == 2**prob.width - 1:
                full.add(prob.width)
            widths.add(prob.width)
    assert full >= {2, 3} and widths >= {2, 3, 4}
    # a system above the bound is refused before a slot or a packed
    # exponent is built
    M, N, built = mk.twist_mf(kinds["point"], -6), kinds["point"], []
    n = len(HomProblem(M, N).slots)
    for name in ("monomials_of_degree", "packed_monomials"):
        method = getattr(mk.PolyRing, name)
        monkeypatch.setattr(mk.PolyRing, name, lambda self, *a, m=method: built.append(a) or m(self, *a))
    monkeypatch.setattr(homs, "MAX_HOM_SLOTS", n - 1)
    with pytest.raises(mk.InputError, match=f"needs {n} unknowns"):
        HomProblem(M, N)
    assert built == []


def equation_rank(M, N):
    prob = HomProblem(M, N)
    return row_space(prob.strict_rows(), prob.ring.field).rank


def assert_boundary_ranks_are_neighbour_ranks(M, N, shifts):
    # the odd part of Hom(M, N) is the even part of Hom(M, N[-1]), and its
    # f1 part is the alpha-square of Hom(M[1], N): the rank of the span of
    # the successor's images, the strict-equation rank at the neighbouring
    # shift and that of Hom(M, N[-1]), built here apart, all agree
    N_below = mk.shift_mf(N, -1)
    for s in shifts:
        Ms, shifted = mk.shift_mf(M, s), HomProblem(mk.shift_mf(M, s + 1), N)
        boundary_rank = row_space(HomProblem(Ms, N).boundary_vectors(shifted), M.ring.field).rank
        assert boundary_rank == equation_rank(mk.shift_mf(M, s + 1), N), s
        assert boundary_rank == equation_rank(Ms, N_below), s
        assert boundary_rank == mk.hom_space(Ms, N).boundary_rank, s


@pytest.mark.parametrize("char, lam, mu", [(0, 0, 1), (101, 2, 3)])
def test_boundary_rank_is_the_neighbouring_strict_rank(char, lam, mu):
    objs = list(catalog_objects(char, lam, mu)[1].values())
    for M in objs:
        for N in objs:
            assert_boundary_ranks_are_neighbour_ranks(M, N, range(-2, 3))


def test_boundary_rank_is_the_neighbouring_strict_rank_at_rank_nine(rank_nine):
    assert_boundary_ranks_are_neighbour_ranks(rank_nine, rank_nine, range(-2, 3))


@pytest.mark.parametrize("char, lam, mu", [(0, 0, 1), (101, 2, 3)])
def test_null_homotopy_agrees_with_full_coordinates(char, lam, mu):
    # is_null_homotopic compares f1 parts only; full-coordinate containment
    # in the boundary span must give the same answer: true on every
    # boundary, false on every stable representative
    for M, N, oracle in catalog_pairs(char, lam, mu):
        H = mk.hom_space(M, N)
        prob = H.problem
        boundaries = full_boundary_space(prob, oracle)
        for phi in oracle:
            assert mk.is_null_homotopic(phi)
        for rep in H.basis:
            assert not boundaries.contains(prob.vector_from_morphism(rep))
            assert not mk.is_null_homotopic(rep)


def test_hom_space_builds_only_the_representatives(monkeypatch, kp, kq, osheaf):
    # the dimensions come from two strict ranks: hom_space and stable_hom_dim
    # build no morphism, no boundary and no slot index, and reading basis
    # builds the boundary span once, from the successor hom_space already
    # built, and exactly the stable representatives; no slots are enumerated
    # beyond those of the two problems
    built, spans, indexed, enumerated = [], [], [], []
    build, boundaries = HomProblem.morphism_from_vector, HomProblem.boundary_vectors
    index, hom_slots = HomProblem.index.func, homs._hom_slots

    def counted(self, vec):
        built.append(vec)
        return build(self, vec)

    def counted_boundaries(self, shifted):
        spans.append((self, shifted))
        return boundaries(self, shifted)

    def counted_index(self):
        indexed.append(self)
        return index(self)

    monkeypatch.setattr(HomProblem, "morphism_from_vector", counted)
    monkeypatch.setattr(HomProblem, "boundary_vectors", counted_boundaries)
    monkeypatch.setattr(HomProblem, "index", property(counted_index))
    monkeypatch.setattr(homs, "_hom_slots", lambda M, N, width: enumerated.append(M) or hom_slots(M, N, width))
    dims = []
    for M, N in ((kp, kp), (kp, kq), (osheaf, kp), (mk.direct_sum_mf(kp, osheaf), kp)):
        built.clear()
        spans.clear()
        assert mk.stable_hom_dim(M, N) >= 0
        enumerated.clear()
        H = mk.hom_space(M, N)
        assert built == [] and spans == [] and indexed == []
        assert len(H.basis) == H.stable_dim
        assert len(built) == H.stable_dim
        assert spans == [(H.problem, H.shifted)] and indexed == []
        assert enumerated == [M, mk.shift_mf(M, 1)]
        dims.append((H.stable_dim, H.strict_dim))
    # a stable Hom of 0, and one whose strict space is larger than its stable one
    assert dims[1][0] == 0 and dims[3][0] < dims[3][1]


def test_hom_problem_counts_its_slots_before_building_them(monkeypatch, kp, osheaf):
    # the closed-form count is the number of slots built: a bound one below
    # it refuses the system, a bound equal to it does not; the rank-18
    # self-Hom at shift -3, the largest system met in the tests and scale
    # probes, has 11,664 slots, and the bound leaves ten times that
    assert homs.MAX_HOM_SLOTS >= 10 * 11_664
    cases = ((mk.shift_mf(kp, -3), kp), (osheaf, mk.shift_mf(kp, 2)), (mk.shift_mf(kp, -9), osheaf))
    for M, N in cases:
        n = len(HomProblem(M, N).slots)
        monkeypatch.setattr(homs, "MAX_HOM_SLOTS", n)
        assert len(HomProblem(M, N).slots) == n
        monkeypatch.setattr(homs, "MAX_HOM_SLOTS", n - 1)
        with pytest.raises(mk.InputError, match=f"needs {n} unknowns"):
            HomProblem(M, N)
        monkeypatch.undo()


def test_hom_space_structure(kp):
    H = mk.hom_space(kp, kp)
    assert H.stable_dim == 1
    assert H.strict_dim >= H.stable_dim
    assert H.boundary_rank == H.strict_dim - H.stable_dim
    assert len(H.basis) == H.stable_dim
    for rep in H.basis:
        assert mk.verify_morphism(rep) == []
        assert not mk.is_null_homotopic(rep)


def test_strict_basis_members_are_chain_maps(kp, osheaf):
    H = mk.hom_space(osheaf, kp)
    for rep in H.strict_basis:
        assert mk.verify_morphism(rep) == []


def test_hom_respects_shift_twist_periodicity(kp, kq, osheaf):
    # Double shift equals twisting by 3, which moves graded pieces.
    for M, N in ((kp, kp), (osheaf, kp)):
        d0 = mk.stable_hom_dim(M, N, shift=0)
        assert mk.stable_hom_dim(mk.shift_mf(M, 2), mk.twist_mf(N, 3)) == d0


# ---------------------------------------------------------------------------
# mapping cones


def test_cone_of_zero_splits(kp, kq, curve):
    ring = curve.ring
    C = mk.cone_mf(mk.zero_morphism(kp, kq))
    D = mk.direct_sum_mf(kq, mk.shift_mf(kp, 1))
    assert C.p0 == D.p0 and C.p1 == D.p1
    n0 = len(kq.p0)
    ent = [
        [
            ring.one()
            if i == j and i < n0
            else (ring.const(-1) if i == j else ring.zero())
            for j in range(len(C.p0))
        ]
        for i in range(len(C.p0))
    ]
    u0 = GradedMatrix(ring, D.p0, C.p0, ent)
    u1 = GradedMatrix.identity(ring, C.p1).with_twists(D.p1, C.p1)
    phi = mk.MFMorphism(C, D, u0, u1)
    assert mk.verify_morphism(phi) == []
    assert mk.is_stably_isomorphic(C, D).status == "yes"


def test_cone_of_identity_is_contractible(kp):
    C = mk.cone_mf(mk.identity_morphism(kp))
    assert mk.verify_mf(C) == []
    assert mk.reduce_mf(C).rank == 0


@pytest.mark.parametrize("which", CONE_CASES)
def test_cone_generators_are_strict(curve, points, which):
    phi, _ = cone_generator(curve, which, points[0])
    assert mk.verify_morphism(phi) == []


@pytest.mark.parametrize("which", CONE_CASES)
def test_cone_reduces_to_catalog_target(curve, points, which):
    phi, _ = cone_generator(curve, which, points[0])
    C = mk.reduce_mf(mk.cone_mf(phi))
    assert C.rank == CONE_SHAPES[which][3]
    T = cone_target(curve, which, points[0])
    assert mk.is_stably_isomorphic(C, T).status == "yes"


# ---------------------------------------------------------------------------
# stable isomorphism search


def test_iso_accepts_equal_objects_with_certificate(kp):
    res = mk.is_stably_isomorphic(kp, kp)
    assert res.status == "yes"
    for cert in (res.forward, res.backward):
        assert cert is not None
        assert mk.verify_morphism(cert) == []
    comp = mk.compose_morphisms(res.backward, res.forward)
    assert not mk.is_null_homotopic(comp)


def test_iso_sees_through_trivial_summands(kp, curve):
    T = mk.trivial_mf(curve.ring, curve.f)
    padded = mk.direct_sum_mf(kp, T)
    assert mk.is_stably_isomorphic(padded, kp).status == "yes"


def test_iso_over_q_certified_by_one_random_combination(osheaf):
    # Stable End(O ⊕ O) is the 2x2 matrices: no representative is
    # invertible, and a combination is singular only on the quadric ad = bc,
    # which a draw from 2^32 integers per coefficient all but never hits.
    M = mk.direct_sum_mf(osheaf, osheaf)
    Mr = mk.reduce_mf(M)
    H = mk.hom_space(Mr, Mr)
    assert H.stable_dim == 4
    assert all(graded_inverse(phi.f0) is None for phi in H.basis)
    for seed in range(20):
        res = mk.is_stably_isomorphic(M, M, seed=seed, samples=1)
        assert res.status == "yes", seed


def test_iso_of_rank_zero_objects(curve):
    T = mk.trivial_mf(curve.ring, curve.f)
    S = mk.shift_mf(T, 1)
    res = mk.is_stably_isomorphic(T, S)
    assert res.status == "yes"


def test_iso_refuted_between_distinct_points(kp, kq):
    res = mk.is_stably_isomorphic(kp, kq)
    assert res.status == "no"
    assert res.forward is None


def test_iso_refuted_on_rank_mismatch(kp, osheaf):
    assert mk.is_stably_isomorphic(kp, osheaf).status == "no"


def test_iso_refuted_on_twist_mismatch(kp):
    assert mk.is_stably_isomorphic(kp, mk.twist_mf(kp, 1)).status == "no"


def test_iso_inconclusive_on_hard_pair(kp, kq):
    # k(p) + k(q) and k(p) + k(p) have equal ranks, twists, and nonzero
    # stable Homs both ways, but are not isomorphic; the random search must
    # give up without a certificate rather than inventing one.
    A = mk.direct_sum_mf(kp, kq)
    B = mk.direct_sum_mf(kp, kp)
    res = mk.is_stably_isomorphic(A, B, samples=40)
    assert res.status == "inconclusive"
    assert res.forward is None and res.backward is None


def test_iso_search_is_seeded(kp, kq):
    A = mk.direct_sum_mf(kp, kq)
    B = mk.direct_sum_mf(kp, kp)
    r1 = mk.is_stably_isomorphic(A, B, seed=5, samples=25)
    r2 = mk.is_stably_isomorphic(A, B, seed=5, samples=25)
    assert r1.status == r2.status == "inconclusive"


# ---------------------------------------------------------------------------
# twist functors


def test_twist_functor_realises_point_triangle(curve, points, kp, osheaf):
    T = mk.twist_functor(osheaf, kp)
    assert mk.verify_mf(T) == []
    assert T.rank == 2
    tgt = mk.shift_mf(mk.catalog_mf(curve, "lb-minus-p", points[0]), 1)
    assert mk.is_stably_isomorphic(T, tgt).status == "yes"


def test_twist_functor_round_trip(curve101):
    # T_O and T_O⁻¹ are inverse equivalences: both composites must be
    # certified stably isomorphic to X, on every kind, including those whose
    # reduced images move with the order of the Hom coordinates
    pt = mk.default_points(curve101, 1)[0]
    O = mk.catalog_mf(curve101, "structure-sheaf")
    for kind in mk.CATALOG_KINDS:
        if kind == "trivial":
            continue
        X = mk.catalog_mf(curve101, kind, pt if kind in mk.POINT_KINDS else None)
        there = mk.inverse_twist_functor(O, mk.twist_functor(O, X))
        back = mk.twist_functor(O, mk.inverse_twist_functor(O, X))
        res = mk.is_stably_isomorphic(there, X)
        assert res.status == "yes", kind
        assert mk.is_stably_isomorphic(back, X).status == "yes", kind
        # the search checks backward∘forward = id only; forward∘backward = id
        # must follow, since the components are square
        for first, then in ((res.forward, res.backward), (res.backward, res.forward)):
            comp = mk.compose_morphisms(then, first)
            M = first.source
            assert comp.target == M, kind
            assert comp.f0.same_entries(GradedMatrix.identity(M.ring, M.p0)), kind
            assert comp.f1.same_entries(GradedMatrix.identity(M.ring, M.p1)), kind


def coevaluation_cone(C, X):
    """T_C⁻¹(X) built directly: the cone over the coevaluation
    X → ⊕_i C[i] ⊗ Hom(X, C[i])^*, shifted by −1 and reduced."""
    reps = [phi for i in range(-2, 3) for phi in mk.hom_space(X, mk.shift_mf(C, i)).basis]
    if not reps:
        return mk.reduce_mf(X)
    target = functools.reduce(mk.direct_sum_mf, [r.target for r in reps])
    f0 = GradedMatrix.block([[r.f0] for r in reps])
    f1 = GradedMatrix.block([[r.f1] for r in reps])
    return mk.reduce_mf(mk.shift_mf(mk.cone_mf(mk.MFMorphism(X, target, f0, f1)), -1))


def nontrivial_catalog(char, lam, mu):
    objs = catalog_objects(char, lam, mu)[1]
    return objs["structure-sheaf"], {kind: X for kind, X in objs.items() if kind != "trivial"}


@pytest.mark.parametrize("char, lam, mu", [(0, 0, 1), (101, 2, 3)])
def test_inverse_twist_matches_the_coevaluation_cone(char, lam, mu):
    # T_C⁻¹ = D∘T_{DC}∘D must agree with the cone over the coevaluation
    # up to a certified stable isomorphism
    O, objs = nontrivial_catalog(char, lam, mu)
    for kind, X in objs.items():
        assert mk.is_stably_isomorphic(mk.inverse_twist_functor(O, X), coevaluation_cone(O, X)).status == "yes", kind


@pytest.mark.parametrize("char, lam, mu", [(0, 0, 1), (101, 2, 3)])
def test_transposition_is_an_involution_that_keeps_reduced_objects_reduced(char, lam, mu):
    # duality_image and inverse_twist_functor return a transposed reduced
    # factorisation without reducing it again
    O, objs = nontrivial_catalog(char, lam, mu)
    for kind, X in objs.items():
        for M in (mk.reduce_mf(X), mk.twist_functor(O, X)):
            D = mk.transpose_mf(M)
            assert mk.transpose_mf(D) == M, kind
            assert D.alpha.unit_entry() is None and D.beta.unit_entry() is None, kind


def test_twist_guard_refuses_support_on_non_adjacent_shifts(kp, osheaf):
    C = mk.direct_sum_mf(osheaf, mk.shift_mf(osheaf, 2))
    with pytest.raises(mk.InputError, match=r"supported at shifts \[-2, 0\]"):
        mk.twist_functor(C, kp)
    with pytest.raises(mk.InputError, match=r"supported at shifts \[-1, 1\]"):
        mk.inverse_twist_functor(C, kp)


def test_twist_guard_refuses_stable_hom_at_shift_three(osheaf):
    # Hom(O[i], O[3]) lives at i = 2, 3, and Hom(DO[i], D(O[-3])) likewise,
    # so both functors meet the guard at the edge of their window
    O = osheaf
    with pytest.raises(mk.InputError, match="nonzero stable Hom at shift ±3"):
        mk.twist_functor(O, mk.shift_mf(O, 3))
    with pytest.raises(mk.InputError, match="nonzero stable Hom at shift ±3"):
        mk.inverse_twist_functor(O, mk.shift_mf(O, -3))


def test_rank_nine_twist_image_is_simple_and_spherical(rank_nine):
    # T_O(lb-2e-plus-p) is a reduced factorisation of rank 9; a spherical
    # object on the curve has stable End in shifts 0 and 1 only, each of
    # dimension 1
    Y = rank_nine
    assert [mk.stable_hom_dim(Y, Y, shift=s) for s in range(-3, 4)] == [0, 0, 1, 1, 0, 0, 0]


def test_twist_functor_on_stably_trivial_object(curve, osheaf):
    T = mk.trivial_mf(curve.ring, curve.f)
    out = mk.twist_functor(osheaf, T)
    assert out.rank == 0
    out2 = mk.inverse_twist_functor(osheaf, T)
    assert out2.rank == 0
