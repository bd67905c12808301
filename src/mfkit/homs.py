"""Morphisms of graded matrix factorisations, stable Hom spaces, mapping
cones, stable-isomorphism testing, and the twist functor along a fixed
factorisation: the cone over the evaluation, with its inverse conjugated by
transposition.

Hom(M, N) is a Z/2-graded complex with differential D(X) = d_N·X −
(−1)^|X| X·d_M, d = alpha on P0 and beta on P1.  Its even part holds pairs
(f0, f1) of maps P0(M) → P0(N) and P1(M) → P1(N); its odd part is the even
part of Hom(M, N[−1]): pairs of homotopies s: P0(M) → P1(N)(−3) = P0(N[−1])
and h: P1(M) → P0(N) = P1(N[−1]).  Strict morphisms are the even cycles,
null-homotopic ones the boundaries D(h, s) = (h·alpha_M + beta_N·s,
alpha_N·h + s·beta_M), and stable Hom is their quotient, computed by exact
linear algebra on the monomial coefficients of the matrix entries.

One system, the alpha-square (f0, f1) ↦ alpha_N·f0 − f1·alpha_M, serves
both, since alpha·beta = f·I with f ≠ 0 makes alpha invertible over the
fraction field (Eisenbud, Trans. AMS 260 (1980), §5):

- its kernel is the strict morphisms: f1·alpha_M = alpha_N·f0 gives
  alpha_N·(f0·beta_M − beta_N·f1) = f1·alpha_M·beta_M − f·f1 = 0, so the
  beta-square follows;
- f1 determines a cycle (f1 = 0 gives alpha_N·f0 = 0, so f0 = 0), so
  boundaries are compared by f1 alone, and the f1 of D(h, s) is the
  alpha-square of (h, −s) in Hom(M[1], N), whose P0 is P1(M) and whose
  alpha is beta_M.

So the one system of Hom(M[1], N) is read two ways: by rows its rank is
the boundary rank of Hom(M, N), by columns its images span the boundaries
in f1 coordinates.  The span is built only for representatives and
null-homotopy tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, reduce as _fold
from math import comb, lcm

from .errors import InputError, ValidationError
from .linalg import RowSpace, int_row, nullspace, row_space
from .mf import MatrixFactorization, assert_valid_mf, direct_sum_mf, reduce_mf, shift_mf, transpose_mf
from .poly import GradedMatrix, graded_inverse, pack_lex, validate_graded_matrix


@dataclass
class MFMorphism:
    source: MatrixFactorization
    target: MatrixFactorization
    f0: GradedMatrix
    f1: GradedMatrix


def verify_morphism(phi: MFMorphism) -> list[str]:
    """Report every strictness/grading violation; empty means phi is strict.

    Source and target must be factorisations of one potential f ≠ 0
    (alpha·beta = f·I); then the alpha-square f1·alpha_M = alpha_N·f0 alone
    decides, since the beta-square follows (module docstring)."""
    M, N = phi.source, phi.target
    problems: list[str] = []
    if M.ring != N.ring or M.f != N.f:
        return ["source and target do not share a ring and potential"]
    if phi.f0.source_twists != M.p0 or phi.f0.target_twists != N.p0:
        problems.append("f0 twists do not match P0(source) → P0(target)")
    if phi.f1.source_twists != M.p1 or phi.f1.target_twists != N.p1:
        problems.append("f1 twists do not match P1(source) → P1(target)")
    for i, j, msg in validate_graded_matrix(phi.f0):
        problems.append(f"f0[{i}][{j}]: {msg}")
    for i, j, msg in validate_graded_matrix(phi.f1):
        problems.append(f"f1[{i}][{j}]: {msg}")
    if problems:
        return problems
    lhs = phi.f1 * M.alpha
    rhs = N.alpha * phi.f0
    if not lhs.same_entries(rhs):
        problems.append("f1·alpha(source) != alpha(target)·f0")
    return problems


def assert_strict(phi: MFMorphism, what: str = "morphism") -> None:
    problems = verify_morphism(phi)
    if problems:
        raise ValidationError(f"invalid {what}: " + "; ".join(problems))


def identity_morphism(M: MatrixFactorization) -> MFMorphism:
    ring = M.ring
    return MFMorphism(
        M, M, GradedMatrix.identity(ring, M.p0), GradedMatrix.identity(ring, M.p1)
    )


def zero_morphism(M: MatrixFactorization, N: MatrixFactorization) -> MFMorphism:
    ring = M.ring
    return MFMorphism(
        M, N, GradedMatrix.zero(ring, N.p0, M.p0), GradedMatrix.zero(ring, N.p1, M.p1)
    )


def compose_morphisms(psi: MFMorphism, phi: MFMorphism) -> MFMorphism:
    """psi∘phi for phi: M → N, psi: N → L."""
    if phi.target != psi.source:
        raise ValidationError("composition needs matching middle factorisation")
    return MFMorphism(phi.source, psi.target, psi.f0 * phi.f0, psi.f1 * phi.f1)


def scale_morphism(phi: MFMorphism, c) -> MFMorphism:
    c = phi.source.ring.field.of(c)
    f0 = GradedMatrix(
        phi.f0.ring,
        list(phi.f0.target_twists),
        list(phi.f0.source_twists),
        [[e.scale(c) for e in row] for row in phi.f0.entries],
    )
    f1 = GradedMatrix(
        phi.f1.ring,
        list(phi.f1.target_twists),
        list(phi.f1.source_twists),
        [[e.scale(c) for e in row] for row in phi.f1.entries],
    )
    return MFMorphism(phi.source, phi.target, f0, f1)


def add_morphisms(phi: MFMorphism, psi: MFMorphism) -> MFMorphism:
    if phi.source != psi.source or phi.target != psi.target:
        raise ValidationError("morphism sum needs equal sources and targets")
    return MFMorphism(phi.source, phi.target, phi.f0 + psi.f0, phi.f1 + psi.f1)


# --- stable Hom via coefficient linear algebra ------------------------------

# Hom systems larger than this are refused before any slot is built; the
# rank-18 self-Hom at shift -3, the largest met in tests and scale probes,
# has 11,664
MAX_HOM_SLOTS = 150_000


def _width(M: MatrixFactorization, N: MatrixFactorization) -> int:
    """Bits per exponent field of the packed keys of Hom(M, N): enough for
    its largest twist difference, which bounds the degree of every slot (P0
    or P1 of M less P0 or P1 of N) and of every image (P0 of M less P1 of
    N), an alpha entry's degree being its twist difference."""
    top = max(M.p0 + M.p1, default=0) - min(N.p0 + N.p1, default=0)
    return max(top, 0).bit_length()


def _hom_slots(M: MatrixFactorization, N: MatrixFactorization, width: int) -> tuple[list, list]:
    """The slots (tag, i, j, exponent) of f0: P0(M) → P0(N) and
    f1: P1(M) → P1(N), one per monomial of each entry of degree d ≥ 0, and
    beside them their exponents packed lexicographically into fields
    `width` bits wide (`poly.pack_lex`).  Both are monomial-major: by packed
    exponent, descending, which is the descending exponent tuple since the
    packing is lex, then by tag, i, j; eliminating in this column order
    fills in less.  Their number, Σ C(d + n − 1, n − 1), is checked against
    MAX_HOM_SLOTS before any is built."""
    ring, n = M.ring, M.ring.nvars
    entries = [
        (tag, i, j, s - t)
        for tag, tgt, src in (("f0", N.p0, M.p0), ("f1", N.p1, M.p1))
        for i, t in enumerate(tgt)
        for j, s in enumerate(src)
        if s >= t
    ]
    count = sum(comb(d + n - 1, n - 1) for *_, d in entries)
    if count > MAX_HOM_SLOTS:
        raise InputError(f"Hom system needs {count} unknowns, more than {MAX_HOM_SLOTS}")
    slots = [(tag, i, j, exp) for tag, i, j, d in entries for exp in ring.monomials_of_degree(d)]
    packed = [m for *_, d in entries for m in ring.packed_monomials(d, width)]
    order = sorted(range(len(slots)), key=packed.__getitem__, reverse=True)
    return [slots[c] for c in order], [packed[c] for c in order]


def _images(M: MatrixFactorization, N: MatrixFactorization, slots, packed, width: int) -> list:
    """The alpha-square (f0, f1) ↦ alpha_N·f0 − f1·alpha_M on the slots of
    Hom(M, N), slot by slot, as (base, terms): the image of the slot is the
    coefficient c at the key base + offset for each (offset, c) of terms.
    A key packs (row k, column j, monomial e) of the image, a map
    P0(M) → P1(N), into the int ((k·W + j) << n·width) + pack_lex(e), W the
    rank of M: an f0 slot at (i, j) reaches column j through column i of
    alpha_N, an f1 slot row i through row j of −alpha_M, so a key is the
    slot's packed exponent plus an alpha term's, one int add.  The keys of
    one slot are distinct, so every coefficient is one entry of an alpha.

    The coefficients are ints in RowSpace's stored form: over F_p the field
    elements themselves, in [0, p); over Q those of D·alpha_N and D·alpha_M,
    D the lcm of every denominator in both.  The whole image is scaled by
    the one D ≠ 0, which keeps the kernel of the equations and the span of
    the images."""
    fld, W, shift = M.ring.field, len(M.p0), M.ring.nvars * width
    D = 1 if fld.char else lcm(*(c.denominator for A in (M.alpha, N.alpha)
                                 for row in A.entries for p in row for c in p.terms.values()))
    cols = [[(((k * W) << shift) + pack_lex(e, width), c.numerator * (D // c.denominator))
             for k, row in enumerate(N.alpha.entries) for e, c in row[i].terms.items()]
            for i in range(len(N.p0))]
    rows = [[((k << shift) + pack_lex(e, width), fld.neg(c.numerator * (D // c.denominator)))
             for k, p in enumerate(row) for e, c in p.terms.items()]
            for row in M.alpha.entries]
    return [((j << shift) + m, cols[i]) if tag == "f0" else (((i * W) << shift) + m, rows[j])
            for (tag, i, j, _), m in zip(slots, packed)]


class HomProblem:
    """Coefficient coordinates for morphisms M → N: `slots`, and their
    exponents packed (`_hom_slots`) into fields `width` bits wide."""

    def __init__(self, M: MatrixFactorization, N: MatrixFactorization):
        if M.ring != N.ring or M.f != N.f:
            raise ValidationError("Hom needs factorisations of the same potential")
        self.M, self.N, self.ring = M, N, M.ring
        self.width = _width(M, N)
        self.slots, self.packed = _hom_slots(M, N, self.width)

    @cached_property
    def index(self) -> dict:
        """Slot → column, for `vector_from_morphism`; built on first read."""
        return {k: c for c, k in enumerate(self.slots)}

    def strict_rows(self) -> list[dict]:
        """Equations of the strict morphisms: the alpha-square
        alpha_N·f0 = f1·alpha_M (the beta-square follows; see the module
        docstring), its images (`_images`) grouped by packed key, one row
        per image coefficient, in order of first appearance, columns
        ascending.  The rows are ints in RowSpace's stored form, over Q
        every one scaled by the same D of `_images`, which leaves the
        kernel as it is."""
        rows: dict = {}
        for col, (base, terms) in enumerate(_images(self.M, self.N, self.slots, self.packed, self.width)):
            for off, c in terms:
                rows.setdefault(base + off, {})[col] = c
        return list(rows.values())

    def boundary_vectors(self, shifted: HomProblem) -> list[dict]:
        """The boundaries in f1 coordinates: the `_images` of the slots of
        shifted = Hom(M[1], N), slot by slot (module docstring).  An image
        P0(M[1]) = P1(M) → P1(N) lands on an f1 slot here, keyed at
        shifted's width, which fits an f1 slot's degree, a twist of P1(M)
        less one of N.  Ints in RowSpace's stored form, over Q all scaled by
        the one D of `_images`, which leaves their span as it is."""
        width = shifted.width
        shift, W = self.ring.nvars * width, len(self.M.p1)
        at = {((i * W + j) << shift) + pack_lex(exp, width): col
              for col, (tag, i, j, exp) in enumerate(self.slots) if tag == "f1"}
        images = _images(shifted.M, shifted.N, shifted.slots, shifted.packed, width)
        return [{at[base + off]: c for off, c in terms} for base, terms in images]

    def f1_part(self, vec: dict) -> dict:
        """The f1 coordinates of vec, which determine a strict morphism."""
        slots = self.slots
        return {col: c for col, c in vec.items() if slots[col][0] == "f1"}

    def morphism_from_vector(self, vec: dict) -> MFMorphism:
        M, N, ring = self.M, self.N, self.ring
        f0 = [[dict() for _ in M.p0] for _ in N.p0]
        f1 = [[dict() for _ in M.p1] for _ in N.p1]
        for col, coef in vec.items():
            tag, i, j, exp = self.slots[col]
            (f0 if tag == "f0" else f1)[i][j][exp] = coef
        mat0 = GradedMatrix(
            ring, list(N.p0), list(M.p0), [[ring.from_terms(e) for e in row] for row in f0]
        )
        mat1 = GradedMatrix(
            ring, list(N.p1), list(M.p1), [[ring.from_terms(e) for e in row] for row in f1]
        )
        return MFMorphism(M, N, mat0, mat1)

    def vector_from_morphism(self, phi: MFMorphism) -> dict:
        vec = {}
        fld = self.ring.field
        for tag, mat in (("f0", phi.f0), ("f1", phi.f1)):
            for i, row in enumerate(mat.entries):
                for j, e in enumerate(row):
                    for exp, coef in e.terms.items():
                        key = (tag, i, j, exp)
                        if key not in self.index:
                            raise ValidationError("morphism does not fit the Hom coordinate grid")
                        if coef != fld.zero:
                            vec[self.index[key]] = coef
        return vec


class StableHom:
    """Strict morphisms M → N modulo null-homotopic ones, in the
    coordinates of `problem`: the eliminated strict equations, and
    `shifted` = Hom(M[1], N), whose strict rank is the boundary rank.

    `strict_dim` is #slots − rank(equations); D∘D = 0 puts the boundaries
    inside the strict morphisms, so `stable_dim` is `strict_dim` −
    `boundary_rank`.  Built on first read: `solutions`, the kernel vectors,
    one per free column, so in the monomial-major slot order; `basis`, the
    solutions whose f1 parts enlarge the span of `boundary_vectors` as they
    are folded into it in that order, as morphisms (the stable
    representatives: f1 determines a cycle, so the same solutions enlarge
    the span in full coordinates); `strict_basis`, every solution.
    """

    def __init__(self, problem: HomProblem, equations: RowSpace, shifted: HomProblem, boundary_rank: int):
        self.problem, self.shifted = problem, shifted
        self.source, self.target = problem.M, problem.N
        self._equations = equations
        self.strict_dim = len(problem.slots) - equations.rank
        self.boundary_rank = boundary_rank

    @property
    def stable_dim(self) -> int:
        return self.strict_dim - self.boundary_rank

    @cached_property
    def solutions(self) -> list[dict]:
        return nullspace(self._equations, len(self.problem.slots))

    @cached_property
    def basis(self) -> list[MFMorphism]:
        # the fold stops once stable_dim solutions have enlarged the span
        prob, reps = self.problem, []
        span = row_space(prob.boundary_vectors(self.shifted), prob.ring.field)
        for v in self.solutions:
            if len(reps) == self.stable_dim:
                break
            if span.add(int_row(prob.f1_part(v), span.field)) is not None:
                reps.append(prob.morphism_from_vector(v))
        return reps

    @cached_property
    def strict_basis(self) -> list[MFMorphism]:
        return [self.problem.morphism_from_vector(v) for v in self.solutions]


def _stable_homs(sources: list[MatrixFactorization], N: MatrixFactorization) -> list[StableHom]:
    """Stable Hom(M[i], N) for every M[i] of the consecutive shifts
    sources = [M[i], M[i + 1], …] but the last: each strict system is
    eliminated once, and the boundary rank of Hom(M[i], N) is the strict
    rank of Hom(M[i + 1], N) (module docstring).  A kernel, a basis and the
    boundary span are built only when read."""
    problems = [HomProblem(M, N) for M in sources]
    equations = [row_space(prob.strict_rows(), prob.ring.field) for prob in problems]
    return [StableHom(p, e, q, f.rank) for p, e, q, f in zip(problems, equations, problems[1:], equations[1:])]


def hom_space(M: MatrixFactorization, N: MatrixFactorization) -> StableHom:
    """Stable Hom M → N from the strict ranks of Hom(M, N) and Hom(M[1], N).

    M and N must be factorisations of one potential f ≠ 0 (alpha·beta = f·I):
    the alpha-square system rests on it.  `catalog_mf`, `cone_mf` and the CLI's
    loader check it."""
    return _stable_homs([M, shift_mf(M, 1)], N)[0]


def stable_hom_dim(M: MatrixFactorization, N: MatrixFactorization, shift: int = 0) -> int:
    return hom_space(shift_mf(M, shift), N).stable_dim


def is_null_homotopic(phi: MFMorphism) -> bool:
    """Whether phi is a boundary, tested in f1 coordinates; phi is checked
    strict first, since f1 determines only a cycle."""
    assert_strict(phi)
    prob = HomProblem(phi.source, phi.target)
    span = row_space(prob.boundary_vectors(HomProblem(shift_mf(prob.M, 1), prob.N)), prob.ring.field)
    return span.contains(prob.f1_part(prob.vector_from_morphism(phi)))


# --- mapping cone ------------------------------------------------------------


def cone_mf(phi: MFMorphism) -> MatrixFactorization:
    """Mapping cone of a strict morphism phi: M → N.

    C0 = N0 ⊕ M1 and C1 = N1 ⊕ M0(3), with maps
    alpha_C = [[alpha_N, f1], [0, -beta_M]], beta_C = [[beta_N, f0], [0, -alpha_M]].
    """
    assert_strict(phi, "cone input")
    M, N = phi.source, phi.target
    ring = M.ring
    m_p0_tw = [a - 3 for a in M.p0]
    alpha = GradedMatrix.block(
        [
            [N.alpha, phi.f1],
            [GradedMatrix.zero(ring, m_p0_tw, N.p0), -M.beta],
        ]
    )
    beta = GradedMatrix.block(
        [
            [N.beta, phi.f0.retwist(3)],
            [GradedMatrix.zero(ring, [a - 3 for a in M.p1], N.p1), -M.alpha.retwist(3)],
        ]
    )
    C = MatrixFactorization(ring, M.f, alpha, beta)
    assert_valid_mf(C, "mapping cone")
    return C


# --- stable isomorphism ------------------------------------------------------


@dataclass
class IsoResult:
    status: str  # "yes" | "no" | "inconclusive"
    reason: str
    forward: MFMorphism | None = None
    backward: MFMorphism | None = None


def _try_certificate(phi: MFMorphism) -> IsoResult | None:
    M, N = phi.source, phi.target
    inv0 = graded_inverse(phi.f0)
    inv1 = graded_inverse(phi.f1)
    if inv0 is None or inv1 is None:
        return None
    psi = MFMorphism(N, M, inv0, inv1)
    if verify_morphism(psi):
        return None
    # a left inverse of a square matrix over a commutative ring is two-sided
    back = compose_morphisms(psi, phi)
    if not (
        back.f0.same_entries(GradedMatrix.identity(M.ring, M.p0))
        and back.f1.same_entries(GradedMatrix.identity(M.ring, M.p1))
    ):
        return None
    return IsoResult("yes", "strict isomorphism of reduced factorisations found", phi, psi)


def _iso_candidates(basis: list[MFMorphism], fld, seed: int, samples: int):
    """Strict morphisms to try, built one at a time: the stable
    representatives, then `samples` seeded random combinations of them."""
    yield from basis
    rng = random.Random(seed)
    for _ in range(samples):
        yield _fold(add_morphisms, [scale_morphism(b, fld.sample(rng)) for b in basis])


def is_stably_isomorphic(
    M: MatrixFactorization,
    N: MatrixFactorization,
    *,
    seed: int = 0,
    samples: int = 1000,
) -> IsoResult:
    """Decide stable isomorphism where possible.

    Reduces both sides, refutes by invariants (rank, twist multisets, stable
    Hom dimensions), and otherwise tries the stable representatives, then
    seeded random combinations of them.  On reduced models a boundary has no
    constant part, so a strict morphism is invertible exactly when its stable
    class is.  A "yes" always carries a two-sided certificate on the reduced
    models: backward∘forward = id is checked, and forward∘backward = id
    follows because the components are square.
    """
    if M.ring != N.ring or M.f != N.f:
        return IsoResult("no", "different rings or potentials")
    Mr, Nr = reduce_mf(M), reduce_mf(N)
    if Mr.rank == 0 and Nr.rank == 0:
        phi = zero_morphism(Mr, Nr)
        return IsoResult("yes", "both reduce to the zero factorisation", phi, zero_morphism(Nr, Mr))
    if Mr.rank != Nr.rank:
        return IsoResult("no", f"reduced ranks differ: {Mr.rank} vs {Nr.rank}")
    if sorted(Mr.p0) != sorted(Nr.p0) or sorted(Mr.p1) != sorted(Nr.p1):
        return IsoResult("no", "reduced twist multisets differ")
    fwd = hom_space(Mr, Nr)
    if fwd.stable_dim == 0:
        return IsoResult("no", "no nonzero stable morphism from left to right")
    bwd_dim = hom_space(Nr, Mr).stable_dim
    if bwd_dim == 0:
        return IsoResult("no", "no nonzero stable morphism from right to left")

    for phi in _iso_candidates(fwd.basis, M.ring.field, seed, samples):
        res = _try_certificate(phi)
        if res is not None:
            return res
    return IsoResult(
        "inconclusive",
        "invariants agree but no invertible strict morphism was found within the search budget",
    )


# --- twist functor -----------------------------------------------------------


def twist_functor(C: MatrixFactorization, X: MatrixFactorization) -> MatrixFactorization:
    """T_C(X): cone over the evaluation ⊕_i C[i] ⊗ Hom(C[i], X) → X for i in
    -3..3, reduced.  Guard: stable Hom vanishes at i = ±3 and lives on at
    most two adjacent shifts.  The strict systems at -3..4 are eliminated
    once each (`_stable_homs`), and boundaries are spanned only at the
    support shifts, where a basis is read."""
    spaces = dict(zip(range(-3, 4), _stable_homs([shift_mf(C, i) for i in range(-3, 5)], X)))
    dims = {i: H.stable_dim for i, H in spaces.items()}
    if dims[-3] != 0 or dims[3] != 0:
        raise InputError(f"twist functor guard failed: nonzero stable Hom at shift ±3 ({dims})")
    support = [i for i in range(-2, 3) if dims[i] > 0]
    if len(support) > 2 or (len(support) == 2 and support[1] - support[0] != 1):
        raise InputError(f"twist functor guard failed: stable Hom supported at shifts {support}")
    reps = [phi for i in support for phi in spaces[i].basis]
    if not reps:
        # no stable maps out of C: the evaluation source is the zero object
        # and the cone is X itself
        return reduce_mf(X)
    source = _fold(direct_sum_mf, [r.source for r in reps])
    f0 = GradedMatrix.block([[r.f0 for r in reps]])
    f1 = GradedMatrix.block([[r.f1 for r in reps]])
    return reduce_mf(cone_mf(MFMorphism(source, X, f0, f1)))


def inverse_twist_functor(C: MatrixFactorization, X: MatrixFactorization) -> MatrixFactorization:
    """T_C^{-1}(X) = D∘T_{DC}∘D(X), D the transposition `transpose_mf`: an
    exact contravariant involution (D∘D = id literally) that takes the
    evaluation of DC at DX to the coevaluation of C at X, with
    D(cone f) ≅ cone(Df)[−1], so this is the shifted cone over the
    coevaluation X → ⊕_i C[i] ⊗ Hom(X, C[i])^*.  It is reduced: D keeps a
    factorisation reduced, a unit entry staying one under transposition."""
    return transpose_mf(twist_functor(transpose_mf(C), transpose_mf(X)))
