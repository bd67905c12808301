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
in f1 coordinates.  A `HomProblem` owns its system: its `equations` are
eliminated on first read, once per problem, and a `StableHom` pairs the
problems of Hom(M, N) and Hom(M[1], N), so consecutive shifts share one
elimination.  The span is built only for representatives and
null-homotopy tests, once per `StableHom`.

A dimension has two routes.  `hom_space`, whose basis and
null-homotopy tests need the morphisms, and the iso search read them on
the direct side, from the systems of Hom(M, N) and Hom(M[1], N).
`stable_hom_dim` reads them off Hilbert functions: M[2] = M(3), so the
strict systems at all shifts of one parity are the graded pieces of one
image module, and one Groebner basis per parity gives every strict rank
in closed form; it keeps the last pair's two bases, and each slot count
and image rank it has read, so a sweep over shifts builds two bases and
reads each count and rank once.  Hom(M[i], N) and Hom(N[−1−i], M) come
from different image modules, so Serre duality stays an independent check
of it.  Only the
twist functor's guard reads some of its dimensions on the dual side of
Serre duality, dim Hom(C[i], X) = dim Hom(X[−1−i], C) on a smooth curve,
where those systems are smaller (`twist_functor`); its bases stay direct.

A mapping cone costs no alpha·beta product: `cone_mf` reads the verdicts
its source and target already hold, checks phi's alpha-square, and builds
the cone with a clean verdict, which its proof justifies (`mf.derived_mf`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, reduce as _fold
from math import comb, lcm

from .errors import InputError, ValidationError
from .groebner import buchberger
from .linalg import RowSpace, nullspace, row_space
from .mf import (MatrixFactorization, assert_valid_mf, derived_mf, direct_sum_mf, reduce_mf, shift_mf,
                 smooth_weierstrass, transpose_mf)
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
    f0, f1 = (
        GradedMatrix(m.ring, m.target_twists, m.source_twists, [[e.scale(c) for e in row] for row in m.entries])
        for m in (phi.f0, phi.f1)
    )
    return MFMorphism(phi.source, phi.target, f0, f1)


def add_morphisms(phi: MFMorphism, psi: MFMorphism) -> MFMorphism:
    if phi.source != psi.source or phi.target != psi.target:
        raise ValidationError("morphism sum needs equal sources and targets")
    return MFMorphism(phi.source, phi.target, phi.f0 + psi.f0, phi.f1 + psi.f1)


# --- stable Hom via coefficient linear algebra ------------------------------

# Hom systems larger than this are refused before any slot is built; the
# rank-25 self-Hom at shift -3 (the object PPoPP of ROADMAP's Baseline), the
# largest met in tests and scale probes, has 22,500
MAX_HOM_SLOTS = 150_000


def _width(M: MatrixFactorization, N: MatrixFactorization) -> int:
    """Bits per exponent field of the packed keys of Hom(M, N): enough for
    its largest twist difference, which bounds the degree of every slot (P0
    or P1 of M less P0 or P1 of N) and of every image (P0 of M less P1 of
    N), an alpha entry's degree being its twist difference."""
    top = max(M.p0 + M.p1, default=0) - min(N.p0 + N.p1, default=0)
    return max(top, 0).bit_length()


def _slot_entries(M: MatrixFactorization, N: MatrixFactorization, degree: int = 0) -> tuple[list, int]:
    """The entries (tag, i, j, d) of f0: P0(M) → P0(N) and f1: P1(M) → P1(N)
    of degree d ≥ 0, for M twisted to M(−degree), and their number of
    slots, one per monomial of degree d, Σ C(d + n − 1, n − 1): read from
    the twist lists alone."""
    n = M.ring.nvars
    entries = [
        (tag, i, j, s + degree - t)
        for tag, tgt, src in (("f0", N.p0, M.p0), ("f1", N.p1, M.p1))
        for i, t in enumerate(tgt)
        for j, s in enumerate(src)
        if s + degree >= t
    ]
    return entries, sum(comb(d + n - 1, n - 1) for *_, d in entries)


def _sized_slot_entries(M: MatrixFactorization, N: MatrixFactorization, degree: int = 0) -> tuple[list, int]:
    """`_slot_entries` of Hom(M(−degree), N), refused above MAX_HOM_SLOTS
    and between factorisations of different potentials."""
    if M.ring != N.ring or M.f != N.f:
        raise ValidationError("Hom needs factorisations of the same potential")
    entries, count = _slot_entries(M, N, degree)
    if count > MAX_HOM_SLOTS:
        raise InputError(f"Hom system needs {count} unknowns, more than {MAX_HOM_SLOTS}")
    return entries, count


def _hom_slots(M: MatrixFactorization, N: MatrixFactorization, width: int) -> tuple[list, list]:
    """The slots (tag, i, j, exponent) of f0: P0(M) → P0(N) and
    f1: P1(M) → P1(N), one per monomial of each entry of degree d ≥ 0, and
    beside them their exponents packed lexicographically into fields
    `width` bits wide (`poly.pack_lex`).  Both are monomial-major: by packed
    exponent, descending, which is the descending exponent tuple since the
    packing is lex, then by tag, i, j; eliminating in this column order
    fills in less.  Their number (`_slot_entries`) is checked against
    MAX_HOM_SLOTS before any is built."""
    ring = M.ring
    entries, _ = _sized_slot_entries(M, N)
    slots = [(tag, i, j, exp) for tag, i, j, d in entries for exp in ring.monomials_of_degree(d)]
    packed = [m for *_, d in entries for m in ring.packed_monomials(d, width)]
    order = sorted(range(len(slots)), key=packed.__getitem__, reverse=True)
    return [slots[c] for c in order], [packed[c] for c in order]


def _entry_images(M: MatrixFactorization, N: MatrixFactorization, key) -> tuple[list, list]:
    """The alpha-square (f0, f1) ↦ alpha_N·f0 − f1·alpha_M on the matrix
    units of Hom(M, N), as lists of (key(o, e), c), e a monomial and o an
    offset in the index k·W + j of the entries (k, j) of the image, a map
    P0(M) → P1(N), W the rank of M.  The unit of an f0 entry (i, j) goes to
    column i of alpha_N placed in column j, at o = k·W from j (`cols[i]`);
    that of an f1 entry (i, j) to row j of −alpha_M placed in row i, at
    o = k from i·W (`rows[j]`).

    The coefficients are ints in RowSpace's stored form: over F_p the field
    elements themselves, in [0, p); over Q those of D·alpha_N and D·alpha_M,
    D the lcm of every denominator in both.  Every image is scaled by the
    one D ≠ 0, which keeps the kernel of the equations and the span of the
    images."""
    fld, W = M.ring.field, len(M.p0)
    D = 1 if fld.char else lcm(*(c.denominator for A in (M.alpha, N.alpha)
                                 for row in A.entries for p in row for c in p.terms.values()))
    cols = [[(key(k * W, e), c.numerator * (D // c.denominator)) for k, row in enumerate(N.alpha.entries)
             for e, c in row[i].terms.items()] for i in range(len(N.p0))]
    rows = [[(key(k, e), fld.neg(c.numerator * (D // c.denominator))) for k, p in enumerate(row)
             for e, c in p.terms.items()] for row in M.alpha.entries]
    return cols, rows


def _images(M: MatrixFactorization, N: MatrixFactorization, slots, packed, width: int) -> list:
    """The alpha-square on the slots of Hom(M, N), slot by slot, as
    (base, terms): the image of the slot is the coefficient c at the key
    base + offset for each (offset, c) of terms.  A key packs the entry
    index k·W + j and monomial e of an image term into the int
    ((k·W + j) << n·width) + pack_lex(e): a slot's image is its matrix
    unit's (`_entry_images`) times its monomial, so a key is the slot's
    packed exponent plus an alpha term's, one int add.  The keys of one
    slot are distinct, so every coefficient is one entry of an alpha."""
    W, shift = len(M.p0), M.ring.nvars * width
    cols, rows = _entry_images(M, N, lambda o, e: (o << shift) + pack_lex(e, width))
    return [((j << shift) + m, cols[i]) if tag == "f0" else (((i * W) << shift) + m, rows[j])
            for (tag, i, j, _), m in zip(slots, packed)]


class HomProblem:
    """Coefficient coordinates for morphisms M → N: `slots`, and their
    exponents packed (`_hom_slots`) into fields `width` bits wide."""

    def __init__(self, M: MatrixFactorization, N: MatrixFactorization):
        self.M, self.N, self.ring = M, N, M.ring
        self.width = _width(M, N)
        self.slots, self.packed = _hom_slots(M, N, self.width)

    @cached_property
    def index(self) -> dict:
        """Slot → column, for `vector_from_morphism`; built on first read."""
        return {k: c for c, k in enumerate(self.slots)}

    @cached_property
    def equations(self) -> RowSpace:
        """`strict_rows` eliminated, on first read, so once per problem."""
        return row_space(self.strict_rows(), self.ring.field)

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
    """Strict morphisms M → N modulo null-homotopic ones, from two strict
    systems: `problem` = Hom(M, N), in whose coordinates everything is
    read, and `shifted` = Hom(M[1], N), whose strict rank is the boundary
    rank (module docstring).  Each reads its `equations`, eliminated on
    first read, once per HomProblem.

    `strict_dim` is #slots − rank(equations); D∘D = 0 puts the boundaries
    inside the strict morphisms, so `stable_dim` is `strict_dim` −
    `boundary_rank`.  Built on first read: `solutions`, the kernel vectors,
    one per free column, so in the monomial-major slot order;
    `boundaries`, the span of `boundary_vectors`, once for every null-homotopy
    test and the basis; `basis`, the solutions whose f1 parts enlarge that
    span as they are folded into it in that order, as morphisms (the stable
    representatives: f1 determines a cycle, so the same solutions enlarge
    the span in full coordinates); `strict_basis`, every solution.
    """

    def __init__(self, problem: HomProblem, shifted: HomProblem):
        self.problem, self.shifted = problem, shifted
        self.source, self.target = problem.M, problem.N
        self.strict_dim = len(problem.slots) - problem.equations.rank
        self.boundary_rank = shifted.equations.rank

    @property
    def stable_dim(self) -> int:
        return self.strict_dim - self.boundary_rank

    @cached_property
    def solutions(self) -> list[dict]:
        return nullspace(self.problem.equations, len(self.problem.slots))

    @cached_property
    def boundaries(self) -> RowSpace:
        prob = self.problem
        return row_space(prob.boundary_vectors(self.shifted), prob.ring.field)

    @cached_property
    def basis(self) -> list[MFMorphism]:
        # f1 parts reduced by the boundaries are folded into a space of
        # their own, which leaves `boundaries` as it is; the fold stops once
        # stable_dim solutions have enlarged the span
        prob, reps, span = self.problem, [], self.boundaries
        folded = RowSpace(span.field)
        for v in self.solutions:
            if len(reps) == self.stable_dim:
                break
            if folded.add(span.reduce(prob.f1_part(v))) is not None:
                reps.append(prob.morphism_from_vector(v))
        return reps

    def is_null_homotopic(self, phi: MFMorphism) -> bool:
        """Whether phi: source → target is a boundary, tested in f1
        coordinates against `boundaries`; phi is checked strict first, since
        f1 determines only a cycle."""
        if (phi.source, phi.target) != (self.source, self.target):
            raise ValidationError("morphism is not between this stable Hom's source and target")
        assert_strict(phi)
        prob = self.problem
        return self.boundaries.contains(prob.f1_part(prob.vector_from_morphism(phi)))

    @cached_property
    def strict_basis(self) -> list[MFMorphism]:
        return [self.problem.morphism_from_vector(v) for v in self.solutions]


def hom_space(M: MatrixFactorization, N: MatrixFactorization) -> StableHom:
    """Stable Hom M → N from the strict systems of Hom(M, N) and
    Hom(M[1], N), both sized against MAX_HOM_SLOTS before either is
    eliminated, and both eliminated on every call, since its basis and
    null-homotopy tests need morphisms; `stable_hom_dim` reads dimensions
    alone, more cheaply over a run of shifts.

    M and N must be factorisations of one potential f ≠ 0 (alpha·beta = f·I):
    the alpha-square system rests on it.  `catalog_mf`, `cone_mf` and the CLI's
    loader check it."""
    return StableHom(HomProblem(M, N), HomProblem(shift_mf(M, 1), N))


def _image_basis(A: MatrixFactorization, N: MatrixFactorization):
    """Reduced Groebner basis of the image of the alpha-square of Hom(A, N)
    as a graded submodule of Hom(P0(A), P1(N)): the entry (k, j) is
    position k·W + j, W the rank of A, with twist N.p1[k] − A.p0[j].  One
    generator per entry of f0 and f1, the image of its matrix unit
    (`_entry_images`), in the degree of N's twist less A's.  So in degree D
    the generators' multiples are the images of the slots of Hom(A(−D), N),
    and the piece of degree D is that strict system's image."""
    W = len(A.p0)
    cols, rows = _entry_images(A, N, lambda o, e: (o, e))
    gens = [{(j + o, e): c for (o, e), c in img} for img in cols for j in range(W)]
    gens += [{(i * W + o, e): c for (o, e), c in img} for i in range(len(N.p1)) for img in rows]
    return buchberger(gens, [t - s for t in N.p1 for s in A.p0], A.ring)


def _image_rank(gb, degree: int) -> int:
    """dim of the span of gb in the degree: at each position, the monomials
    of that degree less the twist, less the standard ones."""
    n = gb.ring.nvars
    return sum(comb(degree - t + n - 1, n - 1) - gb.standard_count(pos, degree - t)
               for pos, t in enumerate(gb.twists) if degree >= t)


# the last `stable_hom_dim` pair: ((M, N), (M, M[1]), the Groebner bases of
# their alpha-square images (for (M, N), for (M[1], N)), and two dicts keyed
# by (side, degree), side 0 for M and 1 for M[1]: the slot counts of
# Hom(side(−degree), N) and the image ranks in that degree), or None
_last_images: tuple[tuple, tuple, tuple, dict, dict] | None = None


def stable_hom_dim(M: MatrixFactorization, N: MatrixFactorization, shift: int = 0) -> int:
    """dim of stable Hom(M[shift], N), read off two Hilbert functions.

    M[2] = M(3), so the image of the strict system of Hom(M[s], N) is the
    degree D = −3·⌊s/2⌋ piece of one image module (`_image_basis`), that
    of (M, N) for even s and of (M[1], N) for odd s: its rank is the
    monomials of degree D less the standard ones of one reduced Groebner
    basis.  The rank at shift + 1 is the boundary rank, so the answer is
    #slots − rank(shift) − rank(shift + 1).  Both systems are sized from
    the twist lists (`_slot_entries`) and refused as `hom_space(M[shift],
    N)` refuses them, before any basis is built.

    One module-level slot keeps the last pair's M[1], its two bases, and
    each slot count and image rank read so far, keyed by (side, degree);
    a refused count raises before it is stored.  The slot is keyed by the
    unshifted (M, N) under `==`; factorisations are values (nothing in the
    package writes into a matrix or `Poly` in place), and one mutated
    between calls is unsupported.  Shift and shift + 1 differ in parity,
    so a miss builds both bases, whole, and a sweep over shifts in any
    order builds two bases per pair and reads each count and rank once:
    8 of each over −3..3, where the calls ask for 14.  The slot is read
    once per call, so a racing call can only miss, and two calls that
    share a slot write equal values under one key.

    The trade-off: a lone call pays for two whole bases, several times
    `hom_space(M[shift], N).stable_dim`, which stays the one-shift route of
    the `hom` command.  Medians over the 100 GF(101) catalog pairs of rank
    ≤ 4, another pair in the slot, two runs (Xeon, Python 3.11): 0.79–0.89
    ms against 0.14 ms at shift 0, 0.75–0.80 ms against 0.08 ms at shift 1,
    and 0.79–1.12 ms against 1.43–1.58 ms at shift −3."""
    global _last_images
    last = _last_images
    if last is None or last[0] != (M, N):
        last = ((M, N), (M, shift_mf(M, 1)), None, {}, {})
    pair, sides, bases, counts, ranks = last
    # M[s] is sides[s % 2](−degree)
    keys = [(s % 2, -3 * (s // 2)) for s in (shift, shift + 1)]
    for side, degree in keys:
        if (side, degree) not in counts:
            counts[side, degree] = _sized_slot_entries(sides[side], N, degree)[1]
    if bases is None:
        bases = tuple(_image_basis(A, N) for A in sides)
        _last_images = (pair, sides, bases, counts, ranks)
    for side, degree in keys:
        if (side, degree) not in ranks:
            ranks[side, degree] = _image_rank(bases[side], degree)
    return counts[keys[0]] - ranks[keys[0]] - ranks[keys[1]]


def is_null_homotopic(phi: MFMorphism) -> bool:
    """Whether the strict morphism phi is a boundary
    (`StableHom.is_null_homotopic`).  Each call builds its pair's stable
    Hom; to test several morphisms of one pair, ask one `hom_space`."""
    return hom_space(phi.source, phi.target).is_null_homotopic(phi)


# --- mapping cone ------------------------------------------------------------


def cone_mf(phi: MFMorphism) -> MatrixFactorization:
    """Mapping cone of a strict morphism phi: M → N.

    C0 = N0 ⊕ M1 and C1 = N1 ⊕ M0(3), with maps
    alpha_C = [[alpha_N, f1], [0, -beta_M]], beta_C = [[beta_N, f0], [0, -alpha_M]].

    M and N are asserted valid, a cached read for checked objects, and phi
    strict; then C is valid with no product formed.  alpha_C·beta_C =
    [[alpha_N·beta_N, alpha_N·f0 − f1·alpha_M], [0, beta_M·alpha_M]], which
    is f·I since N and M are valid and phi's alpha-square holds, and the
    blocks keep their degrees, the twists of C0 and C1 being those of the
    blocks' sources and targets.
    """
    M, N = phi.source, phi.target
    assert_valid_mf(M, "cone source")
    assert_valid_mf(N, "cone target")
    assert_strict(phi, "cone input")
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
    return derived_mf(ring, M.f, alpha, beta, M, N)


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


def _iso_samples(basis: list[MFMorphism], fld, seed: int, samples: int):
    """`samples` seeded random combinations of the stable representatives,
    built one at a time."""
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
    Hom dimensions), and otherwise tries the stable representatives.  If
    none is invertible, it compares the stable End dimensions, which an
    isomorphism would make equal, and refutes if they differ; only then
    does it try seeded random combinations of the representatives.  On
    reduced models a boundary has no constant part, so a strict morphism is
    invertible exactly when its stable class is.  A "yes" always carries a
    two-sided certificate on the reduced models: backward∘forward = id is
    checked, and forward∘backward = id follows because the components are
    square.
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

    for phi in fwd.basis:
        res = _try_certificate(phi)
        if res is not None:
            return res
    ends = hom_space(Mr, Mr).stable_dim, hom_space(Nr, Nr).stable_dim
    if ends[0] != ends[1]:
        return IsoResult("no", f"stable End dimensions differ: {ends[0]} vs {ends[1]}")
    for phi in _iso_samples(fwd.basis, M.ring.field, seed, samples):
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
    most two adjacent shifts.

    The curve of the potential must be smooth (`mf.smooth_weierstrass`), so
    that Serre duality gives d_i = dim Hom(C[i], X) = dim Hom(X[−1−i], C)
    (Bondal–Kapranov, Math. USSR Izv. 35 (1990)).  The guard reads d_i for
    i ≥ k from the strict systems of Hom(C[i], X) at k..4 and d_i for i < k
    from those of Hom(X[j], C) at −k..3, a lone system bounding nothing and
    left out; the split k in -3..4 is the one whose systems have the fewest
    unknowns, counted from the twist lists alone (`_slot_entries`).  All
    are sized before any is eliminated, on first read, once per HomProblem.
    The bases of the evaluation are read on the direct side only, at the
    support shifts and their successor, building only the problems the
    split left out."""
    smooth_weierstrass(C.f)
    shifted_C = {i: shift_mf(C, i) for i in range(-3, 5)}
    shifted_X = {j: shift_mf(X, j) for j in range(-4, 4)}
    direct = {i: _slot_entries(M, X)[1] for i, M in shifted_C.items()}
    dual = {j: _slot_entries(M, C)[1] for j, M in shifted_X.items()}
    splits = {k: (range(k, 5 if k < 4 else k), range(-k, 4 if k > -3 else -k)) for k in range(-3, 5)}
    k = min(splits, key=lambda k: sum(map(direct.get, splits[k][0])) + sum(map(dual.get, splits[k][1])))
    mine, theirs = splits[k]
    systems = {i: HomProblem(shifted_C[i], X) for i in mine}
    duals = {j: HomProblem(shifted_X[j], C) for j in theirs}
    dims = {i: (StableHom(systems[i], systems[i + 1]) if i >= k else StableHom(duals[-1 - i], duals[-i])).stable_dim
            for i in range(-3, 4)}
    if dims[-3] != 0 or dims[3] != 0:
        raise InputError(f"twist functor guard failed: nonzero stable Hom at shift ±3 ({dims})")
    support = [i for i in range(-2, 3) if dims[i] > 0]
    if len(support) > 2 or (len(support) == 2 and support[1] - support[0] != 1):
        raise InputError(f"twist functor guard failed: stable Hom supported at shifts {support}")
    if not support:
        # no stable maps out of C: the evaluation source is the zero object
        # and the cone is X itself
        return reduce_mf(X)
    systems.update({i: HomProblem(shifted_C[i], X) for i in range(support[0], support[-1] + 2) if i not in systems})
    reps = [phi for i in support for phi in StableHom(systems[i], systems[i + 1]).basis]
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
