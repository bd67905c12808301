"""Graded matrix factorisations of a degree-3 potential f over R = K[X,Y,Z].

A factorisation is a pair alpha: P0 → P1, beta: P1 → P0(3) of graded maps of
free modules with beta∘alpha = f·id and alpha(3)∘beta = f·id.  Twist lists use
the convention that entry a stands for the summand R(-a), and the twist
operation (n) sends a to a - n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError, ValidationError
from .groebner import ColumnSpan, columns_as_vectors, vectors_as_columns
from .poly import GradedMatrix, Poly, PolyRing, validate_graded_matrix
from .resolutions import Presentation, Resolution, hilbert_function, minimal_resolution


@dataclass(frozen=True)
class MatrixFactorization:
    """The pair (alpha, beta) with its potential f over the ring.

    A factorisation is a value: its fields are never reassigned (the class
    is frozen), and nothing in the package writes into a GradedMatrix entry
    or a Poly's terms after construction.  So the verdict on the axioms is
    computed once per instance (`violations`) and read by every later
    `verify_mf` or `assert_valid_mf` of that instance.  It is kept on this
    instance only, never keyed by content.  A new instance is checked afresh,
    with one exception: an object that `twist_mf`, `shift_mf`,
    `transpose_mf`, `direct_sum_mf`, `reduce_mf` or `homs.cone_mf` derives
    from sources that all already hold a clean verdict is born clean
    (`derived_mf`); each of those functions proves in its docstring that
    its output is then valid.  A source whose verdict is unread or
    non-empty passes nothing on.
    """

    ring: PolyRing
    f: Poly
    alpha: GradedMatrix
    beta: GradedMatrix

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """Every axiom violation (`verify_mf`), found on first read."""
        return tuple(_violations(self))

    @property
    def p0(self) -> list[int]:
        return self.alpha.source_twists

    @property
    def p1(self) -> list[int]:
        return self.alpha.target_twists

    @property
    def rank(self) -> int:
        return len(self.p0)


def weierstrass_potential(ring: PolyRing, a, b) -> Poly:
    """Y²Z − X³ − aXZ² − bZ³ in the ring's three variables."""
    X, Y, Z = ring.gens()
    return Y * Y * Z - X * X * X - (X * Z * Z).scale(a) - (Z * Z * Z).scale(b)


def smooth_weierstrass(f: Poly) -> tuple:
    """(a, b) with f = Y²Z − X³ − aXZ² − bZ³ over K[X, Y, Z] and the curve
    y²z = x³ + a·xz² + b·z³ smooth; InputError otherwise, the shape checked
    before smoothness."""
    ring = f.ring
    if ring.nvars != 3:
        raise InputError(f"potential must be in three variables X, Y, Z, not {ring.nvars}")
    fld = ring.field
    a, b = fld.neg(f.coeff((1, 0, 2))), fld.neg(f.coeff((0, 0, 3)))
    if ring != PolyRing(fld) or weierstrass_potential(ring, a, b) != f:
        raise InputError("potential is not in Weierstrass shape")
    if fld.char == 2:
        raise InputError("characteristic 2: every curve y^2z = x^3 + axz^2 + bz^3 is singular, at (a : b : 1)")
    if not fld.of(4 * a**3 + 27 * b**2):
        raise InputError("singular curve: 4a^3 + 27b^2 = 0")
    return a, b


def verify_mf(M: MatrixFactorization) -> list[str]:
    """Report every axiom violation; an empty list means M is a factorisation.

    The verdict is M's `violations`, found once per instance: a second call
    on the same object forms no product, and each call returns a new list.
    See `_violations` for the checks."""
    return list(M.violations)


def _violations(M: MatrixFactorization) -> list[str]:
    """The checks behind `verify_mf`.  After the potential, rank, twist and
    degree checks, alpha·beta decides: R is a domain and f ≠ 0, so
    alpha·beta = f·I gives det alpha·det beta = fⁿ ≠ 0, alpha is invertible
    over Frac(R), beta = f·alpha⁻¹ and beta·alpha = f·I (Eisenbud, Trans.
    AMS 260 (1980), §5).  beta·alpha is formed only when alpha·beta fails,
    to report both products' violations.
    """
    problems: list[str] = []
    ring = M.ring
    if M.f.is_zero() or not M.f.is_homogeneous() or M.f.degree() != 3:
        problems.append("potential must be nonzero homogeneous of degree 3")
    p0, p1 = M.p0, M.p1
    if len(p0) != len(p1):
        problems.append(f"rank mismatch: |P0| = {len(p0)} but |P1| = {len(p1)}")
    if M.beta.source_twists != p1:
        problems.append("beta source twists do not match P1")
    if M.beta.target_twists != [a - 3 for a in p0]:
        problems.append("beta target twists do not match P0(3)")
    for i, j, msg in validate_graded_matrix(M.alpha):
        problems.append(f"alpha[{i}][{j}]: {msg}")
    for i, j, msg in validate_graded_matrix(M.beta):
        problems.append(f"beta[{i}][{j}]: {msg}")
    if problems:
        return problems
    n = len(p0)
    zero = ring.zero()
    ab = (M.alpha * M.beta).entries
    if all(ab[i][j] == (M.f if i == j else zero) for i in range(n) for j in range(n)):
        return problems
    ba = (M.beta * M.alpha).entries
    for i in range(n):
        for j in range(n):
            want = M.f if i == j else zero
            if ba[i][j] != want:
                problems.append(f"(beta*alpha)[{i}][{j}] != {'f' if i == j else '0'}")
            if ab[i][j] != want:
                problems.append(f"(alpha*beta)[{i}][{j}] != {'f' if i == j else '0'}")
    return problems


def assert_valid_mf(M: MatrixFactorization, what: str = "matrix factorisation") -> None:
    """ValidationError unless `verify_mf(M)` is empty; it reads the verdict
    M keeps, so asserting and then verifying one object checks it once."""
    problems = verify_mf(M)
    if problems:
        raise ValidationError(f"invalid {what}: " + "; ".join(problems))


def derived_mf(ring: PolyRing, f: Poly, alpha: GradedMatrix, beta: GradedMatrix,
               *sources: MatrixFactorization) -> MatrixFactorization:
    """The factorisation (alpha, beta) built from one or more `sources` by a
    constructor that proves it valid whenever they are; it is born with a
    clean verdict exactly when every source already holds one, and is
    otherwise checked on first read like any other."""
    out = MatrixFactorization(ring, f, alpha, beta)
    if all(vars(s).get("violations") == () for s in sources):
        vars(out)["violations"] = ()
    return out


def trivial_mf(ring: PolyRing, f: Poly) -> MatrixFactorization:
    alpha = GradedMatrix(ring, [0], [0], [[ring.one()]])
    beta = GradedMatrix(ring, [-3], [0], [[f]])
    return MatrixFactorization(ring, f, alpha, beta)


def twist_mf(M: MatrixFactorization, n: int) -> MatrixFactorization:
    """M(n): subtract n from every twist; the matrices are unchanged.

    Valid when M is: the entries, so both products, are M's, and an entry's
    expected degree, source twist less target twist, is unchanged when both
    twists drop by n."""
    return derived_mf(M.ring, M.f, M.alpha.retwist(n), M.beta.retwist(n), M)


def shift_mf(M: MatrixFactorization, k: int = 1) -> MatrixFactorization:
    """Suspension M[k]; [1] swaps the maps, (alpha, beta) ↦ (beta, alpha(3)),
    and [2] equals the twist (3), so M[k] is M(3·(k // 2)) shifted once more
    when k is odd.

    Valid when M is: the products of [1] are beta·alpha and alpha·beta up
    to twists, both f·I for a valid M (`_violations`), and the retwist by 3
    keeps every degree, as in `twist_mf`."""
    out = twist_mf(M, 3 * (k // 2))
    if k % 2:
        out = derived_mf(out.ring, out.f, out.beta, out.alpha.retwist(3), out)
    return out


def transpose_mf(M: MatrixFactorization) -> MatrixFactorization:
    """Duality (alpha, beta) ↦ (alpha^t, beta^t); an exact involution.

    Valid when M is: alpha^t·beta^t = (beta·alpha)^t = f·I, and the entry
    (j, i) of alpha^t, from 6 − p1[i] to 6 − p0[j], wants the degree
    p0[j] − p1[i] that alpha's (i, j) has; beta's entries likewise."""
    new_p0 = [6 - b for b in M.p1]
    new_p1 = [6 - a for a in M.p0]
    alpha = M.alpha.transpose_entries(new_p1, new_p0)
    beta = M.beta.transpose_entries([a - 3 for a in new_p0], new_p1)
    return derived_mf(M.ring, M.f, alpha, beta, M)


def direct_sum_mf(M: MatrixFactorization, N: MatrixFactorization) -> MatrixFactorization:
    """M ⊕ N, block-diagonal.  Valid when M and N are: they share f, and
    the product of block-diagonal maps is the block-diagonal of M's and N's
    products, f·I ⊕ f·I."""
    if M.ring != N.ring or M.f != N.f:
        raise ValidationError("direct sum needs factorisations of the same potential")
    ring = M.ring
    alpha = GradedMatrix.block(
        [
            [M.alpha, GradedMatrix.zero(ring, M.p1, N.p0)],
            [GradedMatrix.zero(ring, N.p1, M.p0), N.alpha],
        ]
    )
    beta = GradedMatrix.block(
        [
            [M.beta, GradedMatrix.zero(ring, [a - 3 for a in M.p0], N.p1)],
            [GradedMatrix.zero(ring, [a - 3 for a in N.p0], M.p1), N.beta],
        ]
    )
    return derived_mf(ring, M.f, alpha, beta, M, N)


def reduce_mf(M: MatrixFactorization) -> MatrixFactorization:
    """Split off trivial summands until neither map has a unit entry.

    Scans alpha first, then beta, row-major, and repeats until clean; the
    result is the reduced representative of the stable isomorphism class.
    M is asserted valid once; every split then keeps the pair valid.

    Proof for a unit u = A[i][j] of a valid pair (A, B), A·B = B·A = f·I
    (for a unit of beta, read (A, B) as (beta, alpha), the valid shift).
    The column operations col_k −= (A[i][k]/u)·col_j make row i of A equal
    u·e_j and change B, on the left, in row j only; row operations against
    row i then clear column j of A and change B, on the right, in column i
    only.  The new pair still multiplies to f·I, and its A is (u) ⊕ A' up to
    order, A' = A.split_unit(i, j).  So its B, f times the inverse of A over
    the fraction field, is (f/u) ⊕ B', and B' = B.delete(j, i) because only
    row j and column i changed; hence A'·B' = B'·A' = f·I.  The operations
    are graded, so every entry keeps its degree (Eisenbud, Trans. AMS 260
    (1980), §5).
    """
    assert_valid_mf(M, "reduction input")
    alpha, beta = M.alpha, M.beta
    while True:
        if (hit := alpha.unit_entry()) is not None:
            i, j = hit
            alpha, beta = alpha.split_unit(i, j), beta.delete(j, i)
        elif (hit := beta.unit_entry()) is not None:
            i, j = hit
            beta, alpha = beta.split_unit(i, j), alpha.delete(j, i)
        else:
            return derived_mf(M.ring, M.f, alpha, beta, M)


def cokernel_module(M: MatrixFactorization) -> Presentation:
    """The graded A-module coker(beta), presented by beta itself."""
    return Presentation(M.ring, M.f, list(M.beta.target_twists), M.beta)


def mf_from_pair(res: Resolution, s: int) -> MatrixFactorization:
    """Factorisation (d^s, β) read off the periodic window at step s.

    Requires 1 <= s and s+1 <= length, equal positive ranks at steps s-1, s,
    s+1, F_{s+1} ≅ F_{s-1}(-3) (the same twists plus 3, in any order) and a
    nonzero potential; β is the R-lift of f·id through d^s (see _lift_pair),
    which must exist.
    """
    if s < 1 or s + 1 > res.length:
        raise InputError(f"periodic pair needs 1 <= s and s+1 <= {res.length}; got s = {s}")
    lo, mid, hi = res.twists[s - 1], res.twists[s], res.twists[s + 1]
    if not (len(lo) == len(mid) == len(hi)) or len(mid) == 0:
        raise InputError(
            f"ranks {len(lo)}, {len(mid)}, {len(hi)} at steps {s - 1}..{s + 1} are not equal and positive"
        )
    if sorted(hi) != sorted(t + 3 for t in lo):
        raise InputError(f"twists at step {s + 1} are {hi}, expected {[t + 3 for t in lo]} up to order")
    if res.f.is_zero():
        raise InputError("periodic pair needs a nonzero potential")
    return _lift_pair(res, s)


def detect_periodicity(res: Resolution):
    """Smallest s at which mf_from_pair succeeds, with its factorisation, or None.

    A factorisation's cokernel is maximal Cohen-Macaulay, so its resolution
    is periodic from s = 1; a point module's from s = 2, the residue field's
    from s = 3.
    """
    for s in range(1, res.length):
        try:
            return s, mf_from_pair(res, s)
        except InputError:
            continue
    return None


def _lift_pair(res: Resolution, s: int) -> MatrixFactorization:
    """(α, β) = (d^s, the R-lift of f·id through d^s), checked.

    α·β = f·id makes a square α injective over R (det α · det β = f^n), so
    β is unique and β·α = f·id follows.  The lift exists exactly when
    f·F_{s-1} lies in the R-span of the columns of d^s.
    """
    alpha = res.diffs[s - 1]
    f_id = GradedMatrix.scalar(res.f, [t + 3 for t in alpha.target_twists])
    span = ColumnSpan(res.ring, list(alpha.target_twists), columns_as_vectors(alpha))
    cols = [span.lift(w) for w in columns_as_vectors(f_id)]
    if None in cols:
        raise InputError(f"f·id does not lift through d^{s}")
    beta = vectors_as_columns(res.ring, [a - 3 for a in alpha.source_twists], cols, source_twists=f_id.target_twists)
    M = MatrixFactorization(res.ring, res.f, alpha, beta)
    assert_valid_mf(M, f"factorisation from d^{s}")
    return M


def extract_mf(P: Presentation, mode: str, s: int | None = None) -> MatrixFactorization:
    """Stabilise a module presentation into a matrix factorisation.

    Every mode reads (d^s, the lift of f·id through d^s) off the minimal
    resolution of P at a step s: "point" (Hilbert function must be
    constantly 1; s = 2, twisted by -1), "structure-sheaf" (the residue field
    at s = 3, or the irrelevant-ideal module at s = 2, recognised by their
    Hilbert functions), and "raw" (mf_from_pair at the given step s, with its
    window checks).  A step is refused outside raw mode.
    """
    mode = mode.replace("_", "-")
    if s is not None and mode != "raw":
        raise InputError(f"a step applies to raw extraction only, not to mode {mode!r}")
    if mode == "raw":
        if s is None or s < 1:
            raise InputError("raw extraction needs a step s >= 1")
        return mf_from_pair(minimal_resolution(P, s + 1), s)
    if mode == "point":
        hf = [hilbert_function(P, i) for i in range(7)]
        if any(v != 1 for v in hf):
            raise InputError(
                f"cohomology-not-concentrated: point extraction needs Hilbert function 1 in degrees 0..6, got {hf}"
            )
        return twist_mf(_lift_pair(minimal_resolution(P, 2), 2), -1)
    if mode == "structure-sheaf":
        hf = [hilbert_function(P, i) for i in range(4)]
        if hf == [1, 0, 0, 0]:
            return _lift_pair(minimal_resolution(P, 3), 3)
        if hf == [0, 3, 6, 9]:
            return _lift_pair(minimal_resolution(P, 2), 2)
        raise InputError(
            f"cohomology-not-concentrated: structure-sheaf extraction does not recognise Hilbert function {hf}"
        )
    raise InputError(f"unknown extraction mode {mode!r}")
