"""Graded matrix factorisations of a degree-3 potential f over R = K[X,Y,Z].

A factorisation is a pair alpha: P0 → P1, beta: P1 → P0(3) of graded maps of
free modules with beta∘alpha = f·id and alpha(3)∘beta = f·id.  Twist lists use
the convention that entry a stands for the summand R(-a), and the twist
operation (n) sends a to a - n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, ValidationError
from .groebner import ColumnSpan, columns_as_vectors, vectors_as_columns
from .poly import GradedMatrix, Poly, PolyRing, validate_graded_matrix
from .resolutions import Presentation, Resolution, hilbert_function, minimal_resolution


@dataclass
class MatrixFactorization:
    ring: PolyRing
    f: Poly
    alpha: GradedMatrix
    beta: GradedMatrix

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

    After the potential, rank, twist and degree checks, alpha·beta decides:
    R is a domain and f ≠ 0, so alpha·beta = f·I gives det alpha·det beta =
    fⁿ ≠ 0, alpha is invertible over Frac(R), beta = f·alpha⁻¹ and
    beta·alpha = f·I (Eisenbud, Trans. AMS 260 (1980), §5).  beta·alpha is
    formed only when alpha·beta fails, to report both products' violations.
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
    problems = verify_mf(M)
    if problems:
        raise ValidationError(f"invalid {what}: " + "; ".join(problems))


def trivial_mf(ring: PolyRing, f: Poly) -> MatrixFactorization:
    alpha = GradedMatrix(ring, [0], [0], [[ring.one()]])
    beta = GradedMatrix(ring, [-3], [0], [[f]])
    return MatrixFactorization(ring, f, alpha, beta)


def twist_mf(M: MatrixFactorization, n: int) -> MatrixFactorization:
    """M(n): subtract n from every twist; the matrices are unchanged."""
    return MatrixFactorization(M.ring, M.f, M.alpha.retwist(n), M.beta.retwist(n))


def shift_mf(M: MatrixFactorization, k: int = 1) -> MatrixFactorization:
    """Suspension M[k]; [1] swaps the maps, (alpha, beta) ↦ (beta, alpha(3)),
    and [2] equals the twist (3), so M[k] is M(3·(k // 2)) shifted once more
    when k is odd."""
    out = twist_mf(M, 3 * (k // 2))
    if k % 2:
        out = MatrixFactorization(out.ring, out.f, out.beta, out.alpha.retwist(3))
    return out


def transpose_mf(M: MatrixFactorization) -> MatrixFactorization:
    """Duality (alpha, beta) ↦ (alpha^t, beta^t); an exact involution."""
    new_p0 = [6 - b for b in M.p1]
    new_p1 = [6 - a for a in M.p0]
    alpha = M.alpha.transpose_entries(new_p1, new_p0)
    beta = M.beta.transpose_entries([a - 3 for a in new_p0], new_p1)
    return MatrixFactorization(M.ring, M.f, alpha, beta)


def direct_sum_mf(M: MatrixFactorization, N: MatrixFactorization) -> MatrixFactorization:
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
    return MatrixFactorization(ring, M.f, alpha, beta)


def _split_unit(A: GradedMatrix, B: GradedMatrix, i: int, j: int, f: Poly):
    """Split the trivial summand at the unit A[i][j] off the pair (A, B).

    A's survivor is the Schur complement A.split_unit(i, j).  The inverse
    operations on B change only row j and column i, which are dropped, so
    B's survivor is B.delete(j, i).
    """
    # after the row operations row j of B is (1/u)·(row i of A·B), and the
    # column operations change only its entry i, by a sum of its other
    # entries; so the pair splits exactly when row i of A·B is f·e_i
    row = GradedMatrix(A.ring, A.target_twists[i : i + 1], A.source_twists, A.entries[i : i + 1]) * B
    if any(x != (f if k == i else A.ring.zero()) for k, x in enumerate(row.entries[0])):
        raise ValidationError("reduction invariant failed: complementary map not split")
    return A.split_unit(i, j), B.delete(j, i)


def reduce_mf(M: MatrixFactorization) -> MatrixFactorization:
    """Split off trivial summands until neither map has a unit entry.

    Scans alpha first, then beta, row-major, and repeats until clean; the
    result is the reduced representative of the stable isomorphism class.
    """
    f, alpha, beta = M.f, M.alpha, M.beta
    while True:
        hit = alpha.unit_entry()
        if hit is not None:
            alpha, beta = _split_unit(alpha, beta, *hit, f)
            continue
        hit = beta.unit_entry()
        if hit is not None:
            beta, alpha = _split_unit(beta, alpha, *hit, f)
            continue
        break
    return MatrixFactorization(M.ring, f, alpha, beta)


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
