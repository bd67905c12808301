"""Independent checks of mfkit's outputs.

Polynomials here are plain dicts {exponent tuple: coefficient}, with
coefficients as Fractions (char 0) or ints reduced mod p.  Nothing in this
file calls into mfkit.poly: the identities are recomputed from the raw term
dicts of the objects mfkit returns.
"""

from __future__ import annotations

from math import comb


def _clean(terms: dict, p: int) -> dict:
    if p:
        terms = {e: c % p for e, c in terms.items()}
    return {e: c for e, c in terms.items() if c}


def poly_mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _clean(out, p)


def poly_add(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _clean(out, p)


def mat_mul(A: list, B: list, p: int) -> list:
    """Product of matrices of polynomial dicts; A is n×m, B is m×k."""
    m = len(B)
    k = len(B[0]) if B else 0
    out = []
    for row in A:
        new = []
        for j in range(k):
            acc: dict = {}
            for t in range(m):
                if row[t] and B[t][j]:
                    acc = poly_add(acc, poly_mul(row[t], B[t][j], p), p)
            new.append(acc)
        out.append(new)
    return out


def _scalar_problems(name: str, prod: list, diag: dict, p: int) -> list[str]:
    """Entries of prod that differ from diag·Id."""
    diag = _clean(diag, p)
    out = []
    for i, row in enumerate(prod):
        for j, e in enumerate(row):
            if _clean(e, p) != (diag if i == j else {}):
                out.append(f"{name}[{i}][{j}] is not {'the diagonal value' if i == j else '0'}")
    return out


def grading_problems(name: str, entries: list, target: list, source: list) -> list[str]:
    """Entry (i, j) must be zero or homogeneous of degree source[j] - target[i]."""
    out = []
    if len(entries) != len(target) or any(len(r) != len(source) for r in entries):
        return [f"{name} has shape {len(entries)}x{len(entries[0]) if entries else 0}, "
                f"twists say {len(target)}x{len(source)}"]
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            degs = {sum(x) for x in e}
            if degs and degs != {source[j] - target[i]}:
                out.append(f"{name}[{i}][{j}] has degrees {sorted(degs)}, expected {source[j] - target[i]}")
    return out


def matrix_terms(mat) -> list:
    """The entries of an mfkit GradedMatrix as copied term dicts."""
    return [[dict(e.terms) for e in row] for row in mat.entries]


class MFData:
    """Raw data of a factorisation: twists, entry term dicts and the potential."""

    __slots__ = ("p0", "p1", "alpha", "beta", "f", "char")

    def __init__(self, p0, p1, alpha, beta, f, char):
        self.p0, self.p1 = list(p0), list(p1)
        self.alpha, self.beta, self.f, self.char = alpha, beta, f, char

    @classmethod
    def of(cls, M) -> "MFData":
        """Copy the term dicts out of an mfkit MatrixFactorization."""
        return cls(M.p0, M.p1, matrix_terms(M.alpha), matrix_terms(M.beta), dict(M.f.terms), M.ring.field.char)

    def __eq__(self, other):
        return isinstance(other, MFData) and all(
            getattr(self, s) == getattr(other, s) for s in self.__slots__
        )


def factorisation_problems(M: MFData) -> list[str]:
    """β·α = f·Id, α·β = f·Id and the grading of every entry."""
    p = M.char
    n = len(M.p0)
    if len(M.p1) != n:
        return [f"rank mismatch {len(M.p0)} vs {len(M.p1)}"]
    if {sum(e) for e in M.f} != {3}:
        return ["potential is not homogeneous of degree 3"]
    out = grading_problems("alpha", M.alpha, M.p1, M.p0)
    out += grading_problems("beta", M.beta, [a - 3 for a in M.p0], M.p1)
    if out:
        return out
    out += _scalar_problems("beta*alpha", mat_mul(M.beta, M.alpha, p), M.f, p)
    out += _scalar_problems("alpha*beta", mat_mul(M.alpha, M.beta, p), M.f, p)
    return out


def _identity_problems(name: str, mat: list, p: int) -> list[str]:
    return _scalar_problems(name, mat, {(0, 0, 0): 1}, p)


def morphism_problems(name: str, f0: list, f1: list, M: MFData, N: MFData) -> list[str]:
    """(f0, f1): M → N is graded and strict: f1·α_M = α_N·f0, f0·β_M = β_N·f1."""
    p = M.char
    out = grading_problems(f"{name}.f0", f0, N.p0, M.p0)
    out += grading_problems(f"{name}.f1", f1, N.p1, M.p1)
    if out:
        return out
    if mat_mul(f1, M.alpha, p) != mat_mul(N.alpha, f0, p):
        out.append(f"{name}: f1*alpha(source) != alpha(target)*f0")
    if mat_mul(f0, M.beta, p) != mat_mul(N.beta, f1, p):
        out.append(f"{name}: f0*beta(source) != beta(target)*f1")
    return out


def certificate_problems(forward, backward) -> list[str]:
    """Recheck an isomorphism certificate (two mfkit MFMorphisms) from scratch."""
    M, N = MFData.of(forward.source), MFData.of(forward.target)
    if MFData.of(backward.source) != N or MFData.of(backward.target) != M:
        return ["backward does not map the target back to the source"]
    p = M.char
    out = factorisation_problems(M) + factorisation_problems(N)
    fw = (matrix_terms(forward.f0), matrix_terms(forward.f1))
    bw = (matrix_terms(backward.f0), matrix_terms(backward.f1))
    out += morphism_problems("forward", *fw, M, N)
    out += morphism_problems("backward", *bw, N, M)
    if out:
        return out
    out += _identity_problems("(backward*forward).f0", mat_mul(bw[0], fw[0], p), p)
    out += _identity_problems("(backward*forward).f1", mat_mul(bw[1], fw[1], p), p)
    out += _identity_problems("(forward*backward).f0", mat_mul(fw[0], bw[0], p), p)
    out += _identity_problems("(forward*backward).f1", mat_mul(fw[1], bw[1], p), p)
    return out


def free_hilbert(twists, i: int) -> int:
    """dim_K of the degree-i piece of ⊕ K[X,Y,Z](-t)."""
    return sum(comb(i - t + 2, 2) for t in twists if i >= t)


def cokernel_hilbert(M: MFData, i: int) -> int:
    """dim_K of coker(β)_i: β is injective over R (det β · det α = f^rank)."""
    return free_hilbert([a - 3 for a in M.p0], i) - free_hilbert(M.p1, i)
