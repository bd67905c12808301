"""Finitely presented graded modules over the hypersurface ring A = R/(f):
minimal free resolutions, Hilbert functions, truncation, subquotient and
Hom-module presentations.

A Presentation is a cokernel description coker(relations: ⊕A(-s_k) → ⊕A(-t_i));
resolutions are built by iterated syzygies over A, which come as minimal
generators, so minimality holds entrywise by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ValidationError
from .groebner import (
    ColumnSpan,
    GroebnerBasis,
    columns_as_vectors,
    groebner_basis,
    minimal_mod_f,
    syzygy_basis,
    vec_degree,
    vectors_as_columns,
)
from .poly import GradedMatrix, Poly, PolyRing, assert_graded


@dataclass(frozen=True)
class Presentation:
    """Graded A-module given as coker(relations) with A = R/(f).  Frozen,
    so the module basis cached on it (`_module_gb`) cannot go stale."""

    ring: PolyRing
    f: Poly
    ambient: list[int]
    relations: GradedMatrix

    def __post_init__(self):
        object.__setattr__(self, "ambient", list(self.ambient))
        if self.relations.target_twists != self.ambient:
            raise ValidationError("relation matrix target twists must equal the ambient twists")
        assert_graded(self.relations, "relation matrix")
        if self.f.is_zero() or not self.f.is_homogeneous() or self.f.degree() != 3:
            raise ValidationError("potential must be nonzero homogeneous of degree 3")

    @classmethod
    def free(cls, ring: PolyRing, f: Poly, twists) -> "Presentation":
        return cls(ring, f, list(twists), GradedMatrix.zero(ring, list(twists), []))

    @cached_property
    def _module_gb(self) -> GroebnerBasis:
        """The reduced Groebner basis of span(relations) + f·F, which
        `hilbert_function` reads.  `minimize_presentation` seeds it with the
        basis its own pass found, which is unique for the submodule; that
        relies on a presentation being a value: its fields cannot be
        reassigned, and nothing changes them in place after it is made."""
        return groebner_basis(self.relations, f=self.f)


def minimize_presentation(P: Presentation) -> Presentation:
    """Equivalent presentation with no unit entries and minimal relations.
    Its module basis (`Presentation._module_gb`) is the one the selection of
    minimal relations found (`minimal_mod_f`), so it is not derived again."""
    # each unit entry expresses a generator by the others: clear its row,
    # then drop the generator and the relation.  Reduction mod f fixes every
    # constant and commutes with these steps, so reducing the kept relations
    # once at the end splits the same units and gives what reducing first would
    rel = P.relations
    while (pivot := rel.unit_entry()) is not None:
        rel = rel.split_unit(*pivot)
    vecs, gb = minimal_mod_f(columns_as_vectors(rel), rel.target_twists, P.ring, P.f)
    out = Presentation(P.ring, P.f, rel.target_twists, vectors_as_columns(P.ring, rel.target_twists, vecs))
    out.__dict__["_module_gb"] = gb  # where cached_property keeps its value
    return out


@dataclass
class Resolution:
    """Chain F_L → ... → F_1 → F_0 of graded free A-modules with d∘d = 0."""

    ring: PolyRing
    f: Poly
    twists: list[list[int]]  # F_0 .. F_L
    diffs: list[GradedMatrix]  # d^1 .. d^L, d^k: F_k → F_{k-1}

    @property
    def length(self) -> int:
        return len(self.diffs)


def minimal_resolution(P: Presentation, length: int) -> Resolution:
    """Minimal graded free resolution of coker(P) to the requested length."""
    if length < 1:
        raise ValidationError("resolution length must be >= 1")
    ring, f = P.ring, P.f
    P0 = minimize_presentation(P)
    twists = [list(P0.ambient)]
    diffs: list[GradedMatrix] = []
    current = P0.relations
    for _ in range(length):
        diffs.append(current)
        twists.append(list(current.source_twists))
        if len(diffs) == length:
            break
        if current.cols == 0:
            current = GradedMatrix.zero(ring, [], [])
            continue
        current = syzygy_basis(current, f=f)
    res = Resolution(ring, f, twists, diffs)
    _assert_minimal(res)
    return res


def _assert_minimal(res: Resolution) -> None:
    for k, d in enumerate(res.diffs, start=1):
        hit = d.unit_entry()
        if hit is not None:
            raise ValidationError(f"resolution not minimal: unit entry at d^{k}[{hit[0]}][{hit[1]}]")


def hilbert_function(P: Presentation, i: int) -> int:
    """dim_K of the degree-i piece of coker(P): at each position, the
    standard monomials of the module basis counted from the one
    Hilbert-series numerator there (`GroebnerBasis.standard_count`)."""
    gb = P._module_gb
    return sum(gb.standard_count(j, i - t) for j, t in enumerate(P.ambient))


def free_hilbert_function(ring: PolyRing, f: Poly, twists, i: int) -> int:
    """dim_K of the degree-i piece of the free module ⊕A(-t_j).  No caller in
    the package; public as the free-module form of `hilbert_function`, for
    tests and users."""
    return hilbert_function(Presentation.free(ring, f, twists), i)


def present_subquotient(
    ring: PolyRing, f: Poly, twists, u_vecs, v_vecs
) -> Presentation:
    """Presentation of (⟨U⟩ + ⟨V⟩)/⟨V⟩ inside ⊕A(-t_i), generators the U-images."""
    rels = ColumnSpan(ring, list(twists), list(u_vecs) + list(v_vecs), f=f).syzygies(len(u_vecs))
    u_twists = [vec_degree(u, twists) for u in u_vecs]
    rel_matrix = vectors_as_columns(ring, u_twists, rels)
    return minimize_presentation(Presentation(ring, f, u_twists, rel_matrix))


def truncate_geq(P: Presentation, i: int) -> Presentation:
    """Presentation of the truncation tr_{≥i}(coker P)."""
    ring = P.ring
    one = ring.field.one
    u_vecs = []
    for j, t in enumerate(P.ambient):
        if t >= i:
            u_vecs.append({(j, (0,) * ring.nvars): one})
        else:
            for exp in ring.monomials_of_degree(i - t):
                u_vecs.append({(j, exp): one})
    return present_subquotient(ring, P.f, P.ambient, u_vecs, columns_as_vectors(P.relations))


def hom_presentation(P: Presentation, Q: Presentation) -> Presentation:
    """Presentation of the graded Hom-module Hom_A(coker P, coker Q).

    A homomorphism is a g0×f0 matrix (column j lands in coker Q) killing the
    relations of P modulo those of Q; coordinates are flattened column-major
    with ambient twist G0_i - F0_j, so generator degrees may be negative.
    """
    if P.ring != Q.ring or P.f != Q.f:
        raise ValidationError("Hom needs modules over the same hypersurface ring")
    ring, f = P.ring, P.f
    F0, G0 = P.ambient, Q.ambient
    f0, g0 = len(F0), len(G0)
    f1 = P.relations.cols
    t1 = P.relations.source_twists
    hom_twists = [G0[i] - F0[j] for j in range(f0) for i in range(g0)]
    tgt_twists = [G0[i] - t1[c] for c in range(f1) for i in range(g0)]
    phi_cols = []
    for j in range(f0):
        for i in range(g0):
            v = {}
            for c in range(f1):
                for exp, coef in P.relations.entries[j][c].terms.items():
                    v[(c * g0 + i, exp)] = coef
            phi_cols.append(v)
    q_cols = columns_as_vectors(Q.relations)
    allowed = _blocks(q_cols, f1, g0)
    w_gens = ColumnSpan(ring, tgt_twists, phi_cols + allowed, f=f).syzygies(f0 * g0)
    return present_subquotient(ring, f, hom_twists, w_gens, _blocks(q_cols, f0, g0))


def _blocks(vecs, count: int, size: int) -> list:
    """The vectors placed in each of `count` blocks of `size` positions."""
    return [{(k * size + p, e): c for (p, e), c in v.items()} for k in range(count) for v in vecs]
