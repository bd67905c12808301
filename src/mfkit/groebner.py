"""Groebner bases, normal forms, kernels, syzygies, and lifts for graded
submodules of free modules over R = K[x_0..x_n] and over A = R/(f).

Module elements are sparse dicts {(position, exponent): coefficient}.  The
module order is position-over-term — position 0 highest, degrevlex on the
monomial part — so prepending ambient positions turns the same Buchberger
loop into an elimination engine for syzygies, membership, and lifts.
Computations over A adjoin f·e_i to generator sets; there is no dedicated
quotient-ring engine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field

from .errors import ValidationError
from .poly import Exp, GradedMatrix, Poly, PolyRing, grevlex_key

Term = tuple[int, Exp]
Vec = dict  # {Term: coefficient}


def term_key(t: Term):
    return (-t[0], grevlex_key(t[1]))


def vec_lt(v: Vec) -> Term:
    return max(v, key=term_key)


def term_divides(t1: Term, t2: Term) -> bool:
    return t1[0] == t2[0] and all(a <= b for a, b in zip(t1[1], t2[1]))


def vec_degree(v: Vec, twists) -> int | None:
    """Common homogeneous degree |exp| + twist[pos]; None for the zero vector."""
    degs = {sum(e) + twists[p] for p, e in v}
    if len(degs) > 1:
        raise ValidationError("vector is not homogeneous for the ambient twists")
    return degs.pop() if degs else None


def _add_scaled(u: Vec, v: Vec, c, shift: Exp, fld) -> None:
    """u += c * x^shift * v, in place."""
    for (pos, exp), cv in v.items():
        key = (pos, tuple(a + b for a, b in zip(exp, shift)))
        s = fld.add(u.get(key, fld.zero), fld.mul(c, cv))
        if s:
            u[key] = s
        else:
            u.pop(key, None)


def reduce_vec(v: Vec, basis, lts, fld, positions_below: int | None = None) -> Vec:
    """Full normal form of v against basis (leading terms precomputed in lts).

    With positions_below set, only terms in positions < positions_below are
    reduced; the remaining tail is returned untouched (elimination use).
    """
    work = dict(v)
    out: Vec = {}
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
        _add_scaled(work, g, fld.neg(fld.div(work[t], lc)), shift, fld)
    return out


def _monic(v: Vec, fld) -> Vec:
    c = fld.inv(v[vec_lt(v)])
    return {t: fld.mul(x, c) for t, x in v.items()}


def buchberger(gens, twists, ring: PolyRing) -> list[Vec]:
    """Unique reduced Groebner basis of the span of gens (homogeneous vectors)."""
    fld = ring.field
    G: list[Vec] = []
    lts: list[tuple[Term, object]] = []
    pairs: list[tuple[int, int, int]] = []
    ideal_case = len(twists) == 1

    def append(v: Vec) -> None:
        v = _monic(v, fld)
        k = len(G)
        lt = vec_lt(v)
        for i in range(k):
            ti = lts[i][0]
            if ti[0] != lt[0]:
                continue
            # coprime-leading-term criterion is only sound for ideals
            if ideal_case and all(min(a, b) == 0 for a, b in zip(ti[1], lt[1])):
                continue
            lcm = tuple(max(a, b) for a, b in zip(ti[1], lt[1]))
            heapq.heappush(pairs, (sum(lcm) + twists[lt[0]], i, k))
        G.append(v)
        lts.append((lt, v[lt]))

    for g in gens:
        r = reduce_vec(g, G, lts, fld)
        if r:
            append(r)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        (pi, ei), ci = lts[i]
        (pj, ej), cj = lts[j]
        lcm = tuple(max(a, b) for a, b in zip(ei, ej))
        s: Vec = {}
        _add_scaled(s, G[i], fld.inv(ci), tuple(a - b for a, b in zip(lcm, ei)), fld)
        _add_scaled(s, G[j], fld.neg(fld.inv(cj)), tuple(a - b for a, b in zip(lcm, ej)), fld)
        r = reduce_vec(s, G, lts, fld)
        if r:
            append(r)

    # inter-reduce to the unique reduced basis
    order = sorted(range(len(G)), key=lambda i: term_key(lts[i][0]))
    kept: list[int] = []
    for i in order:
        if not any(term_divides(lts[j][0], lts[i][0]) for j in kept):
            kept.append(i)
    final = []
    for i in kept:
        others = [G[j] for j in kept if j != i]
        other_lts = [lts[j] for j in kept if j != i]
        r = reduce_vec(G[i], others, other_lts, fld)
        final.append(_monic(r, fld))
    final.sort(key=lambda v: term_key(vec_lt(v)), reverse=True)
    return final


@dataclass
class GroebnerBasis:
    """Reduced Groebner basis of a graded submodule of ⊕_i R(-t_i)."""

    ring: PolyRing
    twists: list[int]
    basis: list[Vec]
    over: str = "R"  # "R", or "A" when f·e_i were adjoined
    lts: list = dc_field(default=None, repr=False)

    def __post_init__(self):
        if self.lts is None:
            self.lts = [(vec_lt(v), v[vec_lt(v)]) for v in self.basis]


def columns_as_vectors(M: GradedMatrix) -> list[Vec]:
    out = []
    for j in range(M.cols):
        v: Vec = {}
        for i in range(M.rows):
            for e, c in M.entries[i][j].terms.items():
                v[(i, e)] = c
        out.append(v)
    return out


def vectors_as_columns(
    ring: PolyRing, twists, vecs, source_twists=None
) -> GradedMatrix:
    """Pack vectors as the columns of a graded matrix, inferring source twists."""
    if source_twists is None:
        source_twists = []
        for v in vecs:
            d = vec_degree(v, twists)
            source_twists.append(d if d is not None else 0)
    entries = [[ring.zero() for _ in vecs] for _ in twists]
    for j, v in enumerate(vecs):
        per_pos: dict[int, dict] = {}
        for (pos, exp), c in v.items():
            per_pos.setdefault(pos, {})[exp] = c
        for pos, terms in per_pos.items():
            entries[pos][j] = ring.from_terms(terms)
    return GradedMatrix(ring, list(twists), list(source_twists), entries)


def _f_unit_vectors(f: Poly, twists) -> list[Vec]:
    return [{(i, e): c for e, c in f.terms.items()} for i in range(len(twists))]


def groebner_basis(gens, *, ring=None, twists=None, over: str = "R", f: Poly | None = None) -> GroebnerBasis:
    """Reduced GB of the span of gens: a GradedMatrix (columns), a list of
    Poly (ideal case), or a list of vectors with explicit ambient twists."""
    if isinstance(gens, GradedMatrix):
        ring = gens.ring
        twists = list(gens.target_twists)
        vecs = columns_as_vectors(gens)
    elif gens and isinstance(gens[0], Poly):
        ring = gens[0].ring
        twists = [0]
        vecs = [{(0, e): c for e, c in p.terms.items()} for p in gens]
    else:
        vecs = [dict(v) for v in gens]
        twists = list(twists)
    if over == "A":
        if f is None:
            raise ValidationError("computations over A need the potential f")
        vecs = vecs + _f_unit_vectors(f, twists)
    basis = buchberger(vecs, twists, ring)
    return GroebnerBasis(ring, twists, basis, over)


def normal_form(v, gb: GroebnerBasis):
    """Canonical remainder of v (a vector or a Poly) modulo gb."""
    if isinstance(v, Poly):
        vec = {(0, e): c for e, c in v.terms.items()}
        red = reduce_vec(vec, gb.basis, gb.lts, gb.ring.field)
        return gb.ring.from_terms({e: c for (_, e), c in red.items()})
    return reduce_vec(v, gb.basis, gb.lts, gb.ring.field)


class ColumnSpan:
    """Elimination Groebner data for the span of given columns of ⊕_i R(-t_i).

    Supports membership, lifting (expressing a vector as a combination of the
    columns), and the syzygy basis, all from one combined basis in which the
    ambient positions dominate the coefficient positions.
    """

    def __init__(self, ring: PolyRing, twists, columns: list[Vec]):
        self.ring = ring
        self.g = len(twists)
        self.ncols = len(columns)
        zero_exp = (0,) * ring.nvars
        comb_twists = list(twists)
        comb = []
        for j, col in enumerate(columns):
            v = dict(col)
            v[(self.g + j, zero_exp)] = ring.field.one
            d = vec_degree(col, twists)
            comb_twists.append(d if d is not None else 0)
            comb.append(v)
        self.basis = buchberger(comb, comb_twists, ring)
        self.lts = [(vec_lt(v), v[vec_lt(v)]) for v in self.basis]

    def _split(self, w: Vec):
        fld = self.ring.field
        red = reduce_vec(dict(w), self.basis, self.lts, fld, positions_below=self.g)
        gpart = {t: c for t, c in red.items() if t[0] < self.g}
        cpart = {(t[0] - self.g, t[1]): fld.neg(c) for t, c in red.items() if t[0] >= self.g}
        return gpart, cpart

    def member(self, w: Vec) -> bool:
        gpart, _ = self._split(w)
        return not gpart

    def lift(self, w: Vec) -> Vec | None:
        """Coefficients u (over the columns) with Σ u_j · col_j = w, or None."""
        gpart, cpart = self._split(w)
        return None if gpart else cpart

    def syzygies(self, first: int | None = None) -> list[Vec]:
        """Groebner basis of the syzygy module of the columns; with `first`
        set, each syzygy cut to the first columns, empty ones dropped."""
        out = []
        for v in self.basis:
            if all(t[0] >= self.g for t in v):
                syz = {(t[0] - self.g, t[1]): c for t, c in v.items() if first is None or t[0] - self.g < first}
                if syz:
                    out.append(syz)
        return out


def syzygy_basis(M, *, over: str = "R", f: Poly | None = None) -> GradedMatrix:
    """Syzygies among the columns of M (over R, or over A = R/(f)): the
    generators of ker(M) as columns in the source free module of M.

    Over A this is the kernel of the induced map of free A-modules: the
    projection onto the column coordinates of the syzygies of [M | f·Id],
    with entries reduced modulo f.
    """
    ring = M.ring
    cols = columns_as_vectors(M)
    if over != "A":
        return vectors_as_columns(ring, M.source_twists, ColumnSpan(ring, M.target_twists, cols).syzygies())
    if f is None:
        raise ValidationError("syzygies over A need the potential f")
    span = ColumnSpan(ring, M.target_twists, cols + _f_unit_vectors(f, M.target_twists))
    gb_f = groebner_basis([f], ring=ring)
    syz = _drop_redundant([_entrywise_nf(v, gb_f) for v in span.syzygies(len(cols))])
    return vectors_as_columns(ring, M.source_twists, syz)


def _entrywise_nf(v: Vec, gb_f: GroebnerBasis) -> Vec:
    """Reduce every polynomial coordinate of v modulo the ideal GB gb_f."""
    per_pos: dict[int, dict] = {}
    for (pos, exp), c in v.items():
        per_pos.setdefault(pos, {})[(0, exp)] = c
    out: Vec = {}
    for pos, vec in per_pos.items():
        red = reduce_vec(vec, gb_f.basis, gb_f.lts, gb_f.ring.field)
        for (_, exp), c in red.items():
            out[(pos, exp)] = c
    return out


def _drop_redundant(vecs: list[Vec]) -> list[Vec]:
    """Drop exact duplicates and zero vectors, preserving order."""
    seen = []
    out = []
    for v in vecs:
        if not v:
            continue
        key = tuple(sorted(((t, c) for t, c in v.items()), key=lambda tc: term_key(tc[0])))
        if key in seen:
            continue
        seen.append(key)
        out.append(v)
    return out


def mingens(
    vecs: list[Vec], twists, ring: PolyRing, *, over: str = "R", f: Poly | None = None
) -> list[Vec]:
    """Minimal generating subset of homogeneous vectors (graded Nakayama).

    Processes candidates by ascending degree; keeps one iff it is not a
    combination of those already kept (plus f·e_i over A).
    """
    order = sorted(
        range(len(vecs)),
        key=lambda k: (vec_degree(vecs[k], twists) or 0, k),
    )
    kept: list[Vec] = []
    base = _f_unit_vectors(f, twists) if over == "A" else []
    for k in order:
        v = vecs[k]
        if not v:
            continue
        gb = buchberger(base + kept, twists, ring)
        lts = [(vec_lt(g), g[vec_lt(g)]) for g in gb]
        if reduce_vec(v, gb, lts, ring.field):
            kept.append(v)
    return kept


def minimal_generators(M: GradedMatrix, *, over: str = "R", f: Poly | None = None) -> GradedMatrix:
    """mingens applied to the columns of a graded matrix."""
    vecs = mingens(columns_as_vectors(M), M.target_twists, M.ring, over=over, f=f)
    return vectors_as_columns(M.ring, M.target_twists, vecs)
