"""Groebner bases, normal forms, kernels, syzygies, and lifts for graded
submodules of free modules over R = K[x_0..x_n] and over A = R/(f).

Module elements are sparse dicts {(position, exponent): coefficient}.  The
module order is position-over-term — position 0 highest, degrevlex on the
monomial part — so prepending ambient positions turns the same Buchberger
loop into an elimination engine for syzygies, membership, and lifts.
The loop runs degree by degree, so the pass that builds a basis also tells
which generators were needed: minimal generators come from one pass.

A computation is over A exactly when the potential f is passed: f·e_i are
adjoined to the generators, and reduction modulo f is the normal form
against f·e_i.  There is no dedicated quotient-ring engine.
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


def vec_degree(v: Vec, twists) -> int:
    """Common homogeneous degree |exp| + twist[pos]; 0 for the zero vector."""
    degs = {sum(e) + twists[p] for p, e in v}
    if len(degs) > 1:
        raise ValidationError("vector is not homogeneous for the ambient twists")
    return degs.pop() if degs else 0


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


def _degree_pass(gens, twists, ring: PolyRing):
    """Buchberger's loop, degree by degree (degree of the leading term).

    Within a degree the S-pairs are reduced before the generators, so a
    homogeneous generator enlarges the span of the generators taken before it
    exactly when it does not reduce to zero.  Returns a (not yet reduced)
    Groebner basis, its leading terms, and the indices of the generators that
    enlarged the span, in the order taken: by degree, then index.
    """
    fld = ring.field
    G: list[Vec] = []
    lts: list[tuple[Term, object]] = []
    enlarged: list[int] = []
    ideal_case = len(twists) == 1
    # items (degree, 0, i, j) are S-pairs, (degree, 1, k) generators
    queue = []
    for k, g in enumerate(gens):
        if g:
            pos, exp = vec_lt(g)
            queue.append((sum(exp) + twists[pos], 1, k))
    heapq.heapify(queue)

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
            heapq.heappush(queue, (sum(lcm) + twists[lt[0]], 0, i, k))
        G.append(v)
        lts.append((lt, v[lt]))

    while queue:
        item = heapq.heappop(queue)
        if item[1]:
            r = reduce_vec(gens[item[2]], G, lts, fld)
            if r:
                enlarged.append(item[2])
        else:
            _, _, i, j = item
            (pi, ei), ci = lts[i]
            (pj, ej), cj = lts[j]
            lcm = tuple(max(a, b) for a, b in zip(ei, ej))
            s: Vec = {}
            _add_scaled(s, G[i], fld.inv(ci), tuple(a - b for a, b in zip(lcm, ei)), fld)
            _add_scaled(s, G[j], fld.neg(fld.inv(cj)), tuple(a - b for a, b in zip(lcm, ej)), fld)
            r = reduce_vec(s, G, lts, fld)
        if r:
            append(r)
    return G, lts, enlarged


def buchberger(gens, twists, ring: PolyRing) -> list[Vec]:
    """Unique reduced Groebner basis of the span of gens."""
    fld = ring.field
    G, lts, _ = _degree_pass(gens, twists, ring)
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
    """Groebner basis, with leading terms, of a graded submodule of ⊕_i R(-t_i)."""

    ring: PolyRing
    twists: list[int]
    basis: list[Vec]
    lts: list = dc_field(init=False, repr=False)

    def __post_init__(self):
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
        source_twists = [vec_degree(v, twists) for v in vecs]
    entries = [[ring.zero() for _ in vecs] for _ in twists]
    for j, v in enumerate(vecs):
        per_pos: dict[int, dict] = {}
        for (pos, exp), c in v.items():
            per_pos.setdefault(pos, {})[exp] = c
        for pos, terms in per_pos.items():
            entries[pos][j] = ring.from_terms(terms)
    return GradedMatrix(ring, list(twists), list(source_twists), entries)


def _f_unit_vectors(f: Poly, twists) -> list[Vec]:
    """f·e_i for every position i: a Groebner basis of f·F, F = ⊕_i R(-t_i)."""
    return [{(i, e): c for e, c in f.terms.items()} for i in range(len(twists))]


def groebner_basis(gens, *, ring=None, twists=None, f: Poly | None = None) -> GroebnerBasis:
    """Reduced GB of the span of gens: a GradedMatrix (columns), a list of
    Poly (ideal case), or a list of vectors with explicit ambient twists.
    With f, the span is taken over A = R/(f): f·e_i are adjoined."""
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
    if f is not None:
        vecs = vecs + _f_unit_vectors(f, twists)
    return GroebnerBasis(ring, twists, buchberger(vecs, twists, ring))


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
            comb_twists.append(vec_degree(col, twists))
            comb.append(v)
        self.gb = GroebnerBasis(ring, comb_twists, buchberger(comb, comb_twists, ring))

    def _split(self, w: Vec):
        fld = self.ring.field
        red = reduce_vec(w, self.gb.basis, self.gb.lts, fld, positions_below=self.g)
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
        for v in self.gb.basis:
            if all(t[0] >= self.g for t in v):
                syz = {(t[0] - self.g, t[1]): c for t, c in v.items() if first is None or t[0] - self.g < first}
                if syz:
                    out.append(syz)
        return out


def syzygy_basis(M, *, f: Poly | None = None) -> GradedMatrix:
    """Syzygies among the columns of M: the generators of ker(M) as columns
    in the source free module of M.

    Over R (no f) this is a Groebner basis of the syzygy module.  With f it is
    the kernel of the induced map of free A-modules, A = R/(f): the projection
    onto the column coordinates of the syzygies of [M | f·Id], reduced modulo
    f and cut to minimal generators.
    """
    ring = M.ring
    cols = columns_as_vectors(M)
    if f is None:
        return vectors_as_columns(ring, M.source_twists, ColumnSpan(ring, M.target_twists, cols).syzygies())
    span = ColumnSpan(ring, M.target_twists, cols + _f_unit_vectors(f, M.target_twists))
    mod_f = GroebnerBasis(ring, M.source_twists, _f_unit_vectors(f, M.source_twists))
    syz = [normal_form(v, mod_f) for v in span.syzygies(len(cols))]
    return vectors_as_columns(ring, M.source_twists, mingens(syz, M.source_twists, ring, f=f))


def mingens(vecs: list[Vec], twists, ring: PolyRing, *, f: Poly | None = None) -> list[Vec]:
    """Minimal generating subset of homogeneous vectors (graded Nakayama).

    Takes the vectors by ascending degree, then index, and keeps one iff it
    is not a combination of those kept before it (plus f·e_i when f is
    given).  One degree-ordered Buchberger pass decides every candidate.
    """
    for v in vecs:
        vec_degree(v, twists)  # raises on a non-homogeneous vector
    base = _f_unit_vectors(f, twists) if f is not None else []
    _, _, enlarged = _degree_pass(base + list(vecs), twists, ring)
    return [vecs[k - len(base)] for k in enlarged if k >= len(base)]


def minimal_generators(M: GradedMatrix, *, f: Poly | None = None) -> GradedMatrix:
    """mingens applied to the columns of a graded matrix."""
    vecs = mingens(columns_as_vectors(M), M.target_twists, M.ring, f=f)
    return vectors_as_columns(M.ring, M.target_twists, vecs)
