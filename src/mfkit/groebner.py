"""Groebner bases, normal forms, kernels, syzygies, and lifts for graded
submodules of free modules over R = K[x_0..x_n] and over A = R/(f).

Module elements are sparse dicts {(position, exponent): coefficient}, each
coefficient a nonzero field element.  The module order is position-over-term
— position 0 highest, degrevlex on the monomial part — so prepending ambient
positions turns the same basis computation into an elimination engine for
syzygies, membership, and lifts.

Input must be homogeneous: a generator that is not raises ValidationError.
Bases come from F4 with the normal strategy (Faugère, JPAA 139 (1999);
Lazard, EUROCAL 1983) on the one eliminator, `linalg.RowSpace`.  Degree by
degree, the rows are the S-pairs' second halves, the generators, and the
multiples of earlier basis elements that reduce their terms; the columns
are the terms in descending order, so a row's pivot is its leading term.
Each new pivot row of the fully reduced echelon form is an element of the
reduced basis, and a generator is needed exactly when it enlarges the row
space, so one pass gives both.  A normal form is one more such row.

A computation is over A exactly when the potential f is passed: f·e_i are
adjoined to the generators (`groebner_basis`, `ColumnSpan`, `mingens` and
what calls them), and `reduce_mod_f` is the one reduction modulo f, the
normal form against f·e_i.  The vectors f·e_i live only in this module;
there is no dedicated quotient-ring engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import ValidationError
from .linalg import int_row, row_space
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


def _shifted(v: Vec, shift: Exp) -> Vec:
    """x^shift · v."""
    return {(pos, tuple(a + b for a, b in zip(exp, shift))): c for (pos, exp), c in v.items()}


def _row(v: Vec, cols, fld) -> dict:
    """v as a RowSpace row in stored form on the columns cols."""
    return int_row({cols[t]: c for t, c in v.items()}, fld)


def _reducer_space(rows, basis, lts, fld):
    """Symbolic preprocessing: a RowSpace of the reducers of rows, the column
    of each term, and the terms by column.  Each term of rows, or of a
    reducer taken, that a leading term divides gets one reducer: the
    monomial multiple of the first such basis element.  The columns are the
    terms in descending order, so each reducer's leading column is its own
    term's and `row_space` needs no back-substitution."""
    at_pos: dict[int, list] = {}  # position -> [(leading term, element)] in basis order
    for g, (lt, _) in zip(basis, lts):
        at_pos.setdefault(lt[0], []).append((lt, g))
    reducers = {}
    todo = [t for r in rows for t in r]
    while todo:
        t = todo.pop()
        if t not in reducers:
            reducers[t] = None
            for lt, g in at_pos.get(t[0], ()):
                if term_divides(lt, t):
                    reducers[t] = _shifted(g, tuple(b - a for a, b in zip(lt[1], t[1])))
                    todo.extend(reducers[t])
                    break
    terms = sorted(reducers, key=term_key, reverse=True)
    cols = {t: j for j, t in enumerate(terms)}
    space = row_space([_row(r, cols, fld) for r in reducers.values() if r], fld)
    return space, cols, terms


def _unscaled(row: dict, scale: int, terms, p: int) -> Vec:
    """The int row divided by scale, keyed by terms, in descending order.
    Over F_p the scale is 1: RowSpace keeps pivots 1 and never rescales."""
    return {terms[j]: x if p else Fraction(x, scale) for j, x in sorted(row.items())}


def reduce_vec(v: Vec, basis, lts, fld) -> Vec:
    """Full normal form of v against a Groebner basis (leading terms in lts).

    v is one more row, with an extra last column set to 1: that column
    carries the scalar that fraction-free elimination over Q puts on the
    remainder.  When no leading term divides a term of v, v is its own
    normal form, returned in the same descending term order."""
    space, cols, terms = _reducer_space([v], basis, lts, fld)
    if not space.rows:
        return {t: v[t] for t in terms}
    last = len(terms)
    row = {cols[t]: c for t, c in v.items()}
    row[last] = 1
    red = space.reduce(row)
    return _unscaled(red, red.pop(last), terms, fld.char)


def _degree_pass(gens, twists, ring: PolyRing):
    """F4 with the normal strategy, degree by degree.

    An S-pair's first half is not a row: the reducer of its leading term
    stands in for it, and differs from it by a multiple of an S-pair of
    lower degree, or of this degree with its second half among the rows.
    The S-pair rows go in before the generators, and these in index order,
    so a generator enlarges the span of those taken before it exactly when
    RowSpace.add returns a row.  Returns the reduced basis (monic, in the
    order found) and the indices of the generators that enlarged the span,
    by degree, then index.
    """
    fld = ring.field
    G, lts, enlarged = [], [], []
    gens_at: dict[int, list[int]] = {}
    for k, g in enumerate(gens):
        if g:
            gens_at.setdefault(vec_degree(g, twists), []).append(k)
    pairs_at: dict[int, dict] = {}  # degree -> {(j, lcm): None}; row x^(lcm - lt_j)·G[j]
    while gens_at or pairs_at:
        d = min(gens_at.keys() | pairs_at.keys())
        halves = [_shifted(G[j], tuple(a - b for a, b in zip(lcm, lts[j][0][1]))) for j, lcm in pairs_at.pop(d, ())]
        ks = gens_at.pop(d, [])
        space, cols, terms = _reducer_space(halves + [gens[k] for k in ks], G, lts, fld)
        old = set(space.rows)
        for h in halves:
            space.add(_row(h, cols, fld))
        for k in ks:
            if space.add(_row(gens[k], cols, fld)) is not None:
                enlarged.append(k)
        for piv in sorted(space.rows.keys() - old):
            pos, exp = lt = terms[piv]
            for (ipos, iexp), _ in lts:
                # the coprime-leading-term criterion is only sound for ideals
                if ipos == pos and not (len(twists) == 1 and all(min(a, b) == 0 for a, b in zip(iexp, exp))):
                    lcm = tuple(max(a, b) for a, b in zip(iexp, exp))
                    pairs_at.setdefault(sum(lcm) + twists[pos], {})[(len(G), lcm)] = None
            G.append(_unscaled(space.rows[piv], space.rows[piv][piv], terms, fld.char))
            lts.append((lt, fld.one))
    return G, enlarged


def buchberger(gens, twists, ring: PolyRing) -> list[Vec]:
    """Unique reduced Groebner basis of the span of gens."""
    G, _ = _degree_pass(gens, twists, ring)
    return sorted(G, key=lambda v: term_key(vec_lt(v)), reverse=True)


@dataclass
class GroebnerBasis:
    """Groebner basis, with leading terms, of a graded submodule of ⊕_i R(-t_i)."""

    ring: PolyRing
    twists: list[int]
    basis: list[Vec]
    lts: list = dc_field(init=False, repr=False)

    def __post_init__(self):
        self.lts = [(lt, v[lt]) for v in self.basis for lt in (vec_lt(v),)]


def columns_as_vectors(M: GradedMatrix) -> list[Vec]:
    return [{(i, e): c for i in range(M.rows) for e, c in M.entries[i][j].terms.items()} for j in range(M.cols)]


def vectors_as_columns(ring: PolyRing, twists, vecs, source_twists=None) -> GradedMatrix:
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
    if not isinstance(v, Poly):
        return reduce_vec(v, gb.basis, gb.lts, gb.ring.field)
    red = reduce_vec({(0, e): c for e, c in v.terms.items()}, gb.basis, gb.lts, gb.ring.field)
    return gb.ring.from_terms({e: c for (_, e), c in red.items()})


class ColumnSpan:
    """Elimination Groebner data for the span of given columns of ⊕_i R(-t_i).

    Supports lifting (a vector as a combination of the columns, or None
    outside the span) and the syzygy basis, both from one combined basis in
    which the ambient positions dominate the coefficient positions.  With f,
    the span is taken over A = R/(f): f·e_i follow the given columns.
    """

    def __init__(self, ring: PolyRing, twists, columns: list[Vec], *, f: Poly | None = None):
        self.ring = ring
        self.g = len(twists)
        if f is not None:
            columns = list(columns) + _f_unit_vectors(f, twists)
        one = (0,) * ring.nvars
        comb = [{**col, (self.g + j, one): ring.field.one} for j, col in enumerate(columns)]
        comb_twists = list(twists) + [vec_degree(col, twists) for col in columns]
        self.gb = GroebnerBasis(ring, comb_twists, buchberger(comb, comb_twists, ring))

    def lift(self, w: Vec) -> Vec | None:
        """Coefficients u (over the columns) with Σ u_j · col_j = w, or None.

        The normal form of w is its ambient remainder minus a lift (unique up
        to a syzygy), so w lies in the span iff no ambient term remains."""
        fld = self.ring.field
        red = reduce_vec(w, self.gb.basis, self.gb.lts, fld)
        if any(t[0] < self.g for t in red):
            return None
        return {(t[0] - self.g, t[1]): fld.neg(c) for t, c in red.items()}

    def syzygies(self, first: int) -> list[Vec]:
        """Groebner basis of the syzygy module of the columns, each syzygy
        cut to the first `first` columns, empty ones dropped."""
        out = []
        for v in self.gb.basis:
            if all(t[0] >= self.g for t in v):
                syz = {(t[0] - self.g, t[1]): c for t, c in v.items() if t[0] - self.g < first}
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
    cols = columns_as_vectors(M)
    span = ColumnSpan(M.ring, M.target_twists, cols, f=f)
    syz = vectors_as_columns(M.ring, M.source_twists, span.syzygies(len(cols)))
    return syz if f is None else minimal_generators(reduce_mod_f(syz, f), f=f)


def reduce_mod_f(M: GradedMatrix, f: Poly) -> GradedMatrix:
    """The columns of M reduced modulo f·e_i for every row i, zero ones dropped."""
    mod_f = GroebnerBasis(M.ring, M.target_twists, _f_unit_vectors(f, M.target_twists))
    cols = [normal_form(v, mod_f) for v in columns_as_vectors(M)]
    return vectors_as_columns(M.ring, M.target_twists, [v for v in cols if v])


def mingens(vecs: list[Vec], twists, ring: PolyRing, *, f: Poly | None = None) -> list[Vec]:
    """Minimal generating subset of homogeneous vectors (graded Nakayama).

    Takes the vectors by ascending degree, then index, and keeps one iff it
    is not a combination of those kept before it (plus f·e_i when f is
    given).  One degree-ordered pass decides every candidate; a vector that
    is not homogeneous raises ValidationError.
    """
    base = _f_unit_vectors(f, twists) if f is not None else []
    _, enlarged = _degree_pass(base + list(vecs), twists, ring)
    return [vecs[k - len(base)] for k in enlarged if k >= len(base)]


def minimal_generators(M: GradedMatrix, *, f: Poly | None = None) -> GradedMatrix:
    """mingens applied to the columns of a graded matrix."""
    vecs = mingens(columns_as_vectors(M), M.target_twists, M.ring, f=f)
    return vectors_as_columns(M.ring, M.target_twists, vecs)
