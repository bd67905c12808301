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
degree, the multiples of earlier basis elements that reduce the terms met
are the reducers; the new rows, the S-pairs' second halves and the
generators, are cleared against the reducers and echelonised apart from
them, in a space of their own, so no new pivot is ever put back into a
reducer row, which the degree then drops.  The columns are the terms in
descending order, so a row's pivot is its leading term.  Each pivot row of
the new rows' fully reduced echelon form is an element of the reduced
basis, and a generator is needed exactly when it enlarges the span, so one
pass gives both.  A normal form is one more row, cleared against its
reducers.

Inside elimination a term is one packed int (Monagan and Pearce, JSC 46
(2011)).  With P positions, n variables and fields of W = 32 bits,

    T = (P - pos)·2^(W·(n+1)) + deg·2^(W·n) - Σ_i e_i·2^(W·i).

Its integer order is the module order, and it adds under shifts: x^s times
the term T is T + key(s), key(s) being the same sum with no position part,
so T - T' is the shift between two terms of one position.  Degrees stay
below 2^31 (`DEGREE_BITS`), which leaves the top bit of every exponent
field free as a guard: lt divides t iff lt + guard - t keeps every guard
bit.  A term whose degree could reach 2^31 is refused with ValidationError.
The column of T is -T, so a RowSpace row keyed by columns lists its terms
in descending order with no column map.  A pass keeps each basis element
as the stored int row that RowSpace produced; S-pair halves and reducers
are integer shifts of those rows.  The pass's `GroebnerBasis` keeps them:
normal forms work on them as they are, standard-monomial counts come from
one Hilbert-series numerator per position, folded from the leading
exponents there once per distinct set of them (`hilbert_numerator`), and
an element becomes a (pos, exp)-keyed field vector
only when it is read.

A computation is over A exactly when the potential f is passed: f·e_i are
adjoined to the generators (`groebner_basis`, `ColumnSpan`, `mingens` and
what calls them), and `minimal_mod_f` is the one reduction modulo f: the
kept minimal generators over A, each reduced against f·e_i.  Those are a
reduced basis of f·F as they stand (`_f_basis`), so that reduction runs no
pass, and `minimal_mod_f` also returns the basis its selection pass found,
which a minimised presentation keeps as its module basis.  The vectors
f·e_i live only in this module; there is no dedicated quotient-ring engine.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import comb
from operator import le, mul
from struct import Struct

from .errors import ValidationError
from .fields import rational
from .linalg import RowSpace, int_row, row_space
from .poly import Exp, GradedMatrix, Poly, PolyRing

Term = tuple[int, Exp]
Vec = dict  # {Term: coefficient}

DEGREE_BITS = 31  # degrees of packed terms stay below 2^DEGREE_BITS
_W = DEGREE_BITS + 1  # bits per field: the value and one guard bit


def vec_degree(v: Vec, twists) -> int:
    """Common homogeneous degree |exp| + twist[pos]; 0 for the zero vector."""
    degs = {sum(e) + twists[p] for p, e in v}
    if len(degs) > 1:
        raise ValidationError("vector is not homogeneous for the ambient twists")
    return degs.pop() if degs else 0


class _Packing:
    """Packed terms (module docstring) of ⊕_{pos < P} R(-twists[pos]).

    Every term a computation makes has the degree |exp| + twist of one it
    packed, so refusing a packed term whose degree plus its twist's excess
    over the least twist reaches 2^DEGREE_BITS keeps every exponent of every
    term below that."""

    __slots__ = ("n", "P", "shift", "weights", "base", "limit", "guard", "_fields")

    def __init__(self, nvars: int, twists: tuple):
        n, P = nvars, len(twists)
        self.n, self.P, self.shift = n, P, _W * (n + 1)
        top = 1 << (_W * n)
        self.weights = tuple(top - (1 << (_W * i)) for i in range(n))
        self.base = tuple((P - pos) << self.shift for pos in range(P))
        low = min(twists, default=0)
        # deg >= D iff key > (D - 1)·2^(W·n), for D <= 2^DEGREE_BITS
        self.limit = tuple(((1 << DEGREE_BITS) - 1 - t + low) * top for t in twists)
        self.guard = sum(1 << (_W * i + DEGREE_BITS) for i in range(n))
        self._fields = Struct(f"<{n}I")  # n little-endian fields of W = 32 bits

    def pack(self, term: Term) -> int:
        pos, exp = term
        if not 0 <= pos < self.P:
            raise ValidationError(f"term at position {pos} of a module with {self.P} positions")
        key = sum(map(mul, exp, self.weights))
        if key > self.limit[pos]:
            raise ValidationError(
                f"term of degree {sum(exp)} at position {pos}: packed degrees stay below 2^{DEGREE_BITS}"
            )
        return self.base[pos] + key

    def unpack(self, t: int) -> Term:
        key = t & ((1 << self.shift) - 1)
        rem = (-(-key >> (_W * self.n)) << (_W * self.n)) - key  # Σ e_i·2^(W·i)
        return self.P - (t >> self.shift), self._fields.unpack(rem.to_bytes(4 * self.n, "little"))

    def divides(self, a: int, b: int) -> bool:
        """Whether packed term a divides packed term b."""
        g = self.guard
        return a >> self.shift == b >> self.shift and (a + g - b) & g == g


@lru_cache(maxsize=256)
def _packing(nvars: int, twists: tuple) -> _Packing:
    return _Packing(nvars, twists)


def _reducer_space(rows, at_pos: dict, pk: _Packing, fld):
    """Symbolic preprocessing: a RowSpace of the reducers of rows (dicts keyed
    by column).  Each column of rows, or of a reducer taken, whose term a
    leading term divides gets one reducer: the shift of the first such basis
    element.
    at_pos holds, per position field, the elements in basis order as
    (packed leading term, stored row).  A reducer's leading column is its
    own, so `row_space` needs no back-substitution."""
    divides, shift = pk.divides, pk.shift
    reducers = {}
    todo = [c for r in rows for c in r]
    while todo:
        c = todo.pop()
        if c not in reducers:
            reducers[c] = None
            for lt, row in at_pos.get(-c >> shift, ()):
                if divides(lt, -c):
                    s = c + lt  # the shift in columns: the leading column -lt goes to c
                    reducers[c] = r = {j + s: x for j, x in row.items()}
                    todo.extend(r)
                    break
    return row_space([r for r in reducers.values() if r], fld)


def _index(at_pos: dict, pk: _Packing, lead: int, row: dict) -> None:
    """File a basis element, its stored row with leading column lead, under
    its position in at_pos."""
    at_pos.setdefault(-lead >> pk.shift, []).append((-lead, row))


def _unpacked(row: dict, scale: int, pk: _Packing, p: int) -> Vec:
    """The stored row divided by scale, keyed by terms, in descending order.
    Over F_p the scale is 1: RowSpace keeps pivots 1 and never rescales."""
    return {pk.unpack(-c): x if p else rational(x, scale) for c, x in sorted(row.items())}


def reduce_vec(v: Vec, gb: GroebnerBasis) -> Vec:
    """Full normal form of v against the Groebner basis gb.

    v is one more row, with an extra column 0, right of every term's, set to
    1: that column carries the scalar that fraction-free elimination over Q
    puts on the remainder.  When no leading term divides a term of v, v is
    its own normal form, returned in descending term order."""
    pk = gb._packing
    terms = {-pk.pack(t): t for t in v}
    row = {c: v[t] for c, t in terms.items()}
    space = _reducer_space([row], gb._at_pos, pk, gb.ring.field)
    if not space.rows:
        return {terms[c]: row[c] for c in sorted(terms)}
    row[0] = 1
    red = space.reduce(row)
    return _unpacked(red, red.pop(0), pk, gb.ring.field.char)


def _degree_pass(gens, twists, ring: PolyRing):
    """F4 with the normal strategy, degree by degree, on packed terms.

    An S-pair's first half is not a row: the reducer of its leading term
    stands in for it, and differs from it by a multiple of an S-pair of
    lower degree, or of this degree with its second half among the rows.
    The S-pair rows go in before the generators, and these in index order.

    Each new row is cleared against the degree's reducers (`_reducer_space`)
    and added to a RowSpace of the new rows only, so the reducers are left
    as they are.  The output is that of echelonising reducers and new rows
    together: the reducers are fully reduced among themselves, each at its
    own leading column, and a cleared row has no entry at a reducer's pivot.
    Echelonising the cleared rows among themselves keeps that, so the new
    rows are fully reduced against both sets, and in stored form they are
    the unique new pivot rows of the joint space.  A generator enlarges the
    span of the reducers and the rows taken before it exactly when its
    cleared form enlarges the span of the cleared rows before it, that is,
    when RowSpace.add returns a row.

    Returns the reduced basis of the span, a `GroebnerBasis`, and the
    indices of the generators that enlarged the span, by degree, then index.
    """
    fld = ring.field
    pk = _packing(ring.nvars, tuple(twists))
    found, at_pos, enlarged = {}, {}, []
    exps_at: dict[int, list] = {}  # position -> leading exponents there, in the order found
    gens_at: dict[int, list[int]] = {}
    for k, g in enumerate(gens):
        if g:
            gens_at.setdefault(vec_degree(g, twists), []).append(k)
    pairs_at: dict[int, dict] = {}  # degree -> {(lead, pos, lcm): None}; row x^(lcm - lt)·found[lead]
    while gens_at or pairs_at:
        d = min(gens_at.keys() | pairs_at.keys())
        halves = []
        for lead, pos, lcm in pairs_at.pop(d, ()):
            s = -pk.pack((pos, lcm)) - lead
            halves.append({c + s: x for c, x in found[lead].items()})
        ks = gens_at.pop(d, [])
        rows = [int_row({-pk.pack(t): c for t, c in gens[k].items()}, fld) for k in ks]
        reducers = _reducer_space(halves + rows, at_pos, pk, fld)
        space = RowSpace(fld)
        for h in halves:
            space.add(reducers._clear(h))
        for k, r in zip(ks, rows):
            if space.add(reducers._clear(r)) is not None:
                enlarged.append(k)
        for piv in sorted(space.rows):
            pos, exp = pk.unpack(-piv)
            earlier = exps_at.setdefault(pos, [])
            for iexp in earlier:
                lcm = tuple(map(max, iexp, exp))
                pairs_at.setdefault(sum(lcm) + twists[pos], {})[(piv, pos, lcm)] = None
            earlier.append(exp)
            found[piv] = space.rows[piv]
            _index(at_pos, pk, piv, found[piv])
    return GroebnerBasis(ring, twists, pk, [found[q] for q in sorted(found)]), enlarged


def buchberger(gens, twists, ring: PolyRing) -> GroebnerBasis:
    """Unique reduced Groebner basis of the span of gens, monic, by
    descending leading term."""
    return _degree_pass(gens, twists, ring)[0]


class GroebnerBasis:
    """The reduced Groebner basis a pass found for a graded submodule of
    ⊕_i R(-t_i): its stored rows by descending leading term, filed by
    position for `reduce_vec`.  Only a pass (`_degree_pass`, which
    `buchberger` and `mingens` run) makes one, and `_f_basis` for f·F."""

    def __init__(self, ring: PolyRing, twists, packing: _Packing, rows: list[dict]):
        self.ring, self.twists, self._packing, self._rows = ring, list(twists), packing, rows
        self._at_pos: dict = {}
        for row in rows:
            _index(self._at_pos, packing, min(row), row)

    def __len__(self) -> int:
        return len(self._rows)

    @cached_property
    def basis(self) -> list[Vec]:
        """The elements as monic (pos, exp)-keyed vectors, by descending
        leading term, each in descending term order."""
        return self.elements_from(0)

    def elements_from(self, pos: int) -> list[Vec]:
        """The elements with leading position at least pos, decoded.  Under
        position-over-term order these are the ones with every term there."""
        pk, char, top = self._packing, self.ring.field.char, self._packing.P - pos
        return [_unpacked(row, row[min(row)], pk, char) for row in self._rows if -min(row) >> pk.shift <= top]

    @cached_property
    def hilbert_numerators(self) -> dict[int, tuple[int, ...]]:
        """For each position with a leading term, the numerator of the
        Hilbert series of R/⟨its leading exponents⟩ (`hilbert_numerator`).
        The basis is reduced, so those exponents are already the minimal
        generators."""
        pk = self._packing
        return {
            pk.P - key: _numerator(_Exponents([pk.unpack(lt)[1] for lt, _ in leads]))
            for key, leads in self._at_pos.items()
        }

    def standard_count(self, pos: int, degree: int) -> int:
        """How many monomials x^e of the degree have (pos, e) divisible by no
        leading term: the dimension of the quotient at pos in that degree,
        Σ_k n_k·C(degree - k + n - 1, n - 1) over the k <= degree, n_k the
        coefficients of the position's numerator (1 with no leading term)."""
        if degree < 0:
            return 0
        n = self.ring.nvars
        num = self.hilbert_numerators.get(pos, (1,))
        return sum(c * comb(degree - k + n - 1, n - 1) for k, c in enumerate(num[: degree + 1]))


def hilbert_numerator(gens) -> list[int]:
    """Coefficients n_k of N(t) = Σ n_k·t^k, the numerator of the Hilbert
    series N(t)/(1 - t)^n of R/⟨x^g : g in gens⟩, with no trailing zeros
    (none at all for the unit ideal, whose N is 0).  The generators fold in
    one at a time by N(I + ⟨x^m⟩) = N(I) - t^|m|·N(I : x^m) (Bayer and
    Stillman, JSC 14 (1992); Bigatti, Comm. Algebra 25 (1997)).  The fold is
    a loop and only the colon ideals, minimised, recurse, so the recursion
    does not deepen with the number of gens.

    N is a function of the set of gens alone, and the bases of one pass
    share leading-term sets, as do the colon ideals of one fold, so the
    fold runs once per distinct set (`_numerator`).  Each call gets a
    fresh list."""
    return list(_numerator(_Exponents(gens)))


class _Exponents:
    """Exponents in the order given, equal to and hashed as their set: the
    key of `_numerator`, which folds a miss in this order."""

    __slots__ = ("order", "key")

    def __init__(self, exps):
        self.order = tuple(exps)
        self.key = frozenset(self.order)

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other) -> bool:
        return self.key == other.key


@lru_cache(maxsize=1024)
def _numerator(gens: _Exponents) -> tuple[int, ...]:
    """`hilbert_numerator` of gens, folded in their order on a miss.  The
    trailing zeros the fold leaves depend on that order, so they are cut,
    which makes the kept value the same for every order."""
    num, done = [1], []
    for m in gens.order:
        colon = _minimal({tuple([a - b if a > b else 0 for a, b in zip(g, m)]) for g in done})
        low, inner = sum(m), _numerator(_Exponents(colon))
        num += [0] * (low + len(inner) - len(num))
        for k, c in enumerate(inner, low):
            num[k] -= c
        done.append(m)
    while num and not num[-1]:
        num.pop()
    return tuple(num)


def _minimal(exps) -> list[Exp]:
    """The exponents of the set exps that no other one divides."""
    out: list[Exp] = []
    for e in sorted(exps, key=sum):
        if not any(all(map(le, d, e)) for d in out):
            out.append(e)
    return out


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


def _f_basis(f: Poly, twists, ring: PolyRing) -> GroebnerBasis:
    """The reduced Groebner basis of f·F, built as it stands: each f·e_i is
    alone at its position, so no S-pair exists and no term of one is
    divisible by another's leading term.  Each row is brought to stored form
    on its own, and the rows, sharing no column, come out as a pass over
    them would leave them (`buchberger`)."""
    pk = _packing(ring.nvars, tuple(twists))
    rows = [int_row({-pk.pack(t): c for t, c in v.items()}, ring.field) for v in _f_unit_vectors(f, twists)]
    stored = row_space(rows, ring.field).rows
    return GroebnerBasis(ring, twists, pk, [stored[q] for q in sorted(stored)])


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
    return buchberger(vecs, twists, ring)


def normal_form(v, gb: GroebnerBasis):
    """Canonical remainder of v (a vector or a Poly) modulo gb."""
    if not isinstance(v, Poly):
        return reduce_vec(v, gb)
    red = reduce_vec({(0, e): c for e, c in v.terms.items()}, gb)
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
        self.gb = buchberger(comb, comb_twists, ring)

    def lift(self, w: Vec) -> Vec | None:
        """Coefficients u (over the columns) with Σ u_j · col_j = w, or None.

        The normal form of w is its ambient remainder minus a lift (unique up
        to a syzygy), so w lies in the span iff no ambient term remains."""
        fld = self.ring.field
        red = reduce_vec(w, self.gb)
        if any(t[0] < self.g for t in red):
            return None
        return {(t[0] - self.g, t[1]): fld.neg(c) for t, c in red.items()}

    def syzygies(self, first: int) -> list[Vec]:
        """Groebner basis of the syzygy module of the columns, each syzygy
        cut to the first `first` columns, empty ones dropped."""
        out = []
        for v in self.gb.elements_from(self.g):
            syz = {(t[0] - self.g, t[1]): c for t, c in v.items() if t[0] - self.g < first}
            if syz:
                out.append(syz)
        return out


def syzygy_basis(M, *, f: Poly | None = None) -> GradedMatrix:
    """Syzygies among the columns of M: the generators of ker(M) as columns
    in the source free module of M.

    Over R (no f) this is a Groebner basis of the syzygy module.  With f it is
    the kernel of the induced map of free A-modules, A = R/(f): the projection
    onto the column coordinates of the syzygies of [M | f·Id], cut to minimal
    generators over A and reduced modulo f (`minimal_mod_f`).
    """
    cols = columns_as_vectors(M)
    span = ColumnSpan(M.ring, M.target_twists, cols, f=f)
    syz = span.syzygies(len(cols))
    if f is not None:
        syz = minimal_mod_f(syz, M.source_twists, M.ring, f)[0]
    return vectors_as_columns(M.ring, M.source_twists, syz)


def mingens(vecs: list[Vec], twists, ring: PolyRing, *, f: Poly | None = None) -> tuple[list[Vec], GroebnerBasis]:
    """Minimal generating subset of homogeneous vectors (graded Nakayama),
    and the reduced Groebner basis of their span (plus f·F when f is given).

    Takes the vectors by ascending degree, then index, and keeps one iff it
    is not a combination of those kept before it (plus f·e_i when f is
    given).  One degree-ordered pass decides every candidate and finds the
    basis; a vector that is not homogeneous raises ValidationError.
    """
    base = _f_unit_vectors(f, twists) if f is not None else []
    gb, enlarged = _degree_pass(base + list(vecs), twists, ring)
    return [vecs[k - len(base)] for k in enlarged if k >= len(base)], gb


def minimal_mod_f(vecs: list[Vec], twists, ring: PolyRing, f: Poly) -> tuple[list[Vec], GroebnerBasis]:
    """`mingens` over A = R/(f): the kept vectors reduced modulo f·e_i
    (against `_f_basis`, with no pass), and the basis of span(vecs) + f·F
    that the selection found.  A normal form differs from its vector by an
    element of f·F, and `mingens` takes each f·e_i before the vectors of its
    degree, so a vector is kept exactly when its normal form would be, and
    one in f·F never is.  The reduced kept vectors and f·F span the same
    submodule as vecs and f·F, so the basis is theirs too."""
    mod_f = _f_basis(f, twists, ring)
    kept, gb = mingens(vecs, twists, ring, f=f)
    return [reduce_vec(v, mod_f) for v in kept], gb


def minimal_generators(M: GradedMatrix, *, f: Poly | None = None) -> GradedMatrix:
    """mingens applied to the columns of a graded matrix.  No caller in the
    package; public as the matrix form of `mingens`, for tests and users."""
    vecs = mingens(columns_as_vectors(M), M.target_twists, M.ring, f=f)[0]
    return vectors_as_columns(M.ring, M.target_twists, vecs)
