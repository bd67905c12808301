"""Graded multivariate polynomials and twist-aware matrices over them.

Exact coefficients (Q or F_p), standard grading deg(x_i) = 1, and the
degree-reverse-lexicographic order with the declared variable order used
everywhere (leading terms, canonical printing).

Twist convention, fixed once: a twist list entry ``a`` denotes the free
summand R(-a), whose generator sits in degree a; the twist functor (n)
sends the entry a to a - n.  A matrix with source twists a_j and target
twists b_i is degree-zero exactly when entry (i, j) is zero or homogeneous
of degree a_j - b_i.
"""

from __future__ import annotations

import functools
import itertools
import re
from operator import add

from .errors import ParseError, ValidationError
from .fields import Field
from .linalg import inverse

Exp = tuple[int, ...]


def grevlex_key(exp: Exp):
    """Sort key for degrevlex: larger key = larger monomial."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


@functools.cache
def _monomials(n: int, d: int) -> tuple[Exp, ...]:
    """The n-variable exponent tuples of total degree d, descending in
    degrevlex; computed once per (n, d)."""
    if d < 0:
        return ()
    exps = []
    for bars in itertools.combinations(range(d + n - 1), n - 1):
        prev = -1
        exp = []
        for b in bars:
            exp.append(b - prev - 1)
            prev = b
        exp.append(d + n - 2 - prev)
        exps.append(tuple(exp))
    exps.sort(key=grevlex_key, reverse=True)
    return tuple(exps)


def pack_lex(exp: Exp, width: int) -> int:
    """exp as one int of fields `width` bits wide, the first exponent
    highest: on exponents below 2^width its integer order is the
    lexicographic order of the tuples, and exponents add as ints."""
    key = 0
    for e in exp:
        key = (key << width) + e
    return key


@functools.cache
def _packed_monomials(n: int, d: int, width: int) -> tuple[int, ...]:
    """`pack_lex` of each tuple of `_monomials(n, d)`, in that order."""
    return tuple(pack_lex(exp, width) for exp in _monomials(n, d))


def _add_products(out: dict, t1: dict, t2: dict, char: int) -> None:
    """Add every product of a term of t1 and a term of t2 into the term dict
    out, coefficients reduced mod char (if nonzero), dropping terms that
    cancel.  The one term loop of polynomial and matrix products."""
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(map(add, e1, e2))
            c = c1 * c2
            if e in out:
                c += out[e]
            if char:
                c %= char
            if c:
                out[e] = c
            else:
                out.pop(e, None)


def _add_terms(out: dict, terms: dict, char: int, sign: int) -> None:
    """Add sign·terms into the term dict out, coefficients reduced mod char
    (if nonzero), dropping terms that cancel; new terms go at the end.  The
    one term loop of polynomial sums and differences."""
    for e, c in terms.items():
        if sign < 0:
            c = -c
        if e in out:
            c += out[e]
        if char:
            c %= char
        if c:
            out[e] = c
        else:
            out.pop(e, None)


class PolyRing:
    """A polynomial ring K[x_0, ..., x_n] with all variables in degree 1."""

    __slots__ = ("field", "vars", "_index")

    def __init__(self, field: Field, names=("X", "Y", "Z")):
        names = tuple(names)
        if not names or len(set(names)) != len(names):
            raise ValueError("variable names must be nonempty and distinct")
        self.field = field
        self.vars = names
        self._index = {v: i for i, v in enumerate(names)}

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def from_terms(self, terms: dict) -> "Poly":
        """Build a Poly, dropping zero coefficients."""
        return Poly(self, {e: c for e, c in terms.items() if c})

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        c = self.field.of(c)
        return Poly(self, {(0,) * self.nvars: c} if c else {})

    def var(self, name: str) -> "Poly":
        if name not in self._index:
            raise ParseError(f"unknown variable {name!r} in ring {self.vars}")
        exp = [0] * self.nvars
        exp[self._index[name]] = 1
        return Poly(self, {tuple(exp): self.field.one})

    def gens(self) -> tuple["Poly", ...]:
        return tuple(self.var(v) for v in self.vars)

    def monomial(self, exp: Exp, c=1) -> "Poly":
        c = self.field.of(c)
        return Poly(self, {tuple(exp): c} if c else {})

    def monomials_of_degree(self, d: int) -> tuple[Exp, ...]:
        """All exponent tuples of total degree d, descending in degrevlex."""
        return _monomials(self.nvars, d)

    def packed_monomials(self, d: int, width: int) -> tuple[int, ...]:
        """`monomials_of_degree(d)` packed by `pack_lex` into fields `width`
        bits wide, in the same order."""
        return _packed_monomials(self.nvars, d, width)

    def parse(self, text: str) -> "Poly":
        return parse_poly(text, self)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.vars == self.vars
        )

    def __hash__(self):
        return hash((self.field, self.vars))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.vars)}]"


class Poly:
    """Immutable sparse polynomial: {exponent tuple: nonzero coefficient}."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- queries -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        return max(sum(e) for e in self.terms) if self.terms else None

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self):
        """Degree if homogeneous (None for zero); raises otherwise."""
        degs = {sum(e) for e in self.terms}
        if len(degs) > 1:
            raise ValidationError(f"polynomial is not homogeneous: {self}")
        return degs.pop() if degs else None

    def coeff(self, exp: Exp):
        return self.terms.get(tuple(exp), self.ring.field.zero)

    def constant_value(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero)

    # -- arithmetic ----------------------------------------------------
    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise ValidationError("polynomials from different rings")

    def __add__(self, other, sign: int = 1):
        if not isinstance(other, Poly):
            other = self.ring.const(other)
        self._check(other)
        out = dict(self.terms)
        _add_terms(out, other.terms, self.ring.field.char, sign)
        return Poly(self.ring, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        neg = self.ring.field.neg
        return Poly(self.ring, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return self.ring.const(other).__sub__(self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        out: dict = {}
        _add_products(out, self.terms, other.terms, self.ring.field.char)
        return Poly(self.ring, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Poly":
        c = self.ring.field.of(c)
        if not c:
            return self.ring.zero()
        mul = self.ring.field.mul
        return Poly(self.ring, {e: mul(v, c) for e, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    __hash__ = None  # mutable-dict payload; equality is structural

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)})"


# ---------------------------------------------------------------------------
# parsing / printing


# Largest degree of a parsed polynomial, and largest exponent.  Factorisations
# of the cubic potentials need degree 3; without a cap, text such as
# "(X+Y+Z)^100000" would keep the parser multiplying for hours.
MAX_PARSE_DEGREE = 24

# Most term products, over every `*` and `^`, that one parse may form: the
# degree cap bounds each power, not their number.  (X+Y+Z+1)^24 needs ~70,000.
MAX_PARSE_PRODUCTS = 100_000

# Deepest nesting of parentheses.  Each level is a few frames of the recursive
# parser, so without a cap deep nesting ends in RecursionError, not ParseError.
MAX_PARSE_DEPTH = 100

# One token per match: an integer, a variable name, an operator (`**` is read
# as `^`) or, in the last group, any other character, which is refused.
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\*\*|[-+*/^()])|(\S))")
_OPS = frozenset("+-*/^()")


def _tokenize(text: str) -> list:
    """The tokens of text: ints, variable names and operator characters."""
    tokens = []
    for num, name, op, stray in _TOKEN.findall(text):
        if num:
            try:
                tokens.append(int(num))
            except ValueError as exc:  # more digits than int() converts
                raise ParseError(str(exc)) from exc
        elif name:
            tokens.append(name)
        elif op:
            tokens.append("^" if op == "**" else op)
        else:
            raise ParseError(f"unexpected character {stray!r} in polynomial")
    return tokens


class _Parser:
    """Recursive descent over the tokens, ending in a None sentinel.

    Every value is a term dict {exponent tuple: nonzero coefficient} that no
    other value shares (x^0 is a new {exp0: one} each time), so a sum adds
    into its first term's dict and a sign or a division scales its dict in
    place.  Products go through _add_products and sums through _add_terms,
    the term loops of Poly arithmetic, so the result's terms come in the
    same order as with Poly operands.  Each product of values with m and n
    terms is charged m·n term products against the budget before it is
    formed, so a nonzero constant or monomial counts 1 and zero 0.
    """

    __slots__ = ("tokens", "i", "ring", "char", "exp0", "one", "budget", "depth")

    def __init__(self, tokens: list, ring: PolyRing):
        self.tokens = tokens + [None]
        self.i = 0
        self.ring = ring
        self.char = ring.field.char
        self.exp0 = (0,) * ring.nvars
        self.one = ring.field.one
        self.budget = MAX_PARSE_PRODUCTS
        self.depth = 0

    def mul(self, v: dict, w: dict) -> dict:
        self.budget -= len(v) * len(w)
        if self.budget < 0:
            raise ParseError(f"polynomial text needs more than {MAX_PARSE_PRODUCTS} term products")
        out: dict = {}
        _add_products(out, v, w, self.char)
        return out

    def scale(self, v: dict, c) -> dict:
        char = self.char
        for e, a in v.items():
            v[e] = a * c % char if char else a * c
        return v

    def expr(self) -> dict:
        v = self.term()
        tokens = self.tokens
        while tokens[self.i] in ("+", "-"):
            sign = -1 if tokens[self.i] == "-" else 1
            self.i += 1
            _add_terms(v, self.term(), self.char, sign)
        return v

    def term(self) -> dict:
        v = self.factor()
        tokens = self.tokens
        while tokens[self.i] in ("*", "/"):
            op = tokens[self.i]
            self.i += 1
            w = self.factor()
            if op == "*":
                if max(map(sum, v), default=0) + max(map(sum, w), default=0) > MAX_PARSE_DEGREE:
                    raise ParseError(f"product of degree above {MAX_PARSE_DEGREE} in polynomial")
                v = self.mul(v, w)
            elif len(w) != 1 or self.exp0 not in w:
                raise ParseError("division only by nonzero constants")
            else:
                c, div = w[self.exp0], self.ring.field.div
                v = {e: div(a, c) for e, a in v.items()}
        return v

    def factor(self) -> dict:
        tokens = self.tokens
        minus = False
        while tokens[self.i] in ("-", "+"):
            minus ^= tokens[self.i] == "-"
            self.i += 1
        v = self.atom()
        if tokens[self.i] == "^":
            n = tokens[self.i + 1]
            self.i += 2
            if type(n) is not int:
                raise ParseError("exponent must be a nonnegative integer")
            if n > MAX_PARSE_DEGREE or max(map(sum, v), default=0) * n > MAX_PARSE_DEGREE:
                raise ParseError(f"power of degree or exponent above {MAX_PARSE_DEGREE} in polynomial")
            # n products from one, each charged as a product
            out = {self.exp0: self.one}
            for _ in range(n):
                out = self.mul(out, v)
            v = out
        return self.scale(v, -1) if minus else v

    def atom(self) -> dict:
        tok = self.tokens[self.i]
        self.i += 1
        if type(tok) is int:
            c = tok % self.char if self.char else tok
            return {self.exp0: c} if c else {}
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_PARSE_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_PARSE_DEPTH} in polynomial")
            v = self.expr()
            if self.tokens[self.i] != ")":
                raise ParseError("unbalanced parentheses")
            self.i += 1
            self.depth -= 1
            return v
        if tok is None or tok in _OPS:
            raise ParseError(f"unexpected token {tok!r} in polynomial")
        index = self.ring._index
        if tok not in index:
            raise ParseError(f"unknown variable {tok!r} in ring {self.ring.vars}")
        exp = list(self.exp0)
        exp[index[tok]] = 1
        return {tuple(exp): self.one}


def parse_poly(text: str, ring: PolyRing) -> Poly:
    """Parse `+ - * / ^`-arithmetic over integers, rationals p/q, and ring variables.

    `^` (or `**`) takes a nonnegative integer exponent and binds tighter than
    a unary sign: -X^2 is -(X^2).  Refused with ParseError: a stray
    character, an unknown variable, division by anything but a nonzero
    constant, a product or power above degree MAX_PARSE_DEGREE, more than
    MAX_PARSE_PRODUCTS term products, nesting deeper than MAX_PARSE_DEPTH.
    Every intermediate value is a term dict on Poly's own term loops, and
    only the result is built as a Poly (see _Parser).  The budget is charged
    as for Poly operands: m·n products for a product of values with m and n
    terms (a nonzero constant or monomial has 1, zero has 0), and v^k as k
    such products starting from one.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    parser = _Parser(tokens, ring)
    terms = parser.expr()
    if parser.i != len(tokens):
        rest = [
            ("int" if type(t) is int else "op" if t in _OPS else "name", t)
            for t in tokens[parser.i:]
        ]
        raise ParseError(f"trailing input after polynomial: {rest}")
    return Poly(ring, terms)


def _format_monomial(ring: PolyRing, exp: Exp) -> str:
    parts = []
    for name, e in zip(ring.vars, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    """Canonical text: terms in descending degrevlex, explicit `*`."""
    if p.is_zero():
        return "0"
    fld = p.ring.field
    out = []
    for exp in sorted(p.terms, key=grevlex_key, reverse=True):
        c = p.terms[exp]
        mono = _format_monomial(p.ring, exp)
        if fld.char == 0 and c < 0:
            sign, mag = "-", -c
        else:
            sign, mag = "+", c
        if not mono:
            body = str(mag)
        elif mag == fld.one:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not out:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f" {sign} {body}")
    return "".join(out)


# ---------------------------------------------------------------------------
# graded matrices


class GradedMatrix:
    """Matrix of homogeneous polynomials between twisted free modules.

    Maps ⊕_j R(-a_j) → ⊕_i R(-b_i); degree-zero iff entry (i, j) is zero or
    homogeneous of degree a_j - b_i.
    """

    __slots__ = ("ring", "target_twists", "source_twists", "entries")

    def __init__(self, ring, target_twists, source_twists, entries):
        self.ring = ring
        self.target_twists = list(target_twists)
        self.source_twists = list(source_twists)
        self.entries = [list(row) for row in entries]
        if len(self.entries) != len(self.target_twists) or any(
            len(row) != len(self.source_twists) for row in self.entries
        ):
            raise ValidationError("matrix shape does not match twist vectors")

    @property
    def rows(self) -> int:
        return len(self.target_twists)

    @property
    def cols(self) -> int:
        return len(self.source_twists)

    @classmethod
    def from_strings(cls, ring, target_twists, source_twists, rows) -> "GradedMatrix":
        entries = [[ring.parse(s) if isinstance(s, str) else s for s in row] for row in rows]
        return cls(ring, target_twists, source_twists, entries)

    @classmethod
    def zero(cls, ring, target_twists, source_twists) -> "GradedMatrix":
        z = ring.zero()
        return cls(
            ring,
            target_twists,
            source_twists,
            [[z for _ in source_twists] for _ in target_twists],
        )

    @classmethod
    def identity(cls, ring, twists) -> "GradedMatrix":
        one, z = ring.one(), ring.zero()
        n = len(twists)
        return cls(ring, twists, twists, [[one if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def scalar(cls, f: Poly, twists) -> "GradedMatrix":
        """f·Id as a degree-zero map ⊕R(-a_j) → ⊕R(-(a_j - deg f))."""
        d = f.homogeneous_degree() or 0
        z = f.ring.zero()
        n = len(twists)
        return cls(
            f.ring,
            [a - d for a in twists],
            list(twists),
            [[f if i == j else z for j in range(n)] for i in range(n)],
        )

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def unit_entry(self) -> tuple[int, int] | None:
        """(i, j) of the first nonzero degree-0 entry in row-major order; in
        a graded matrix such an entry is a unit constant.  None if there is none."""
        for i, t in enumerate(self.target_twists):
            for j, a in enumerate(self.source_twists):
                if a == t and self.entries[i][j].terms:
                    return i, j
        return None

    def split_unit(self, i: int, j: int) -> "GradedMatrix":
        """Split off the trivial summand at the unit entry (i, j).

        The column operations col_k -= g_k·col_j, g_k = entry(i, k)/entry(i, j),
        clear row i; row i and column j are then dropped.
        """
        uinv = self.ring.field.inv(self.entries[i][j].constant_value())
        gs = {k: e.scale(uinv) for k, e in enumerate(self.entries[i]) if k != j and e.terms}
        cleared = [
            [e - gs[k] * row[j] if k in gs and row[j].terms else e for k, e in enumerate(row)]
            for row in self.entries
        ]
        return GradedMatrix(self.ring, self.target_twists, self.source_twists, cleared).delete(i, j)

    def __mul__(self, other: "GradedMatrix") -> "GradedMatrix":
        if self.ring != other.ring:
            raise ValidationError("matrices over different rings")
        if self.cols != other.rows:
            raise ValidationError("matrix shapes do not compose")
        ring = self.ring
        char = ring.field.char
        cols = [[e.terms for e in col] for col in zip(*other.entries)] or [()] * other.cols
        out = []
        for row in self.entries:
            nonzero = [(j, e.terms) for j, e in enumerate(row) if e.terms]
            out_row = []
            for col in cols:
                acc: dict = {}
                for j, t in nonzero:
                    if col[j]:
                        _add_products(acc, t, col[j], char)
                out_row.append(Poly(ring, acc))
            out.append(out_row)
        return GradedMatrix(ring, self.target_twists, other.source_twists, out)

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValidationError("matrix shapes do not match")
        return GradedMatrix(
            self.ring,
            self.target_twists,
            self.source_twists,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __neg__(self) -> "GradedMatrix":
        return GradedMatrix(
            self.ring,
            self.target_twists,
            self.source_twists,
            [[-e for e in row] for row in self.entries],
        )

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        return self.__add__(other.__neg__())

    def __eq__(self, other):
        return (
            isinstance(other, GradedMatrix)
            and other.ring == self.ring
            and other.target_twists == self.target_twists
            and other.source_twists == self.source_twists
            and other.entries == self.entries
        )

    __hash__ = None

    def same_entries(self, other: "GradedMatrix") -> bool:
        """Entrywise equality, ignoring twist vectors."""
        return self.entries == other.entries

    def transpose_entries(self, target_twists, source_twists) -> "GradedMatrix":
        return GradedMatrix(
            self.ring,
            target_twists,
            source_twists,
            [[self.entries[j][i] for j in range(self.rows)] for i in range(self.cols)],
        )

    def retwist(self, n: int) -> "GradedMatrix":
        """Apply the twist functor (n): same entries, all twists lowered by n."""
        return GradedMatrix(
            self.ring,
            [b - n for b in self.target_twists],
            [a - n for a in self.source_twists],
            self.entries,
        )

    def with_twists(self, target_twists, source_twists) -> "GradedMatrix":
        return GradedMatrix(self.ring, target_twists, source_twists, self.entries)

    def delete(self, row: int, col: int) -> "GradedMatrix":
        return GradedMatrix(
            self.ring,
            [b for i, b in enumerate(self.target_twists) if i != row],
            [a for j, a in enumerate(self.source_twists) if j != col],
            [
                [e for j, e in enumerate(r) if j != col]
                for i, r in enumerate(self.entries)
                if i != row
            ],
        )

    @classmethod
    def block(cls, rows_of_blocks) -> "GradedMatrix":
        """Assemble from a 2D grid of GradedMatrix blocks (twists concatenate)."""
        ring = rows_of_blocks[0][0].ring
        target = [b for row in rows_of_blocks for b in row[0].target_twists]
        source = [a for blk in rows_of_blocks[0] for a in blk.source_twists]
        entries = []
        for row in rows_of_blocks:
            for i in range(row[0].rows):
                entries.append([e for blk in row for e in blk.entries[i]])
        return cls(ring, target, source, entries)

    def det(self) -> Poly:
        """Determinant by cofactor expansion (small matrices only)."""
        n = self.rows
        if n != self.cols:
            raise ValidationError("determinant of a non-square matrix")
        if n == 0:
            return self.ring.one()
        if n == 1:
            return self.entries[0][0]
        acc = self.ring.zero()
        for j in range(n):
            e = self.entries[0][j]
            if e.is_zero():
                continue
            minor = GradedMatrix(
                self.ring,
                self.target_twists[1:],
                self.source_twists[:j] + self.source_twists[j + 1 :],
                [row[:j] + row[j + 1 :] for row in self.entries[1:]],
            )
            term = e * minor.det()
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return (
            f"GradedMatrix({self.target_twists} <- {self.source_twists}: [{body}])"
        )


def graded_inverse(mat: GradedMatrix) -> GradedMatrix | None:
    """Inverse of a square degree-zero map, or None if it is not invertible.

    Graded Nakayama: with C the constant part (the entries between equal
    twists) and N = mat − C, mat is invertible iff C is, and then
    mat⁻¹ = Σ_k (−C⁻¹N)^k·C⁻¹, a finite sum because C⁻¹N strictly raises
    degree.
    """
    ring, fld = mat.ring, mat.ring.field
    src, tgt = mat.source_twists, mat.target_twists
    if len(src) != len(tgt):
        return None
    const, rest = [], []
    for b, row in zip(tgt, mat.entries):
        const.append([e.constant_value() if a == b else fld.zero for a, e in zip(src, row)])
        rest.append([ring.zero() if a == b else e for a, e in zip(src, row)])
    cinv = inverse(const, fld)
    if cinv is None:
        return None
    out = term = GradedMatrix(ring, src, tgt, [[ring.const(c) for c in row] for row in cinv])
    step = -(term * GradedMatrix(ring, tgt, src, rest))
    # a product of k factors C⁻¹N joins k + 1 strictly rising twists, so the
    # terms vanish after at most n - 1 steps
    for _ in src:
        term = step * term
        if term.is_zero():
            break
        out = out + term
    return out


def validate_graded_matrix(M: GradedMatrix) -> list[tuple[int, int, str]]:
    """Report (row, col, message) for every entry violating the grading."""
    bad = []
    for i in range(M.rows):
        for j in range(M.cols):
            e = M.entries[i][j]
            if e.is_zero():
                continue
            want = M.source_twists[j] - M.target_twists[i]
            degs = {sum(exp) for exp in e.terms}
            if len(degs) > 1:
                bad.append((i, j, f"entry ({i},{j}) is not homogeneous: {e}"))
            else:
                (d,) = degs
                if d != want:
                    bad.append((i, j, f"entry ({i},{j}) has degree {d}, expected {want}"))
    return bad


def assert_graded(M: GradedMatrix, what: str = "matrix") -> None:
    bad = validate_graded_matrix(M)
    if bad:
        raise ValidationError(f"{what} fails grading: " + "; ".join(m for _, _, m in bad))
