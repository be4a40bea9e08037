"""Exact arithmetic over the Gaussian rationals Q(i) and exact dense linear algebra.

Everything in this package computes over Q(i).  A number (a + b*i)/d is
stored as three arbitrary-precision ints in canonical form, d > 0 and
gcd(a, b, d) == 1, so equality compares three ints and each field operation
costs a few integer products and one gcd.  Matrices are row-major tables of
numbers, and all eliminations use the canonical first-nonzero pivot so
results are reproducible byte for byte.  There is no floating point anywhere.
"""

import re as _re
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm


class ScalarError(Exception):
    """Invalid scalar operation: division by zero or an unparseable literal."""


class LiteralTooLongError(ScalarError):
    """A rational literal with a digit string over MAX_DIGITS digits; a
    record reader names the field that held it."""


class ContractError(Exception):
    """A documented precondition was violated (e.g. non-Hermitian input)."""


class TheoremViolationError(Exception):
    """An internal consistency guarantee failed (bug signal, not a data state)."""


_new = object.__new__


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ScalarError("rational component must be int or Fraction, got %r" % (x,))


# the most digits a digit string of a literal may have: the interpreter's
# default limit for int(), checked here so that what parses does not depend
# on the interpreter's setting
MAX_DIGITS = 4300

_RAT = r"\d+(?:/\d+)?"
# "a", "a+b i" or "b i" with a, b signed rationals; b may be left out of
# "+i", "-i" and "i".  The three forms are disjoint, so one match says which
_LITERAL = _re.compile(r"(?P<re>[+-]?%s)(?:(?P<im>[+-](?:%s)?)i)?|(?P<imag>[+-]?(?:%s)?)i"
                       % (_RAT, _RAT, _RAT))
_DIGITS = _re.compile(r"\d+")


def _ratio(part, text):
    """(numerator, denominator) of a signed rational literal "a" or "a/q",
    read as ints; ScalarError naming text for a zero denominator."""
    num, _, den = part.partition("/")
    num = int(num)
    den = int(den) if den else 1
    if not den:
        raise ScalarError("zero denominator in %r" % text)
    return num, den


def from_triple(a, b, d):
    """The GaussRat (a + b*i)/d for ints a, b and d > 0, reduced by gcd(a, b, d).

    With triple(z), the way out of and back into Q(i) for a kernel that sums
    Gaussian-integer numerators over one common denominator and reduces each
    result once."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(GaussRat)
    z._a = a
    z._b = b
    z._d = d
    return z


class GaussRat:
    """An exact element (a + b*i)/d of Q(i), stored as three ints.

    The triple is canonical: d > 0 and gcd(a, b, d) == 1, so two elements are
    equal exactly when their triples are.  The triple is private to this
    module: triple(z) reads it and from_triple(a, b, d) rebuilds a number
    from one.  .re and .im give the components as reduced Fractions, and
    real_part()/imag_part() give them as GaussRat without building a Fraction.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a = re
            self._b = im
            self._d = 1
            return
        re = _frac(re)
        im = _frac(im)
        q = re.denominator
        s = im.denominator
        # the lcm of two reduced denominators leaves nothing to cancel
        d = q // gcd(q, s) * s
        self._a = re.numerator * (d // q)
        self._b = im.numerator * (d // s)
        self._d = d

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    def real_part(self):
        """Re(z) as a GaussRat."""
        return from_triple(self._a, 0, self._d)

    def imag_part(self):
        """Im(z) as a GaussRat."""
        return from_triple(self._b, 0, self._d)

    # -- parsing / formatting -------------------------------------------------

    @classmethod
    def parse(cls, text):
        """Parse "a/b" with optional "+c/d i" imaginary part, e.g. "-3/4+1/2i".

        Whitespace-insensitive; accepts the unicode minus sign.  Zero
        denominators and non-rational syntax raise ScalarError, and a digit
        string over MAX_DIGITS digits raises LiteralTooLongError before int()
        reads it.  The text is matched by one pattern as it stands, and only
        a text that fails is cleared of whitespace and unicode minus signs
        and matched again: the pattern holds neither, so a text that matches
        as it stands is already clear.  The digit strings are read by int()
        straight into one canonical triple.
        """
        if not isinstance(text, str):
            raise ScalarError("rational literal must be a string, got %r" % (text,))
        literal = text
        m = _LITERAL.fullmatch(literal)
        if m is None:
            literal = "".join(text.split()).replace("−", "-")
            m = _LITERAL.fullmatch(literal)
            if m is None:
                raise ScalarError("cannot parse rational literal %r" % text)
        if len(literal) > MAX_DIGITS and any(len(run) > MAX_DIGITS for run in _DIGITS.findall(literal)):
            raise LiteralTooLongError("rational literal has a digit string over %d digits" % MAX_DIGITS)
        re, im, imag = m.groups()
        a, q = _ratio(re, text) if re is not None else (0, 1)
        if imag is not None:
            im = imag
        if im is None:
            b, s = 0, 1
        elif im in ("", "+"):
            b, s = 1, 1
        elif im == "-":
            b, s = -1, 1
        else:
            b, s = _ratio(im, text)
        # a/q + (b/s) i = (a s + b q i)/(q s)
        return from_triple(a * s, b * q, q * s)

    def __str__(self):
        def rat(f):
            return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)

        re, im = self.re, self.im
        if not im:
            return rat(re)
        if im == 1:
            imag = "i"
        elif im == -1:
            imag = "-i"
        else:
            imag = rat(im) + "i"
        if not re:
            return imag
        sign = "+" if im > 0 else ""
        return rat(re) + sign + imag

    def __repr__(self):
        return "GaussRat(%s)" % self

    # -- field operations -----------------------------------------------------

    def __add__(self, other):
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            return from_triple(a + c, b + e, d)
        return from_triple(a * f + c * d, b * f + e * d, d * f)

    def __sub__(self, other):
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            return from_triple(a - c, b - e, d)
        return from_triple(a * f - c * d, b * f - e * d, d * f)

    def __mul__(self, other):
        a, b = self._a, self._b
        c, e = other._a, other._b
        return from_triple(a * c - b * e, a * e + b * c, self._d * other._d)

    def __truediv__(self, other):
        c, e = other._a, other._b
        n = c * c + e * e
        if not n:
            raise ScalarError("division by zero in Q(i)")
        a, b, f = self._a, self._b, other._d
        return from_triple((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __neg__(self):
        z = _new(GaussRat)
        z._a = -self._a
        z._b = -self._b
        z._d = self._d
        return z

    def conjugate(self):
        z = _new(GaussRat)
        z._a = self._a
        z._b = -self._b
        z._d = self._d
        return z

    def inverse(self):
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise ScalarError("division by zero in Q(i)")
        return from_triple(a * d, -b * d, n)

    def __eq__(self, other):
        return (
            isinstance(other, GaussRat)
            and self._a == other._a
            and self._b == other._b
            and self._d == other._d
        )

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    @property
    def is_real(self):
        return self._b == 0

    def real_sign(self):
        """Sign (-1, 0, 1) of a real element; error on a non-real one."""
        if self._b:
            raise ContractError("real_sign of a non-real scalar %s" % self)
        return (self._a > 0) - (self._a < 0)


ZERO = GaussRat(0)
ONE = GaussRat(1)
I_UNIT = GaussRat(0, 1)
MINUS_ONE = GaussRat(-1)


def triple(z):
    """The canonical triple (a, b, d) of z = (a + b*i)/d: d > 0, gcd(a, b, d) == 1."""
    return z._a, z._b, z._d


def from_parts(re, im):
    """Re(re) + i*Re(im) as one GaussRat: two real coordinates rejoined."""
    a, d = re._a, re._d
    c, f = im._a, im._d
    if d == f:
        return from_triple(a, c, d)
    return from_triple(a * f, c * d, d * f)


# ---------------------------------------------------------------------------
# Matrices and vectors.  Vectors are plain tuples of GaussRat.
# ---------------------------------------------------------------------------


class Matrix:
    """Immutable dense matrix over Q(i), row-major."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, rows):
        rows = tuple(tuple(e for e in row) for row in rows)
        if not rows:
            raise ContractError("matrix needs at least one row")
        width = len(rows[0])
        if width == 0 or any(len(r) != width for r in rows):
            raise ContractError("ragged or empty matrix rows")
        for row in rows:
            for e in row:
                if not isinstance(e, GaussRat):
                    raise ContractError("matrix entries must be GaussRat")
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", width)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def to_strings(self):
        return [[str(e) for e in row] for row in self.data]

    def entry(self, i, j):
        return self.data[i][j]

    def col(self, j):
        return tuple(r[j] for r in self.data)

    def rows_list(self):
        return [list(r) for r in self.data]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __add__(self, other):
        return _trusted_matrix(tuple(tuple([a + b for a, b in zip(r, s)])
                                     for r, s in zip(self.data, other.data)))

    def __sub__(self, other):
        return _trusted_matrix(tuple(tuple([a - b for a, b in zip(r, s)])
                                     for r, s in zip(self.data, other.data)))

    def __neg__(self):
        return _trusted_matrix(tuple(tuple([-a for a in r]) for r in self.data))

    def scale(self, c):
        return _trusted_matrix(tuple(tuple([c * a for a in r]) for r in self.data))

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ContractError("matmul dimension mismatch")
        # row-sparse: row r of the product is the sum of a * (row k of other)
        # over the nonzero a = self[r][k], each row k read at its nonzeros
        rows = [[(t, b) for t, b in enumerate(row) if b] for row in other.data]
        out = []
        for r in self.data:
            acc = [ZERO] * other.ncols
            for a, row in zip(r, rows):
                if a:
                    for t, b in row:
                        acc[t] = acc[t] + a * b
            out.append(tuple(acc))
        return _trusted_matrix(tuple(out))

    def transpose(self):
        return _trusted_matrix(tuple([self.col(j) for j in range(self.ncols)]))

    def conj(self):
        return _trusted_matrix(tuple(tuple([a.conjugate() for a in r]) for r in self.data))

    def hermitian_transpose(self):
        return self.transpose().conj()

    def is_zero(self):
        return all(not e for r in self.data for e in r)

    def __repr__(self):
        return "Matrix(%s)" % (self.to_strings(),)


def _trusted_matrix(rows):
    """The Matrix of rows that are already a nonempty tuple of equal-width,
    nonempty tuples of GaussRat, as internal results are: Matrix(rows) checks
    every entry of outside input, this skips the checks."""
    m = _new(Matrix)
    object.__setattr__(m, "nrows", len(rows))
    object.__setattr__(m, "ncols", len(rows[0]))
    object.__setattr__(m, "data", rows)
    return m


def mat_vec(m, v):
    """Matrix times column vector (tuple in, tuple out), column by column over
    the nonzero entries of v."""
    if m.ncols != len(v):
        raise ContractError("mat_vec dimension mismatch")
    return lincomb(((b, enumerate(m.col(k))) for k, b in enumerate(v) if b), m.nrows)


def lincomb(terms, n):
    """sum c v over the (c, v) of terms, each v as (position, entry) pairs."""
    out = [ZERO] * n
    for c, v in terms:
        for p, x in v:
            if x:
                out[p] = out[p] + c * x
    return tuple(out)


def _dict_neg(d):
    return {k: -v for k, v in d.items()}


def _add_into(acc, v, f=ONE):
    """acc += f * v on dicts of nonzero coordinates, in place, dropping zeros; returns acc."""
    for k, c in v.items():
        val = acc.get(k, ZERO) + f * c
        if val:
            acc[k] = val
        elif k in acc:
            del acc[k]
    return acc


def vec_conj(v):
    return tuple(a.conjugate() for a in v)


def vec_is_zero(v):
    return all(not a for a in v)


def unit_vec(n, k):
    return tuple(ONE if i == k else ZERO for i in range(n))


# ---------------------------------------------------------------------------
# Elimination.  All pivots are the first nonzero entry in column order, so
# every result below is deterministic for a fixed input.
# ---------------------------------------------------------------------------


def rank_kernel(m):
    """Exact rank, kernel basis and pivot columns of a matrix.

    The kernel basis is the reduced-echelon parametrization: one vector per
    free column f, with a 1 in position f and the negated pivot-row entries
    above it.  rank + len(kernel) == ncols always.
    """
    rows, pivots = _rref_of(m.data)
    rank = len(pivots)
    pivot_set = set(pivots)
    kernel = []
    for f in range(m.ncols):
        if f in pivot_set:
            continue
        v = [ZERO] * m.ncols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        kernel.append(tuple(v))
    return rank, kernel, pivots


# a prime = 1 (mod 4) and a square root IOTA of -1 modulo it: a + bi ->
# a + b*IOTA is a ring map Z[i] -> F_P, so a residue is one int
MODULUS = 2 ** 61 - 31
IOTA = 583529827753931384


def residues(values):
    """The values times the lcm of their denominators, Gaussian integers,
    sent into F_P, P = MODULUS, by a + bi -> a + b*IOTA.

    That is a ring map on Z[i], so an integer polynomial in the scaled
    values that vanishes has a zero residue too: a nonzero residue proves
    it nonzero, even when P divides a denominator."""
    values = list(values)
    den = lcm(*(z._d for z in values))
    p = MODULUS
    return [(z._a + z._b * IOTA) * (den // z._d) % p for z in values]


def modular_rank(rows, target):
    """The rank of the rows modulo P = MODULUS, read until it reaches target.

    Each row is reduced by residues, so the result never exceeds the rank
    over Q(i), even when P divides a denominator."""
    p = MODULUS
    tails = {}  # pivot c -> its row from c on, leading with 1
    for row in rows if target else ():
        if not any(row):
            continue
        v = residues(row)
        for c in sorted(tails):
            f = v[c] % p  # v is reduced only here and at the end
            if f:
                v[c:] = [x - f * a for x, a in zip(v[c:], tails[c])]
        lead = next((c for c, x in enumerate(v) if x % p), None)
        if lead is None:
            continue
        u = pow(v[lead], -1, p)
        tails[lead] = [x * u % p for x in v[lead:]]
        if len(tails) == target:
            break
    return len(tails)


def solve_linear(m, b):
    """Solve m @ x = b exactly; returns the tuple x or None when inconsistent.

    Underdetermined systems get the canonical solution with zeros in all
    non-pivot coordinates.
    """
    if m.nrows != len(b):
        raise ContractError("solve_linear: matrix/vector size mismatch")
    rows, pivots = _rref_of(r + (be,) for r, be in zip(m.data, b))
    if m.ncols in pivots:
        return None
    x = [ZERO] * m.ncols
    for i, p in enumerate(pivots):
        x[p] = rows[i][m.ncols]
    return tuple(x)


def inverse(m):
    """Exact inverse of a square matrix; ContractError if singular."""
    if m.nrows != m.ncols:
        raise ContractError("inverse of a non-square matrix")
    n = m.nrows
    rows, pivots = _rref_of(r + unit_vec(n, i) for i, r in enumerate(m.data))
    # [m | I] always has rank n; m is singular iff a pivot falls in the I half
    if pivots[-1] >= n:
        raise ContractError("matrix is singular")
    return _trusted_matrix(tuple(tuple(row[n:]) for row in rows))


def hermitian_inertia(h):
    """Exact Sylvester inertia (positive, negative, null) of a Hermitian matrix.

    Recursive congruence pivoting over Q(i): split off a nonzero diagonal
    entry when one exists; when the whole diagonal vanishes, a nonzero
    off-diagonal pair is first mixed onto the diagonal by the elementary
    congruence e_j -> e_j + e_i (or e_j + i*e_i when the real part of the
    hyperbolic entry vanishes).  No eigenvalues, no square roots.
    """
    if h.nrows != h.ncols:
        raise ContractError("inertia needs a square matrix")
    if h != h.hermitian_transpose():
        raise ContractError("matrix is not Hermitian")
    rows = h.rows_list()
    live = list(range(h.nrows))
    pos = neg = 0

    def congruence_mix(i, j, c):
        # col_j += c * col_i, then row_j += conj(c) * row_i
        for k in live:
            rows[k][j] = rows[k][j] + c * rows[k][i]
        cc = c.conjugate()
        for k in live:
            rows[j][k] = rows[j][k] + cc * rows[i][k]

    while live:
        pivot = None
        for i in live:
            if rows[i][i]:
                pivot = i
                break
        if pivot is None:
            off = None
            for a in range(len(live)):
                for b in range(a + 1, len(live)):
                    i, j = live[a], live[b]
                    if rows[i][j]:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                break  # remaining block is zero: all null
            i, j = off
            if rows[i][j].real_part():
                congruence_mix(i, j, ONE)
            else:
                congruence_mix(i, j, I_UNIT)
            continue
        d = rows[pivot][pivot]
        if not d.is_real:
            raise ContractError("Hermitian matrix with non-real diagonal")
        if d.real_sign() > 0:
            pos += 1
        else:
            neg += 1
        live.remove(pivot)
        inv = d.inverse()
        pivot_row = {l: rows[pivot][l] for l in live}
        factors = {k: rows[k][pivot] * inv for k in live}
        for k in live:
            f = factors[k]
            if not f:
                continue
            for l in live:
                if pivot_row[l]:
                    rows[k][l] = rows[k][l] - f * pivot_row[l]
    return pos, neg, h.nrows - pos - neg


def _pivots(rows):
    return [next((c for c, e in enumerate(row) if e), None) for row in rows]


def is_rref(rows):
    """True iff the rows are in reduced row echelon form, as echelon_basis
    returns them: equal lengths, each row leads with a 1, the pivot columns
    increase, and every other row is zero in each pivot column."""
    if any(len(row) != len(rows[0]) for row in rows):
        return False
    pivots = _pivots(rows)
    for i, (row, p) in enumerate(zip(rows, pivots)):
        if (p is None or row[p] != ONE or (i and p <= pivots[i - 1])
                or any(other[p] for k, other in enumerate(rows) if k != i)):
            return False
    return True


class SpanSolver:
    """Coordinates of vectors in a canonical RREF basis, read off its pivots.

    The basis rows must satisfy is_rref.  Then t = sum c_i B_i forces
    c_i = t[pivot_i], so coords(t) reads those entries and only checks that
    the remainder vanishes.  No elimination is done.
    """

    def __init__(self, basis_rows):
        self.basis = [tuple(r) for r in basis_rows]
        self.dim = len(self.basis)
        if not is_rref(self.basis):
            raise ContractError("SpanSolver needs reduced row echelon rows")
        self.pivots = _pivots(self.basis)

    def coords(self, t):
        """Coordinates of t in the basis, or None if t is outside the span."""
        c = tuple(t[p] for p in self.pivots)
        return c if vec_is_zero(_reduce(self.basis, self.pivots, list(t))) else None


def _reduce(rows, pivots, v):
    """The list v reduced in place by the RREF rows with the given pivot
    columns: each row clears its own pivot column of v and touches no other,
    so v comes back zero exactly when it lies in the span of the rows."""
    for row, p in zip(rows, pivots):
        f = v[p]
        if f:
            for c in range(p, len(v)):
                if row[c]:
                    v[c] = v[c] - f * row[c]
    return v


def extend_rref(rows, pivots, v):
    """Extend a canonical RREF in place by the vector v; True iff it grew.

    rows are the RREF rows as lists and pivots their pivot columns.  v is
    reduced by the rows, and a nonzero remainder is scaled to lead with 1,
    cleared from the other rows in its pivot column (touching only its own
    nonzero columns) and inserted in pivot order.  The result is the
    canonical RREF of the span of rows + [v], without eliminating the rows
    again.  This is the one row-reduction kernel: every RREF in hksym is
    grown by it.
    """
    v = _reduce(rows, pivots, list(v))
    lead = next((c for c, e in enumerate(v) if e), None)
    if lead is None:
        return False
    inv = v[lead].inverse()
    new = [inv * e if e else e for e in v]
    nonzero = [(c, e) for c, e in enumerate(new) if e]
    for row in rows:
        f = row[lead]
        if f:
            for c, e in nonzero:
                row[c] = row[c] - f * e
    at = bisect_left(pivots, lead)
    rows.insert(at, new)
    pivots.insert(at, lead)
    return True


def _rref_of(vectors):
    """(rows, pivots) of the canonical RREF of the span of vectors, built by
    extend_rref one vector at a time; zero and dependent vectors add nothing."""
    rows, pivots = [], []
    for v in vectors:
        extend_rref(rows, pivots, v)
    return rows, pivots


def echelon_basis(vectors):
    """Canonical RREF basis of the span of the given row vectors."""
    return [tuple(row) for row in _rref_of(vectors)[0]]
