"""Symmetric tensors S^dE as homogeneous polynomials, omega-contractions, the
sp(E) = S^2E identification, the derivation action, supports and the real
structure tau.

A tensor is stored as a multi-index coefficient table: the monomial alpha
stands for the product of basis "coordinate" functions e_k^alpha_k on E^*.
The three pinned conventions everything else hangs on:

* p_q = <p, omega q> = omega(q, p) = -1  (pairing direction),
* T_x = (1/d) * directional derivative of T along omega(x, .), so that
  S_{p,q} = -(1/4) mu p^2 for S = p^3(lambda p + mu q + w0) + p^2 B + pC + D,
* a quadratic B acts as the endomorphism x -> B_x, and A in sp(E) acts on
  tensors as MINUS the derivation extending A, so that
  pq . (lambda p^4 + mu p^3 q) = -2 lambda p^4 - mu p^3 q.

With these, omega_flat(e_k) = w_k e_k' for the omega-dual index k' (p_a and
q_a are dual) and w = +1 on p, -1 on q, so a double contraction of a quartic
against basis vectors is read straight off its coefficients:
  S_{e_k,e_l} = (1/12) w_k w_l d_k' d_l' S,
and, as an endomorphism,
  S_{e_k,e_l}[i][m] = w_k w_l w_m T_{i m' k' l'},  T_alpha = (alpha!/4!) S_alpha,
with T the symmetric coefficient tensor of S (S = sum T_abcd x_a x_b x_c x_d).
The table of all S_{e_k,e_l} is thus S's middle catalecticant up to these
signs, and h = span{S_{e,e'}} is its row space.  Likewise, in degree d and
with T_alpha = (alpha!/d!) t_alpha, the (d - 1)-fold contractions against
basis vectors, which span the support, are up to factors and order the
vectors (T_{beta+e_i})_i, |beta| = d - 1 (support_columns).  An A in sp(E)
is the quadratic B with A[i][m] = w_m M_{i m'} (M the symmetric matrix of
B), so its S^2E coordinate at e_a e_b (a <= b) sits at (a, b') and again,
times w_a w_b, at (b, a').  hksym holds an element of sp(E) as the tuple of
these coordinates, and only this module knows their layout: s2e_matrix
writes one out as a matrix by sign flips, s2e_coords reads them off B, and j
acts as tau, j A_B j^-1 = A_{tau B}, on them as s2e_tau(j).
in_frame(t, P) writes t in the coordinates of a Darboux frame P = (f, g),
refusing a t outside S^d(span f); aut(S) reads it.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, compress, product
from math import lcm
from operator import mul

from .exactnum import (
    ContractError,
    GaussRat,
    LiteralTooLongError,
    MODULUS,
    ONE,
    ZERO,
    _add_into,
    _trusted_matrix,
    from_triple,
    inverse,
    residues,
    triple,
)
from .symplectic import (
    SymplecticSpace,
    check_size,
    omega_flat,
    omega_perp,
    record_fields,
    record_int,
    span,
)

_HALF = GaussRat(Fraction(1, 2))


class SymTensor:
    """Homogeneous degree-d element of S^dE as a sparse multi-index table.

    The constructor drops zero coefficients, so builders may accumulate into
    a plain dict and leave cancelled entries in it.
    """

    __slots__ = ("space", "degree", "coeffs")

    def __init__(self, space, degree, coeffs):
        if degree < 0:
            raise ContractError("degree must be nonnegative")
        clean = {}
        for alpha, c in coeffs.items():
            if len(alpha) != space.dim or any(a < 0 for a in alpha):
                raise ContractError("bad multi-index %r" % (alpha,))
            if sum(alpha) != degree:
                raise ContractError("multi-index %r has degree != %d" % (alpha, degree))
            if c:
                clean[tuple(alpha)] = c
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SymTensor is immutable")

    @classmethod
    def zero(cls, space, degree):
        return cls(space, degree, {})

    @classmethod
    def monomial(cls, space, alpha, coeff=ONE):
        return cls(space, sum(alpha), {tuple(alpha): coeff})

    @classmethod
    def linear(cls, space, vector):
        """The vector v as the degree-1 polynomial sum v_k e_k."""
        coeffs = {}
        for k, c in enumerate(vector):
            if c:
                alpha = [0] * space.dim
                alpha[k] = 1
                coeffs[tuple(alpha)] = c
        return cls(space, 1, coeffs)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, SymTensor)
            and self.space == other.space
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.space, self.degree, tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0]))))

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, ZERO) + c
        return SymTensor(self.space, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SymTensor(self.space, self.degree, {a: -c for a, c in self.coeffs.items()})

    def scale(self, c):
        if not c:
            return SymTensor.zero(self.space, self.degree)
        return SymTensor(self.space, self.degree, {a: c * v for a, v in self.coeffs.items()})

    def __mul__(self, other):
        """Polynomial product (symmetric product of tensors)."""
        if self.space != other.space:
            raise ContractError("tensor product across different spaces")
        out = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, ZERO) + ca * cb
        return SymTensor(self.space, self.degree + other.degree, out)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ContractError("tensor power needs a nonnegative int")
        result = SymTensor.monomial(self.space, (0,) * self.space.dim)
        for _ in range(k):
            result = result * self
        return result

    def _check_compatible(self, other):
        if self.space != other.space or self.degree != other.degree:
            raise ContractError("tensors live in different S^dE")

    def __repr__(self):
        if not self.coeffs:
            return "SymTensor(0; degree %d)" % self.degree
        labels = self.space.basis_labels
        parts = []
        for alpha in sorted(self.coeffs, reverse=True):
            mono = "*".join(
                (labels[k] if e == 1 else "%s^%d" % (labels[k], e))
                for k, e in enumerate(alpha)
                if e
            ) or "1"
            parts.append("(%s)*%s" % (self.coeffs[alpha], mono))
        return " + ".join(parts)


def _trusted_tensor(space, degree, coeffs):
    """The SymTensor of a table that already holds only nonzero coefficients
    at tuple multi-indices of length dim E and sum degree, as a checked
    record does: SymTensor(...) checks every multi-index, this skips the
    checks."""
    t = object.__new__(SymTensor)
    object.__setattr__(t, "space", space)
    object.__setattr__(t, "degree", degree)
    object.__setattr__(t, "coeffs", coeffs)
    return t


def contract(t, x):
    """omega-contraction T_x = (1/d) * d_{omega x} T, a tensor of degree d-1."""
    if t.degree < 1:
        raise ContractError("cannot contract a degree-0 tensor")
    sp = t.space
    if len(x) != sp.dim:
        raise ContractError("vector length does not match dim E = %d" % sp.dim)
    # d_{omega x} e_k = omega(x, e_k)
    w = omega_flat(tuple(x))
    inv_d = GaussRat(Fraction(1, t.degree))
    out = {}
    for alpha, c in t.coeffs.items():
        for k, e in enumerate(alpha):
            if not e or not w[k]:
                continue
            key = alpha[:k] + (e - 1,) + alpha[k + 1:]
            out[key] = out.get(key, ZERO) + GaussRat(e) * w[k] * c
    return SymTensor(sp, t.degree - 1, out).scale(inv_d)


def endo_of_quadratic(b):
    """The endomorphism x -> B_x attached to a quadratic B under sp(E) = S^2E.

    With B = sum M_ij e_i e_j, M symmetric, B_x = M omega_flat(x), whose i-th
    coordinate is omega(x, M_i) = omega_flat(-M_i) . x; that is the matrix
    s2e_matrix writes out from B's S^2E coordinates.
    """
    if b.degree != 2:
        raise ContractError("endo_of_quadratic needs degree 2")
    return s2e_matrix(s2e_coords(b), b.space.dim)


def is_in_sp(space, a):
    """True iff omega(Ax, y) + omega(x, Ay) = 0 exactly, i.e. iff the form
    (x, y) -> omega(Ax, y) is symmetric: omega_flat(A e_k)_l is symmetric in k, l."""
    if a.nrows != space.dim or a.ncols != space.dim:
        raise ContractError("endomorphism has wrong size")
    rows = [omega_flat(a.col(k)) for k in range(space.dim)]
    return all(rows[k][l] == rows[l][k] for k in range(space.dim) for l in range(k + 1, space.dim))


def sp_action(a, t):
    """Action of A in sp(E) on a tensor: minus the derivation extending A.

    On a monomial: A . e^alpha = - sum_k alpha_k A_{lk} e^(alpha - e_k + e_l).
    This is the sign that makes the pinned family identities hold:
    pq . (lambda p^4 + mu p^3 q) = -2 lambda p^4 - mu p^3 q and
    p^2 . S = mu p^4.

    The sum runs in Gaussian-integer numerators: t's coefficients and A's
    entries are each put over a common denominator (_over_lcms), each term
    e c A_lk is added into integer (re, im) sums keyed by the output monomial
    (its exponents as base degree + 1 digits), and each sum is reduced once.
    Denominators too far apart for one lcm get their own sums, which are
    added as GaussRat at the end.
    """
    space = t.space
    if not is_in_sp(space, a):
        raise ContractError("endomorphism is not in sp(E)")
    dim = space.dim
    base = t.degree + 1
    powers = [base ** k for k in range(dim)]
    t_lcms, t_nums = _over_lcms(t.coeffs.values())
    a_lcms, a_nums = _over_lcms([e for row in a.data for e in row])
    # a sum's key is (code * len(t_lcms) + t's class) * len(a_lcms) + A's class
    na = len(a_lcms)
    width = len(t_lcms) * na
    # column k of A as (key shift from e_k to e_l, re, im) over its nonzeros
    cols = [[] for _ in range(dim)]
    for at, (j, x, y) in enumerate(a_nums):
        if x or y:
            l, k = divmod(at, dim)
            cols[k].append(((powers[l] - powers[k]) * width + j, x, y))
    re_sums, im_sums = {}, {}
    for alpha, (i, x, y) in zip(t.coeffs, t_nums):
        start = sum(map(mul, alpha, powers)) * width + i * na
        for k, e in enumerate(alpha):
            if e:
                ex, ey = e * x, e * y
                for shift, ar, ai in cols[k]:
                    key = start + shift
                    re_sums[key] = re_sums.get(key, 0) + ex * ar - ey * ai
                    im_sums[key] = im_sums.get(key, 0) + ex * ai + ey * ar
    coeffs = {}
    for key, re in re_sums.items():
        im = im_sums[key]
        if re or im:
            code, cls = divmod(key, width)
            i, j = divmod(cls, na)
            c = from_triple(-re, -im, t_lcms[i] * a_lcms[j])
            alpha = _exponents(code, base, dim)
            coeffs[alpha] = coeffs[alpha] + c if alpha in coeffs else c
    return SymTensor(space, t.degree, coeffs)


def _over_lcms(values):
    """(lcms, [(j, a, b), ...]): each value as the Gaussian-integer numerator
    a + b*i over lcms[j], the lcm of the denominators of its class.

    The values are taken in order, and one joins the current class unless
    that would take the class's lcm past twice the bit length of its largest
    denominator plus 64 bits.  Denominators that share their primes, as those
    of every generated quartic and of its table entries do, make one class;
    independent large denominators start new classes, so that no numerator
    grows far beyond the heights of the values.
    """
    triples = [triple(z) for z in values]
    lcms, classes, top = [1], [], 0
    for _, _, d in triples:
        if lcms[-1] % d:
            grown = lcm(lcms[-1], d)
            top = max(top, d.bit_length())
            if grown.bit_length() <= 2 * top + 64:
                lcms[-1] = grown
            else:
                lcms.append(d)
                top = d.bit_length()
        classes.append(len(lcms) - 1)
    return lcms, [(j, a * (lcms[j] // d), b * (lcms[j] // d)) for j, (a, b, d) in zip(classes, triples)]


@lru_cache(maxsize=None)
def _residue_point(dim):
    """The point x of F_P, x_k = 3^(k+1) mod P, at which the residues
    below are read: its coordinates are distinct and nonzero, and every
    monomial x^alpha is a power of 3 (gradient_residues relies on that)."""
    return tuple(pow(3, k + 1, MODULUS) for k in range(dim))


def gradient_residues(t):
    """The gradient of L t at the point x = _residue_point(dim) modulo P,
    with L t the Gaussian-integer scaling of t that exactnum.residues
    reads.  As x_k = 3^(k+1), x^alpha is 3 to the power
    w = sum_k (k+1) alpha_k, and d_k x^alpha = alpha_k x^alpha / x_k is
    alpha_k 3^(w-k-1), read off one table of powers of 3."""
    p = MODULUS
    dim = t.space.dim
    threes = [pow(3, w, p) for w in range(t.degree * dim + 1)]
    weights = range(1, dim + 1)
    sums = [0] * dim
    for alpha, c in zip(t.coeffs, residues(t.coeffs.values())):
        w = sum(map(mul, alpha, weights))
        for k, e in enumerate(alpha):
            if e:
                sums[k] += e * threes[w - k - 1] * c
    return tuple(g % p for g in sums)


def action_residue(a, gradient):
    """The residue modulo P of L_A L (A . t)(x) from the gradient_residues
    of t at x, with L_A A the Gaussian-integer scaling of A's entries
    (exactnum.residues).

    By the derivation of sp_action, (A . t)(x) = -sum_k d_k t(x) (A^t x)_k,
    which costs O(dim^2).  The map into F_P is a ring map, so A . t = 0
    gives 0: a nonzero residue proves A . t != 0, and a zero one proves
    nothing."""
    dim = a.nrows
    x = _residue_point(dim)
    entries = residues(e for row in a.data for e in row)
    # (A^t x)_k = sum_l A_lk x_l
    return -sum(g * sum(map(mul, entries[k::dim], x)) for k, g in enumerate(gradient)) % MODULUS


def double_contraction_endo(s, e, f):
    """S_{e,f} as an endomorphism of E; symmetric and bilinear in (e, f)."""
    if s.degree != 4:
        raise ContractError("double_contraction_endo needs degree 4")
    return endo_of_quadratic(contract(contract(s, e), f))


def double_contractions(s):
    """Yield ((k, l), S_{e_k,e_l}) for k <= l in lexicographic order, each
    entry as its tuple of S^2E coordinates.

    Every table of double contractions is read off this sequence.  Each
    entry is read straight off S's coefficients by the formula in the module
    docstring, with no contraction: entry (k, l) reads the monomials of S
    that hold both k' and l'.  The table is filed row by row: before row k
    is yielded, _file_row files the monomials that hold k' under each of
    their other indices l' with l >= k.  Each (monomial, index pair) is thus
    filed once over the whole table, and each monomial's T_alpha is computed
    when a row first files it, so a consumer that stops early pays only for
    the rows up to its last entry.
    """
    if s.degree != 4:
        raise ContractError("double contractions need a quartic")
    dim = s.space.dim
    dual, w = _duals(dim)
    layout, index = _s2e_layout(dim)
    # holders[u]: a [alpha, coefficient, None] record of each monomial of S
    # that holds u, which _file_row completes when it first reads it
    holders = [[] for _ in range(dim)]
    for alpha, c in s.coeffs.items():
        term = [alpha, c, None]
        for u in compress(range(dim), alpha):
            holders[u].append(term)
    for k in range(dim):
        filed = _file_row(k, holders[dual[k]], dual, index)
        for l in range(k, dim):
            coords = [ZERO] * len(layout)
            wkl = w[k] * w[l]
            for pos, t in filed[l]:
                coords[pos] = t if wkl * layout[pos][4] > 0 else -t
            yield (k, l), tuple(coords)


def _file_row(k, terms, dual, index):
    """Row k of the table filed: a list whose entry l >= k holds
    (position of e_i e_j, T_{k' l' i j}) over the monomials k' l' i j of S,
    read off terms, the records of the monomials that hold k'
    (double_contractions).  A record [alpha, S_alpha, None] read for the
    first time becomes [alpha, T_alpha, sorted indices of alpha]."""
    kd = dual[k]
    filed = [[] for _ in dual]
    for term in terms:
        alpha, t, idx = term
        if idx is None:
            idx = term[2] = [u for u in compress(range(len(alpha)), alpha) for _ in range(alpha[u])]
            a, b, c, d = idx
            t = term[1] = t * _WEIGHT[a == b, b == c, c == d]
        rest = list(idx)
        rest.remove(kd)
        for m in set(rest):
            l = dual[m]
            if l >= k:
                pair = list(rest)
                pair.remove(m)
                filed[l].append((index[tuple(pair)], t))
    return filed


# alpha!/4! by which neighbours of alpha's sorted indices (a, b, c, d) are
# equal, (a == b, b == c, c == d): each run of equal indices is an exponent
_WEIGHT = {shape: GaussRat(Fraction(f, 24)) for shape, f in {
    (False, False, False): 1, (True, False, False): 2, (False, True, False): 2,
    (False, False, True): 2, (True, False, True): 4, (True, True, False): 6,
    (False, True, True): 6, (True, True, True): 24}.items()}


def _duals(dim):
    """The omega-dual index k' of each k and the sign w_k, +1 on p, -1 on q."""
    n = dim // 2
    return [(k + n) % dim for k in range(dim)], [1] * n + [-1] * n


@lru_cache(maxsize=None)
def _s2e_layout(dim):
    """(entries, index): per S^2E coordinate e_a e_b (a <= b), ordered by
    first, the entry (first, second, sign, alpha, w): the flattened positions
    (a, b') and (b, a') it sits at, smaller first (second None for a == b),
    the sign w_a w_b of the second copy, the monomial alpha = e_a e_b, and
    w = w_c for first = (r, c), so that by A[r][c] = w_c M_{r c'} the
    quadratic's coefficient at alpha is w times the coordinate, doubled off
    the diagonal; index maps (a, b) to the position.  A flattened RREF and
    its S^2E coordinates have the same pivots."""
    dual, w = _duals(dim)
    out = []
    for a in range(dim):
        for b in range(a, dim):
            first, second = sorted((a * dim + dual[b], b * dim + dual[a]))
            alpha = tuple((k == a) + (k == b) for k in range(dim))
            second = second if a != b else None
            out.append((first, second, w[a] * w[b], alpha, w[first % dim], (a, b)))
    out.sort()
    return tuple(entry[:5] for entry in out), {entry[5]: pos for pos, entry in enumerate(out)}


def s2e_matrix(v, dim):
    """The d x d matrix in sp(E) with S^2E coordinates v, by sign flips."""
    out = [ZERO] * (dim * dim)
    for (first, second, sign, _, _), c in zip(_s2e_layout(dim)[0], v):
        out[first] = c
        if second is not None:
            out[second] = c if sign > 0 or not c else -c
    return _trusted_matrix(tuple(tuple(out[i * dim:(i + 1) * dim]) for i in range(dim)))


def s2e_coords(b):
    """The S^2E coordinates of the quadratic b, as a tuple."""
    if b.degree != 2:
        raise ContractError("s2e_coords needs a quadratic")
    layout, index = _s2e_layout(b.space.dim)
    out = [ZERO] * len(layout)
    for alpha, c in b.coeffs.items():
        pos = index[tuple(k for k, e in enumerate(alpha) for _ in range(e))]
        _, second, _, _, w = layout[pos]
        c = c if second is None else c * _HALF
        out[pos] = c if w > 0 else -c
    return tuple(out)


def table_entry(table, k, l):
    """S_{e_k,e_l} from a table keyed by (k, l) with k <= l; the entry is symmetric."""
    return table[(k, l) if k <= l else (l, k)]


def support_columns(t):
    """Yield the nonzero vectors (alpha_i t_alpha)_i, alpha = beta + e_i, for
    each beta of degree d - 1, in the order the betas first appear in t's
    monomials: the coefficients of e^beta in the d_i t, or
    (d!/beta!) (T_{beta+e_i})_i, which span the support (module docstring).
    Each vector is read off the coefficients when it is asked for, so a
    consumer that stops early skips the rest."""
    seen = set()
    for alpha in t.coeffs:
        for beta in [alpha[:i] + (e - 1,) + alpha[i + 1:] for i, e in enumerate(alpha) if e]:
            if beta not in seen:
                seen.add(beta)
                col = [t.coeffs.get(beta[:j] + (b + 1,) + beta[j + 1:], ZERO) for j, b in enumerate(beta)]
                yield tuple(c if b == 0 else c * GaussRat(b + 1) for c, b in zip(col, beta))


def support(t):
    """The support: the span of support_columns(t), with its canonical RREF
    basis.  For a quartic it is how an InvariantQuartic carries it."""
    if t.degree < 2:
        raise ContractError("support needs degree >= 2")
    return span(t.space, support_columns(t))


def symmetric_square(sub):
    """The S^2E coordinates of the products v_i v_j, i <= j in lexicographic
    order, of the subspace's basis v: a basis of S^2(sub)."""
    forms = [SymTensor.linear(sub.ambient, v) for v in sub.basis]
    return [s2e_coords(a * b) for a, b in combinations_with_replacement(forms, 2)]


def tau(t, j):
    """The real structure (tau T)(x_1..x_d) = conj(T(j x_1, ..., j x_d)).

    For even d, tau(v^d) = (jv)^d, since omega(jx, v) = -conj omega(x, jv):
    tau is the push-forward along j's matrix C of t with conjugated
    coefficients, correct for quaternionic structures not aligned with the
    basis.  Antilinear and involutive on even degrees.
    """
    if t.degree % 2:
        raise ContractError("tau needs even degree")
    conj = SymTensor(t.space, t.degree, {a: c.conjugate() for a, c in t.coeffs.items()})
    return transform(conj, j.c_matrix)


def s2e_tau(j):
    """tau on S^2E coordinates held as their nonzeros: the map {p: v_p} ->
    {q: tau(v)_q}, v -> sum_p conj(v_p) tau(u_p) over the nonzeros of v, so
    that it sends the nonzeros of s2e_coords(b) to those of
    s2e_coords(tau(b, j)).

    u_p is the real quadratic with S^2E coordinates the unit at p, so
    tau(u_p) is its push-forward along C, and each column is read off the
    nonzeros of C's columns a and b of the unit e_a e_b, with no
    push-forward: u_p = w f x_a x_b, with w = w_p the sign layout keeps at
    p and f = 2 off the diagonal, goes to w f (C_a . x)(C_b . x), whose
    coordinate at q = e_l e_m is w w_q times its coefficient of x_l x_m,
    halved off the diagonal.  Building costs one product per pair of
    nonzeros of the two columns, one per unit for a signed permutation C;
    applying costs one product per nonzero of v and of its column.
    """
    layout, index = _s2e_layout(j.ambient.dim)
    c = j.c_matrix
    col_nonzeros = [[(l, x) for l, x in enumerate(c.col(k)) if x] for k in range(c.ncols)]
    cols = [None] * len(layout)
    for (a, b), p in index.items():
        pairs = (combinations_with_replacement(col_nonzeros[a], 2) if a == b
                 else product(col_nonzeros[a], col_nonzeros[b]))
        acc = {}
        for (l, x), (m, y) in pairs:
            q = index[(l, m) if l <= m else (m, l)]
            xy = x * y
            if l == m and a != b:
                xy = xy + xy
            acc[q] = acc[q] + xy if q in acc else xy
        w = layout[p][4]
        cols[p] = {q: x if w * layout[q][4] > 0 else -x for q, x in acc.items() if x}

    def tau_map(v):
        out = {}
        for p, x in v.items():
            _add_into(out, cols[p], x.conjugate())
        return out

    return tau_map


def tensor_in_subspace_power(t, sub):
    """True iff t lies in S^d(sub): all omega-perp contractions of t vanish."""
    for v in omega_perp(sub).echelon():
        if not contract(t, v).is_zero():
            return False
    return True


def transform(t, m):
    """Push-forward of t along the linear map with matrix m.

    Each generator e_k is substituted by the linear form of the k-th column
    of m, i.e. (m . t)(v_1 ... v_d) = (m v_1) ... (m v_d) on decomposables.
    Evaluated by Horner's rule over t's monomials as sorted index tuples:
    t = sum_k e_k t_k, with t_k the monomials whose least index is k divided
    by e_k, so each shared prefix is multiplied by its image once.  Partial
    products are plain dicts keyed by the exponents as base d + 1 digits.
    """
    sp = t.space
    dim, d = sp.dim, t.degree
    if m.nrows != dim or m.ncols != dim:
        raise ContractError("transform matrix has wrong size")
    base = d + 1
    powers = [base ** k for k in range(dim)]
    # column k of m as (key shift of e_l, m_lk) over its nonzeros
    images = [[(powers[l], c) for l, c in enumerate(m.col(k)) if c] for k in range(dim)]

    def horner(terms, depth):
        """The image of sum c e_idx[depth:] over (idx, c) in terms, which
        share idx[:depth]; at depth d there is at most one term."""
        if depth == d:
            return {0: c for _, c in terms}
        groups = {}
        for term in terms:
            groups.setdefault(term[0][depth], []).append(term)
        out = {}
        for k, group in groups.items():
            image = images[k]
            for code, c in horner(group, depth + 1).items():
                for shift, a in image:
                    key = code + shift
                    out[key] = out[key] + a * c if key in out else a * c
        return {key: c for key, c in out.items() if c}

    terms = [(tuple(k for k, e in enumerate(alpha) for _ in range(e)), c)
             for alpha, c in t.coeffs.items()]
    return SymTensor(sp, d, {_exponents(code, base, dim): c for code, c in horner(terms, 0).items()})


def in_frame(t, frame):
    """t in the coordinates of a Darboux frame P = (f, g): the tensor t' with
    t = transform(t', P), that is transform(t, inverse(P)).  Its monomials
    are in the f coordinates p_1..p_n alone exactly when t lies in
    S^d(span f); ContractError when one has an exponent on a g coordinate."""
    out = transform(t, inverse(frame))
    n = t.space.n
    if any(any(alpha[n:]) for alpha in out.coeffs):
        raise ContractError("tensor is not supported in the given subspace")
    return out


def _exponents(code, base, dim):
    """The multi-index whose exponents are the base digits of code."""
    alpha = []
    for _ in range(dim):
        code, e = divmod(code, base)
        alpha.append(e)
    return tuple(alpha)


# ---------------------------------------------------------------------------
# Quartic file format.
# ---------------------------------------------------------------------------


def quartic_to_dict(t):
    if t.degree != 4:
        raise ContractError("quartic serialization needs degree 4")
    coeffs = [
        {"monomial": list(alpha), "value": str(c)}
        for alpha, c in sorted(t.coeffs.items(), key=lambda kv: kv[0])
    ]
    return {"n": t.space.n, "degree": 4, "coeffs": coeffs}


def quartic_from_dict(data):
    """The quartic of a record {"n", "degree", "coeffs"}; ContractError on a
    malformed one (an unknown key included, in the record or in an entry of
    coeffs), and on n > MAX_N before anything of size n is built.

    Each monomial is checked in one pass: a list of dim E exponents of type
    int (so no bool), of sum 4 and none negative, is taken as it stands, and
    any other goes through record_int exponent by exponent, which names the
    first fault.  A value whose literal has a digit string over MAX_DIGITS
    digits is a malformed record naming its coeffs[k].  The table so checked
    holds only nonzero values, so the quartic is built without a second
    check (_trusted_tensor).
    """
    n, degree, raw = record_fields(data, "quartic", ("n", "degree", "coeffs"))
    n = record_int(n, "quartic", "n")
    check_size(n)
    degree = record_int(degree, "quartic", "degree")
    if not isinstance(raw, list):
        raise ContractError("malformed quartic record: coeffs must be a list")
    if degree != 4:
        raise ContractError("quartic file must have degree 4")
    sp = SymplecticSpace(n)
    dim = sp.dim
    coeffs = {}
    try:
        for k, item in enumerate(raw):
            mono = item.get("monomial") if isinstance(item, dict) else None
            if not (isinstance(mono, list) and isinstance(item.get("value"), str)):
                raise ContractError("malformed quartic record: coeffs[%d] must be an object with "
                                    "a list 'monomial' and a string 'value'" % k)
            if len(item) != 2:
                raise ContractError("malformed quartic record: coeffs[%d] has an unknown key %r"
                                    % (k, next(key for key in item if key not in ("monomial", "value"))))
            if len(mono) == dim and set(map(type, mono)) == {int} and sum(mono) == 4 and min(mono) >= 0:
                alpha = tuple(mono)
            else:
                alpha = tuple(record_int(a, "quartic", "monomial exponent") for a in mono)
                if len(alpha) != dim or any(a < 0 for a in alpha) or sum(alpha) != 4:
                    raise ContractError("bad monomial %r" % (alpha,))
            value = GaussRat.parse(item["value"])
            if alpha in coeffs:
                raise ContractError("duplicate monomial %r" % (alpha,))
            if value:
                coeffs[alpha] = value
    except LiteralTooLongError as exc:
        raise ContractError("malformed quartic record: coeffs[%d]: %s" % (k, exc)) from None
    return _trusted_tensor(sp, 4, coeffs)
