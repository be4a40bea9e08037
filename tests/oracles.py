"""Independent oracles used to derive expected values.

Each one deliberately avoids the code path it checks: the polarization oracle
evaluates polynomials at covector sums with inclusion-exclusion (no iterated
contraction), the automorphism oracle builds the gl(E_+) action matrix by raw
monomial calculus (no sp-embedding, no contraction machinery), and the root
pattern oracle uses the derivative gcd chain instead of Yun's algorithm.
RefGaussRat is the original Fraction-pair scalar, the slow reference for the
integer-triple GaussRat.  The dense-Omega formulas apply omega through its
2n x 2n Gram matrix, built here from the definition omega(p_a, q_b) =
delta_ab, as the reference for the package's omega_flat path.
petrov_from_matrix reads the Petrov type off the Jordan structure of the
3x3 operator, not off root multiplicities.  The H(x)E references work on
flat tuples (index a * dim E + k holds h_a (x) e_k) through the Kronecker
products of the 2 x 2 data of H with the data of E, not through the pair
formulas of hkalgebra: rho_reference applies j_H (x) j_E, rho_candidate_sweep
is the spanning set {v + rho v, i(v - rho v)} of (H(x)E)^rho, kronecker_gram
is the Gram matrix of Omega_H (x) Omega_E and kronecker_apply applies
I (x) A.  mm_bracket_walk and real_holonomy_generators are the [m, m]
and real holonomy paths the algebra builder used before it took its brackets
from its callers: the pair formula summed bilinearly over the table of
double contractions, and the generators S_{je,e'} -/+ S_{e,je'} over basis
pairs.  certify_invariance_all_entries is the invariance check before it
skipped the entries in the span of earlier ones: sp_action on every table
entry, then the support and the holonomy basis eliminated from the whole
table.  derived_series_reference is the holonomy's derived series before
[h, h] = 0 was derived from the isotropic support: every commutator of a
basis as a dense matrix product AB - BA, then the span of the brackets
eliminated, step by step.  embed_gl_group and binary_quartic_tensor carry
group elements and binary quartics into E for equivariance and round-trip
tests; random_vector and random_invertible draw their operands.
"""

import re as _re
from fractions import Fraction
from itertools import combinations

from hksym.exactnum import (
    ContractError,
    GaussRat,
    I_UNIT,
    Matrix,
    ONE,
    ScalarError,
    ZERO,
    echelon_basis,
    inverse,
    mat_vec,
    rank_kernel,
    solve_linear,
    unit_vec,
)
from hksym.generators import random_gaussrat
from hksym.symtensor import column_span, double_contractions, sp_action, table_entry
from hksym.symplectic import SymplecticSpace, standard_quaternionic

# j_H on the plane H with omega_H(h, h') = 1: j_H h = h', j_H h' = -h
J_H = standard_quaternionic(SymplecticSpace(1))


def dense_omega(n):
    """Omega with omega(x, y) = x^t Omega y on the basis p_1..p_n, q_1..q_n."""
    rows = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        rows[a][n + a] = ONE
        rows[n + a][a] = -ONE
    return Matrix(rows)


def omega_pair_dense(x, y):
    """omega(x, y) = x^t Omega y as a double sum over Omega."""
    omega = dense_omega(len(x) // 2)
    total = ZERO
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            total = total + a * omega.entry(i, j) * b
    return total


def omega_flat_dense(x):
    """The covector omega(x, .) = Omega^t x."""
    return mat_vec(dense_omega(len(x) // 2).transpose(), tuple(x))


def omega_sharp_dense(xi):
    """The u with omega(u, .) = xi, by solving Omega^t u = xi."""
    return solve_linear(dense_omega(len(xi) // 2).transpose(), tuple(xi))


def is_in_sp_dense(a):
    """A^t Omega + Omega A = 0, by two matrix products."""
    omega = dense_omega(a.nrows // 2)
    return (a.transpose() @ omega + omega @ a).is_zero()


def contract_dense(t, x):
    """T_x = (1/d) d_{omega x} T with the derivative direction Omega^t x."""
    from hksym.symtensor import SymTensor

    w = omega_flat_dense(x)
    out = {}
    for alpha, c in t.coeffs.items():
        for k, e in enumerate(alpha):
            if e and w[k]:
                key = alpha[:k] + (e - 1,) + alpha[k + 1:]
                out[key] = out.get(key, ZERO) + GaussRat(e) * w[k] * c
    return SymTensor(t.space, t.degree - 1, out).scale(GaussRat(Fraction(1, t.degree)))


def endo_by_contraction(b):
    """x -> B_x by definition: column k is the contraction B_{e_k} as a vector."""
    dim = b.space.dim
    cols = []
    for k in range(dim):
        col = [ZERO] * dim
        for alpha, c in contract_dense(b, unit_vec(dim, k)).coeffs.items():
            col[alpha.index(1)] = c
        cols.append(col)
    return Matrix(cols).transpose()


def evaluate_at_covector(t, xi):
    """t(xi) for a covector xi given by dual-basis coordinates."""
    total = ZERO
    for alpha, c in t.coeffs.items():
        term = c
        for k, e in enumerate(alpha):
            for _ in range(e):
                term = term * xi[k]
        total = total + term
    return total


def polarization_inclusion_exclusion(t, xs):
    """M_t(omega x_1, ..., omega x_d) by the subset-sum polarization identity."""
    d = t.degree
    sp = t.space
    covs = [omega_flat_dense(x) for x in xs]
    total = ZERO
    indices = list(range(d))
    for size in range(1, d + 1):
        sign = GaussRat((-1) ** (d - size))
        for subset in combinations(indices, size):
            xi = [ZERO] * sp.dim
            for i in subset:
                for k in range(sp.dim):
                    xi[k] = xi[k] + covs[i][k]
            total = total + sign * evaluate_at_covector(t, xi)
    factorial = 1
    for i in range(2, d + 1):
        factorial *= i
    return total * GaussRat(Fraction(1, factorial))


def monomial_multiset(degree, nvars):
    out = []

    def rec(prefix, remaining, start):
        if len(prefix) == nvars - 1:
            out.append(tuple(prefix) + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, start)

    rec([], degree, 0)
    return out


def aut_dimension_bruteforce(s, e_plus):
    """dim aut(S) by raw monomial calculus on the restricted polynomial.

    S is rewritten in e_plus coordinates; the elementary matrix E_{ij}
    (v_j -> v_i) acts on a monomial by
        E_{ij} . x^alpha = -alpha_j x^(alpha - e_j + e_i),
    matching the package-wide sign convention (minus the derivation).  The
    kernel dimension of the stacked action matrix is dim aut(S).
    """
    from hksym.symtensor import restrict_to_basis

    n = e_plus.dim
    restricted = {
        beta: c for beta, c in restrict_to_basis(s, list(e_plus.basis)).items() if c
    }
    monos = monomial_multiset(4, n)
    index = {m: i for i, m in enumerate(monos)}
    cols = []
    for i in range(n):
        for j in range(n):
            col = [ZERO] * len(monos)
            for beta, c in restricted.items():
                if not beta[j]:
                    continue
                target = list(beta)
                target[j] -= 1
                target[i] += 1
                k = index[tuple(target)]
                col[k] = col[k] - GaussRat(beta[j]) * c
            cols.append(col)
    _, kernel, _ = rank_kernel(Matrix(cols).transpose())
    return len(kernel)


def root_pattern_gcd_chain(plain_coeffs):
    """Multiplicity pattern of a binary quartic by the derivative gcd chain.

    deg gcd(p, p', .., p^(k)) = sum over roots of max(mult - k, 0); successive
    differences count the roots of each multiplicity.  Independent of Yun.
    """
    from hksym.dim8 import _poly_deg, _poly_diff, _poly_gcd, _poly_strip

    p = _poly_strip([plain_coeffs[4 - d] for d in range(5)])
    if not p:
        return ()
    inf_mult = 4 - _poly_deg(p)
    degs = [_poly_deg(p)]
    g = p
    deriv = p
    while _poly_deg(g) > 0:
        deriv = _poly_diff(deriv)
        g = _poly_gcd(g, deriv)
        degs.append(_poly_deg(g))
    degs += [0] * (6 - len(degs))
    # degs[k] = sum over roots of max(mult - k, 0); difference counts
    # roots with multiplicity >= k, one more difference gives exact counts
    ge = [degs[k - 1] - degs[k] for k in range(1, 6)]
    pattern = []
    for m in range(1, 5):
        exact = ge[m - 1] - ge[m] if m < 5 else ge[m - 1]
        pattern.extend([m] * exact)
    if inf_mult:
        pattern.append(inf_mult)
    return tuple(sorted(pattern, reverse=True))


def inertia_by_char_poly(h):
    """Hermitian inertia via Faddeev-LeVerrier and Descartes' rule.

    A Hermitian matrix has a real-rooted characteristic polynomial with real
    coefficients, so Descartes' sign-variation count is exact: positives are
    the variations of p(t), the null count is the multiplicity of the root 0,
    and negatives make up the rest.  Completely independent of the congruence
    pivoting in the module.
    """
    from fractions import Fraction

    n = h.nrows
    ident = Matrix.identity(n)
    m = Matrix.zeros(n, n)
    coeffs = [GaussRat(1)]  # leading coefficient of t^n
    for k in range(1, n + 1):
        m = h @ (m + ident.scale(coeffs[-1]))
        tr = ZERO
        for i in range(n):
            tr = tr + m.entry(i, i)
        ck = -(tr * GaussRat(Fraction(1, k)))
        assert ck.is_real
        coeffs.append(ck)
    # coeffs[i] multiplies t^(n-i); strip the trailing zeros (root 0)
    null = 0
    while coeffs and not coeffs[-1]:
        coeffs.pop()
        null += 1
    signs = [c.real_sign() for c in coeffs if c]
    pos = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return pos, n - pos - null, null


def ricci_by_adjoint_matrices(model):
    """Ricci form via explicit adjoint matrices and matrix traces.

    For each m-pair (x, y) the composite map z -> [[z, x], y] on m is formed
    as a product of two explicit matrices (m -> h, then h -> m); Ricci is
    minus its trace.  Independent of the structure-constant trace loop.
    """
    dh, dm = model.dim_h, model.dim_m
    # bracket-with-fixed-m-element matrices
    def m_to_h(x):
        rows = [[ZERO] * dm for _ in range(max(dh, 1))]
        for z in range(dm):
            for k, c in model.brackets[dh + z][dh + x].items():
                rows[k][z] = c
        return Matrix(rows)

    def h_to_m(y):
        rows = [[ZERO] * max(dh, 1) for _ in range(dm)]
        for w in range(dh):
            for k, c in model.brackets[w][dh + y].items():
                rows[k - dh][w] = c
        return Matrix(rows)

    bx = [m_to_h(x) for x in range(dm)]
    cy = [h_to_m(y) for y in range(dm)]
    rows = []
    for x in range(dm):
        row = []
        for y in range(dm):
            comp = cy[y] @ bx[x]
            trace = ZERO
            for z in range(dm):
                trace = trace + comp.entry(z, z)
            row.append(-trace)
        rows.append(row)
    return Matrix(rows)


_F0 = Fraction(0)
_F1 = Fraction(1)


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ScalarError("rational component must be int or Fraction, got %r" % (x,))


class RefGaussRat:
    """The original Fraction-pair scalar: a + b*i with a, b reduced Fractions.

    Slow reference for the integer-triple GaussRat; test_exactnum compares
    the two on random operands.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("RefGaussRat is immutable")

    # -- parsing / formatting -------------------------------------------------

    _RAT = r"\d+(?:/\d+)?"
    _RE_BOTH = _re.compile(r"^(?P<re>[+-]?%s)(?P<im>[+-](?:%s)?)i$" % (_RAT, _RAT))
    _RE_IMAG = _re.compile(r"^(?P<im>[+-]?(?:%s)?)i$" % _RAT)
    _RE_REAL = _re.compile(r"^(?P<re>[+-]?%s)$" % _RAT)

    @classmethod
    def parse(cls, text):
        """Parse "a/b" with optional "+c/d i" imaginary part, e.g. "-3/4+1/2i".

        Whitespace-insensitive; accepts the unicode minus sign.  Zero
        denominators and non-rational syntax raise ScalarError.
        """
        if not isinstance(text, str):
            raise ScalarError("rational literal must be a string, got %r" % (text,))
        s = "".join(text.split()).replace("−", "-")
        m = cls._RE_BOTH.match(s) or cls._RE_IMAG.match(s) or cls._RE_REAL.match(s)
        if m is None:
            raise ScalarError("cannot parse rational literal %r" % text)
        groups = m.groupdict()
        try:
            re_part = Fraction(groups["re"]) if groups.get("re") else _F0
            im_text = groups.get("im")
            if im_text is None:
                im_part = _F0
            elif im_text in ("", "+"):
                im_part = _F1
            elif im_text == "-":
                im_part = -_F1
            else:
                im_part = Fraction(im_text)
        except ZeroDivisionError:
            raise ScalarError("zero denominator in %r" % text)
        return cls(re_part, im_part)

    def __str__(self):
        def rat(f):
            return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)

        if not self.im:
            return rat(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = rat(self.im) + "i"
        if not self.re:
            return imag
        sign = "+" if self.im > 0 and not imag.startswith("+") else ""
        return rat(self.re) + sign + imag

    def __repr__(self):
        return "RefGaussRat(%s)" % self

    # -- field operations -----------------------------------------------------

    def __add__(self, other):
        return RefGaussRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return RefGaussRat(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return RefGaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ScalarError("division by zero in Q(i)")
        return RefGaussRat(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __neg__(self):
        return RefGaussRat(-self.re, -self.im)

    def conjugate(self):
        return RefGaussRat(self.re, -self.im)

    def inverse(self):
        return RefGaussRat(1) / self

    def __eq__(self, other):
        return isinstance(other, RefGaussRat) and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self):
        return not self.im

    def real_sign(self):
        """Sign (-1, 0, 1) of a real element; error on a non-real one."""
        if self.im:
            raise ContractError("real_sign of a non-real scalar %s" % self)
        return (self.re > 0) - (self.re < 0)


def random_vector(sp, rng):
    return tuple(random_gaussrat(rng) for _ in range(sp.dim))


def random_invertible(n, rng):
    """Random invertible n x n matrix over Q(i)."""
    while True:
        m = Matrix([[random_gaussrat(rng) for _ in range(n)] for _ in range(n)])
        rank, _, _ = rank_kernel(m)
        if rank == n:
            return m


def embed_gl_group(e_plus, t_small):
    """Extension of an invertible T in GL(E_+) to Sp(E): blockdiag(T, (T^t)^-1)
    in the basis of e_plus followed by its omega-dual Lagrangian complement.
    Symplectic by construction; checked."""
    from hksym.symplectic import lagrangian_complement

    n = e_plus.dim
    _, g = lagrangian_complement(e_plus)
    basis_mat = Matrix([list(v) for v in e_plus.basis] + [list(v) for v in g]).transpose()
    block = [list(row) + [ZERO] * n for row in t_small.data]
    block += [[ZERO] * n + list(row) for row in inverse(t_small.transpose()).data]
    embedded = basis_mat @ Matrix(block) @ inverse(basis_mat)
    omega = e_plus.ambient.omega
    assert embedded.transpose() @ omega @ embedded == omega
    return embedded


def binary_quartic_tensor(q, space, basis_pair):
    """The BinaryQuartic q as a quartic on space in the variables basis_pair."""
    from hksym.symtensor import SymTensor

    x = SymTensor.linear(space, basis_pair[0])
    y = SymTensor.linear(space, basis_pair[1])
    out = SymTensor.zero(space, 4)
    for k, c in enumerate(q.plain()):
        if c:
            out = out + ((x ** (4 - k)) * (y ** k)).scale(c)
    return out


def petrov_from_matrix(m):
    """Type letter from the Jordan structure of the operator G^{-1} A.

    Exact over Q(i): the discriminant of the (traceless) characteristic
    polynomial separates I; p = q = 0 gives the nilpotent types split by the
    square; otherwise the double eigenvalue -3q/(2p) is rational and the
    degree-2 minimal polynomial test separates D from II.
    """
    from hksym.dim8 import _char_poly_3

    op = m.operator()
    if op.is_zero():
        return "O"
    q0, p1, c2 = _char_poly_3(op)
    if c2:
        raise ContractError("operator is not traceless")
    p, q = p1, q0
    four = GaussRat(4)
    disc = -(four * p * p * p) - GaussRat(27) * q * q
    if disc:
        return "I"
    if not p and not q:
        if (op @ op).is_zero():
            return "N"
        return "III"
    lam = -(GaussRat(3) * q) / (GaussRat(2) * p)
    ident = Matrix.identity(3)
    factor1 = op - ident.scale(lam)
    factor2 = op + ident.scale(GaussRat(2) * lam)
    if (factor1 @ factor2).is_zero():
        return "D"
    return "II"


def rho_reference(j_e, v):
    """rho(h_a (x) e_k) = j_H h_a (x) j_E e_k on a flat H(x)E tuple: the
    conjugated coefficients times the Kronecker product C_H (x) C_E."""
    dim = j_e.ambient.dim
    ch, ce = J_H.c_matrix, j_e.c_matrix
    out = [ZERO] * (2 * dim)
    for i, c in enumerate(v):
        a, k = divmod(i, dim)
        for b in range(2):
            for l in range(dim):
                out[b * dim + l] = out[b * dim + l] + c.conjugate() * ch.entry(b, a) * ce.entry(l, k)
    return tuple(out)


def rho_candidate_sweep(j_e):
    """v + rho v and i(v - rho v) over the unit tuples v of H(x)E: a spanning
    set of the real form (H(x)E)^rho."""
    out = []
    for i in range(2 * j_e.ambient.dim):
        v = unit_vec(2 * j_e.ambient.dim, i)
        rv = rho_reference(j_e, v)
        out.append(tuple(a + b for a, b in zip(v, rv)))
        out.append(tuple(I_UNIT * (a - b) for a, b in zip(v, rv)))
    return out


def kronecker_gram(vectors):
    """Gram matrix of Omega_H (x) Omega_E on flat H(x)E tuples, with both
    Omegas dense."""
    dim = len(vectors[0]) // 2
    oh, oe = dense_omega(1), dense_omega(dim // 2)
    rows = []
    for u in vectors:
        row = []
        for v in vectors:
            g = ZERO
            for i, a in enumerate(u):
                for k, b in enumerate(v):
                    g = g + a * b * oh.entry(i // dim, k // dim) * oe.entry(i % dim, k % dim)
            row.append(g)
        rows.append(row)
    return Matrix(rows)


def kronecker_apply(a_mat, v):
    """(I_2 (x) A) v for a flat H(x)E tuple v, as a double sum over the
    Kronecker product."""
    dim = a_mat.nrows
    out = []
    for i in range(2 * dim):
        s = ZERO
        for k, c in enumerate(v):
            if i // dim == k // dim:
                s = s + a_mat.entry(i % dim, k % dim) * c
        out.append(s)
    return tuple(out)


def mm_bracket_walk(table, m_basis):
    """{(t, t2): [m_t, m_t2]} for t < t2 over H(x)E tuples m_t = (x, y):
    S_{x,y'} - S_{y,x'} summed bilinearly over the table of S_{e_k,e_l},
    with None for a bracket that has no nonzero term."""
    dim = len(m_basis[0]) // 2
    pairs = [(w[:dim], w[dim:]) for w in m_basis]
    out = {}
    for t, (x, y) in enumerate(pairs):
        for t2 in range(t + 1, len(pairs)):
            x2, y2 = pairs[t2]
            acc = None
            for u, v, sign in ((x, y2, ONE), (y, x2, -ONE)):
                for k, cu in enumerate(u):
                    for l, cv in enumerate(v):
                        if cu and cv:
                            term = table_entry(table, k, l).scale(sign * cu * cv)
                            acc = term if acc is None else acc + term
            out[(t, t2)] = acc
    return out


def real_holonomy_generators(jt):
    """S_{je_k,e_l} - S_{e_k,je_l} and i(S_{je_k,e_l} + S_{e_k,je_l}) for
    k <= l, from the table jt[k][l] = S_{je_k,e_l}."""
    dim = len(jt)
    out = []
    for k in range(dim):
        for l in range(k, dim):
            a, b = jt[k][l], jt[l][k]
            out += [a - b, (a + b).scale(I_UNIT)]
    return out


def certify_invariance_all_entries(s):
    """(witness, table, support, h_rows) by checking S_{e_k,e_l} . S = 0 on
    every entry in lexicographic order.  A rejection gives its first
    violating pair and None for the rest; an invariant quartic gives witness
    None, the full table, the column span of all entries and the RREF of all
    flattened entries."""
    table = {}
    for pair, endo in double_contractions(s):
        if not sp_action(endo, s).is_zero():
            return pair, None, None, None
        table[pair] = endo
    rows = echelon_basis([tuple(e for row in m.data for e in row) for m in table.values()])
    return None, table, column_span(s.space, table.values()), tuple(rows)


def _commutator_table(mats):
    """{(i, j): A_i A_j - A_j A_i} for i < j, zeros left out."""
    out = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            c = mats[i] @ mats[j] - mats[j] @ mats[i]
            if not c.is_zero():
                out[(i, j)] = c
    return out


def derived_series_reference(mats):
    """(brackets, dims) for the span of the given matrices: brackets are the
    nonzero commutators {(i, j): [A_i, A_j]}, i < j, of the matrices as
    given, and dims the dimensions of the derived series, ending at 0 or at
    the first step that does not shrink."""
    brackets = _commutator_table(mats)
    first = brackets
    dims = []
    current = list(mats)
    while True:
        dims.append(len(current))
        if not current:
            break
        n = current[0].nrows
        nxt = [Matrix([list(v[i * n:(i + 1) * n]) for i in range(n)])
               for v in echelon_basis([tuple(e for row in c.data for e in row)
                                       for c in brackets.values()])]
        if len(nxt) == len(current):
            dims.append(len(nxt))
            break
        current = nxt
        brackets = _commutator_table(current)
    return first, tuple(dims)
