"""Independent oracles used to derive expected values.

Each one deliberately avoids the code path it checks: the polarization oracle
evaluates polynomials at covector sums with inclusion-exclusion (no iterated
contraction), the automorphism oracle builds the gl(E_+) action matrix by raw
monomial calculus (no sp-embedding, no contraction machinery), and the root
pattern oracle counts root multiplicities by the derivative gcd chain over
its own univariate polynomial helpers (_poly_*) instead of reading the
Petrov type off the Jordan type of the operator G^{-1} A, as dim8 does.
RefGaussRat is the original Fraction-pair scalar, the slow reference for the
integer-triple GaussRat, and dense_matmul the column-by-column product, the
reference for the row-sparse Matrix product.  The dense-Omega formulas apply
omega through its 2n x 2n Gram matrix, built here from the definition
omega(p_a, q_b) = delta_ab, as the reference for the package's omega_flat
path.  The H(x)E references work on
flat tuples (index a * dim E + k holds h_a (x) e_k) through the Kronecker
products of the 2 x 2 data of H with the data of E, not through the pair
formulas of hkalgebra: rho_reference applies j_H (x) j_E, rho_candidate_sweep
is the spanning set {v + rho v, i(v - rho v)} of (H(x)E)^rho, kronecker_gram
is the Gram matrix of Omega_H (x) Omega_E and kronecker_apply applies
I (x) A.  mm_bracket_walk and real_holonomy_generators are the [m, m]
and real holonomy paths the algebra builder used before it took its brackets
from its callers: the pair formula summed bilinearly over the table of
double contractions, and the generators S_{je,e'} -/+ S_{e,je'} over basis
pairs.  real_holonomy_from_generators is the real holonomy before it was
read off the complex basis as h^sigma: the realified generators eliminated
over Q, each basis element checked to commute with j as A C = C conj(A);
realify and unrealify write complex tuples as real rows [Re v | Im v] and
back for those eliminations.
sigma_reference is j's action A -> j A j^-1 = C conj(A) C^-1 on sp(E) as
matrix products, before it was tau on S^2E.
sp_action_reference is the action of sp(E) on tensors before it summed
Gaussian-integer numerators over one common denominator: one GaussRat
product and subtraction per term.  double_contractions_by_contraction is the
table of double contractions before it was read off S's coefficients: two
omega-contractions per entry, turned into an endomorphism by
endo_of_quadratic.  support_columns_by_contraction are the vectors support
spanned before it read them off the coefficients: every (d - 2)-fold
contraction against basis vectors, turned into an endomorphism, and its
columns.
certify_invariance_all_entries is the invariance check before it
skipped the entries in the span of earlier ones and before it accepted by
the isotropic support: sp_action_reference on every entry of that table, then the
support and the holonomy basis eliminated from the whole table as flattened
d x d rows (flatten).  derived_series_reference is the holonomy's derived series before
[h, h] = 0 was derived from the isotropic support: every commutator of a
basis as a dense matrix product AB - BA, then the span of the brackets
eliminated, step by step.  embed_gl_group and binary_quartic_tensor carry
group elements and binary quartics into E for equivariance and round-trip
tests; random_vector and random_invertible draw their operands, and zeros
is the zero matrix they start from.
embed_gl_eplus and aut_basis_by_embedding are aut(S) before compute_aut read
S in the Darboux frame P of E_+: each elementary matrix A of gl(E_+) lifted
to P blockdiag(A, -A^t) P^-1 in sp(E), with P inverted per lift, and acted
on S itself.
rref_reference is the dense column sweep that echelon_basis, rank_kernel,
solve_linear and inverse ran before every RREF was grown one vector at a
time by extend_rref: each pivot found by scanning its column, its row
scaled, and every other row updated across its full width.
transform_reference is the push-forward before it ran Horner's rule: each
monomial's product of image powers built on its own (powers cached) and
added into the result term by term.  tau_reference is the real structure
before it was a push-forward along j: a sweep over the tree of polarization
contractions against j applied to the omega-dual basis, each leaf read back
as a conjugated coefficient with its multinomial weight.
_generator_table is the commutator condition before it was read on S^2E
coordinates: the brackets [m_k, m_l] = a - b and [m_k, m_{d+l}] = -i(a + b),
a = J[l][k] and b = J[k][l], summed as quadratics for k <= l, each to be
tested tau-fixed.  As tau is antilinear, a pair is tau-fixed exactly when
tau(a) - tau(b) = a - b and tau(a) + tau(b) = -(a + b), that is when
tau(a) = -b and tau(b) = -a, which is what check_reality now tests as
tau(J[k][l]) = -J[l][k].
real_algebra_by_generators is the real form before it was the certified
complex model written in a real basis: the algebra assembled again from
h^tau's basis, real_m_basis(j) and the [m, m] brackets of _generator_table,
read through the realified rows of h^tau, and verified by its own
verify_model (Jacobi included).
restrict_to_basis is the restriction of a tensor to a basis before it was
read off the Darboux frame of the basis: an exact linear solve for the
coefficients of the symmetric powers of the vectors, each power expanded by
transform, and the solution re-expanded as a check.
in_span(sub, v) is membership in a subspace by rank: v lies in sub exactly
when adding it leaves the echelon basis as long as sub's.
binary_quartic_by_frame is the dim-8 binary quartic before it was read off
S's coefficients at the support's pivots: the Darboux frame that
lagrangian_complement completes the basis pair to, and S pushed forward
into it by in_frame.
quartic_from_dict_reference is the quartic record reader before it checked
each monomial in one pass: every exponent through record_int, then the
monomial's length, signs and degree, and the table built by the checking
SymTensor constructor, which looks at every multi-index again.  Like the
reader, it refuses an entry with a key other than monomial and value.
verify_jacobi_reference is the Jacobi check before it skipped the triples
whose three brackets vanish: every triple a < b < c evaluated, in
lexicographic order.
standard_quaternionic is the general construction of a compatible j: the
definite C = Omega^t, or j from any Lagrangian split (E_+, E_-) through the
omega-dual basis of E_-, the reference for the written-down default j
symplectic.standard_split_j; gamma_gram and gamma_signature read the
Hermitian form gamma(x, y) = omega(x, j y) through its Gram matrix
Omega C.  eval_on_vectors is the full polarization by iterated contraction.
classical_invariants are I and J of a binary quartic by the classical
formulas, not read off the operator G^{-1} A as dim8 does, and
matrix_to_quartic is the dictionary from traceless 3 x 3 matrices back to
binary quartics, the reference for dim8.quartic_to_matrix.
quadratic is the quadratic B with given S^2E coordinates, the inverse of
s2e_coords, read off the matrix that s2e_matrix writes out; tau on such a
quadratic is the reference for symtensor.s2e_tau, which reads its columns
off C's columns and builds no quadratic.
"""

import re as _re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial, prod

from hksym.exactnum import (
    ContractError,
    GaussRat,
    I_UNIT,
    MINUS_ONE,
    Matrix,
    ONE,
    ScalarError,
    ZERO,
    SpanSolver,
    TheoremViolationError,
    echelon_basis,
    from_parts,
    hermitian_inertia,
    inverse,
    mat_vec,
    rank_kernel,
    solve_linear,
    unit_vec,
)
from hksym.dim8 import BinaryQuartic
from hksym.generators import random_gaussrat
from hksym.hkalgebra import LieAlgebraModel, verify_model
from hksym.realform import real_m_basis
from hksym.symtensor import (
    SymTensor,
    contract,
    double_contraction_endo,
    endo_of_quadratic,
    in_frame,
    is_in_sp,
    s2e_coords,
    s2e_matrix,
    sp_action,
    table_entry,
    transform,
)
from hksym.symplectic import (
    QuaternionicStructure,
    Subspace,
    SymplecticSpace,
    check_size,
    is_isotropic,
    lagrangian_complement,
    omega_pair,
    record_fields,
    record_int,
    span,
)


def standard_quaternionic(sp, lagrangian_split=None):
    """The standard compatible quaternionic structure on (E, omega).

    Without a split: j p_k = q_k, j q_k = -p_k, whose gamma is positive
    definite.  With a Lagrangian split (E_+, E_-) and dim E = 4m: j preserves
    both halves, pairing consecutive coordinates by
    (z1, z2) -> (-conj(z2), conj(z1)) in omega-dual-adapted bases.
    """
    dim = sp.dim
    if lagrangian_split is None:
        # j v = omega_flat(conj v), so C = Omega^t: j p_k = q_k, j q_k = -p_k
        return QuaternionicStructure(sp, sp.omega.transpose())

    e_plus, e_minus = lagrangian_split
    if dim % 4 != 0:
        raise ContractError("no compatible quaternionic structure for this split")
    m2 = dim // 2
    if e_plus.dim != m2 or e_minus.dim != m2:
        raise ContractError("split parts must each have dimension %d" % m2)
    if not (is_isotropic(e_plus) and is_isotropic(e_minus)):
        raise ContractError("split parts must be Lagrangian")
    f = list(e_plus.basis)
    # normalize the minus-side basis to be omega-dual to f
    pairing = Matrix([[omega_pair(sp, fi, gj) for gj in e_minus.basis] for fi in f])
    try:
        pinv = inverse(pairing)
    except ContractError:
        raise ContractError("split parts are not complementary")
    g = (Matrix(e_minus.basis).transpose() @ pinv).transpose().data
    basis_cols = Matrix(f + list(g)).transpose()
    k_rows = []
    for i in range(dim):
        row = [ZERO] * dim
        half = 0 if i < m2 else m2
        local = i - half
        if local % 2 == 0:
            row[half + local + 1] = ONE
        else:
            row[half + local - 1] = -ONE
        k_rows.append(row)
    # antilinear pairing map in adapted coordinates: columns are j(adapted basis)
    k = Matrix(k_rows).transpose()
    c = basis_cols @ k @ inverse(basis_cols).conj()
    return QuaternionicStructure(sp, c)


def gamma_gram(j):
    """Gram matrix of gamma(x, y) = omega(x, j y); always Hermitian for valid j."""
    return j.ambient.omega @ j.c_matrix


def gamma_signature(j):
    """Exact inertia (positive, negative, null) of gamma; null must be 0."""
    p, n, z = hermitian_inertia(gamma_gram(j))
    if z:
        raise ContractError("gamma is degenerate: corrupted quaternionic structure")
    return p, n, z


# j_H on the plane H with omega_H(h, h') = 1: j_H h = h', j_H h' = -h
J_H = standard_quaternionic(SymplecticSpace(1))


def dense_matmul(x, y):
    """x @ y as the dot product of every row of x with every column of y."""
    cols = [y.col(t) for t in range(y.ncols)]
    return Matrix([[sum((a * b for a, b in zip(r, c)), ZERO) for c in cols] for r in x.data])


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


def eval_on_vectors(t, xs):
    """Full polarization M_t(omega x_1, ..., omega x_d); symmetric in the xs.

    Computed by iterated contraction, which agrees with the inclusion-
    exclusion polarization because each contraction is one slot of the unique
    symmetric multilinear form with diagonal t.
    """
    if len(xs) != t.degree:
        raise ContractError("eval_on_vectors needs exactly %d vectors" % t.degree)
    cur = t
    for x in xs:
        cur = contract(cur, x)
    return cur.coeffs.get((0,) * t.space.dim, ZERO)


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


def _poly_strip(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_deg(p):
    return len(p) - 1


def _poly_divmod(p, q):
    if not q:
        raise ContractError("polynomial division by zero")
    p = list(p)
    quot = [ZERO] * max(len(p) - len(q) + 1, 0)
    inv_lead = q[-1].inverse()
    while p and len(p) >= len(q):
        f = p[-1] * inv_lead
        k = len(p) - len(q)
        quot[k] = f
        for i, b in enumerate(q):
            p[k + i] = p[k + i] - f * b
        _poly_strip(p)
    return _poly_strip(quot), p


def _poly_monic(p):
    if not p:
        return p
    inv = p[-1].inverse()
    return [c * inv for c in p]


def _poly_gcd(p, q):
    p, q = list(p), list(q)
    while q:
        _, r = _poly_divmod(p, q)
        p, q = q, r
    return _poly_monic(p)


def _poly_diff(p):
    return _poly_strip([GaussRat(k) * c for k, c in enumerate(p)][1:])


# the Petrov letter of each root-multiplicity pattern on the projective line
PETROV_OF_PATTERN = {
    (1, 1, 1, 1): "I",
    (2, 1, 1): "II",
    (2, 2): "D",
    (3, 1): "III",
    (4,): "N",
    (): "O",
}


def root_pattern_gcd_chain(plain_coeffs):
    """Multiplicity pattern of a binary quartic by the derivative gcd chain.

    deg gcd(p, p', .., p^(k)) = sum over roots of max(mult - k, 0); successive
    differences count the roots of each multiplicity.  The quartic is
    dehomogenized at y = 1, and the point at infinity contributes 4 - deg p.
    """
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


def classical_invariants(q):
    """(I, J) of a binary quartic by the classical formulas in its weighted
    coefficients a0..a4."""
    a0, a1, a2, a3, a4 = q.a
    i_ = a0 * a4 - GaussRat(4) * a1 * a3 + GaussRat(3) * a2 * a2
    j_ = (a0 * a2 * a4 + GaussRat(2) * a1 * a2 * a3
          - a0 * a3 * a3 - a1 * a1 * a4 - a2 * a2 * a2)
    return i_, j_


def matrix_to_quartic(m):
    """Sum_ij A_ij u_i u_j with u = (x^2, xy, y^2), as a binary quartic."""
    a = m.a
    two = GaussRat(2)
    plain = (
        a.entry(0, 0),
        two * a.entry(0, 1),
        two * a.entry(0, 2) + a.entry(1, 1),
        two * a.entry(1, 2),
        a.entry(2, 2),
    )
    return BinaryQuartic.from_plain(plain)


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
    m = zeros(n, n)
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
    in the Darboux frame of e_plus: its basis followed by the omega-dual
    Lagrangian complement.  Symplectic by construction; checked."""
    from hksym.symplectic import lagrangian_complement

    n = e_plus.dim
    frame = lagrangian_complement(e_plus)
    block = [list(row) + [ZERO] * n for row in t_small.data]
    block += [[ZERO] * n + list(row) for row in inverse(t_small.transpose()).data]
    embedded = frame @ Matrix(block) @ inverse(frame)
    omega = e_plus.ambient.omega
    assert embedded.transpose() @ omega @ embedded == omega
    return embedded


def zeros(nrows, ncols):
    return Matrix([[ZERO] * ncols for _ in range(nrows)])


def embed_gl_eplus(frame, a_small):
    """Canonical embedding gl(E_+) -> sp(E): A on E_+, -A^t on the dual
    complement, i.e. P blockdiag(A, -A^t) P^-1 for the Darboux frame P of
    E_+; checked to preserve omega."""
    n = frame.nrows // 2
    assert a_small.nrows == a_small.ncols == n
    block = [list(row) + [ZERO] * n for row in a_small.data]
    block += [[ZERO] * n + list(row) for row in (-a_small.transpose()).data]
    embedded = frame @ Matrix(block) @ inverse(frame)
    assert is_in_sp(SymplecticSpace(n), embedded)
    return embedded


def aut_basis_by_embedding(s, e_plus):
    """The echelon basis of {A in gl(E_+) | A . S = 0}, A . S taken as
    sp_action of embed_gl_eplus(P, A) on S, over the elementary matrices."""
    from hksym.symplectic import lagrangian_complement

    n = e_plus.dim
    frame = lagrangian_complement(e_plus)
    images = []
    for i in range(n):
        for j in range(n):
            small = [[ZERO] * n for _ in range(n)]
            small[i][j] = ONE
            images.append(sp_action(embed_gl_eplus(frame, Matrix(small)), s))
    monomials = sorted(set(a for img in images for a in img.coeffs))
    index = {m: i for i, m in enumerate(monomials)}
    cols = []
    for img in images:
        col = [ZERO] * max(len(monomials), 1)
        for a, c in img.coeffs.items():
            col[index[a]] = c
        cols.append(col)
    _, kernel, _ = rank_kernel(Matrix(cols).transpose())
    return [Matrix([list(v[i * n:(i + 1) * n]) for i in range(n)]) for v in echelon_basis(kernel)]


def binary_quartic_tensor(q, space, basis_pair):
    """The BinaryQuartic q as a quartic on space in the variables basis_pair."""
    x = SymTensor.linear(space, basis_pair[0])
    y = SymTensor.linear(space, basis_pair[1])
    out = SymTensor.zero(space, 4)
    for k, c in enumerate(q.plain()):
        if c:
            out = out + ((x ** (4 - k)) * (y ** k)).scale(c)
    return out


def in_span(sub, v):
    """Whether the vector v lies in the Subspace sub."""
    return len(echelon_basis(list(sub.basis) + [tuple(v)])) == sub.dim


def binary_quartic_by_frame(s, basis):
    """The quartic s on span(basis), in the variables of the basis pair.

    P = lagrangian_complement(Subspace(space, basis)) is the Darboux frame
    whose first two columns are the pair, and in_frame(s, P) is s in its
    coordinates: its coefficient at p_1^a p_2^b is the plain coefficient at
    x^a y^b.  ContractError when the pair does not span a Lagrangian plane
    (from lagrangian_complement) or s is not supported there (from
    in_frame).
    """
    frame = lagrangian_complement(Subspace(s.space, basis))
    plain = [ZERO] * 5
    for alpha, c in in_frame(s, frame).coeffs.items():
        plain[alpha[1]] = c
    return BinaryQuartic.from_plain(plain)


def realify(v):
    """A complex tuple as one real row [Re v | Im v]."""
    return (tuple(z.real_part() for z in v)
            + tuple(ZERO if z.is_real else z.imag_part() for z in v))


def unrealify(row):
    """Inverse of realify: the complex tuple whose real row is row."""
    half = len(row) // 2
    return tuple(from_parts(x, y) for x, y in zip(row[:half], row[half:]))


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


def _generator_table(j, table):
    """{(k, l): ([m_k, m_l], [m_k, m_{d+l}])} for k <= l as quadratics, from
    J[k][l] = S_{je_k,e_l} = sum_m (je_k)_m S_{e_m,e_l}, summed as quadratics:
    [m_k, m_l] = J[l][k] - J[k][l] and [m_k, m_{d+l}] = -i (J[l][k] + J[k][l])."""
    sp = j.ambient
    d = sp.dim
    entries = {pair: quadratic(sp, v) for pair, v in table.items()}
    jt = []
    for k in range(d):
        jk = j.apply(sp.basis_vector(k))
        jt.append([sum((table_entry(entries, m, l).scale(c) for m, c in enumerate(jk) if c),
                       SymTensor.zero(sp, 2)) for l in range(d)])
    return {(k, l): (jt[l][k] - jt[k][l], (jt[l][k] + jt[k][l]).scale(-I_UNIT))
            for k in range(d) for l in range(k, d)}


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


def real_holonomy_from_generators(gens, j):
    """RREF basis of the real span of the complex matrices gens, eliminated
    over Q as [Re | Im] rows; asserts that every element commutes with j."""
    dim = j.ambient.dim
    c = j.c_matrix
    rows = [realify(flatten(g)) for g in gens if not g.is_zero()]
    basis = [unflatten(unrealify(v), dim) for v in echelon_basis(rows)]
    for a in basis:
        assert a @ c == c @ a.conj(), "real holonomy element does not commute with j"
    return basis


def flatten(m):
    """A matrix as one row: its rows laid end to end."""
    return tuple(e for row in m.data for e in row)


def unflatten(v, n):
    """The n x n matrix whose rows laid end to end are v: the inverse of flatten."""
    return Matrix([list(v[i * n:(i + 1) * n]) for i in range(n)])


def quadratic(space, v):
    """The quadratic B whose endomorphism A_B has S^2E coordinates v: with
    A = s2e_matrix(v, dim E), A[i][m] = w_m M_{i m'} for the symmetric matrix
    M of B (symtensor's module docstring), so M_{ik} = w_{k'} A[i][k'], and
    B = sum_{i, k} M_{ik} e_i e_k."""
    d, n = space.dim, space.n
    a = s2e_matrix(v, d)
    coeffs = {}
    for i in range(d):
        for k in range(i, d):
            dual = (k + n) % d
            m = a.entry(i, dual) if dual < n else -a.entry(i, dual)
            coeffs[tuple((u == i) + (u == k) for u in range(d))] = m if i == k else m + m
    return SymTensor(space, 2, coeffs)


def sigma_reference(a, j):
    """sigma(A) = C conj(A) C^-1 = -C conj(A C), as C^-1 = -conj(C); A
    commutes with j, A C = C conj(A), exactly when sigma(A) = A."""
    c = j.c_matrix
    return -(c @ (a @ c).conj())


def sp_action_reference(a, t):
    """A . t = - sum over the monomials e^alpha of t of
    alpha_k A_{lk} e^(alpha - e_k + e_l), one GaussRat term at a time;
    ContractError for an A outside sp(E)."""
    space = t.space
    if not is_in_sp(space, a):
        raise ContractError("endomorphism is not in sp(E)")
    out = {}
    for alpha, c in t.coeffs.items():
        for k, e in enumerate(alpha):
            if not e:
                continue
            ec = GaussRat(e) * c
            for l in range(space.dim):
                alk = a.entry(l, k)
                if not alk:
                    continue
                key = list(alpha)
                key[k] -= 1
                key[l] += 1
                key = tuple(key)
                out[key] = out.get(key, ZERO) - ec * alk
    return SymTensor(space, t.degree, out)


def double_contractions_by_contraction(s):
    """Yield ((k, l), S_{e_k,e_l}) for k <= l in lexicographic order, each as
    double_contraction_endo(s, e_k, e_l)."""
    sp = s.space
    basis = [sp.basis_vector(k) for k in range(sp.dim)]
    for k in range(sp.dim):
        for l in range(k, sp.dim):
            yield (k, l), double_contraction_endo(s, basis[k], basis[l])


def support_columns_by_contraction(t):
    """The columns of endo_of_quadratic of t contracted against every
    multiset of d - 2 basis vectors, in lexicographic order."""
    sp = t.space
    columns = []
    for combo in combinations_with_replacement(range(sp.dim), t.degree - 2):
        cur = t
        for k in combo:
            cur = contract(cur, sp.basis_vector(k))
        columns += endo_of_quadratic(cur).transpose().data
    return columns


def certify_invariance_all_entries(s):
    """(witness, table, support, h_rows) by checking S_{e_k,e_l} . S = 0 on
    every entry of double_contractions_by_contraction in lexicographic order.
    A rejection gives its first violating pair and None for the rest; an
    invariant quartic gives witness None, the full table, the column span of
    all entries and the RREF of all flattened entries."""
    table = {}
    for pair, endo in double_contractions_by_contraction(s):
        if not sp_action_reference(endo, s).is_zero():
            return pair, None, None, None
        table[pair] = endo
    rows = echelon_basis([flatten(m) for m in table.values()])
    columns = [m.col(k) for m in table.values() for k in range(s.space.dim)]
    return None, table, span(s.space, columns), tuple(rows)


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


def rref_reference(rows):
    """In-place reduced row echelon form; returns pivot column list."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * e for e in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def transform_reference(t, m):
    """Push-forward of t along the invertible linear map with matrix m.

    Each generator e_k is substituted by the linear form of the k-th column
    of m, i.e. (m . t)(v_1 ... v_d) = (m v_1) ... (m v_d) on decomposables.
    """
    sp = t.space
    if m.nrows != sp.dim or m.ncols != sp.dim:
        raise ContractError("transform matrix has wrong size")
    images = [SymTensor.linear(sp, m.col(k)) for k in range(sp.dim)]
    power_cache = {}

    def image_power(k, e):
        if (k, e) not in power_cache:
            power_cache[(k, e)] = images[k] ** e
        return power_cache[(k, e)]

    result = SymTensor.zero(sp, t.degree)
    for alpha, c in t.coeffs.items():
        term = SymTensor.monomial(sp, (0,) * sp.dim, c)
        for k, e in enumerate(alpha):
            if e:
                term = term * image_power(k, e)
        result = result + term
    return result


def tau_reference(t, j):
    """The real structure (tau T)(x_1..x_d) = conj(T(j x_1, ..., j x_d)).

    Reassembled through the polarization (not by conjugating coefficients), so
    it is correct for quaternionic structures not aligned with the basis.
    Antilinear and involutive on even degrees.
    """
    if t.degree % 2:
        raise ContractError("tau needs even degree")
    sp = t.space
    d = t.degree
    if d == 0:
        c = t.coeffs.get((0,) * sp.dim, ZERO)
        return SymTensor(sp, 0, {(0,) * sp.dim: c.conjugate()} if c else {})
    # j applied to the vector u_k with omega(u_k, .) the k-th coordinate
    j_dual = [j.apply(omega_sharp_dense(unit_vec(sp.dim, k))) for k in range(sp.dim)]
    out = {}

    def sweep(node, start, alpha, depth):
        if depth == d:
            c = node.coeffs.get((0,) * sp.dim, ZERO)
            if c:
                w = GaussRat(Fraction(factorial(d), prod(factorial(e) for e in alpha)))
                out[tuple(alpha)] = c.conjugate() * w
            return
        if node.is_zero():
            return
        for k in range(start, sp.dim):
            alpha[k] += 1
            sweep(contract(node, j_dual[k]), k, alpha, depth + 1)
            alpha[k] -= 1

    sweep(t, 0, [0] * sp.dim, 0)
    return SymTensor(sp, d, out)


def real_algebra_by_generators(q, j, h_basis):
    """The real form g = h^tau + (H(x)E)^rho of an InvariantQuartic q for j,
    with h_basis = real_holonomy(q, check_reality(q.s, j, q.table)), built
    from the generator table and verified by verify_model.

    [h, m] acts each element of h_basis as a matrix on real_m_basis(j);
    the [m, m] brackets are the generator table's, read through a SpanSolver
    of h_basis's realified S^2E rows; the metric is omega on the pairs (x, y)
    and is checked real.
    """
    sp = q.s.space
    dim_e = sp.dim

    def m_coords(v):
        if v[dim_e:] != j.apply(v[:dim_e]):
            raise TheoremViolationError("h does not preserve the real form (bug signal)")
        return {i: c for i, c in enumerate(realify(v[:dim_e])) if c}

    m_brackets = {}
    for (k, l), pair in _generator_table(j, q.table).items():
        a, b = map(s2e_coords, pair)
        if k < l:
            m_brackets[(k, l)] = m_brackets[(dim_e + k, dim_e + l)] = a
            m_brackets[(l, dim_e + k)] = b
        m_brackets[(k, dim_e + l)] = b
    m_basis = real_m_basis(j)
    h_rows = list(h_basis)
    dim_h, dim_m = len(h_rows), len(m_basis)
    dim = dim_h + dim_m
    labels = ["K%d" % (i + 1) for i in range(dim_h)] + ["M%d" % (i + 1) for i in range(dim_m)]
    brackets = [[{} for _ in range(dim)] for _ in range(dim)]
    pairs = [(w[:dim_e], w[dim_e:]) for w in m_basis]
    solver = SpanSolver([realify(v) for v in h_rows])

    def put(a, b, coords):
        brackets[a][b] = coords
        brackets[b][a] = {k: -c for k, c in coords.items()}

    for i, v in enumerate(h_rows):
        a_mat = s2e_matrix(v, dim_e)
        for t, (x, y) in enumerate(pairs):
            image = mat_vec(a_mat, x) + mat_vec(a_mat, y)
            put(i, dim_h + t, {dim_h + r: c for r, c in m_coords(image).items()})
    for (t, t2), c in m_brackets.items():
        if any(c):
            coords = solver.coords(realify(c))
            if coords is None:
                raise TheoremViolationError("bracket value escaped the holonomy span (bug signal)")
            put(dim_h + t, dim_h + t2, {i: x for i, x in enumerate(coords) if x})
    metric = Matrix([[omega_pair(sp, x, y2) - omega_pair(sp, y, x2) for x2, y2 in pairs]
                     for x, y in pairs])
    model = LieAlgebraModel(labels, dim_h, dim_m, brackets, metric)
    verify_model(model)
    if not all(g.is_real for row in metric.data for g in row):
        raise TheoremViolationError("metric restriction is not real (bug signal)")
    return model


def restrict_to_basis(t, vectors):
    """Coefficients of t in the symmetric powers of the given vectors.

    Solves the exact linear system expressing t as sum_b c_b * prod v_i^b_i
    over multi-indices b of degree t.degree; ContractError when t is not in
    the span (i.e. not supported in the subspace).
    """
    sp = t.space
    r = len(vectors)
    betas = []
    for combo in combinations_with_replacement(range(r), t.degree):
        beta = [0] * r
        for k in combo:
            beta[k] += 1
        betas.append(tuple(beta))
    # e_i -> v_i for i < r, every other generator -> 0
    onto = Matrix([[v[l] for v in vectors] + [ZERO] * (sp.dim - r) for l in range(sp.dim)])
    pad = (0,) * (sp.dim - r)
    expansions = [transform(SymTensor.monomial(sp, b + pad), onto) for b in betas]
    monomials = sorted(set(t.coeffs).union(*(poly.coeffs for poly in expansions)))
    index = {a: i for i, a in enumerate(monomials)}
    cols = []
    for poly in expansions:
        col = [ZERO] * len(monomials)
        for a, c in poly.coeffs.items():
            col[index[a]] = c
        cols.append(col)
    rhs = [ZERO] * len(monomials)
    for a, c in t.coeffs.items():
        rhs[index[a]] = c
    sol = solve_linear(Matrix(cols).transpose(), tuple(rhs))
    if sol is None:
        raise ContractError("tensor is not supported in the given subspace")
    # certify: the parametrized expansion reproduces t exactly
    check = SymTensor.zero(sp, t.degree)
    for poly, c in zip(expansions, sol):
        if c:
            check = check + poly.scale(c)
    if check != t:
        raise ContractError("restriction certification failed")
    return dict(zip(betas, sol))


def quartic_from_dict_reference(data):
    """The quartic of a record {"n", "degree", "coeffs"}, each exponent
    checked by record_int and each multi-index again by SymTensor."""
    n, degree, raw = record_fields(data, "quartic", ("n", "degree", "coeffs"))
    n = record_int(n, "quartic", "n")
    check_size(n)
    degree = record_int(degree, "quartic", "degree")
    if not isinstance(raw, list):
        raise ContractError("malformed quartic record: coeffs must be a list")
    if degree != 4:
        raise ContractError("quartic file must have degree 4")
    sp = SymplecticSpace(n)
    coeffs = {}
    for k, item in enumerate(raw):
        if not (isinstance(item, dict) and isinstance(item.get("monomial"), list)
                and isinstance(item.get("value"), str)):
            raise ContractError("malformed quartic record: coeffs[%d] must be an object with "
                                "a list 'monomial' and a string 'value'" % k)
        unknown = [key for key in item if key not in ("monomial", "value")]
        if unknown:
            raise ContractError("malformed quartic record: coeffs[%d] has an unknown key %r"
                                % (k, unknown[0]))
        alpha = tuple(record_int(a, "quartic", "monomial exponent") for a in item["monomial"])
        if len(alpha) != sp.dim or any(a < 0 for a in alpha) or sum(alpha) != 4:
            raise ContractError("bad monomial %r" % (alpha,))
        value = GaussRat.parse(item["value"])
        if alpha in coeffs:
            raise ContractError("duplicate monomial %r" % (alpha,))
        if value:
            coeffs[alpha] = value
    return SymTensor(sp, 4, coeffs)


def verify_jacobi_reference(model):
    """Exhaustive exact Jacobi check over every triple a < b < c, in
    lexicographic order; returns (ok, witness_triple_labels) at the first
    nonzero Jacobiator [a, [b, c]] - [b, [a, c]] + [c, [a, b]]."""
    for a, b, c in combinations(range(model.dim), 3):
        acc = {}
        for f, u, v in ((ONE, a, model.brackets[b][c]),
                        (MINUS_ONE, b, model.brackets[a][c]),
                        (ONE, c, model.brackets[a][b])):
            for k, x in model.bracket_vectors({u: ONE}, v).items():
                acc[k] = acc.get(k, ZERO) + f * x
        if any(acc.values()):
            return False, tuple(model.basis_labels[i] for i in (a, b, c))
    return True, None
