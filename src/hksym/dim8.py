"""Orbit classification in dimensions 4 and 8: binary quartic invariants,
the quartic <-> traceless 3x3 dictionary, and the Petrov types and real
positive-scaling rotation invariants read off its operator.

A binary quartic is kept in the classical weighted form
a0 x^4 + 4 a1 x^3 y + 6 a2 x^2 y^2 + 4 a3 x y^3 + a4 y^4, so the two classical
invariants are I = a0 a4 - 4 a1 a3 + 3 a2^2 and
J = a0 a2 a4 + 2 a1 a2 a3 - a0 a3^2 - a1^2 a4 - a2^3.  The operator G^{-1} A
of quartic_to_matrix has characteristic polynomial t^3 - I t - 2J, so I and
J are read off it; its Jordan type is the Petrov letter, which fixes the
root-multiplicity pattern, and over the reals the same polynomial is the
complete orbit invariant, so both classes are read off one operator,
exactly and with no root extracted.
A quartic on dim E = 4 is classified from the InvariantQuartic that
certify_invariance returns, which has proved S in S^4 of the support.  The
binary quartic is then read off S's own coefficients at the pivots of the
support's RREF basis (support_quartic), with no frame, solve or
push-forward; the real class rewrites it in a j-adapted basis (v, jv) by
one substitution (adapted_quartic).
"""

from fractions import Fraction
from math import comb
from typing import NamedTuple, Optional

from .exactnum import (
    ContractError,
    GaussRat,
    I_UNIT,
    Matrix,
    ONE,
    ZERO,
    _pivots,
    inverse,
)
from .symtensor import tau
from .hkalgebra import TheoremViolationError, certify_invariance
from .realform import RealityError


_HALF = GaussRat(Fraction(1, 2))

# Module constant G for the 3-space W = S^2 C^2 in the basis (x^2, x v y, y^2).
# The volume form sigma(x, y) = 1 induces the covariant invariant form
#   <x^2, y^2> = 1, <xy, xy> = -1/2, everything else 0,
# and G is fixed as its INVERSE, so that for a contravariant symmetric tensor
# A (the matrix with f = sum A_ij u_i u_j) the invariant trace functional is
# literally trace(G^{-1} A) and the equivariant operator on W is G^{-1} A.
# (Taking G to be the covariant Gram itself would make trace(G^{-1}A) cut a
# non-invariant slice; explicit quartics with a double root then classify
# inconsistently between the two sides.)
GRAM = Matrix([
    [ZERO, ZERO, ONE],
    [ZERO, GaussRat(-2), ZERO],
    [ONE, ZERO, ZERO],
])
GRAM_INV = inverse(GRAM)  # the covariant form: [[0,0,1],[0,-1/2,0],[1,0,0]]

# the real slice of W for the real structure a j-adapted basis induces, as
# columns r1 = u1 + u3, r2 = i u1 - i u3, r3 = i u2 (classify_real8)
REAL_SLICE = Matrix([
    [ONE, I_UNIT, ZERO],
    [ZERO, ZERO, I_UNIT],
    [ONE, -I_UNIT, ZERO],
])
REAL_SLICE_INV = inverse(REAL_SLICE)

# root multiplicities of each Petrov type on the projective line
_TYPE_TO_PATTERN = {
    "I": (1, 1, 1, 1),
    "II": (2, 1, 1),
    "D": (2, 2),
    "III": (3, 1),
    "N": (4,),
    "O": (),
}


class BinaryQuartic:
    """Classical weighted binary quartic with exact Q(i) coefficients."""

    __slots__ = ("a",)

    def __init__(self, a0, a1, a2, a3, a4):
        object.__setattr__(self, "a", (a0, a1, a2, a3, a4))

    def __setattr__(self, name, value):
        raise AttributeError("BinaryQuartic is immutable")

    def __eq__(self, other):
        return isinstance(other, BinaryQuartic) and self.a == other.a

    def __repr__(self):
        return "BinaryQuartic(%s)" % (", ".join(str(c) for c in self.a))

    @classmethod
    def from_plain(cls, c):
        """From plain polynomial coefficients (of x^4, x^3y, x^2y^2, xy^3, y^4)."""
        four = GaussRat(4)
        six = GaussRat(6)
        return cls(c[0], c[1] / four, c[2] / six, c[3] / four, c[4])

    def plain(self):
        a0, a1, a2, a3, a4 = self.a
        return (a0, GaussRat(4) * a1, GaussRat(6) * a2, GaussRat(4) * a3, a4)

    def is_zero(self):
        return all(not c for c in self.a)


class PetrovClass(NamedTuple):
    type_tag: str
    multiplicity_pattern: tuple
    projective_invariant: Optional[tuple]  # normalized (I^3 : J^2) for type I

    def to_dict(self):
        return {
            "type": self.type_tag,
            "pattern": list(self.multiplicity_pattern),
            "invariant": (
                [str(self.projective_invariant[0]), str(self.projective_invariant[1])]
                if self.projective_invariant
                else None
            ),
        }


def classify_quartic(q):
    """PetrovClass of a binary quartic, read off op = G^{-1} A (_petrov_class)."""
    return _petrov_class(quartic_to_matrix(q).operator())


def _petrov_class(op):
    """PetrovClass of the operator op = G^{-1} A of a binary quartic.

    The characteristic polynomial of op is t^3 - I t - 2J, with discriminant
    4 (I^3 - 27 J^2).  Three distinct eigenvalues give type I, whose
    invariant is the canonical projective pair (I^3 : J^2) scaled so its
    first nonzero entry is 1.  When I = 0 (so J = 0) op is nilpotent, and it
    and its square separate O, N and III; otherwise the double eigenvalue is
    lam = -3J/I, and op is diagonalizable (D) exactly when
    (op - lam)(op + 2 lam) = 0, else II.
    """
    c0, c1, _ = _char_poly_3(op)
    inv_i, inv_j = -c1, -c0 * _HALF
    i3, j2 = inv_i * inv_i * inv_i, inv_j * inv_j
    proj = None
    if i3 != GaussRat(27) * j2:
        tag = "I"
        proj = (ONE, j2 / i3) if i3 else (ZERO, ONE)  # (0 : 1) is "at infinity"
    elif not inv_i:
        tag = "O" if op.is_zero() else "N" if (op @ op).is_zero() else "III"
    else:
        lam = -(GaussRat(3) * inv_j) / inv_i
        ident = Matrix.identity(3)
        split = (op - ident.scale(lam)) @ (op + ident.scale(GaussRat(2) * lam))
        tag = "D" if split.is_zero() else "II"
    return PetrovClass(tag, _TYPE_TO_PATTERN[tag], proj)


# ---------------------------------------------------------------------------
# The quartic <-> traceless symmetric 3x3 dictionary.
# ---------------------------------------------------------------------------


class TracelessSym3:
    """Symmetric 3x3 matrix over Q(i) with trace(G^{-1} A) = 0."""

    __slots__ = ("a",)

    def __init__(self, a):
        if a.nrows != 3 or a.ncols != 3:
            raise ContractError("need a 3x3 matrix")
        if a != a.transpose():
            raise ContractError("matrix is not symmetric")
        tr = ZERO
        op = GRAM_INV @ a
        for k in range(3):
            tr = tr + op.entry(k, k)
        if tr:
            raise ContractError("matrix is not G-traceless")
        object.__setattr__(self, "a", a)

    def __setattr__(self, name, value):
        raise AttributeError("TracelessSym3 is immutable")

    def operator(self):
        """The endomorphism G^{-1} A of the 3-space; for a binary quartic its
        characteristic polynomial is t^3 - I t - 2J, its Jordan type the class."""
        return GRAM_INV @ self.a

    def __eq__(self, other):
        return isinstance(other, TracelessSym3) and self.a == other.a


def quartic_to_matrix(q):
    """The G-traceless symmetric A with q = Sum_ij A_ij u_i u_j for
    u = (x^2, xy, y^2) (exact, unique).

    The trace condition A22 = 4 A13 combined with 2 A13 + A22 = c2 forces
    A13 = c2/6 and A22 = 2c2/3; in weighted coefficients the slice matrix is
    [[a0, 2a1, a2], [2a1, 4a2, 2a3], [a2, 2a3, a4]], whose operator
    G^{-1} A is (the transpose of) the classical contraction operator
    [[a2, -a1, a0], [2a3, -2a2, 2a1], [a4, -a3, a2]].
    """
    a0, a1, a2, a3, a4 = q.a
    two = GaussRat(2)
    rows = [
        [a0, two * a1, a2],
        [two * a1, GaussRat(4) * a2, two * a3],
        [a2, two * a3, a4],
    ]
    return TracelessSym3(Matrix(rows))


def _char_poly_3(m):
    """t^3 + c2 t^2 + c1 t + c0 of a 3x3 matrix, exactly."""
    tr = m.entry(0, 0) + m.entry(1, 1) + m.entry(2, 2)
    tr2 = sum((m.entry(r, k) * m.entry(k, r) for r in range(3) for k in range(3)), ZERO)
    det = (
        m.entry(0, 0) * (m.entry(1, 1) * m.entry(2, 2) - m.entry(1, 2) * m.entry(2, 1))
        - m.entry(0, 1) * (m.entry(1, 0) * m.entry(2, 2) - m.entry(1, 2) * m.entry(2, 0))
        + m.entry(0, 2) * (m.entry(1, 0) * m.entry(2, 1) - m.entry(1, 1) * m.entry(2, 0))
    )
    c2 = -tr
    c1 = (tr * tr - tr2) * _HALF
    c0 = -det
    return c0, c1, c2


# ---------------------------------------------------------------------------
# Classification entry points on tensors.
# ---------------------------------------------------------------------------


def support_quartic(q):
    """The binary quartic of an InvariantQuartic q on its support, in the
    variables of the support's RREF basis (v_1, v_2).

    certify_invariance proved S = sum_b c_b v_1^(4-b) v_2^b, and that
    expansion is unique.  Each v_i is 1 at its own pivot and 0 at the other
    one, so only c_b reaches the monomial with exponent 4 - b on pivot 0 and
    b on pivot 1: c_b is S's coefficient there.  A support of dim 1 gives
    c x^4, read the same way, and one of dim 0 the zero quartic.  On
    dim E = 4 the isotropic support has dim at most 2; any other dim E is
    refused, as a larger support has no binary quartic to read.
    """
    if q.s.space.dim != 4:
        raise ContractError("dim-8 classification needs dim E = 4")
    plain = [ZERO] * 5
    pivots = _pivots(q.support.basis)
    for b in range(5 if len(pivots) == 2 else len(pivots)):
        alpha = [0] * 4
        alpha[pivots[0]] += 4 - b
        if b:
            alpha[pivots[1]] += b
        plain[b] = q.s.coeffs.get(tuple(alpha), ZERO)
    return BinaryQuartic.from_plain(plain)


def adapted_quartic(q, j):
    """The binary quartic of q on a j-invariant support of dim 2, in the
    j-adapted basis (v_1, j v_1).

    With j v_1 = alpha v_1 + beta v_2, alpha and beta read at the pivots,
    v_2 = a v_1 + b (j v_1) for a = -alpha/beta and b = 1/beta, so the
    support's quartic (support_quartic) is substituted by y -> a x + b y.
    The zero quartic, zero in every basis, has the support {0} and needs no
    adapted basis.  ContractError when the support is a line, or a plane
    that j does not keep.
    """
    rows = q.support.basis
    if not rows:
        return support_quartic(q)
    if len(rows) != 2:
        raise ContractError("support is not j-invariant")
    jv1 = j.apply(rows[0])
    alpha, beta = (jv1[p] for p in _pivots(rows))
    if any(w != alpha * x + beta * y for w, x, y in zip(jv1, *rows)):
        raise ContractError("support is not j-invariant")
    a, b = -alpha / beta, beta.inverse()
    a_pow, b_pow = [ONE], [ONE]
    for _ in range(4):
        a_pow.append(a_pow[-1] * a)
        b_pow.append(b_pow[-1] * b)
    plain = [ZERO] * 5
    for k, c in enumerate(support_quartic(q).plain()):
        if c:
            # c x^(4-k) (a x + b y)^k
            for m in range(k + 1):
                plain[m] = plain[m] + c * GaussRat(comb(k, m)) * a_pow[k - m] * b_pow[m]
    return BinaryQuartic.from_plain(plain)


def classify_complex8(q):
    """PetrovClass of an InvariantQuartic q on dim E = 4.

    The binary quartic is read off S's coefficients at the support's pivots
    (support_quartic).  The output is independent of the basis it is read
    in: the pattern is a root structure and (I^3 : J^2) is weight-0 under
    GL(2) (I and J scale by det^4 and det^6).  Taking q, not a plane, means
    S is certified to lie in S^4 of the support before it is read.
    ContractError unless dim E = 4.
    """
    return classify_quartic(support_quartic(q))


class RealOrbitClass(NamedTuple):
    """Complete invariant of the real orbit: char poly data of the real operator.

    kind "zero" for the zero matrix; otherwise the triple
    (sign p, sign q, q^2/p^3 when p != 0 else None) for t^3 + p t + q, which
    separates orbits exactly because positive scaling acts by
    (p, q) -> (c^2 p, c^3 q).
    """

    kind: str
    sign_p: Optional[int] = None
    sign_q: Optional[int] = None
    ratio: Optional[GaussRat] = None

    def to_dict(self):
        return {
            "kind": self.kind,
            "sign_p": self.sign_p,
            "sign_q": self.sign_q,
            "ratio": str(self.ratio) if self.ratio is not None else None,
        }


def real_orbit_class_from_char(p, q):
    """Orbit class of a real symmetric traceless operator from t^3 + p t + q.

    Positive scaling acts by (p, q) -> (c^2 p, c^3 q), so the complete
    invariant is the sign pair together with q^2/p^3 (the pair alone would
    identify e.g. diag(1,1,-2) with diag(-1,-1,2), which lie in different
    orbits).
    """
    if not p and not q:
        return RealOrbitClass(kind="zero")
    sign_p = p.real_sign()
    sign_q = q.real_sign()
    ratio = (q * q) / (p * p * p) if p else None
    return RealOrbitClass(kind="nonzero", sign_p=sign_p, sign_q=sign_q, ratio=ratio)


def real_class_of_symmetric(op):
    """RealOrbitClass of a real traceless 3x3 operator, symmetric for the
    Euclidean or another positive definite form, hence diagonalizable: only
    the zero operator has p = q = 0."""
    q0, p1, c2 = _char_poly_3(op)
    if c2:
        raise ContractError("real operator is not traceless")
    cls = real_orbit_class_from_char(p1, q0)
    if cls.kind == "zero" and not op.is_zero():
        raise ContractError("real symmetric operator nilpotent but nonzero")
    return cls


def classify_real8(q, j):
    """(PetrovClass, RealOrbitClass) of a tau-fixed InvariantQuartic q at
    m = 1, both read off one operator.

    The quartic is read in a j-adapted basis (v, jv) of the support
    (adapted_quartic) and carried to the operator on W = S^2 of it.  Its
    PetrovClass is the one classify_complex8 reads in the support's RREF
    basis: the letter and pattern are root structures and (I^3 : J^2) has
    weight 0.
    tau-fixedness makes the operator commute with the induced real
    structure on W, so it restricts to a real matrix on the real slice
    spanned by (x^2 + y^2, i(x^2 - y^2), ixy) (certified exactly).  There it
    is self-adjoint for the positive definite restriction of the invariant
    form, hence orthogonally diagonalizable, and its characteristic data
    (p, q) is the complete positive-scaling rotation invariant.  A quartic
    that is not tau-fixed for j raises RealityError.
    """
    s = q.s
    if s.space.dim != 4:
        raise ContractError("real dim-8 classification needs dim E = 4")
    if tau(s, j) != s:
        raise RealityError("real classification needs a tau-fixed quartic")
    op = quartic_to_matrix(adapted_quartic(q, j)).operator()
    op_r = REAL_SLICE_INV @ op @ REAL_SLICE
    for row in op_r.data:
        for e in row:
            if not e.is_real:
                raise TheoremViolationError("operator of a tau-fixed quartic does not "
                                            "restrict to the real slice (bug signal)")
    return _petrov_class(op), real_class_of_symmetric(op_r)


def isomorphic8(s1, s2, j=None):
    """Whether two quartics define isomorphic dim-8 symmetric spaces.

    Certifies both and compares the full classification records, and the
    real classes for j when j is given.
    """
    records = []
    for s in (s1, s2):
        q = certify_invariance(s)
        records.append(classify_complex8(q) if j is None else classify_real8(q, j))
    return records[0] == records[1]
