"""Complex symplectic vector spaces, isotropic/Lagrangian machinery and
quaternionic structures.

Conventions fixed here and inherited by everything downstream:

* (E, omega) is always in standard form: basis p_1..p_n, q_1..q_n with
  omega(p_a, q_b) = delta_ab and omega vanishing on p's and q's separately.
  So omega(x, .) is the covector (-x_q, x_p), and omega is applied only
  through omega_flat(x) = omega(x, .); the dense matrix Omega (row k is
  omega_flat(e_k)) is kept only for matrix identities: C^t Omega C =
  conj(Omega), P^t Omega P = Omega for the Darboux frame P of
  lagrangian_complement, and the metric [[0, Omega], [-Omega, 0]] on H(x)E
  in hkalgebra.
* E is the only symplectic space here.  The plane H of g = h + H(x)E is
  written out as formulas on pairs (x, y) in E (+) E in hkalgebra.
* The pairing <v, omega x> := omega(x, v), so that the coordinate p paired
  against q gives p_q = omega(q, p) = -1.
* A quaternionic structure j is the antilinear map v -> C . conj(v) with
  C conj(C) = -1 and C^t Omega C = conj(Omega).
"""

from functools import lru_cache

from .exactnum import (
    ContractError,
    GaussRat,
    LiteralTooLongError,
    Matrix,
    ONE,
    TheoremViolationError,
    ZERO,
    echelon_basis,
    extend_rref,
    is_rref,
    mat_vec,
    rank_kernel,
    solve_linear,
    unit_vec,
    vec_conj,
)


def omega_flat(x):
    """The covector omega(x, .) = (-x_q, x_p) of a vector x = (x_p, x_q)."""
    n = len(x) // 2
    return tuple(-c for c in x[n:]) + tuple(x[:n])


class SymplecticSpace:
    """E = C^(2n) with the standard symplectic form and basis p_1..p_n, q_1..q_n."""

    __slots__ = ("n", "dim", "omega", "basis_labels")

    def __init__(self, n):
        if n < 1:
            raise ContractError("need n >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dim", 2 * n)
        # omega(x, y) = x^t Omega y: row k of Omega is omega(e_k, .)
        omega = Matrix([omega_flat(unit_vec(2 * n, k)) for k in range(2 * n)])
        object.__setattr__(self, "omega", omega)
        labels = ["p%d" % (i + 1) for i in range(n)] + ["q%d" % (i + 1) for i in range(n)]
        object.__setattr__(self, "basis_labels", tuple(labels))

    def __setattr__(self, name, value):
        raise AttributeError("SymplecticSpace is immutable")

    def __eq__(self, other):
        return isinstance(other, SymplecticSpace) and self.n == other.n

    def __hash__(self):
        return hash(("SymplecticSpace", self.n))

    def basis_vector(self, k):
        return unit_vec(self.dim, k)


def omega_pair(sp, x, y):
    """omega(x, y), the covector omega_flat(x) applied to y."""
    if len(x) != sp.dim or len(y) != sp.dim:
        raise ContractError("vector length does not match dim E = %d" % sp.dim)
    return sum((a * b for a, b in zip(omega_flat(x), y) if a and b), ZERO)


class Subspace:
    """A subspace of E given by an explicit exactly-independent basis."""

    __slots__ = ("ambient", "basis", "_echelon")

    def __init__(self, ambient, basis):
        basis = tuple(tuple(v) for v in basis)
        for v in basis:
            if len(v) != ambient.dim:
                raise ContractError("basis vector length does not match ambient")
        # a basis in reduced row echelon form is its own canonical echelon basis
        ech = basis if is_rref(basis) else echelon_basis(basis)
        if len(ech) != len(basis):
            raise ContractError("subspace basis is not linearly independent")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_echelon", tuple(ech))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self):
        return len(self.basis)

    def echelon(self):
        return self._echelon

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self._echelon == other._echelon
        )

    def __hash__(self):
        return hash((self.ambient, self._echelon))

    def to_strings(self):
        return [[str(c) for c in v] for v in self.basis]


def span(ambient, vectors):
    """Subspace spanned by the vectors, with canonical echelonized basis."""
    return Subspace(ambient, echelon_basis(vectors))


def is_isotropic(sub):
    """True iff omega vanishes on all basis pairs of the subspace."""
    sp = sub.ambient
    b = sub.basis
    for i in range(len(b)):
        for j in range(i + 1, len(b)):
            if omega_pair(sp, b[i], b[j]):
                return False
    return True


def omega_perp(sub):
    """The omega-orthogonal {x : omega(x, v) = 0 for all v in the subspace}."""
    sp = sub.ambient
    if sub.dim == 0:
        return span(sp, [sp.basis_vector(k) for k in range(sp.dim)])
    # omega(x, v) = -omega(v, x): one constraint row omega_flat(v) per v
    rows = [omega_flat(v) for v in sub.basis]
    _, kernel, _ = rank_kernel(Matrix(rows))
    return span(sp, kernel)


def extend_to_lagrangian(sub):
    """Greedy deterministic extension of an isotropic subspace to a Lagrangian,
    whose basis starts with the input's basis, unchanged.

    Standard basis vectors are tried in order first and kept when they
    preserve isotropy and independence.  For non-coordinate inputs that sweep
    routinely stalls below dimension n, so the completion continues with the
    first new vector of the omega-orthogonal complement of the current span,
    recomputed each round: any such vector extends isotropically, and the
    perp is strictly larger than an isotropic span of dimension < n, so the
    loop always terminates at a Lagrangian.  Fully deterministic either way.
    """
    sp = sub.ambient
    if not is_isotropic(sub):
        raise ContractError("extend_to_lagrangian needs an isotropic subspace")
    current = list(sub.basis)
    # one RREF of the current span, grown by each vector that raises its rank
    rows, pivots = [], []
    for v in current:
        extend_rref(rows, pivots, v)
    for v in (sp.basis_vector(k) for k in range(sp.dim)):
        if len(current) == sp.n:
            break
        if all(not omega_pair(sp, v, w) for w in current) and extend_rref(rows, pivots, v):
            current.append(v)
    while len(current) < sp.n:
        perp = omega_perp(Subspace(sp, rows)).echelon()
        fresh = next((v for v in perp if extend_rref(rows, pivots, v)), None)
        if fresh is None:
            raise ContractError("failed to complete isotropic subspace to a Lagrangian")
        current.append(fresh)
    out = Subspace(sp, current)
    if not is_isotropic(out):
        raise TheoremViolationError("extend_to_lagrangian produced a non-isotropic subspace")
    return out


def lagrangian_complement(lag):
    """The deterministic Darboux frame that completes a Lagrangian's basis.

    Returns the 2n x 2n matrix P whose columns are the given basis f of the
    input, unchanged, and then its dual basis g: omega(f_i, g_j) = delta_ij
    and omega(g_i, g_j) = 0, so span(g) is a Lagrangian complement.  Each g_k
    is the canonical solution of the corresponding exact linear system, and
    the frame is certified once by P^t Omega P = Omega.
    """
    sp = lag.ambient
    n = sp.n
    if lag.dim != n or not is_isotropic(lag):
        raise ContractError("lagrangian_complement needs a Lagrangian input")
    f = list(lag.basis)
    g = []
    f_rows = [omega_flat(fi) for fi in f]
    for k in range(n):
        # one constraint omega(v, x) = omega_flat(v) . x per v in f, then g
        rows = f_rows + [omega_flat(gj) for gj in g]
        rhs = [ONE if i == k else ZERO for i in range(n)] + [ZERO] * len(g)
        sol = solve_linear(Matrix(rows), tuple(rhs))
        if sol is None:
            raise ContractError("symplectic completion failed (corrupt input)")
        g.append(sol)
    frame = Matrix(f + g).transpose()
    if frame.transpose() @ sp.omega @ frame != sp.omega:
        raise TheoremViolationError("lagrangian_complement produced a non-symplectic frame")
    return frame


class QuaternionicStructure:
    """Antilinear j(v) = C . conj(v) with j^2 = -1 and omega(jx, jy) = conj(omega(x, y))."""

    __slots__ = ("ambient", "c_matrix")

    def __init__(self, ambient, c_matrix):
        if c_matrix.nrows != ambient.dim or c_matrix.ncols != ambient.dim:
            raise ContractError("c_matrix must be %dx%d" % (ambient.dim, ambient.dim))
        c = c_matrix
        if not (c @ c.conj() + Matrix.identity(ambient.dim)).is_zero():
            raise ContractError("j^2 = -1 fails: C conj(C) != -I")
        if c.transpose() @ ambient.omega @ c != ambient.omega.conj():
            raise ContractError("omega compatibility fails: C^t Omega C != conj(Omega)")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "c_matrix", c)

    def __setattr__(self, name, value):
        raise AttributeError("QuaternionicStructure is immutable")

    def apply(self, v):
        return mat_vec(self.c_matrix, vec_conj(v))


@lru_cache(maxsize=None)
def standard_split_j(sp):
    """The default quaternionic structure: the split E_+ = span(p), E_- = span(q).

    q is already omega-dual to p, so j pairs consecutive coordinates of each
    half by (z1, z2) -> (-conj(z2), conj(z1)), and C is the signed
    permutation C[k][k+1] = -1, C[k+1][k] = 1 for even k.
    QuaternionicStructure still checks j^2 = -1 and the omega compatibility,
    once per n: the result is built once per process for each n (spaces
    compare by n) and shared, as QuaternionicStructure is immutable.
    The tests check it against the oracle in tests/oracles.py that builds j
    from any Lagrangian split, here (span(p), span(q)).
    """
    if sp.dim % 4 != 0:
        raise ContractError(
            "no compatible default quaternionic structure: dim E = %d is not "
            "divisible by 4 (supply --j)" % sp.dim
        )
    rows = [[ZERO] * sp.dim for _ in range(sp.dim)]
    for k in range(0, sp.dim, 2):
        rows[k][k + 1] = -ONE
        rows[k + 1][k] = ONE
    return QuaternionicStructure(sp, Matrix(rows))


# JSON records: a malformed record is refused with one ContractError naming
# the record kind and the field, never coerced.


def record_fields(data, record, keys):
    """The values of the keys of a JSON object, in order; the object must
    hold every one of them and no other."""
    if not isinstance(data, dict):
        raise ContractError("malformed %s record: expected an object" % record)
    missing = [key for key in keys if key not in data]
    if missing:
        raise ContractError("malformed %s record: missing %s" % (record, ", ".join(missing)))
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise ContractError("malformed %s record: unknown key %r" % (record, unknown[0]))
    return [data[key] for key in keys]


# the largest n a quartic may have (dim E = 2n): analyze on
# random-lagrangian:n (seed 7) takes 1.4-2.5 s, 3.6-4.1 s and 6.8-7.7 s at
# n = 12, 14 and 16 on a 2-vCPU Xeon VM (Python 3.11, each run a fresh
# process, three runs), most of it in the Jacobi check; the time grows
# about fourfold from n = 12 to 16, so a larger quartic is refused
# outright.  The bound was timed on random-lagrangian inputs only: at the
# same n a scrambled quartic (dense, with tall coefficients) takes far
# longer, 7.3-9.5 s against 0.06-0.07 s at n = 6 after 3 transvections
# (random_symplectic(sp, Random(7), steps=3)), and real-random:6 (seed 3)
# with --real 1.8-2.2 s at n = 12
MAX_N = 16


def check_size(n):
    """Refuse n > MAX_N with a ContractError; called before a space of
    dimension 2n, whose omega is a dense (2n)^2 matrix, is built."""
    if n > MAX_N:
        raise ContractError("n = %d exceeds the size limit n <= %d" % (n, MAX_N))


def record_int(value, record, what):
    """A JSON integer field; floats, strings and booleans are refused."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ContractError("malformed %s record: %s must be an integer, got %r"
                            % (record, what, value))
    return value


def record_rows(value, record, what):
    """A JSON list of lists: the rows of a matrix of literals."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ContractError("malformed %s record: %s must be a list of lists" % (record, what))
    return value


def quaternionic_from_json(data, ambient):
    """The quaternionic structure on ambient whose c_matrix the record holds."""
    (c_matrix,) = record_fields(data, "quaternionic structure", ("c_matrix",))
    rows = record_rows(c_matrix, "quaternionic structure", "c_matrix")
    entries = []
    try:
        for r, row in enumerate(rows):
            entries.append([])
            for c, text in enumerate(row):
                entries[-1].append(GaussRat.parse(text))
    except LiteralTooLongError as exc:
        raise ContractError("malformed quaternionic structure record: c_matrix[%d][%d]: %s"
                            % (r, c, exc)) from None
    return QuaternionicStructure(ambient, Matrix(entries))
