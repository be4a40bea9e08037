"""Construction and verification of the symmetric Lie algebra g = h + H(x)E
attached to an invariant quartic, with holonomy, curvature, support-based flat
splitting and the automorphism algebra.

Every object here is read off S's coefficients.  certify_invariance(s)
certifies invariance by an isotropic support Sigma with S in S^4(Sigma) (or
finds the first S_{e_k,e_l} with S_{e_k,e_l} . S != 0: a nonzero value of
the action modulo a prime at one point certifies it, and the exact action
decides where that value is zero), reads the table of double contractions
S_{e_k,e_l} (S's middle catalecticant, see symtensor) as S^2E coordinates,
and certifies h = span of the table = S^2(Sigma) by a rank modulo a prime,
or eliminates the table.  It returns an InvariantQuartic:
the quartic, the table, the basis of h and the support.
The stages take that certificate (or what they consume of it) explicitly:
holonomy(q) reads the basis of h, find_lagrangian(q) extends the support,
flat_decomposition(q) splits off the flat factor along the Darboux frame of
that extension, build_complex_algebra(q, hol) reads the [m, m] brackets
off the table, and at n = 2 dim8.classify_complex8(q) reads the binary
quartic off S's coefficients at the support's pivots, so an analysis builds
no Darboux frame.  compute_aut(s, e_plus) lets gl(E_+) act on S written in
the Darboux frame of E_+ (symtensor.in_frame).
An element of sp(E) becomes a matrix (symtensor.s2e_matrix) only where it
acts: the reject path, which evaluates it on S, and the holonomy's basis,
which acts as [h, m].

H is the fixed plane with basis h, h', omega_H(h, h') = 1 and j_H h = h',
j_H h' = -h, so H(x)E = E (+) E: an element of H(x)E is a flat tuple (x, y)
of length 2 dim E standing for h(x)x + h'(x)y (index a * dim E + k holds
h_a (x) e_k).  Every formula involving H is then a signed swap of the two
copies of E, and the bracket data is the one the quartic dictates:
  [h, h]              = 0                              (h with h: h kills the
                        isotropic support, which holds the image of h),
  [A, (x, y)]         = (Ax, Ay)                       (h with m),
  [(x, y), (x', y')]  = S_{x,y'} - S_{y,x'}            (m with m),
  g((x, y), (x', y')) = omega(x, y') - omega(y, x')    (the metric on m),
  rho(x, y)           = (-jy, jx)                      (the real structure),
so the real form is m = (H(x)E)^rho = {(x, jx)}.  As h = [m, m], the [m, m]
brackets are the holonomy generators.  build_complex_algebra assembles the
algebra from h's basis and the table, and certifies it with verify_model.
The real form (realform.build_real_algebra) is this complex bracket in a
real C-basis of g, so it inherits Jacobi, antisymmetry, grading and the
metric's h-invariance from that one certificate.
"""

from typing import NamedTuple, Optional

from .exactnum import (
    ContractError,
    MINUS_ONE,
    Matrix,
    ONE,
    SpanSolver,
    TheoremViolationError,
    ZERO,
    _add_into,
    _dict_neg,
    echelon_basis,
    extend_rref,
    hermitian_inertia,
    modular_rank,
    rank_kernel,
)
from .symplectic import (
    Subspace,
    extend_to_lagrangian,
    lagrangian_complement,
    omega_pair,
)
from .symtensor import (
    action_residue,
    double_contractions,
    gradient_residues,
    in_frame,
    s2e_matrix,
    sp_action,
    support_columns,
    symmetric_square,
    tensor_in_subspace_power,
)


class NotHyperKahlerError(Exception):
    """The quartic fails the invariance condition; carries the witness pair."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__("quartic is not invariant under its double contractions; "
                         "witness basis pair %s" % (witness,))


class HolonomyData(NamedTuple):
    basis: tuple
    dimension: int
    is_abelian: bool
    is_solvable: bool
    derived_series_lengths: tuple


class InvariantQuartic(NamedTuple):
    """Certificate that the quartic s is invariant: S_{e,e'} . S = 0.

    table maps (k, l), k <= l, to S_{e_k,e_l} in lexicographic order, as
    S^2E coordinate tuples; h_rows is the canonical RREF basis of h = span of
    those entries, as coordinate tuples; support is support(s), with its
    canonical RREF basis.  Two facts about the support are certified, and
    together they imply invariance: it is isotropic, and S lies in
    S^4(support).  So S lies in S^4 of every subspace holding the support, a
    Lagrangian extension of it included.
    Built only by certify_invariance; every later stage reads it instead of
    contracting S, eliminating the table or checking the support again.
    Like the other report types it is a NamedTuple: it compares by value,
    and is not hashable, as its table is a dict.
    """

    s: object
    table: dict
    h_rows: tuple
    support: Subspace


def certify_invariance(s):
    """The InvariantQuartic of s, or NotHyperKahlerError with the first witness.

    The support columns (symtensor.support_columns) are reduced by an
    echelon of the support; one that raises its rank is paired by omega
    with those kept before it, and a nonzero pairing goes to _reject.
    Accept: with S in S^4(support), every S_{x,y} lies in S^2(support) and
    kills the isotropic support, so S_{x,y} . S = 0.  The table's rank at
    the pivots of the RREF of S^2(support), modulo a prime, is at most
    dim h; if it is dim S^2(support), h_rows is that RREF.  Otherwise
    (petrov:I, or a rank that drops modulo the prime) the table is
    eliminated.  The accept path writes out no matrix.
    """
    if s.degree != 4:
        raise ContractError("invariance check needs a quartic")
    sp = s.space
    sigma, pivots, kept = [], [], []
    for col in support_columns(s):
        if not extend_rref(sigma, pivots, col):
            continue
        if any(omega_pair(sp, x, col) for x in kept):
            _reject(s, double_contractions(s))
        kept.append(col)
    support = Subspace(sp, sigma)
    if not tensor_in_subspace_power(s, support):
        raise TheoremViolationError("S is not contained in S^4 of its support")
    table = dict(double_contractions(s))
    rows, pivots = [], []
    for v in symmetric_square(support):
        extend_rref(rows, pivots, v)
    # an element of S^2(support) is determined by its entries at the pivots
    if modular_rank(([v[k] for k in pivots] for v in table.values()), len(rows)) < len(rows):
        rows, pivots = [], []
        for v in table.values():
            extend_rref(rows, pivots, v)
    return InvariantQuartic(s, table, tuple(map(tuple, rows)), support)


def _reject(s, entries):
    """Raise NotHyperKahlerError at the first failing entry, testing on S
    only the entries that raise the rank of those before them (A . S is
    linear).  Each such A is first evaluated modulo P at one point
    (symtensor.action_residue, from the gradient of S there, computed once):
    a nonzero residue proves A . S != 0, and only a zero residue leaves the
    verdict to the exact action sp_action(A, S)."""
    dim = s.space.dim
    gradient = gradient_residues(s)
    rows, pivots = [], []
    for pair, v in entries:
        if extend_rref(rows, pivots, v):
            a = s2e_matrix(v, dim)
            if action_residue(a, gradient) or not sp_action(a, s).is_zero():
                raise NotHyperKahlerError(pair)
    raise TheoremViolationError("support of an invariant quartic is not isotropic")


def check_invariance(s):
    """Whether S_{e,e'} . S = 0 for all basis pairs.

    Returns (True, None) or (False, witness) with the first violating pair of
    basis indices in lexicographic order.
    """
    try:
        certify_invariance(s)
    except NotHyperKahlerError as exc:
        return False, exc.witness
    return True, None


def holonomy(q):
    """Holonomy data: the span h of the double contractions S_{e,e'} in sp(E),
    read off the basis certify_invariance eliminated.

    h is abelian, and no bracket is computed: every A in h lies in sp(E) and
    maps E into the support, which certify_invariance certified isotropic, so
    omega(Ax, y) = -omega(x, Ay) = 0 for x in the support and all y.  A thus
    kills the support, which holds the image of every B in h: AB = 0.
    """
    dim = q.s.space.dim
    basis = tuple(s2e_matrix(v, dim) for v in q.h_rows)
    return HolonomyData(
        basis=basis,
        dimension=len(basis),
        is_abelian=True,
        is_solvable=True,
        derived_series_lengths=(len(basis), 0) if basis else (0,),
    )


# ---------------------------------------------------------------------------
# Lie algebra models.
# ---------------------------------------------------------------------------


class LieAlgebraModel:
    """Finite-dimensional algebra with labeled basis, exact structure constants
    and an invariant metric on the m-part.

    Basis order is h-part then m-part; brackets[a][b] is the coordinate dict
    of [x_a, x_b] over the full basis.
    """

    __slots__ = ("basis_labels", "dim_h", "dim_m", "brackets", "metric_on_m")

    def __init__(self, basis_labels, dim_h, dim_m, brackets, metric_on_m):
        self.basis_labels = tuple(basis_labels)
        self.dim_h = dim_h
        self.dim_m = dim_m
        if len(self.basis_labels) != dim_h + dim_m:
            raise ContractError("label count does not match dim h + dim m")
        self.brackets = brackets
        self.metric_on_m = metric_on_m

    @property
    def dim(self):
        return self.dim_h + self.dim_m

    def bracket_vectors(self, u, v):
        """Bilinear extension of the bracket to coordinate dicts."""
        out = {}
        for a, ca in u.items():
            for b, cb in v.items():
                _add_into(out, self.brackets[a][b], ca * cb)
        return out


def verify_antisymmetry(model):
    for a in range(model.dim):
        for b in range(a, model.dim):
            if model.brackets[b][a] != _dict_neg(model.brackets[a][b]):
                return False, (model.basis_labels[a], model.basis_labels[b])
    return True, None


def verify_grading(model):
    """[h,h] in h, [h,m] in m, [m,m] in h, read off the structure constants."""
    dh = model.dim_h
    for a in range(model.dim):
        for b in range(model.dim):
            both_h = a < dh and b < dh
            both_m = a >= dh and b >= dh
            for k in model.brackets[a][b]:
                if (both_h or both_m) and k >= dh:
                    return False, (model.basis_labels[a], model.basis_labels[b])
                if not (both_h or both_m) and k < dh:
                    return False, (model.basis_labels[a], model.basis_labels[b])
    return True, None


def verify_jacobi(model):
    """Exhaustive exact Jacobi check; returns (ok, witness_triple_labels).

    The triples a < b < c are walked in lexicographic order, but only those
    whose Jacobiator can be nonzero are evaluated: with P(a) the set of
    partners x_b with [x_a, x_b] != 0, read off the structure constants
    once, a pair with [a, b] != 0 evaluates every c > b, and a pair with
    [a, b] = 0 only the c > b in P(a) | P(b).  A skipped triple has
    [a, b] = [b, c] = [a, c] = 0, so each of the three terms
    [a, [b, c]], [b, [a, c]] and [c, [a, b]] is zero on its own, and the
    first failing triple, the witness, is never skipped.
    """
    dim = model.dim
    partners = [{b for b, v in enumerate(row) if v} for row in model.brackets]
    for a in range(dim):
        ua = {a: ONE}
        for b in range(a + 1, dim):
            ub = {b: ONE}
            ab = model.brackets[a][b]
            if ab:
                cs = range(b + 1, dim)
            else:
                cs = sorted(c for c in partners[a] | partners[b] if c > b)
            for c in cs:
                uc = {c: ONE}
                acc = model.bracket_vectors(ua, model.brackets[b][c])
                _add_into(acc, model.bracket_vectors(ub, model.brackets[a][c]), MINUS_ONE)
                _add_into(acc, model.bracket_vectors(uc, ab))
                if acc:
                    return False, (
                        model.basis_labels[a],
                        model.basis_labels[b],
                        model.basis_labels[c],
                    )
    return True, None


def verify_metric(model):
    """Metric G on m must be symmetric, nondegenerate and h-invariant.

    h-invariance is certified as M_a = ad_a^t G + G ad_a = 0 on m for each
    x_a of h's basis, M_a[x][y] = g([x_a, x], y) + g(x, [x_a, y]), read over
    the nonzeros: each c at key k of [x_a, x] times each nonzero G[k][y] is
    added at (x, y) and, as G is symmetric, at (y, x).  That is one product
    per nonzero of ad_a and of G's row, so O(nnz(ad_h)) for the block metric
    of build_complex_algebra, whose rows have one nonzero each.  The witness
    is the smallest failing (x, y) of the smallest failing a; a key of
    [x_a, x] in h (ad_a leaving m) fails every (x, y) and (y, x).
    """
    g = model.metric_on_m
    if g.nrows != model.dim_m or g.ncols != model.dim_m:
        return False, "metric size"
    if g != g.transpose():
        return False, "metric not symmetric"
    rank, _, _ = rank_kernel(g)
    if rank != model.dim_m:
        return False, "metric degenerate"
    dh = model.dim_h
    g_rows = [[(y, c) for y, c in enumerate(row) if c] for row in g.data]
    for a in range(dh):
        m_a, failing = {}, []
        for x, ax in enumerate(model.brackets[a][dh:]):
            for k, c in ax.items():
                if k < dh:
                    # the least of the (x, y) and (y, x) this key fails
                    failing.append((0, x))
                    continue
                for y, gy in g_rows[k - dh]:
                    t = c * gy
                    m_a[x, y] = m_a.get((x, y), ZERO) + t
                    m_a[y, x] = m_a.get((y, x), ZERO) + t
        failing += [xy for xy, s in m_a.items() if s]
        if failing:
            return False, "metric not h-invariant at (%d, %d, %d)" % ((a,) + min(failing))
    return True, None


def verify_model(model):
    """All LieAlgebraModel invariants; raises TheoremViolationError on failure."""
    for check, name in (
        (verify_antisymmetry, "antisymmetry"),
        (verify_grading, "grading"),
        (verify_jacobi, "jacobi"),
        (verify_metric, "metric"),
    ):
        ok, witness = check(model)
        if not ok:
            raise TheoremViolationError("%s failed: %s" % (name, witness))
    return True


def build_complex_algebra(q, hol):
    """The complex symmetric decomposition g = h + H(x)E of an InvariantQuartic,
    certified by verify_model.

    h = holonomy(q) acts by hol.basis's matrices: [A, h_a (x) e_k] is column
    k of A in copy a.  The [m, m] brackets [h(x)e_k, h'(x)e_l] = S_{e_k,e_l}
    are read through one SpanSolver of q.h_rows, once per table key k <= l,
    as S_{e_k,e_l} = S_{e_l,e_k}.  The metric is the block matrix
    [[0, Omega], [-Omega, 0]] of g((x, y), (x', y')) = x^t Omega y' - y^t Omega x'.
    [h, h] stays zero (see holonomy); verify_jacobi checks that zero
    independently, as each triple (A, B, x) with x moved by A or B evaluates
    A(Bx) - B(Ax) against it (if neither moves x, both terms are zero).
    """
    sp = q.s.space
    dim_e, dim_h = sp.dim, hol.dimension
    dim_m = 2 * dim_e
    labels = ["k%d" % (i + 1) for i in range(dim_h)]
    labels += ["h%d*%s" % (a, sp.basis_labels[k]) for a in (1, 2) for k in range(dim_e)]
    brackets = [[{} for _ in range(dim_h + dim_m)] for _ in range(dim_h + dim_m)]
    solver = SpanSolver(q.h_rows)

    def put(a, b, coords):
        brackets[a][b] = coords
        brackets[b][a] = _dict_neg(coords)

    # [h, m]: [A, (x, y)] = (Ax, Ay)
    for i, a_mat in enumerate(hol.basis):
        for t in range(dim_m):
            copy, k = divmod(t, dim_e)
            column = enumerate(a_mat.col(k), dim_h + copy * dim_e)
            put(i, dim_h + t, {r: c for r, c in column if c})
    for (k, l), v in q.table.items():
        coords = solver.coords(v)
        if coords is None:
            raise TheoremViolationError("bracket value escaped the holonomy span (bug signal)")
        if any(coords):
            coords = {i: c for i, c in enumerate(coords) if c}
            put(dim_h + k, dim_h + dim_e + l, coords)
            put(dim_h + l, dim_h + dim_e + k, coords)
    zero = (ZERO,) * dim_e
    metric = Matrix([zero + row for row in sp.omega.data]
                    + [tuple(-c for c in row) + zero for row in sp.omega.data])
    model = LieAlgebraModel(labels, dim_h, dim_m, brackets, metric)
    verify_model(model)
    return model


def curvature_ricci(model):
    """Exact Ricci trace-form on m, as a matrix.

    Ric(x, y) = trace(z -> R(z, x) y) with R(x, y) z = -[[x, y], z]; the
    bracket is the curvature, so everything reads off structure constants.
    The metric is not checked here: verify_model certified it when the
    model was built.
    """
    dh, dm = model.dim_h, model.dim_m
    ric = []
    for x in range(dm):
        row = []
        for y in range(dm):
            trace = ZERO
            for z in range(dm):
                # the z-coefficient of [[z, x], y] = sum_a c_a [x_a, y]
                for a, c in model.brackets[dh + z][dh + x].items():
                    t = model.brackets[a][dh + y].get(dh + z)
                    if t:
                        trace = trace - c * t
            row.append(trace)
        ric.append(row)
    return Matrix(ric)


def find_lagrangian(q):
    """A Lagrangian E_+ with S in S^4 E_+, extended from the support of an
    InvariantQuartic: certify_invariance certified the support isotropic and
    S in S^4(support), which lies in S^4 E_+."""
    return extend_to_lagrangian(q.support)


def flat_decomposition(q):
    """Split E = E^1 (+) E^0 with the flat directions in E^0.

    find_lagrangian(q) extends the support's basis, so the Darboux frame P
    lagrangian_complement completes it to starts with the support: E^1 is
    spanned by the support's columns of P and their duals, E^0 by the rest.
    P^t Omega P = Omega, certified there, makes P invertible, gives each
    piece the standard Gram and makes the two pieces omega-orthogonal, so
    the split needs no certificate of its own; E^1_+ is the support, so S in
    S^4 E^1_+ is the InvariantQuartic's own certificate.
    Returns (e1, e0, flat_complex_dim) where the flat complex dimension counts
    the H (x) E^0 block, i.e. 2 dim E^0.
    """
    sp = q.s.space
    n, r = sp.n, q.support.dim
    cols = lagrangian_complement(find_lagrangian(q)).transpose().data
    e1 = Subspace(sp, cols[:r] + cols[n:n + r])
    e0 = Subspace(sp, cols[r:n] + cols[n + r:])
    return e1, e0, 2 * e0.dim


def compute_aut(s, e_plus):
    """Echelonized basis of aut(S) = {A in gl(E_+) | A . S = 0}, as n x n
    matrices in the coordinates of the e_plus basis.

    With P = lagrangian_complement(e_plus), A acts on S' = in_frame(s, P)
    as blockdiag(A, -A^t) in sp(E).  As sp_action(P B P^-1, S) =
    P . sp_action(B, S') and P . is injective, that is the kernel of A on S
    through the extension P blockdiag(A, -A^t) P^-1, and the echelon basis
    of a kernel is canonical.  ContractError (from in_frame) when S is not
    supported in e_plus.
    """
    n = e_plus.dim
    restricted = in_frame(s, lagrangian_complement(e_plus))
    images = []
    for i in range(n):
        for j in range(n):
            block = [[ZERO] * (2 * n) for _ in range(2 * n)]
            block[i][j], block[n + j][n + i] = ONE, MINUS_ONE
            images.append(sp_action(Matrix(block), restricted))
    # one row per monomial of the images (one zero row if there is none)
    monomials = sorted(set(a for img in images for a in img.coeffs)) or [None]
    rows = [[img.coeffs.get(a, ZERO) for img in images] for a in monomials]
    _, kernel, _ = rank_kernel(Matrix(rows))
    return [Matrix([v[i * n:(i + 1) * n] for i in range(n)]) for v in echelon_basis(kernel)]


# ---------------------------------------------------------------------------
# Aggregate analysis.
# ---------------------------------------------------------------------------


class AnalysisReport(NamedTuple):
    invariance_ok: bool
    invariance_witness: Optional[tuple] = None
    holonomy: Optional[HolonomyData] = None
    support_dim: Optional[int] = None
    support_isotropic: Optional[bool] = None
    lagrangian_found: Optional[Subspace] = None
    flat_complex_dim: Optional[int] = None
    jacobi_ok: Optional[bool] = None
    ricci_zero: Optional[bool] = None
    reality: Optional[dict] = None
    signature: Optional[tuple] = None
    classification: Optional[str] = None

    def to_dict(self):
        hol = None
        if self.holonomy is not None:
            hol = {
                "dimension": self.holonomy.dimension,
                "is_abelian": self.holonomy.is_abelian,
                "is_solvable": self.holonomy.is_solvable,
                "derived_series_lengths": list(self.holonomy.derived_series_lengths),
                "basis": [m.to_strings() for m in self.holonomy.basis],
            }
        return {
            "invariance_ok": self.invariance_ok,
            "invariance_witness": list(self.invariance_witness) if self.invariance_witness else None,
            "holonomy": hol,
            "support_dim": self.support_dim,
            "support_isotropic": self.support_isotropic,
            "lagrangian_found": self.lagrangian_found.to_strings() if self.lagrangian_found else None,
            "flat_complex_dim": self.flat_complex_dim,
            "jacobi_ok": self.jacobi_ok,
            "ricci_zero": self.ricci_zero,
            "reality": self.reality,
            "signature": list(self.signature) if self.signature else None,
            "classification": self.classification,
        }


def analyze_quartic(s, j=None):
    """Run the full verification pipeline; reality/signature only for a given j.

    The report mirrors the pipeline: invariance -> holonomy -> support and
    Lagrangian -> algebra (Jacobi) -> Ricci -> optionally reality, real
    algebra, signature -> dim-8 classification when n = 2.  The flat
    factor's dimension is counted off the support, with no split built, and
    the classification reads the binary quartic off S's coefficients at the
    support's pivots, so an analysis builds no Darboux frame.
    """
    try:
        q = certify_invariance(s)
    except NotHyperKahlerError as exc:
        return AnalysisReport(invariance_ok=False, invariance_witness=exc.witness)
    hol = holonomy(q)
    e_plus = find_lagrangian(q)
    # verify_model certifies Jacobi and the metric (or raises) while the
    # algebra is built, so jacobi_ok holds once the model exists
    model = build_complex_algebra(q, hol)
    ricci = curvature_ricci(model)
    reality = signature = classification = None
    if j is not None:
        from . import realform

        rep = realform.check_reality(s, j, q.table)
        reality = {
            "commutator_condition_ok": rep.commutator_condition_ok,
            "tau_fixed": rep.tau_fixed,
            "equivalent": rep.equivalent,
            "real_holonomy_dim": None,
            "signature_on_m": None,
        }
        if rep.commutator_condition_ok:
            h_real = realform.real_holonomy(q, rep)
            # the complex bracket in a real C-basis of g: Jacobi and the
            # metric's h-invariance are inherited from model's certificate,
            # and only real-valuedness is checked here
            real_model = realform.build_real_algebra(q, model, rep, h_real)
            p, n, z = hermitian_inertia(real_model.metric_on_m)
            if z:
                raise TheoremViolationError("degenerate real metric")
            signature = (p, n)
            reality["real_holonomy_dim"] = len(h_real)
            reality["signature_on_m"] = [p, n]
    if s.space.n == 2:
        from . import dim8

        classification = dim8.classify_complex8(q).type_tag
    return AnalysisReport(
        invariance_ok=True,
        holonomy=hol,
        support_dim=q.support.dim,
        # certify_invariance raised unless the support is isotropic
        support_isotropic=True,
        lagrangian_found=e_plus,
        # 2 dim E^0 of every flat split, with dim E^0 = 2(n - dim support)
        flat_complex_dim=4 * (s.space.n - q.support.dim),
        jacobi_ok=True,
        ricci_zero=ricci.is_zero(),
        reality=reality,
        signature=signature,
        classification=classification,
    )
