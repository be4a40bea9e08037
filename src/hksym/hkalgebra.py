"""Construction and verification of the symmetric Lie algebra g = h + H(x)E
attached to an invariant quartic, with holonomy, curvature, support-based flat
splitting and the automorphism algebra.

Every object here comes from one table of double contractions S_{e_k,e_l}.
certify_invariance(s) computes it once, checks S_{e_k,e_l} . S = 0 on the
entries that span h = span{S_{e,e'}} and the isotropy of the support, and
returns an InvariantQuartic: the quartic, the table, the basis of h and the
support.  The stages take that certificate (or what they consume of it)
explicitly: holonomy(q) reads the basis of h, find_lagrangian(q) extends the
support, flat_decomposition(q, e_plus) splits off the flat factor, and
build_complex_algebra(q, hol) reads the [m, m] brackets off the table.

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
brackets are the holonomy generators.  One builder, _build_model, assembles
both the complex algebra and its real form (realform.build_real_algebra) from
the bases of h and m, their coordinates and the [m, m] brackets its caller
already holds: the table entries here, the generator table of check_reality
there.
"""

from dataclasses import dataclass
from typing import Optional

from .exactnum import (
    ContractError,
    MINUS_ONE,
    Matrix,
    ONE,
    SpanSolver,
    TheoremViolationError,
    ZERO,
    _trusted_matrix,
    echelon_basis,
    hermitian_inertia,
    inverse,
    mat_vec,
    rank_kernel,
    unit_vec,
)
from .symplectic import (
    Subspace,
    extend_to_lagrangian,
    is_isotropic,
    lagrangian_complement,
    omega_pair,
    span,
    standard_split_j,
)
from .symtensor import (
    column_span,
    double_contractions,
    is_in_sp,
    sp_action,
    table_entry,
    tensor_in_subspace_power,
)


class NotHyperKahlerError(Exception):
    """The quartic fails the invariance condition; carries the witness pair."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__("quartic is not invariant under its double contractions; "
                         "witness basis pair %s" % (witness,))


def _flatten(m):
    return tuple(e for row in m.data for e in row)


def _unflatten(v, n):
    return _trusted_matrix(tuple(tuple(v[i * n:(i + 1) * n]) for i in range(n)))


@dataclass(frozen=True)
class HolonomyData:
    basis: tuple
    dimension: int
    is_abelian: bool
    is_solvable: bool
    derived_series_lengths: tuple


@dataclass(frozen=True, eq=False)
class InvariantQuartic:
    """Certificate that the quartic s is invariant: S_{e,e'} . S = 0.

    table maps (k, l), k <= l, to S_{e_k,e_l} in lexicographic order;
    h_rows is the canonical RREF basis of h = span of those entries, as
    flattened rows (_flatten); support is the column span of the entries,
    i.e. support(s), certified isotropic: certify_invariance raises
    TheoremViolationError("support of an invariant quartic is not isotropic")
    otherwise, which the structure theorem rules out.  Built only by
    certify_invariance; every later stage reads it instead of contracting S,
    eliminating the table or checking isotropy again.
    """

    s: object
    table: dict
    h_rows: tuple
    support: Subspace


def certify_invariance(s):
    """The InvariantQuartic of s, or NotHyperKahlerError with the first witness.

    The entries S_{e_k,e_l} come in lexicographic order and all go into the
    table.  A . S is linear in A, so an entry in the span of the entries
    before it passes when they do: only the entries that raise the rank are
    acted on S.  The first failing entry always raises the rank, so the
    witness is the first violating pair, and a rejection stops there without
    building the rest of the table.  The echelon kept on the way is the
    basis of h, and the columns of the independent entries span the support,
    whose isotropy is checked here once.
    """
    if s.degree != 4:
        raise ContractError("invariance check needs a quartic")
    table = {}
    independent = []
    h_rows = []
    solver = SpanSolver(h_rows)
    for pair, endo in double_contractions(s):
        table[pair] = endo
        row = _flatten(endo)
        if solver.contains(row):
            continue
        if not sp_action(endo, s).is_zero():
            raise NotHyperKahlerError(pair)
        independent.append(endo)
        h_rows = echelon_basis(h_rows + [row])
        solver = SpanSolver(h_rows)
    sigma = column_span(s.space, independent)
    if not is_isotropic(sigma):
        raise TheoremViolationError("support of an invariant quartic is not isotropic")
    return InvariantQuartic(s, table, tuple(h_rows), sigma)


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
    basis = tuple(_unflatten(v, dim) for v in q.h_rows)
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


def _dict_neg(d):
    return {k: -v for k, v in d.items()}


def _add_into(acc, v, f=ONE):
    """acc += f * v on coordinate dicts, in place, dropping zeros; returns acc."""
    for k, c in v.items():
        val = acc.get(k, ZERO) + f * c
        if val:
            acc[k] = val
        elif k in acc:
            del acc[k]
    return acc


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
    """Exhaustive exact Jacobi check; returns (ok, witness_triple_labels)."""
    dim = model.dim
    for a in range(dim):
        ua = {a: ONE}
        for b in range(a + 1, dim):
            ub = {b: ONE}
            ab = model.brackets[a][b]
            for c in range(b + 1, dim):
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
    """Metric on m must be symmetric, nondegenerate and h-invariant."""
    g = model.metric_on_m
    if g.nrows != model.dim_m or g.ncols != model.dim_m:
        return False, "metric size"
    if g != g.transpose():
        return False, "metric not symmetric"
    rank, _, _ = rank_kernel(g)
    if rank != model.dim_m:
        return False, "metric degenerate"
    dh = model.dim_h
    for a in range(dh):
        for x in range(model.dim_m):
            ax = model.brackets[a][dh + x]  # coordinates in m-part
            for y in range(model.dim_m):
                ay = model.brackets[a][dh + y]
                s = ZERO
                for k, c in ax.items():
                    s = s + c * g.entry(k - dh, y)
                for k, c in ay.items():
                    s = s + c * g.entry(x, k - dh)
                if s:
                    return False, "metric not h-invariant at (%d, %d, %d)" % (a, x, y)
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


def _build_model(sp, labels, h_basis, flat, m_basis, m_coords, m_brackets):
    """The bracket/metric skeleton of g = h + m with m inside H(x)E; verified.

    h_basis are matrices on E with reduced row echelon rows flat(A), in which
    one SpanSolver reads m_brackets = {(t, t2): [m_t, m_t2]}, t < t2 (pairs
    left out bracket to zero).  m_basis are H(x)E tuples (x, y) and
    m_coords(v) the coordinate dict of such a v.  [h, h] stays zero (see
    holonomy); verify_jacobi checks that zero independently, as each triple
    (A, B, m) evaluates [A, B]m against it.
    """
    dim_e = sp.dim
    dim_h, dim_m = len(h_basis), len(m_basis)
    dim = dim_h + dim_m
    brackets = [[{} for _ in range(dim)] for _ in range(dim)]
    pairs = [(w[:dim_e], w[dim_e:]) for w in m_basis]
    solver = SpanSolver([flat(a) for a in h_basis])

    def put(a, b, coords):
        brackets[a][b] = coords
        brackets[b][a] = _dict_neg(coords)

    def h_coords(mat):
        c = solver.coords(flat(mat))
        if c is None:
            raise TheoremViolationError("bracket value escaped the holonomy span (bug signal)")
        return {i: v for i, v in enumerate(c) if v}

    # [h, m]: [A, (x, y)] = (Ax, Ay)
    for i, a_mat in enumerate(h_basis):
        for t, (x, y) in enumerate(pairs):
            image = mat_vec(a_mat, x) + mat_vec(a_mat, y)
            put(i, dim_h + t, {dim_h + r: c for r, c in m_coords(image).items()})
    for (t, t2), c in m_brackets.items():
        if not c.is_zero():
            put(dim_h + t, dim_h + t2, h_coords(c))
    # metric: g((x, y), (x', y')) = omega(x, y') - omega(y, x')
    metric = Matrix([[omega_pair(sp, x, y2) - omega_pair(sp, y, x2) for x2, y2 in pairs]
                     for x, y in pairs])
    model = LieAlgebraModel(labels, dim_h, dim_m, brackets, metric)
    verify_model(model)
    return model


def build_complex_algebra(q, hol):
    """The complex symmetric decomposition g = h + H(x)E of an InvariantQuartic,
    with hol = holonomy(q) as h and the unit tuples h_a (x) e_k as m, whose
    only nonzero [m, m] brackets are [h(x)e_k, h'(x)e_l] = S_{e_k,e_l}."""
    sp = q.s.space
    dim_e = sp.dim
    labels = ["k%d" % (i + 1) for i in range(hol.dimension)]
    for a in (1, 2):
        labels += ["h%d*%s" % (a, sp.basis_labels[k]) for k in range(dim_e)]
    m_basis = [unit_vec(2 * dim_e, i) for i in range(2 * dim_e)]
    m_brackets = {(k, dim_e + l): table_entry(q.table, k, l)
                  for k in range(dim_e) for l in range(dim_e)}
    return _build_model(sp, labels, hol.basis, _flatten, m_basis,
                        lambda v: {i: c for i, c in enumerate(v) if c}, m_brackets)


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
    """A Lagrangian E_+ with S in S^4 E_+, from the support of an InvariantQuartic.

    certify_invariance certified the support isotropic.  Raises
    TheoremViolationError when the membership certificate fails (which the
    structure theorem for invariant quartics rules out).
    """
    e_plus = extend_to_lagrangian(q.support)
    if not tensor_in_subspace_power(q.s, e_plus):
        raise TheoremViolationError("S is not contained in S^4 of the found Lagrangian")
    return e_plus


def flat_decomposition(q, e_plus):
    """Split E = E^1 (+) E^0 with the flat directions in E^0.

    e_plus is the Lagrangian find_lagrangian(q).  E^1_+ is the support, E^0_+
    a deterministic complement of it inside E_+, and the minus-halves are cut
    out of the dual Lagrangian complement by the annihilator conditions.
    Returns (e1, e0, flat_complex_dim) where the flat complex dimension counts
    the H (x) E^0 block, i.e. 2 dim E^0.
    """
    s, sigma = q.s, q.support
    sp = s.space
    # adapted basis of E_+: the support, then the greedy completion, i.e. the
    # pivot columns of the candidates laid side by side
    candidates = list(sigma.echelon()) + list(e_plus.echelon())
    _, _, pivots = rank_kernel(Matrix(candidates).transpose())
    adapted = [candidates[p] for p in pivots]
    e_plus_adapted = Subspace(sp, adapted)
    _, g = lagrangian_complement(e_plus_adapted)
    r = sigma.dim
    e1_vectors = adapted[:r] + g[:r]
    e0_vectors = adapted[r:] + g[r:]
    e1 = Subspace(sp, e1_vectors) if e1_vectors else Subspace.zero(sp)
    e0 = Subspace(sp, e0_vectors) if e0_vectors else Subspace.zero(sp)
    # certificates: complementary, omega-nondegenerate, S supported in e1_+
    if e1.dim + e0.dim != sp.dim:
        raise TheoremViolationError("flat splitting is not complementary")
    if len(echelon_basis(list(e1.basis) + list(e0.basis))) != sp.dim:
        raise TheoremViolationError("flat splitting overlaps")
    for part in (e1, e0):
        if part.dim:
            gram = Matrix([[omega_pair(sp, u, v) for v in part.basis] for u in part.basis])
            rank, _, _ = rank_kernel(gram)
            if rank != part.dim:
                raise TheoremViolationError("flat splitting piece is omega-degenerate")
    if sigma.dim and not tensor_in_subspace_power(s, span(sp, adapted[:r])):
        raise TheoremViolationError("S not supported in E^1_+")
    return e1, e0, 2 * e0.dim


def embed_gl_eplus(e_plus, a_small):
    """Canonical embedding gl(E_+) -> sp(E): A on E_+, -A^t on the dual complement.

    The complement is the deterministic dual Lagrangian (omega(f_i, g_j) =
    delta_ij); in those bases the extension is blockdiag(A, -A^t), which is
    verified to preserve omega before returning.
    """
    n = e_plus.dim
    if a_small.nrows != n or a_small.ncols != n:
        raise ContractError("gl(E_+) matrix has wrong size")
    _, g = lagrangian_complement(e_plus)
    basis_mat = Matrix([list(v) for v in e_plus.basis] + [list(v) for v in g]).transpose()
    block = [list(row) + [ZERO] * n for row in a_small.data]
    block += [[ZERO] * n + list(row) for row in (-a_small.transpose()).data]
    embedded = basis_mat @ Matrix(block) @ inverse(basis_mat)
    if not is_in_sp(e_plus.ambient, embedded):
        raise TheoremViolationError("gl(E_+) embedding failed to preserve omega")
    return embedded


def compute_aut(s, e_plus):
    """Echelonized basis of aut(S) = {A in gl(E_+) | A . S = 0}.

    The returned matrices are n x n in the coordinates of the e_plus basis;
    embed_gl_eplus lifts them to sp(E).
    """
    if not tensor_in_subspace_power(s, e_plus):
        raise ContractError("S is not supported in the given subspace")
    n = e_plus.dim
    images = []
    for flat_index in range(n * n):
        i, j = divmod(flat_index, n)
        small = [[ZERO] * n for _ in range(n)]
        small[i][j] = ONE
        images.append(sp_action(embed_gl_eplus(e_plus, Matrix(small)), s))
    monomials = sorted(set(a for img in images for a in img.coeffs))
    index = {m: i for i, m in enumerate(monomials)}
    height = max(len(monomials), 1)
    cols = []
    for img in images:
        col = [ZERO] * height
        for a, c in img.coeffs.items():
            col[index[a]] = c
        cols.append(col)
    _, kernel, _ = rank_kernel(Matrix(cols).transpose())
    basis = []
    for v in echelon_basis(kernel):
        basis.append(Matrix([list(v[i * n:(i + 1) * n]) for i in range(n)]))
    return basis


# ---------------------------------------------------------------------------
# Aggregate analysis.
# ---------------------------------------------------------------------------


@dataclass
class AnalysisReport:
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


def analyze_quartic(s, j=None, real=False):
    """Run the full verification pipeline; reality/signature only when real=True.

    The report mirrors the pipeline: invariance -> holonomy -> support and
    Lagrangian -> flat splitting -> algebra (Jacobi) -> Ricci -> optionally
    reality, real algebra, signature -> dim-8 classification when n = 2.
    """
    try:
        q = certify_invariance(s)
    except NotHyperKahlerError as exc:
        return AnalysisReport(invariance_ok=False, invariance_witness=exc.witness)
    hol = holonomy(q)
    e_plus = find_lagrangian(q)
    _, _, flat_dim = flat_decomposition(q, e_plus)
    # verify_model certifies Jacobi and the metric (or raises) while the
    # algebra is built, so jacobi_ok holds once the model exists
    model = build_complex_algebra(q, hol)
    ricci = curvature_ricci(model)
    report = AnalysisReport(
        invariance_ok=True,
        holonomy=hol,
        support_dim=q.support.dim,
        # certify_invariance raised unless the support is isotropic
        support_isotropic=True,
        lagrangian_found=e_plus,
        flat_complex_dim=flat_dim,
        jacobi_ok=True,
        ricci_zero=ricci.is_zero(),
    )
    if real:
        from . import realform

        if j is None:
            j = standard_split_j(s.space)
        rep = realform.check_reality(s, j, q.table)
        report.reality = {
            "commutator_condition_ok": rep.commutator_condition_ok,
            "tau_fixed": rep.tau_fixed,
            "equivalent": rep.equivalent,
            "real_holonomy_dim": rep.real_holonomy_dim,
            "signature_on_m": None,
        }
        if rep.commutator_condition_ok:
            real_model = realform.build_real_algebra(q, rep)
            p, n, z = hermitian_inertia(real_model.metric_on_m)
            if z:
                raise TheoremViolationError("degenerate real metric")
            report.signature = (p, n)
            report.reality["signature_on_m"] = [p, n]
    if s.space.n == 2:
        from . import dim8

        report.classification = dim8.classify_complex8(s, e_plus).type_tag
    return report
