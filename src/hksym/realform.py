"""Reality conditions, real holonomy, and the real form g = h + m with
m = (H(x)E)^rho, all over the rational field by realification.

"Real span" computations never leave exact arithmetic: a complex object is
split into real and imaginary coordinate blocks and eliminated over Q, so
every verdict (the commutator condition, tau-fixedness, closure of the real
structure constants, the metric signature) is exact.
"""

from dataclasses import dataclass
from typing import Optional

from .exactnum import (
    ContractError,
    I_UNIT,
    Matrix,
    ONE,
    SpanSolver,
    ZERO,
    echelon_basis,
    from_parts,
)
from .symplectic import RealStructureRho
from .hkalgebra import (
    LieAlgebraModel,
    TheoremViolationError,
    _dict_neg,
    double_contraction_endo,
    omega_pair_h,
    verify_model,
)
from .symtensor import tau


class RealityError(Exception):
    """The quartic fails the reality condition for the given j."""


@dataclass
class RealityReport:
    commutator_condition_ok: bool
    tau_fixed: bool
    equivalent: bool
    real_holonomy_dim: Optional[int] = None
    signature_on_m: Optional[tuple] = None


def _commutes_with_j(a, j):
    """[A, j] = 0 in the antilinear sense: A C = C conj(A)."""
    return (a @ j.c_matrix - j.c_matrix @ a.conj()).is_zero()


def _real_generators(s, j):
    """Spanning set of the real holonomy: S_{je,e'} - S_{e,je'} over basis
    pairs together with the i-scaled companions i(S_{je,e'} + S_{e,je'}).

    Real-bilinear expansion over arbitrary e, e' reduces to exactly these
    generators: replacing e by ie turns the difference generator into the sum
    generator (times a real factor), and (ie, ie') reproduces (e, e').
    """
    sp = s.space
    basis = [sp.basis_vector(k) for k in range(sp.dim)]
    j_basis = [j.apply(b) for b in basis]
    gens = []
    for k in range(sp.dim):
        for l in range(k, sp.dim):
            a = double_contraction_endo(s, j_basis[k], basis[l])
            b = double_contraction_endo(s, basis[k], j_basis[l])
            diff = a - b
            if not diff.is_zero():
                gens.append(diff)
            tot = (a + b).scale(I_UNIT)
            if not tot.is_zero():
                gens.append(tot)
    return gens


def _realify_matrix(m):
    """Flatten a complex matrix into one real row: [Re entries | Im entries]."""
    re_part = []
    im_part = []
    for row in m.data:
        for e in row:
            re_part.append(e.real_part())
            im_part.append(e.imag_part())
    return tuple(re_part + im_part)


def _unrealify_matrix(v, n):
    half = n * n
    rows = []
    for i in range(n):
        row = []
        for jj in range(n):
            k = i * n + jj
            row.append(from_parts(v[k], v[half + k]))
        rows.append(row)
    return Matrix(rows)


def check_reality(s, j):
    """Evaluate the commutator condition and tau-fixedness; they must agree.

    The commutator condition is [S_{je,e'} - S_{e,je'}, j] = 0 over all basis
    pairs; tau-fixedness is tau(S) = S.  Their equivalence is a theorem, so
    disagreement raises instead of being reported as data.
    """
    if s.degree != 4:
        raise ContractError("reality check needs a quartic")
    sp = s.space
    basis = [sp.basis_vector(k) for k in range(sp.dim)]
    j_basis = [j.apply(b) for b in basis]
    commutator_ok = True
    for k in range(sp.dim):
        for l in range(sp.dim):
            a = double_contraction_endo(s, j_basis[k], basis[l])
            b = double_contraction_endo(s, basis[k], j_basis[l])
            if not _commutes_with_j(a - b, j):
                commutator_ok = False
                break
        if not commutator_ok:
            break
    tau_fixed = tau(s, j) == s
    if commutator_ok != tau_fixed:
        raise TheoremViolationError(
            "commutator condition and tau-fixedness disagree (bug signal)"
        )
    report = RealityReport(
        commutator_condition_ok=commutator_ok,
        tau_fixed=tau_fixed,
        equivalent=True,
    )
    if commutator_ok:
        report.real_holonomy_dim = len(real_holonomy(s, j))
    return report


def real_holonomy(s, j):
    """Echelonized basis (over Q, by realification) of the real holonomy span.

    Every returned matrix is certified to commute with j in the antilinear
    sense; the span sits inside the commutant of j in the complex holonomy.
    """
    sp = s.space
    gens = _real_generators(s, j)
    rows = [_realify_matrix(g) for g in gens]
    basis = []
    for v in echelon_basis(rows):
        a = _unrealify_matrix(v, sp.dim)
        if not _commutes_with_j(a, j):
            raise RealityError("real holonomy element does not commute with j")
        basis.append(a)
    return basis


def symmetrize_real(t, j):
    """t + tau(t): the tau-symmetrization, always tau-fixed."""
    if t.degree != 4:
        raise ContractError("symmetrize_real needs a quartic")
    return t + tau(t, j)


def _realify_tensor_coords(coords, dim):
    """H(x)E coordinate dict {(a,k): z} -> real row of length 2*2*dim."""
    out = [ZERO] * (4 * dim)
    for (a, k), z in coords.items():
        idx = a * dim + k
        out[idx] = z.real_part()
        out[2 * dim + idx] = z.imag_part()
    return tuple(out)


def build_real_algebra(s, j_e):
    """The real symmetric decomposition g = h + m, m = (H(x)E)^rho.

    The m basis is the deterministic sweep {v + rho v, i(v - rho v)} over the
    complex basis tensors, echelon-reduced to real dimension 4n; structure
    constants are computed from the complex bracket and certified real; the
    metric is the restriction of omega_H (x) omega_E, certified real
    symmetric.  All model invariants are re-verified before returning.
    """
    rep = check_reality(s, j_e)
    if not rep.commutator_condition_ok:
        raise RealityError("quartic fails the reality condition for this j")
    sp = s.space
    dim_e = sp.dim
    rho = RealStructureRho(j_e)

    h_basis = real_holonomy(s, j_e)
    dim_h = len(h_basis)
    h_solver = SpanSolver([_realify_matrix(a) for a in h_basis])

    def h_coords(mat):
        c = h_solver.coords(_realify_matrix(mat))
        if c is None:
            raise TheoremViolationError("real bracket escaped the real holonomy span")
        for x in c:
            if not x.is_real:
                raise TheoremViolationError("non-real structure constant (bug signal)")
        return {i: v for i, v in enumerate(c) if v}

    # real basis of m: candidates v + rho v and i(v - rho v), kept when they
    # increase the realified rank, until real dimension 4n is reached
    m_basis = []          # complex coordinate dicts {(a, k): GaussRat}
    m_rows = []
    for a in range(2):
        for k in range(dim_e):
            v = {(a, k): ONE}
            rv = rho.apply(v)
            for cand in (_coord_add(v, rv), _coord_scale(I_UNIT, _coord_sub(v, rv))):
                if not cand:
                    continue
                row = _realify_tensor_coords(cand, dim_e)
                if len(echelon_basis(m_rows + [row])) == len(m_rows) + 1:
                    m_basis.append(cand)
                    m_rows.append(row)
    if len(m_basis) != 2 * dim_e:
        raise TheoremViolationError("real form of H(x)E has wrong dimension")
    m_change = SpanSolver(m_rows)

    def m_coords(coords):
        c = m_change.coords(_realify_tensor_coords(coords, dim_e))
        if c is None:
            raise TheoremViolationError("h does not preserve the real form (bug signal)")
        for x in c:
            if not x.is_real:
                raise TheoremViolationError("non-real structure constant (bug signal)")
        return {i: v for i, v in enumerate(c) if v}

    dim_m = 2 * dim_e
    dim = dim_h + dim_m
    labels = ["K%d" % (i + 1) for i in range(dim_h)] + ["M%d" % (i + 1) for i in range(dim_m)]
    brackets = [[{} for _ in range(dim)] for _ in range(dim)]

    def put(a, b, coords):
        brackets[a][b] = coords
        brackets[b][a] = _dict_neg(coords)

    endo_table = {}
    basis_vecs = [sp.basis_vector(k) for k in range(dim_e)]
    for k in range(dim_e):
        for l in range(k, dim_e):
            endo_table[(k, l)] = double_contraction_endo(s, basis_vecs[k], basis_vecs[l])

    def s_endo(k, l):
        return endo_table[(k, l) if k <= l else (l, k)]

    # [h, h]
    for i in range(dim_h):
        for jj in range(i + 1, dim_h):
            put(i, jj, h_coords(h_basis[i] @ h_basis[jj] - h_basis[jj] @ h_basis[i]))
    # [h, m]
    for i in range(dim_h):
        a_mat = h_basis[i]
        for x, w in enumerate(m_basis):
            image = {}
            for (a, k), c in w.items():
                col = a_mat.col(k)
                for l, alk in enumerate(col):
                    if not alk or not c:
                        continue
                    key = (a, l)
                    val = image.get(key, ZERO) + c * alk
                    if val:
                        image[key] = val
                    elif key in image:
                        del image[key]
            coords = {dim_h + t: c for t, c in m_coords(image).items()}
            put(i, dim_h + x, coords)
    # [m, m]
    for x in range(dim_m):
        for y in range(x + 1, dim_m):
            acc = Matrix.zeros(dim_e, dim_e)
            for (a, k), cx in m_basis[x].items():
                for (b, l), cy in m_basis[y].items():
                    wh = omega_pair_h(a, b)
                    if not wh:
                        continue
                    f = wh * cx * cy
                    if f:
                        acc = acc + s_endo(k, l).scale(f)
            coords = h_coords(acc) if not acc.is_zero() else {}
            put(dim_h + x, dim_h + y, coords)

    # metric: restriction of omega_H (x) omega_E; certified real symmetric
    metric_rows = []
    for x in range(dim_m):
        row = []
        for y in range(dim_m):
            g = ZERO
            for (a, k), cx in m_basis[x].items():
                for (b, l), cy in m_basis[y].items():
                    wh = omega_pair_h(a, b)
                    we = sp.omega.entry(k, l)
                    if wh and we:
                        g = g + cx * cy * wh * we
            if not g.is_real:
                raise TheoremViolationError("metric restriction is not real (bug signal)")
            row.append(g)
        metric_rows.append(row)
    metric = Matrix(metric_rows)

    model = LieAlgebraModel(labels, dim_h, dim_m, brackets, metric)
    verify_model(model)
    return model


def _coord_add(u, v):
    out = dict(u)
    for k, c in v.items():
        val = out.get(k, ZERO) + c
        if val:
            out[k] = val
        elif k in out:
            del out[k]
    return out


def _coord_sub(u, v):
    return _coord_add(u, {k: -c for k, c in v.items()})


def _coord_scale(f, u):
    return {k: f * c for k, c in u.items() if f * c}
