"""Reality conditions, real holonomy, and the real form g = h + m with
m = (H(x)E)^rho = {(x, jx)}, exact over Q by realification: a complex object
is split into real and imaginary coordinate blocks and eliminated over Q.

j = C conj acts on sp(E) by the antilinear involution A -> j A j^-1, which on
S^2E = sp(E) is tau, j A_B j^-1 = A_{tau B}, and on S^2E coordinates the map
symtensor.s2e_tau(j).  Write J[k][l] = S_{je_k,e_l} = sum_m (je_k)_m S_{e_m,e_l},
m_k = (e_k, je_k) and m_{d+k} = (ie_k, -i je_k), the basis real_m_basis(j) in
which (x, jx) has the coordinates (Re x, Im x).  For a = J[l][k], b = J[k][l]:
  [m_k, m_l]     = [m_{d+k}, m_{d+l}] = a - b,
  [m_k, m_{d+l}] = [m_l, m_{d+k}]     = -i (a + b).
As tau is antilinear, both are tau-fixed exactly when tau(a) - tau(b) = a - b
and tau(a) + tau(b) = -(a + b), that is when tau(a) = -b and tau(b) = -a: the
commutator condition is tau(J[k][l]) = -J[l][k] for all k, l, and for
k <= l alone, as tau is an involution.  The real holonomy h_R = [m, m] is
then h^tau: it lies in h^tau, and as 2a = [m_k, m_l] + i [m_k, m_{d+l}] and
the je_k are a C-basis, h_R spans h over C, so dim_R h_R >= dim_C h =
dim_R h^tau; real_holonomy reads it off the complex basis of h.
build_real_algebra writes the certified complex model in a real C-basis of
g, so the real model inherits its Jacobi identity.  No matrix is multiplied
here, and no tensor is pushed forward but S, once, for tau(S) = S.

Each real object is computed once and read over its nonzeros: check_reality
builds the tau columns once (s2e_tau, from C's nonzero columns), reads each
table entry once into its nonzeros and sums each J[k][l] over them, and its
report carries j and that tau map, which real_holonomy applies to each row
of h and build_real_algebra does not need.  build_real_algebra reads each
complex structure constant once: the action of each real h element on the
complex m basis, each nonzero [m, m] constant in real h coordinates, and
the metric over its nonzeros.  With a signed permutation C (the default j)
the reality check costs a few products per nonzero of the table; a dense C
multiplies that by the nonzeros of its columns.
"""

from typing import NamedTuple, Optional

from .exactnum import (
    ContractError,
    I_UNIT,
    Matrix,
    ONE,
    SpanSolver,
    ZERO,
    _add_into,
    _dict_neg,
    echelon_basis,
    from_parts,
    inverse,
    unit_vec,
)
from .hkalgebra import LieAlgebraModel, TheoremViolationError
from .symtensor import s2e_tau, table_entry, tau


class RealityError(Exception):
    """The quartic fails the reality condition for the given j."""


class RealityReport(NamedTuple):
    commutator_condition_ok: bool
    tau_fixed: bool
    equivalent: bool
    # the j the report was computed for and s2e_tau(j); not serialized
    j: Optional[object] = None
    tau_map: Optional[object] = None


def _realify(v):
    """A complex tuple as one real row [Re v | Im v]; zeros cost nothing."""
    re_part = tuple(z.real_part() if z else ZERO for z in v)
    im_part = tuple(ZERO if z.is_real else z.imag_part() for z in v)
    return re_part + im_part


def _unrealify(row):
    """Inverse of _realify: the complex tuple whose real row is row."""
    half = len(row) // 2
    return tuple(
        from_parts(x, y) if x or y else ZERO for x, y in zip(row[:half], row[half:])
    )


def _nonzeros(v):
    """The nonzero coordinates of a tuple, as a dict."""
    return {p: x for p, x in enumerate(v) if x}


def _combine(terms):
    """sum c v over the (c, v) of terms, each v a dict of nonzeros, as a dict
    of nonzeros."""
    out = {}
    for c, v in terms:
        _add_into(out, v, c)
    return out


def check_reality(s, j, table):
    """Evaluate the commutator condition and tau-fixedness; they must agree.

    table holds S_{e_k,e_l} for k <= l in S^2E coordinates: an
    InvariantQuartic's table, or dict(double_contractions(s)) for any
    quartic.  The commutator condition [S_{je,e'} - S_{e,je'}, j] = 0 for all
    e, e' in E is real bilinear, and (e_l, e_k) gives [m_k, m_l], (ie_l, e_k)
    gives [m_k, m_{d+l}]: by the antilinearity of tau alone (module
    docstring) it is tau(J[k][l]) = -J[l][k].  As tau is an involution, the
    pair (l, k) states the same as (k, l), so only k <= l are tested.
    Each table entry is read once into its nonzeros, J[k][l] is summed over
    them and the nonzeros of je_k, and tau(J[k][l]) and -J[l][k] are
    compared as nonzeros, that is on the union of their key sets: the cost
    follows the nonzeros of the table, of C and of the tau columns, not the
    d^4 coordinates of the J table.  tau(S) = S pushes S forward once.  The
    equivalence of the two is a theorem, so disagreement raises instead of
    being reported as data.  The report carries j and s2e_tau(j).
    """
    if s.degree != 4:
        raise ContractError("reality check needs a quartic")
    sp, tau_map = j.ambient, s2e_tau(j)
    nonzeros = {key: _nonzeros(v) for key, v in table.items()}
    je = [_nonzeros(j.apply(sp.basis_vector(k))) for k in range(sp.dim)]
    jt = [[_combine((c, table_entry(nonzeros, m, l)) for m, c in je[k].items())
           for l in range(sp.dim)] for k in range(sp.dim)]
    commutator_ok = all(tau_map(jt[k][l]) == _dict_neg(jt[l][k])
                        for k in range(sp.dim) for l in range(k, sp.dim))
    tau_fixed = tau(s, j) == s
    if commutator_ok != tau_fixed:
        raise TheoremViolationError("commutator condition and tau-fixedness disagree (bug signal)")
    return RealityReport(commutator_condition_ok=commutator_ok, tau_fixed=tau_fixed,
                         equivalent=True, j=j, tau_map=tau_map)


def real_holonomy(q, rep):
    """Echelonized basis of h^tau as S^2E coordinate tuples: the real span of
    v + tau(v) and i(v - tau(v)) over the basis q.h_rows of h, eliminated
    realified, for rep = check_reality(q.s, j, q.table) (RealityError if it
    failed), certified tau-fixed and of real dimension dim_C h.  tau is
    rep.tau_map, applied once to each row of h and once to each basis
    element, over their nonzeros."""
    if not rep.commutator_condition_ok:
        raise RealityError("quartic fails the reality condition for this j")
    tau_map, rows = rep.tau_map, []
    for v in q.h_rows:
        tv = tau_map(_nonzeros(v))
        tv = [tv.get(p, ZERO) for p in range(len(v))]
        rows += [_realify([x + y for x, y in zip(v, tv)]),
                 _realify([(x - y) * I_UNIT for x, y in zip(v, tv)])]
    basis = [_unrealify(v) for v in echelon_basis(rows)]
    if any(tau_map(b) != b for b in map(_nonzeros, basis)):
        raise TheoremViolationError("real holonomy element is not tau-fixed (bug signal)")
    if len(basis) != len(q.h_rows):
        raise TheoremViolationError("real holonomy dimension %d is not dim_C h = %d "
                                    "(bug signal)" % (len(basis), len(q.h_rows)))
    return basis


def symmetrize_real(t, j):
    """t + tau(t): the tau-symmetrization, always tau-fixed."""
    if t.degree != 4:
        raise ContractError("symmetrize_real needs a quartic")
    return t + tau(t, j)


def real_m_basis(j):
    """The basis (e_k, je_k), then (ie_k, j(ie_k)), of m = {(x, jx)}, in which
    (x, jx) has the real coordinates (Re x, Im x)."""
    dim_e = j.ambient.dim
    xs = [tuple(c * u for u in unit_vec(dim_e, k)) for c in (ONE, I_UNIT) for k in range(dim_e)]
    return [x + j.apply(x) for x in xs]


def build_real_algebra(q, model, rep, h_basis):
    """The real form g = h + m, m = (H(x)E)^rho = {(x, jx)}, as the complex
    model = build_complex_algebra(q, holonomy(q)) written in a real basis.

    rep = check_reality(q.s, j, q.table) and h_basis = real_holonomy(q, rep).
    The basis, h_basis read over q.h_rows and then real_m_basis(j), is a
    C-basis of g: tau-fixed R-independent elements are C-independent, and so
    are the (x, jx), as j is antilinear.  So Jacobi, antisymmetry, grading
    and the metric's h-invariance hold by model's certificate.  What is
    checked is that the real form is closed and real: the h part of each
    bracket has real coordinates over h_basis (read through one inverse), the
    m part is some (x, jx), with coordinates (Re x, Im x), and the metric is
    real.  [h, h] is zero in model and is not evaluated.

    Each complex structure constant is read once: each real h element's
    action on the complex m basis is summed once and then read by every real
    m element; each nonzero complex [m, m] constant is taken to real h
    coordinates once, and each real m element's brackets with the complex m
    basis are summed once from those.  The metric is restricted over the
    nonzeros of model's metric.
    """
    j, dh, dm = rep.j, model.dim_h, model.dim_m  # dh = len(h_basis), as real_holonomy certified
    dim_e = q.s.space.dim
    solver = SpanSolver(q.h_rows)
    h_real = [solver.coords(v) for v in h_basis]
    if None in h_real:
        raise TheoremViolationError("real holonomy element is not in h (bug signal)")
    # row i: the coordinates over h_basis of the i-th basis element of h
    to_real = [_nonzeros(row) for row in (inverse(Matrix(h_real)).data if dh else ())]
    # the real m basis over the complex m basis, keys t < dm
    m_real = [_nonzeros(v) for v in real_m_basis(j)]
    brackets = [[{} for _ in range(dh + dm)] for _ in range(dh + dm)]

    def put(a, b, value):
        brackets[a][b] = value
        brackets[b][a] = _dict_neg(value)

    # [h, m]: real h element a acts on complex m element t as action[t],
    # keys dh + t; the m part (x, y) of a value must be (x, jx), jx read off
    # the nonzeros of x and of C's columns
    c_cols = [_nonzeros(j.c_matrix.col(k)) for k in range(dim_e)]
    for a, row in enumerate(h_real):
        action = [_combine((c, model.brackets[i][dh + t]) for i, c in enumerate(row) if c)
                  for t in range(dm)]
        for b, u in enumerate(m_real, dh):
            x, y = {}, {}
            for k, c in _combine((c, action[t]) for t, c in u.items()).items():
                if k < dh + dim_e:
                    x[k - dh] = c
                else:
                    y[k - dh - dim_e] = c
            if y != _combine((c.conjugate(), c_cols[k]) for k, c in x.items()):
                raise TheoremViolationError("h does not preserve the real form (bug signal)")
            value = {}
            for k, c in x.items():
                if c.real_part():
                    value[dh + k] = c.real_part()
                if not c.is_real:
                    value[dh + dim_e + k] = c.imag_part()
            put(a, b, value)
    # [m, m]: mm[t][t2] is [M_t, M_t2] over h_basis, with complex coordinates
    mm = [[{} for _ in range(dm)] for _ in range(dm)]
    for t in range(dm):
        for t2 in range(t + 1, dm):
            value = model.brackets[dh + t][dh + t2]
            if value:
                mm[t][t2] = _combine((c, to_real[i]) for i, c in value.items())
                mm[t2][t] = _dict_neg(mm[t][t2])
    for a, u in enumerate(m_real):
        for b in range(a + 1, dm):
            value = _combine((c * c2, mm[t][t2]) for t, c in u.items()
                             for t2, c2 in m_real[b].items() if mm[t][t2])
            if not all(x.is_real for x in value.values()):
                raise TheoremViolationError("bracket value escaped the holonomy span (bug signal)")
            put(dh + a, dh + b, value)
    # the metric u^t g w over g's nonzeros, for a <= b: g is symmetric
    g_rows = [_nonzeros(row) for row in model.metric_on_m.data]
    metric = [[ZERO] * dm for _ in range(dm)]
    for a, u in enumerate(m_real):
        ug = _combine((c, g_rows[t]) for t, c in u.items())
        for b in range(a, dm):
            terms = [ug[t] * c for t, c in m_real[b].items() if t in ug]
            metric[a][b] = metric[b][a] = sum(terms[1:], terms[0]) if terms else ZERO
    metric = Matrix(metric)
    if not all(x.is_real for row in metric.data for x in row):
        raise TheoremViolationError("metric restriction is not real (bug signal)")
    labels = ["K%d" % (i + 1) for i in range(dh)] + ["M%d" % (t + 1) for t in range(dm)]
    return LieAlgebraModel(labels, dh, dm, brackets, metric)
