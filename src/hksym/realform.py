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
commutator condition is tau(J[k][l]) = -J[l][k] for all k, l.  The real
holonomy h_R = [m, m] is then h^tau: it lies in h^tau, and as 2a =
[m_k, m_l] + i [m_k, m_{d+l}] and the je_k are a C-basis, h_R spans h over C,
so dim_R h_R >= dim_C h = dim_R h^tau; real_holonomy reads it off the complex
basis of h.  build_real_algebra writes the certified complex model in a real
C-basis of g, so the real model inherits its Jacobi identity.  No matrix is
multiplied here.
"""

from typing import NamedTuple, Optional

from .exactnum import (
    ContractError,
    I_UNIT,
    Matrix,
    ONE,
    SpanSolver,
    ZERO,
    echelon_basis,
    from_parts,
    inverse,
    lincomb,
    unit_vec,
)
from .hkalgebra import LieAlgebraModel, TheoremViolationError, _add_into
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


def check_reality(s, j, table):
    """Evaluate the commutator condition and tau-fixedness; they must agree.

    table holds S_{e_k,e_l} for k <= l in S^2E coordinates: an
    InvariantQuartic's table, or dict(double_contractions(s)) for any
    quartic.  The commutator condition [S_{je,e'} - S_{e,je'}, j] = 0 for all
    e, e' in E is real bilinear, and (e_l, e_k) gives [m_k, m_l], (ie_l, e_k)
    gives [m_k, m_{d+l}]: by the antilinearity of tau alone (module
    docstring) it is tau(J[k][l]) = -J[l][k], J summed as coordinate tuples.
    Its equivalence with tau(S) = S is a theorem, so disagreement raises
    instead of being reported as data.  The report carries j and s2e_tau(j).
    """
    if s.degree != 4:
        raise ContractError("reality check needs a quartic")
    sp, tau_map = j.ambient, s2e_tau(j)
    je = [list(enumerate(j.apply(sp.basis_vector(k)))) for k in range(sp.dim)]
    jt = [[lincomb(((c, enumerate(table_entry(table, m, l))) for m, c in je[k] if c),
                   sp.dim * (sp.dim + 1) // 2) for l in range(sp.dim)] for k in range(sp.dim)]
    commutator_ok = all(not any(x + y for x, y in zip(tau_map(jt[k][l]), jt[l][k]))
                        for k in range(sp.dim) for l in range(sp.dim))
    tau_fixed = tau(s, j) == s
    if commutator_ok != tau_fixed:
        raise TheoremViolationError("commutator condition and tau-fixedness disagree (bug signal)")
    return RealityReport(commutator_condition_ok=commutator_ok, tau_fixed=tau_fixed,
                         equivalent=True, j=j, tau_map=tau_map)


def real_holonomy(q, rep):
    """Echelonized basis of h^tau as S^2E coordinate tuples: the real span of
    v + tau(v) and i(v - tau(v)) over the basis q.h_rows of h, eliminated
    realified, for rep = check_reality(q.s, j, q.table) (RealityError if it
    failed), certified tau-fixed and of real dimension dim_C h."""
    if not rep.commutator_condition_ok:
        raise RealityError("quartic fails the reality condition for this j")
    tau_map, rows = rep.tau_map, []
    for v in q.h_rows:
        tv = tau_map(v)
        rows += [_realify([x + y for x, y in zip(v, tv)]),
                 _realify([(x - y) * I_UNIT for x, y in zip(v, tv)])]
    basis = [_unrealify(v) for v in echelon_basis(rows)]
    if any(tau_map(b) != b for b in basis):
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
    """
    j, dh = rep.j, model.dim_h  # dh = len(h_basis), as real_holonomy certified
    dim_e = q.s.space.dim
    solver = SpanSolver(q.h_rows)
    h_real = [solver.coords(v) for v in h_basis]
    if None in h_real:
        raise TheoremViolationError("real holonomy element is not in h (bug signal)")
    # row i: the coordinates over h_basis of the i-th basis element of h
    to_real = [{k: x for k, x in enumerate(row) if x}
               for row in (inverse(Matrix(h_real)).data if dh else ())]

    def real_coords(value):
        h_part, m_part = {}, [ZERO] * model.dim_m
        for i, c in value.items():
            if i < dh:
                _add_into(h_part, to_real[i], c)
            else:
                m_part[i - dh] = c
        if not all(x.is_real for x in h_part.values()):
            raise TheoremViolationError("bracket value escaped the holonomy span (bug signal)")
        if tuple(m_part[dim_e:]) != j.apply(m_part[:dim_e]):
            raise TheoremViolationError("h does not preserve the real form (bug signal)")
        h_part.update((k, c) for k, c in enumerate(_realify(m_part[:dim_e]), dh) if c)
        return h_part

    m_basis = [{dh + t: c for t, c in enumerate(v) if c} for v in real_m_basis(j)]
    basis = [{k: x for k, x in enumerate(row) if x} for row in h_real] + m_basis
    brackets = [[{} for _ in basis] for _ in basis]
    for a in range(len(basis)):
        for b in range(max(a + 1, dh), len(basis)):
            brackets[a][b] = real_coords(model.bracket_vectors(basis[a], basis[b]))
            brackets[b][a] = {k: -c for k, c in brackets[a][b].items()}
    g = model.metric_on_m
    metric = Matrix([[sum((c * c2 * g.entry(t - dh, t2 - dh)
                           for t, c in u.items() for t2, c2 in w.items()), ZERO)
                      for w in m_basis] for u in m_basis])
    if not all(x.is_real for row in metric.data for x in row):
        raise TheoremViolationError("metric restriction is not real (bug signal)")
    labels = ["K%d" % (i + 1) for i in range(dh)] + ["M%d" % (t + 1) for t in range(len(m_basis))]
    return LieAlgebraModel(labels, dh, len(m_basis), brackets, metric)
