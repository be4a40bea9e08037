"""Reality conditions, real holonomy, and the real form g = h + m with
m = (H(x)E)^rho = {(x, jx)}, all over the rational field by realification.

"Real span" computations never leave exact arithmetic: a complex object is
split into real and imaginary coordinate blocks and eliminated over Q, so
every verdict (the commutator condition, tau-fixedness, closure of the real
structure constants, the metric signature) is exact.

Everything is read off the quartic's table of double contractions
S_{e_k,e_l}: by bilinearity S_{je_k,e_l} = sum_m (je_k)_m S_{e_m,e_l}, so
check_reality builds J[k][l] = S_{je_k,e_l} once from the table and reads
both the commutator condition and the real holonomy off J.  Its report
carries the j it was computed for and the real holonomy basis, and
build_real_algebra consumes that report together with the InvariantQuartic,
through the same builder as the complex algebra.  Its m is the graph of j,
with the basis real_m_basis(j) in which (x, jx) has the coordinates
(Re x, Im x), so reading coordinates off m is a realification, not a solve.
"""

from dataclasses import dataclass, field
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
    unit_vec,
)
from .hkalgebra import (
    TheoremViolationError,
    _build_model,
    _commutators,
    _flatten,
    _unflatten,
)
from .symtensor import table_entry, tau


class RealityError(Exception):
    """The quartic fails the reality condition for the given j."""


@dataclass
class RealityReport:
    commutator_condition_ok: bool
    tau_fixed: bool
    equivalent: bool
    real_holonomy_dim: Optional[int] = None
    signature_on_m: Optional[tuple] = None
    # the j the report was computed for, and the echelonized real holonomy
    # basis when the condition holds; not part of any serialized report
    j: Optional[object] = field(default=None, repr=False)
    real_holonomy_basis: Optional[list] = field(default=None, repr=False)


def _commutes_with_j(a, j):
    """[A, j] = 0 in the antilinear sense: A C = C conj(A)."""
    return (a @ j.c_matrix - j.c_matrix @ a.conj()).is_zero()


def _j_table(j, table):
    """J[k][l] = S_{je_k,e_l} = sum_m (je_k)_m S_{e_m,e_l}, from the table."""
    sp = j.ambient
    rows = []
    for k in range(sp.dim):
        jk = j.apply(sp.basis_vector(k))
        row = []
        for l in range(sp.dim):
            acc = Matrix.zeros(sp.dim, sp.dim)
            for m, c in enumerate(jk):
                if c:
                    acc = acc + table_entry(table, m, l).scale(c)
            row.append(acc)
        rows.append(row)
    return rows


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

    table holds S_{e_k,e_l} for k <= l: an InvariantQuartic's table, or
    dict(double_contractions(s)) for any quartic.  The commutator condition
    is [S_{je,e'} - S_{e,je'}, j] = 0 over all basis pairs, where
    S_{e_k,je_l} = J[l][k]; the difference is antisymmetric in (k, l), so
    the pairs k < l decide it.  tau-fixedness is tau(S) = S.  Their
    equivalence is a theorem, so disagreement raises instead of being
    reported as data.  The report carries j and, when the condition holds,
    the real holonomy basis.
    """
    if s.degree != 4:
        raise ContractError("reality check needs a quartic")
    jt = _j_table(j, table)
    dim = s.space.dim
    commutator_ok = all(
        _commutes_with_j(jt[k][l] - jt[l][k], j) for k in range(dim) for l in range(k + 1, dim)
    )
    tau_fixed = tau(s, j) == s
    if commutator_ok != tau_fixed:
        raise TheoremViolationError(
            "commutator condition and tau-fixedness disagree (bug signal)"
        )
    report = RealityReport(
        commutator_condition_ok=commutator_ok,
        tau_fixed=tau_fixed,
        equivalent=True,
        j=j,
    )
    if commutator_ok:
        report.real_holonomy_basis = real_holonomy(jt, j)
        report.real_holonomy_dim = len(report.real_holonomy_basis)
    return report


def real_holonomy(jt, j):
    """Echelonized basis (over Q, by realification) of the real holonomy span.

    jt is the table J[k][l] = S_{je_k,e_l}.  The span is generated by
    S_{je,e'} - S_{e,je'} over basis pairs together with the i-scaled
    companions i(S_{je,e'} + S_{e,je'}): real-bilinear expansion over
    arbitrary e, e' reduces to exactly these, because replacing e by ie turns
    the difference generator into the sum generator (times a real factor),
    and (ie, ie') reproduces (e, e').

    Every returned matrix is certified to commute with j in the antilinear
    sense; the span sits inside the commutant of j in the complex holonomy.
    """
    dim = len(jt)
    rows = []
    for k in range(dim):
        for l in range(k, dim):
            a, b = jt[k][l], jt[l][k]
            for g in (a - b, (a + b).scale(I_UNIT)):
                if not g.is_zero():
                    rows.append(_realify(_flatten(g)))
    basis = []
    for v in echelon_basis(rows):
        a = _unflatten(_unrealify(v), dim)
        if not _commutes_with_j(a, j):
            raise RealityError("real holonomy element does not commute with j")
        basis.append(a)
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


def build_real_algebra(q, rep):
    """The real symmetric decomposition g = h + m, m = (H(x)E)^rho = {(x, jx)}.

    q is the InvariantQuartic and rep = check_reality(q.s, j, q.table); a
    failed report raises RealityError.  j is read off the report and h is
    its real holonomy basis; m has the basis real_m_basis(j) of real
    dimension 4n.
    The builder's coordinate functions certify that every structure constant
    is real and that h preserves the real form; the metric is certified real
    afterwards.
    """
    if not rep.commutator_condition_ok:
        raise RealityError("quartic fails the reality condition for this j")
    dim_e = q.s.space.dim
    j = rep.j

    h_basis = rep.real_holonomy_basis
    h_solver = SpanSolver([_realify(_flatten(a)) for a in h_basis])

    def h_coords(mat):
        c = h_solver.coords(_realify(_flatten(mat)))
        if c is None:
            raise TheoremViolationError("real bracket escaped the real holonomy span")
        return _real_coords(c)

    def m_coords(v):
        if v[dim_e:] != j.apply(v[:dim_e]):
            raise TheoremViolationError("h does not preserve the real form (bug signal)")
        return _real_coords(_realify(v[:dim_e]))

    m_basis = real_m_basis(j)
    labels = ["K%d" % (i + 1) for i in range(len(h_basis))]
    labels += ["M%d" % (i + 1) for i in range(len(m_basis))]
    model = _build_model(labels, h_basis, h_coords, _commutators(h_basis), m_basis, m_coords, q)
    for row in model.metric_on_m.data:
        for g in row:
            if not g.is_real:
                raise TheoremViolationError("metric restriction is not real (bug signal)")
    return model


def _real_coords(c):
    """Coordinate dict of a solved coordinate tuple that must be real."""
    for x in c:
        if not x.is_real:
            raise TheoremViolationError("non-real structure constant (bug signal)")
    return {i: v for i, v in enumerate(c) if v}
