"""Reality conditions, real holonomy, and the real form g = h + m with
m = (H(x)E)^rho = {(x, jx)}, all over the rational field by realification.

"Real span" computations never leave exact arithmetic: a complex object is
split into real and imaginary coordinate blocks and eliminated over Q, so
every verdict (the commutator condition, tau-fixedness, closure of the real
structure constants, the metric signature) is exact.

Everything is read off the quartic's table of double contractions: by
bilinearity J[k][l] = S_{je_k,e_l} = sum_m (je_k)_m S_{e_m,e_l}.  In the
basis real_m_basis(j) of m, m_k = (e_k, je_k) and m_{d+k} = (ie_k, -i je_k),
the pair formula gives the generator table {(k, l): ([m_k, m_l],
[m_k, m_{d+l}])}, k <= l, which holds every [m, m] bracket:
  [m_k, m_l]     = [m_{d+k}, m_{d+l}] = J[l][k] - J[k][l],
  [m_k, m_{d+l}] = [m_l, m_{d+k}]     = -i (J[l][k] + J[k][l]).
check_reality builds it once and reads the commutator condition off its first
components and the real holonomy h = [m, m] off all of it.  Its report
carries j, the table and that basis, and build_real_algebra hands them to
the same builder as the complex algebra.  (x, jx) has the coordinates
(Re x, Im x), so reading coordinates off m is a realification, not a solve.
"""

from dataclasses import dataclass, field
from typing import Optional

from .exactnum import (
    ContractError,
    I_UNIT,
    Matrix,
    ONE,
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
    # the j the report was computed for, its generator table and, when the
    # condition holds, the echelonized real holonomy basis; not part of any
    # serialized report
    j: Optional[object] = field(default=None, repr=False)
    generators: Optional[dict] = field(default=None, repr=False)
    real_holonomy_basis: Optional[list] = field(default=None, repr=False)


def _commutes_with_j(a, j):
    """[A, j] = 0 in the antilinear sense: A C = C conj(A)."""
    return (a @ j.c_matrix - j.c_matrix @ a.conj()).is_zero()


def _generator_table(j, table):
    """{(k, l): ([m_k, m_l], [m_k, m_{d+l}])} for k <= l, from
    J[k][l] = S_{je_k,e_l} = sum_m (je_k)_m S_{e_m,e_l}."""
    sp = j.ambient
    d = sp.dim
    jt = []
    for k in range(d):
        jk = j.apply(sp.basis_vector(k))
        jt.append([sum((table_entry(table, m, l).scale(c) for m, c in enumerate(jk) if c),
                       Matrix.zeros(d, d)) for l in range(d)])
    return {(k, l): (jt[l][k] - jt[k][l], (jt[l][k] + jt[k][l]).scale(-I_UNIT))
            for k in range(d) for l in range(k, d)}


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
    is [S_{je,e'} - S_{e,je'}, j] = 0 over all basis pairs, i.e. [m_k, m_l]
    commutes with j; it is antisymmetric in (k, l), so the generator pairs
    k < l decide it.  tau-fixedness is tau(S) = S.  Their equivalence is a
    theorem, so disagreement raises instead of being reported as data.  The
    report carries j, the generator table and, when the condition holds, the
    real holonomy basis.
    """
    if s.degree != 4:
        raise ContractError("reality check needs a quartic")
    gens = _generator_table(j, table)
    commutator_ok = all(_commutes_with_j(a, j) for (k, l), (a, _) in gens.items() if k < l)
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
        generators=gens,
    )
    if commutator_ok:
        report.real_holonomy_basis = real_holonomy(gens, j)
        report.real_holonomy_dim = len(report.real_holonomy_basis)
    return report


def real_holonomy(gens, j):
    """Echelonized basis (over Q, by realification) of the real holonomy span.

    gens is the generator table of check_reality, and the real holonomy is
    the real span of all its brackets, h = [m, m].  Its components are
    S_{e,je'} - S_{je,e'} over basis pairs and the -i-scaled companions
    -i(S_{je,e'} + S_{e,je'}): real-bilinear expansion over arbitrary
    e, e' reduces to exactly these, because replacing e by ie turns the
    difference generator into the sum generator (times a real factor), and
    (ie, ie') reproduces (e, e').

    Every returned matrix is certified to commute with j in the antilinear
    sense; the span sits inside the commutant of j in the complex holonomy.
    """
    dim = j.ambient.dim
    rows = [_realify(_flatten(g)) for pair in gens.values() for g in pair if not g.is_zero()]
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
    failed report raises RealityError.  j is read off the report, h is its
    real holonomy basis and the [m, m] brackets are its generator table;
    m has the basis real_m_basis(j) of real dimension 4n.
    Coordinates in h are read off realified rows and so are real; m_coords
    certifies that h preserves the real form, and the metric is certified
    real afterwards.
    """
    if not rep.commutator_condition_ok:
        raise RealityError("quartic fails the reality condition for this j")
    sp, j = q.s.space, rep.j
    dim_e = sp.dim

    def m_coords(v):
        if v[dim_e:] != j.apply(v[:dim_e]):
            raise TheoremViolationError("h does not preserve the real form (bug signal)")
        return {i: c for i, c in enumerate(_realify(v[:dim_e])) if c}

    m_brackets = {}
    for (k, l), (a, b) in rep.generators.items():
        if k < l:
            m_brackets[(k, l)] = m_brackets[(dim_e + k, dim_e + l)] = a
            m_brackets[(l, dim_e + k)] = b
        m_brackets[(k, dim_e + l)] = b
    h_basis = rep.real_holonomy_basis
    m_basis = real_m_basis(j)
    labels = ["K%d" % (i + 1) for i in range(len(h_basis))]
    labels += ["M%d" % (i + 1) for i in range(len(m_basis))]
    model = _build_model(sp, labels, h_basis, _commutators(h_basis),
                         lambda a: _realify(_flatten(a)), m_basis, m_coords, m_brackets)
    for row in model.metric_on_m.data:
        for g in row:
            if not g.is_real:
                raise TheoremViolationError("metric restriction is not real (bug signal)")
    return model
