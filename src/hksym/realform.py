"""Reality conditions, real holonomy, and the real form g = h + m with
m = (H(x)E)^rho = {(x, jx)}, exact over Q by realification: a complex object
is split into real and imaginary coordinate blocks and eliminated over Q.

j = C conj acts on matrices by the antilinear involution
sigma(A) = C conj(A) C^-1 = -C conj(A C); sigma(A) = A says that A
commutes with j.  With J[k][l] = S_{je_k,e_l} = sum_m (je_k)_m S_{e_m,e_l},
m_k = (e_k, je_k) and m_{d+k} = (ie_k, -i je_k) (the basis real_m_basis(j),
in which (x, jx) has the coordinates (Re x, Im x)), the generator table
{(k, l): ([m_k, m_l], [m_k, m_{d+l}])}, k <= l, holds every [m, m] bracket:
  [m_k, m_l]     = [m_{d+k}, m_{d+l}] = J[l][k] - J[k][l],
  [m_k, m_{d+l}] = [m_l, m_{d+k}]     = -i (J[l][k] + J[k][l]).
check_reality builds it once; the reality condition says every generator is
sigma-fixed.  The real holonomy h_R = [m, m] is then h^sigma: it lies in
h^sigma, and the generators span h over C (J[l][k] = (a + i b)/2 for the
pair (a, b), and the je_k are a C-basis), so dim_R h_R >= dim_C h =
dim_R h^sigma.  real_holonomy reads it off the complex basis of h, and
build_real_algebra hands it, j and the table to the complex algebra's builder.
"""

from typing import NamedTuple, Optional

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
    _unflatten,
)
from .symtensor import s2e_coords, s2e_flatten, table_entry, tau


class RealityError(Exception):
    """The quartic fails the reality condition for the given j."""


class RealityReport(NamedTuple):
    commutator_condition_ok: bool
    tau_fixed: bool
    equivalent: bool
    # the j the report was computed for and its generator table; not part of
    # any serialized report
    j: Optional[object] = None
    generators: Optional[dict] = None


def _sigma(a, j):
    """sigma(A) = C conj(A) C^-1 = -C conj(A C), as C^-1 = -conj(C); A
    commutes with j, A C = C conj(A), exactly when sigma(A) = A."""
    c = j.c_matrix
    return -(c @ (a @ c).conj())


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
    [S_{je,e'} - S_{e,je'}, j] = 0 for all e, e' in E is real bilinear, and
    (e_l, e_k) gives [m_k, m_l], (ie_l, e_k) gives [m_k, m_{d+l}]: both
    components of every generator pair must be sigma-fixed.  tau-fixedness is
    tau(S) = S.  Their equivalence is a theorem, so disagreement raises
    instead of being reported as data.  The report carries j and the table.
    """
    if s.degree != 4:
        raise ContractError("reality check needs a quartic")
    gens = _generator_table(j, table)
    commutator_ok = all(_sigma(g, j) == g for pair in gens.values() for g in pair)
    tau_fixed = tau(s, j) == s
    if commutator_ok != tau_fixed:
        raise TheoremViolationError(
            "commutator condition and tau-fixedness disagree (bug signal)"
        )
    return RealityReport(
        commutator_condition_ok=commutator_ok,
        tau_fixed=tau_fixed,
        equivalent=True,
        j=j,
        generators=gens,
    )


def real_holonomy(q, rep):
    """Echelonized basis of h^sigma, the real span of A + sigma(A) and
    i(A - sigma(A)) over the basis q.h_rows of h, for
    rep = check_reality(q.s, j, q.table); a failed report raises RealityError.
    The rows are eliminated in realified S^2E coordinates, as sigma keeps
    sp(E).  The basis is certified sigma-fixed and of real dimension dim_C h.
    """
    if not rep.commutator_condition_ok:
        raise RealityError("quartic fails the reality condition for this j")
    j, dim = rep.j, q.s.space.dim
    rows = []
    for v in q.h_rows:
        a = _unflatten(v, dim)
        sa = _sigma(a, j)
        rows += [_realify(s2e_coords(a + sa)), _realify(s2e_coords((a - sa).scale(I_UNIT)))]
    basis = [_unflatten(s2e_flatten(_unrealify(v), dim), dim) for v in echelon_basis(rows)]
    if any(_sigma(a, j) != a for a in basis):
        raise TheoremViolationError("real holonomy element is not sigma-fixed (bug signal)")
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


def build_real_algebra(q, rep, h_basis):
    """The real symmetric decomposition g = h + m, m = (H(x)E)^rho = {(x, jx)}.

    q is the InvariantQuartic, rep = check_reality(q.s, j, q.table) and
    h_basis = real_holonomy(q, rep), which refuses a failed report.  j is
    read off the report and the [m, m] brackets are its generator table; m
    has the basis real_m_basis(j) of real dimension 4n.
    Coordinates in h are read off realified rows and so are real; m_coords
    certifies that h preserves the real form, and the metric is certified
    real afterwards.
    """
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
    m_basis = real_m_basis(j)
    labels = ["K%d" % (i + 1) for i in range(len(h_basis))]
    labels += ["M%d" % (i + 1) for i in range(len(m_basis))]
    model = _build_model(sp, labels, h_basis, lambda a: _realify(s2e_coords(a)),
                         m_basis, m_coords, m_brackets)
    for row in model.metric_on_m.data:
        for g in row:
            if not g.is_real:
                raise TheoremViolationError("metric restriction is not real (bug signal)")
    return model
