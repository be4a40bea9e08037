import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from hksym.exactnum import (
    GaussRat,
    I_UNIT,
    ONE,
    ZERO,
    Matrix,
    echelon_basis,
    hermitian_inertia,
    unit_vec,
)
from hksym.symplectic import (
    SymplecticSpace,
    span,
)
from hksym.symtensor import (
    SymTensor,
    double_contraction_endo,
    double_contractions,
    endo_of_quadratic,
    quartic_from_dict,
    s2e_coords,
    s2e_matrix,
    s2e_tau,
    support,
    tau,
    transform,
)
from hksym.hkalgebra import (
    build_complex_algebra,
    certify_invariance,
    verify_grading,
    verify_jacobi,
    verify_metric,
)
from hksym.realform import (
    RealityError,
    _realify,
    _unrealify,
    build_real_algebra,
    check_reality,
    real_holonomy,
    real_m_basis,
    symmetrize_real,
)
from hksym.generators import (
    make_generator,
    random_gaussrat,
    random_quartic_full,
    random_tau_fixed,
    standard_split_j,
)
from hksym.hkalgebra import holonomy

from oracles import (
    _generator_table,
    flatten,
    gamma_signature,
    in_span,
    kronecker_apply,
    kronecker_gram,
    mm_bracket_walk,
    quadratic,
    real_algebra_by_generators,
    real_holonomy_from_generators,
    real_holonomy_generators,
    rho_candidate_sweep,
    rho_reference,
    sigma_reference,
    standard_quaternionic,
    unflatten,
    zeros,
)
from test_hkalgebra import REAL_GOLDEN, golden_case
from test_symtensor import random_height_gaussrat

GOLDEN = Path(__file__).resolve().parent / "golden"


def reality(s, j):
    """check_reality on any quartic, from its plain table of double contractions."""
    return check_reality(s, j, dict(double_contractions(s)))


def real_holonomy_of(s, j):
    q = certify_invariance(s)
    return real_holonomy(q, check_reality(s, j, q.table))


def real_model(s, j):
    q = certify_invariance(s)
    rep = check_reality(s, j, q.table)
    return build_real_algebra(q, build_complex_algebra(q, holonomy(q)), rep, real_holonomy(q, rep))


def complex_holonomy(s):
    return holonomy(certify_invariance(s))


def endos(quadratics):
    """The matrices in sp(E) of quadratics, such as the generator table's."""
    return [endo_of_quadratic(b) for b in quadratics]


def s2e_matrices(coords, dim):
    """The matrices in sp(E) of S^2E coordinate tuples, such as real_holonomy's basis."""
    return [s2e_matrix(v, dim) for v in coords]


def non_coordinate_split(sp, rng, steps=6):
    """A Lagrangian split moved off the coordinate axes by a product of steps
    symplectic transvections, and that symplectic map."""
    from hksym.exactnum import mat_vec
    from hksym.generators import random_symplectic

    t_mat = random_symplectic(sp, rng, steps)
    e_plus = span(sp, [mat_vec(t_mat, sp.basis_vector(k)) for k in range(sp.n)])
    e_minus = span(sp, [mat_vec(t_mat, sp.basis_vector(k)) for k in range(sp.n, sp.dim)])
    return (e_plus, e_minus), t_mat


@pytest.fixture
def dim4():
    sp = SymplecticSpace(2)
    return sp, standard_split_j(sp)


class TestCheckReality:
    def test_symmetrized_passes(self, dim4, rng):
        sp, j = dim4
        for _ in range(5):
            t = random_quartic_full(sp, rng)
            s = symmetrize_real(t, j)
            rep = reality(s, j)
            assert rep.commutator_condition_ok and rep.tau_fixed and rep.equivalent

    def test_i_times_fixed_fails_both(self, dim4, rng):
        sp, j = dim4
        t = random_quartic_full(sp, rng)
        s = symmetrize_real(t, j)
        assert not s.is_zero()
        rep = reality(s.scale(I_UNIT), j)
        assert not rep.commutator_condition_ok and not rep.tau_fixed

    def test_zero_passes(self, dim4):
        sp, j = dim4
        rep = reality(SymTensor.zero(sp, 4), j)
        assert rep.commutator_condition_ok and rep.tau_fixed

    def test_equivalence_on_mixed_corpus(self, dim4, rng):
        # the commutator condition and tau-fixedness agree on every input
        # (disagreement raises inside check_reality, so surviving = agreeing)
        sp, j = dim4
        fixed_count = 0
        for k in range(20):
            t = random_quartic_full(sp, rng)
            s = symmetrize_real(t, j) if k % 2 == 0 else t
            rep = reality(s, j)
            assert rep.commutator_condition_ok == rep.tau_fixed
            fixed_count += rep.tau_fixed
        assert fixed_count >= 10  # the symmetrized half always passes

    def test_j_table_matches_direct_contractions(self, dim4, rng):
        # each generator pair ([m_k, m_l], [m_k, m_{d+l}]) read off J by
        # bilinearity equals the pair formula S_{x,y'} - S_{y,x'} on the
        # real_m_basis tuples, contracted directly, as do the brackets
        # [m_{d+k}, m_{d+l}] and [m_l, m_{d+k}] it stands for; for the split
        # j, the definite j and a j whose invariant Lagrangians are not
        # coordinate subspaces
        sp, split_j = dim4
        d = sp.dim
        split, _ = non_coordinate_split(sp, rng)
        for j in (split_j, standard_quaternionic(sp), standard_quaternionic(sp, split)):
            s = random_quartic_full(sp, rng)
            m = real_m_basis(j)

            def bracket(v, w):
                return (double_contraction_endo(s, v[:d], w[d:])
                        - double_contraction_endo(s, v[d:], w[:d]))

            gens = _generator_table(j, dict(double_contractions(s)))
            assert list(gens) == [(k, l) for k in range(d) for l in range(k, d)]
            for (k, l), (a, b) in gens.items():
                assert endo_of_quadratic(a) == bracket(m[k], m[l]) == bracket(m[d + k], m[d + l])
                assert endo_of_quadratic(b) == bracket(m[k], m[d + l]) == bracket(m[l], m[d + k])

    def test_report_carries_real_holonomy(self, dim4, rng):
        # the report carries j and tau on S^2E coordinates, which the real
        # holonomy is read with; real_holonomy refuses a failed report
        sp, j = dim4
        s, _ = random_tau_fixed(1, rng)
        q = certify_invariance(s)
        rep = check_reality(s, j, q.table)
        assert rep.j is j
        assert all(on_tuple(rep.tau_map, v) == s2e_coords(tau(quadratic(sp, v), j)) for v in q.h_rows)
        gens = endos(g for pair in _generator_table(j, q.table).values() for g in pair)
        assert s2e_matrices(real_holonomy(q, rep), sp.dim) == real_holonomy_from_generators(gens, j)
        q_failed = certify_invariance(s.scale(I_UNIT))
        failed = check_reality(q_failed.s, j, q_failed.table)
        assert not failed.commutator_condition_ok
        assert failed.j is j
        with pytest.raises(RealityError):
            real_holonomy(q_failed, failed)

    def test_commutator_condition_reads_both_components(self, dim4):
        # -(i/2) p1 p2^3 is not tau-fixed for the split j, yet every
        # [m_k, m_l] is sigma-fixed: only the [m_k, m_{d+l}] components, the
        # condition at (ie, e'), refute it
        sp, j = dim4
        s = SymTensor.monomial(sp, (1, 3, 0, 0)).scale(GaussRat(Fraction(-1, 2)) * I_UNIT)
        gens = _generator_table(j, dict(double_contractions(s)))
        assert all(tau(a, j) == a for a, _ in gens.values())
        assert all(sigma_reference(a, j) == a for a in endos(a for a, _ in gens.values()))
        rep = reality(s, j)
        assert not rep.commutator_condition_ok and not rep.tau_fixed

    @pytest.mark.parametrize("kind", ["split", "definite", "non-coordinate"])
    def test_equivalence_on_monomials(self, kind):
        # every monomial and i times it: the two conditions agree
        # (disagreement raises inside check_reality)
        _, j = _h_formula_case(kind)
        sp = j.ambient
        for alpha in product(range(5), repeat=sp.dim):
            if sum(alpha) == 4:
                for c in (ONE, I_UNIT):
                    rep = reality(SymTensor.monomial(sp, alpha).scale(c), j)
                    assert rep.commutator_condition_ok == rep.tau_fixed

    def test_equivalence_for_definite_j(self, rng):
        # the equivalence is a statement about any compatible j, including the
        # positive definite one with no invariant Lagrangian split
        for n in (1, 2):
            sp = SymplecticSpace(n)
            j = standard_quaternionic(sp)
            for k in range(6):
                t = random_quartic_full(sp, rng)
                s = symmetrize_real(t, j) if k % 2 == 0 else t
                rep = reality(s, j)
                assert rep.commutator_condition_ok == rep.tau_fixed


class TestRealHolonomy:
    @pytest.mark.parametrize("kind", ["split", "definite", "non-coordinate"])
    def test_sigma_is_the_antilinear_involution_fixing_the_commutant(self, kind, rng):
        # sigma is tau on S^2E: tau(tau B) = B, tau(iB) = -i tau(B), and
        # tau(B) = B exactly when A_B C = C conj(A_B): true for B + tau(B),
        # false for a random B
        _, j = _h_formula_case(kind)
        c, sp = j.c_matrix, j.ambient
        full = SymTensor.linear(sp, [ONE] * sp.dim) ** 2
        for _ in range(3):
            b = SymTensor(sp, 2, {alpha: random_gaussrat(rng) for alpha in full.coeffs})
            assert tau(tau(b, j), j) == b
            assert tau(b.scale(I_UNIT), j) == tau(b, j).scale(-I_UNIT)
            for fixed in (b, b + tau(b, j)):
                a = endo_of_quadratic(fixed)
                assert (tau(fixed, j) == fixed) == (a @ c == c @ a.conj())
            assert tau(b, j) != b

    def test_zero_quartic_empty(self, dim4):
        sp, j = dim4
        assert real_holonomy_of(SymTensor.zero(sp, 4), j) == []

    def test_elements_commute_with_j(self, dim4, rng):
        sp, j = dim4
        s, _ = random_tau_fixed(1, rng)
        c = j.c_matrix
        basis = real_holonomy_of(s, j)
        assert basis
        for v in basis:
            a = s2e_matrix(v, sp.dim)
            assert tau(quadratic(sp, v), j) == quadratic(sp, v)
            assert sigma_reference(a, j) == a
            assert a @ c == c @ a.conj()

    def test_dimension_bound(self):
        # h_R = h^sigma is a real form of h: dim_R h_R = dim_C h on every
        # tau-fixed input, flat factors and the definite j included
        for kind in REAL_KINDS:
            s, j = _walk_case(kind)
            assert len(real_holonomy_of(s, j)) == complex_holonomy(s).dimension, kind

    def test_real_form_dimension_for_full_support(self, dim4, rng):
        # tau-fixed S with full support: the real span is a real form, so its
        # real dimension equals the complex holonomy dimension
        sp, j = dim4
        for _ in range(5):
            s, _ = random_tau_fixed(1, rng)
            if support(s).dim != 2:
                continue
            assert len(real_holonomy_of(s, j)) == complex_holonomy(s).dimension

    def test_span_equals_commutant_of_j(self, dim4, rng):
        # reported property: the real span coincides with
        # {A in h^C (realified) : [A, j] = 0}, including flat-factor cases
        sp, j = dim4
        from hksym.exactnum import Matrix as Mx, rank_kernel
        from hksym.symtensor import SymTensor as ST

        def realify_matrix(m):
            return _realify(flatten(m))

        x4 = ST.linear(sp, sp.basis_vector(0)) ** 4
        samples = [random_tau_fixed(1, rng)[0] for _ in range(4)]
        samples.append(symmetrize_real(x4, j))
        for s in samples:
            hol = complex_holonomy(s)
            # realified span of h^C: complex basis + i * basis
            rows = []
            for m in hol.basis:
                rows.append(realify_matrix(m))
                rows.append(realify_matrix(m.scale(I_UNIT)))
            rows = echelon_basis(rows)
            basis_mats = [unflatten(_unrealify(v), sp.dim) for v in rows]
            constraint_cols = []
            for b in basis_mats:
                resid = b @ j.c_matrix - j.c_matrix @ b.conj()
                constraint_cols.append(realify_matrix(resid))
            if constraint_cols:
                _, kernel, _ = rank_kernel(Mx(constraint_cols).transpose())
                commutant_dim = len(kernel)
            else:
                commutant_dim = 0
            assert len(real_holonomy_of(s, j)) == commutant_dim

    def test_pairwise_commuting_for_lagrangian_support(self, dim4, rng):
        sp, j = dim4
        s, _ = random_tau_fixed(1, rng)
        basis = s2e_matrices(real_holonomy_of(s, j), sp.dim)
        for i in range(len(basis)):
            for k in range(i + 1, len(basis)):
                assert (basis[i] @ basis[k] - basis[k] @ basis[i]).is_zero()


def _sigma_case_j(n, kind):
    sp = SymplecticSpace(n)
    if kind == "definite":
        return standard_quaternionic(sp)
    if kind == "split":
        return standard_split_j(sp)
    return golden_case(GOLDEN / "non_coordinate_j.json")[1]


class TestSigmaIsTau:
    """j acts on sp(E) by sigma(A) = C conj(A) C^-1 and on S^2E by tau, and
    the two agree on every quadratic B: sigma(A_B) = A_{tau B}.  Seeded
    quadratics with coefficients of up to 300 bits, half of them zero,
    against the matrix-product reference."""

    @pytest.mark.parametrize("n,kind", [(1, "definite"), (2, "definite"), (3, "definite"),
                                        (2, "split"), (2, "non-coordinate")])
    def test_sigma_of_a_quadratic_is_its_tau(self, n, kind):
        rng = random.Random("sigma-is-tau-%d-%s" % (n, kind))
        j = _sigma_case_j(n, kind)
        sp = j.ambient
        full = SymTensor.linear(sp, [ONE] * sp.dim) ** 2
        for _ in range(4):
            b = SymTensor(sp, 2, {alpha: random_height_gaussrat(rng, rng.choice((4, 64, 300)))
                                  for alpha in full.coeffs if rng.random() < 0.5})
            a = s2e_matrix(s2e_coords(b), sp.dim)
            assert s2e_matrix(s2e_coords(tau(b, j)), sp.dim) == sigma_reference(a, j)


def _j_of_kind(n, kind, rng):
    """The split, definite or non-coordinate j on dim E = 2n; the split kinds
    need even n.  The non-coordinate split is moved off the axes by one
    transvection, which keeps C's coefficients short at n = 4.  "golden" is
    the dense j of real_2_off_axes (n = 4), and "conjugated:k" the split j
    conjugated by a product of k transvections P, C' = P C conj(P)^-1."""
    sp = SymplecticSpace(n)
    if kind == "split":
        return standard_split_j(sp)
    if kind == "definite":
        return standard_quaternionic(sp)
    if kind == "golden":
        return golden_case(GOLDEN / "real_2_off_axes.json")[1]
    if kind.startswith("conjugated:"):
        return conjugated_split_j(sp, rng, int(kind.split(":")[1]))[0]
    return standard_quaternionic(sp, non_coordinate_split(sp, rng, steps=1)[0])


def conjugated_split_j(sp, rng, steps):
    """The split j moved by P = random_symplectic(sp, rng, steps), j' = P j P^-1,
    whose matrix is C' = P C conj(P)^-1, and P: transform(s, P) is tau-fixed
    for j' exactly when s is for the split j."""
    from hksym.exactnum import inverse
    from hksym.generators import random_symplectic
    from hksym.symplectic import QuaternionicStructure

    p = random_symplectic(sp, rng, steps)
    return QuaternionicStructure(sp, p @ standard_split_j(sp).c_matrix @ inverse(p.conj())), p


def on_tuple(tau_map, v):
    """tau_map, which reads and returns nonzeros, on a coordinate tuple."""
    out = tau_map({p: x for p, x in enumerate(v) if x})
    assert all(out.values())
    return tuple(out.get(p, ZERO) for p in range(len(v)))


J_KINDS_UP_TO_3 = [(1, "definite"), (2, "split"), (2, "definite"), (2, "non-coordinate"),
                   (3, "definite")]
# n = 4: the golden dense j and the split j conjugated by 1 to 6 transvections
J_KINDS_AT_4 = [(4, "golden")] + [(4, "conjugated:%d" % k) for k in range(1, 7)]


class TestS2ETau:
    """s2e_tau(j) is tau on S^2E coordinates: on seeded tuples with
    coefficients of up to 300 bits, half of them zero, it is tau on their
    quadratics, it is antilinear and it is an involution."""

    @pytest.mark.parametrize("n,kind", J_KINDS_UP_TO_3 + J_KINDS_AT_4)
    def test_is_tau_on_the_quadratics(self, n, kind):
        rng = random.Random("s2e-tau-%d-%s" % (n, kind))
        j = _j_of_kind(n, kind, rng)
        sp, tau_map = j.ambient, s2e_tau(j)
        for _ in range(4):
            v = tuple(random_height_gaussrat(rng, rng.choice((4, 64, 300))) if rng.random() < 0.5
                      else ZERO for _ in range(sp.dim * (sp.dim + 1) // 2))
            tv = on_tuple(tau_map, v)
            assert tv == s2e_coords(tau(quadratic(sp, v), j))
            assert on_tuple(tau_map, tuple(I_UNIT * x for x in v)) == tuple(-I_UNIT * x for x in tv)
            assert on_tuple(tau_map, tv) == v

    @pytest.mark.parametrize("n,kind", J_KINDS_UP_TO_3 + J_KINDS_AT_4)
    def test_each_unit_is_the_pushed_quadratic(self, n, kind):
        # the columns read off C's columns against the push-forward of each
        # unit's quadratic along C
        j = _j_of_kind(n, kind, random.Random("s2e-tau-%d-%s" % (n, kind)))
        sp, tau_map = j.ambient, s2e_tau(j)
        size = sp.dim * (sp.dim + 1) // 2
        for p in range(size):
            assert on_tuple(tau_map, unit_vec(size, p)) == s2e_coords(tau(quadratic(sp, unit_vec(size, p)), j))


def generators_tau_fixed(s, j):
    """The reference verdict: both brackets of every pair of the generator
    table, summed as quadratics, are tau-fixed."""
    table = dict(double_contractions(s))
    return all(tau(g, j) == g for pair in _generator_table(j, table).values() for g in pair)


class TestCommutatorConditionAgainstGeneratorTable:
    """check_reality reads the commutator condition as tau(J[k][l]) =
    -J[l][k] on coordinate tuples; its verdict equals the generator table's."""

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("kind", ["split", "definite", "non-coordinate"])
    def test_seeded_quartics(self, kind, n):
        # tau-symmetrized, i times tau-fixed, random full and zero quartics
        rng = random.Random("commutator-%d-%s" % (n, kind))
        j = _j_of_kind(n, kind, rng)
        sp = j.ambient
        fixed = symmetrize_real(random_quartic_full(sp, rng), j)
        verdicts = []
        for s in (fixed, fixed.scale(I_UNIT), random_quartic_full(sp, rng), SymTensor.zero(sp, 4)):
            verdicts.append(reality(s, j).commutator_condition_ok)
            assert verdicts[-1] == generators_tau_fixed(s, j)
        assert verdicts == [True, False, False, True]

    @pytest.mark.parametrize("n,kind", J_KINDS_AT_4)
    def test_quartics_moved_with_a_dense_j(self, n, kind):
        # a quartic tau-fixed for the split j, moved by P with its j: every
        # tau column, table entry and J[k][l] is dense; i times the golden
        # one is not tau-fixed
        rng = random.Random("commutator-%d-%s" % (n, kind))
        if kind == "golden":
            s, j = golden_case(GOLDEN / "real_2_off_axes.json")
            cases = [(s, True), (s.scale(I_UNIT), False)]
        else:
            j, p = conjugated_split_j(SymplecticSpace(n), rng, int(kind.split(":")[1]))
            cases = [(transform(random_tau_fixed(n // 2, rng)[0], p), True)]
        for s, real in cases:
            assert reality(s, j).commutator_condition_ok == generators_tau_fixed(s, j) == real

    @pytest.mark.parametrize("alpha", [(0, 0, 4, 0), (0, 0, 0, 4)], ids=["q1^4", "q2^4"])
    def test_one_perturbed_coefficient(self, alpha):
        # real_1 with its zero coefficient at q1^4 or q2^4 set to 1/2: the
        # mismatch lies only at keys that one side of tau(J[k][l]) =
        # -J[l][k], k <= l, lacks (at q2^4, keys of tau(J[k][l]); at q1^4,
        # keys of J[l][k]), so a comparison that walked only the other
        # side's keys would pass it and then disagree with tau(S) != S
        s, j = golden_case(GOLDEN / "real_1.json")
        assert alpha not in s.coeffs
        s = s + SymTensor.monomial(s.space, alpha, GaussRat(Fraction(1, 2)))
        rep = reality(s, j)
        assert (rep.commutator_condition_ok, rep.tau_fixed) == (False, False)
        assert not generators_tau_fixed(s, j)

    @pytest.mark.parametrize("stem,real", [("non_coordinate_j", True),
                                           ("unreal_non_coordinate_j", False),
                                           ("tau_fixed_full_2", True), ("real_1", True),
                                           ("real_2", True)])
    def test_goldens(self, stem, real):
        s, j = golden_case(GOLDEN / ("%s.json" % stem))
        assert reality(s, j).commutator_condition_ok == generators_tau_fixed(s, j) == real


class TestSymmetrize:
    def test_fixed_input_doubles(self, dim4, rng):
        sp, j = dim4
        t = random_quartic_full(sp, rng)
        s = symmetrize_real(t, j)
        assert symmetrize_real(s, j) == s + s

    def test_zero(self, dim4):
        sp, j = dim4
        assert symmetrize_real(SymTensor.zero(sp, 4), j).is_zero()

    def test_output_always_fixed(self, dim4, rng):
        sp, j = dim4
        for _ in range(5):
            s = symmetrize_real(random_quartic_full(sp, rng), j)
            assert tau(s, j) == s


class TestBuildRealAlgebra:
    def test_zero_quartic_dim4(self, dim4):
        sp, j = dim4
        model = real_model(SymTensor.zero(sp, 4), j)
        assert model.dim_h == 0
        assert model.dim_m == 8
        assert all(not model.brackets[a][b] for a in range(model.dim) for b in range(model.dim))
        assert hermitian_inertia(model.metric_on_m) == (4, 4, 0)

    def test_signature_4_4_for_full_support(self, dim4, rng):
        sp, j = dim4
        s, _ = random_tau_fixed(1, rng)
        assert support(s).dim == 2
        model = real_model(s, j)
        assert model.dim_m == 8
        assert hermitian_inertia(model.metric_on_m) == (4, 4, 0)
        assert verify_jacobi(model) == (True, None)
        assert verify_grading(model) == (True, None)
        assert verify_metric(model) == (True, None)

    def test_structure_constants_real(self, dim4, rng):
        sp, j = dim4
        s, _ = random_tau_fixed(1, rng)
        model = real_model(s, j)
        for a in range(model.dim):
            for b in range(model.dim):
                for c in model.brackets[a][b].values():
                    assert c.is_real
        for row in model.metric_on_m.data:
            for e in row:
                assert e.is_real

    def test_rejects_non_real_quartic(self, dim4, rng):
        # i S is invariant but never tau-fixed; the failed report yields no
        # real holonomy to build the real form from
        sp, j = dim4
        s = random_tau_fixed(1, rng)[0].scale(I_UNIT)
        assert not s.is_zero()
        q = certify_invariance(s)
        rep = check_reality(s, j, q.table)
        assert not rep.commutator_condition_ok
        with pytest.raises(RealityError):
            real_holonomy(q, rep)

    def test_m_dimension_is_4n(self, rng):
        # real form of H (x) E always has real dimension 4n
        s, j = random_tau_fixed(2, rng)
        model = real_model(s, j)
        assert model.dim_m == 16

    def test_non_coordinate_j_end_to_end(self):
        # the whole real pipeline on a quaternionic structure whose invariant
        # Lagrangians are not coordinate subspaces: tau via the polarization,
        # the rho sweep and the realified solves must all stay exact
        import random

        from hksym.symtensor import support as supp
        from hksym.symtensor import tensor_in_subspace_power, transform
        from hksym.generators import random_quartic_lagrangian

        sp = SymplecticSpace(2)
        rng = random.Random(31)
        (e_plus, e_minus), t_mat = non_coordinate_split(sp, rng)
        j = standard_quaternionic(sp, (e_plus, e_minus))
        assert gamma_signature(j) == (2, 2, 0)
        s = symmetrize_real(transform(random_quartic_lagrangian(2, rng), t_mat), j)
        assert tensor_in_subspace_power(s, e_plus)
        rep = reality(s, j)
        assert rep.commutator_condition_ok and rep.tau_fixed
        model = real_model(s, j)
        assert hermitian_inertia(model.metric_on_m) == (4, 4, 0)
        assert verify_jacobi(model) == (True, None)
        sigma = supp(s)
        if sigma.dim == 2:
            from hksym.dim8 import classify_real8
            from hksym.exactnum import GaussRat

            assert all(in_span(sigma, j.apply(v)) for v in sigma.basis)
            cls = classify_real8(certify_invariance(s), j)
            assert classify_real8(certify_invariance(s.scale(GaussRat(4))), j) == cls

    def test_flat_factor_case(self):
        # tau-fixed quartic with proper support (a flat factor): the real
        # algebra still closes with real constants and split signature
        from hksym.symtensor import SymTensor as ST
        from hksym.symplectic import SymplecticSpace as Sp

        sp = Sp(4)
        j = standard_split_j(sp)
        p1 = ST.linear(sp, sp.basis_vector(0))
        s = symmetrize_real(p1 ** 4, j)  # p1^4 + p2^4, support dim 2 of 4
        assert support(s).dim == 2
        model = real_model(s, j)
        assert model.dim_m == 16
        assert hermitian_inertia(model.metric_on_m) == (8, 8, 0)
        assert verify_jacobi(model) == (True, None)


def _h_formula_case(kind):
    """(s, j) for the split, definite or non-coordinate j on dim E = 4: a
    tau-fixed invariant quartic, zero for the definite j (its gamma is
    definite, so no Lagrangian is j-invariant)."""
    import random

    from hksym.generators import random_quartic_lagrangian
    from hksym.symtensor import transform

    if kind == "split":
        return random_tau_fixed(1, random.Random(5))
    sp = SymplecticSpace(2)
    if kind == "definite":
        return SymTensor.zero(sp, 4), standard_quaternionic(sp)
    rng = random.Random(31)
    split, t_mat = non_coordinate_split(sp, rng)
    j = standard_quaternionic(sp, split)
    return symmetrize_real(transform(random_quartic_lagrangian(2, rng), t_mat), j), j


def _models_with_bases(s, j):
    """(model, h basis, m basis, is real) of the real and the complex algebra of s."""
    q = certify_invariance(s)
    rep = check_reality(s, j, q.table)
    h_real = real_holonomy(q, rep)
    hol = holonomy(q)
    model = build_complex_algebra(q, hol)
    units = [unit_vec(2 * s.space.dim, i) for i in range(2 * s.space.dim)]
    return [
        (build_real_algebra(q, model, rep, h_real), s2e_matrices(h_real, s.space.dim),
         real_m_basis(j), True),
        (model, hol.basis, units, False),
    ]


def _combine(coeffs, vectors):
    """sum_t coeffs[t] vectors[t]."""
    return tuple(sum((c * v[i] for c, v in zip(coeffs, vectors)), ZERO)
                 for i in range(len(vectors[0])))


H_FORMULA_KINDS = ["split", "definite", "non-coordinate"]


class TestHFormulas:
    """The pair formulas on H(x)E = E (+) E against the Kronecker references."""

    @pytest.mark.parametrize("kind", H_FORMULA_KINDS)
    def test_real_m_basis_is_fixed_by_rho_and_spans_the_sweep(self, kind):
        _, j = _h_formula_case(kind)
        basis = real_m_basis(j)
        assert len(basis) == 2 * j.ambient.dim
        for v in basis:
            assert rho_reference(j, v) == v
        sweep = echelon_basis([_realify(v) for v in rho_candidate_sweep(j)])
        assert echelon_basis([_realify(v) for v in basis]) == sweep

    @pytest.mark.parametrize("kind", H_FORMULA_KINDS)
    def test_pair_metric_is_the_kronecker_gram(self, kind):
        s, j = _h_formula_case(kind)
        for model, _, m_basis, _ in _models_with_bases(s, j):
            assert model.metric_on_m == kronecker_gram(m_basis)

    @pytest.mark.parametrize("kind", H_FORMULA_KINDS)
    def test_h_acts_as_identity_tensor_a(self, kind, rng):
        # [A, (x, y)] = (Ax, Ay) is (I (x) A) on seeded tuples, read back
        # through the m basis; real coefficients for the real form
        s, j = _h_formula_case(kind)
        for model, h_basis, m_basis, real in _models_with_bases(s, j):
            dh = model.dim_h
            for _ in range(3):
                coeffs = [random_gaussrat(rng).real_part() if real else random_gaussrat(rng)
                          for _ in m_basis]
                w = {dh + t: c for t, c in enumerate(coeffs) if c}
                for i, a_mat in enumerate(h_basis):
                    image = model.bracket_vectors({i: ONE}, w)
                    got = [image.get(dh + t, ZERO) for t in range(len(m_basis))]
                    assert _combine(got, m_basis) == kronecker_apply(a_mat, _combine(coeffs, m_basis))


def _golden_quartic(stem):
    return quartic_from_dict(json.loads((GOLDEN / ("%s.json" % stem)).read_text()))


def _walk_case(kind):
    """(s, j) of a differential case: j is None for the complex model."""
    if kind.startswith("complex:"):
        name = kind.split(":", 1)[1]
        if name == "scrambled_lagrangian_2":
            return _golden_quartic(name), None
        return make_generator(name, 7), None
    if kind == "definite-zero":
        sp = SymplecticSpace(2)
        return SymTensor.zero(sp, 4), standard_quaternionic(sp)
    if kind in REAL_GOLDEN:
        return golden_case(GOLDEN / ("%s.json" % kind))
    s = make_generator(kind, 3)
    return s, standard_split_j(s.space)


WALK_KINDS = [
    "complex:random-lagrangian:3",
    "complex:scrambled_lagrangian_2",
    "real-random:1",
    "real-random:2",
    "non_coordinate_j",
    "definite-zero",
]

# every tau-fixed input with its j: the golden ones, the zero quartic for
# the definite j and the seeded real-random draws
REAL_KINDS = sorted(REAL_GOLDEN) + ["definite-zero", "real-random:1", "real-random:2",
                                    "real-random:3"]


class TestBracketsAgainstWalk:
    """The [m, m] brackets of the complex model and of its real form,
    against the bilinear walk over the table that the builder used to make
    itself."""

    @pytest.mark.parametrize("kind", WALK_KINDS)
    def test_mm_brackets_equal_the_walk(self, kind):
        s, j = _walk_case(kind)
        q = certify_invariance(s)
        d = s.space.dim
        if j is None:
            hol = holonomy(q)
            model = build_complex_algebra(q, hol)
            h_basis, m_basis = hol.basis, [unit_vec(2 * d, i) for i in range(2 * d)]
        else:
            rep = check_reality(s, j, q.table)
            h_real, m_basis = real_holonomy(q, rep), real_m_basis(j)
            model = build_real_algebra(q, build_complex_algebra(q, holonomy(q)), rep, h_real)
            h_basis = s2e_matrices(h_real, d)
        walk = mm_bracket_walk({pair: s2e_matrix(v, d) for pair, v in q.table.items()}, m_basis)
        dh = model.dim_h
        for (t, t2), expected in walk.items():
            got = zeros(d, d)
            for a, c in model.brackets[dh + t][dh + t2].items():
                assert a < dh
                got = got + h_basis[a].scale(c)
            assert got == (zeros(d, d) if expected is None else expected)

    @pytest.mark.parametrize("kind", REAL_KINDS)
    def test_real_holonomy_is_the_rref_of_the_old_generators(self, kind):
        # h^sigma read off the complex basis against the elimination of every
        # realified generator: of the J table contracted directly, and of
        # the generator table check_reality built before it read tau on
        # S^2E coordinates
        s, j = _walk_case(kind)
        sp = s.space
        jt = [[double_contraction_endo(s, j.apply(sp.basis_vector(k)), sp.basis_vector(l))
               for l in range(sp.dim)] for k in range(sp.dim)]
        expected = real_holonomy_from_generators(real_holonomy_generators(jt), j)
        q = certify_invariance(s)
        rep = check_reality(s, j, q.table)
        assert s2e_matrices(real_holonomy(q, rep), sp.dim) == expected
        gens = endos(g for pair in _generator_table(j, q.table).values() for g in pair)
        assert real_holonomy_from_generators(gens, j) == expected


# seeded real-random draws at m = 1, 2, 3 and one at m = 4, and the golden
# real cases, real_2_off_axes with its dense j among them
REFERENCE_CASES = ([("real-random:%d" % m, seed) for m in (1, 2, 3) for seed in (0, 3, 11)]
                   + [("real-random:4", 0)]
                   + [(stem, None) for stem in ("real_1", "real_2", "non_coordinate_j",
                                                "real_2_off_axes")])


class TestRealFormAgainstReference:
    """The real form as the certified complex model in a real basis, against
    the algebra assembled again from the generator table and verified on its
    own."""

    @pytest.mark.parametrize("kind,seed", REFERENCE_CASES,
                             ids=["%s-%s" % case if case[1] is not None else case[0]
                                  for case in REFERENCE_CASES])
    def test_equals_the_generator_table_build(self, kind, seed):
        if seed is None:
            s, j = golden_case(GOLDEN / ("%s.json" % kind))
        else:
            s = make_generator(kind, seed)
            j = standard_split_j(s.space)
        q = certify_invariance(s)
        rep = check_reality(s, j, q.table)
        h_real = real_holonomy(q, rep)
        model = build_real_algebra(q, build_complex_algebra(q, holonomy(q)), rep, h_real)
        reference = real_algebra_by_generators(q, j, h_real)
        assert verify_jacobi(reference) == (True, None)
        assert model.basis_labels == reference.basis_labels
        assert (model.dim_h, model.dim_m) == (reference.dim_h, reference.dim_m)
        for a in range(model.dim):
            for b in range(model.dim):
                assert model.brackets[a][b] == reference.brackets[a][b], (a, b)
        assert model.metric_on_m == reference.metric_on_m
