import ast
import json
import random
from pathlib import Path

import pytest

from hksym.exactnum import (
    ContractError,
    GaussRat,
    IOTA,
    MODULUS,
    Matrix,
    ONE,
    TheoremViolationError,
    ZERO,
    echelon_basis,
    is_rref,
    mat_vec,
    unit_vec,
)
from hksym.symplectic import (
    SymplecticSpace,
    is_isotropic,
    lagrangian_complement,
    quaternionic_from_json,
    span,
)
from hksym.symtensor import (
    SymTensor,
    double_contraction_endo,
    double_contractions,
    endo_of_quadratic,
    quartic_from_dict,
    s2e_matrix,
    support,
    table_entry,
    transform,
)
import hksym.hkalgebra as hkalgebra
from hksym.hkalgebra import (
    HolonomyData,
    InvariantQuartic,
    LieAlgebraModel,
    NotHyperKahlerError,
    analyze_quartic,
    build_complex_algebra,
    certify_invariance,
    check_invariance,
    compute_aut,
    curvature_ricci,
    find_lagrangian,
    flat_decomposition,
    holonomy,
    verify_grading,
    verify_jacobi,
    verify_metric,
    verify_model,
)
from hksym.generators import (
    make_generator,
    random_gaussrat,
    random_quartic_full,
    random_quartic_lagrangian,
    random_symplectic,
    standard_split_j,
)
from hksym.realform import build_real_algebra, check_reality, real_holonomy

from oracles import (
    aut_basis_by_embedding,
    aut_dimension_bruteforce,
    certify_invariance_all_entries,
    derived_series_reference,
    double_contractions_by_contraction,
    embed_gl_eplus,
    embed_gl_group,
    flatten,
    in_span,
    random_invertible,
    ricci_by_adjoint_matrices,
    unflatten,
    verify_jacobi_reference,
    verify_metric_reference,
)


def lin(sp, k):
    return SymTensor.linear(sp, sp.basis_vector(k))


def complex_model(s):
    q = certify_invariance(s)
    return build_complex_algebra(q, holonomy(q))


def flat_split(s):
    return flat_decomposition(certify_invariance(s))


def span_of_double_contractions(s):
    """HolonomyData of span{S_{e,e'}} for any quartic, invariant or not, with
    the derived series of the reference."""
    rows = echelon_basis([flatten(m) for _, m in double_contractions_by_contraction(s)])
    mats = tuple(unflatten(v, s.space.dim) for v in rows)
    _, series = derived_series_reference(mats)
    return HolonomyData(
        basis=mats,
        dimension=len(mats),
        is_abelian=len(series) < 2 or series[1] == 0,
        is_solvable=series[-1] == 0,
        derived_series_lengths=series,
    )


@pytest.fixture
def p4():
    sp = SymplecticSpace(1)
    return lin(sp, 0) ** 4


class TestInvariance:
    def test_p4_invariant(self, p4):
        ok, witness = check_invariance(p4)
        assert ok and witness is None

    def test_p3q_rejected_with_witness(self):
        # first lexicographic violating pair is (p, q): S_{p,q} = -(1/4) p^2
        # and p^2 . (p^3 q) = p^4 != 0
        sp = SymplecticSpace(1)
        s = (lin(sp, 0) ** 3) * lin(sp, 1)
        ok, witness = check_invariance(s)
        assert not ok
        assert witness == (0, 1)

    def test_certificate_holds_table_and_support(self, rng):
        # one entry per pair k <= l, in lexicographic order, equal to the
        # direct double contraction; the support is support(s)
        for s in (lin(SymplecticSpace(1), 0) ** 4, random_quartic_lagrangian(2, rng)):
            sp = s.space
            q = certify_invariance(s)
            pairs = [(k, l) for k in range(sp.dim) for l in range(k, sp.dim)]
            assert list(q.table) == pairs
            for k, l in pairs:
                assert s2e_matrix(q.table[(k, l)], sp.dim) == double_contraction_endo(
                    s, sp.basis_vector(k), sp.basis_vector(l))
            assert q.support == support(s)
            assert q.s is s

    def test_certify_rejects_non_quartic(self):
        with pytest.raises(ContractError):
            certify_invariance(lin(SymplecticSpace(1), 0) ** 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lagrangian_quartics_invariant(self, n, rng):
        for _ in range(5):
            s = random_quartic_lagrangian(n, rng)
            ok, _ = check_invariance(s)
            assert ok


GOLDEN_INPUTS = sorted(p for p in (Path(__file__).resolve().parent / "golden").glob("*.json")
                       if not p.name.endswith(".j.json"))


def scrambled_lagrangian(n, seed):
    rng = random.Random(seed)
    s = random_quartic_lagrangian(n, rng)
    return transform(s, random_symplectic(s.space, rng, steps=3))


def flat_factor():
    """A quartic in p1, p2 on n = 4: a support of dimension 2 in dim E = 8."""
    rng = random.Random("flat-factor")
    sp = SymplecticSpace(4)
    return SymTensor(sp, 4, {(a, 4 - a) + (0,) * 6: random_gaussrat(rng) for a in range(5)})


def rank_trap(c):
    """p1^4 + p2^4 + 6c p1^2 p2^2 for a c that residues sends to 0 (P, or
    IOTA - i, which P does not divide): its table has rank 3 over Q(i) but
    2 modulo P, so the rank certificate fails and the table is eliminated."""
    sp = SymplecticSpace(2)
    p1, p2 = lin(sp, 0), lin(sp, 1)
    return p1 ** 4 + p2 ** 4 + (p1 * p1 * p2 * p2).scale(GaussRat(6) * c)


class TestInvarianceAgainstAllEntries:
    """certify_invariance accepts by an isotropic support with S in
    S^4(support) and acts on S only to find a rejection's witness; the
    reference acts every entry on S and eliminates the whole table."""

    @staticmethod
    def same_certificate(s):
        """Asserts both agree on s; returns the witness, None if accepted."""
        witness, table, sup, rows = certify_invariance_all_entries(s)
        try:
            q = certify_invariance(s)
        except NotHyperKahlerError as exc:
            assert witness is not None and exc.witness == witness
            return witness
        assert witness is None
        d = s.space.dim
        assert [(pair, s2e_matrix(v, d)) for pair, v in q.table.items()] == list(table.items())
        assert q.support == sup
        assert tuple(flatten(s2e_matrix(v, d)) for v in q.h_rows) == rows and is_rref(q.h_rows)
        assert tuple(flatten(m) for m in holonomy(q).basis) == rows
        return None

    @pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
    def test_golden_inputs(self, path):
        self.same_certificate(quartic_from_dict(json.loads(path.read_text(encoding="utf-8"))))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_lagrangian(self, n):
        assert self.same_certificate(make_generator("random-lagrangian:%d" % n, 7)) is None

    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 1), (3, 2)])
    def test_scrambled_lagrangian(self, n, seed):
        assert self.same_certificate(scrambled_lagrangian(n, seed)) is None

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_random_rejected(self, n):
        for seed in range(3):
            s = random_quartic_full(SymplecticSpace(n), random.Random(seed))
            assert self.same_certificate(s) is not None

    @pytest.mark.parametrize("alpha", [(2, 1, 1, 0), (0, 3, 0, 1), (1, 1, 1, 1), (0, 0, 0, 4)])
    def test_lagrangian_plus_off_lagrangian_monomial(self, alpha):
        # one monomial with a q factor breaks invariance past the first entry
        for seed in range(2):
            s = random_quartic_lagrangian(2, random.Random(seed))
            witness = self.same_certificate(s + SymTensor.monomial(s.space, alpha))
            assert witness not in (None, (0, 0))

    # (input, whether the rank modulo P certifies h = S^2(support), dim h)
    CERTIFICATE_CASES = {
        "scrambled:2": (lambda: scrambled_lagrangian(2, 0), True, 3),
        "scrambled:3": (lambda: scrambled_lagrangian(3, 2), True, 6),
        "real-random:1": (lambda: make_generator("real-random:1", 3), True, 3),
        "real-random:2": (lambda: make_generator("real-random:2", 3), True, 10),
        "real-random:3": (lambda: make_generator("real-random:3", 3), True, 21),
        "petrov:I": (lambda: make_generator("petrov:I", 0), False, 2),
        "petrov:II": (lambda: make_generator("petrov:II", 0), True, 3),
        "petrov:D": (lambda: make_generator("petrov:D", 0), True, 3),
        "petrov:III": (lambda: make_generator("petrov:III", 0), False, 2),
        "petrov:N": (lambda: make_generator("petrov:N", 0), True, 1),
        "petrov:O": (lambda: make_generator("petrov:O", 0), True, 0),
        "flat-factor": (flat_factor, True, 3),
        "mod-p-trap": (lambda: rank_trap(GaussRat(MODULUS)), False, 3),
        "iota-trap": (lambda: rank_trap(GaussRat(IOTA, -1)), False, 3),
    }

    @pytest.mark.parametrize("case", list(CERTIFICATE_CASES))
    def test_rank_certificate(self, monkeypatch, case):
        # h is S^2(support) exactly when the rank modulo P reaches its
        # dimension, and then h_rows, built from the support's basis alone,
        # are the reference's RREF of the whole table; otherwise the table
        # itself is eliminated
        make, by_rank, dim_h = self.CERTIFICATE_CASES[case]
        s = make()
        ranks = []
        original = hkalgebra.modular_rank

        def recorded(rows, target):
            ranks.append((original(rows, target), target))
            return ranks[-1][0]

        monkeypatch.setattr(hkalgebra, "modular_rank", recorded)
        assert self.same_certificate(s) is None
        q = certify_invariance(s)
        r = q.support.dim
        (rank, target), again = ranks
        assert again == (rank, target) and target == r * (r + 1) // 2
        assert len(q.h_rows) == dim_h and rank <= dim_h <= target
        assert (rank == target) == by_rank
        if case.startswith("scrambled"):
            assert all(sum(1 for c in v if c) > 1 for v in q.support.echelon())

    @staticmethod
    def seeded_inputs(n, rng):
        """A full quartic, a Lagrangian one and the Lagrangian one plus a
        random monomial (a late witness when it has a q factor), each as
        drawn and moved off the axes by a random symplectic map."""
        sp = SymplecticSpace(n)
        lagrangian = random_quartic_lagrangian(n, rng)
        alpha = [0] * sp.dim
        for _ in range(4):
            alpha[rng.randrange(sp.dim)] += 1
        plus = lagrangian + SymTensor.monomial(sp, tuple(alpha), random_gaussrat(rng))
        drawn = [random_quartic_full(sp, rng), lagrangian, plus]
        return drawn + [transform(s, random_symplectic(sp, rng, steps=2)) for s in drawn]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_seeded_inputs(self, n):
        rng = random.Random("certify-invariance-%d" % n)
        witnesses = [self.same_certificate(s)
                     for _ in range(3) for s in self.seeded_inputs(n, rng)]
        assert None in witnesses
        assert any(w not in (None, (0, 0)) for w in witnesses)


# the golden inputs that pass invariance, each with the j its real form
# uses: the committed <stem>.j.json, else the standard split j when dim E is
# a multiple of 4, else none; the quartic is tau-fixed for that j in
# REAL_GOLDEN only
ACCEPTED_GOLDEN = [p for p in GOLDEN_INPUTS
                   if p.stem not in ("full_4", "late_witness", "p3q", "tau_fixed_full_2")]
REAL_GOLDEN = {"non_coordinate_j", "petrov_D", "petrov_I", "petrov_O", "real_1", "real_2",
               "real_2_off_axes"}


def golden_case(path):
    s = quartic_from_dict(json.loads(path.read_text(encoding="utf-8")))
    j_path = path.with_name("%s.j.json" % path.stem)
    if j_path.exists():
        return s, quaternionic_from_json(json.loads(j_path.read_text(encoding="utf-8")), s.space)
    return s, split_j(s)


def split_j(s):
    return None if s.space.dim % 4 else standard_split_j(s.space)


class TestAbelianAgainstDerivedSeries:
    """holonomy(q) reports [h, h] = 0 from the isotropic support without a
    bracket; the reference multiplies out every commutator of the complex
    holonomy basis and of the real one and eliminates the derived series."""

    @staticmethod
    def same_series(s, j):
        """Asserts the reference agrees on h and, when s is tau-fixed for a
        given j, on the real holonomy; returns the number of real forms
        checked."""
        q = certify_invariance(s)
        hol = holonomy(q)
        brackets, series = derived_series_reference(hol.basis)
        assert brackets == {}
        assert series == hol.derived_series_lengths
        if j is None:
            return 0
        rep = check_reality(s, j, q.table)
        if not rep.commutator_condition_ok:
            return 0
        h_real = real_holonomy(q, rep)
        brackets, series = derived_series_reference([s2e_matrix(v, s.space.dim) for v in h_real])
        assert brackets == {}
        r = len(h_real)
        assert series == ((r, 0) if r else (0,))
        return 1

    @pytest.mark.parametrize("path", ACCEPTED_GOLDEN, ids=lambda p: p.stem)
    def test_golden_inputs(self, path):
        assert self.same_series(*golden_case(path)) == (path.stem in REAL_GOLDEN)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_lagrangian(self, n):
        s = make_generator("random-lagrangian:%d" % n, 7)
        self.same_series(s, split_j(s))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_scrambled_lagrangian(self, seed):
        s = scrambled_lagrangian(2, seed)
        self.same_series(s, standard_split_j(s.space))

    @pytest.mark.parametrize("m", [1, 2])
    def test_real_random(self, m):
        s = make_generator("real-random:%d" % m, 3)
        assert self.same_series(s, standard_split_j(s.space)) == 1


class TestHolonomy:
    def test_p4(self, p4):
        hol = holonomy(certify_invariance(p4))
        assert hol.dimension == 1
        assert hol.is_abelian and hol.is_solvable
        assert hol.derived_series_lengths == (1, 0)
        # h = C p^2: the sole basis element is proportional to endo(p^2)
        sp = p4.space
        e_p2 = endo_of_quadratic(lin(sp, 0) ** 2)
        basis_mat = hol.basis[0]
        found = None
        for i in range(2):
            for j in range(2):
                if e_p2.entry(i, j):
                    found = basis_mat.entry(i, j) / e_p2.entry(i, j)
        assert found is not None
        assert basis_mat == e_p2.scale(found)

    def test_zero_quartic(self):
        sp = SymplecticSpace(2)
        hol = holonomy(certify_invariance(SymTensor.zero(sp, 4)))
        assert hol.dimension == 0
        assert hol.is_abelian and hol.is_solvable

    def test_lagrangian_quartics_abelian(self, rng):
        for n in (2, 3):
            s = random_quartic_lagrangian(n, rng)
            hol = holonomy(certify_invariance(s))
            assert hol.is_abelian and hol.is_solvable

    def test_non_solvable_span_detected(self):
        # p^2 q^2 double-contracts onto all of sl(2): the span is its own
        # derived algebra, hence not solvable (and such a quartic is not
        # invariant, which is the point of the solvability argument)
        sp = SymplecticSpace(1)
        s = (lin(sp, 0) ** 2) * (lin(sp, 1) ** 2)
        hol = span_of_double_contractions(s)
        assert hol.dimension == 3
        assert not hol.is_abelian
        assert not hol.is_solvable
        assert hol.derived_series_lengths[-1] == hol.derived_series_lengths[-2]
        assert not check_invariance(s)[0]

    def test_solvable_non_abelian_series(self):
        # p^3 q: holonomy span{p^2, pq} is a 2-step solvable Borel-type algebra
        sp = SymplecticSpace(1)
        s = (lin(sp, 0) ** 3) * lin(sp, 1)
        hol = span_of_double_contractions(s)
        assert hol.dimension == 2
        assert not hol.is_abelian
        assert hol.is_solvable
        assert hol.derived_series_lengths == (2, 1, 0)

    def test_jacobi_catches_a_non_abelian_span(self):
        # the builder records [h, h] = 0; handed the non-abelian span of
        # p^3 q with the table's [m, m] brackets, the exhaustive Jacobi check
        # finds the h-h-m triple whose [A, B]m is not the recorded zero
        sp = SymplecticSpace(1)
        s = (lin(sp, 0) ** 3) * lin(sp, 1)
        table = dict(double_contractions(s))
        h_rows = tuple(map(tuple, echelon_basis(table.values())))
        assert len(h_rows) == span_of_double_contractions(s).dimension == 2
        forged = InvariantQuartic(s, table, h_rows, None)
        with pytest.raises(TheoremViolationError) as info:
            build_complex_algebra(forged, holonomy(forged))
        kind, witness = str(info.value).split(": ", 1)
        assert kind == "jacobi failed"
        assert [label[0] for label in ast.literal_eval(witness)] == ["k", "k", "h"]

    def test_double_contractions_strictly_triangular(self, rng):
        # for S = lambda p^4 + p^3 w0 + p^2 B + p C + D in the splitting
        # E = P + W + Q, every S_{x,y} kills P, maps W and Q into P + W, and
        # has no Q-component at all; this strict triangularity is what makes
        # the holonomy solvable
        from fractions import Fraction

        sp = SymplecticSpace(2)
        p, w1, q, w2 = (lin(sp, k) for k in range(4))
        b = w1 * w2 + (w1 * w1).scale(GaussRat(3))
        c = (w2 ** 2) * w1
        d = (w1 ** 3) * w2
        s = (p ** 4).scale(GaussRat(Fraction(2, 3))) + (p ** 3) * (w1 - w2) \
            + (p ** 2) * b + p * c + d
        p_vec = sp.basis_vector(0)
        pw_space = span(sp, [sp.basis_vector(0), sp.basis_vector(1), sp.basis_vector(3)])
        basis = [sp.basis_vector(k) for k in range(4)]
        for a_idx in range(4):
            for b_idx in range(4):
                endo = double_contraction_endo(s, basis[a_idx], basis[b_idx])
                assert all(not e for e in mat_vec(endo, p_vec))
                for k in (1, 2, 3):
                    img = mat_vec(endo, basis[k])
                    assert in_span(pw_space, img)
                    assert not img[2]  # no q1-component anywhere

    def test_derivation_identity_on_holonomy(self, rng):
        # [S_{e,e'}, S_{f,f'}] = -(S_{S_{e,e'}f, f'} + S_{f, S_{e,e'}f'}) when
        # S is invariant; closure of the holonomy span
        sp = SymplecticSpace(2)
        s = random_quartic_lagrangian(2, rng)
        basis = [sp.basis_vector(k) for k in range(sp.dim)]
        for a in range(sp.dim):
            for b in range(sp.dim):
                A = double_contraction_endo(s, basis[a], basis[b])
                for f in range(sp.dim):
                    for g in range(sp.dim):
                        s_fg = double_contraction_endo(s, basis[f], basis[g])
                        lhs = A @ s_fg - s_fg @ A
                        rhs = -(
                            double_contraction_endo(s, mat_vec(A, basis[f]), basis[g])
                            + double_contraction_endo(s, basis[f], mat_vec(A, basis[g]))
                        )
                        assert lhs == rhs


class TestBuildAlgebra:
    def test_p4_dimensions(self, p4):
        model = complex_model(p4)
        assert model.dim_h == 1
        assert model.dim_m == 4
        assert model.dim == 5

    def test_zero_quartic_abelian(self):
        sp = SymplecticSpace(1)
        model = complex_model(SymTensor.zero(sp, 4))
        assert model.dim_h == 0
        assert all(not model.brackets[a][b] for a in range(model.dim) for b in range(model.dim))

    def test_x4_in_n2(self):
        sp = SymplecticSpace(2)
        model = complex_model(lin(sp, 0) ** 4)
        assert model.dim_h == 1
        assert model.dim_m == 8

    def test_rejects_non_invariant(self):
        sp = SymplecticSpace(1)
        s = (lin(sp, 0) ** 3) * lin(sp, 1)
        # the algebra is built from a certificate, which p^3 q never gets
        with pytest.raises(NotHyperKahlerError) as err:
            certify_invariance(s)
        assert err.value.witness == (0, 1)

    def test_grading_and_metric(self, rng):
        model = complex_model(random_quartic_lagrangian(2, rng))
        assert verify_grading(model) == (True, None)
        assert verify_metric(model) == (True, None)

    def test_n4_pipeline(self, rng):
        # generic quartic on dim E = 8: holonomy fills S^2 E_+ (dimension 10)
        s = random_quartic_lagrangian(4, rng)
        model = complex_model(s)
        assert model.dim_h == 10
        assert model.dim_m == 16
        assert curvature_ricci(model).is_zero()
        assert verify_metric(model) == (True, None)


class TestJacobi:
    def test_p4_model(self, p4):
        model = complex_model(p4)
        assert verify_jacobi(model) == (True, None)

    def test_corrupted_structure_constant_detected(self, p4):
        model = complex_model(p4)
        # corrupt [m1, m2] by injecting a spurious h-component
        a, b = model.dim_h + 0, model.dim_h + 1
        model.brackets[a][b] = dict(model.brackets[a][b])
        model.brackets[a][b][0] = model.brackets[a][b].get(0, ZERO) + ONE
        ok, witness = verify_jacobi(model)
        assert not ok
        assert witness is not None and len(witness) == 3

    def test_abelian_model(self):
        sp = SymplecticSpace(1)
        model = complex_model(SymTensor.zero(sp, 4))
        assert verify_jacobi(model) == (True, None)


# the accepted inputs of the differential Jacobi test, besides scrambled:2
JACOBI_KINDS = (["random-lagrangian:%d" % n for n in (1, 2, 3, 4)]
                + ["real-random:1", "real-random:2"]
                + ["petrov:" + t for t in ("I", "II", "D", "III", "N", "O")])


def perturbed(model, a, b, coords):
    """model with [x_a, x_b] = coords and [x_b, x_a] = -coords, the rest
    shared."""
    brackets = [list(row) for row in model.brackets]
    brackets[a][b] = coords
    brackets[b][a] = {k: -c for k, c in coords.items()}
    return LieAlgebraModel(model.basis_labels, model.dim_h, model.dim_m, brackets,
                           model.metric_on_m)


def perturbations(model, rng):
    """Models with one structure constant changed, with its antisymmetric
    partner: a zero bracket made nonzero, a nonzero bracket zeroed, and one
    coordinate of a nonzero bracket changed, three of each."""
    dim = model.dim
    pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    zero = [p for p in pairs if not model.brackets[p[0]][p[1]]]
    nonzero = [p for p in pairs if model.brackets[p[0]][p[1]]]
    for _ in range(3):
        if zero:
            a, b = rng.choice(zero)
            yield perturbed(model, a, b, {rng.randrange(dim): random_gaussrat(rng)})
        if nonzero:
            a, b = rng.choice(nonzero)
            yield perturbed(model, a, b, {})
            coords = dict(model.brackets[a][b])
            k = rng.choice(sorted(coords))
            coords[k] = coords[k] + random_gaussrat(rng)
            yield perturbed(model, a, b, {k: c for k, c in coords.items() if c})


class TestJacobiSkip:
    """verify_jacobi evaluates only the triples whose brackets do not all
    vanish; it must agree with the walk over every triple, witness included."""

    @pytest.mark.parametrize("kind", JACOBI_KINDS + ["scrambled:2"])
    def test_same_verdict_as_every_triple(self, kind):
        s = scrambled_lagrangian(2, 0) if kind == "scrambled:2" else make_generator(kind, 7)
        model = complex_model(s)
        assert verify_jacobi(model) == verify_jacobi_reference(model) == (True, None)
        rng = random.Random("jacobi-skip " + kind)
        failures = 0
        for bad in perturbations(model, rng):
            found = verify_jacobi(bad)
            assert found == verify_jacobi_reference(bad)
            failures += not found[0]
        # one changed bracket of the abelian petrov:O model is still a Lie
        # algebra; on every other model some change breaks Jacobi
        assert failures or not model.dim_h


def with_metric(model, rows):
    """model with its metric on m replaced by the matrix of rows, the
    brackets shared."""
    return LieAlgebraModel(model.basis_labels, model.dim_h, model.dim_m, model.brackets,
                           Matrix(rows))


def metric_changes(model, rng):
    """Models with one symmetric pair of metric entries G[x][y] = G[y][x]
    changed by a random nonzero amount, three of them."""
    dm = model.dim_m
    for _ in range(3):
        x, y = rng.randrange(dm), rng.randrange(dm)
        rows = model.metric_on_m.rows_list()
        rows[x][y] = rows[y][x] = rows[x][y] + (random_gaussrat(rng) or ONE)
        yield with_metric(model, rows)


def real_model(kind):
    """The real form of kind's quartic (seed 7) under the default j."""
    s = make_generator(kind, 7)
    q = certify_invariance(s)
    rep = check_reality(s, standard_split_j(s.space), q.table)
    return build_real_algebra(q, complex_model(s), rep, real_holonomy(q, rep))


class TestMetricOverNonzeros:
    """verify_metric reads ad_a^t G + G ad_a over the model's nonzeros; it
    must agree with the sum over every (a, x, y), witness included."""

    @pytest.mark.parametrize("kind", JACOBI_KINDS + ["scrambled:2", "real form real-random:1"])
    def test_same_verdict_as_every_triple(self, kind):
        if kind == "scrambled:2":
            model = complex_model(scrambled_lagrangian(2, 0))
        elif kind.startswith("real form "):
            model = real_model(kind.split()[-1])
        else:
            model = complex_model(make_generator(kind, 7))
        assert verify_metric(model) == verify_metric_reference(model) == (True, None)
        rng = random.Random("metric-nonzeros " + kind)
        failures = 0
        for bad in list(perturbations(model, rng)) + list(metric_changes(model, rng)):
            found = verify_metric(bad)
            assert found == verify_metric_reference(bad)
            failures += not found[0]
        # with h = 0 (petrov:O) every symmetric nondegenerate metric is
        # h-invariant; on every other model some change breaks it
        assert failures or not model.dim_h

    def test_bracket_into_h_is_a_witness(self, p4):
        # [k1, h1*p1] given a component on k1 itself: ad_a leaves m, which
        # fails (0, 0) first, not a read of G at a negative index
        model = complex_model(p4)
        bad = perturbed(model, 0, model.dim_h, {0: ONE})
        expected = (False, "metric not h-invariant at (0, 0, 0)")
        assert verify_metric(bad) == verify_metric_reference(bad) == expected


class TestMetricRefusals:
    """Each refusal of verify_metric on a tampered metric, with its exact
    message, and the TheoremViolationError verify_model raises for one."""

    def test_size(self, p4):
        model = complex_model(p4)
        rows = [row[:-1] for row in model.metric_on_m.rows_list()[:-1]]
        assert verify_metric(with_metric(model, rows)) == (False, "metric size")

    def test_not_symmetric(self, p4):
        model = complex_model(p4)
        rows = model.metric_on_m.rows_list()
        rows[0][1] = rows[0][1] + ONE
        assert verify_metric(with_metric(model, rows)) == (False, "metric not symmetric")

    def test_degenerate(self, p4):
        model = complex_model(p4)
        rows = model.metric_on_m.rows_list()
        rows[0] = [ZERO] * model.dim_m
        for row in rows:
            row[0] = ZERO
        assert verify_metric(with_metric(model, rows)) == (False, "metric degenerate")

    def test_verify_model_names_the_metric_witness(self, p4):
        # p4 = p^4: h = span{k1}, and [k1, m] moves only h1*q1 and h2*q1
        model = complex_model(p4)
        assert verify_model(model)
        rows = model.metric_on_m.rows_list()
        rows[0][0] = ONE
        with pytest.raises(TheoremViolationError) as err:
            verify_model(with_metric(model, rows))
        assert str(err.value) == "metric failed: metric not h-invariant at (0, 0, 1)"


class TestRicci:
    def test_p4_ricci_zero(self, p4):
        model = complex_model(p4)
        assert curvature_ricci(model).is_zero()
        assert verify_metric(model) == (True, None)

    def test_zero_quartic(self):
        sp = SymplecticSpace(1)
        assert curvature_ricci(complex_model(SymTensor.zero(sp, 4))).is_zero()

    def test_random_lagrangian_n2_with_adjoint_oracle(self, rng):
        s = random_quartic_lagrangian(2, rng)
        model = complex_model(s)
        ric = curvature_ricci(model)
        assert ric.is_zero()
        assert verify_metric(model) == (True, None)
        assert ricci_by_adjoint_matrices(model) == ric


class TestFindLagrangian:
    def test_p4(self, p4):
        sp = p4.space
        assert find_lagrangian(certify_invariance(p4)) == span(sp, [sp.basis_vector(0)])

    def test_zero_quartic_greedy_default(self):
        sp = SymplecticSpace(2)
        out = find_lagrangian(certify_invariance(SymTensor.zero(sp, 4)))
        assert out == span(sp, [sp.basis_vector(0), sp.basis_vector(1)])

    def test_x4_plus_y4(self, rng):
        sp = SymplecticSpace(2)
        s = lin(sp, 0) ** 4 + lin(sp, 1) ** 4
        out = find_lagrangian(certify_invariance(s))
        assert out == span(sp, [sp.basis_vector(0), sp.basis_vector(1)])

    def test_after_symplectic_scramble(self, rng):
        from hksym.symtensor import tensor_in_subspace_power

        sp = SymplecticSpace(2)
        s = random_quartic_lagrangian(2, rng)
        t = random_symplectic(sp, rng)
        scrambled = transform(s, t)
        out = find_lagrangian(certify_invariance(scrambled))
        assert out.dim == sp.n and is_isotropic(out)
        assert tensor_in_subspace_power(scrambled, out)

    def test_rejects_non_invariant(self):
        sp = SymplecticSpace(1)
        # the Lagrangian is found from a certificate, which p^3 q never gets
        with pytest.raises(NotHyperKahlerError) as err:
            certify_invariance((lin(sp, 0) ** 3) * lin(sp, 1))
        assert err.value.witness == (0, 1)


class TestFlatDecomposition:
    def test_p4_has_no_flat_factor(self, p4):
        e1, e0, flat = flat_split(p4)
        assert flat == 0
        assert e1.dim == 2 and e0.dim == 0

    def test_zero_quartic_fully_flat(self):
        sp = SymplecticSpace(1)
        e1, e0, flat = flat_split(SymTensor.zero(sp, 4))
        assert flat == 4
        assert e0.dim == 2 and e1.dim == 0

    def test_x4_in_n2(self):
        sp = SymplecticSpace(2)
        e1, e0, flat = flat_split(lin(sp, 0) ** 4)
        assert flat == 4
        assert e1.dim == 2 and e0.dim == 2
        assert in_span(e1, sp.basis_vector(0))

    def test_pieces_are_omega_orthogonal(self, rng):
        from hksym.symplectic import omega_pair

        sp = SymplecticSpace(2)
        s = lin(sp, 0) ** 4
        e1, e0, _ = flat_split(s)
        for u in e1.basis:
            for v in e0.basis:
                assert omega_pair(sp, u, v) == ZERO


class TestAut:
    def test_p4_trivial(self, p4):
        sp = p4.space
        basis = compute_aut(p4, span(sp, [sp.basis_vector(0)]))
        assert basis == []

    def test_zero_quartic_full_gl(self):
        sp = SymplecticSpace(2)
        e_plus = span(sp, [sp.basis_vector(0), sp.basis_vector(1)])
        basis = compute_aut(SymTensor.zero(sp, 4), e_plus)
        assert len(basis) == 4

    def test_x3y_one_dimensional(self):
        sp = SymplecticSpace(2)
        s = (lin(sp, 0) ** 3) * lin(sp, 1)
        e_plus = span(sp, [sp.basis_vector(0), sp.basis_vector(1)])
        basis = compute_aut(s, e_plus)
        assert len(basis) == 1
        # the diagonal direction with 3 a_x + a_y = 0, echelon-normalized
        assert basis[0] == Matrix([[ONE, ZERO], [ZERO, GaussRat(-3)]])

    def test_rejects_unsupported(self):
        sp = SymplecticSpace(2)
        e_plus = span(sp, [sp.basis_vector(0), sp.basis_vector(1)])
        with pytest.raises(ContractError):
            compute_aut(lin(sp, 2) ** 4, e_plus)

    def test_matches_bruteforce_oracle(self, rng):
        for n in (1, 2):
            sp = SymplecticSpace(n)
            e_plus = span(sp, [sp.basis_vector(k) for k in range(n)])
            for _ in range(5):
                s = random_quartic_lagrangian(n, rng)
                assert len(compute_aut(s, e_plus)) == aut_dimension_bruteforce(s, e_plus)

    def test_embedding_is_symplectic_lie(self, rng):
        from hksym.symtensor import is_in_sp

        sp = SymplecticSpace(2)
        e_plus = span(sp, [sp.basis_vector(0), sp.basis_vector(1)])
        a = Matrix([[GaussRat(1), GaussRat(2, 1)], [GaussRat(0, 1), GaussRat(-1)]])
        emb = embed_gl_eplus(lagrangian_complement(e_plus), a)
        assert is_in_sp(sp, emb)
        # abstract brute force over sp(E) stabilizers agrees with the embedding
        for v in e_plus.basis:
            assert in_span(e_plus, mat_vec(emb, v))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_embedding_reference(self, n):
        # S moved off the axes by 1-6 transvections, E_+ the Lagrangian
        # find_lagrangian extends its support to.  Two draws are dense; the
        # sparse ones (S on the first half of the variables, and two
        # monomials, or zero at n = 1) have a nontrivial aut(S).  The bases
        # agree exactly, not only in dimension
        dims = []
        for seed in range(4):
            rng = random.Random(100 * n + seed)
            s = random_quartic_lagrangian(n, rng)
            if seed == 2:
                half = (n + 1) // 2
                s = SymTensor(s.space, 4, {a: c for a, c in s.coeffs.items() if not any(a[half:n])})
            elif seed == 3:
                s = SymTensor(s.space, 4, dict(sorted(s.coeffs.items())[:2]) if n > 1 else {})
            s = transform(s, random_symplectic(s.space, rng, steps=rng.randint(1, 6)))
            e_plus = find_lagrangian(certify_invariance(s))
            basis = compute_aut(s, e_plus)
            assert basis == aut_basis_by_embedding(s, e_plus)
            dims.append(len(basis))
        assert dims == {1: [0, 0, 0, 1], 2: [0, 0, 2, 1], 3: [0, 0, 3, 4], 4: [0, 0, 8, 9]}[n]


class TestGLEquivariance:
    def test_invariants_stable_under_gl_eplus(self, rng):
        sp = SymplecticSpace(2)
        e_plus = span(sp, [sp.basis_vector(0), sp.basis_vector(1)])
        for _ in range(5):
            s = random_quartic_lagrangian(2, rng)
            t_small = random_invertible(2, rng)
            big = embed_gl_group(e_plus, t_small)
            moved = transform(s, big)
            assert holonomy(certify_invariance(moved)).dimension == holonomy(certify_invariance(s)).dimension
            assert support(moved).dim == support(s).dim
            assert flat_split(moved)[2] == flat_split(s)[2]
            assert len(compute_aut(moved, e_plus)) == len(compute_aut(s, e_plus))


class TestAnalyze:
    def test_dim4_report(self, p4):
        report = analyze_quartic(p4)
        assert report.invariance_ok
        assert report.holonomy.dimension == 1
        assert report.support_dim == 1
        assert report.flat_complex_dim == 0
        assert report.jacobi_ok and report.ricci_zero
        d = report.to_dict()
        assert d["holonomy"]["is_abelian"] is True

    def test_rejected_report(self):
        sp = SymplecticSpace(1)
        s = (lin(sp, 0) ** 3) * lin(sp, 1)
        report = analyze_quartic(s)
        assert not report.invariance_ok
        assert report.invariance_witness == (0, 1)

    @pytest.mark.parametrize("path", ACCEPTED_GOLDEN, ids=lambda p: p.stem)
    def test_flat_dimension_counts_the_split(self, path):
        # analyze counts 2 dim E^0 = 4(n - dim support) and builds no split
        s = quartic_from_dict(json.loads(path.read_text(encoding="utf-8")))
        assert analyze_quartic(s).flat_complex_dim == flat_split(s)[2]

    def test_report_field_consistency(self, rng):
        # flat_complex_dim = 0 exactly when the support fills a Lagrangian
        sp2 = SymplecticSpace(2)
        samples = [
            lin(sp2, 0) ** 4,
            lin(sp2, 0) ** 4 + lin(sp2, 1) ** 4,
            SymTensor.zero(sp2, 4),
            random_quartic_lagrangian(2, rng),
        ]
        for s in samples:
            report = analyze_quartic(s)
            assert (report.flat_complex_dim == 0) == (report.support_dim == sp2.n)
