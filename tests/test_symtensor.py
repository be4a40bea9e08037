import json
import random
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from hksym.exactnum import (
    ContractError,
    GaussRat,
    I_UNIT,
    Matrix,
    ONE,
    ScalarError,
    ZERO,
    inverse,
)
from hksym.symplectic import (
    QuaternionicStructure,
    SymplecticSpace,
    omega_pair,
    span,
    standard_quaternionic,
)
from hksym.symtensor import (
    SymTensor,
    action_residue,
    contract,
    double_contraction_endo,
    double_contractions,
    endo_of_quadratic,
    eval_on_vectors,
    gradient_residues,
    in_frame,
    is_in_sp,
    quartic_from_dict,
    quartic_to_dict,
    quadratic,
    s2e_coords,
    s2e_matrix,
    sp_action,
    _over_lcms,
    support,
    support_columns,
    tau,
    tensor_in_subspace_power,
    transform,
)
from hksym.generators import (
    make_generator,
    random_gaussrat,
    random_quartic_full,
    random_quartic_lagrangian,
    random_symplectic,
    standard_split_j,
)
from oracles import (
    binary_quartic_by_frame,
    double_contractions_by_contraction,
    endo_by_contraction,
    flatten,
    polarization_inclusion_exclusion,
    quartic_from_dict_reference,
    random_vector,
    sp_action_reference,
    support_columns_by_contraction,
    tau_reference,
    transform_reference,
)

GOLDEN_INPUTS = sorted(p for p in (Path(__file__).resolve().parent / "golden").glob("*.json")
                       if not p.name.endswith(".j.json"))


def lin(sp, k):
    return SymTensor.linear(sp, sp.basis_vector(k))


def random_tensor(sp, degree, rng):
    from itertools import combinations_with_replacement

    coeffs = {}
    for combo in combinations_with_replacement(range(sp.dim), degree):
        alpha = [0] * sp.dim
        for k in combo:
            alpha[k] += 1
        c = random_gaussrat(rng)
        if c:
            coeffs[tuple(alpha)] = c
    return SymTensor(sp, degree, coeffs)


def random_sp_element(sp, rng):
    return endo_of_quadratic(random_tensor(sp, 2, rng))


def random_height_gaussrat(rng, bits, den_bits=16):
    """A GaussRat whose real and imaginary parts are both p/q with p odd and
    q even, |p| below 2^bits and q below 2^min(bits, den_bits): never an
    integer, never real."""
    top = 1 << (bits - 1)
    bottom = 1 << (min(bits, den_bits) - 1)

    def part():
        return Fraction(2 * rng.randrange(-top, top) + 1, 2 * rng.randrange(1, bottom))

    return GaussRat(part(), part())


def with_heights(t, rng, bits):
    """t with each coefficient multiplied by its own random_height_gaussrat."""
    return SymTensor(t.space, t.degree,
                     {alpha: c * random_height_gaussrat(rng, bits) for alpha, c in t.coeffs.items()})


def random_sp_matrix(sp, rng, bits):
    """[[X, Y], [Z, -X^t]] with Y and Z symmetric, every entry of X, Y and Z
    drawn by random_height_gaussrat: an element of sp(E) built from its block
    form, not from a quadratic."""
    n = sp.n

    def block(symmetric):
        m = [[None] * n for _ in range(n)]
        for i in range(n):
            for k in range(i if symmetric else 0, n):
                m[i][k] = random_height_gaussrat(rng, bits)
                if symmetric:
                    m[k][i] = m[i][k]
        return m

    x, y, z = block(False), block(True), block(True)
    top = [x[i] + y[i] for i in range(n)]
    bottom = [z[i] + [-x[k][i] for k in range(n)] for i in range(n)]
    return Matrix(top + bottom)


PAPER_SCALARS = [GaussRat(1), GaussRat(-2), GaussRat(Fraction(3, 5))]


class TestAnchorConventions:
    """The pinned family values, exactly."""

    def test_pairing_anchor(self):
        sp = SymplecticSpace(1)
        p = lin(sp, 0)
        assert eval_on_vectors(p, [sp.basis_vector(1)]) == GaussRat(-1)
        q = lin(sp, 1)
        assert eval_on_vectors(q, [sp.basis_vector(0)]) == ONE

    @pytest.mark.parametrize("mu", PAPER_SCALARS)
    def test_contraction_anchor(self, mu):
        # S = p^3(lambda p + mu q + w0) + p^2 B + p C + D  =>  S_{p,q} = -(1/4) mu p^2
        sp = SymplecticSpace(2)
        p, w1, q, w2 = (lin(sp, k) for k in range(4))
        lam = GaussRat(Fraction(7, 3))
        w0 = w1 - w2.scale(GaussRat(Fraction(1, 2)))
        b = w1 * w2 + (w2 * w2).scale(GaussRat(3))
        c = (w1 ** 2) * w2
        d = w1 * (w2 ** 3)
        s = (p ** 3) * (p.scale(lam) + q.scale(mu) + w0) + (p ** 2) * b + p * c + d
        s_pq = contract(contract(s, sp.basis_vector(0)), sp.basis_vector(2))
        assert s_pq == (p * p).scale(-(mu * GaussRat(Fraction(1, 4))))

    @pytest.mark.parametrize("lam", PAPER_SCALARS)
    def test_sqq_anchor_mu_zero(self, lam):
        # S_{q,q} = (1/6)(6 lambda p^2 + 3 p w0 + B) in the mu = 0 family
        sp = SymplecticSpace(2)
        p, w1, q, w2 = (lin(sp, k) for k in range(4))
        w0 = w1.scale(GaussRat(2)) + w2
        b = (w1 * w1).scale(GaussRat(Fraction(1, 3))) + w1 * w2
        c = w2 ** 3
        d = (w1 ** 2) * (w2 ** 2)
        s = (p ** 3) * (p.scale(lam) + w0) + (p ** 2) * b + p * c + d
        s_qq = contract(contract(s, sp.basis_vector(2)), sp.basis_vector(2))
        want = (p * p).scale(lam) + (p * w0).scale(GaussRat(Fraction(1, 2))) + b.scale(GaussRat(Fraction(1, 6)))
        assert s_qq == want

    @pytest.mark.parametrize("lam", PAPER_SCALARS)
    @pytest.mark.parametrize("mu", PAPER_SCALARS)
    def test_action_anchor(self, lam, mu):
        sp = SymplecticSpace(1)
        p, q = lin(sp, 0), lin(sp, 1)
        s = (p ** 4).scale(lam) + ((p ** 3) * q).scale(mu)
        acted = sp_action(endo_of_quadratic(p * q), s)
        assert acted == (p ** 4).scale(GaussRat(-2) * lam) + ((p ** 3) * q).scale(-mu)

    def test_sqw_anchor(self):
        # S_{q,w} = -(1/12)(-3 p^2 omega(w0, w) + 4 p B_w + 3 C_w)
        sp = SymplecticSpace(2)
        p, w1, q, w2 = (lin(sp, k) for k in range(4))
        lam = GaussRat(1)
        w0_vec = tuple(a + b for a, b in zip(sp.basis_vector(1), sp.basis_vector(3)))
        w0 = w1 + w2
        b = w1 * w2
        c = (w2 ** 2) * w1
        d = w2 ** 4
        s = (p ** 3) * (p.scale(lam) + w0) + (p ** 2) * b + p * c + d
        w_vec = sp.basis_vector(1)
        s_qw = contract(contract(s, sp.basis_vector(2)), w_vec)
        b_w = contract(b, w_vec)
        c_w = contract(c, w_vec)
        coef = GaussRat(-3) * omega_pair(sp, w0_vec, w_vec)
        want = ((p * p).scale(coef) + (p * b_w).scale(GaussRat(4)) + c_w.scale(GaussRat(3)))
        want = want.scale(GaussRat(Fraction(-1, 12)))
        assert s_qw == want

    def test_sww_anchor(self):
        # S_{w,w'} = (1/6)(p^2 B_{w,w'} + 3 p C_{w,w'} + 6 D_{w,w'})
        sp = SymplecticSpace(2)
        p, w1, q, w2 = (lin(sp, k) for k in range(4))
        b = (w1 * w1).scale(GaussRat(2)) + w1 * w2 - (w2 * w2).scale(GaussRat(Fraction(1, 5)))
        c = (w1 ** 2) * w2 + (w2 ** 3).scale(GaussRat(3))
        d = (w1 ** 2) * (w2 ** 2)
        s = (p ** 4).scale(GaussRat(7)) + (p ** 3) * (w1 + w2) + (p ** 2) * b + p * c + d
        w_vec, wp_vec = sp.basis_vector(1), sp.basis_vector(3)
        s_ww = contract(contract(s, w_vec), wp_vec)
        b_ww = contract(contract(b, w_vec), wp_vec)  # degree 0
        c_ww = contract(contract(c, w_vec), wp_vec)  # degree 1
        d_ww = contract(contract(d, w_vec), wp_vec)  # degree 2
        b_scalar = b_ww.coeffs.get((0, 0, 0, 0), GaussRat(0))
        want = ((p * p).scale(b_scalar) + (p * c_ww).scale(GaussRat(3)) + d_ww.scale(GaussRat(6)))
        assert s_ww == want.scale(GaussRat(Fraction(1, 6)))

    def test_triple_contraction_total_symmetry(self, rng):
        # S_{e,e''} e' = S_{e,e'} e'' as vectors, for any quartic: the bracket
        # reduction that turns the Jacobi identity into symmetry of S
        from hksym.exactnum import mat_vec

        sp = SymplecticSpace(2)
        s = random_tensor(sp, 4, rng)
        for _ in range(5):
            e = random_vector(sp, rng)
            e1 = random_vector(sp, rng)
            e2 = random_vector(sp, rng)
            lhs = mat_vec(double_contraction_endo(s, e, e2), e1)
            rhs = mat_vec(double_contraction_endo(s, e, e1), e2)
            assert lhs == rhs

    def test_p2_action_gives_mu_p4(self):
        # p^2 . S = mu p^4 in the family (used to force mu = 0)
        sp = SymplecticSpace(2)
        p, w1, q, w2 = (lin(sp, k) for k in range(4))
        mu = GaussRat(Fraction(-5, 2))
        s = (p ** 3) * (q.scale(mu) + w1) + (p ** 2) * (w1 * w2)
        acted = sp_action(endo_of_quadratic(p * p), s)
        assert acted == (p ** 4).scale(mu)


class TestEval:
    def test_p4_against_qqqq(self):
        sp = SymplecticSpace(1)
        p = lin(sp, 0)
        assert eval_on_vectors(p ** 4, [sp.basis_vector(1)] * 4) == ONE

    def test_wrong_argument_count(self):
        sp = SymplecticSpace(1)
        with pytest.raises(ContractError):
            eval_on_vectors(lin(sp, 0), [])

    def test_symmetry_in_arguments(self, rng):
        sp = SymplecticSpace(2)
        t = random_tensor(sp, 3, rng)
        xs = [random_vector(sp, rng) for _ in range(3)]
        base = eval_on_vectors(t, xs)
        perm = [xs[2], xs[0], xs[1]]
        assert eval_on_vectors(t, perm) == base

    def test_against_inclusion_exclusion_oracle(self, rng):
        for n in (1, 2, 3):
            sp = SymplecticSpace(n)
            for degree in (1, 2, 3, 4):
                t = random_tensor(sp, degree, rng)
                xs = [random_vector(sp, rng) for _ in range(degree)]
                assert eval_on_vectors(t, xs) == polarization_inclusion_exclusion(t, xs)


class TestContract:
    def test_contract_p2_with_p_vanishes(self):
        sp = SymplecticSpace(1)
        p = lin(sp, 0)
        assert contract(p * p, sp.basis_vector(0)).is_zero()

    def test_degree_zero_rejected(self):
        sp = SymplecticSpace(1)
        with pytest.raises(ContractError):
            contract(SymTensor.zero(sp, 0), sp.basis_vector(0))

    def test_iterated_contraction_symmetric(self, rng):
        sp = SymplecticSpace(2)
        for degree in (2, 3, 4):
            t = random_tensor(sp, degree, rng)
            x = random_vector(sp, rng)
            y = random_vector(sp, rng)
            assert contract(contract(t, x), y) == contract(contract(t, y), x)

    def test_linear_in_direction(self, rng):
        sp = SymplecticSpace(2)
        t = random_tensor(sp, 3, rng)
        x = random_vector(sp, rng)
        y = random_vector(sp, rng)
        c = random_gaussrat(rng)
        lhs = contract(t, tuple(a + c * b for a, b in zip(x, y)))
        rhs = contract(t, x) + contract(t, y).scale(c)
        assert lhs == rhs


class TestEndo:
    def test_pq_endomorphism(self):
        sp = SymplecticSpace(1)
        p, q = lin(sp, 0), lin(sp, 1)
        e = endo_of_quadratic(p * q)
        half = GaussRat(Fraction(1, 2))
        assert e == Matrix([[half, ZERO], [ZERO, -half]])

    def test_p2_endomorphism(self):
        sp = SymplecticSpace(1)
        p = lin(sp, 0)
        e = endo_of_quadratic(p * p)
        assert e == Matrix([[ZERO, GaussRat(-1)], [ZERO, ZERO]])

    def test_zero(self):
        sp = SymplecticSpace(2)
        assert endo_of_quadratic(SymTensor.zero(sp, 2)).is_zero()

    def test_always_lands_in_sp(self, rng):
        for n in (1, 2, 3):
            sp = SymplecticSpace(n)
            for _ in range(10):
                b = random_tensor(sp, 2, rng)
                assert is_in_sp(sp, endo_of_quadratic(b))

    def test_injective_on_quadratics(self, rng):
        sp = SymplecticSpace(2)
        b = random_tensor(sp, 2, rng)
        c = random_tensor(sp, 2, rng)
        if b != c:
            assert endo_of_quadratic(b) != endo_of_quadratic(c)

    def test_wrong_degree(self):
        sp = SymplecticSpace(1)
        with pytest.raises(ContractError):
            endo_of_quadratic(SymTensor.zero(sp, 3))


class TestSpAction:
    def test_zero_tensor(self, rng):
        sp = SymplecticSpace(2)
        a = random_sp_element(sp, rng)
        assert sp_action(a, SymTensor.zero(sp, 4)).is_zero()

    def test_p2_annihilates_p4(self):
        sp = SymplecticSpace(1)
        p = lin(sp, 0)
        assert sp_action(endo_of_quadratic(p * p), (p ** 4).scale(GaussRat(5))).is_zero()

    def test_rejects_non_sp(self):
        sp = SymplecticSpace(1)
        with pytest.raises(ContractError):
            sp_action(Matrix.identity(2), SymTensor.zero(sp, 4))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rejects_a_matrix_just_outside_sp(self, n):
        rng = random.Random(90 + n)
        sp = SymplecticSpace(n)
        # negate the second copy of the S^2E coordinate at (0, n): A[n][n] = -A[0][0]
        rows = random_sp_matrix(sp, rng, 8).rows_list()
        rows[n][n] = -rows[n][n]
        a = Matrix(rows)
        with pytest.raises(ContractError, match="not in sp"):
            sp_action(a, random_quartic_full(sp, rng))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_gaussrat_reference(self, n):
        """Seeded differential test against the one-GaussRat-per-term loop:
        full and symplectically moved quartics (and tensors of degree 0 to
        3), as drawn and with coefficient heights raised to 2 and 300 bits by
        independent factors, against A from a quadratic and from the
        block form of sp(E), all with non-integer complex entries."""
        rng = random.Random(1400 + n)
        sp = SymplecticSpace(n)
        tensors = [
            random_quartic_full(sp, rng),
            transform(random_quartic_lagrangian(n, rng), random_symplectic(sp, rng, steps=2)),
        ] + [random_tensor(sp, degree, rng) for degree in range(4)]
        nonzero = 0
        for bits in (None, 2, 300):
            for t in tensors:
                if bits is not None:
                    t = with_heights(t, rng, bits)
                quadratic = random_tensor(sp, 2, rng)
                for a in (endo_of_quadratic(quadratic if bits is None else with_heights(quadratic, rng, bits)),
                          random_sp_matrix(sp, rng, bits or 4)):
                    acted = sp_action(a, t)
                    assert acted == sp_action_reference(a, t)
                    nonzero += not acted.is_zero()
        assert nonzero >= 2 * 3 * 2

    def test_leibniz_on_products(self, rng):
        sp = SymplecticSpace(2)
        a = random_sp_element(sp, rng)
        t = random_tensor(sp, 2, rng)
        s = random_tensor(sp, 2, rng)
        lhs = sp_action(a, t * s)
        rhs = sp_action(a, t) * s + t * sp_action(a, s)
        assert lhs == rhs

    def test_derivation_identity(self, rng):
        # (A.S)_{f,f'} = [S_{f,f'}, A] + S_{Af,f'} + S_{f,Af'}; this is the
        # closure identity of the holonomy span, with the sign forced by the
        # three convention anchors.
        sp = SymplecticSpace(2)
        for _ in range(5):
            a = random_sp_element(sp, rng)
            s = random_tensor(sp, 4, rng)
            acted = sp_action(a, s)
            for f_idx in range(sp.dim):
                for g_idx in range(sp.dim):
                    f = sp.basis_vector(f_idx)
                    g = sp.basis_vector(g_idx)
                    from hksym.exactnum import mat_vec

                    lhs = double_contraction_endo(acted, f, g)
                    s_ff = double_contraction_endo(s, f, g)
                    rhs = (s_ff @ a - a @ s_ff) \
                        + double_contraction_endo(s, mat_vec(a, f), g) \
                        + double_contraction_endo(s, f, mat_vec(a, g))
                    assert lhs == rhs


class TestOverLcms:
    """sp_action's common denominators: one per class of values, each value
    an exact numerator over its class's lcm."""

    @staticmethod
    def _values(lcms, nums):
        return [GaussRat(Fraction(a, lcms[j]), Fraction(b, lcms[j])) for j, a, b in nums]

    def test_shared_primes_make_one_class(self):
        rng = random.Random(5)
        values = [GaussRat(Fraction(rng.randint(-99, 99), 2 ** rng.randint(0, 40) * 3 ** rng.randint(0, 25)),
                           Fraction(rng.randint(-99, 99), 6 ** rng.randint(0, 20))) for _ in range(50)]
        lcms, nums = _over_lcms(values)
        assert len(lcms) == 1
        assert self._values(lcms, nums) == values

    def test_independent_large_denominators_split(self):
        rng = random.Random(6)
        values = [random_height_gaussrat(rng, 300, den_bits=300) for _ in range(20)]
        lcms, nums = _over_lcms(values)
        assert len(lcms) > 1
        assert max(d.bit_length() for d in lcms) <= 2 * 600 + 64
        assert self._values(lcms, nums) == values

    def test_zeros_and_empty(self):
        assert _over_lcms([]) == ([1], [])
        assert _over_lcms([ZERO, GaussRat(3)]) == ([1], [(0, 0, 0), (0, 3, 0)])


class TestActionResidue:
    """action_residue: L_A L (A . t)(x) modulo P at one point x, from
    gradient_residues(t).  A zero action gives a zero residue, so a nonzero
    residue is a certificate that A . t != 0."""

    @pytest.mark.parametrize("s", [
        *(make_generator("random-lagrangian:%d" % n, 7) for n in range(1, 5)),
        quartic_from_dict(json.loads(
            (GOLDEN_INPUTS[0].parent / "scrambled_lagrangian_2.json").read_text(encoding="utf-8"))),
        make_generator("real-random:2", 3),
    ], ids=["random-lagrangian:%d" % n for n in range(1, 5)] + ["scrambled_lagrangian_2",
                                                                 "real-random:2"])
    def test_zero_on_every_entry_of_an_invariant_quartic(self, s):
        gradient = gradient_residues(s)
        for _, v in double_contractions(s):
            a = s2e_matrix(v, s.space.dim)
            assert sp_action_reference(a, s).is_zero()
            assert action_residue(a, gradient) == (0, 0)

    @pytest.mark.parametrize("n,acting", [(1, 3), (2, 10), (3, 21)])
    def test_finds_every_nonzero_action_of_a_full_quartic(self, n, acting):
        # every table entry of a full quartic acts on it, and every one of
        # those actions has a nonzero residue
        s = random_quartic_full(SymplecticSpace(n), random.Random(60 + n))
        gradient = gradient_residues(s)
        found = []
        for _, v in double_contractions(s):
            a = s2e_matrix(v, s.space.dim)
            acts = not sp_action_reference(a, s).is_zero()
            assert bool(any(action_residue(a, gradient))) == acts
            found.append(acts)
        assert sum(found) == len(found) == acting

    @pytest.mark.parametrize("bits", [2, 300])
    def test_large_denominators(self, bits):
        # coefficients and entries each times its own random height factor
        # (random_height_gaussrat), so that the lcms scaling them share few
        # factors: the residue is still nonzero exactly where the action is
        rng = random.Random(1500 + bits)
        sp = SymplecticSpace(2)
        for degree in range(5):
            t = with_heights(random_tensor(sp, degree, rng), rng, bits)
            gradient = gradient_residues(t)
            for a in (random_sp_matrix(sp, rng, bits), endo_of_quadratic(with_heights(
                    random_tensor(sp, 2, rng), rng, bits))):
                acted = sp_action_reference(a, t)
                assert bool(any(action_residue(a, gradient))) == (not acted.is_zero())
                assert acted.is_zero() == (degree == 0)


class TestCancellation:
    """Builders accumulate into plain dicts and leave dropping zero
    coefficients to the SymTensor constructor."""

    @staticmethod
    def assert_clean(t):
        assert all(t.coeffs.values())

    def test_cancelling_sums(self):
        sp = SymplecticSpace(2)
        t = SymTensor.linear(sp, (ONE, GaussRat(2), GaussRat(-1), I_UNIT)) ** 4
        assert (t + (-t)).is_zero()
        assert (t - t).is_zero()
        partial = (t + lin(sp, 0) ** 4) + (-t)
        assert partial == lin(sp, 0) ** 4
        self.assert_clean(partial)

    def test_cancelling_products(self):
        sp = SymplecticSpace(1)
        p, q = lin(sp, 0), lin(sp, 1)
        product = (p + q) * (p - q)
        assert set(product.coeffs) == {(2, 0), (0, 2)}
        self.assert_clean(product)
        assert (product * SymTensor.zero(sp, 2)).is_zero()

    def test_cancelling_contractions(self):
        # omega(v, v) = 0, so (l^4)_v vanishes although every term contributes
        sp = SymplecticSpace(2)
        v = (ONE, GaussRat(2), GaussRat(-1), I_UNIT)
        assert contract(SymTensor.linear(sp, v) ** 4, v).is_zero()
        mixed = contract(lin(sp, 0) ** 2 + lin(sp, 2) ** 2, (ONE, ZERO, ONE, ZERO))
        assert mixed == (lin(sp, 0) - lin(sp, 2)).scale(GaussRat(-1))
        self.assert_clean(mixed)

    def test_cancelling_actions(self):
        # pq scales p and q oppositely, so it annihilates p^2 q^2 term by term
        sp = SymplecticSpace(2)
        p, q = lin(sp, 0), lin(sp, 2)
        pq = endo_of_quadratic(p * q)
        assert sp_action(pq, (p * q) ** 2).is_zero()
        acted = sp_action(pq, (p * q) ** 2 + p ** 4)
        assert acted == (p ** 4).scale(GaussRat(-2))
        self.assert_clean(acted)


class TestDoubleContraction:
    def test_p4_qq_is_p2(self):
        sp = SymplecticSpace(1)
        p = lin(sp, 0)
        lam = GaussRat(Fraction(5, 3))
        endo = double_contraction_endo((p ** 4).scale(lam), sp.basis_vector(1), sp.basis_vector(1))
        assert endo == endo_of_quadratic((p * p).scale(lam))

    def test_p_slot_dies(self):
        sp = SymplecticSpace(1)
        p = lin(sp, 0)
        for k in range(2):
            endo = double_contraction_endo(p ** 4, sp.basis_vector(0), sp.basis_vector(k))
            assert endo.is_zero()

    def test_symmetric_bilinear(self, rng):
        sp = SymplecticSpace(2)
        s = random_tensor(sp, 4, rng)
        e = random_vector(sp, rng)
        f = random_vector(sp, rng)
        assert double_contraction_endo(s, e, f) == double_contraction_endo(s, f, e)
        c = random_gaussrat(rng)
        scaled = tuple(c * a for a in e)
        assert double_contraction_endo(s, scaled, f) == double_contraction_endo(s, e, f).scale(c)


class TestTableOffTheCoefficients:
    """double_contractions reads each S_{e_k,e_l} off S's coefficients; the
    reference contracts S twice per entry."""

    @staticmethod
    def assert_same_table(s):
        entries = list(double_contractions(s))
        assert all(type(v) is tuple for _, v in entries)
        reference = list(double_contractions_by_contraction(s))
        assert [(pair, s2e_matrix(v, s.space.dim)) for pair, v in entries] == reference
        # the table is filed row by row, so a prefix is read on its own
        dim = s.space.dim
        for stop in sorted({1, 2, dim - 1, dim, dim + 1, len(entries) // 2}):
            prefix = list(islice(double_contractions(s), stop))
            assert [(pair, s2e_matrix(v, dim)) for pair, v in prefix] == reference[:stop]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_full_quartics(self, n):
        for seed in range(3):
            self.assert_same_table(random_quartic_full(SymplecticSpace(n), random.Random(seed)))

    @pytest.mark.parametrize("kind", ["full:4", "scrambled:2", "real-random:2"])
    def test_dense_scrambled_and_real_quartics(self, kind):
        # every monomial of a full quartic at n = 4, a Lagrangian quartic
        # moved off the axes, and a tau-fixed one
        if kind == "full:4":
            s = random_quartic_full(SymplecticSpace(4), random.Random(5))
        elif kind == "scrambled:2":
            sp = SymplecticSpace(2)
            s = transform(random_quartic_lagrangian(2, random.Random(2)),
                          random_symplectic(sp, random.Random(3), steps=4))
        else:
            s = make_generator(kind, 3)
        self.assert_same_table(s)

    @pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
    def test_golden_inputs(self, path):
        self.assert_same_table(quartic_from_dict(json.loads(path.read_text(encoding="utf-8"))))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("alpha", [(4, 0), (0, 4), (2, 2), (1, 3)],
                             ids=["p1^4", "q1^4", "p1^2q1^2", "p1q1^3"])
    def test_repeated_indices(self, n, alpha):
        # k = l and k' = l' differentiate one variable twice
        sp = SymplecticSpace(n)
        p, q = lin(sp, 0), lin(sp, n)
        s = (p ** alpha[0]) * (q ** alpha[1])
        self.assert_same_table(s.scale(GaussRat(Fraction(-7, 3), 2)))

    def test_rejects_non_quartic(self):
        with pytest.raises(ContractError):
            next(double_contractions(lin(SymplecticSpace(1), 0) ** 2))


class TestS2ECoordinates:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_roundtrip_on_sp(self, n, rng):
        sp = SymplecticSpace(n)
        for _ in range(5):
            b = random_tensor(sp, 2, rng)
            coords = s2e_coords(b)
            assert len(coords) == sp.dim * (sp.dim + 1) // 2
            assert quadratic(sp, coords) == b
            assert s2e_matrix(coords, sp.dim) == endo_by_contraction(b)

    def test_coordinates_come_in_flattened_order(self):
        # each unit coordinate fills one or two flattened positions, the
        # first ones increase, and together they cover every position once:
        # so a flattened RREF and its S^2E coordinates share their pivots
        sp = SymplecticSpace(2)
        d = sp.dim
        width = d * (d + 1) // 2
        firsts, covered = [], []
        for t in range(width):
            unit = tuple(ONE if u == t else ZERO for u in range(width))
            flat = flatten(s2e_matrix(unit, d))
            filled = [k for k, e in enumerate(flat) if e]
            firsts.append(filled[0])
            covered += filled
            assert s2e_coords(quadratic(sp, unit)) == unit
        assert firsts == sorted(firsts)
        assert sorted(covered) == list(range(d * d))


class TestSupport:
    def test_p4(self):
        sp = SymplecticSpace(1)
        p = lin(sp, 0)
        assert support(p ** 4) == span(sp, [sp.basis_vector(0)])

    def test_zero(self):
        sp = SymplecticSpace(2)
        assert support(SymTensor.zero(sp, 4)).dim == 0

    def test_p2q2(self):
        sp = SymplecticSpace(1)
        p, q = lin(sp, 0), lin(sp, 1)
        t = (p * p) * (q * q)
        assert support(t) == span(sp, [sp.basis_vector(0), sp.basis_vector(1)])

    def test_degree_two(self):
        sp = SymplecticSpace(1)
        p = lin(sp, 0)
        assert support(p * p) == span(sp, [sp.basis_vector(0)])

    def test_low_degree_rejected(self):
        sp = SymplecticSpace(1)
        with pytest.raises(ContractError):
            support(lin(sp, 0))

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_columns_span_the_contraction_columns(self, degree):
        # full tensors, sums of powers of a few random linear forms (a proper
        # support) and those sums plus a coordinate power, n = 1..3
        rng = random.Random("support-columns-%d" % degree)
        for n in (1, 2, 3):
            sp = SymplecticSpace(n)
            for _ in range(2):
                forms = [SymTensor.linear(sp, random_vector(sp, rng)) for _ in range(rng.randint(1, n))]
                powers = sum((f ** degree for f in forms[1:]), forms[0] ** degree)
                assert support(powers).dim == len(forms)
                for t in (random_tensor(sp, degree, rng), powers, powers + lin(sp, 0) ** degree):
                    columns = list(support_columns(t))
                    assert all(any(c) for c in columns)
                    assert support(t) == span(sp, columns) == span(sp, support_columns_by_contraction(t))


class TestTau:
    def test_involution_random(self, rng):
        for n in (1, 2):
            sp = SymplecticSpace(n)
            from hksym.symplectic import standard_quaternionic

            j = standard_quaternionic(sp)
            for _ in range(5):
                t = random_tensor(sp, 4, rng)
                assert tau(tau(t, j), j) == t

    def test_antilinear(self, rng):
        sp = SymplecticSpace(2)
        j = standard_split_j(sp)
        t = random_tensor(sp, 4, rng)
        s = random_tensor(sp, 4, rng)
        assert tau(t + s, j) == tau(t, j) + tau(s, j)
        assert tau(t.scale(I_UNIT), j) == tau(t, j).scale(-I_UNIT)

    def test_symmetrization_fixed(self, rng):
        sp = SymplecticSpace(2)
        j = standard_split_j(sp)
        t = random_quartic_full(sp, rng)
        fixed = t + tau(t, j)
        assert tau(fixed, j) == fixed

    def test_preserves_power_of_j_invariant_subspace(self, rng):
        sp = SymplecticSpace(2)
        j = standard_split_j(sp)
        e_plus = span(sp, [sp.basis_vector(0), sp.basis_vector(1)])
        t = random_quartic_lagrangian(2, rng)
        assert tensor_in_subspace_power(tau(t, j), e_plus)

    def test_odd_degree_rejected(self):
        sp = SymplecticSpace(1)
        j = standard_split_j(SymplecticSpace(2))
        with pytest.raises(ContractError):
            tau(SymTensor.zero(SymplecticSpace(2), 3), j)


class TestSubspaceMembership:
    def test_in_lagrangian_power(self, rng):
        sp = SymplecticSpace(2)
        e_plus = span(sp, [sp.basis_vector(0), sp.basis_vector(1)])
        s = random_quartic_lagrangian(2, rng)
        assert tensor_in_subspace_power(s, e_plus)
        q1 = lin(sp, 2)
        assert not tensor_in_subspace_power(s + q1 ** 4, e_plus)

    def test_restrict_roundtrip(self, rng):
        sp = SymplecticSpace(2)
        s = random_quartic_lagrangian(2, rng)
        pair = [sp.basis_vector(0), sp.basis_vector(1)]
        plain = binary_quartic_by_frame(s, pair).plain()
        x, y = lin(sp, 0), lin(sp, 1)
        rebuilt = SymTensor.zero(sp, 4)
        for k, c in enumerate(plain):
            rebuilt = rebuilt + ((x ** (4 - k)) * (y ** k)).scale(c)
        assert rebuilt == s

    def test_restrict_rejects_outside(self):
        sp = SymplecticSpace(2)
        q1 = lin(sp, 2)
        with pytest.raises(ContractError, match="tensor is not supported in the given subspace"):
            binary_quartic_by_frame(q1 ** 4, [sp.basis_vector(0), sp.basis_vector(1)])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_in_frame_is_the_push_forward_along_the_inverse(self, n):
        # a random symplectic P is the Darboux frame of its first n columns;
        # S = P . S0 with S0 on the p's is S0 in that frame, and a term on
        # a g coordinate (the image of q_1^4) is refused
        rng = random.Random(n)
        s0 = random_quartic_lagrangian(n, rng)
        frame = random_symplectic(s0.space, rng, steps=3)
        s = transform(s0, frame)
        assert in_frame(s, frame) == transform(s, inverse(frame)) == s0
        off = transform(lin(s0.space, n) ** 4, frame)
        with pytest.raises(ContractError, match="^tensor is not supported in the given subspace$"):
            in_frame(s + off, frame)

    def test_membership_in_non_isotropic_subspace(self):
        # the omega-perp criterion works for non-Lagrangian subspaces too
        sp = SymplecticSpace(2)
        v = span(sp, [sp.basis_vector(0), sp.basis_vector(2)])  # span{p1, q1}
        s = (lin(sp, 0) ** 3) * lin(sp, 2)
        assert tensor_in_subspace_power(s, v)
        assert not tensor_in_subspace_power(s + lin(sp, 1) ** 4, v)


class TestTransform:
    def test_symplectic_equivariance_of_contraction(self, rng):
        # (T.S)_{Te} = T.(S_e) for symplectic T
        from hksym.generators import random_symplectic
        from hksym.exactnum import mat_vec

        sp = SymplecticSpace(2)
        t_mat = random_symplectic(sp, rng)
        s = random_tensor(sp, 4, rng)
        e = random_vector(sp, rng)
        lhs = contract(transform(s, t_mat), mat_vec(t_mat, e))
        rhs = transform(contract(s, e), t_mat)
        assert lhs == rhs

    def test_identity(self, rng):
        sp = SymplecticSpace(2)
        s = random_tensor(sp, 4, rng)
        assert transform(s, Matrix.identity(sp.dim)) == s


def singular_map(sp, rng):
    """A random matrix whose last column is the sum of the others."""
    cols = [[random_gaussrat(rng) for _ in range(sp.dim)] for _ in range(sp.dim - 1)]
    cols.append([sum(row, ZERO) for row in zip(*cols)])
    return Matrix(cols).transpose()


def moved_j(j, t_mat):
    """The quaternionic structure T j T^-1, dense for a generic symplectic T."""
    return QuaternionicStructure(j.ambient, t_mat @ j.c_matrix @ inverse(t_mat).conj())


class TestPushForwardAgainstReference:
    """Seeded differential tests of transform (Horner's rule) and tau (a
    push-forward along j) against the loops they replaced: tensors of degree
    0 to 4 on n = 1..3, as drawn and with coefficient heights raised to 300
    bits."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_transform_matches_the_reference(self, n):
        """Against the identity, random symplectic maps of 1 to 6 steps and a
        singular map: every map at n <= 2, and at n = 3, where the reference
        is slow, each tensor against the next map in turn, from the last."""
        rng = random.Random(1700 + n)
        sp = SymplecticSpace(n)
        maps = ([Matrix.identity(sp.dim)]
                + [random_symplectic(sp, rng, steps=steps) for steps in range(1, 7)]
                + [singular_map(sp, rng)])
        drawn = 0
        for degree in range(5):
            for bits in (None, 300):
                t = random_tensor(sp, degree, rng)
                if bits is not None:
                    t = with_heights(t, rng, bits)
                for m in maps if n < 3 else [maps[-1 - drawn % len(maps)]]:
                    assert transform(t, m) == transform_reference(t, m)
                drawn += 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tau_matches_the_reference(self, n):
        """Against the standard j, the split j (dim E = 4m only) and the
        standard j moved by a random symplectic map, which is dense."""
        rng = random.Random(1800 + n)
        sp = SymplecticSpace(n)
        js = [standard_quaternionic(sp)]
        if sp.dim % 4 == 0:
            js.append(standard_split_j(sp))
        js.append(moved_j(js[0], random_symplectic(sp, rng, steps=2)))
        moved = 0
        for degree in (0, 2, 4):
            for bits in (None, 300):
                t = random_tensor(sp, degree, rng)
                if bits is not None:
                    t = with_heights(t, rng, bits)
                for j in js:
                    image = tau(t, j)
                    assert image == tau_reference(t, j)
                    moved += image != t
        # every draw of degree 2 and 4 is moved, so agreeing is not trivial
        assert moved >= 2 * 2 * len(js)


def _exponent_type(coeffs, rng, k):
    mono = coeffs[k]["monomial"]
    mono[rng.randrange(len(mono))] = rng.choice([True, False, 1.0, 0.5, "1", None])


def _wrong_length(coeffs, rng, k):
    mono = coeffs[k]["monomial"]
    if rng.random() < 0.5:
        mono.append(0)
    else:
        mono.pop()


def _negative_exponent(coeffs, rng, k):
    # still of sum 4
    mono = coeffs[k]["monomial"]
    i, j = rng.sample(range(len(mono)), 2)
    mono[j] += mono[i] + 1
    mono[i] = -1


def _monomial_not_a_list(coeffs, rng, k):
    coeffs[k]["monomial"] = rng.choice(["p1^4", {"p1": 4}, 4, None])


def _item_not_an_object(coeffs, rng, k):
    coeffs[k] = rng.choice([[4, 0], "1", None, 7])


def _duplicate_monomial(coeffs, rng, k):
    coeffs.insert(rng.randrange(len(coeffs) + 1), dict(coeffs[k], value=rng.choice(["1", "0", "-2/3i"])))


def _zero_value(coeffs, rng, k):
    coeffs[k]["value"] = rng.choice(["0", "-0/7", "0+0i", "0i", " 0 "])


def _bad_literal(coeffs, rng, k):
    coeffs[k]["value"] = rng.choice(["0.5", "1/0", "x", "", "1+", "3/0i", 5, None])


def _unknown_key(coeffs, rng, k):
    coeffs[k][rng.choice(["imag", "weight", "Value"])] = rng.choice(["2", 1, None])


RECORD_FAULTS = [_exponent_type, _wrong_length, _negative_exponent, _monomial_not_a_list,
                 _item_not_an_object, _duplicate_monomial, _zero_value, _bad_literal,
                 _unknown_key]


def _read(reader, data):
    """reader's quartic, or the class and message of what it raised."""
    try:
        return reader(data)
    except (ContractError, ScalarError) as exc:
        return type(exc), str(exc)


class TestQuarticFiles:
    def test_against_the_reference_reader(self):
        # seeded records with zero to three faults each, at random entries:
        # the one-pass reader raises what the reference raises, the same
        # class with the same message, or reads the same quartic
        rng = random.Random(2634)
        faults = {fault: 0 for fault in RECORD_FAULTS}
        outcomes = {"read": 0, "refused": 0}
        for _ in range(300):
            n = rng.randint(1, 3)
            sp = SymplecticSpace(n)
            s = random_quartic_full(sp, rng) if rng.random() < 0.5 else random_quartic_lagrangian(n, rng)
            data = json.loads(json.dumps(quartic_to_dict(s)))
            coeffs = data["coeffs"]
            for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
                # each fault goes to an entry that is still an object with
                # a monomial list of two or more exponents
                entries = [k for k, item in enumerate(coeffs) if isinstance(item, dict)
                           and isinstance(item.get("monomial"), list) and len(item["monomial"]) > 1]
                if entries:
                    fault = rng.choice(RECORD_FAULTS)
                    fault(coeffs, rng, rng.choice(entries))
                    faults[fault] += 1
            got, ref = _read(quartic_from_dict, data), _read(quartic_from_dict_reference, data)
            assert got == ref
            outcomes["read" if isinstance(ref, SymTensor) else "refused"] += 1
        assert min(faults.values()) >= 20 and min(outcomes.values()) >= 50

    def test_roundtrip(self, rng):
        s = random_quartic_lagrangian(2, rng)
        data = json.loads(json.dumps(quartic_to_dict(s)))
        assert quartic_from_dict(data) == s

    def test_rejects_non_rational(self):
        data = {"n": 1, "degree": 4, "coeffs": [{"monomial": [4, 0], "value": "0.5"}]}
        with pytest.raises(Exception):
            quartic_from_dict(data)

    def test_rejects_wrong_degree_monomial(self):
        data = {"n": 1, "degree": 4, "coeffs": [{"monomial": [3, 0], "value": "1"}]}
        with pytest.raises(ContractError):
            quartic_from_dict(data)

    def test_rejects_degree_field(self):
        data = {"n": 1, "degree": 3, "coeffs": []}
        with pytest.raises(ContractError):
            quartic_from_dict(data)
