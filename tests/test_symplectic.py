import pytest

from hksym.exactnum import ContractError, GaussRat, Matrix, ONE, ZERO, mat_vec
from hksym.symplectic import (
    QuaternionicStructure,
    Subspace,
    SymplecticSpace,
    extend_to_lagrangian,
    is_isotropic,
    lagrangian_complement,
    omega_pair,
    omega_perp,
    quaternionic_from_json,
    span,
    standard_split_j,
)
from hksym.generators import random_symplectic

from oracles import (
    J_H,
    gamma_gram,
    gamma_signature,
    in_span,
    random_vector,
    rho_reference,
    standard_quaternionic,
)


def basis(sp):
    return [sp.basis_vector(k) for k in range(sp.dim)]


class TestOmegaPair:
    def test_standard_pairing(self):
        sp = SymplecticSpace(2)
        p1, p2, q1, q2 = basis(sp)
        assert omega_pair(sp, p1, q1) == ONE
        assert omega_pair(sp, p1, p1) == ZERO
        assert omega_pair(sp, q1, p1) == GaussRat(-1)
        assert omega_pair(sp, p1, q2) == ZERO

    def test_skew_and_bilinear(self, rng):
        sp = SymplecticSpace(2)
        for _ in range(20):
            x = random_vector(sp, rng)
            y = random_vector(sp, rng)
            assert omega_pair(sp, x, y) == -omega_pair(sp, y, x)

    def test_omega_invertible_skew(self):
        sp = SymplecticSpace(3)
        assert sp.omega.transpose() == -sp.omega
        from hksym.exactnum import rank_kernel

        assert rank_kernel(sp.omega)[0] == sp.dim


class TestSubspaces:
    def test_isotropic_examples(self):
        sp = SymplecticSpace(2)
        p1, p2, q1, q2 = basis(sp)
        assert is_isotropic(Subspace(sp, [p1]))
        assert not is_isotropic(Subspace(sp, [p1, q1]))
        assert is_isotropic(Subspace(sp, [p1, p2]))

    def test_dependent_basis_rejected(self):
        sp = SymplecticSpace(1)
        with pytest.raises(ContractError):
            Subspace(sp, [sp.basis_vector(0), sp.basis_vector(0)])

    def test_extend_to_lagrangian_greedy(self):
        sp = SymplecticSpace(2)
        p1, p2, q1, q2 = basis(sp)
        out = extend_to_lagrangian(Subspace(sp, [p1]))
        assert out == span(sp, [p1, p2])

    def test_extend_lagrangian_fixed_point(self):
        sp = SymplecticSpace(2)
        p1, p2, _, _ = basis(sp)
        lag = Subspace(sp, [p1, p2])
        assert extend_to_lagrangian(lag) == lag

    def test_extend_empty(self):
        sp = SymplecticSpace(1)
        out = extend_to_lagrangian(Subspace(sp, []))
        assert out == span(sp, [sp.basis_vector(0)])

    def test_extend_rejects_non_isotropic(self):
        sp = SymplecticSpace(1)
        with pytest.raises(ContractError):
            extend_to_lagrangian(Subspace(sp, [sp.basis_vector(0), sp.basis_vector(1)]))

    def test_extend_always_reaches_n(self, rng):
        sp = SymplecticSpace(3)
        for _ in range(20):
            v = random_vector(sp, rng)
            if all(not c for c in v):
                continue
            t = random_symplectic(sp, rng, steps=3)
            from hksym.exactnum import mat_vec

            seed = Subspace(sp, [mat_vec(t, v)])
            out = extend_to_lagrangian(seed)
            assert out.dim == sp.n
            assert is_isotropic(out)
            assert all(in_span(out, v) for v in seed.basis)

    def test_extend_from_scrambled_isotropic_planes(self, rng):
        # seeds where the standard-basis sweep stalls and the omega-perp
        # completion has to take over, possibly for several rounds
        from hksym.exactnum import mat_vec

        for n in (2, 3):
            sp = SymplecticSpace(n)
            for trial in range(25):
                t = random_symplectic(sp, rng, steps=4)
                dim = trial % n
                seed = span(sp, [mat_vec(t, sp.basis_vector(k)) for k in range(dim)])
                out = extend_to_lagrangian(seed)
                assert out.dim == sp.n
                assert is_isotropic(out)
                assert all(in_span(out, v) for v in seed.basis)

    def test_omega_perp_of_lagrangian_is_itself(self):
        sp = SymplecticSpace(2)
        p1, p2, _, _ = basis(sp)
        lag = span(sp, [p1, p2])
        assert omega_perp(lag) == lag

    def test_lagrangian_complement_pairing(self, rng):
        sp = SymplecticSpace(3)
        t = random_symplectic(sp, rng)
        from hksym.exactnum import mat_vec

        # the images of p_1..p_3 under a generic symplectic map, which are
        # not in reduced row echelon form
        lag = Subspace(sp, [mat_vec(t, sp.basis_vector(k)) for k in range(3)])
        assert lag.basis != lag.echelon()
        frame = lagrangian_complement(lag)
        assert frame.transpose() @ sp.omega @ frame == sp.omega
        assert [frame.col(k) for k in range(3)] == list(lag.basis)


class TestQuaternionic:
    def test_jh_constant(self):
        assert J_H.c_matrix == Matrix([[ZERO, GaussRat(-1)], [ONE, ZERO]])
        assert gamma_signature(J_H) == (2, 0, 0)

    def test_invariants_enforced(self):
        sp = SymplecticSpace(1)
        with pytest.raises(ContractError):
            QuaternionicStructure(sp, Matrix.identity(2))

    def test_indefinite_gamma_structure(self):
        # flipping one coordinate pair of the standard j gives a compatible
        # structure with gamma signature (2n - 2, 2)
        sp = SymplecticSpace(2)
        c = standard_quaternionic(sp).c_matrix.rows_list()
        n = sp.n
        for i in range(sp.dim):
            c[i][0 + n] = -c[i][0 + n]   # j q_1 -> +p_1
            c[i][0] = -c[i][0]           # j p_1 -> -q_1
        j = QuaternionicStructure(sp, Matrix(c))
        assert gamma_signature(j) == (2, 2, 0)

    def test_split_requires_dim_divisible_by_4(self):
        sp = SymplecticSpace(1)
        e_plus = span(sp, [sp.basis_vector(0)])
        e_minus = span(sp, [sp.basis_vector(1)])
        with pytest.raises(ContractError):
            standard_quaternionic(sp, (e_plus, e_minus))
        with pytest.raises(ContractError, match="not divisible by 4"):
            standard_split_j(sp)

    def test_quaternionic_oracles(self, rng):
        # the oracles that the default j and the golden non-coordinate j
        # rest on: standard_quaternionic builds the definite j and a j from
        # any Lagrangian split, coordinate, sign-flipped or moved off the
        # axes, that preserves both halves; gamma_gram is Hermitian and
        # gamma_signature reads its inertia
        for n in (1, 2, 3):
            sp = SymplecticSpace(n)
            assert gamma_signature(standard_quaternionic(sp)) == (sp.dim, 0, 0)
        sp = SymplecticSpace(2)
        p1, p2, q1, q2 = basis(sp)
        e_plus = span(sp, [p1, p2])
        e_minus = span(sp, [q1, q2])
        j = standard_quaternionic(sp, (e_plus, e_minus))
        for half in (e_plus, e_minus):
            assert all(in_span(half, j.apply(v)) for v in half.basis)
        assert gamma_signature(j) == (2, 2, 0)
        # swapping the sign convention of a pair is a congruence: same inertia
        e_plus = Subspace(sp, [p1, tuple(-c for c in p2)])
        e_minus = Subspace(sp, [q1, tuple(-c for c in q2)])
        assert gamma_signature(standard_quaternionic(sp, (e_plus, e_minus))) == (2, 2, 0)
        for _ in range(5):
            t = random_symplectic(sp, rng)
            e_plus = span(sp, [mat_vec(t, sp.basis_vector(0)), mat_vec(t, sp.basis_vector(1))])
            e_minus = span(sp, [mat_vec(t, sp.basis_vector(2)), mat_vec(t, sp.basis_vector(3))])
            j = standard_quaternionic(sp, (e_plus, e_minus))
            assert all(in_span(e_plus, j.apply(v)) for v in e_plus.basis)
            assert gamma_signature(j) == (2, 2, 0)
        g = gamma_gram(standard_split_j(sp))
        assert g == g.hermitian_transpose()

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_default_j_is_the_coordinate_split(self, n):
        # the written-down default j against the general split construction
        sp = SymplecticSpace(n)
        split = (span(sp, basis(sp)[:n]), span(sp, basis(sp)[n:]))
        assert standard_split_j(sp).c_matrix == standard_quaternionic(sp, split).c_matrix
        # built once per n: another space of the same n gets the same object
        assert standard_split_j(SymplecticSpace(n)) is standard_split_j(sp)

    @pytest.mark.parametrize("n", [1, 3])
    def test_default_j_refused_off_dim_4m(self, n):
        with pytest.raises(ContractError) as info:
            standard_split_j(SymplecticSpace(n))
        assert str(info.value) == ("no compatible default quaternionic structure: dim E = %d "
                                   "is not divisible by 4 (supply --j)" % (2 * n))

    def test_rho_squared_identity(self):
        # rho = j_H (x) j_E is an involution: j_H^2 = j_E^2 = -1
        for n in (1, 2):
            sp = SymplecticSpace(n)
            j_e = standard_quaternionic(sp)
            for i in range(2 * sp.dim):
                v = tuple(ONE if t == i else ZERO for t in range(2 * sp.dim))
                assert rho_reference(j_e, rho_reference(j_e, v)) == v

    def test_serialization_roundtrip(self):
        sp = SymplecticSpace(2)
        j = standard_split_j(sp)
        again = quaternionic_from_json({"c_matrix": j.c_matrix.to_strings()}, sp)
        assert again.c_matrix == j.c_matrix

    @pytest.mark.parametrize("record", [
        {"c_matrix": ["0", "-1"]},
    ], ids=["flat-matrix"])
    def test_malformed_records_are_refused(self, record):
        with pytest.raises(ContractError, match="malformed quaternionic structure record: "):
            quaternionic_from_json(record, SymplecticSpace(1))


def test_h_space_constants():
    # H is the plane of j_H with omega_H(h, h') = 1, j_H h = h', j_H h' = -h
    h_space = J_H.ambient
    h, h_prime = h_space.basis_vector(0), h_space.basis_vector(1)
    assert h_space.n == 1
    assert omega_pair(h_space, h, h_prime) == ONE
    assert J_H.apply(h) == h_prime
    assert J_H.apply(h_prime) == tuple(-c for c in h)
