"""The omega_flat path against the dense-Omega reference in oracles.py.

The package applies the standard form as the signed coordinate swap
omega(x, .) = (-x_q, x_p); the references multiply by the 2n x 2n matrix
Omega built from the definition.  Seeded random inputs for n = 1..3, with
sparse vectors and matrices mixed in so that zero entries are exercised.
"""

import random
from itertools import combinations_with_replacement

import pytest

from hksym.exactnum import ZERO, Matrix
from hksym.generators import random_gaussrat
from hksym.symplectic import SymplecticSpace, omega_flat, omega_pair
from hksym.symtensor import SymTensor, contract, endo_of_quadratic, is_in_sp

from oracles import (
    contract_dense,
    dense_omega,
    endo_by_contraction,
    is_in_sp_dense,
    omega_flat_dense,
    omega_pair_dense,
    omega_sharp_dense,
)

SIZES = (1, 2, 3)


def sparse_scalar(rng):
    return random_gaussrat(rng) if rng.random() < 0.6 else ZERO


def random_vec(dim, rng):
    return tuple(sparse_scalar(rng) for _ in range(dim))


def random_tensor(sp, degree, rng):
    coeffs = {}
    for combo in combinations_with_replacement(range(sp.dim), degree):
        alpha = [0] * sp.dim
        for k in combo:
            alpha[k] += 1
        coeffs[tuple(alpha)] = sparse_scalar(rng)
    return SymTensor(sp, degree, coeffs)


@pytest.mark.parametrize("n", SIZES)
def test_omega_matrix_is_the_dense_form(n):
    assert SymplecticSpace(n).omega == dense_omega(n)


@pytest.mark.parametrize("n", SIZES)
def test_omega_pair_matches_dense(n):
    rng = random.Random(100 + n)
    sp = SymplecticSpace(n)
    for _ in range(40):
        x, y = random_vec(sp.dim, rng), random_vec(sp.dim, rng)
        assert omega_pair(sp, x, y) == omega_pair_dense(x, y)


@pytest.mark.parametrize("n", SIZES)
def test_flat_and_sharp_match_dense(n):
    rng = random.Random(200 + n)
    dim = 2 * n
    for _ in range(40):
        x = random_vec(dim, rng)
        assert omega_flat(x) == omega_flat_dense(x)
        assert omega_sharp_dense(omega_flat(x)) == x
        assert omega_flat(omega_sharp_dense(x)) == x


@pytest.mark.parametrize("n", SIZES)
def test_contract_matches_dense(n):
    rng = random.Random(300 + n)
    sp = SymplecticSpace(n)
    for degree in (1, 2, 3, 4):
        for _ in range(5):
            t = random_tensor(sp, degree, rng)
            x = random_vec(sp.dim, rng)
            assert contract(t, x) == contract_dense(t, x)


@pytest.mark.parametrize("n", SIZES)
def test_endo_of_quadratic_matches_contraction_definition(n):
    rng = random.Random(400 + n)
    sp = SymplecticSpace(n)
    for _ in range(20):
        b = random_tensor(sp, 2, rng)
        assert endo_of_quadratic(b) == endo_by_contraction(b)


@pytest.mark.parametrize("n", SIZES)
def test_is_in_sp_matches_dense_on_both_verdicts(n):
    rng = random.Random(500 + n)
    sp = SymplecticSpace(n)
    verdicts = []
    for _ in range(20):
        # sp(E) = S^2E: the endomorphism of a quadratic is in sp(E) ...
        a = endo_by_contraction(random_tensor(sp, 2, rng))
        # ... and one changed entry, or a generic matrix, usually is not
        rows = a.rows_list()
        i, k = rng.randrange(sp.dim), rng.randrange(sp.dim)
        rows[i][k] = rows[i][k] + random_gaussrat(rng)
        generic = Matrix([list(random_vec(sp.dim, rng)) for _ in range(sp.dim)])
        for m in (a, Matrix(rows), generic):
            verdict = is_in_sp(sp, m)
            assert verdict == is_in_sp_dense(m)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts
