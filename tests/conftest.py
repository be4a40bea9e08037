"""Shared fixtures.  The convention gate runs before everything else: the
three pinned anchor values, two values of the real structure tau and one of
its action sigma on sp(E) must reproduce exactly or no other test is
meaningful."""

import random
from fractions import Fraction

import pytest

from hksym.exactnum import GaussRat, I_UNIT
from hksym.symplectic import SymplecticSpace, standard_split_j
from hksym.symtensor import SymTensor, contract, endo_of_quadratic, sp_action, tau

from oracles import eval_on_vectors, sigma_reference


def linear(sp, k):
    return SymTensor.linear(sp, sp.basis_vector(k))


@pytest.fixture(scope="session", autouse=True)
def anchor_gate():
    """The three convention anchors, the tau anchor and the sigma anchor;
    everything downstream assumes them."""
    sp = SymplecticSpace(1)
    p = linear(sp, 0)
    q = linear(sp, 1)
    # anchor 1: p_q = <p, omega q> = omega(q, p) = -1
    assert eval_on_vectors(p, [sp.basis_vector(1)]) == GaussRat(-1)
    # anchor 2: S_{p,q} = -(1/4) mu p^2 for S = lambda p^4 + mu p^3 q
    lam, mu = GaussRat(Fraction(3, 5)), GaussRat(-2)
    s = (p ** 4).scale(lam) + ((p ** 3) * q).scale(mu)
    s_pq = contract(contract(s, sp.basis_vector(0)), sp.basis_vector(1))
    assert s_pq == (p * p).scale(-(mu * GaussRat(Fraction(1, 4))))
    # anchor 3: pq . S = -2 lambda p^4 - mu p^3 q
    acted = sp_action(endo_of_quadratic(p * q), s)
    assert acted == (p ** 4).scale(GaussRat(-2) * lam) + ((p ** 3) * q).scale(-mu)
    # tau anchor, for the default split j on dim E = 4:
    # tau(p1^3 p2) = -p1 p2^3 and tau(i p1^4) = -i p2^4
    sp2 = SymplecticSpace(2)
    j = standard_split_j(sp2)
    p1, p2 = linear(sp2, 0), linear(sp2, 1)
    assert tau((p1 ** 3) * p2, j) == -(p1 * p2 ** 3)
    assert tau((p1 ** 4).scale(I_UNIT), j) == (p2 ** 4).scale(-I_UNIT)
    # sigma anchor: j acts on sp(E) = S^2E as tau, so for the same j
    # sigma(A_{p1 q2}) = A_{tau(p1 q2)} = -A_{p2 q1}
    q1, q2 = linear(sp2, 2), linear(sp2, 3)
    assert tau(p1 * q2, j) == -(p2 * q1)
    assert sigma_reference(endo_of_quadratic(p1 * q2), j) == endo_of_quadratic(-(p2 * q1))


@pytest.fixture
def rng():
    return random.Random(20240817)
