"""Seeded deterministic generators for quartics and symplectic maps used by
the CLI and benchmark corpus.

Random coefficients are small on purpose (numerators in [-9, 9], denominators
in {1, 2, 3}) to keep exact arithmetic fast.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from .exactnum import GaussRat, Matrix
from .symplectic import SymplecticSpace, check_size, omega_pair, standard_split_j
from .symtensor import SymTensor
from .realform import symmetrize_real


def random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))


def random_gaussrat(rng):
    return GaussRat(random_fraction(rng), random_fraction(rng))


def random_quartic_lagrangian(n, rng):
    """Random S in S^4 E_+ for E_+ = span(p_1..p_n) inside E = C^(2n)."""
    sp = SymplecticSpace(n)
    coeffs = {}
    for combo in combinations_with_replacement(range(n), 4):
        alpha = [0] * sp.dim
        for k in combo:
            alpha[k] += 1
        c = random_gaussrat(rng)
        if c:
            coeffs[tuple(alpha)] = c
    return SymTensor(sp, 4, coeffs)


def random_quartic_full(sp, rng):
    """Random quartic on all of E (no support restriction)."""
    coeffs = {}
    for combo in combinations_with_replacement(range(sp.dim), 4):
        alpha = [0] * sp.dim
        for k in combo:
            alpha[k] += 1
        c = random_gaussrat(rng)
        if c:
            coeffs[tuple(alpha)] = c
    return SymTensor(sp, 4, coeffs)


def symplectic_transvection(sp, v, c):
    """x -> x + c omega(x, v) v, always in Sp(E)."""
    cols = []
    for k in range(sp.dim):
        e = sp.basis_vector(k)
        w = omega_pair(sp, e, v)
        col = list(e)
        if w:
            f = c * w
            col = [a + f * b for a, b in zip(col, v)]
        cols.append(col)
    return Matrix(cols).transpose()


def random_symplectic(sp, rng, steps=6):
    """Product of random symplectic transvections; generic, preserves nothing."""
    out = Matrix.identity(sp.dim)
    made = 0
    while made < steps:
        v = tuple(random_gaussrat(rng) for _ in range(sp.dim))
        if all(not a for a in v):
            continue
        c = random_gaussrat(rng)
        if not c:
            continue
        out = out @ symplectic_transvection(sp, v, c)
        made += 1
    return out


def random_tau_fixed(m, rng):
    """Random tau-fixed S in S^4 E_+ on dim E = 4m with the standard split j."""
    n = 2 * m
    sp = SymplecticSpace(n)
    j = standard_split_j(sp)
    t = random_quartic_lagrangian(n, rng)
    return symmetrize_real(t, j), j


# the kinds make_generator dispatches on; real-random:<m> is on n = 2m
GENERATOR_KINDS = (
    "dim4",
    "petrov:I", "petrov:II", "petrov:D", "petrov:III", "petrov:N", "petrov:O",
    "random-lagrangian:<n>",
    "real-random:<m>",
)


def make_generator(kind, seed):
    """Quartic for a named generator kind (GENERATOR_KINDS); deterministic for
    a fixed seed.  A quartic on n > MAX_N is refused before it is built.
    """
    rng = random.Random(seed)
    if kind == "dim4":
        sp = SymplecticSpace(1)
        p = SymTensor.linear(sp, sp.basis_vector(0))
        return p ** 4
    if kind.startswith("petrov:"):
        letter = kind.split(":", 1)[1]
        sp = SymplecticSpace(2)
        x = SymTensor.linear(sp, sp.basis_vector(0))
        y = SymTensor.linear(sp, sp.basis_vector(1))
        table = {
            "I": (x ** 3) * y - x * (y ** 3),
            "II": (x ** 3) * y + (x ** 2) * (y ** 2),
            "D": (x ** 2) * (y ** 2),
            "III": (x ** 3) * y,
            "N": x ** 4,
            "O": SymTensor.zero(sp, 4),
        }
        if letter not in table:
            raise ValueError("unknown petrov type %r" % letter)
        return table[letter]
    if kind.startswith("random-lagrangian:"):
        n = int(kind.split(":", 1)[1])
        if n < 1:
            raise ValueError("random-lagrangian needs n >= 1")
        check_size(n)
        return random_quartic_lagrangian(n, rng)
    if kind.startswith("real-random:"):
        m = int(kind.split(":", 1)[1])
        if m < 1:
            raise ValueError("real-random needs m >= 1")
        check_size(2 * m)
        s, _ = random_tau_fixed(m, rng)
        return s
    raise ValueError("unknown generator kind %r" % kind)
