"""Seeded inputs for the four workloads.

Every quartic is built from hksym's public generator functions only
(make_generator, random_quartic_lagrangian, random_quartic_full,
random_symplectic, transform, quartic_to_dict), and each case records the
verdict that its construction implies, so the oracle never has to ask the
program what the right answer is.
"""

import random
from dataclasses import dataclass, field
from math import comb

from hksym.exactnum import GaussRat
from hksym.generators import (
    make_generator,
    random_quartic_full,
    random_quartic_lagrangian,
    random_symplectic,
)
from hksym.symplectic import SymplecticSpace
from hksym.symtensor import quartic_to_dict, transform

PETROV = ("I", "II", "D", "III", "N", "O")
I_UNIT = GaussRat(0, 1)


@dataclass
class Case:
    """One call of `hksym <argv> <file>` with the verdict its input implies.

    expect holds the checks the oracle runs on top of the exit code:
    "lagrangian" (an accepted analyze report on dim E = 2n), "signature"
    (the real form's (4m, 4m)), "petrov" (the type a petrov:X input must
    get) and "witness" (a rejection must name its basis pair).

    kind names the draw the input came from ("m2", "full4-inv"): cases of
    one kind differ only in the seed of their generator, and run.py pools
    their timings.  It defaults to the id.
    """

    id: str
    argv: list
    quartic: dict
    expect_exit: int
    expect: dict = field(default_factory=dict)
    kind: str = None

    def __post_init__(self):
        if self.kind is None:
            self.kind = self.id

    @property
    def terms(self):
        return len(self.quartic["coeffs"])

    @property
    def coeff_bits(self):
        return max((literal_bits(c["value"]) for c in self.quartic["coeffs"]), default=0)


def literal_bits(text):
    """Largest numerator or denominator bit length of a Q(i) literal."""
    z = GaussRat.parse(text)
    return max(x.bit_length() for f in (z.re, z.im) for x in (f.numerator, f.denominator))


def _seed(rng):
    return rng.randrange(2 ** 31)


def _dense(rng, make, dim):
    """make(seed) for seeds drawn from rng until every monomial of degree 4 in
    dim variables is present.

    A zero coefficient, or a transvection that misses a coordinate, gives a
    sparser input that is several times cheaper than the workload is meant
    to be, and such inputs would make one seed's timings unlike another's.
    """
    terms = comb(dim + 3, 4)
    while True:
        s = make(_seed(rng))
        if len(s.coeffs) == terms:
            return s


def _analyze(case_id, s, real=False, kind=None):
    argv = ["analyze", "--real", "--json"] if real else ["analyze", "--json"]
    expect = {"lagrangian": s.space.n}
    if real:
        expect["signature"] = [s.space.n * 2, s.space.n * 2]
    return Case(case_id, argv, quartic_to_dict(s), 0, expect, kind)


def lagrangian_ladder(rng):
    """Sparse, low-height inputs on the coordinate Lagrangian, n = 4, 5, 6:
    all of S^4 E_+, so 35, 70 and 126 terms."""
    return [_analyze("n%d" % n, _dense(
        rng, lambda seed: make_generator("random-lagrangian:%d" % n, seed), n))
        for n in (4, 5, 6)]


def real_form(rng):
    """tau-fixed inputs, so every --real analysis must reach the real form;
    dense, like the ladder's, with 5 terms for m = 1 and 35 for m = 2."""
    cases = []
    for m, count in ((1, 8), (2, 2)):
        kind = "m%d" % m
        for i in range(count):
            s = _dense(rng, lambda seed: make_generator("real-random:%d" % m, seed), 2 * m)
            cases.append(_analyze("%s-%d" % (kind, i), s, real=True, kind=kind))
    return cases


def scrambled(rng):
    """Lagrangian quartics moved off the axes by a random symplectic map.

    Sp(E) preserves invariance, so every case must still be accepted; the
    transvections make the input dense (35 or 126 terms) and its
    coefficients tall.
    """
    def scramble(n, steps, seed):
        r = random.Random(seed)
        s = make_generator("random-lagrangian:%d" % n, _seed(r))
        return transform(s, random_symplectic(s.space, r, steps=steps))

    cases = []
    for n, steps, count in ((2, 1, 2), (2, 3, 2), (2, 6, 2), (3, 1, 1)):
        for i in range(count):
            s = _dense(rng, lambda seed: scramble(n, steps, seed), 2 * n)
            kind = "n%d-t%d" % (n, steps)
            cases.append(_analyze("%s-%d" % (kind, i), s, kind=kind))
    return cases


def dim8_batch(rng):
    """Many short calls whose fixed per-call cost dominates.

    The cases run in a seeded shuffled order, so that the calls of each kind
    are spread over a pass instead of timed in one stretch of it.
    """
    cases = []

    def add(case_id, kind, argv, s, expect_exit=0, **expect):
        cases.append(Case(case_id, argv, quartic_to_dict(s), expect_exit, expect, kind))

    for letter in PETROV:
        case_id = "petrov-%s" % letter
        add(case_id, case_id, ["classify8", "--json"],
            make_generator("petrov:" + letter, 0), petrov=letter)
    for letter in ("I", "D", "O"):
        case_id = "petrov-%s-real" % letter
        add(case_id, case_id, ["classify8", "--real", "--json"],
            make_generator("petrov:" + letter, 0), petrov=letter)
    for i in range(26):
        add("lag2-%d" % i, "lag2", ["classify8", "--json"],
            random_quartic_lagrangian(2, random.Random(_seed(rng))))
    for i in range(18):
        add("real1-%d" % i, "real1", ["classify8", "--real", "--json"],
            make_generator("real-random:1", _seed(rng)))
    for i in range(8):
        s = random_quartic_lagrangian(2, random.Random(_seed(rng)))
        add("inv-%d" % i, "inv", ["verify", "--invariance", "--json"], s)
        add("jac-%d" % i, "jac", ["verify", "--jacobi", "--json"], s)
    for i in range(8):
        s = make_generator("real-random:1", _seed(rng))
        add("real-%d" % i, "real", ["verify", "--reality", "--json"], s)
        if not s.is_zero():
            # tau is antilinear, so tau(iS) = -iS != iS: never tau-fixed
            add("unreal-%d" % i, "unreal", ["verify", "--reality", "--json"],
                s.scale(I_UNIT), 2)
    # An invariant quartic lies in S^4 of a Lagrangian; one with random
    # coefficients on every monomial of E does not, so invariance fails.
    # The n = 4 rejections are the slowest calls, so there are several of
    # them for max_case_s to pool.
    for n, count in ((2, 4), (3, 3), (4, 3)):
        for i in range(count):
            s = random_quartic_full(SymplecticSpace(n), random.Random(_seed(rng)))
            add("full%d-%d" % (n, i), "full%d" % n, ["analyze", "--json"], s, 2,
                witness=True)
            add("full%d-%d-inv" % (n, i), "full%d-inv" % n,
                ["verify", "--invariance", "--json"], s, 2, witness=True)
    rng.shuffle(cases)
    return cases


BUILDERS = {
    "lagrangian-ladder": lagrangian_ladder,
    "real-form": real_form,
    "scrambled": scrambled,
    "dim8-batch": dim8_batch,
}


WORKLOADS = tuple(BUILDERS)


def build(workload, seed):
    """The cases of one workload; the same seed gives the same cases."""
    return BUILDERS[workload](random.Random("%s/%d" % (workload, seed)))
