"""Acceptance suite: one test per criterion, every tolerance exact (zero).

Each test prints a single PASS line; a failed assertion marks the criterion
red.  Corpora are seeded and deterministic.
"""

import random
import time
from fractions import Fraction

import pytest

from hksym.exactnum import GaussRat, hermitian_inertia
from hksym.symplectic import SymplecticSpace, is_isotropic, span
from hksym.symtensor import (
    SymTensor,
    contract,
    double_contractions,
    endo_of_quadratic,
    sp_action,
    support,
    tensor_in_subspace_power,
    transform,
)
from hksym.hkalgebra import (
    NotHyperKahlerError,
    analyze_quartic,
    build_complex_algebra,
    certify_invariance,
    check_invariance,
    compute_aut,
    curvature_ricci,
    find_lagrangian,
    holonomy,
    verify_grading,
    verify_jacobi,
    verify_metric,
)
from hksym.realform import build_real_algebra, check_reality, real_holonomy, symmetrize_real
from hksym.dim8 import classify_complex8, classify_quartic, isomorphic8
from hksym.generators import (
    make_generator,
    random_quartic_full,
    random_quartic_lagrangian,
    random_symplectic,
    random_tau_fixed,
    standard_split_j,
)

from oracles import (
    PETROV_OF_PATTERN,
    aut_dimension_bruteforce,
    binary_quartic_by_frame,
    embed_gl_group,
    eval_on_vectors,
    in_span,
    random_invertible,
    root_pattern_gcd_chain,
)
from test_dim8 import PATTERNS, random_pattern_quartic, transform_bq


def lin(sp, k):
    return SymTensor.linear(sp, sp.basis_vector(k))


def corpus(n, count=20, tag="c3"):
    return [random_quartic_lagrangian(n, random.Random("%s-%d-%d" % (tag, n, k)))
            for k in range(count)]


PAPER_SCALARS = [GaussRat(1), GaussRat(-2), GaussRat(Fraction(3, 5))]


def test_criterion_1_anchor_conventions():
    started = time.monotonic()
    sp1 = SymplecticSpace(1)
    p1, q1 = lin(sp1, 0), lin(sp1, 1)
    # p_q = -1
    assert eval_on_vectors(p1, [sp1.basis_vector(1)]) == GaussRat(-1)
    sp2 = SymplecticSpace(2)
    p, w1, q, w2 = (lin(sp2, k) for k in range(4))
    for lam in PAPER_SCALARS:
        for mu in PAPER_SCALARS:
            # S_{p,q} = -(1/4) mu p^2 on the full family
            w0 = w1 + w2.scale(GaussRat(Fraction(1, 3)))
            b = w1 * w2 + (w1 * w1).scale(GaussRat(2))
            c = (w2 ** 2) * w1
            d = w1 * (w2 ** 3)
            s = (p ** 3) * (p.scale(lam) + q.scale(mu) + w0) + (p ** 2) * b + p * c + d
            s_pq = contract(contract(s, sp2.basis_vector(0)), sp2.basis_vector(2))
            assert s_pq == (p * p).scale(-(mu * GaussRat(Fraction(1, 4))))
            # S_{q,q} = (1/6)(6 lambda p^2 + 3 p w0 + B) for the mu = 0 family
            s0 = (p ** 3) * (p.scale(lam) + w0) + (p ** 2) * b + p * c + d
            s_qq = contract(contract(s0, sp2.basis_vector(2)), sp2.basis_vector(2))
            want = ((p * p).scale(GaussRat(6) * lam) + (p * w0).scale(GaussRat(3)) + b)
            assert s_qq == want.scale(GaussRat(Fraction(1, 6)))
            # pq . S = -2 lambda p^4 - mu p^3 q
            s14 = (p1 ** 4).scale(lam) + ((p1 ** 3) * q1).scale(mu)
            acted = sp_action(endo_of_quadratic(p1 * q1), s14)
            assert acted == (p1 ** 4).scale(GaussRat(-2) * lam) + ((p1 ** 3) * q1).scale(-mu)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print("\nACCEPTANCE 1: PASS - anchor conventions exact at all 9 (lambda, mu) pairs "
          "(%.2fs)" % elapsed)


def test_criterion_2_dim4_uniqueness():
    started = time.monotonic()
    s = make_generator("dim4", 0)
    report = analyze_quartic(s)
    assert report.invariance_ok
    assert report.holonomy.dimension == 1
    assert report.holonomy.is_abelian
    sp = s.space
    assert support(s) == span(sp, [sp.basis_vector(0)])
    assert report.flat_complex_dim == 0
    assert report.jacobi_ok
    assert report.ricci_zero
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print("\nACCEPTANCE 2: PASS - analyze(e^4): invariant, holonomy dim 1 abelian, "
          "support span{e}, flat 0, Jacobi, Ricci = 0 (%.2fs)" % elapsed)


def test_criterion_3_example1_property_suite():
    started = time.monotonic()
    checked = 0
    for n in (1, 2, 3):
        sp = SymplecticSpace(n)
        e_plus = span(sp, [sp.basis_vector(k) for k in range(n)])
        for s in corpus(n):
            ok, _ = check_invariance(s)
            assert ok
            q = certify_invariance(s)
            hol = holonomy(q)
            assert hol.is_abelian and hol.is_solvable
            model = build_complex_algebra(q, hol)
            assert model.dim == model.dim_h + 4 * n
            assert model.dim_m == 4 * n
            assert verify_jacobi(model) == (True, None)
            assert curvature_ricci(model).is_zero()
            assert verify_metric(model) == (True, None)
            sigma = support(s)
            assert is_isotropic(sigma)
            assert all(in_span(e_plus, v) for v in sigma.basis)
            checked += 1
    elapsed = time.monotonic() - started
    assert checked == 60
    assert elapsed < 60.0
    print("\nACCEPTANCE 3: PASS - 60 random Lagrangian quartics (n = 1, 2, 3): invariance, "
          "abelian solvable holonomy, Jacobi, Ricci = 0, support isotropic in E+ (%.2fs)" % elapsed)


def test_criterion_4_lagrangian_recovery():
    started = time.monotonic()
    total = 0
    for n in (1, 2, 3):
        for s in corpus(n):
            e_plus = find_lagrangian(certify_invariance(s))
            assert e_plus.dim == n and is_isotropic(e_plus)
            assert tensor_in_subspace_power(s, e_plus)
            total += 1
    # 10 symplectic scrambles that preserve nothing
    moved = 0
    for n in (1, 2, 3):
        take = {1: 4, 2: 3, 3: 3}[n]
        sp = SymplecticSpace(n)
        for k, s in enumerate(corpus(n)[:take]):
            t = random_symplectic(sp, random.Random("c4-%d-%d" % (n, k)))
            scrambled = transform(s, t)
            e_plus = find_lagrangian(certify_invariance(scrambled))
            assert e_plus.dim == n and is_isotropic(e_plus)
            assert tensor_in_subspace_power(scrambled, e_plus)
            moved += 1
    assert moved == 10
    # negative control: p^3 q rejected at invariance with a witness
    sp1 = SymplecticSpace(1)
    bad = (lin(sp1, 0) ** 3) * lin(sp1, 1)
    with pytest.raises(NotHyperKahlerError) as err:
        certify_invariance(bad)
    assert err.value.witness == (0, 1)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print("\nACCEPTANCE 4: PASS - Lagrangian found and certified for %d corpus quartics "
          "+ %d symplectic scrambles; p^3q rejected with witness (%.2fs)"
          % (total, moved, elapsed))


def test_criterion_5_reality_equivalence():
    started = time.monotonic()
    sp = SymplecticSpace(2)
    j = standard_split_j(sp)
    agreements = 0
    fixed_count = 0
    for k in range(50):
        rng = random.Random("c5-%d" % k)
        t = random_quartic_full(sp, rng)
        s = symmetrize_real(t, j) if k < 25 else t
        rep = check_reality(s, j, dict(double_contractions(s)))
        assert rep.commutator_condition_ok == rep.tau_fixed
        assert rep.equivalent
        agreements += 1
        fixed_count += rep.tau_fixed
    assert agreements == 50
    assert fixed_count >= 25  # all symmetrized inputs are fixed
    elapsed = time.monotonic() - started
    print("\nACCEPTANCE 5: PASS - commutator condition <=> tau-fixedness on 50 quartics "
          "(25 symmetrized, 25 generic; %d tau-fixed total) (%.2fs)"
          % (fixed_count, elapsed))


def _tau_fixed_full_support(m, count, tag):
    out = []
    seed = 0
    while len(out) < count:
        s, j = random_tau_fixed(m, random.Random("%s-%d" % (tag, seed)))
        seed += 1
        if support(s).dim == 2 * m:
            out.append((s, j))
        assert seed < 50 * count
    return out


def test_criterion_6_signature_theorem():
    started = time.monotonic()
    for m, count, want in ((1, 10, (4, 4, 0)), (2, 3, (8, 8, 0))):
        for s, j in _tau_fixed_full_support(m, count, "c6-m%d" % m):
            q = certify_invariance(s)
            rep = check_reality(s, j, q.table)
            complex_model = build_complex_algebra(q, holonomy(q))
            model = build_real_algebra(q, complex_model, rep, real_holonomy(q, rep))
            assert model.dim_m == 8 * m
            assert hermitian_inertia(model.metric_on_m) == want
            assert verify_jacobi(model) == (True, None)
            assert verify_grading(model) == (True, None)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print("\nACCEPTANCE 6: PASS - real metric signature exactly (4,4) x10 at m=1 and "
          "(8,8) x3 at m=2, real Jacobi and grading verified (%.2fs)" % elapsed)


def test_criterion_7_dim8_classification():
    started = time.monotonic()
    sp = SymplecticSpace(2)
    e_plus = span(sp, [sp.basis_vector(0), sp.basis_vector(1)])
    # the six generators classify to their letters
    for letter in ("I", "II", "D", "III", "N", "O"):
        s = make_generator("petrov:%s" % letter, 0)
        assert classify_complex8(certify_invariance(s)).type_tag == letter
    # 50 random quartics: the letter against the gcd-chain root pattern
    crosschecked = 0
    for k in range(10):
        rng = random.Random("c7-x-%d" % k)
        for pattern in PATTERNS:
            q = random_pattern_quartic(rng, pattern)
            assert classify_quartic(q).type_tag == PETROV_OF_PATTERN[root_pattern_gcd_chain(q.plain())]
            crosschecked += 1
    assert crosschecked == 50
    # classification invariant under 50 random GL(2) basis changes
    x, y = lin(sp, 0), lin(sp, 1)
    samples = [
        x ** 4 + y ** 4,
        (x ** 3) * y + (x ** 2) * (y ** 2),
        (x ** 2) * (y ** 2),
        (x ** 3) * y,
        x ** 4 + ((x ** 2) * (y ** 2)).scale(GaussRat(5)) + y ** 4,
    ]
    changes = 0
    for k in range(10):
        rng = random.Random("c7-gl-%d" % k)
        t = random_invertible(2, rng)
        for s in samples:
            plane = binary_quartic_by_frame(s, [sp.basis_vector(0), sp.basis_vector(1)])
            base = classify_quartic(plane)
            moved = transform_bq(plane, t)
            assert classify_quartic(moved) == base
            changes += 1
    assert changes == 50
    # isomorphic8 separations and identifications
    s1 = x ** 4 + y ** 4
    for c in (1, 2, 3, 4, 5):
        s2 = x ** 4 + ((x ** 2) * (y ** 2)).scale(GaussRat(c)) + y ** 4
        assert not isomorphic8(s1, s2)
    for k, s in enumerate(samples[:3]):
        t_small = random_invertible(2, random.Random("c7-iso-%d" % k))
        moved = transform(s, embed_gl_group(e_plus, t_small))
        assert isomorphic8(s, moved)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print("\nACCEPTANCE 7: PASS - six generators typed, 50 pattern/Segre cross-checks, "
          "50 GL(2) invariance checks, isomorphic8 separates the generic family (%.2fs)"
          % elapsed)


def test_criterion_8_aut_dimensions():
    started = time.monotonic()
    matched = 0
    for n in (1, 2):
        sp = SymplecticSpace(n)
        e_plus = span(sp, [sp.basis_vector(k) for k in range(n)])
        for s in corpus(n):
            assert len(compute_aut(s, e_plus)) == aut_dimension_bruteforce(s, e_plus)
            matched += 1
    # the pinned closed-form cases
    sp1 = SymplecticSpace(1)
    assert len(compute_aut(lin(sp1, 0) ** 4, span(sp1, [sp1.basis_vector(0)]))) == 0
    sp2 = SymplecticSpace(2)
    e2 = span(sp2, [sp2.basis_vector(0), sp2.basis_vector(1)])
    assert len(compute_aut(SymTensor.zero(sp2, 4), e2)) == 4
    assert len(compute_aut((lin(sp2, 0) ** 3) * lin(sp2, 1), e2)) == 1
    elapsed = time.monotonic() - started
    print("\nACCEPTANCE 8: PASS - aut(S) dimension equals the brute-force kernel for "
          "%d corpus quartics at n <= 2 plus the pinned cases (%.2fs)" % (matched, elapsed))
