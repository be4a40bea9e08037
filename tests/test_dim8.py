import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hksym.exactnum import ContractError, GaussRat, Matrix, ONE, ZERO, inverse, mat_vec
from hksym.hkalgebra import certify_invariance, find_lagrangian
from hksym.symplectic import (
    QuaternionicStructure,
    SymplecticSpace,
    quaternionic_from_json,
    span,
    standard_quaternionic,
)
from hksym.symtensor import SymTensor, tau, transform
from hksym.dim8 import (
    GRAM,
    BinaryQuartic,
    TracelessSym3,
    _char_poly_3,
    adapted_quartic,
    classify_complex8,
    classify_quartic,
    classify_real8,
    isomorphic8,
    matrix_to_quartic,
    quartic_invariants,
    quartic_to_matrix,
    real_class_of_symmetric,
    real_orbit_class_from_char,
    support_quartic,
)
from hksym.generators import (
    make_generator,
    random_gaussrat,
    random_symplectic,
    random_tau_fixed,
    standard_split_j,
)
from hksym.realform import RealityError, symmetrize_real

from oracles import (
    PETROV_OF_PATTERN,
    binary_quartic_by_frame,
    binary_quartic_tensor,
    embed_gl_group,
    in_span,
    random_invertible,
    restrict_to_basis,
    root_pattern_gcd_chain,
    zeros,
)


def lin(sp, k):
    return SymTensor.linear(sp, sp.basis_vector(k))


def bq(*plain):
    return BinaryQuartic.from_plain([GaussRat(Fraction(str(c))) if not isinstance(c, GaussRat) else c for c in plain])


def random_linear_form(rng):
    while True:
        a, b = random_gaussrat(rng), random_gaussrat(rng)
        if a or b:
            return (a, b)


def product_quartic(forms_with_mult):
    """Plain coefficients of prod (a x + b y)^m."""
    coeffs = [ONE]
    for (a, b), mult in forms_with_mult:
        for _ in range(mult):
            new = [ZERO] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i] = new[i] + c * a
                new[i + 1] = new[i + 1] + c * b
            coeffs = new
    assert len(coeffs) == 5
    return coeffs


def random_pattern_quartic(rng, pattern, at_infinity=False):
    """Random quartic with the prescribed root multiplicity pattern; with
    at_infinity, its first (highest) multiplicity is forced onto y = 0."""
    while True:
        forms = [random_linear_form(rng) for _ in pattern]
        if at_infinity:
            forms[0] = (ZERO, ONE)
        ok = True
        for i in range(len(forms)):
            for j in range(i + 1, len(forms)):
                (a, b), (c, d) = forms[i], forms[j]
                if not (a * d - b * c):
                    ok = False
        if ok:
            return BinaryQuartic.from_plain(product_quartic(list(zip(forms, pattern))))


PATTERNS = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]


class TestInvariants:
    def test_x4_plus_y4(self):
        q = bq(1, 0, 0, 0, 1)
        i_, j_, pattern = quartic_invariants(q)
        assert i_ == ONE and j_ == ZERO
        assert pattern == (1, 1, 1, 1)
        disc = i_ * i_ * i_ - GaussRat(27) * j_ * j_
        assert disc == ONE

    def test_x2y2(self):
        q = bq(0, 0, 1, 0, 0)
        i_, j_, pattern = quartic_invariants(q)
        assert i_ == GaussRat(Fraction(1, 12))
        assert j_ == GaussRat(Fraction(-1, 216))
        assert pattern == (2, 2)
        assert i_ * i_ * i_ == GaussRat(27) * j_ * j_

    def test_x4(self):
        i_, j_, pattern = quartic_invariants(bq(1, 0, 0, 0, 0))
        assert i_ == ZERO and j_ == ZERO
        assert pattern == (4,)

    def test_zero(self):
        i_, j_, pattern = quartic_invariants(bq(0, 0, 0, 0, 0))
        assert pattern == ()

    def test_root_at_infinity(self):
        # y^4 has its single root at [1:0] of the t-line after dehomogenizing
        assert quartic_invariants(bq(0, 0, 0, 0, 1))[2] == (4,)
        # x y^3: simple root 0 plus triple at infinity? (x = t factor)
        assert quartic_invariants(bq(0, 1, 0, 0, 0))[2] == (3, 1)

    def test_patterns_against_gcd_chain_oracle(self, rng):
        # roots in general position and with the highest multiplicity at
        # infinity (a factor y^m, so a0 = 0), each with a GL(2)-moved and a
        # scaled copy: the whole PetrovClass is invariant, and its letter
        # and pattern are those of the independent gcd chain
        for _ in range(10):
            for pattern in PATTERNS:
                for at_infinity in (False, True):
                    q = random_pattern_quartic(rng, pattern, at_infinity)
                    assert not at_infinity or not q.a[0]
                    want = root_pattern_gcd_chain(q.plain())
                    assert want == tuple(sorted(pattern, reverse=True))
                    cls = classify_quartic(q)
                    assert (cls.type_tag, cls.multiplicity_pattern) == (PETROV_OF_PATTERN[want], want)
                    assert quartic_invariants(q)[2] == want
                    moved = transform_bq(q, random_invertible(2, rng))
                    c = random_gaussrat(rng) or ONE
                    scaled = BinaryQuartic.from_plain([c * x for x in q.plain()])
                    for copy in (moved, scaled):
                        assert root_pattern_gcd_chain(copy.plain()) == want
                        assert classify_quartic(copy) == cls


class TestPetrovDictionary:
    @pytest.mark.parametrize("plain,expected", [
        ((1, 0, 0, 0, 1), "I"),
        ((0, 1, 1, 0, 0), "II"),
        ((0, 0, 1, 0, 0), "D"),
        ((0, 1, 0, 0, 0), "III"),
        ((1, 0, 0, 0, 0), "N"),
        ((0, 0, 0, 0, 0), "O"),
    ])
    def test_generator_types(self, plain, expected):
        assert classify_quartic(bq(*plain)).type_tag == expected

    def test_type_iii_vs_n_despite_equal_invariants(self):
        iii = quartic_invariants(bq(0, 1, 0, 0, 0))
        n = quartic_invariants(bq(1, 0, 0, 0, 0))
        assert iii[0] == n[0] == ZERO and iii[1] == n[1] == ZERO
        assert classify_quartic(bq(0, 1, 0, 0, 0)).type_tag == "III"
        assert classify_quartic(bq(1, 0, 0, 0, 0)).type_tag == "N"

    def test_type_i_invariant_for_xy_x2_minus_y2(self):
        # xy(x-y)(x+y) = x^3 y - x y^3: I = 1/4, J = 0
        cls = classify_quartic(bq(0, 1, 0, -1, 0))
        assert cls.type_tag == "I"
        assert cls.projective_invariant == (ONE, ZERO)

    def test_type_i_invariant_at_infinity(self):
        # x(x^3 - y^3): I = 0, J = -1/16, four distinct roots
        q = bq(1, 0, 0, -1, 0)
        i_, j_, pattern = quartic_invariants(q)
        assert i_ == ZERO and j_ != ZERO and pattern == (1, 1, 1, 1)
        cls = classify_quartic(q)
        assert cls.projective_invariant == (ZERO, ONE)


class TestMatrixDictionary:
    def test_zero_matrix(self):
        q = matrix_to_quartic(TracelessSym3(zeros(3, 3)))
        assert q.is_zero() and root_pattern_gcd_chain(q.plain()) == ()
        assert classify_quartic(q).type_tag == "O"

    def test_roundtrip_on_random_traceless(self, rng):
        for _ in range(50):
            q = BinaryQuartic.from_plain([random_gaussrat(rng) for _ in range(5)])
            m = quartic_to_matrix(q)
            assert matrix_to_quartic(m) == q

    def test_char_poly_is_t3_minus_i_t_minus_2j(self):
        # the class and the real class both rest on this identity; I and J
        # here come from the classical formulas in the weighted coefficients
        rng = random.Random(31)
        for _ in range(50):
            q = BinaryQuartic.from_plain([random_gaussrat(rng) for _ in range(5)])
            a0, a1, a2, a3, a4 = q.a
            i_ = a0 * a4 - GaussRat(4) * a1 * a3 + GaussRat(3) * a2 * a2
            j_ = (a0 * a2 * a4 + GaussRat(2) * a1 * a2 * a3
                  - a0 * a3 * a3 - a1 * a1 * a4 - a2 * a2 * a2)
            assert _char_poly_3(quartic_to_matrix(q).operator()) == (GaussRat(-2) * j_, -i_, ZERO)
            assert quartic_invariants(q)[:2] == (i_, j_)

    def test_traceless_slice_enforced(self):
        bad = Matrix.identity(3)
        with pytest.raises(ContractError):
            TracelessSym3(bad)

    def test_pattern_vs_segre_cross_check(self, rng):
        for _ in range(10):
            for pattern in PATTERNS:
                q = random_pattern_quartic(rng, pattern)
                want = root_pattern_gcd_chain(q.plain())
                assert classify_quartic(q).type_tag == PETROV_OF_PATTERN[want]

    def test_equivariance_under_induced_rotations(self, rng):
        # R induced on (x^2, xy, y^2) by T in SL(2) preserves the module G
        # (contravariantly); the dictionary intertwines substitution with
        # conjugation, so every classification output is unchanged
        for _ in range(5):
            t = random_invertible(2, rng)
            det = t.entry(0, 0) * t.entry(1, 1) - t.entry(0, 1) * t.entry(1, 0)
            t = Matrix([[t.entry(0, 0) / det, t.entry(0, 1) / det],
                        [t.entry(1, 0), t.entry(1, 1)]])  # det 1
            r = induced_on_sym2(t)
            assert r @ GRAM @ r.transpose() == GRAM
            for pattern in PATTERNS:
                q = random_pattern_quartic(rng, pattern)
                a = quartic_to_matrix(q).a
                moved = TracelessSym3(r @ a @ r.transpose())
                assert matrix_to_quartic(moved) == transform_bq(q, t)
                assert classify_quartic(matrix_to_quartic(moved)) == classify_quartic(q)
                assert root_pattern_gcd_chain(matrix_to_quartic(moved).plain()) == \
                    classify_quartic(q).multiplicity_pattern


def induced_on_sym2(t):
    """Matrix of the push-forward of t on S^2 C^2 in the basis (x^2, xy, y^2)."""
    a, b = t.entry(0, 0), t.entry(1, 0)
    c, d = t.entry(0, 1), t.entry(1, 1)
    two = GaussRat(2)
    # t.x = a x + b y, t.y = c x + d y (columns are images)
    return Matrix([
        [a * a, a * c, c * c],
        [two * a * b, a * d + b * c, two * c * d],
        [b * b, b * d, d * d],
    ])


def transform_bq(q, t):
    """Push-forward of a binary quartic along t (substitute generator images)."""
    plain = q.plain()
    x_img = (t.entry(0, 0), t.entry(1, 0))
    y_img = (t.entry(0, 1), t.entry(1, 1))
    acc = [ZERO] * 5
    for k, coef in enumerate(plain):
        if coef:
            part = product_quartic([(x_img, 4 - k), (y_img, k)])
            acc = [u + coef * v for u, v in zip(acc, part)]
    return BinaryQuartic.from_plain(acc)


class TestSymTensorConversion:
    def test_roundtrip_through_tensor(self, rng):
        sp = SymplecticSpace(2)
        pair = [sp.basis_vector(0), sp.basis_vector(1)]
        for _ in range(10):
            q = BinaryQuartic.from_plain([random_gaussrat(rng) for _ in range(5)])
            s = binary_quartic_tensor(q, sp, pair)
            assert binary_quartic_by_frame(s, pair) == q

    def test_matches_restriction_oracle(self):
        # seeded differential test against the linear-solve restriction:
        # coordinate Lagrangian planes, their images under products of 1-6
        # transvections, and (v, jv) bases of the planes the split j keeps
        rng = random.Random(23)
        sp = SymplecticSpace(2)
        e = [sp.basis_vector(k) for k in range(4)]
        j = standard_split_j(sp)
        coordinate = [(e[0], e[1]), (e[0], e[3]), (e[2], e[1]), (e[2], e[3])]
        pairs = list(coordinate)
        for steps in range(1, 7):
            t = random_symplectic(sp, rng, steps=steps)
            a, b = rng.choice(coordinate)
            pairs.append((mat_vec(t, a), mat_vec(t, b)))
        for half in (e[:2], e[2:]):
            for _ in range(3):
                a, b = random_gaussrat(rng), random_gaussrat(rng)
                v = tuple(a * x + b * y for x, y in zip(*half))
                if any(v):
                    pairs.append((v, j.apply(v)))
        for pair in pairs:
            q = BinaryQuartic.from_plain([random_gaussrat(rng) for _ in range(5)])
            s = binary_quartic_tensor(q, sp, pair)
            plain = [ZERO] * 5
            for beta, c in restrict_to_basis(s, list(pair)).items():
                plain[beta[1]] = c
            assert binary_quartic_by_frame(s, pair) == BinaryQuartic.from_plain(plain) == q
            # a quartic with a term off the plane is refused by both
            outside = next(w for w in e if not in_span(span(sp, pair), w))
            bad = s + SymTensor.linear(sp, outside) ** 4
            with pytest.raises(ContractError) as ours:
                binary_quartic_by_frame(bad, pair)
            with pytest.raises(ContractError) as theirs:
                restrict_to_basis(bad, list(pair))
            assert str(ours.value) == str(theirs.value) == "tensor is not supported in the given subspace"


def classify(s):
    return classify_complex8(certify_invariance(s))


class TestClassifyComplex8:
    def test_examples(self):
        sp = SymplecticSpace(2)
        x, y = lin(sp, 0), lin(sp, 1)
        assert classify((x * x) * (y * y)).type_tag == "D"
        assert classify((x ** 3) * y).type_tag == "III"
        assert classify(x ** 4).type_tag == "N"
        assert classify(SymTensor.zero(sp, 4)).type_tag == "O"
        cls = classify((x ** 3) * y - x * (y ** 3))
        assert cls.type_tag == "I"

    def test_gl2_invariance(self, rng):
        sp = SymplecticSpace(2)
        e_plus = span(sp, [sp.basis_vector(0), sp.basis_vector(1)])
        x, y = lin(sp, 0), lin(sp, 1)
        samples = [
            x ** 4 + y ** 4,
            (x ** 3) * y,
            (x * x) * (y * y),
            x ** 4 + ((x * x) * (y * y)).scale(GaussRat(3)) + y ** 4,
        ]
        for _ in range(5):
            t_small = random_invertible(2, rng)
            big = embed_gl_group(e_plus, t_small)
            for s in samples:
                assert classify(transform(s, big)) == classify(s)

    def test_requires_dim4(self):
        sp = SymplecticSpace(1)
        with pytest.raises(ContractError, match="needs dim E = 4"):
            classify(lin(sp, 0) ** 4)


class TestRealClass:
    def test_zero_class(self):
        assert real_class_of_symmetric(zeros(3, 3)).kind == "zero"

    def diag(self, *entries):
        rows = [[GaussRat(entries[i]) if i == j else ZERO for j in range(3)] for i in range(3)]
        return Matrix(rows)

    def test_positive_scaling_same_class(self):
        a = real_class_of_symmetric(self.diag(1, 1, -2))
        b = real_class_of_symmetric(self.diag(2, 2, -4))
        assert a == b

    def test_distinct_examples(self):
        a = real_class_of_symmetric(self.diag(1, -1, 0))
        b = real_class_of_symmetric(self.diag(1, 1, -2))
        assert a != b
        assert a.sign_q == 0 and b.sign_q != 0

    def test_negation_changes_class(self):
        # eigenvalues {1,1,-2} vs {-1,-1,2} are not positively proportional
        a = real_class_of_symmetric(self.diag(1, 1, -2))
        b = real_class_of_symmetric(self.diag(-1, -1, 2))
        assert a != b
        assert a.sign_q == -b.sign_q
        assert a.ratio == b.ratio  # the pair alone would have merged them

    def test_rotation_and_scaling_invariance(self, rng):
        # signed permutation rotations (det +1) conjugate diag matrices to
        # diag matrices with permuted entries: same class
        import random as _r

        entries = [Fraction(1), Fraction(5, 2), Fraction(-7, 2)]
        base = real_class_of_symmetric(self.diag(*entries))
        for perm in ([1, 2, 0], [2, 0, 1], [0, 2, 1]):
            permuted = [entries[i] for i in perm]
            assert real_class_of_symmetric(self.diag(*permuted)) == base
        for lam in (Fraction(2), Fraction(1, 3), Fraction(9, 4)):
            scaled = [e * lam for e in entries]
            assert real_class_of_symmetric(self.diag(*scaled)) == base

    def test_char_invariant_consistency(self):
        # scaling acts by (p, q) -> (c^2 p, c^3 q)
        p, q = GaussRat(-3), GaussRat(2)
        four, eight = GaussRat(4), GaussRat(8)
        assert real_orbit_class_from_char(p, q) == real_orbit_class_from_char(four * p, eight * q)
        assert real_orbit_class_from_char(p, q) != real_orbit_class_from_char(four * p, -eight * q)


def classify_real(s, j):
    return classify_real8(certify_invariance(s), j)


class TestClassifyReal8:
    def test_full_pipeline(self, rng):
        s, j = random_tau_fixed(1, rng)
        q = certify_invariance(s)
        assert q.support.dim == 2
        cls = classify_real8(q, j)
        assert cls[1].kind in ("zero", "nonzero")
        # positive rational scaling preserves the class
        assert classify_real(s.scale(GaussRat(Fraction(9, 4))), j) == cls

    def test_negation_detected_when_q_nonzero(self, rng):
        for _ in range(10):
            s, j = random_tau_fixed(1, rng)
            if certify_invariance(s).support.dim != 2:
                continue
            _, cls = classify_real(s, j)
            if cls.kind == "nonzero" and cls.sign_q:
                _, neg = classify_real(s.scale(GaussRat(-1)), j)
                assert neg != cls
                return
        pytest.skip("corpus produced no sign_q != 0 sample")

    def test_zero_quartic(self):
        sp = SymplecticSpace(2)
        cls, real_cls = classify_real(SymTensor.zero(sp, 4), standard_split_j(sp))
        assert (cls.type_tag, real_cls.kind) == ("O", "zero")

    def test_rejects_non_tau_fixed(self, rng):
        sp = SymplecticSpace(2)
        j = standard_split_j(sp)
        with pytest.raises(RealityError):
            classify_real(lin(sp, 0) ** 4, j)

    @pytest.mark.parametrize("factors", [(0,), (0, 3)], ids=["p1", "p1-q2"])
    def test_requires_j_invariant_support(self, factors):
        # the split j keeps span(p_1, p_2); neither span(p_1) (no line is
        # j-invariant) nor the isotropic span(p_1, q_2) is kept by it
        sp = SymplecticSpace(2)
        q = certify_invariance(sum((lin(sp, k) ** 4 for k in factors), SymTensor.zero(sp, 4)))
        with pytest.raises(ContractError, match="^e_plus is not j-invariant$"):
            adapted_quartic(q, standard_split_j(sp))


class TestIsomorphic8:
    def test_separates_generic_family(self):
        sp = SymplecticSpace(2)
        x, y = lin(sp, 0), lin(sp, 1)
        s1 = x ** 4 + y ** 4
        for c in (1, 2, 3, 4, 5):
            s2 = x ** 4 + ((x * x) * (y * y)).scale(GaussRat(c)) + y ** 4
            assert not isomorphic8(s1, s2)

    def test_distinct_types(self):
        sp = SymplecticSpace(2)
        x, y = lin(sp, 0), lin(sp, 1)
        assert not isomorphic8(x ** 4, (x ** 3) * y)

    def test_gl_equivalent_pairs_identified(self, rng):
        sp = SymplecticSpace(2)
        e_plus = span(sp, [sp.basis_vector(0), sp.basis_vector(1)])
        x, y = lin(sp, 0), lin(sp, 1)
        for s in (x ** 4 + y ** 4, (x ** 3) * y, (x * x) * (y * y)):
            t_small = random_invertible(2, rng)
            moved = transform(s, embed_gl_group(e_plus, t_small))
            assert isomorphic8(s, moved)

    def test_real_mode(self, rng):
        s, j = random_tau_fixed(1, rng)
        assert isomorphic8(s, s.scale(GaussRat(4)), j=j)
        zero = SymTensor.zero(s.space, 4)
        assert isomorphic8(zero, zero, j=j)
        if not s.is_zero():
            assert not isomorphic8(s, zero, j=j)


GOLDEN = Path(__file__).resolve().parent / "golden"
KINDS = ["petrov:%s" % t for t in ("I", "II", "D", "III", "N", "O")] + [
    "random-lagrangian:2", "real-random:1"]


def swap_p2_q2(sp):
    """The symplectic map p_2 -> q_2, q_2 -> -p_2, fixing p_1 and q_1."""
    cols = [sp.basis_vector(k) for k in range(4)]
    cols[1], cols[3] = sp.basis_vector(3), tuple(-c for c in sp.basis_vector(1))
    return Matrix(cols).transpose()


def pivot_read_inputs():
    """The kinds at seeds 0-4, each as is, moved by swap_p2_q2 (support
    pivots (0, 3)) and moved by 1-6 random transvections."""
    rng = random.Random(3030)
    sp = SymplecticSpace(2)
    swap = swap_p2_q2(sp)
    for kind in KINDS:
        for seed in range(5):
            s = make_generator(kind, seed)
            yield s
            yield transform(s, swap)
            yield transform(s, random_symplectic(sp, rng, steps=rng.randint(1, 6)))


def pivots(q):
    return tuple(next(k for k, e in enumerate(v) if e) for v in q.support.basis)


class TestPivotRead:
    def test_support_quartic_matches_the_frame_read(self):
        # the old read pushed S forward into the Darboux frame of the
        # Lagrangian that extends the support's RREF basis
        seen = set()
        for s in pivot_read_inputs():
            q = certify_invariance(s)
            assert support_quartic(q) == binary_quartic_by_frame(s, find_lagrangian(q).basis)
            seen.add(pivots(q))
        assert seen == {(), (0,), (0, 1), (0, 3)}

    def test_adapted_quartic_matches_the_frame_read(self):
        # tau-fixed inputs whose support is j-invariant: for the split j,
        # the real-random kind as it is and the tau-symmetrization of every
        # kind, which stays in S^4 span(p); for the golden non_coordinate_j,
        # the tau-symmetrization of every kind moved onto its E_+ by the
        # map t that built it (its comment in test_golden).  Both j send the
        # support's first RREF row to its second, so alpha = 0 there; the
        # split j conjugated by 1-6 random transvections T, with the split
        # inputs moved by T, gives alpha != 0
        sp = SymplecticSpace(2)
        split = standard_split_j(sp)
        golden_j = quaternionic_from_json(
            json.loads((GOLDEN / "non_coordinate_j.j.json").read_text(encoding="utf-8")), sp)
        t = random_symplectic(sp, random.Random(31))
        e_plus, e_minus = (span(sp, t.transpose().data[k:k + 2]) for k in (0, 2))
        assert standard_quaternionic(sp, (e_plus, e_minus)).c_matrix == golden_j.c_matrix
        kinds = [make_generator(kind, seed) for kind in KINDS for seed in range(5)]
        fixed = [s for s in kinds if tau(s, split) == s] + [symmetrize_real(s, split) for s in kinds]
        inputs = [(split, fixed),
                  (golden_j, [symmetrize_real(transform(s, t), golden_j) for s in kinds])]
        rng = random.Random(3031)
        for steps in range(1, 7):
            moved = random_symplectic(sp, rng, steps=steps)
            j = QuaternionicStructure(sp, moved @ split.c_matrix @ inverse(moved).conj())
            inputs.append((j, [transform(r, moved) for r in fixed[steps::6]]))
        checked = [0] * len(inputs)
        off_axis = 0
        for k, (j, rs) in enumerate(inputs):
            for r in rs:
                q = certify_invariance(r)
                if q.support.dim != 2:
                    continue
                v = q.support.basis[0]
                bq = adapted_quartic(q, j)
                assert bq == binary_quartic_by_frame(r, (v, j.apply(v)))
                cls, _ = classify_real8(q, j)
                assert cls == classify_quartic(bq) == classify_complex8(q)
                checked[k] += 1
                off_axis += bool(j.apply(v)[pivots(q)[0]])
        assert min(checked[:2]) >= 35 and min(checked[2:]) >= 5 and off_axis == sum(checked[2:])
