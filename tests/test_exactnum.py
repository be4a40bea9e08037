import random
from fractions import Fraction

import pytest

from hksym.exactnum import (
    ContractError,
    GaussRat,
    I_UNIT,
    LiteralTooLongError,
    MAX_DIGITS,
    Matrix,
    MINUS_ONE,
    ONE,
    ScalarError,
    SpanSolver,
    ZERO,
    echelon_basis,
    extend_rref,
    from_parts,
    hermitian_inertia,
    inverse,
    IOTA,
    MODULUS,
    mat_vec,
    modular_rank,
    rank_kernel,
    residues,
    solve_linear,
    triple,
    unit_vec,
    vec_is_zero,
)

from hksym.symtensor import s2e_matrix

from oracles import RefGaussRat, dense_matmul, rref_reference, zeros


def rand_gauss(rng):
    return GaussRat(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])),
                    Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])))


def rand_matrix(rng, rows, cols):
    return Matrix([[rand_gauss(rng) for _ in range(cols)] for _ in range(rows)])


def rand_invertible(rng, n):
    while True:
        m = rand_matrix(rng, n, n)
        if rank_kernel(m)[0] == n:
            return m


class TestFieldOps:
    def test_conjugate_product(self):
        a = GaussRat.parse("1/2+i")
        b = GaussRat.parse("1/2-i")
        assert a * b == GaussRat(Fraction(5, 4))

    def test_sub_self_is_zero(self):
        for text in ("0", "7/3", "-2+5i", "1/2-1/3i"):
            x = GaussRat.parse(text)
            assert not x - x

    def test_conj(self):
        assert GaussRat.parse("3/4+2i").conjugate() == GaussRat.parse("3/4-2i")

    def test_div_and_inverse(self):
        a = GaussRat.parse("3-2i")
        b = GaussRat.parse("1+i")
        assert (a / b) * b == a
        assert a * a.inverse() == ONE

    def test_division_by_zero(self):
        with pytest.raises(ScalarError):
            ONE / ZERO

    def test_field_axioms_random(self, rng):
        for _ in range(50):
            a, b, c = (rand_gauss(rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            if b:
                assert (a / b) * b == a


class TestParsing:
    @pytest.mark.parametrize("text,re_, im_", [
        ("-3/4+1/2i", Fraction(-3, 4), Fraction(1, 2)),
        ("−3/4 + 1/2 i", Fraction(-3, 4), Fraction(1, 2)),
        ("5", Fraction(5), Fraction(0)),
        ("i", Fraction(0), Fraction(1)),
        ("-i", Fraction(0), Fraction(-1)),
        ("2-i", Fraction(2), Fraction(-1)),
        ("7/2i", Fraction(0), Fraction(7, 2)),
        ("0", Fraction(0), Fraction(0)),
    ])
    def test_literals(self, text, re_, im_):
        v = GaussRat.parse(text)
        assert v.re == re_ and v.im == im_

    @pytest.mark.parametrize("bad", ["", "1/0", "0.5", "x", "1+", "i2", "1//2", "3/0i"])
    def test_rejects(self, bad):
        with pytest.raises(ScalarError):
            GaussRat.parse(bad)

    def test_roundtrip(self, rng):
        for _ in range(100):
            v = rand_gauss(rng)
            assert GaussRat.parse(str(v)) == v

    def test_against_the_fraction_parser(self):
        # the integer-triple parser against RefGaussRat.parse, which reads
        # each part through Fraction: unreduced fractions, both signs, the
        # unicode minus and whitespace anywhere
        rng = random.Random(4300)

        def sign(leading):
            return rng.choice(("", "+", "-", "−") if leading else ("+", "-", "−"))

        def rational():
            g = rng.randrange(1, 10 ** 6)  # a factor left in both parts
            num = rng.randrange(10 ** rng.randint(1, 25)) * g
            if rng.random() < 0.3:
                return str(num)
            return "%d/%d" % (num, rng.randrange(1, 10 ** rng.randint(1, 25)) * g)

        for _ in range(2000):
            shape = rng.randrange(4)
            text = sign(True) + ("" if shape == 2 else rational())
            if shape in (1, 2):
                text += "i"
            elif shape == 3:
                text += sign(False) + rng.choice(("", rational())) + "i"
            text = "".join(rng.choice(("", "", "", " ", "\t", "\n")) + c for c in text)
            x, ref = GaussRat.parse(text), RefGaussRat.parse(text)
            assert x == GaussRat(ref.re, ref.im) and str(x) == str(ref)

    def test_digit_strings_are_bounded(self):
        # a digit string may have MAX_DIGITS = 4300 digits, the interpreter's
        # default limit for int(); a longer one is refused before int()
        # reads it, whatever the interpreter's setting
        ok, seven = "1" * MAX_DIGITS, "7" * MAX_DIGITS
        assert MAX_DIGITS == 4300
        assert GaussRat.parse(ok) == GaussRat(int(ok))
        assert GaussRat.parse("-%s/%s+%s/3i" % (ok, seven, seven)) == from_parts(
            GaussRat(-int(ok)) / GaussRat(int(seven)), GaussRat(int(seven)) / GaussRat(3))
        for bad in ["1" * (MAX_DIGITS + 1), "0" * MAX_DIGITS + "1", "1/" + "2" * (MAX_DIGITS + 1),
                    "5-%s7i" % seven, "%s %s" % ("3" * 3000, "3" * 1301), "−" + seven + "9i"]:
            with pytest.raises(LiteralTooLongError) as exc:
                GaussRat.parse(bad)
            assert str(exc.value) == "rational literal has a digit string over 4300 digits"
        assert issubclass(LiteralTooLongError, ScalarError)

    @pytest.mark.parametrize("bad", ["1/0", "3/0i", "0/0", "1/2+5/0i", "1/0-5/0i", "-i+1"])
    def test_errors_match_the_fraction_parser(self, bad):
        with pytest.raises(ScalarError) as got:
            GaussRat.parse(bad)
        with pytest.raises(ScalarError) as ref:
            RefGaussRat.parse(bad)
        assert str(got.value) == str(ref.value)


class TestRankKernel:
    def test_identity(self):
        rank, kernel, pivots = rank_kernel(Matrix.identity(2))
        assert rank == 2 and kernel == [] and pivots == [0, 1]

    def test_zero_matrix(self):
        rank, kernel, _ = rank_kernel(zeros(3, 3))
        assert rank == 0
        assert kernel == [tuple(ONE if i == k else ZERO for i in range(3)) for k in range(3)]

    def test_rank_one_complex(self):
        # oracle: direct multiplication m.v = 0 fixes the kernel vector (-i, 1)
        m = Matrix([[ONE, I_UNIT], [-I_UNIT, ONE]])
        rank, kernel, _ = rank_kernel(m)
        assert rank == 1
        assert kernel == [(-I_UNIT, ONE)]
        assert vec_is_zero(mat_vec(m, kernel[0]))

    def test_rank_transpose_and_dimension_formula(self, rng):
        for _ in range(30):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = rand_matrix(rng, rows, cols)
            rank, kernel, _ = rank_kernel(m)
            assert rank == rank_kernel(m.transpose())[0]
            assert rank + len(kernel) == cols
            for v in kernel:
                assert vec_is_zero(mat_vec(m, v))


class TestSolve:
    def test_identity(self, rng):
        b = tuple(rand_gauss(rng) for _ in range(3))
        assert solve_linear(Matrix.identity(3), b) == b

    def test_inconsistent(self):
        assert solve_linear(zeros(2, 2), (ONE, ZERO)) is None

    def test_underdetermined_canonical(self):
        a = Matrix([[ONE, ONE], [ZERO, ZERO]])
        assert solve_linear(a, (GaussRat(2), ZERO)) == (GaussRat(2), ZERO)

    def test_multiply_back_on_random_consistent_systems(self, rng):
        for _ in range(100):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = rand_matrix(rng, rows, cols)
            x = tuple(rand_gauss(rng) for _ in range(cols))
            b = mat_vec(m, x)
            sol = solve_linear(m, b)
            assert sol is not None
            assert mat_vec(m, sol) == b


class TestInertia:
    def test_identity(self):
        for n in (1, 2, 4):
            assert hermitian_inertia(Matrix.identity(n)) == (n, 0, 0)

    def test_diagonal(self):
        d = Matrix([[ONE, ZERO, ZERO], [ZERO, MINUS_ONE, ZERO], [ZERO, ZERO, ZERO]])
        assert hermitian_inertia(d) == (1, 1, 1)

    def test_hyperbolic_plane(self):
        # derived by the congruence onto the x +/- y basis
        assert hermitian_inertia(Matrix([[ZERO, ONE], [ONE, ZERO]])) == (1, 1, 0)
        assert hermitian_inertia(Matrix([[ZERO, I_UNIT], [-I_UNIT, ZERO]])) == (1, 1, 0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ContractError):
            hermitian_inertia(Matrix([[ZERO, ONE], [ZERO, ZERO]]))

    def test_congruence_invariance(self, rng):
        for _ in range(25):
            n = rng.randint(1, 4)
            m = rand_matrix(rng, n, n)
            h = m + m.hermitian_transpose()
            p = rand_invertible(rng, n)
            transformed = p.hermitian_transpose() @ h @ p
            assert hermitian_inertia(h) == hermitian_inertia(transformed)

    def test_counts_sum_to_size(self, rng):
        for _ in range(20):
            n = rng.randint(1, 4)
            m = rand_matrix(rng, n, n)
            h = m @ m.hermitian_transpose()  # psd, possibly singular
            pos, neg, null = hermitian_inertia(h)
            assert pos + neg + null == n
            assert neg == 0

    def test_against_char_poly_descartes_oracle(self, rng):
        from oracles import inertia_by_char_poly

        for _ in range(40):
            n = rng.randint(1, 5)
            m = rand_matrix(rng, n, n)
            h = m + m.hermitian_transpose()
            if rng.random() < 0.3:
                # force some degeneracy: congruence by a singular-ish block
                p = rand_matrix(rng, n, n)
                h = p.hermitian_transpose() @ h @ p
            assert hermitian_inertia(h) == inertia_by_char_poly(h)


class TestSpanSolver:
    def test_roundtrip(self, rng):
        for _ in range(20):
            dim = rng.randint(2, 6)
            count = rng.randint(1, dim)
            basis = echelon_basis([tuple(rand_gauss(rng) for _ in range(dim)) for _ in range(count)])
            if not basis:
                continue
            solver = SpanSolver(basis)
            coeffs = [rand_gauss(rng) for _ in basis]
            target = [ZERO] * dim
            for c, v in zip(coeffs, basis):
                target = [t + c * a for t, a in zip(target, v)]
            got = solver.coords(tuple(target))
            assert got == tuple(coeffs)

    def test_outside_span(self):
        solver = SpanSolver([(ONE, ZERO)])
        assert solver.coords((ZERO, ONE)) is None

    def test_empty_basis_spans_zero(self):
        solver = SpanSolver([])
        assert solver.coords((ZERO, ZERO)) == ()
        assert solver.coords((ZERO, ONE)) is None

    @pytest.mark.parametrize("rows", [
        [(GaussRat(2), ZERO)],              # leading entry not 1
        [(ZERO, ZERO)],                     # zero row
        [(ZERO, ONE), (ONE, ZERO)],         # pivots not increasing
        [(ONE, ZERO), (ONE, ZERO)],         # repeated pivot
        [(ONE, ONE), (ZERO, ONE)],          # nonzero above a pivot
        [(ONE, ZERO, ZERO), (ZERO, ONE)],   # ragged
        [(ZERO, ZERO, ONE), (ONE,)],        # ragged, short row after a late pivot
    ], ids=["not-normalized", "zero-row", "unordered", "repeated", "not-reduced", "ragged",
            "ragged-short"])
    def test_rejects_rows_not_in_rref(self, rows):
        # coordinates are read off the pivots, so only RREF rows are accepted
        with pytest.raises(ContractError, match="reduced row echelon"):
            SpanSolver(rows)


def test_extend_rref_against_rref_reference():
    # vectors added one at a time give the dense sweep's RREF of all of them
    # at every step, on widths up to 7 with 300-bit entries, zero columns
    # and repeats
    rng = random.Random(13)
    for k in range(40):
        width = rng.randint(1, 7)
        zeros = k % 4 / 3
        vectors = []
        for _ in range(rng.randint(1, 9)):
            if vectors and rng.random() < 0.3:
                a, b = rng.choice(vectors), rng.choice(vectors)
                vectors.append(tuple(x + _ref_operand(rng)[0] * y for x, y in zip(a, b)))
            else:
                vectors.append(tuple(ZERO if rng.random() < zeros else _ref_operand(rng)[0]
                                     for _ in range(width)))
        rows, pivots = [], []
        for i, v in enumerate(vectors):
            before = len(rows)
            grew = extend_rref(rows, pivots, v)
            expected = echelon_reference(vectors[:i + 1])
            assert [tuple(r) for r in rows] == expected
            assert grew == (len(expected) > before)
            assert pivots == [next(c for c, e in enumerate(r) if e) for r in expected]


def echelon_reference(vectors):
    rows = [list(v) for v in vectors]
    return [tuple(row) for row in rows[:len(rref_reference(rows))]]


def rank_kernel_reference(m):
    rows = m.rows_list()
    pivots = rref_reference(rows)
    kernel = []
    for f in range(m.ncols):
        if f not in pivots:
            v = [ZERO] * m.ncols
            v[f] = ONE
            for i, p in enumerate(pivots):
                v[p] = -rows[i][f]
            kernel.append(tuple(v))
    return len(pivots), kernel, pivots


def solve_reference(m, b):
    rows = [list(r) + [be] for r, be in zip(m.data, b)]
    pivots = rref_reference(rows)
    if m.ncols in pivots:
        return None
    x = [ZERO] * m.ncols
    for i, p in enumerate(pivots):
        x[p] = rows[i][m.ncols]
    return tuple(x)


def inverse_reference(m):
    n = m.nrows
    rows = [list(r) + [ONE if k == i else ZERO for k in range(n)] for i, r in enumerate(m.data)]
    return Matrix([row[n:] for row in rows]) if rref_reference(rows) == list(range(n)) else None


def dependent_rows(rng, nrows, width):
    """nrows rows of 300-bit Q(i) entries: after the first, each is zero, a
    repeat or a combination of two earlier rows about half the time."""
    rows = []
    for _ in range(nrows):
        kind = rng.random() if rows else 1.0
        if kind < 0.15:
            rows.append((ZERO,) * width)
        elif kind < 0.3:
            rows.append(rng.choice(rows))
        elif kind < 0.5:
            a, b = rng.choice(rows), rng.choice(rows)
            c = _ref_operand(rng)[0]
            rows.append(tuple(x + c * y for x, y in zip(a, b)))
        else:
            rows.append(tuple(_ref_operand(rng)[0] for _ in range(width)))
    return rows


class TestAgainstRrefReference:
    """echelon_basis, rank_kernel, solve_linear and inverse, grown by
    extend_rref, against the same functions built on the dense sweep, on
    tall, wide and square matrices with zero, repeated and dependent rows."""

    SHAPES = [(rows, cols) for rows in range(1, 7) for cols in range(1, 7)]

    def matrices(self, seed):
        rng = random.Random(seed)
        for nrows, width in self.SHAPES:
            yield rng, Matrix(dependent_rows(rng, nrows, width))

    def test_echelon_basis(self):
        for _, m in self.matrices(1):
            assert echelon_basis(m.data) == echelon_reference(m.data)
        assert echelon_basis([]) == []

    def test_rank_kernel(self):
        for _, m in self.matrices(2):
            assert rank_kernel(m) == rank_kernel_reference(m)

    def test_solve_linear(self):
        kinds = {"consistent": 0, "underdetermined": 0, "inconsistent": 0}
        for rng, m in self.matrices(3):
            x = tuple(_ref_operand(rng)[0] for _ in range(m.ncols))
            for b in (mat_vec(m, x), tuple(_ref_operand(rng)[0] for _ in range(m.nrows))):
                got = solve_linear(m, b)
                assert got == solve_reference(m, b)
                if got is None:
                    kinds["inconsistent"] += 1
                else:
                    assert mat_vec(m, got) == b
                    kinds["consistent"] += 1
                    kinds["underdetermined"] += rank_kernel(m)[0] < m.ncols
        assert min(kinds.values()) > 0, kinds

    def test_inverse(self):
        rng = random.Random(4)
        singular = 0
        for _ in range(3):
            for n in range(1, 7):
                m = Matrix(dependent_rows(rng, n, n))
                expected = inverse_reference(m)
                if expected is None:
                    singular += 1
                    with pytest.raises(ContractError, match="singular"):
                        inverse(m)
                else:
                    assert inverse(m) == expected
                    assert m @ expected == Matrix.identity(n)
        assert singular > 0


def is_prime(n):
    """Miller-Rabin on the prime bases up to 37, deterministic for odd
    n < 3.3e24 and for 2."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestResidues:
    """residues: a + bi -> a + b IOTA, a ring map Z[i] -> F_P, P = MODULUS."""

    P = MODULUS

    def test_the_modulus_is_a_prime_with_a_square_root_of_minus_one(self):
        assert is_prime(self.P) and self.P % 4 == 1
        assert (IOTA * IOTA + 1) % self.P == 0 and 0 < IOTA < self.P
        # 561 is a Carmichael number and 3215031751 a strong pseudoprime to
        # the bases 2, 3, 5 and 7
        candidates = (2, 3, 97, 2 ** 61 - 1, 2 ** 61 - 31, 561, 2 ** 61 - 29, 3215031751)
        assert [n for n in candidates if is_prime(n)] == [2, 3, 97, 2 ** 61 - 1, 2 ** 61 - 31]

    def test_additive_and_multiplicative(self):
        rng = random.Random("residues-ring-map")
        for _ in range(200):
            z, w = (GaussRat(rng.randint(-2 ** 80, 2 ** 80), rng.randint(-2 ** 80, 2 ** 80))
                    for _ in range(2))
            rz, rw = residues([z, w])
            assert residues([z + w, z * w, -z]) == [(rz + rw) % self.P, rz * rw % self.P,
                                                    -rz % self.P]
        assert residues([I_UNIT, ONE, MINUS_ONE]) == [IOTA, 1, self.P - 1]


class TestModularRank:
    """modular_rank: the rank in F_P, P = 2^61 - 31, stopped at a target;
    a lower bound on the rank over Q(i) that rank_kernel computes exactly."""

    P = MODULUS

    def test_prime_entry_drops_the_rank(self):
        assert self.P == 2 ** 61 - 31 and self.P % 4 == 1
        assert modular_rank([(ONE, ZERO), (ZERO, GaussRat(self.P))], 2) == 1
        assert rank_kernel(Matrix([[ONE, ZERO], [ZERO, GaussRat(self.P)]]))[0] == 2

    def test_iota_minus_i_drops_the_rank(self):
        # IOTA - i is no multiple of P but is sent to IOTA - IOTA = 0
        assert modular_rank([(ONE, ZERO), (ZERO, GaussRat(IOTA, -1))], 2) == 1
        assert rank_kernel(Matrix([[ONE, ZERO], [ZERO, GaussRat(IOTA, -1)]]))[0] == 2

    def test_prime_in_a_denominator(self):
        # (1/P, 1) is scaled by its lcm P to (1, P), which reduces to (1, 0)
        rows = [(GaussRat(Fraction(1, self.P)), ONE), (ONE, ZERO)]
        assert modular_rank(rows, 2) == 1 and rank_kernel(Matrix(rows))[0] == 2

    def test_gaussian_entries_of_300_bits(self):
        # a rank-3 matrix of 300-bit entries: three random rows and their
        # Gaussian combinations, real and imaginary coefficients included
        rng = random.Random("modular-rank-300")
        base = [tuple(_ref_operand(rng)[0] for _ in range(6)) for _ in range(3)]
        assert max(triple(z)[2].bit_length() for row in base for z in row) > 250
        combos = [tuple(a + I_UNIT * b - c for a, b, c in zip(*base)),
                  tuple(GaussRat(Fraction(3, 7)) * a + b for a, b in zip(base[0], base[2]))]
        rows = base + combos
        assert rank_kernel(Matrix(rows))[0] == 3
        assert modular_rank(rows, 5) == modular_rank(rows[::-1], 5) == 3

    def test_zero_and_repeated_rows(self):
        v, w = (ONE, I_UNIT, ZERO), (ZERO, GaussRat(Fraction(1, 3)), ONE)
        zero = (ZERO,) * 3
        assert modular_rank([zero, v, v, zero, tuple(-x for x in v), w, w], 3) == 2
        assert modular_rank([zero, zero], 3) == 0
        assert modular_rank([], 2) == 0

    def test_stops_at_the_target(self):
        consumed = []

        def rows():
            for k in range(4):
                consumed.append(k)
                yield unit_vec(4, k)

        assert modular_rank(rows(), 2) == 2 and consumed == [0, 1]
        assert modular_rank(rows(), 0) == 0
        assert modular_rank(rows(), 9) == 4

    def test_against_rank_kernel(self):
        # dependent_rows gives zero, repeated and combined rows of 300-bit
        # entries: never above the exact rank; random rows have full rank
        rng = random.Random("modular-rank-vs-exact")
        for nrows in range(1, 7):
            for width in range(1, 7):
                m = Matrix(dependent_rows(rng, nrows, width))
                exact = rank_kernel(m)[0]
                assert modular_rank(m.data, min(nrows, width)) <= exact
                full = [tuple(_ref_operand(rng)[0] or ONE for _ in range(width))
                        for _ in range(nrows)]
                exact = rank_kernel(Matrix(full))[0]
                assert exact == min(nrows, width)
                assert modular_rank(full, width) == exact


class TestMatrixConstruction:
    @pytest.mark.parametrize("rows", [[[ONE, 1]], [[ONE, Fraction(1, 2)]], [[ONE, ZERO], [ONE]]],
                             ids=["int entry", "Fraction entry", "ragged row"])
    def test_constructor_checks_its_rows(self, rows):
        with pytest.raises(ContractError):
            Matrix(rows)

    def test_results_are_well_formed_without_the_checks(self, rng):
        # operations build their results unchecked; each must still pass
        # the constructor's checks and have the shape of its rows
        a, b, c = rand_invertible(rng, 3), rand_matrix(rng, 3, 3), rand_matrix(rng, 2, 3)
        coords = tuple(rand_gauss(rng) for _ in range(10))
        for m in (a @ c.transpose(), a + b, a - b, -a, a.scale(I_UNIT), c.transpose(), c.conj(),
                  inverse(a), s2e_matrix(coords, 4)):
            assert type(m.data) is tuple and all(type(row) is tuple for row in m.data)
            assert m == Matrix(m.data)
            assert (m.nrows, m.ncols) == (len(m.data), len(m.data[0]))


def test_inverse_of_a_matrix_with_a_zero_column_is_refused():
    # [m | I] has full rank whether or not m does, so counting its pivots
    # accepts this m and returns a matrix that is no inverse
    with pytest.raises(ContractError, match="singular"):
        inverse(Matrix([[ONE, ZERO], [I_UNIT, ZERO]]))


def test_matrix_inverse(rng):
    for _ in range(10):
        n = rng.randint(1, 4)
        m = rand_invertible(rng, n)
        assert m @ inverse(m) == Matrix.identity(n)


def test_product_against_dense_reference():
    # the row-sparse product against the column-by-column one, on shapes up
    # to 5 x 5 with entries up to 300 bits and zero densities from none to
    # all, signed permutations (the split and definite C) included
    rng = random.Random(11)
    for k in range(60):
        n, m, p = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        zeros = k % 4 / 3

        def entry():
            return ZERO if rng.random() < zeros else _ref_operand(rng)[0]

        x = Matrix([[entry() for _ in range(m)] for _ in range(n)])
        y = Matrix([[entry() for _ in range(p)] for _ in range(m)])
        assert x @ y == dense_matmul(x, y)
        perm = rng.sample(range(m), m)
        c = Matrix([[rng.choice((ONE, MINUS_ONE)) if t == perm[s] else ZERO for t in range(m)]
                    for s in range(m)])
        assert x @ c == dense_matmul(x, c) and c @ y == dense_matmul(c, y)


def _ref_component(rng):
    """A Fraction of random height (0-300 bits), sometimes zero, given with
    a denominator of either sign."""
    if rng.random() < 0.15:
        return Fraction(0)
    bits = rng.randint(0, 300)
    num = rng.getrandbits(bits) * rng.choice((1, -1))
    den = (rng.getrandbits(bits) + 1) * rng.choice((1, -1))
    return Fraction(num, den)


def _ref_operand(rng):
    """The same random element as (GaussRat, RefGaussRat); about one in five
    is real and one in five pure imaginary."""
    re_, im_ = _ref_component(rng), _ref_component(rng)
    shape = rng.random()
    if shape < 0.2:
        im_ = Fraction(0)
    elif shape < 0.4:
        re_ = Fraction(0)
    if rng.random() < 0.3 and re_.denominator == 1 and im_.denominator == 1:
        re_, im_ = int(re_), int(im_)  # the constructor's int fast path
    return GaussRat(re_, im_), RefGaussRat(re_, im_)


def _assert_same(x, ref, text=False):
    """x and ref hold the same value; with text, also the same literal, and
    that literal parses back to x."""
    assert type(x) is GaussRat
    re_, im_ = x.re, x.im
    assert type(re_) is Fraction and type(im_) is Fraction
    assert re_ == ref.re and im_ == ref.im
    assert bool(x) is bool(ref) and x.is_real == ref.is_real
    if text:
        literal = str(x)
        assert literal == str(ref)
        assert GaussRat.parse(literal) == x
        assert hash(x) == hash(ref)


class TestAgainstReferenceScalar:
    """The integer-triple GaussRat against the Fraction-pair RefGaussRat."""

    PAIRS = 5000

    def test_random_pairs(self):
        rng = random.Random(7189)
        for _ in range(self.PAIRS):
            (x, rx), (y, ry) = _ref_operand(rng), _ref_operand(rng)
            _assert_same(x, rx, text=True)
            _assert_same(x + y, rx + ry)
            _assert_same(x - y, rx - ry)
            _assert_same(x * y, rx * ry, text=True)
            _assert_same(-x, -rx)
            _assert_same(x.conjugate(), rx.conjugate())
            assert (x == y) == (rx == ry)
            assert x.real_part() == GaussRat(rx.re) and x.imag_part() == GaussRat(rx.im)
            assert from_parts(x, y) == GaussRat(rx.re, ry.re)
            # equal values built along different paths share one triple and hash
            back = (x + y) - y
            assert back == x and hash(back) == hash(x)
            if ry:
                _assert_same(x / y, rx / ry, text=True)
                assert (x / y) * y == x
            else:
                with pytest.raises(ScalarError):
                    x / y
                with pytest.raises(ScalarError):
                    rx / ry
            if rx:
                _assert_same(x.inverse(), rx.inverse())
            else:
                with pytest.raises(ScalarError):
                    x.inverse()
                with pytest.raises(ScalarError):
                    rx.inverse()
            if rx.is_real:
                assert x.real_sign() == rx.real_sign()

    def test_equal_only_to_gauss_rat(self):
        assert GaussRat(1) != 1 and GaussRat(1) != Fraction(1)
        assert GaussRat(Fraction(2, 4), 3) == GaussRat(Fraction(1, 2), Fraction(6, 2))

    def test_rejects_non_rational_component(self):
        for bad in (0.5, "1", None):
            with pytest.raises(ScalarError):
                GaussRat(bad)
            with pytest.raises(ScalarError):
                RefGaussRat(bad)
