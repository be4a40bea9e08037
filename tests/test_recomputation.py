"""Each analysis computes its table of double contractions S_{e_k,e_l} once,
certifies invariance by its support once, and computes no bracket of
holonomy matrices.

Every table is read off symtensor.double_contractions, which hkalgebra and
cli bind by name, so counting the entries that generator yields there counts
the table entries computed: an accepted analysis on dim E = d computes the
d(d+1)/2 entries once, and a rejection stops at its witness.  The table is
filed row by row (symtensor._file_row), so a rejection files only the rows
up to its witness, and a whole table files each (monomial, index pair)
once.  The support columns and each entry are read straight off S's
coefficients, with no
contraction, and the columns are reduced by an echelon of the support kept
in place: certify_invariance calls no echelon_basis and builds no
SpanSolver.  Each column that raises the support's rank is paired by omega
with the ones before it, once.  An isotropic support with S in
S^4(support), certified by the one
tensor_in_subspace_power call of an analysis, implies invariance, so an
accepted quartic makes no sp_action call and no modular test; a rejection
tests on S only the entries that raise the rank of h, up to its witness.
Each of those is first evaluated modulo a prime at one point
(action_residue, from one gradient_residues of S per rejection); a nonzero
residue certifies the witness, so sp_action runs only on an entry whose
residue is zero: one that kills S, or, rarely, one whose action vanishes
at that point modulo the prime.  holonomy(q) reads the
basis of h that certify_invariance eliminated on the way, without a second
elimination.  [h, h] = 0 follows from the isotropy of the support, so
holonomy(q) and both algebra builders make no matrix product at all.  The
table is held in S^2E coordinates, and an accepted quartic writes out no
matrix: when the rank of the table modulo a prime certifies h = S^2(support),
h is eliminated from the products of the support's basis and no table entry
is reduced; otherwise (petrov:I) the table entries themselves are.
The real form acts on sp(E) = S^2E by tau on S^2E coordinates, the map
s2e_tau(j) that check_reality builds once per analysis from C's columns, so
it multiplies no matrices either and pushes no quadratic forward: the
commutator condition is tau(J[k][l]) = -J[l][k] for all k, l (both [m, m] brackets of a pair (k, l), J[l][k] - J[k][l] and
-i (J[l][k] + J[k][l]), are tau-fixed exactly when tau(a) - tau(b) = a - b
and tau(a) + tau(b) = -(a + b) for a = J[l][k], b = J[k][l], as tau is
antilinear), and the quartic tau runs once, on S, for tau(S) = S, the one
push-forward of an analysis --real.  The real
holonomy is h^tau, read off that same basis by one elimination of 2 dim h
rows, and only when the real algebra is built: a reality verdict alone
eliminates nothing.  The table takes no matrix product
or transpose, a span is eliminated once, and restricting a quartic to a
Darboux frame (symtensor.in_frame) pushes it forward once, along the
inverse of the frame.  The real form reads
the table once, into its J table S_{je_k,e_l}, for the reality verdict; the
complex algebra reads each table entry S_{e_k,e_l} = S_{e_l,e_k} once, for
both of its [m, m] brackets, and takes [h, m]
from the matrices holonomy(q) wrote out.  The real algebra reads no table
entry: it evaluates the complex model's bracket on a real basis and inherits
its Jacobi certificate, so an analysis checks Jacobi once, and that check
evaluates only the triples whose three brackets do not all vanish.
classify8 certifies S in S^4 of its support once, in certify_invariance,
and dim8 reads the binary quartic off S's coefficients at the pivots of the
support's RREF basis: neither an analysis nor classify8 builds a Darboux
frame, complex classify8 pushes no tensor forward, and classify8 --real
pushes S forward once, for tau(S) = S, and reads the complex class off the
j-adapted quartic of the real class.  An analysis counts the flat factor
off the support.  compute_aut builds and inverts the Darboux frame of
E_+ once, not once per elementary matrix of gl(E_+).  The command line
builds its argument parser once per process, and the default j is written
down, with no span call.
"""

import argparse
import json
import random
from math import comb
from pathlib import Path

import pytest

import hksym.cli as cli
import hksym.dim8 as dim8
import hksym.exactnum as exactnum
import hksym.hkalgebra as hkalgebra
import hksym.realform as realform
import hksym.symplectic as symplectic
import hksym.symtensor as symtensor
from hksym.cli import main
from hksym.exactnum import Matrix
from hksym.generators import make_generator, random_quartic_full
from hksym.hkalgebra import (
    LieAlgebraModel,
    analyze_quartic,
    build_complex_algebra,
    certify_invariance,
    check_invariance,
    holonomy,
    verify_jacobi,
)
from hksym.realform import build_real_algebra, check_reality, real_holonomy
from hksym.symplectic import SymplecticSpace, span, standard_split_j
from hksym.symtensor import quartic_from_dict

from oracles import random_vector, sp_action_reference

GOLDEN = Path(__file__).resolve().parent / "golden"


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls; returns the counter."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def table_entries(monkeypatch):
    """The pairs of the table entries yielded by double_contractions to
    hkalgebra and cli, in order."""
    pairs = []
    original = symtensor.double_contractions

    def counted(s):
        for pair, endo in original(s):
            pairs.append(pair)
            yield pair, endo

    for module in (hkalgebra, cli):
        monkeypatch.setattr(module, "double_contractions", counted)
    return pairs


def table_size(s):
    d = s.space.dim
    return d * (d + 1) // 2


def test_complex_analysis_computes_the_table_once(table_entries):
    s = make_generator("random-lagrangian:3", 7)
    report = analyze_quartic(s)
    assert report.invariance_ok and report.jacobi_ok
    assert len(table_entries) == table_size(s) == 21


def test_real_analysis_computes_the_table_once(table_entries):
    s = make_generator("real-random:1", 3)
    report = analyze_quartic(s, j=standard_split_j(s.space))
    assert report.signature == (4, 4)
    assert len(table_entries) == table_size(s) == 10


def golden_quartic(stem):
    return quartic_from_dict(json.loads((GOLDEN / ("%s.json" % stem)).read_text(encoding="utf-8")))


@pytest.mark.parametrize("s,dim_h", [
    (make_generator("random-lagrangian:3", 7), 6),
    (golden_quartic("scrambled_lagrangian_2"), 3),
], ids=["random-lagrangian:3", "scrambled_lagrangian_2"])
def test_accepted_invariance_acts_on_nothing(monkeypatch, table_entries, s, dim_h):
    actions = count_calls(monkeypatch, hkalgebra, "sp_action")
    residues = count_calls(monkeypatch, hkalgebra, "action_residue")
    gradients = count_calls(monkeypatch, hkalgebra, "gradient_residues")
    q = certify_invariance(s)
    assert holonomy(q).dimension == dim_h
    assert (len(actions), len(residues), len(gradients)) == (0, 0, 0)
    assert len(table_entries) == len(q.table) == table_size(s)


def test_late_witness_acts_on_the_independent_entries_only(monkeypatch):
    # the nonzero entries up to the witness (2, 3) are (0, 3), (2, 2) and
    # (2, 3); (2, 2) lies in the span of (0, 3) and is not tested on S.
    # (0, 3) kills S, so its residue is zero and only the exact action
    # passes it; the witness (2, 3) is certified by its nonzero residue
    s = golden_quartic("late_witness")
    residues = count_calls(monkeypatch, hkalgebra, "action_residue")
    actions = count_calls(monkeypatch, hkalgebra, "sp_action")
    assert check_invariance(s) == (False, (2, 3))
    entry = {pair: symtensor.s2e_matrix(v, 4) for pair, v in symtensor.double_contractions(s)}
    assert [a for a, _ in residues] == [entry[(0, 3)], entry[(2, 3)]]
    assert [a for a, _ in actions] == [entry[(0, 3)]]


def test_dense_rejection_acts_once(monkeypatch, table_entries):
    # a full quartic fails at its first entry (0, 0): two support columns
    # (the second pairs with the first by omega), one table entry, one
    # modular test of it on S, whose nonzero residue certifies the witness
    # with no exact action; the reference action of that entry is nonzero
    s = golden_quartic("full_4")
    columns = []
    original = symtensor.support_columns

    def counted(t):
        for col in original(t):
            columns.append(col)
            yield col

    monkeypatch.setattr(hkalgebra, "support_columns", counted)
    residues = count_calls(monkeypatch, hkalgebra, "action_residue")
    actions = count_calls(monkeypatch, hkalgebra, "sp_action")
    assert check_invariance(s) == (False, (0, 0))
    assert len(columns) == 2
    assert table_entries == [(0, 0)]
    assert len(actions) == 0
    (endo, gradient), = residues
    assert gradient == symtensor.gradient_residues(s)
    acted = symtensor.sp_action(endo, s)
    assert not acted.is_zero() and acted == sp_action_reference(endo, s)


@pytest.mark.parametrize("factor", [exactnum.GaussRat(exactnum.MODULUS),
                                    exactnum.GaussRat(exactnum.IOTA, -1)],
                         ids=["P", "iota-minus-i"])
def test_zero_residues_fall_back_to_the_exact_action(monkeypatch, table_entries, factor):
    # full_4 scaled by P, or by IOTA - i, which P does not divide but
    # a + bi -> a + b IOTA sends to 0: every scaled numerator is a multiple
    # of the factor, so every residue is zero, and the witness (0, 0) is
    # reached through one exact action
    s = golden_quartic("full_4").scale(factor)
    residues = count_calls(monkeypatch, hkalgebra, "action_residue")
    actions = count_calls(monkeypatch, hkalgebra, "sp_action")
    assert check_invariance(s) == (False, (0, 0))
    assert table_entries == [(0, 0)]
    assert [symtensor.action_residue(*args) for args in residues] == [0]
    assert len(actions) == 1


def test_holonomy_eliminates_nothing(monkeypatch):
    qs = [certify_invariance(s) for s in (make_generator("random-lagrangian:3", 7),
                                          golden_quartic("scrambled_lagrangian_2"))]
    eliminations = count_calls(monkeypatch, hkalgebra, "echelon_basis")
    assert [holonomy(q).dimension for q in qs] == [6, 3]
    assert len(eliminations) == 0


@pytest.fixture
def rows_filed(monkeypatch):
    """(row k, monomials read, (monomial, index pair) filings) for each row
    double_contractions files, in order."""
    rows = []
    original = symtensor._file_row

    def counted(k, terms, dual, index):
        filed = original(k, terms, dual, index)
        rows.append((k, len(terms), sum(map(len, filed))))
        return filed

    monkeypatch.setattr(symtensor, "_file_row", counted)
    return rows


def index_pairs(alpha):
    """The distinct pairs {u, v} of indices of the monomial alpha."""
    idx = [k for k, e in enumerate(alpha) for _ in range(e)]
    return {(idx[i], idx[j]) for i in range(4) for j in range(i + 1, 4)}


def test_dense_rejection_files_one_row(rows_filed):
    # the witness (0, 0) of full_4 is in row 0, which reads only the
    # monomials that hold q1, the omega-dual of p1 (119 of 329), and files
    # each under its index pairs that hold q1
    s = golden_quartic("full_4")
    q1 = s.space.n
    assert check_invariance(s) == (False, (0, 0))
    holding = [alpha for alpha in s.coeffs if alpha[q1]]
    assert (len(s.coeffs), len(holding)) == (329, 119)
    filings = sum(q1 in pair for alpha in holding for pair in index_pairs(alpha))
    assert rows_filed == [(0, 119, filings)]


def test_late_rejection_files_the_rows_up_to_its_witness(rows_filed):
    s = golden_quartic("late_witness")
    assert check_invariance(s) == (False, (2, 3))
    assert [k for k, _, _ in rows_filed] == [0, 1, 2]


def test_accepted_table_files_each_monomial_pair_once(rows_filed):
    s = make_generator("random-lagrangian:3", 7)
    q = certify_invariance(s)
    assert len(q.table) == table_size(s)
    assert [k for k, _, _ in rows_filed] == list(range(s.space.dim))
    assert sum(filings for _, _, filings in rows_filed) == sum(map(len, map(index_pairs, s.coeffs)))


def test_rejection_stops_at_the_first_witness(table_entries):
    s = random_quartic_full(SymplecticSpace(4), random.Random(5))
    assert check_invariance(s) == (False, (0, 0))
    assert len(table_entries) == 1


def test_reality_of_a_non_invariant_quartic_computes_the_table_once(table_entries, capsys):
    assert main(["verify", str(GOLDEN / "tau_fixed_full_2.json"), "--reality"]) == 0
    assert capsys.readouterr().out == "reality: pass\n"
    assert len(table_entries) == 10


def test_real_analysis_reads_the_j_table_once(monkeypatch):
    # dim E = 8 and the split j has one nonzero entry per je_k: J reads
    # d^2 = 64 table entries; the complex [m, m] brackets read each of the
    # d(d + 1)/2 = 36 entries once, through the solver of h, for both
    # orientations; the real algebra reads none
    s = make_generator("real-random:2", 3)
    assert not hasattr(hkalgebra, "table_entry")
    reads = count_calls(monkeypatch, realform, "table_entry")
    report = analyze_quartic(s, j=standard_split_j(s.space))
    assert report.signature == (8, 8)
    assert len(reads) == 64
    q = certify_invariance(s)
    rep = check_reality(s, standard_split_j(s.space), q.table)
    h_real = real_holonomy(q, rep)
    solves = count_calls(monkeypatch, exactnum.SpanSolver, "coords")
    model = build_complex_algebra(q, holonomy(q))
    assert [v for _, v in solves] == list(q.table.values()) and len(solves) == 36
    reads.clear()
    build_real_algebra(q, model, rep, h_real)
    assert len(reads) == 0


@pytest.mark.parametrize("stem", ["real_1", "real_2", "real_2_off_axes"])
def test_real_analysis_calls_tau_once_on_s(monkeypatch, capsys, stem):
    # the commutator condition and h^tau read one tau map on S^2E
    # coordinates, whose columns are read off C's columns with no
    # push-forward; the tau of a tensor runs only for tau(S) = S, and its
    # push-forward along C is the one transform of the analysis
    taus = []
    honest = symtensor.tau

    def counted(t, j):
        taus.append(t)
        return honest(t, j)

    for module in (symtensor, realform, dim8):
        monkeypatch.setattr(module, "tau", counted)
    maps = count_calls(monkeypatch, realform, "s2e_tau")
    pushes = count_calls(monkeypatch, symtensor, "transform")
    j_path = GOLDEN / ("%s.j.json" % stem)
    j_args = ["--j", str(j_path)] if j_path.exists() else []
    assert main(["analyze", str(GOLDEN / ("%s.json" % stem)), "--real"] + j_args) == 0
    assert "signature" in capsys.readouterr().out
    assert taus == [golden_quartic(stem)]
    assert len(maps) == 1
    assert len(pushes) == 1


def test_analysis_writes_out_each_holonomy_matrix_once(monkeypatch):
    # dim h = 6: holonomy(q) writes h's basis out as matrices, and the
    # complex algebra reads [h, m] off those same matrices
    s = make_generator("random-lagrangian:3", 7)
    matrices = count_calls(monkeypatch, hkalgebra, "s2e_matrix")
    report = analyze_quartic(s)
    assert report.holonomy.dimension == 6
    assert len(matrices) == 6


@pytest.mark.parametrize("kind", ["real-random:1", "real-random:2"])
def test_real_analysis_checks_jacobi_once(monkeypatch, kind):
    # the real model is the complex bracket in a real basis: it inherits the
    # complex model's Jacobi certificate and is not checked again
    s = make_generator(kind, 3)
    checks = count_calls(monkeypatch, hkalgebra, "verify_jacobi")
    models = count_calls(monkeypatch, hkalgebra, "verify_model")
    report = analyze_quartic(s, j=standard_split_j(s.space))
    assert report.jacobi_ok and report.signature == (2 * s.space.n,) * 2
    assert len(checks) == len(models) == 1


def test_jacobi_evaluates_only_the_triples_that_can_fail(monkeypatch):
    # each evaluated triple makes 3 bracket_vectors calls; every triple
    # a < b < c would make 3 C(dim g, 3) = 2448 of them on this model
    s = make_generator("random-lagrangian:3", 7)
    q = certify_invariance(s)
    model = build_complex_algebra(q, holonomy(q))
    assert model.dim == 18
    calls = count_calls(monkeypatch, LieAlgebraModel, "bracket_vectors")
    assert verify_jacobi(model) == (True, None)
    assert len(calls) <= 1008 < 3 * comb(model.dim, 3)


@pytest.mark.parametrize("kind", ["real-random:1", "real-random:2"])
def test_holonomy_and_algebras_multiply_no_matrices(monkeypatch, kind):
    s = make_generator(kind, 3)
    q = certify_invariance(s)
    rep = check_reality(s, standard_split_j(s.space), q.table)
    h_real = real_holonomy(q, rep)
    products = count_calls(monkeypatch, Matrix, "__matmul__")
    hol = holonomy(q)
    model = build_complex_algebra(q, hol)
    build_real_algebra(q, model, rep, h_real)
    assert hol.derived_series_lengths == (hol.dimension, 0)
    assert len(products) == 0


@pytest.mark.parametrize("stem", ["real_1", "real_2", "non_coordinate_j"])
def test_real_form_multiplies_no_matrices(monkeypatch, stem):
    # j acts on sp(E) = S^2E as tau on S^2E coordinates: the commutator
    # condition, h^tau and the real algebra take no matrix product
    s = golden_quartic(stem)
    j_path = GOLDEN / ("%s.j.json" % stem)
    j = (symplectic.quaternionic_from_json(json.loads(j_path.read_text(encoding="utf-8")), s.space)
         if j_path.exists() else standard_split_j(s.space))
    q = certify_invariance(s)
    model = build_complex_algebra(q, holonomy(q))
    products = count_calls(monkeypatch, Matrix, "__matmul__")
    rep = check_reality(s, j, q.table)
    build_real_algebra(q, model, rep, real_holonomy(q, rep))
    assert rep.commutator_condition_ok
    assert len(products) == 0


@pytest.mark.parametrize("n", [3, 8])
def test_accepting_writes_out_no_matrix_and_reduces_no_table_entry(monkeypatch, n):
    # the rank modulo a prime certifies h = S^2(support): h is eliminated
    # from the r(r + 1)/2 products of the support's basis, and no table entry
    # becomes a matrix or goes through extend_rref
    s = make_generator("random-lagrangian:%d" % n, 7)
    matrices = count_calls(monkeypatch, symtensor, "_trusted_matrix")
    reductions = count_calls(monkeypatch, hkalgebra, "extend_rref")
    q = certify_invariance(s)
    r = q.support.dim
    entries = set(q.table.values())
    in_s2e = [v for _, _, v in reductions if len(v) == len(q.h_rows[0])]
    assert len(matrices) == 0
    assert len(q.h_rows) == len(in_s2e) == r * (r + 1) // 2
    assert not any(v in entries for v in in_s2e)
    assert len(q.table) == table_size(s)


def test_petrov_i_takes_the_exact_echelon(monkeypatch):
    # dim h = 2 < dim S^2(support) = 3: the rank modulo the prime stops
    # short of the 3 products, and h is eliminated from every table entry
    s = make_generator("petrov:I", 0)
    ranks = count_calls(monkeypatch, hkalgebra, "modular_rank")
    reductions = count_calls(monkeypatch, hkalgebra, "extend_rref")
    q = certify_invariance(s)
    assert [target for _, target in ranks] == [3]
    in_s2e = [v for _, _, v in reductions if len(v) == 10]
    assert len(in_s2e) == 3 + len(q.table) and in_s2e[3:] == list(q.table.values())
    assert (q.support.dim, len(q.h_rows)) == (2, 2)


@pytest.mark.parametrize("stem", ["real_2", "tau_fixed_full_2"])
def test_reality_verdict_eliminates_nothing(monkeypatch, capsys, stem):
    # the real holonomy is read only for the real algebra; tau_fixed_full_2
    # is not invariant, so its verdict comes from the plain table
    eliminations = count_calls(monkeypatch, realform, "echelon_basis")
    assert main(["verify", str(GOLDEN / ("%s.json" % stem)), "--reality"]) == 0
    assert capsys.readouterr().out == "reality: pass\n"
    assert len(eliminations) == 0


@pytest.mark.parametrize("stem,dim_h", [("real_1", 3), ("real_2", 10)])
def test_real_holonomy_is_one_elimination_of_2_dim_h_rows(monkeypatch, capsys, stem, dim_h):
    eliminations = count_calls(monkeypatch, realform, "echelon_basis")
    assert main(["analyze", str(GOLDEN / ("%s.json" % stem)), "--real", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holonomy"]["dimension"] == report["reality"]["real_holonomy_dim"] == dim_h
    assert [len(rows) for (rows,) in eliminations] == [2 * dim_h]


@pytest.mark.parametrize("kind,seed,real", [
    ("random-lagrangian:3", 7, False),
    ("real-random:1", 3, True),
], ids=["random-lagrangian:3", "real-random:1"])
def test_analysis_checks_support_isotropy_once(monkeypatch, kind, seed, real):
    # each column that raises the support's rank is paired with the ones
    # kept before it, so a support of dimension r costs r(r - 1)/2 pairs,
    # and no stage after certify_invariance checks the support again
    s = make_generator(kind, seed)
    pairs = count_calls(monkeypatch, hkalgebra, "omega_pair")
    q = certify_invariance(s)
    r = q.support.dim
    assert r == s.space.n
    assert len(pairs) == r * (r - 1) // 2
    assert len({(x, y) for _, x, y in pairs}) == len(pairs)
    assert not hasattr(hkalgebra, "is_isotropic")
    memberships = count_calls(monkeypatch, hkalgebra, "tensor_in_subspace_power")
    report = analyze_quartic(s, j=standard_split_j(s.space) if real else None)
    assert report.support_isotropic and report.support_dim == r
    assert len(memberships) == 1


def test_certify_invariance_contracts_only_for_membership(monkeypatch):
    # the table takes no contraction and no matrix product; the one
    # membership certificate contracts S once per basis vector of the
    # omega-perp of the support
    s = make_generator("random-lagrangian:3", 7)
    products = count_calls(monkeypatch, Matrix, "__matmul__")
    transposes = count_calls(monkeypatch, Matrix, "transpose")
    contractions = count_calls(monkeypatch, symtensor, "contract")
    q = certify_invariance(s)
    perp = symplectic.omega_perp(q.support).echelon()
    assert (len(products), len(transposes)) == (0, 0)
    assert [(t, tuple(v)) for t, v in contractions] == [(s, v) for v in perp]
    assert len(perp) == s.space.dim - q.support.dim == 3


@pytest.mark.parametrize("s", [
    make_generator("random-lagrangian:3", 7),
    golden_quartic("scrambled_lagrangian_2"),
    golden_quartic("late_witness"),
], ids=["random-lagrangian:3", "scrambled_lagrangian_2", "late_witness"])
def test_certify_invariance_extends_one_echelon_in_place(monkeypatch, s):
    # h and the support are eliminated in place as the entries come: no
    # re-elimination and no SpanSolver; the one elimination left is the
    # omega-perp of the support, for the membership certificate of an
    # accepted quartic
    eliminations = count_calls(monkeypatch, hkalgebra, "echelon_basis")
    solvers = count_calls(monkeypatch, exactnum.SpanSolver, "__init__")
    spans = count_calls(monkeypatch, symplectic, "echelon_basis")
    perps = count_calls(monkeypatch, symtensor, "omega_perp")
    invariant, _ = check_invariance(s)
    assert (len(eliminations), len(solvers)) == (0, 0)
    assert len(spans) == len(perps) == int(invariant)


def test_span_eliminates_once(monkeypatch, rng):
    sp = SymplecticSpace(3)
    vectors = [random_vector(sp, rng) for _ in range(4)]
    eliminations = count_calls(monkeypatch, symplectic, "echelon_basis")
    sub = span(sp, vectors + [vectors[0]])
    assert sub.dim == 4
    assert len(eliminations) == 1


def frames_built(monkeypatch):
    """The lagrangian_complement calls of hkalgebra, the one module that
    binds it; dim8 and cli bind none."""
    assert not any(hasattr(module, "lagrangian_complement") for module in (dim8, cli))
    return count_calls(monkeypatch, hkalgebra, "lagrangian_complement")


@pytest.mark.parametrize("flags", [(), ("--real",)], ids=["complex", "real"])
def test_classify8_certifies_membership_once(monkeypatch, tmp_path, capsys, flags):
    # certify_invariance certifies S in S^4(support) once; dim8 makes no
    # tensor_in_subspace_power call of its own and reads the binary quartic
    # off S's coefficients at the support's pivots, so no run builds a
    # frame, and none extends the support to a Lagrangian
    path = str(tmp_path / "petrov_i.json")
    assert main(["generate", "petrov:I", "-o", path]) == 0
    assert not hasattr(dim8, "tensor_in_subspace_power")
    memberships = count_calls(monkeypatch, hkalgebra, "tensor_in_subspace_power")
    perps = count_calls(monkeypatch, symtensor, "omega_perp")
    frames = frames_built(monkeypatch)
    extensions = count_calls(monkeypatch, hkalgebra, "extend_to_lagrangian")
    assert main(["classify8", path, *flags]) == 0
    assert capsys.readouterr().out.startswith("type: I\n")
    assert (len(memberships), len(perps)) == (1, 1)
    assert (len(frames), len(extensions)) == (0, 0)


@pytest.mark.parametrize("stem,flags,pushes", [
    ("petrov_I", (), 0),
    ("scrambled_lagrangian_2", (), 0),
    ("real_1", ("--real",), 1),
    ("non_coordinate_j", ("--j", str(GOLDEN / "non_coordinate_j.j.json")), 1),
], ids=["petrov_I", "scrambled", "real", "non_coordinate_j"])
def test_classify8_pushes_forward_only_for_tau(monkeypatch, capsys, stem, flags, pushes):
    # complex classify8 pushes no tensor forward; the real one pushes S
    # forward once, along j's matrix, for the test tau(S) = S, and writes
    # S in no frame
    assert not any(hasattr(dim8, name) for name in ("transform", "in_frame"))
    restrictions = [count_calls(monkeypatch, module, "in_frame") for module in (symtensor, hkalgebra)]
    expansions = count_calls(monkeypatch, symtensor, "transform")
    assert main(["classify8", str(GOLDEN / ("%s.json" % stem)), *flags]) == 0
    capsys.readouterr()
    assert (sum(map(len, restrictions)), len(expansions)) == (0, pushes)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_compute_aut_builds_the_frame_once(monkeypatch, n):
    sp = SymplecticSpace(n)
    e_plus = span(sp, [sp.basis_vector(k) for k in range(n)])
    s = make_generator("random-lagrangian:%d" % n, 7)
    frames = count_calls(monkeypatch, hkalgebra, "lagrangian_complement")
    inverses = count_calls(monkeypatch, symtensor, "inverse")
    hkalgebra.compute_aut(s, e_plus)
    assert not hasattr(hkalgebra, "inverse")
    assert (len(frames), len(inverses)) == (1, 1)


@pytest.mark.parametrize("stem", ["lagrangian_3", "petrov_I", "scrambled_p4", "scrambled_lagrangian_2"])
def test_analysis_builds_no_frame(monkeypatch, stem):
    # flat_complex_dim = 4(n - dim support) needs no split, and at n = 2 the
    # classification reads S's coefficients at the support's pivots
    s = quartic_from_dict(json.loads((GOLDEN / ("%s.json" % stem)).read_text(encoding="utf-8")))
    frames = frames_built(monkeypatch)
    report = analyze_quartic(s)
    assert report.flat_complex_dim == 4 * (s.space.n - report.support_dim)
    assert len(frames) == 0


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # the argument tree is built once per process; a later main call only
    # parses
    path = str(GOLDEN / "real_1.json")
    assert main(["verify", path, "--invariance"]) == 0
    parsers = count_calls(monkeypatch, argparse.ArgumentParser, "__init__")
    assert main(["classify8", path, "--real", "--json"]) == 0
    assert main(["generate", "dim4"]) == 0
    assert main(["verify", path]) == 1
    capsys.readouterr()
    assert len(parsers) == 0


@pytest.mark.parametrize("argv", [["analyze", "--real"], ["verify", "--reality"],
                                  ["classify8", "--real"]])
def test_default_j_is_built_once_per_process(monkeypatch, capsys, argv):
    # the default j of an n is built by the first real-mode call and shared
    path = str(GOLDEN / "real_1.json")
    assert main([argv[0], path, *argv[1:]]) == 0
    structures = count_calls(monkeypatch, symplectic.QuaternionicStructure, "__init__")
    assert main([argv[0], path, *argv[1:]]) == 0
    assert main(["analyze", path, "--real", "--json"]) == 0
    capsys.readouterr()
    assert len(structures) == 0


def span_calls(monkeypatch, capsys, argv):
    """symplectic.span calls during one main call on golden real_1."""
    calls = count_calls(monkeypatch, symplectic, "span")
    assert main([argv[0], str(GOLDEN / "real_1.json"), *argv[1:]]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("real,complex_", [
    (["analyze", "--real"], ["analyze"]),
    (["classify8", "--real"], ["classify8"]),
    (["verify", "--reality"], None),
])
def test_default_j_is_written_down(monkeypatch, capsys, real, complex_):
    # the default j is a signed permutation, built without spanning its
    # split: the real mode adds no span call to the complex run (omega_perp's
    # span in find_lagrangian), and verify makes none
    expected = 0 if complex_ is None else span_calls(monkeypatch, capsys, complex_)
    assert span_calls(monkeypatch, capsys, real) == expected
