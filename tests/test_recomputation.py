"""Each analysis computes its table of double contractions S_{e_k,e_l} once,
checks invariance on a basis of h and the isotropy of the support once, and
computes no bracket of holonomy matrices.

Every S_{e_k,e_l} ends in one symtensor.endo_of_quadratic call, so counting
those calls counts the table entries computed: an accepted analysis on
dim E = d computes the d(d+1)/2 entries once, and a rejection stops at its
witness.  Only an entry outside the span of the entries before it is acted
on S, so an accepted quartic makes dim h sp_action calls, and holonomy(q)
reads the basis of h that certify_invariance eliminated on the way,
without a second elimination.  [h, h] = 0 follows from the isotropy of
the support, which certify_invariance checks with the one
hkalgebra.is_isotropic call of an analysis, so holonomy(q) and both algebra
builders make no matrix product at all.  The table itself takes two
contractions per entry and no matrix product or transpose, a span is
eliminated once, and restricting a quartic to a basis expands each symmetric
power of the basis once.  The real form reads the table once, into
its J table S_{je_k,e_l}: the real algebra takes its [m, m] brackets from
that, and the complex algebra reads each [m, m] bracket S_{e_k,e_l} once.
"""

import json
import random
from pathlib import Path

import pytest

import hksym.hkalgebra as hkalgebra
import hksym.realform as realform
import hksym.symplectic as symplectic
import hksym.symtensor as symtensor
from hksym.cli import main
from hksym.exactnum import Matrix
from hksym.generators import make_generator, random_quartic_full
from hksym.hkalgebra import (
    analyze_quartic,
    build_complex_algebra,
    certify_invariance,
    check_invariance,
    holonomy,
)
from hksym.realform import build_real_algebra, check_reality
from hksym.symplectic import SymplecticSpace, span, standard_split_j
from hksym.symtensor import quartic_from_dict

from oracles import random_vector

GOLDEN = Path(__file__).resolve().parent / "golden"


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls; returns the counter."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def endo_calls(monkeypatch):
    return count_calls(monkeypatch, symtensor, "endo_of_quadratic")


def table_size(s):
    d = s.space.dim
    return d * (d + 1) // 2


def test_complex_analysis_computes_the_table_once(endo_calls):
    s = make_generator("random-lagrangian:3", 7)
    report = analyze_quartic(s)
    assert report.invariance_ok and report.jacobi_ok
    assert len(endo_calls) == table_size(s) == 21


def test_real_analysis_computes_the_table_once(endo_calls):
    s = make_generator("real-random:1", 3)
    report = analyze_quartic(s, real=True)
    assert report.signature == (4, 4)
    assert len(endo_calls) == table_size(s) == 10


def golden_quartic(stem):
    return quartic_from_dict(json.loads((GOLDEN / ("%s.json" % stem)).read_text(encoding="utf-8")))


@pytest.mark.parametrize("s,dim_h", [
    (make_generator("random-lagrangian:3", 7), 6),
    (golden_quartic("scrambled_lagrangian_2"), 3),
], ids=["random-lagrangian:3", "scrambled_lagrangian_2"])
def test_invariance_acts_once_per_basis_element_of_h(monkeypatch, endo_calls, s, dim_h):
    actions = count_calls(monkeypatch, hkalgebra, "sp_action")
    q = certify_invariance(s)
    assert len(actions) == holonomy(q).dimension == dim_h
    assert len(endo_calls) == len(q.table) == table_size(s)


def test_late_witness_acts_on_the_independent_entries_only(monkeypatch):
    # the nonzero entries up to the witness (2, 3) are (0, 3), (2, 2) and
    # (2, 3); (2, 2) lies in the span of (0, 3) and is not acted on S
    actions = count_calls(monkeypatch, hkalgebra, "sp_action")
    assert check_invariance(golden_quartic("late_witness")) == (False, (2, 3))
    assert len(actions) == 2


def test_holonomy_eliminates_nothing(monkeypatch):
    qs = [certify_invariance(s) for s in (make_generator("random-lagrangian:3", 7),
                                          golden_quartic("scrambled_lagrangian_2"))]
    eliminations = count_calls(monkeypatch, hkalgebra, "echelon_basis")
    assert [holonomy(q).dimension for q in qs] == [6, 3]
    assert len(eliminations) == 0


def test_rejection_stops_at_the_first_witness(endo_calls):
    s = random_quartic_full(SymplecticSpace(4), random.Random(5))
    assert check_invariance(s) == (False, (0, 0))
    assert len(endo_calls) == 1


def test_reality_of_a_non_invariant_quartic_computes_the_table_once(endo_calls, capsys):
    assert main(["verify", str(GOLDEN / "tau_fixed_full_2.json"), "--reality"]) == 0
    assert capsys.readouterr().out == "reality: pass\n"
    assert len(endo_calls) == 10


def test_real_analysis_reads_the_j_table_once(monkeypatch):
    # dim E = 8 and the split j has one nonzero entry per je_k: the complex
    # [m, m] brackets read d^2 = 64 entries and J reads 64 more; the real
    # algebra reads none
    s = make_generator("real-random:2", 3)
    reads = {name: count_calls(monkeypatch, module, "table_entry")
             for name, module in (("hkalgebra", hkalgebra), ("realform", realform))}
    report = analyze_quartic(s, real=True)
    assert report.signature == (8, 8)
    assert {name: len(calls) for name, calls in reads.items()} == {"hkalgebra": 64, "realform": 64}
    q = certify_invariance(s)
    rep = check_reality(s, standard_split_j(s.space), q.table)
    for calls in reads.values():
        calls.clear()
    build_real_algebra(q, rep)
    assert {name: len(calls) for name, calls in reads.items()} == {"hkalgebra": 0, "realform": 0}


@pytest.mark.parametrize("kind", ["real-random:1", "real-random:2"])
def test_holonomy_and_algebras_multiply_no_matrices(monkeypatch, kind):
    s = make_generator(kind, 3)
    q = certify_invariance(s)
    rep = check_reality(s, standard_split_j(s.space), q.table)
    products = count_calls(monkeypatch, Matrix, "__matmul__")
    hol = holonomy(q)
    build_complex_algebra(q, hol)
    build_real_algebra(q, rep)
    assert hol.derived_series_lengths == (hol.dimension, 0)
    assert len(products) == 0


@pytest.mark.parametrize("kind,seed,real", [
    ("random-lagrangian:3", 7, False),
    ("real-random:1", 3, True),
], ids=["random-lagrangian:3", "real-random:1"])
def test_analysis_checks_support_isotropy_once(monkeypatch, kind, seed, real):
    checks = count_calls(monkeypatch, hkalgebra, "is_isotropic")
    report = analyze_quartic(make_generator(kind, seed), real=real)
    assert report.support_isotropic
    assert len(checks) == 1


def test_certify_invariance_contracts_and_multiplies_no_matrices(monkeypatch):
    s = make_generator("random-lagrangian:3", 7)
    products = count_calls(monkeypatch, Matrix, "__matmul__")
    transposes = count_calls(monkeypatch, Matrix, "transpose")
    contractions = count_calls(monkeypatch, symtensor, "contract")
    certify_invariance(s)
    d = s.space.dim
    assert (len(products), len(transposes), len(contractions)) == (0, 0, d * (d + 1)) == (0, 0, 42)


def test_span_eliminates_once(monkeypatch, rng):
    sp = SymplecticSpace(3)
    vectors = [random_vector(sp, rng) for _ in range(4)]
    eliminations = count_calls(monkeypatch, symplectic, "echelon_basis")
    sub = span(sp, vectors + [vectors[0]])
    assert sub.dim == 4
    assert len(eliminations) == 1


def test_restriction_expands_each_power_once(monkeypatch, tmp_path, capsys):
    path = str(tmp_path / "petrov_i.json")
    assert main(["generate", "petrov:I", "-o", path]) == 0
    expansions = count_calls(monkeypatch, symtensor, "_expand")
    assert main(["classify8", path]) == 0
    assert capsys.readouterr().out.startswith("type: I\n")
    # one expansion per beta of degree 4 in two variables
    assert len(expansions) == 5
