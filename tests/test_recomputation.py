"""Each analysis computes its table of double contractions S_{e_k,e_l} and
the holonomy commutators [A_i, A_j] once.

Every S_{e_k,e_l} ends in one symtensor.endo_of_quadratic call, so counting
those calls counts the table entries computed: an accepted analysis on
dim E = d computes the d(d+1)/2 entries once, and a rejection stops at its
witness.  Likewise every bracket of holonomy matrices is one
hkalgebra.commutator call: the derived series and the algebra builder share
the d(d-1)/2 commutators of a holonomy basis of dimension d.
"""

import random
from pathlib import Path

import pytest

import hksym.hkalgebra as hkalgebra
import hksym.symtensor as symtensor
from hksym.cli import main
from hksym.generators import make_generator, random_quartic_full
from hksym.hkalgebra import analyze_quartic, check_invariance
from hksym.symplectic import SymplecticSpace

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def endo_calls(monkeypatch):
    calls = []
    original = symtensor.endo_of_quadratic

    def counted(b):
        calls.append(b)
        return original(b)

    monkeypatch.setattr(symtensor, "endo_of_quadratic", counted)
    return calls


@pytest.fixture
def commutator_calls(monkeypatch):
    calls = []
    original = hkalgebra.commutator

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(hkalgebra, "commutator", counted)
    return calls


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


def test_rejection_stops_at_the_first_witness(endo_calls):
    s = random_quartic_full(SymplecticSpace(4), random.Random(5))
    assert check_invariance(s) == (False, (0, 0))
    assert len(endo_calls) == 1


def test_reality_of_a_non_invariant_quartic_computes_the_table_once(endo_calls, capsys):
    assert main(["verify", str(GOLDEN / "tau_fixed_full_2.json"), "--reality"]) == 0
    assert capsys.readouterr().out == "reality: pass\n"
    assert len(endo_calls) == 10


def pairs(d):
    return d * (d - 1) // 2


def test_complex_analysis_computes_each_commutator_once(commutator_calls):
    report = analyze_quartic(make_generator("random-lagrangian:3", 7))
    assert report.holonomy.derived_series_lengths == (6, 0)
    assert len(commutator_calls) == pairs(6) == 15


def test_real_analysis_computes_each_commutator_once(commutator_calls):
    report = analyze_quartic(make_generator("real-random:1", 3), real=True)
    # the complex holonomy, then the real one for the real algebra
    d, r = report.holonomy.dimension, report.reality["real_holonomy_dim"]
    assert report.holonomy.derived_series_lengths == (d, 0)
    assert len(commutator_calls) == pairs(d) + pairs(r)
