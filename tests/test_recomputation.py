"""Each analysis computes its table of double contractions S_{e_k,e_l} once.

Every S_{e_k,e_l} ends in one symtensor.endo_of_quadratic call, so counting
those calls counts the table entries computed: an accepted analysis on
dim E = d computes the d(d+1)/2 entries once, and a rejection stops at its
witness.
"""

import random
from pathlib import Path

import pytest

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
