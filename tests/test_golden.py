"""Golden-report gate: the CLI's stdout and exit code on a small fixed corpus
must stay identical to the committed files in tests/golden/.

Each case is an input quartic and the exact stdout of one command on it.
Most inputs are written by `hksym generate`; inputs that no generator kind
produces are committed as fixed JSON files, and so are the quaternionic
structures that cases with --j read from <stem>.j.json.  To regenerate after a
deliberate report change, run `python tests/test_golden.py` from the
repository root and review the diff: it rewrites every generated input and
every report, and leaves the fixed inputs as they are.
"""

import sys
from pathlib import Path

import pytest

from hksym.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# (input stem, (generator kind, seed) or None for a fixed input, command,
#  extra flags, expected exit code)
CASES = (
    [("petrov_%s" % t, ("petrov:%s" % t, 0), "analyze", (), 0) for t in ("I", "II", "D", "III", "N", "O")]
    + [("lagrangian_%d" % n, ("random-lagrangian:%d" % n, 7), "analyze", (), 0) for n in (1, 2, 3)]
    + [
        ("real_1", ("real-random:1", 3), "analyze", ("--real",), 0),
        ("petrov_D", ("petrov:D", 0), "classify8", ("--real",), 0),
        ("real_1", ("real-random:1", 3), "classify8", ("--real",), 0),
        ("real_1", ("real-random:1", 3), "verify", ("--invariance", "--jacobi", "--reality"), 0),
        # not tau-fixed for the default j: the real pipeline rejects it
        ("lagrangian_2", ("random-lagrangian:2", 7), "analyze", ("--real",), 2),
        # p^3 q on dim E = 2: S_{p,q} . S != 0, first witness (0, 1)
        ("p3q", None, "analyze", (), 2),
        # p1^2 p2^2 + 2 p1 p2^3 + p2^3 q1 on dim E = 4: the first violating
        # pair (2, 3) comes after (2, 2), a nonzero entry in the span of the
        # entries before it
        ("late_witness", None, "analyze", (), 2),
        ("late_witness", None, "verify", ("--invariance",), 2),
        # random_quartic_full(SymplecticSpace(4), Random(3)): dense, 329
        # monomials, most coefficients complex and not integers; the first
        # entry fails, witness (0, 0), certified by one nonzero residue of
        # its action modulo P, with no exact action on the dense quartic
        ("full_4", None, "analyze", (), 2),
        ("full_4", None, "verify", ("--invariance",), 2),
        # symmetrize_real of random_quartic_full(SymplecticSpace(2), Random(11))
        # under the standard split j: tau-fixed but not invariant
        ("tau_fixed_full_2", None, "verify", ("--reality",), 0),
        # off the coordinate axes: transform(p1**4, random_symplectic(
        # SymplecticSpace(2), Random(1), steps=3)); its support has dim 1, so
        # extend_to_lagrangian completes it through omega_perp (type N)
        ("scrambled_p4", None, "analyze", (), 0),
        # transform(random_quartic_lagrangian(2, Random(2)),
        # random_symplectic(SymplecticSpace(2), Random(3), steps=3)) (type I)
        ("scrambled_lagrangian_2", None, "analyze", (), 0),
        # the first real form with m = 2 in the gate
        ("real_2", ("real-random:2", 3), "analyze", ("--real",), 0),
        # a j whose invariant Lagrangians are not coordinate subspaces, read
        # from non_coordinate_j.j.json: with sp = SymplecticSpace(2) and
        # rng = Random(31), t = random_symplectic(sp, rng) moves the split
        # (span(p), span(q)) to (E_+, E_-), j = standard_quaternionic(sp,
        # (E_+, E_-)) and the quartic is symmetrize_real(transform(
        # random_quartic_lagrangian(2, rng), t), j)
        ("non_coordinate_j", None, "analyze", ("--real", "--j"), 0),
        ("non_coordinate_j", None, "classify8", ("--real", "--j"), 0),
        # i times the non_coordinate_j quartic, under the same j (a copy of
        # its record): tau(iS) = -iS, so the commutator condition fails under
        # a j off the coordinate axes; verify --reality reads the table of a
        # quartic it has not certified
        ("unreal_non_coordinate_j", None, "analyze", ("--real", "--j"), 2),
        ("unreal_non_coordinate_j", None, "verify", ("--reality", "--j"), 2),
        # complex classify8 on a coordinate quartic, on a type I quartic
        # whose (I^3 : J^2) is off the axes, and on a support of dim 1 off
        # the axes
        ("petrov_I", ("petrov:I", 0), "classify8", (), 0),
        ("scrambled_lagrangian_2", None, "classify8", (), 0),
        ("scrambled_p4", None, "classify8", (), 0),
    ]
)


def _out_name(stem, command, flags):
    return "%s.%s.out" % (stem, "_".join((command,) + tuple(f.lstrip("-") for f in flags)))


def _argv(stem, command, flags):
    """The CLI arguments of a case; --j reads the fixed record <stem>.j.json."""
    argv = [command, str(GOLDEN / ("%s.json" % stem))]
    for flag in flags:
        argv += [flag, str(GOLDEN / ("%s.j.json" % stem))] if flag == "--j" else [flag]
    return argv + ["--json"]


@pytest.mark.parametrize(
    "stem,command,flags,exit_code",
    [(stem, command, flags, exit_code) for stem, _, command, flags, exit_code in CASES],
    ids=[_out_name(stem, command, flags) for stem, _, command, flags, _ in CASES],
)
def test_report_matches_golden(capsys, stem, command, flags, exit_code):
    code = main(_argv(stem, command, flags))
    out = capsys.readouterr().out
    assert code == exit_code
    assert out == (GOLDEN / _out_name(stem, command, flags)).read_text(encoding="utf-8")


def regenerate():
    """Rewrite every generated golden input and every report from the current code."""
    import contextlib
    import io

    for stem, source, command, flags, exit_code in CASES:
        if source is not None:
            kind, seed = source
            path = str(GOLDEN / ("%s.json" % stem))
            assert main(["generate", kind, "--seed", str(seed), "-o", path]) == 0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(_argv(stem, command, flags)) == exit_code
        (GOLDEN / _out_name(stem, command, flags)).write_text(buf.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(regenerate())
