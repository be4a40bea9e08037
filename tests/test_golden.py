"""Golden-report gate: the CLI's stdout on a small fixed corpus must stay
byte-identical to the committed files in tests/golden/.

Each case is an input quartic written by `hksym generate` and the exact stdout
of one command on it.  To regenerate after a deliberate report change, run
`python tests/test_golden.py` from the repository root and review the diff.
"""

import sys
from pathlib import Path

import pytest

from hksym.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# (input stem, generator kind, seed, command, extra flags)
CASES = (
    [("petrov_%s" % t, "petrov:%s" % t, 0, "analyze", ()) for t in ("I", "II", "D", "III", "N", "O")]
    + [("lagrangian_%d" % n, "random-lagrangian:%d" % n, 7, "analyze", ()) for n in (1, 2, 3)]
    + [
        ("real_1", "real-random:1", 3, "analyze", ("--real",)),
        ("petrov_D", "petrov:D", 0, "classify8", ("--real",)),
    ]
)


def _out_name(stem, command, flags):
    return "%s.%s.out" % (stem, "_".join((command,) + tuple(f.lstrip("-") for f in flags)))


def _argv(stem, command, flags):
    return [command, str(GOLDEN / ("%s.json" % stem)), *flags, "--json"]


@pytest.mark.parametrize(
    "stem,command,flags",
    [(stem, command, flags) for stem, _, _, command, flags in CASES],
    ids=[_out_name(stem, command, flags) for stem, _, _, command, flags in CASES],
)
def test_report_matches_golden(capsys, stem, command, flags):
    code = main(_argv(stem, command, flags))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / _out_name(stem, command, flags)).read_text(encoding="utf-8")


def regenerate():
    """Rewrite every golden input and report from the current code."""
    import contextlib
    import io

    for stem, kind, seed, command, flags in CASES:
        assert main(["generate", kind, "--seed", str(seed), "-o", str(GOLDEN / ("%s.json" % stem))]) == 0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(_argv(stem, command, flags)) == 0
        (GOLDEN / _out_name(stem, command, flags)).write_text(buf.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(regenerate())
