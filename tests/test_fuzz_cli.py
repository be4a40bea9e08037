"""Hypothesis fuzz test of the command line on hostile quartic and --j files.

main runs in-process on files written to a temporary directory, for analyze
(complex and --real), verify and classify8 (complex and --real).  Whatever
the file holds, the call ends in exit 0, 1 or 2 with at most one line on
stderr and no exception, and exit 0 only for a quartic that survives the
round trip through quartic_to_dict.  n is drawn from {-1, 0, 1, 2}, from
integers above the size limit MAX_N or from non-integer junk: a large n below
the limit would build the dense (2n)^2 omega before anything else is read,
so only sizes the guard refuses first are drawn.  The draw is derandomized,
so the examples are the same on every run.
"""

import contextlib
import io
import json
import tempfile
from itertools import product
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hksym.cli import _read_quartic, main  # noqa: E402
from hksym.symplectic import MAX_N, SymplecticSpace  # noqa: E402
from hksym.symtensor import quartic_from_dict, quartic_to_dict  # noqa: E402
from hksym.generators import standard_split_j  # noqa: E402

from oracles import standard_quaternionic  # noqa: E402

# JSON values that are never a valid field, and never an integer
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-2, 5), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 5), max_size=2),
)


def exponents(dim, lagrangian):
    """Every degree-4 exponent vector on dim variables; with lagrangian, only
    those in p_1..p_{dim/2}, whose quartics are invariant."""
    half = dim // 2
    return [list(a) for a in product(range(5), repeat=dim)
            if sum(a) == 4 and not (lagrangian and any(a[half:]))]


MONOMIALS = {dim: (exponents(dim, True), exponents(dim, False)) for dim in (2, 4)}
VALUES = ["1", "-2", "3/4", "1+i", "-1/2i", "i", "0"]
BAD_VALUES = ["1/0", "0.5", "", "1e3", "2/-", "ii"]
# the parts of a well-formed record that a draw may make hostile
FAULTS = ("n", "degree", "coeffs", "coeff", "monomial", "repeated", "value", "missing",
          "duplicate", "truncated")
J_MATRICES = {
    1: [standard_quaternionic(SymplecticSpace(1))],
    2: [standard_quaternionic(SymplecticSpace(2)), standard_split_j(SymplecticSpace(2))],
}
COMMANDS = [
    ["analyze"],
    ["analyze", "--real"],
    ["verify", "--invariance"],
    ["verify", "--jacobi"],
    ["verify", "--reality"],
    ["classify8"],
    ["classify8", "--real"],
]


@st.composite
def quartic_texts(draw):
    """(n, file text): a well-formed quartic record, or, half the time, one
    with one or two of FAULTS."""
    faults = draw(st.one_of(st.just(set()),
                            st.sets(st.sampled_from(FAULTS), min_size=1, max_size=2)))
    n = draw(st.one_of(st.sampled_from([-1, 0]), st.integers(min_value=MAX_N + 1), JUNK)
             if "n" in faults else st.sampled_from([1, 2]))
    lagrangian, every = MONOMIALS[2 if n == 1 else 4]
    if "monomial" in faults:
        monomial = st.one_of(st.lists(st.integers(-1, 4), max_size=5), JUNK)
    else:
        monomial = st.one_of(st.sampled_from(lagrangian), st.sampled_from(every))
    if "value" in faults:
        value = st.one_of(st.sampled_from(BAD_VALUES), st.text(max_size=6), JUNK)
    else:
        value = st.sampled_from(VALUES)
    coeffs = draw(st.lists(st.fixed_dictionaries({"monomial": monomial, "value": value}),
                           max_size=3, unique_by=lambda c: json.dumps(c["monomial"])))
    if "repeated" in faults and coeffs:
        coeffs.append(dict(coeffs[0], value=draw(value)))
    if "coeff" in faults:
        coeffs.insert(draw(st.integers(0, len(coeffs))), draw(JUNK))
    record = {
        "n": n,
        "degree": draw(st.one_of(st.integers(-1, 6), JUNK)) if "degree" in faults else 4,
        "coeffs": draw(JUNK) if "coeffs" in faults else coeffs,
    }
    if "missing" in faults:
        del record[draw(st.sampled_from(sorted(record)))]
    text = json.dumps(record)
    if "duplicate" in faults:
        text = '{"degree": 4, ' + text[1:]
    if "truncated" in faults:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return n, text


@st.composite
def j_texts(draw, n):
    """None for the default j, else the text of a --j file, hostile one time
    in four."""
    if draw(st.integers(0, 3)) == 0:
        return json.dumps(draw(st.one_of(st.fixed_dictionaries({"c_matrix": JUNK}), JUNK)))
    valid = J_MATRICES[n] if n in (1, 2) else []
    j = draw(st.sampled_from([None] + valid))
    return None if j is None else json.dumps({"c_matrix": j.c_matrix.to_strings()})


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exits_cleanly_on_hostile_files(data):
    n, text = data.draw(quartic_texts())
    command = data.draw(st.sampled_from(COMMANDS))
    j_text = data.draw(j_texts(n))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "q.json"
        path.write_text(text, encoding="utf-8")
        argv = command[:1] + [str(path)] + command[1:]
        if j_text is not None:
            j_path = Path(tmp) / "j.json"
            j_path.write_text(j_text, encoding="utf-8")
            argv += ["--j", str(j_path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert err.getvalue().count("\n") <= 1
        assert "Traceback" not in err.getvalue()
        if code == 0:
            s, _ = _read_quartic(str(path))
            assert quartic_from_dict(quartic_to_dict(s)) == s
