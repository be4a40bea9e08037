import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hksym.generators as generators
import hksym.symtensor as symtensor
from hksym.cli import main
from hksym.exactnum import MAX_DIGITS
from hksym.generators import standard_split_j
from hksym.symplectic import MAX_N, SymplecticSpace
from hksym.symtensor import quartic_from_dict

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(int_max_str_digits, *argv):
    """(exit code, stdout, stderr) of hksym run as its own process from
    ./src, with PYTHONINTMAXSTRDIGITS set to int_max_str_digits (unset for
    None)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    if int_max_str_digits is not None:
        env["PYTHONINTMAXSTRDIGITS"] = int_max_str_digits
    out = subprocess.run([sys.executable, "-m", "hksym.cli", *argv], capture_output=True, text=True, env=env)
    return out.returncode, out.stdout, out.stderr


def write_quartic(tmp_path, name, data):
    """Write data as JSON, or a str as the raw file text."""
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


@pytest.fixture
def dim4_file(tmp_path, capsys):
    path = str(tmp_path / "dim4.json")
    code, _, _ = run_cli(capsys, "generate", "dim4", "-o", path)
    assert code == 0
    return path


class TestGenerate:
    def test_dim4_is_e4(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "dim4")
        assert code == 0
        data = json.loads(out)
        assert data == {"n": 1, "degree": 4,
                        "coeffs": [{"monomial": [4, 0], "value": "1"}]}

    def test_deterministic_for_fixed_seed(self, capsys):
        code1, out1, _ = run_cli(capsys, "generate", "random-lagrangian:2", "--seed", "7")
        code2, out2, _ = run_cli(capsys, "generate", "random-lagrangian:2", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        _, out3, _ = run_cli(capsys, "generate", "random-lagrangian:2", "--seed", "8")
        assert out3 != out1

    def test_petrov_d_is_x2y2(self, capsys):
        _, out, _ = run_cli(capsys, "generate", "petrov:D")
        s = quartic_from_dict(json.loads(out))
        assert s.coeffs == {(2, 2, 0, 0): list(s.coeffs.values())[0]}

    def test_unknown_kind(self, capsys):
        code, _, err = run_cli(capsys, "generate", "petrov:X")
        assert code == 1
        assert "unknown" in err

    def test_generated_quartics_pass_their_checks(self, capsys, tmp_path):
        lag = str(tmp_path / "lag.json")
        assert run_cli(capsys, "generate", "random-lagrangian:2", "--seed", "5", "-o", lag)[0] == 0
        assert run_cli(capsys, "verify", lag, "--invariance")[0] == 0
        real = str(tmp_path / "real.json")
        assert run_cli(capsys, "generate", "real-random:1", "--seed", "5", "-o", real)[0] == 0
        assert run_cli(capsys, "verify", real, "--invariance", "--reality")[0] == 0


class TestAnalyze:
    def test_dim4_report(self, capsys, dim4_file):
        code, out, _ = run_cli(capsys, "analyze", dim4_file, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["invariance_ok"] is True
        assert data["holonomy"]["dimension"] == 1
        assert data["holonomy"]["is_abelian"] is True
        assert data["support_dim"] == 1
        assert data["flat_complex_dim"] == 0
        assert data["jacobi_ok"] is True
        assert data["ricci_zero"] is True
        assert data["tool_version"]
        assert len(data["input_sha256"]) == 64

    def test_byte_identical_reports(self, capsys, dim4_file):
        _, out1, _ = run_cli(capsys, "analyze", dim4_file, "--json")
        _, out2, _ = run_cli(capsys, "analyze", dim4_file, "--json")
        assert out1 == out2

    def test_non_invariant_exits_2_with_witness(self, capsys, tmp_path):
        path = write_quartic(tmp_path, "p3q.json", {
            "n": 1, "degree": 4,
            "coeffs": [{"monomial": [3, 1], "value": "1"}],
        })
        code, out, _ = run_cli(capsys, "analyze", path)
        assert code == 2
        assert "witness" in out

    def test_zero_quartic_fully_flat(self, capsys, tmp_path):
        path = write_quartic(tmp_path, "zero.json", {"n": 1, "degree": 4, "coeffs": []})
        code, out, _ = run_cli(capsys, "analyze", path, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["flat_complex_dim"] == 4
        assert data["holonomy"]["dimension"] == 0

    def test_real_mode(self, capsys, tmp_path):
        real = str(tmp_path / "real.json")
        run_cli(capsys, "generate", "real-random:1", "--seed", "2", "-o", real)
        code, out, _ = run_cli(capsys, "analyze", real, "--real", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["reality"]["commutator_condition_ok"] is True
        assert data["reality"]["tau_fixed"] is True
        assert data["signature"] == [4, 4]

    def test_real_mode_with_custom_j_file(self, capsys, tmp_path):
        j_path = tmp_path / "j.json"
        j_path.write_text(json.dumps({"c_matrix": standard_split_j(SymplecticSpace(2)).c_matrix.to_strings()}))
        real = str(tmp_path / "real.json")
        run_cli(capsys, "generate", "real-random:1", "--seed", "2", "-o", real)
        code, out, _ = run_cli(capsys, "analyze", real, "--real", "--j", str(j_path), "--json")
        assert code == 0
        assert json.loads(out)["signature"] == [4, 4]

    def test_real_mode_rejects_non_tau_fixed(self, capsys, tmp_path):
        path = write_quartic(tmp_path, "x4.json", {
            "n": 2, "degree": 4,
            "coeffs": [{"monomial": [4, 0, 0, 0], "value": "1"}],
        })
        code, out, _ = run_cli(capsys, "analyze", path, "--real", "--json")
        assert code == 2
        assert json.loads(out)["reality"]["tau_fixed"] is False

    def test_real_mode_without_a_default_j_exits_1(self, capsys, dim4_file):
        code, out, err = run_cli(capsys, "analyze", dim4_file, "--real")
        assert (code, out) == (1, "")
        assert "dim E = 2 is not divisible by 4 (supply --j)" in err

    def test_malformed_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(capsys, "analyze", str(path))[0] == 1

    def test_non_rational_coefficient_exits_1(self, capsys, tmp_path):
        path = write_quartic(tmp_path, "float.json", {
            "n": 1, "degree": 4,
            "coeffs": [{"monomial": [4, 0], "value": "0.5"}],
        })
        assert run_cli(capsys, "analyze", path)[0] == 1

    @pytest.mark.parametrize("record", [
        # int() used to truncate these to [4, 0] and n = 1 and analyze the wrong quartic
        {"n": 1, "degree": 4, "coeffs": [{"monomial": [4.5, -0.5], "value": "1"}]},
        {"n": 1.7, "degree": 4, "coeffs": [{"monomial": [4, 0], "value": "1"}]},
        # used to end in a TypeError traceback
        {"n": 1, "degree": 4, "coeffs": {"monomial": [4, 0], "value": "1"}},
        # used to end in a RecursionError traceback from json
        "[" * 100000,
    ], ids=["fractional-exponent", "fractional-n", "coeffs-object", "deep-nesting"])
    def test_malformed_record_exits_1_with_one_line_error(self, capsys, tmp_path, record):
        path = write_quartic(tmp_path, "bad.json", record)
        code, out, err = run_cli(capsys, "analyze", path, "--json")
        assert code == 1
        assert out == ""
        assert err.startswith("error: malformed quartic record: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("j_record", [
        # each used to end in a KeyError, TypeError or RecursionError traceback
        {},
        {"c_matrix": 5},
        [1, 2],
        "[" * 100000,
    ], ids=["empty-object", "c_matrix-int", "list", "deep-nesting"])
    def test_malformed_j_exits_1_with_one_line_error(self, capsys, tmp_path, j_record):
        real = str(tmp_path / "real.json")
        run_cli(capsys, "generate", "real-random:1", "--seed", "2", "-o", real)
        j_path = write_quartic(tmp_path, "j.json", j_record)
        code, out, err = run_cli(capsys, "analyze", real, "--real", "--j", j_path, "--json")
        assert code == 1
        assert out == ""
        assert err.startswith("error: malformed quaternionic structure record: ")
        assert err.count("\n") == 1

    def test_internal_error_exits_3(self, capsys, monkeypatch, dim4_file):
        import hksym.cli
        from hksym.hkalgebra import TheoremViolationError

        def broken(*args, **kwargs):
            raise TheoremViolationError("jacobi failed: (k1, k2, k3)")

        monkeypatch.setattr(hksym.cli, "analyze_quartic", broken)
        code, out, err = run_cli(capsys, "analyze", dim4_file)
        assert code == 3
        assert out == ""
        assert err == "internal error: jacobi failed: (k1, k2, k3)\n"

    @pytest.mark.parametrize("key, raw", [
        # the last of a repeated key used to win: the zero quartic, and 7 p^4
        ("coeffs", '{"n": 1, "degree": 4, "coeffs": [{"monomial": [4, 0], "value": "1"}], '
                   '"coeffs": []}'),
        ("value", '{"n": 1, "degree": 4, "coeffs": [{"monomial": [4, 0], "value": "1", '
                  '"value": "7"}]}'),
    ], ids=["coeffs", "value"])
    def test_duplicate_key_names_the_key(self, capsys, tmp_path, key, raw):
        path = write_quartic(tmp_path, "dup.json", raw)
        assert run_cli(capsys, "analyze", path) == (
            1, "", "error: malformed quartic record: duplicate key '%s'\n" % key)

    def test_duplicate_j_key_names_the_key(self, capsys, tmp_path):
        real = str(tmp_path / "real.json")
        run_cli(capsys, "generate", "real-random:1", "--seed", "2", "-o", real)
        j_path = write_quartic(tmp_path, "j.json", '{"c_matrix": 5, "c_matrix": []}')
        assert run_cli(capsys, "verify", real, "--reality", "--j", j_path) == (
            1, "", "error: malformed quaternionic structure record: duplicate key 'c_matrix'\n")

    @pytest.mark.parametrize("command", [
        ["analyze"], ["verify", "--invariance"], ["classify8"]], ids=["analyze", "verify", "classify8"])
    @pytest.mark.parametrize("record, message", [
        # an entry's extra key used to be dropped: this read as the quartic
        # p1^4 and was analysed
        ({"n": 2, "degree": 4, "coeffs": [{"monomial": [4, 0, 0, 0], "value": "1", "imag": "2"}]},
         "coeffs[0] has an unknown key 'imag'"),
        ({"n": 2, "degree": 4, "coeffs": [], "format": 2}, "unknown key 'format'"),
    ], ids=["entry", "record"])
    def test_unknown_key_names_the_key(self, capsys, tmp_path, command, record, message):
        path = write_quartic(tmp_path, "extra.json", record)
        assert run_cli(capsys, command[0], path, *command[1:]) == (
            1, "", "error: malformed quartic record: %s\n" % message)

    @pytest.mark.parametrize("command", [
        ["analyze"], ["verify", "--reality"], ["classify8"]], ids=["analyze", "verify", "classify8"])
    def test_unknown_j_key_names_the_key(self, capsys, tmp_path, command):
        real = str(GOLDEN / "non_coordinate_j.json")
        j_record = json.loads((GOLDEN / "non_coordinate_j.j.json").read_text(encoding="utf-8"))
        j_record["signature"] = [2, 2]
        j_path = write_quartic(tmp_path, "j.json", j_record)
        assert run_cli(capsys, command[0], real, *command[1:], "--j", j_path) == (
            1, "", "error: malformed quaternionic structure record: unknown key 'signature'\n")

    def test_real_holonomy_shortfall_exits_3(self, capsys, monkeypatch, tmp_path):
        # dim_R h_R = dim_C h is certified: an elimination that loses a row
        # is a bug signal, not a rejection of the quartic
        import hksym.exactnum as exactnum
        import hksym.realform as realform

        real = str(tmp_path / "real.json")
        run_cli(capsys, "generate", "real-random:1", "--seed", "2", "-o", real)
        monkeypatch.setattr(realform, "echelon_basis", lambda rows: exactnum.echelon_basis(rows)[:-1])
        code, out, err = run_cli(capsys, "analyze", real, "--real")
        assert (code, out) == (3, "")
        assert err.startswith("internal error: real holonomy dimension ")
        assert err.count("\n") == 1

    def test_bracket_outside_the_holonomy_exits_3(self, capsys, monkeypatch, tmp_path):
        # the [m, m] brackets are table entries, read in the span of h by
        # the algebra builder's solver: an entry that leaves it is a bug
        # signal of the algebra builder
        import hksym.hkalgebra as hkalgebra
        from hksym.exactnum import ONE

        path = str(tmp_path / "lagrangian_2.json")
        run_cli(capsys, "generate", "random-lagrangian:2", "--seed", "1", "-o", path)

        class Forged(hkalgebra.SpanSolver):
            def coords(self, t):
                return super().coords(t[:-1] + (ONE,))

        monkeypatch.setattr(hkalgebra, "SpanSolver", Forged)
        assert run_cli(capsys, "analyze", path) == (
            3, "", "internal error: bracket value escaped the holonomy span (bug signal)\n")

    @pytest.fixture
    def real_file(self, tmp_path, capsys):
        path = str(tmp_path / "real.json")
        assert run_cli(capsys, "generate", "real-random:1", "--seed", "2", "-o", path)[0] == 0
        return path

    def test_real_holonomy_outside_h_exits_3(self, capsys, monkeypatch, real_file):
        # the real basis is read over h's basis: an h^tau element outside h
        # (here the tuple with every S^2E coordinate 1) is a bug signal
        import hksym.realform as realform
        from hksym.exactnum import ONE

        honest = realform.real_holonomy

        def outside(q, rep):
            return [(ONE,) * len(q.h_rows[0])] + honest(q, rep)[1:]

        monkeypatch.setattr(realform, "real_holonomy", outside)
        assert run_cli(capsys, "analyze", real_file, "--real") == (
            3, "", "internal error: real holonomy element is not in h (bug signal)\n")

    def test_h_not_preserving_the_real_form_exits_3(self, capsys, monkeypatch, real_file):
        # i B for a tau-fixed B does not commute with j, so [iB, (x, jx)] is
        # no longer of the form (x', jx')
        import hksym.realform as realform
        from hksym.exactnum import I_UNIT

        honest = realform.real_holonomy
        monkeypatch.setattr(realform, "real_holonomy",
                            lambda q, rep: [tuple(I_UNIT * x for x in v) for v in honest(q, rep)])
        assert run_cli(capsys, "analyze", real_file, "--real") == (
            3, "", "internal error: h does not preserve the real form (bug signal)\n")

    def test_real_bracket_outside_the_real_holonomy_exits_3(self, capsys, monkeypatch, real_file):
        # with the change of basis to h^tau scaled by i, every [m, m] value
        # has imaginary coordinates: it leaves the real span of h^tau
        import hksym.exactnum as exactnum
        import hksym.realform as realform

        monkeypatch.setattr(realform, "inverse",
                            lambda m: exactnum.inverse(m).scale(exactnum.I_UNIT))
        assert run_cli(capsys, "analyze", real_file, "--real") == (
            3, "", "internal error: bracket value escaped the holonomy span (bug signal)\n")

    def test_non_real_metric_exits_3(self, capsys, monkeypatch, real_file):
        # the real metric is the complex one restricted to the real basis: a
        # complex metric scaled by i after its certificate restricts to an
        # imaginary one
        import hksym.hkalgebra as hkalgebra
        from hksym.exactnum import I_UNIT

        honest = hkalgebra.build_complex_algebra

        def scaled(q, hol):
            model = honest(q, hol)
            model.metric_on_m = model.metric_on_m.scale(I_UNIT)
            return model

        monkeypatch.setattr(hkalgebra, "build_complex_algebra", scaled)
        assert run_cli(capsys, "analyze", real_file, "--real") == (
            3, "", "internal error: metric restriction is not real (bug signal)\n")

    @pytest.mark.parametrize("target, command, message, calls_made", [
        ("is_isotropic", ("analyze", "dim4"),
         "extend_to_lagrangian produced a non-isotropic subspace", 2),
    ], ids=["extend"])
    def test_symplectic_postcondition_exits_3(self, capsys, monkeypatch, tmp_path,
                                               target, command, message, calls_made):
        # extend_to_lagrangian checks isotropy inside symplectic on the
        # input, then the result; failing a result check is a bug signal.
        # The second isotropy check fails.  The frame's check, which no
        # command reaches, is test_frame_postcondition_is_a_bug_signal
        import hksym.symplectic as symplectic

        verb, kind = command
        path = str(tmp_path / "input.json")
        assert run_cli(capsys, "generate", kind, "-o", path)[0] == 0

        honest = getattr(symplectic, target)
        calls = []

        def perturbed(*args):
            calls.append(args)
            return honest(*args) and len(calls) != 2

        monkeypatch.setattr(symplectic, target, perturbed)
        code, out, err = run_cli(capsys, verb, path)
        assert (code, out, err) == (3, "", "internal error: %s\n" % message)
        assert len(calls) == calls_made

    def test_frame_postcondition_is_a_bug_signal(self, monkeypatch):
        # lagrangian_complement certifies its Darboux frame by
        # P^t Omega P = Omega.  No command builds a frame, so the check is
        # reached through flat_decomposition, with both dual vectors solved
        # for coming out doubled
        import hksym.symplectic as symplectic
        from hksym.exactnum import TheoremViolationError
        from hksym.hkalgebra import certify_invariance, flat_decomposition

        honest = symplectic.solve_linear
        calls = []

        def doubled(*args):
            calls.append(args)
            return tuple(c + c for c in honest(*args))

        q = certify_invariance(generators.make_generator("petrov:I", 0))
        monkeypatch.setattr(symplectic, "solve_linear", doubled)
        with pytest.raises(TheoremViolationError,
                           match="^lagrangian_complement produced a non-symplectic frame$"):
            flat_decomposition(q)
        assert len(calls) == 2

    def test_non_isotropic_support_without_witness_exits_3(self, capsys, monkeypatch, tmp_path):
        # a full quartic has a non-isotropic support, so some entry must fail
        # S_{e_k,e_l} . S = 0; with every residue and every exact action read
        # as zero none does, which the structure theorem rules out
        import hksym.hkalgebra as hkalgebra

        s = generators.random_quartic_full(SymplecticSpace(2), random.Random(5))
        path = write_quartic(tmp_path, "full.json", symtensor.quartic_to_dict(s))
        monkeypatch.setattr(hkalgebra, "action_residue", lambda a, gradient: (0, 0))
        monkeypatch.setattr(hkalgebra, "sp_action", lambda a, t: symtensor.SymTensor.zero(t.space, 4))
        code, out, err = run_cli(capsys, "analyze", path)
        assert (code, out, err) == (
            3, "", "internal error: support of an invariant quartic is not isotropic\n")

    def test_support_membership_failure_exits_3(self, capsys, monkeypatch, dim4_file):
        # an isotropic support certifies invariance only with S in
        # S^4(support), which holds for the true support of every quartic
        import hksym.hkalgebra as hkalgebra

        monkeypatch.setattr(hkalgebra, "tensor_in_subspace_power", lambda t, sub: False)
        code, out, err = run_cli(capsys, "analyze", dim4_file)
        assert (code, out, err) == (
            3, "", "internal error: S is not contained in S^4 of its support\n")

    def test_dimension_mismatch_exits_1(self, capsys, tmp_path):
        path = write_quartic(tmp_path, "dim.json", {
            "n": 2, "degree": 4,
            "coeffs": [{"monomial": [4, 0], "value": "1"}],
        })
        assert run_cli(capsys, "analyze", path)[0] == 1

    @pytest.mark.parametrize("setting", [None, "0", "100000"], ids=["default", "unlimited", "raised"])
    def test_overlong_literal_exits_1_naming_its_entry(self, tmp_path, setting):
        # hksym bounds each digit string at 4300 digits, the interpreter's
        # default limit for int(), before int() reads it: the same refusal,
        # naming the record entry, whatever PYTHONINTMAXSTRDIGITS says; a
        # literal of 4300-digit strings is read under every setting
        ok = "1" * MAX_DIGITS + "/" + "3" * MAX_DIGITS + "+" + "7" * MAX_DIGITS + "i"
        refused = (1, "", "error: malformed quartic record: coeffs[1]: "
                          "rational literal has a digit string over 4300 digits\n")
        for value, expected in [
            ("1" * (MAX_DIGITS + 1), refused),
            ("2+1/" + "3" * (MAX_DIGITS + 1) + "i", refused),
            (ok, (0, "invariance: pass\n", "")),
        ]:
            path = write_quartic(tmp_path, "long.json", {
                "n": 2, "degree": 4, "coeffs": [{"monomial": [4, 0, 0, 0], "value": "1"},
                                                {"monomial": [0, 4, 0, 0], "value": value}],
            })
            assert run_cli_process(setting, "verify", path, "--invariance") == expected

    @pytest.mark.parametrize("setting", [None, "0", "100000"], ids=["default", "unlimited", "raised"])
    def test_overlong_json_integer_exits_1(self, tmp_path, setting):
        # a JSON integer is bounded like a literal's digit string: refused
        # before int() reads it, without echoing its digits
        refused = (1, "", "error: malformed quartic record: an integer has a digit string "
                          "over 4300 digits\n")
        long = "1" * (MAX_DIGITS + 1)
        for text in [
            '{"n": %s, "degree": 4, "coeffs": []}' % long,
            '{"n": 1, "degree": 4, "coeffs": [{"monomial": [4, -%s], "value": "1"}]}' % long,
        ]:
            path = write_quartic(tmp_path, "long.json", text)
            assert run_cli_process(setting, "verify", path, "--invariance") == refused

    def test_overlong_j_entry_exits_1_naming_its_entry(self, capsys, tmp_path):
        real = str(tmp_path / "real.json")
        run_cli(capsys, "generate", "real-random:1", "--seed", "2", "-o", real)
        rows = standard_split_j(SymplecticSpace(2)).c_matrix.to_strings()
        rows[2][1] = "-" + "9" * (MAX_DIGITS + 1)
        j_path = write_quartic(tmp_path, "j.json", {"c_matrix": rows})
        assert run_cli(capsys, "verify", real, "--reality", "--j", j_path) == (
            1, "", "error: malformed quaternionic structure record: c_matrix[2][1]: "
                   "rational literal has a digit string over 4300 digits\n")

    def test_missing_file_exits_1(self, capsys):
        assert run_cli(capsys, "analyze", "/nonexistent/q.json")[0] == 1

    def test_n3_pipeline(self, capsys, tmp_path):
        path = str(tmp_path / "n3.json")
        run_cli(capsys, "generate", "random-lagrangian:3", "--seed", "1", "-o", path)
        code, out, _ = run_cli(capsys, "analyze", path, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["invariance_ok"] is True
        assert data["classification"] is None  # only dim E = 4 classifies


class TestVerify:
    def test_requires_a_check_flag(self, capsys, dim4_file):
        code, _, err = run_cli(capsys, "verify", dim4_file)
        assert code == 1
        assert err.endswith("error: verify requires at least one of "
                            "--invariance, --jacobi, --reality, --j\n")

    def test_jacobi_pass(self, capsys, dim4_file):
        code, out, _ = run_cli(capsys, "verify", dim4_file, "--jacobi", "--invariance")
        assert code == 0
        assert "jacobi: pass" in out and "invariance: pass" in out

    def test_reality_symmetrized(self, capsys, tmp_path):
        real = str(tmp_path / "r.json")
        run_cli(capsys, "generate", "real-random:1", "--seed", "11", "-o", real)
        code, out, _ = run_cli(capsys, "verify", real, "--reality", "--json")
        assert code == 0
        assert json.loads(out)["checks"]["reality"]["ok"] is True

    def test_failing_check_exits_2(self, capsys, tmp_path):
        path = write_quartic(tmp_path, "p3q.json", {
            "n": 1, "degree": 4,
            "coeffs": [{"monomial": [3, 1], "value": "1"}],
        })
        code, out, _ = run_cli(capsys, "verify", path, "--invariance", "--json")
        assert code == 2
        data = json.loads(out)
        assert data["checks"]["invariance"]["ok"] is False
        assert data["checks"]["invariance"]["witness"] == [0, 1]


class TestClassify8:
    @pytest.mark.parametrize("kind,expected", [
        ("petrov:I", "I"),
        ("petrov:II", "II"),
        ("petrov:D", "D"),
        ("petrov:III", "III"),
        ("petrov:N", "N"),
        ("petrov:O", "O"),
    ])
    def test_generators_classify_to_their_types(self, capsys, tmp_path, kind, expected):
        path = str(tmp_path / "q.json")
        run_cli(capsys, "generate", kind, "-o", path)
        code, out, _ = run_cli(capsys, "classify8", path, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["type"] == expected
        assert data["mode"] == "complex"
        assert set(data) >= {"type", "pattern", "invariant", "mode"}

    def test_invariant_field_for_type_i(self, capsys, tmp_path):
        path = str(tmp_path / "q.json")
        run_cli(capsys, "generate", "petrov:I", "-o", path)
        _, out, _ = run_cli(capsys, "classify8", path, "--json")
        data = json.loads(out)
        assert data["invariant"] == ["1", "0"]

    def test_real_mode_emits_real_class(self, capsys, tmp_path):
        path = str(tmp_path / "q.json")
        run_cli(capsys, "generate", "real-random:1", "--seed", "4", "-o", path)
        code, out, _ = run_cli(capsys, "classify8", path, "--real", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["mode"] == "real"
        assert data["real_class"]["kind"] in ("zero", "nonzero")

    def test_wrong_dimension_exits_1(self, capsys, dim4_file):
        assert run_cli(capsys, "classify8", dim4_file)[0] == 1

    def test_real_mode_rejects_non_tau_fixed(self, capsys):
        # an invariant quartic that is not tau-fixed for the default j
        path = str(GOLDEN / "lagrangian_2.json")
        code, out, err = run_cli(capsys, "classify8", path, "--real", "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("rejected: ")
        assert err.count("\n") == 1


class TestRealModeFromJ:
    """A --j file selects the real mode as --real (--reality) with that file
    does: the same stdout, stderr and exit code."""

    @pytest.mark.parametrize("stem,command,flag", [
        ("non_coordinate_j", "analyze", "--real"),
        ("non_coordinate_j", "classify8", "--real"),
        ("unreal_non_coordinate_j", "analyze", "--real"),
        ("non_coordinate_j", "verify", "--reality"),
        ("unreal_non_coordinate_j", "verify", "--reality"),
    ])
    def test_j_alone_matches_the_flag(self, capsys, stem, command, flag):
        argv = [command, str(GOLDEN / ("%s.json" % stem)), "--j", str(GOLDEN / ("%s.j.json" % stem))]
        alone = run_cli(capsys, *argv)
        assert alone == run_cli(capsys, *argv, flag)
        assert alone[0] == (2 if stem.startswith("unreal") else 0)

    @pytest.mark.parametrize("argv", [
        ["analyze"],
        ["classify8"],
        ["verify", "--invariance"],
    ])
    def test_missing_j_file_exits_1(self, capsys, argv):
        path = str(GOLDEN / "non_coordinate_j.json")
        code, out, err = run_cli(capsys, argv[0], path, *argv[1:], "--j", "/nonexistent/j.json")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSizeGuard:
    """A quartic on n > MAX_N is refused with one line and exit 1 before any
    space of that size is built; only refused sizes are run here."""

    @pytest.fixture
    def spaces(self, monkeypatch):
        # SymplecticSpace(n) holds a dense (2n)^2 omega: count the spaces built
        built = []
        for module in (symtensor, generators):
            original = module.SymplecticSpace

            def counted(n, original=original):
                built.append(n)
                return original(n)

            monkeypatch.setattr(module, "SymplecticSpace", counted)
        return built

    @pytest.mark.parametrize("command", [["analyze"], ["analyze", "--real"],
                                         ["verify", "--invariance"], ["classify8"]])
    @pytest.mark.parametrize("n", [MAX_N + 1, 100000, 10 ** 30])
    def test_refuses_large_n_in_a_file(self, capsys, tmp_path, spaces, command, n):
        path = write_quartic(tmp_path, "huge.json", {
            "n": n, "degree": 4, "coeffs": [{"monomial": [4, 0], "value": "1"}]})
        code, out, err = run_cli(capsys, command[0], path, *command[1:])
        assert (code, out) == (1, "")
        assert err == "error: n = %d exceeds the size limit n <= %d\n" % (n, MAX_N)
        assert spaces == []

    @pytest.mark.parametrize("kind,n", [
        ("random-lagrangian:%d" % (MAX_N + 1), MAX_N + 1),
        ("random-lagrangian:100000", 100000),
        ("real-random:%d" % (MAX_N // 2 + 1), MAX_N + 2),
        ("real-random:50000", 100000),
    ])
    def test_refuses_large_generator_kinds(self, capsys, spaces, kind, n):
        code, out, err = run_cli(capsys, "generate", kind)
        assert (code, out) == (1, "")
        assert err == "error: n = %d exceeds the size limit n <= %d\n" % (n, MAX_N)
        assert spaces == []


def test_console_script_installed():
    # runs from a clean checkout too: the package is found in ./src
    code, out, _ = run_cli_process(None, "--version")
    assert code == 0
    assert "hksym" in out
