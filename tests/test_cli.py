import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hksym.cli import main
from hksym.symtensor import quartic_from_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        from hksym.generators import standard_split_j
        from hksym.symplectic import SymplecticSpace

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

    @pytest.mark.parametrize("failing_call, message", [
        (2, "extend_to_lagrangian produced a non-isotropic subspace"),
        (4, "lagrangian_complement produced a non-isotropic complement"),
    ], ids=["extend", "complement"])
    def test_symplectic_postcondition_exits_3(self, capsys, monkeypatch, dim4_file,
                                               failing_call, message):
        # analyze on p^4 checks isotropy inside symplectic four times: the
        # input, then the result, of extend_to_lagrangian and of
        # lagrangian_complement; failing a result check is a bug signal
        import hksym.symplectic as symplectic

        honest = symplectic.is_isotropic
        calls = []

        def fails_once(sub):
            calls.append(sub)
            return honest(sub) and len(calls) != failing_call

        monkeypatch.setattr(symplectic, "is_isotropic", fails_once)
        code, out, err = run_cli(capsys, "analyze", dim4_file)
        assert (code, out, err) == (3, "", "internal error: %s\n" % message)
        assert len(calls) == failing_call

    def test_non_isotropic_support_exits_3(self, capsys, monkeypatch, dim4_file):
        # certify_invariance checks the support once, and [h, h] = 0, the
        # Lagrangian and the report rely on that check
        import hksym.hkalgebra as hkalgebra

        monkeypatch.setattr(hkalgebra, "is_isotropic", lambda sub: False)
        code, out, err = run_cli(capsys, "analyze", dim4_file)
        assert (code, out, err) == (
            3, "", "internal error: support of an invariant quartic is not isotropic\n")

    def test_dimension_mismatch_exits_1(self, capsys, tmp_path):
        path = write_quartic(tmp_path, "dim.json", {
            "n": 2, "degree": 4,
            "coeffs": [{"monomial": [4, 0], "value": "1"}],
        })
        assert run_cli(capsys, "analyze", path)[0] == 1

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
        assert "requires at least one" in err

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
        path = str(Path(__file__).resolve().parent / "golden" / "lagrangian_2.json")
        code, out, err = run_cli(capsys, "classify8", path, "--real", "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("rejected: ")
        assert err.count("\n") == 1


def test_console_script_installed():
    # runs from a clean checkout too: the package is found in ./src
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "hksym.cli", "--version"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "hksym" in out.stdout
