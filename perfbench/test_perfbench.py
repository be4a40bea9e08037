"""Tests of the benchmark's own parts.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from hksym import cli, hkalgebra, symtensor  # noqa: E402
from hksym.generators import make_generator  # noqa: E402
from hksym.symtensor import quartic_to_dict  # noqa: E402


def call(tmp_path, case):
    path = tmp_path / (case.id + ".json")
    text = json.dumps(case.quartic, indent=2) + "\n"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(case.argv + [str(path)])
    return code, out.getvalue(), text


def altered(stdout, edit):
    report = json.loads(stdout)
    edit(report)
    return json.dumps(report, indent=2) + "\n"


def set_key(key, value):
    return lambda report: report.__setitem__(key, value)


def analyze_case(kind, real=False):
    return corpus._analyze("x", make_generator(kind, 3), real=real)


def first_entry_plus_one(report):
    row = report["lagrangian_found"][0]
    row[0] = row[0] + "+1" if row[0] != "0" else "1"


@pytest.mark.parametrize("edit", [
    set_key("jacobi_ok", False),
    set_key("ricci_zero", False),
    set_key("input_sha256", "0" * 64),
    first_entry_plus_one,
])
def test_oracle_catches_altered_analyze_report(tmp_path, edit):
    case = analyze_case("random-lagrangian:3")
    code, stdout, text = call(tmp_path, case)
    assert oracle.check_case(case, code, stdout, text) == []
    assert oracle.check_case(case, code, altered(stdout, edit), text)


def test_oracle_catches_wrong_signature_and_exit_code(tmp_path):
    case = analyze_case("real-random:1", real=True)
    code, stdout, text = call(tmp_path, case)
    assert oracle.check_case(case, code, stdout, text) == []
    assert oracle.check_case(case, code, altered(stdout, set_key("signature", [3, 5])), text)
    assert oracle.check_case(case, 2, stdout, text)


def test_oracle_catches_wrong_petrov_type(tmp_path):
    case = corpus.Case("d", ["classify8", "--json"], quartic_to_dict(make_generator("petrov:D", 0)),
                       0, {"petrov": "D"})
    code, stdout, text = call(tmp_path, case)
    assert oracle.check_case(case, code, stdout, text) == []
    assert oracle.check_case(case, code, altered(stdout, set_key("type", "I")), text)


def test_every_dim8_case_meets_its_expectation(tmp_path):
    for case in corpus.build("dim8-batch", 5):
        assert oracle.check_case(case, *call(tmp_path, case)) == [], case.id


def test_corpus_is_determined_by_the_seed():
    first = corpus.build("scrambled", 11)
    assert [c.quartic for c in first] == [c.quartic for c in corpus.build("scrambled", 11)]
    assert [c.quartic for c in first] != [c.quartic for c in corpus.build("scrambled", 12)]


def test_self_time_subtracts_child_spans():
    spans = [
        ("cli.main", 0.0, 10.0, -1, "a"),
        ("hkalgebra.holonomy", 1.0, 5.0, 0, "a"),
        ("exactnum.echelon_basis", 2.0, 3.0, 1, "a"),
        ("exactnum.echelon_basis", 6.0, 7.5, 0, "a"),
    ]
    metrics, per_case = tracer.summarize(spans, {("a", "symtensor.contract.calls"): 7})
    assert metrics["cli.main.self_s"] == pytest.approx(4.5)
    assert metrics["hkalgebra.holonomy.self_s"] == pytest.approx(3.0)
    assert metrics["exactnum.echelon_basis.self_s"] == pytest.approx(2.5)
    assert metrics["exactnum.self_s"] == pytest.approx(2.5)
    assert per_case["a"]["exactnum.echelon_basis.calls"] == 2
    assert metrics["symtensor.contract.calls"] == 7


def test_times_are_scaled_by_host_speed_and_pooled_per_kind():
    nominal = run.REF_NOMINAL_S
    passes = [[{"start": 0.0, "seconds": 1.0}, {"start": 1.0, "seconds": 6.0},
               {"start": 7.0, "seconds": 4.0}],
              [{"start": 11.0, "seconds": 3.0}, {"start": 14.0, "seconds": 2.0},
               {"start": 16.0, "seconds": 0.1}]]
    # the host ran the reference loop at nominal speed until t = 1, then 3x
    # slower until t = 14, then 1.5x or 2.5x slower
    samples = [(t / 2, nominal) for t in range(2)]
    samples += [(t / 2, 3 * nominal) for t in range(3, 28)]
    samples += [(14.2, 1.5 * nominal), (15.8, 2.5 * nominal), (16.6, 2.5 * nominal)]
    seconds = run.scaled_seconds(passes, samples)
    assert seconds == [pytest.approx([1.0, 2.0, 4.0 / 3]), pytest.approx([1.0, 1.0, 0.04])]
    cases = [corpus.Case(i, [], {}, 0, kind=k) for i, k in (("a", "a"), ("b-0", "b"), ("b-1", "b"))]
    metrics = run.end_to_end_metrics(cases, [[1.0, 2.0, 4.0], [1.0, 2.0, 2.0]], 0.1, 2048)
    assert metrics["wall_s"] == pytest.approx(1.0 + 2.0 + 3.0)
    # max_case_s is the median of the four calls of kind b
    assert metrics["max_case_s"] == pytest.approx(2.0)
    assert metrics["case_p50_s"] == pytest.approx(2.0)
    assert metrics["case_p90_s"] == pytest.approx(3.0)
    assert metrics["peak_rss_mb"] == 2.0


def traced_counts(tmp_path, case):
    t = tracer.Tracer()
    t.case = case.id
    t.install()
    try:
        result = call(tmp_path, case)
    finally:
        t.uninstall()
    return result, tracer.summarize(t.spans, t.counts)[1][case.id]


def test_tracer_counts_repeat_and_uninstall_restores(tmp_path):
    originals = (hkalgebra.support, hkalgebra.verify_jacobi, symtensor.contract)
    case = analyze_case("random-lagrangian:3")
    (_, stdout, _), first = traced_counts(tmp_path, case)
    (_, again, _), second = traced_counts(tmp_path, case)
    assert first == second
    assert stdout == again == call(tmp_path, case)[1]
    assert first["symtensor.support.calls"] == 4
    assert first["hkalgebra.verify_jacobi.calls"] == 2
    assert first["cli.main.calls"] == 1
    assert (hkalgebra.support, hkalgebra.verify_jacobi, symtensor.contract) == originals


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.layer_metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
