"""Seeded benchmark for hksym's analyze, verify and classify8.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; hksym is imported from ./src, nothing is
installed.  NAME is one of corpus.WORKLOADS, or "all" to run each in turn.

The run builds the workload's quartic files from the seed (corpus.py),
starts worker.py as a fresh process that calls hksym.cli.main on them in a
closed loop with one client for about S seconds, and times a fresh
interpreter running `hksym --version` SETUP_RUNS times, one after another,
half of them before the worker and half after it.
Every call is checked (oracle.py): exit code against the verdict the input
was built to have, the report's own certificates, stdout byte-identical
across passes and, for seed DEFAULT_SEED, equal to the digests recorded in
digests.json.  Any failure makes the run exit 1.

--trace 0 reports the end-to-end metrics: setup_s (median of SETUP_RUNS
runs); wall_s (one pass), case_p50_s and case_p90_s (per-call latency
percentiles), each from the calls taken at their median over passes;
max_case_s (the median of all calls of the slowest kind, see corpus.Case);
and peak_rss_mb (the worker's peak RSS).  The four call timings are given
at the host speed of the baseline: each call's time is scaled by how much
slower or faster than REF_NOMINAL_S the fixed reference loop of worker.py
ran while the call ran, because this host's speed drifts by 10-45% within
a minute.  The unscaled wall_s and max_case_s are printed as well.  setup_s
is not scaled: the loop's speed does not track that of starting a process.
failed_frac is printed; the result carries it as "failed" / "attempted".

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of tracer.py for the traced pass, the largest coefficient height in
inputs and reports, and the tracing overhead (traced minus untraced pass).
Per-case counts are printed; spans and digests go to
.perfbench_out/<workload>-seed<seed>.json.

The last line of stdout is the JSON result.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

from tracer import metric_names, summarize
from worker import REF_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 0
SETUP_RUNS = 10
WORKER_TIMEOUT_S = 160
SPEED_WINDOW_S = 1.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("max_case_s", "s"),
    ("case_p50_s", "s"),
    ("case_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def layer_metric_names():
    return metric_names() + [("exactnum.coeff_bits.max", "bits"), ("trace.overhead_s", "s")]


def run_worker(manifest, work):
    manifest_path = work / "manifest.json"
    result_path = work / "result.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(manifest_path), str(result_path)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish within %d s" % WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError("worker exited %d: %s" % (proc.returncode, proc.stderr.strip()))
    return json.loads(result_path.read_text(encoding="utf-8"))


def measure_setup(version, runs):
    """Wall times of runs fresh interpreters running `hksym --version`, one
    after another, and failure messages."""
    code = ("import sys; sys.path.insert(0, %r); from hksym.cli import main; "
            "sys.exit(main(['--version']))" % str(SRC))
    times, failures = [], []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or proc.stdout != "hksym %s\n" % version:
            failures.append("setup: --version exited %d with %r"
                            % (proc.returncode, proc.stdout))
    return times, failures


def check_passes(cases, texts, passes, recorded, oracle):
    """Failure messages per case id, one entry per failed call."""
    failures = {}
    first = passes[0]
    for i, case in enumerate(cases):
        messages = oracle.check_case(case, first[i]["exit"], first[i]["stdout"], texts[i])
        if recorded is not None and recorded.get(case.id) != first[i]["sha256"]:
            messages.append("stdout differs from the digest recorded for seed %d" % DEFAULT_SEED)
        case_failures = [messages] if messages else []
        for rows in passes[1:]:
            if messages:
                case_failures.append(messages)
            elif (rows[i]["exit"], rows[i]["sha256"]) != (first[i]["exit"], first[i]["sha256"]):
                case_failures.append(["stdout or exit code changed between passes"])
        if case_failures:
            if first[i]["stderr"]:
                case_failures[0] = case_failures[0] + [first[i]["stderr"].strip()]
            failures[case.id] = case_failures
    return failures


def nearest_rank(ordered, q):
    """The q-quantile as an observed value; interpolating would blend the
    few heavy cases of a workload with the light ones."""
    return ordered[math.ceil(q * len(ordered)) - 1]


def scaled_seconds(passes, samples):
    """Each call's time at the host speed of the baseline: scaled by
    REF_NOMINAL_S over the mean time of the reference samples taken while
    the call ran, or within SPEED_WINDOW_S around it if it was shorter (all
    of the run's, if none fell there)."""
    samples = sorted(samples)
    starts = [t for t, _ in samples]
    scaled = []
    for rows in passes:
        times = []
        for row in rows:
            middle = row["start"] + row["seconds"] / 2
            half = max(row["seconds"], SPEED_WINDOW_S) / 2
            window = samples[bisect_left(starts, middle - half):bisect_right(starts, middle + half)]
            window = window or samples
            times.append(row["seconds"] * REF_NOMINAL_S / statistics.fmean(d for _, d in window))
        scaled.append(times)
    return scaled


def end_to_end_metrics(cases, seconds, setup_s, peak_rss_kb):
    # Each case is taken at its median over passes before cases are
    # combined, and the slowest kind at the median of all its calls, which
    # are spread over the run.
    per_case = [statistics.median(times[i] for times in seconds) for i in range(len(cases))]
    per_kind = {}
    for i, case in enumerate(cases):
        per_kind.setdefault(case.kind, []).extend(times[i] for times in seconds)
    calls = sorted(per_case)
    return {
        "setup_s": setup_s,
        "wall_s": sum(per_case),
        "max_case_s": max(statistics.median(v) for v in per_kind.values()),
        "case_p50_s": nearest_rank(calls, 0.5),
        "case_p90_s": nearest_rank(calls, 0.9),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def layer_metrics(result, cases, passes, oracle):
    spans = [tuple(s) for s in result["spans"]]
    counts = {(case, metric): n for case, metric, n in result["counts"]}
    metrics, per_case = summarize(spans, counts)
    bits = [case.coeff_bits for case in cases]
    for row in passes[0]:
        try:
            bits.append(oracle.report_bits(json.loads(row["stdout"])))
        except json.JSONDecodeError:
            pass
    metrics["exactnum.coeff_bits.max"] = max(bits)
    untraced, traced = (sum(r["seconds"] for r in rows) for rows in passes)
    metrics["trace.overhead_s"] = traced - untraced
    return metrics, per_case


def run_workload(workload, seed, seconds, trace):
    """Print one workload's report lines; return (metrics, attempted, failed)."""
    import corpus
    import oracle

    from hksym import __version__

    cases = corpus.build(workload, seed)
    # half of the starts before the workload and half after, so that setup_s
    # does not rest on one moment of the host's drifting speed
    setup_times, setup_failures = measure_setup(__version__, SETUP_RUNS // 2)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        texts, entries = [], []
        for i, case in enumerate(cases):
            path = work / ("%03d.json" % i)
            text = json.dumps(case.quartic, indent=2) + "\n"
            path.write_text(text, encoding="utf-8")
            texts.append(text)
            entries.append({"id": case.id, "argv": case.argv + [str(path)]})
        manifest = {"src": str(SRC), "seconds": seconds, "trace": trace, "cases": entries}
        result = run_worker(manifest, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    passes = result["passes"]
    times, messages = measure_setup(__version__, SETUP_RUNS - SETUP_RUNS // 2)
    setup_s = statistics.median(setup_times + times)
    setup_failures += messages
    recorded = None
    if seed == DEFAULT_SEED:
        recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8")).get(workload, {})
    failures = check_passes(cases, texts, passes, recorded, oracle)
    attempted = len(cases) * len(passes) + SETUP_RUNS
    failed = sum(len(v) for v in failures.values()) + len(setup_failures)

    record = {"workload": workload, "seed": seed,
              "digests": {c.id: r["sha256"] for c, r in zip(cases, passes[0])},
              "seconds": {c.id: [rows[i]["seconds"] for rows in passes]
                          for i, c in enumerate(cases)}}
    if trace:
        metrics, per_case = layer_metrics(result, cases, passes, oracle)
        units = dict(layer_metric_names())
        for case in cases:
            counts = per_case.get(case.id, {})
            shown = ", ".join("%s=%d" % (k, counts[k]) for k in sorted(counts))
            print("case %s/%s: %s" % (workload, case.id, shown))
        record["per_case"] = per_case
        record["spans"] = result["spans"]
    else:
        seconds = scaled_seconds(passes, result["host_samples"])
        metrics = end_to_end_metrics(cases, seconds, setup_s, result["peak_rss_kb"])
        units = dict(END_TO_END)
        raw = end_to_end_metrics(cases, [[r["seconds"] for r in rows] for rows in passes],
                                 setup_s, result["peak_rss_kb"])
        ref = [d for _, d in result["host_samples"]]
        print("%s reference(): %.4f ms mean of %d samples, %s ms nominal; unscaled wall_s = %s s,"
              " max_case_s = %s s" % (workload, 1e3 * statistics.fmean(ref), len(ref),
                                      1e3 * REF_NOMINAL_S, raw["wall_s"], raw["max_case_s"]))
        record["scaled_seconds"] = {c.id: [times[i] for times in seconds]
                                    for i, c in enumerate(cases)}
    (OUT / ("%s-seed%d.json" % (workload, seed))).write_text(json.dumps(record), encoding="utf-8")

    for message in setup_failures:
        print("FAIL %s" % message)
    for case_id, case_failures in failures.items():
        print("FAIL %s/%s: %s" % (workload, case_id, "; ".join(case_failures[0])))
    print("%s: %d cases, %d passes, %d terms max, %d coefficient bits max"
          % (workload, len(cases), len(passes), max(c.terms for c in cases),
             max(c.coeff_bits for c in cases)))
    for name, value in metrics.items():
        print("%s %s = %s %s" % (workload, name, value, units[name]))
    print("%s failed_frac = %s" % (workload, failed / attempted), flush=True)
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}, \
        attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of corpus.py, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hksym" / "__init__.py").is_file():
        sys.stderr.write("error: no hksym sources in %s\n" % SRC)
        return 2
    # corpus and oracle import hksym, so the source tree goes first on the path
    sys.path.insert(0, str(SRC))
    import hksym

    if Path(hksym.__file__).resolve().parent != SRC / "hksym":
        sys.stderr.write("error: hksym was imported from %s\n" % hksym.__file__)
        return 2

    import corpus

    if args.workload != "all" and args.workload not in corpus.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(corpus.WORKLOADS + ("all",))))
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for workload in workloads:
            m, a, f = run_workload(workload, args.seed, args.seconds, args.trace)
            prefix = "" if len(workloads) == 1 else workload + "."
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    if len(workloads) > 1:
        print("all failed_frac = %s" % (failed / attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
