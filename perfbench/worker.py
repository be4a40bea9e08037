"""The workload process: runs cases through hksym.cli.main in a closed loop.

    python3 worker.py MANIFEST RESULT

run.py writes MANIFEST ({"src", "seconds", "trace", "cases": [{"id", "argv"}]})
and starts this file as a fresh process, so that its peak memory is the
workload's own.  One client sends the next call only when the previous one
has returned.  Passes over all cases repeat while the next one is expected
to end within "seconds", and at least MIN_PASSES run, so every timing is a
median over passes and stdout can be compared across passes.

The host's speed drifts by 10-45% over seconds to minutes, alike for every
pure-Python computation on it.  While untraced passes run, HostSpeed times a
fixed loop of exact rational arithmetic twenty times a second from a signal
handler, so that run.py can tell how fast the host was during each call.
Calls are timed without the handler's time.

With "trace" set, one untraced pass runs, then one pass under the tracer.
RESULT receives exit codes, the first pass's stdout and stderr, per-pass
stdout digests and timings, the host speed samples, the peak RSS, and the
spans when traced.
"""

import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

MIN_PASSES = 2
REF_INTERVAL_S = 0.05
# reference()'s mean time on the machine of the baseline (BENCH_baseline.json)
REF_NOMINAL_S = 0.00035


def reference():
    """A fixed stretch of exact rational arithmetic, the kind of work hksym
    does, that no change to hksym can make faster or slower."""
    x = Fraction(1, 3)
    for i in range(40):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, 7)
    return x


class HostSpeed:
    """Times reference() every REF_INTERVAL_S while it is on.

    A SIGALRM handler runs it between the bytecodes of whatever this
    process is doing, so the samples (start, seconds) cover every call, long
    or short, evenly in time.  spent is their total, which run_case takes
    out of the call's time.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference()
        elapsed = time.perf_counter() - start
        self.samples.append((start, elapsed))
        self.spent += elapsed

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_case(cli, argv, host=None):
    """(exit code, stdout, stderr, start, seconds) of one in-process call;
    the time host spent sampling during the call is not counted."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    spent = host.spent if host else 0.0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            # an escaped exception is a program fault; the oracle reports it
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    if host:
        elapsed -= host.spent - spent
    return code, out.getvalue(), err.getvalue(), start, elapsed


def run_pass(cli, cases, tracer=None, host=None):
    rows = []
    for case in cases:
        if tracer is not None:
            tracer.case = case["id"]
        code, out, err, start, elapsed = run_case(cli, case["argv"], host)
        rows.append({
            "exit": code,
            "stdout": out,
            "stderr": err,
            "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
            "start": start,
            "seconds": elapsed,
        })
    return rows


def peak_rss_kb():
    """High-water RSS of this process image.

    /proc's VmHWM leaves out the parent's memory, which ru_maxrss counts for
    a child started by fork and exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(manifest_path, result_path):
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    sys.path.insert(0, manifest["src"])
    from hksym import cli

    cases = manifest["cases"]
    passes = []
    spans = counts = samples = None
    if manifest["trace"]:
        from tracer import Tracer

        passes.append(run_pass(cli, cases))
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(cli, cases, tracer))
        finally:
            tracer.uninstall()
        spans = tracer.spans
        counts = [[case, metric, n] for (case, metric), n in tracer.counts.items()]
    else:
        start = time.perf_counter()
        with HostSpeed() as host:
            while True:
                passes.append(run_pass(cli, cases, host=host))
                elapsed = time.perf_counter() - start
                last = sum(row["seconds"] for row in passes[-1])
                if len(passes) >= MIN_PASSES and elapsed + last > manifest["seconds"]:
                    break
        samples = host.samples
    # only the first pass keeps its text; the others are compared by digest
    for rows in passes[1:]:
        for row in rows:
            del row["stdout"], row["stderr"]
    result = {"passes": passes, "host_samples": samples, "peak_rss_kb": peak_rss_kb(),
              "spans": spans, "counts": counts}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
