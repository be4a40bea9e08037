"""The benchmark corpus must give byte-identical reports.

perfbench/digests.json records the sha256 of stdout for every case of each
workload's seed-0 corpus.  This test loads perfbench/corpus.py from its
file, as the benchmark does, writes each case's quartic the way
perfbench/run.py writes it, runs it once through hksym.cli.main in-process
and compares the digest and the exit code, so a change that alters any
report on the corpus fails here, not only under the benchmark.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from hksym import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
SEED = 0


def load_corpus():
    spec = importlib.util.spec_from_file_location("perfbench_corpus", PERFBENCH / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(argv):
    """(exit code, sha256 of stdout) of one in-process call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_corpus_reports_match_recorded_digests(workload, tmp_path):
    cases = load_corpus().build(workload, SEED)
    assert sorted(c.id for c in cases) == sorted(DIGESTS[workload])
    wrong = []
    for i, case in enumerate(cases):
        path = tmp_path / ("%03d.json" % i)
        path.write_text(json.dumps(case.quartic, indent=2) + "\n", encoding="utf-8")
        got = run(case.argv + [str(path)])
        if got != (case.expect_exit, DIGESTS[workload][case.id]):
            wrong.append((case.id, got[0]))
    assert wrong == []
