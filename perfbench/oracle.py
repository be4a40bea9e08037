"""Correctness checks on one call's exit code and report.

Expected verdicts come from how corpus.py built each input, not from the
program.  check_case() returns a list of failure messages, empty when the
call is correct.
"""

import hashlib
import json

from hksym.exactnum import GaussRat, ScalarError
from hksym.symplectic import Subspace, SymplecticSpace, is_isotropic
from hksym.symtensor import quartic_from_dict, tensor_in_subspace_power

from corpus import literal_bits

# report fields that hold no exact numbers
_NOT_NUMBERS = ("tool_version", "input_sha256")


def check_case(case, code, stdout, input_text):
    if code != case.expect_exit:
        return ["exit %s, expected %d" % (code, case.expect_exit)]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not one JSON report"]
    try:
        return _check_report(case, report, input_text)
    except (KeyError, TypeError, ValueError, ScalarError) as exc:
        return ["report is missing or mangles a field: %r" % (exc,)]


def _check_report(case, report, input_text):
    failures = []
    if report["input_sha256"] != hashlib.sha256(input_text.encode("utf-8")).hexdigest():
        failures.append("input_sha256 does not match the input file")
    command = case.argv[0]
    if command == "analyze":
        failures += _check_analyze(case, report)
    elif command == "verify":
        failures += _check_verify(case, report)
    elif command == "classify8":
        failures += _check_classify8(case, report)
    return failures


def _check_analyze(case, report):
    failures = []
    if case.expect_exit == 2:
        if report["invariance_ok"] is not False or not report["invariance_witness"]:
            failures.append("rejection without an invariance witness")
        return failures
    for key in ("invariance_ok", "jacobi_ok", "ricci_zero"):
        if report[key] is not True:
            failures.append("%s is %r" % (key, report[key]))
    n = case.expect.get("lagrangian")
    if n is not None:
        s = quartic_from_dict(case.quartic)
        basis = [tuple(GaussRat.parse(c) for c in row) for row in report["lagrangian_found"]]
        lag = Subspace(SymplecticSpace(n), basis)
        if lag.dim != n or not is_isotropic(lag):
            failures.append("reported E_+ is not Lagrangian")
        elif not tensor_in_subspace_power(s, lag):
            failures.append("S is not in S^4 of the reported Lagrangian")
    signature = case.expect.get("signature")
    if signature is not None:
        if report["signature"] != signature:
            failures.append("signature %r, expected %r" % (report["signature"], signature))
        if report["reality"]["tau_fixed"] is not True:
            failures.append("tau-fixed input reported as not tau-fixed")
    return failures


def _check_verify(case, report):
    checks = report["checks"]
    requested = [flag[2:] for flag in case.argv if flag in ("--invariance", "--jacobi", "--reality")]
    if sorted(checks) != sorted(requested):
        return ["checks %s, requested %s" % (sorted(checks), sorted(requested))]
    failures = []
    all_ok = all(c["ok"] is True for c in checks.values())
    if all_ok != (case.expect_exit == 0):
        failures.append("check verdicts %r disagree with the exit code" % (checks,))
    if case.expect.get("witness") and not checks["invariance"]["witness"]:
        failures.append("rejection without an invariance witness")
    return failures


def _check_classify8(case, report):
    failures = []
    letter = case.expect.get("petrov")
    if letter is not None and report["type"] != letter:
        failures.append("petrov:%s classified as %r" % (letter, report["type"]))
    real = "--real" in case.argv
    if report["mode"] != ("real" if real else "complex"):
        failures.append("mode %r" % (report["mode"],))
    if real and not report["real_class"]["kind"]:
        failures.append("real mode without a real class")
    return failures


def report_bits(value, key=None):
    """Largest numerator or denominator bit length among a report's numbers."""
    if isinstance(value, dict):
        return max((report_bits(v, k) for k, v in value.items()), default=0)
    if isinstance(value, list):
        return max((report_bits(v, key) for v in value), default=0)
    if isinstance(value, str) and key not in _NOT_NUMBERS:
        try:
            return literal_bits(value)
        except ScalarError:
            return 0
    return 0
