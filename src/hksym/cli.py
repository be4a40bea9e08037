"""Command line interface: parse quartic files, run analyses and verifications,
classify dim-8 cases and generate example quartics.

The real mode follows the library's rule: a quaternionic structure j selects
it.  j is the --j file when one is given, else the default split j under
--real (analyze, classify8) or --reality (verify); with neither flag nor file
the command runs in complex mode.  The argument parser is built once per
process, so main only parses.

Exit codes: 0 all requested checks pass; 2 the quartic is mathematically
rejected (fails invariance, or reality in real mode); 1 operational failure
(I/O, malformed input, bad flags); 3 internal error (a certified guarantee
failed, TheoremViolationError: a bug in hksym, not a property of the input).
"""

import argparse
import functools
import hashlib
import json
import sys

from . import __version__
from .exactnum import MAX_DIGITS, ContractError, ScalarError, TheoremViolationError
from .symplectic import quaternionic_from_json, standard_split_j
from .symtensor import double_contractions, quartic_from_dict, quartic_to_dict
from .hkalgebra import (
    NotHyperKahlerError,
    analyze_quartic,
    build_complex_algebra,
    certify_invariance,
    find_lagrangian,
    holonomy,
)
from .realform import RealityError, check_reality
from .dim8 import classify_complex8, classify_real8
from .generators import GENERATOR_KINDS, make_generator

# only a text with a run of more than MAX_DIGITS digits needs the parse_int
# hook, which costs a call per integer; the run is found as a run of zeros
# in the text with every digit read as 0 (a tenth of a regex scan's time)
_DIGITS_AS_ZERO = str.maketrans("0123456789", "0" * 10)
_LONG_RUN = "0" * (MAX_DIGITS + 1)


def _parse_json(raw, record):
    """json.loads, refusing a repeated key, an integer of more than
    MAX_DIGITS digits and nesting too deep for the parser as a malformed
    record."""

    def unique_keys(pairs):
        out = {}
        for key, value in pairs:
            if key in out:
                raise ContractError("malformed %s record: duplicate key %r" % (record, key))
            out[key] = value
        return out

    def bounded_int(digits):
        # refused before int() reads it, whatever PYTHONINTMAXSTRDIGITS says
        if len(digits.lstrip("-")) > MAX_DIGITS:
            raise ContractError("malformed %s record: an integer has a digit string over %d digits"
                                % (record, MAX_DIGITS))
        return int(digits)

    hooks = {"parse_int": bounded_int} if _LONG_RUN in raw.translate(_DIGITS_AS_ZERO) else {}
    try:
        return json.loads(raw, object_pairs_hook=unique_keys, **hooks)
    except RecursionError:
        raise ContractError("malformed %s record: JSON nested too deeply" % record) from None


def _read_quartic(path):
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    s = quartic_from_dict(_parse_json(raw, "quartic"))
    digest = hashlib.sha256(raw.encode("utf-8")).hexdigest()
    return s, digest


def _load_j(args, sp):
    """The quaternionic structure that selects the real mode, or None for the
    complex mode: the --j file if one is given, else the default split j
    under --real (--reality for verify), else None."""
    if args.j:
        with open(args.j, "r", encoding="utf-8") as fh:
            data = _parse_json(fh.read(), "quaternionic structure")
        return quaternionic_from_json(data, ambient=sp)
    if args.real:
        return standard_split_j(sp)
    return None


def _emit(args, payload, human_lines):
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    else:
        for line in human_lines:
            sys.stdout.write(line + "\n")


def cmd_analyze(args):
    s, digest = _read_quartic(args.file)
    report = analyze_quartic(s, j=_load_j(args, s.space))
    payload = {"tool_version": __version__, "input_sha256": digest}
    payload.update(report.to_dict())
    lines = []
    if not report.invariance_ok:
        lines.append("invariance: FAIL (witness basis pair %s)" % (report.invariance_witness,))
        _emit(args, payload, lines)
        return 2
    lines.append("invariance: pass")
    lines.append(
        "holonomy: dim %d, abelian=%s, solvable=%s"
        % (report.holonomy.dimension, report.holonomy.is_abelian, report.holonomy.is_solvable)
    )
    lines.append("support: dim %d, isotropic=%s" % (report.support_dim, report.support_isotropic))
    lines.append("lagrangian: %s" % report.lagrangian_found.to_strings())
    lines.append("flat complex dim: %d" % report.flat_complex_dim)
    lines.append("jacobi: %s" % ("pass" if report.jacobi_ok else "FAIL"))
    lines.append("ricci zero: %s" % ("pass" if report.ricci_zero else "FAIL"))
    exit_code = 0
    rl = report.reality
    if rl is not None:
        lines.append(
            "reality: commutator=%s tau-fixed=%s"
            % (rl["commutator_condition_ok"], rl["tau_fixed"])
        )
        if report.signature is not None:
            lines.append("signature on m: (%d, %d)" % tuple(report.signature))
        if not rl["commutator_condition_ok"]:
            exit_code = 2
    if report.classification is not None:
        lines.append("classification: %s" % report.classification)
    _emit(args, payload, lines)
    return exit_code


def cmd_verify(args):
    s, digest = _read_quartic(args.file)
    q = witness = None
    if args.invariance or args.jacobi:
        try:
            q = certify_invariance(s)
        except NotHyperKahlerError as exc:
            witness = exc.witness
    checks = {}
    lines = []
    invariant = q is not None
    witness_field = list(witness) if witness else None
    if args.invariance:
        checks["invariance"] = {"ok": invariant, "witness": witness_field}
        lines.append(
            "invariance: %s" % ("pass" if invariant else "FAIL (witness basis pair %s)" % (witness,))
        )
    if args.jacobi:
        # invariance <=> Jacobi: the algebra is built only for an invariant
        # quartic, and verify_model certifies its Jacobi identity or raises
        if invariant:
            build_complex_algebra(q, holonomy(q))
        checks["jacobi"] = {"ok": invariant, "witness": witness_field}
        lines.append("jacobi: %s" % ("pass" if invariant else "FAIL (witness %s)" % (witness,)))
    failed = (args.invariance or args.jacobi) and not invariant
    j = _load_j(args, s.space)
    if j is not None:
        table = q.table if invariant else dict(double_contractions(s))
        rep = check_reality(s, j, table)
        ok = rep.commutator_condition_ok and rep.tau_fixed
        checks["reality"] = {
            "ok": ok,
            "commutator_condition_ok": rep.commutator_condition_ok,
            "tau_fixed": rep.tau_fixed,
        }
        lines.append("reality: %s" % ("pass" if ok else "FAIL"))
        failed = failed or not ok
    payload = {"tool_version": __version__, "input_sha256": digest, "checks": checks}
    _emit(args, payload, lines)
    return 2 if failed else 0


def cmd_classify8(args):
    s, digest = _read_quartic(args.file)
    if s.space.n != 2:
        raise ContractError("classify8 needs a quartic on dim E = 4 (n = 2)")
    q = certify_invariance(s)
    j = _load_j(args, s.space)
    if j is not None:
        cls, rc = classify_real8(s, j, q.support)
    else:
        cls = classify_complex8(s, find_lagrangian(q))
    payload = {"tool_version": __version__, "input_sha256": digest}
    payload.update(cls.to_dict())
    payload["mode"] = "complex" if j is None else "real"
    lines = ["type: %s" % cls.type_tag, "pattern: %s" % (list(cls.multiplicity_pattern),)]
    if cls.projective_invariant is not None:
        first, second = cls.projective_invariant
        shown = "at infinity" if not first else str(second)
        lines.append("invariant (I^3 : J^2): %s" % shown)
    if j is not None:
        payload["real_class"] = rc.to_dict()
        lines.append("real class: %s" % rc.to_dict())
    _emit(args, payload, lines)
    return 0


def cmd_generate(args):
    s = make_generator(args.kind, args.seed)
    text = json.dumps(quartic_to_dict(s), indent=2, sort_keys=False) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def build_parser():
    """The hksym argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="hksym",
        description="Exact analysis of hyper-Kahler symmetric spaces defined by quartics.",
    )
    parser.add_argument("--version", action="version", version="hksym %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    reports = argparse.ArgumentParser(add_help=False)
    reports.add_argument("--j", help="JSON file with a custom quaternionic structure; "
                                     "selects the real mode")
    reports.add_argument("--json", action="store_true", help="emit a JSON report")
    real = argparse.ArgumentParser(add_help=False)
    real.add_argument("--real", action="store_true",
                      help="real mode with the default quaternionic structure")

    pa = sub.add_parser("analyze", parents=[real, reports],
                        help="run the full verification pipeline on a quartic file")
    pa.add_argument("file")
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", parents=[reports], help="run selected checks only")
    pv.add_argument("file")
    pv.add_argument("--invariance", action="store_true")
    pv.add_argument("--jacobi", action="store_true")
    # dest real: _load_j reads --reality as the other commands' --real
    pv.add_argument("--reality", dest="real", action="store_true",
                    help="check reality, with the default quaternionic structure")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("classify8", parents=[real, reports],
                        help="classify a dim-8 case (quartic on dim E = 4)")
    pc.add_argument("file")
    pc.set_defaults(func=cmd_classify8)

    pg = sub.add_parser(
        "generate",
        help="write an example quartic file; kinds: %s" % ", ".join(GENERATOR_KINDS),
    )
    pg.add_argument("kind")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("-o", "--output", help="output path (default stdout)")
    pg.set_defaults(func=cmd_generate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify" and not (args.invariance or args.jacobi or args.real or args.j):
            parser.error("verify requires at least one of --invariance, --jacobi, --reality, --j")
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for mathematical
        # rejection, so usage problems map to the operational code 1
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except (OSError, ValueError, ScalarError, ContractError) as exc:
        # ValueError covers json.JSONDecodeError
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except (NotHyperKahlerError, RealityError) as exc:
        sys.stderr.write("rejected: %s\n" % exc)
        return 2
    except TheoremViolationError as exc:
        sys.stderr.write("internal error: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
