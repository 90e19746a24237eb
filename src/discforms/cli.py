"""Command-line front end.

Exit codes: 0 success, 2 precondition failure, 3 internal consistency failure.
A reader that closes stdout early (`| head -1`) ends the command quietly with 0.
All reports are plain text and byte-deterministic for identical inputs.
"""

import argparse
import os
import sys
from fractions import Fraction

from . import dims, fqm, lattice, lifts, qseries, specfun, weil
from ._intmat import even_gram, rational
from .errors import ConsistencyError, PreconditionError


def _read_text(path):
    """Contents of an input file; a file that cannot be read is a precondition failure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise PreconditionError("cannot read %s: %s" % (path, exc.strerror or exc)) from None
    except UnicodeDecodeError:
        raise PreconditionError("%s is not UTF-8 text" % path) from None


def read_gram(path):
    """Gram file: first line the rank, then rank whitespace-separated rows."""
    tokens = _read_text(path).split()
    if not tokens:
        raise PreconditionError("empty gram file")
    if not tokens[0].isdecimal():
        raise PreconditionError("gram file must start with its rank, not %s" % tokens[0])
    r = int(tokens[0])
    vals = tokens[1:]
    if len(vals) != r * r:
        raise PreconditionError("gram file does not contain %d x %d entries" % (r, r))
    return even_gram([vals[i * r:(i + 1) * r] for i in range(r)])


def _cmd_fqm_info(args):
    module = fqm.fqm_from_gram(read_gram(args.gram))
    print(module.describe())
    print("order: %d" % module.order())
    print("level: %d" % module.level())
    print("signature: %d" % module.signature())
    return 0


def _cmd_weil_check(args):
    module = fqm.fqm_from_gram(read_gram(args.gram))
    witnesses = {}
    report = weil.relation_report(module, witnesses)
    for name in sorted(report):
        print("%s\t%s" % (name, "PASS" if report[name] else "FAIL"))
        if not report[name]:
            i, j, diff = witnesses[name]
            elts = module.elements()
            print("\tfirst difference at row %s, column %s: lhs - rhs = %r"
                  % (elts[i], elts[j], diff))
    return 0 if all(report.values()) else 3


def _cmd_vvmf_check(args):
    module = fqm.fqm_from_gram(read_gram(args.gram))
    series = qseries.read_series(_read_text(args.series), module)
    print("weight: %s" % series.weight)
    print("truncation: %s" % series.truncation)
    print("nonzero coefficients: %d" % series.nonzero_count())
    print("support classes: %d" % len(series.support()))
    print("support congruence: PASS")
    return 0


def _cmd_dims_table1(args):
    dims.check_table(args.nmax)
    for n in range(1, args.nmax + 1):
        print("%d\t%d" % (n, dims.picard_rank(n)))
    return 0


def _cmd_dims_report(args):
    module = fqm.fqm_from_gram(read_gram(args.gram))
    report = dims.dim_M(module, rational(args.weight, "weight"))
    for line in report.lines():
        print(line)
    return 0


def _cmd_lattice_split(args):
    lat = lattice.EvenLattice(read_gram(args.gram))
    try:
        ell = [int(x) for x in args.ell.split(",")]
    except ValueError:
        raise PreconditionError("malformed --ell %r" % args.ell) from None
    ell_tilde, k_lat, rows = lattice.split_UN(lat, ell)
    print("ell_tilde: " + ",".join(str(x) for x in ell_tilde))
    print("level: %d" % lat.level())
    print("k_gram:")
    for row in k_lat.gram:
        print(" ".join(str(x) for x in row))
    print("basis_rows:")
    for row in rows:
        print(" ".join(str(x) for x in row))
    return 0


def _parse_eta(text):
    scalar = 1
    exps = {}
    try:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" in part:
                d, r = part.split(":")
                exps[int(d)] = exps.get(int(d), 0) + int(r)
            else:
                scalar = int(part)
    except ValueError:
        raise PreconditionError("malformed eta quotient %r" % text) from None
    return scalar, exps


def _cmd_lifts_kernel(args):
    scalar, exps = _parse_eta(args.eta)
    kappa = rational(args.kappa, "kappa")
    truncation = rational(args.truncation, "truncation")
    bound = Fraction(args.qbound)
    series = lifts.eta_quotient(exps, args.p * bound) * scalar
    eps = None
    for candidate in (1, -1):
        try:
            nf = lifts.NewformData(series, candidate, kappa, args.p)
            eps = candidate
            break
        except PreconditionError:
            continue
    if eps is None:
        raise PreconditionError("series is not a level involution eigenform")
    vec, report = lifts.kernel_element(nf, args.n, kappa, truncation=truncation)
    print("eps: %d" % eps)
    print("condition: %s" % ("PASS" if report["condition"] else "FAIL"))
    coords, m, value = report["nonzero_witness"]
    print("nonzero_witness: mu=(%s) m=%s coeff=%s" % (
        ",".join(str(c) for c in coords), m, value))
    print("components: %d" % len(vec.support()))
    return 0


def _cmd_specfun_vkappa(args):
    result = specfun.v_kappa(args.kappa, args.a, args.b)
    print("value: %.15g" % result.value)
    print("error_estimate: %.3g" % result.error_estimate)
    print("evaluations: %d" % result.evaluations)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="discforms",
        description="Exact discriminant-form and Weil-representation computations")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_fqm = sub.add_parser("fqm", help="finite quadratic module operations")
    fqm_sub = p_fqm.add_subparsers(dest="cmd", required=True)
    p = fqm_sub.add_parser("info", help="describe the discriminant form of a gram file")
    p.add_argument("--gram", required=True)
    p.set_defaults(func=_cmd_fqm_info)

    p_weil = sub.add_parser("weil", help="Weil representation checks")
    weil_sub = p_weil.add_subparsers(dest="cmd", required=True)
    p = weil_sub.add_parser("check", help="run the exact relation suite")
    p.add_argument("--gram", required=True)
    p.set_defaults(func=_cmd_weil_check)

    p_vv = sub.add_parser("vvmf", help="vector-valued series utilities")
    vv_sub = p_vv.add_subparsers(dest="cmd", required=True)
    p = vv_sub.add_parser("check", help="validate a series file against a gram file")
    p.add_argument("--gram", required=True)
    p.add_argument("--series", required=True)
    p.set_defaults(func=_cmd_vvmf_check)

    p_dims = sub.add_parser("dims", help="dimension formulas")
    dims_sub = p_dims.add_subparsers(dest="cmd", required=True)
    p = dims_sub.add_parser("table1", help="Picard rank table rows")
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=_cmd_dims_table1)
    p = dims_sub.add_parser("report", help="dimension report for a gram file and weight")
    p.add_argument("--gram", required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=_cmd_dims_report)

    p_lat = sub.add_parser("lattice", help="even lattice operations")
    lat_sub = p_lat.add_subparsers(dest="cmd", required=True)
    p = lat_sub.add_parser("split", help="split a rescaled hyperbolic plane")
    p.add_argument("--gram", required=True)
    p.add_argument("--ell", required=True)
    p.set_defaults(func=_cmd_lattice_split)

    p_lift = sub.add_parser("lifts", help="scalar-to-vector lifts")
    lift_sub = p_lift.add_subparsers(dest="cmd", required=True)
    p = lift_sub.add_parser("kernel", help="kernel-element construction from an eta quotient")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--kappa", required=True)
    p.add_argument("--eta", required=True,
                   help="comma-separated d:r pairs, optional leading constant")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--qbound", type=int, default=100,
                   help="verify the coefficient condition up to this index")
    p.add_argument("--truncation", default="2")
    p.set_defaults(func=_cmd_lifts_kernel)

    p_sf = sub.add_parser("specfun", help="special function evaluation")
    sf_sub = p_sf.add_subparsers(dest="cmd", required=True)
    p = sf_sub.add_parser("vkappa", help="evaluate the special integral")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(func=_cmd_specfun_vkappa)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout, as `| head -1` does: stdout goes to devnull, so that
        # the flush at exit writes nowhere, and the command ends quietly with 0
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except PreconditionError as exc:
        print("precondition failure: %s" % exc, file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print("consistency failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
