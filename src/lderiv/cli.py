"""Command-line surface: char / special / eval / zeros / verify.

All output is structured (JSON by default, CSV for verify --csv), written
to stdout or --out.  Runs are seed-free and deterministic: repeating a
command reproduces the output byte for byte.

Exit codes: 0 success, 1 at least one check failed, 2 usage error,
3 numerical-precision error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .characters import enumerate_primitive, from_label
from .errors import DomainError, NumericalError
from .lfunc import eval_F, eval_G, eval_L, eval_L_point, eval_Lprime
from .report import CSV_COLUMNS
from .special import digamma, prime_log_sum
from .verify import (
    GridSpec,
    check_reference_constants,
    check_region_negativity,
    check_speiser,
    check_near_origin_strip,
    check_count_asymptotic,
    check_distance_sum_asymptotic,
    run_all,
)
from .zeros import count_N1, count_strip, list_zeros, locate_trivial_zero, rectangle


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        out_dir = os.environ.get("LDERIV_OUT_DIR")
        if out_dir:
            raise DomainError("--out FILE is required when LDERIV_OUT_DIR is set without a name")
        sys.stdout.write(text + "\n")
        return
    out_dir = os.environ.get("LDERIV_OUT_DIR", "")
    path = os.path.join(out_dir, out) if out_dir and not os.path.isabs(out) else out
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _emit_json(obj, out) -> None:
    _write_output(json.dumps(obj, sort_keys=True), out)


def _cmd_char(args) -> int:
    chars = enumerate_primitive(args.q)
    rows = [
        {"label": c.label, "order": c.order, "kappa": c.kappa,
         "conductor": c.conductor, "m": c.m}
        for c in chars
        if not args.quadratic_only or c.is_quadratic
    ]
    _emit_json(rows, args.out)
    return 0


def _cmd_special(args) -> int:
    if args.special_cmd == "digamma":
        v = digamma(complex(args.re, args.im))
        _emit_json({"re": v.value.real, "im": v.value.imag, "err": v.err}, args.out)
    else:
        ts = prime_log_sum(args.sigma, args.q, args.N)
        _emit_json({"value": ts.value, "tail_bound": ts.tail_bound}, args.out)
    return 0


def _cmd_eval(args) -> int:
    chi = from_label(args.q, args.label)
    s = complex(args.re, args.im)
    what = args.what
    if what == "L":
        v = eval_L(chi, s)
    elif what == "Lprime":
        v = eval_Lprime(chi, s)
    elif what == "G":
        v = eval_G(chi, s)
    elif what == "F":
        v = eval_F(chi, s).F
    else:
        pt = eval_L_point(chi, s)
        if pt.logderiv is None:
            raise NumericalError(f"L({s}) below the near-zero noise floor; L'/L unusable")
        v = pt.logderiv
    _emit_json({"re": v.value.real, "im": v.value.imag, "err": v.err}, args.out)
    return 0


def _cmd_zeros(args) -> int:
    chi = from_label(args.q, args.label)
    if args.zeros_cmd == "count":
        if args.region == "right":
            n = count_N1(chi, args.T)
        else:
            n = count_strip(chi, args.T, args.which)
        _emit_json({"q": args.q, "label": args.label, "T": args.T,
                    "which": args.which, "region": args.region, "count": n}, args.out)
        return 0
    if args.zeros_cmd == "trivial":
        recs = [locate_trivial_zero(chi, j) for j in range(1, args.jmax + 1)]
        _emit_json([r.to_dict() for r in recs], args.out)
        return 0
    try:
        a, b, c, d = (float(x) for x in args.rect.split(","))
    except ValueError as exc:
        raise DomainError("--rect expects four comma-separated reals a,b,c,d") from exc
    recs = list_zeros(chi, rectangle(a, b, c, d), args.which)
    _emit_json([r.to_dict() for r in recs], args.out)
    return 0


_CHECKS = ("all", "region", "origin-strip", "counting", "sum-rule", "speiser", "constants")


def _checks_for(args, chi) -> list:
    if args.check == "all":
        return run_all(chi, T=args.T, with_constants=(args.label != "all"))
    if args.check == "region":
        grid = None if args.spacing is None else GridSpec(dsigma=args.spacing, dt=args.spacing)
        return [check_region_negativity(chi, args.region, grid)]
    if args.check == "origin-strip":
        return [check_near_origin_strip(chi)]
    if args.check == "counting":
        return [check_count_asymptotic(chi, args.T)]
    if args.check == "sum-rule":
        return [check_distance_sum_asymptotic(chi, args.T)]
    return [check_speiser(chi, args.T)]


def _cmd_verify(args) -> int:
    label = args.label
    if label != "all":
        try:
            label = int(label)
        except ValueError as exc:
            raise DomainError(f"--label expects an integer or 'all', got {label!r}") from exc
    if args.check == "constants":
        reports = check_reference_constants()
    else:
        chars = enumerate_primitive(args.q) if label == "all" else [from_label(args.q, label)]
        reports = []
        for chi in chars:
            reports.extend(_checks_for(args, chi))
        if label == "all":
            reports.sort(key=lambda r: (str(r.params.get("label")), r.name,
                                        str(sorted(r.params.items()))))
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in reports:
            writer.writerow(r.csv_row())
        _write_output(buf.getvalue().rstrip("\n"), args.out)
    else:
        _emit_json([r.to_dict(with_runtime=args.timings) for r in reports], args.out)
    return 1 if any(r.passed is False for r in reports) else 0


def build_parser() -> argparse.ArgumentParser:
    out_help = "write output to this file instead of stdout"
    p = argparse.ArgumentParser(prog="lderiv",
                                description="Dirichlet L-functions and zeros of L'")
    p.add_argument("--out", help=out_help)
    # every subcommand takes --out too; SUPPRESS keeps a subparser from
    # resetting a value given before the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS, help=out_help)
    sub = p.add_subparsers(dest="cmd", required=True)

    pc = sub.add_parser("char", help="character enumeration")
    csub = pc.add_subparsers(dest="char_cmd", required=True)
    cl = csub.add_parser("list", parents=[common])
    cl.add_argument("--q", type=int, required=True)
    cl.add_argument("--quadratic-only", action="store_true")

    ps = sub.add_parser("special", help="special-function evaluations")
    ssub = ps.add_subparsers(dest="special_cmd", required=True)
    sd = ssub.add_parser("digamma", parents=[common])
    sd.add_argument("--re", type=float, required=True)
    sd.add_argument("--im", type=float, default=0.0)
    sp = ssub.add_parser("primesum", parents=[common])
    sp.add_argument("--sigma", type=float, required=True)
    sp.add_argument("--q", type=int, default=1)
    sp.add_argument("--N", type=int, default=100000)

    pe = sub.add_parser("eval", help="evaluate L-family functions at a point",
                        parents=[common])
    pe.add_argument("--q", type=int, required=True)
    pe.add_argument("--label", type=int, required=True)
    pe.add_argument("--re", type=float, required=True)
    pe.add_argument("--im", type=float, default=0.0)
    pe.add_argument("--what", choices=("L", "Lprime", "logderiv", "G", "F"), default="L")

    pz = sub.add_parser("zeros", help="zero counting and location")
    zsub = pz.add_subparsers(dest="zeros_cmd", required=True)
    zc = zsub.add_parser("count", parents=[common])
    zc.add_argument("--q", type=int, required=True)
    zc.add_argument("--label", type=int, required=True)
    zc.add_argument("--T", type=float, required=True)
    zc.add_argument("--which", choices=("L", "Lprime"), default="Lprime")
    zc.add_argument("--region", choices=("right", "strip"), default="right")
    zt = zsub.add_parser("trivial", parents=[common])
    zt.add_argument("--q", type=int, required=True)
    zt.add_argument("--label", type=int, required=True)
    zt.add_argument("--jmax", type=int, required=True)
    zl = zsub.add_parser("list", parents=[common])
    zl.add_argument("--q", type=int, required=True)
    zl.add_argument("--label", type=int, required=True)
    zl.add_argument("--rect", required=True, help="sigma_left,sigma_right,t_min,t_max")
    zl.add_argument("--which", choices=("L", "Lprime"), default="Lprime")

    pv = sub.add_parser("verify", help="named verification checks",
                        parents=[common])
    pv.add_argument("check", choices=_CHECKS)
    pv.add_argument("--q", type=int)
    pv.add_argument("--label", default="0", help="enumeration label, or 'all'")
    pv.add_argument("--T", type=float, default=10.0)
    pv.add_argument("--region", default="line:1",
                    help="for 'region': D1 | D2 | line:<j> | critical")
    pv.add_argument("--spacing", type=float,
                    help="for 'region': the grid step in sigma and t; by default the region's "
                         "own grid (D1 0.5, D2 2, line:<j> and critical 0.1)")
    pv.add_argument("--csv", action="store_true")
    pv.add_argument("--timings", action="store_true")
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.cmd == "char":
            return _cmd_char(args)
        if args.cmd == "special":
            return _cmd_special(args)
        if args.cmd == "eval":
            return _cmd_eval(args)
        if args.cmd == "zeros":
            return _cmd_zeros(args)
        if args.cmd == "verify":
            if args.check != "constants" and args.q is None:
                raise DomainError(f"--q is required for verify {args.check}")
            return _cmd_verify(args)
        raise DomainError(f"unknown command {args.cmd}")
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
