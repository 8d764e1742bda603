"""Command-line front end: named-series coefficients, the enumeration
oracle, exact formulas, Kloosterman sums, integrals, transformation-law
checks, range verification and a self-test.

Reports are JSON lines with fixed key order and decimal-string numerics,
so identical invocations produce byte-identical output.  Exit codes:
0 = pass, 1 = mismatch or failed check, 2 = usage error, 3 = numerical
failure (a quadrature that exhausted its subdivision budget, or an
imaginary residue above tolerance where the exact value is real).

Working precision comes from --precision-bits, then the environment
(CIRCLEFORGE_PREC), then each command's default.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import mpmath
from mpmath import mpf, workprec

from . import qseries
from .hpnum import QuadratureError, default_precision
from .integrals import J, Jstar, L_closed, L_contour, mordell_band, script_I_band
from .kloosterman import (
    A_k,
    KloostermanSpec,
    bound_ratio,
    classical_K,
    incomplete_K,
    modified_K,
    rewritten_classical_form,
)
from .modular import multiplier_identity_check
from .rademacher import p1bar_asymptotic, p1bar_exact, p_rademacher, verify_range
from .transform import check_law

DEFAULT_ORACLE_CEILING = qseries.DEFAULT_ENUMERATION_CEILING


class SystemExit2(SystemExit):
    def __init__(self, message):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _emit(row):
    print(json.dumps(row, separators=(", ", ": ")))


def _nstr(x, digits=20):
    return mpmath.nstr(x, digits, strip_zeros=False)


def _usage_zero_division(parse):
    # a zero denominator in an argument is a usage error (exit 2), not a
    # numerical failure (exit 3)
    def parse_or_reject(text):
        try:
            return parse(text)
        except ZeroDivisionError:
            raise ValueError(f"division by zero in argument {text!r}") from None

    return parse_or_reject


@_usage_zero_division
def _parse_real(text):
    return mpf(text)


@_usage_zero_division
def _parse_complex(text):
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return mpmath.mpc(mpf(re_s), mpf(im_s))
    return mpmath.mpc(mpf(text))


@_usage_zero_division
def _parse_fraction(text):
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(text)


def _resolve_precision(args):
    """Fill in --precision-bits from CIRCLEFORGE_PREC, then check it and --tol."""
    if args.precision_bits is None and os.environ.get("CIRCLEFORGE_PREC"):
        args.precision_bits = int(os.environ["CIRCLEFORGE_PREC"])
    if args.precision_bits is not None and args.precision_bits < 64:
        raise SystemExit2("precision_bits must be >= 64")
    if hasattr(args, "tol") and _parse_real(args.tol) <= 0:
        raise SystemExit2("tolerance must be positive")


# ---------------------------------------------------------------------------
# subcommands

def cmd_coeffs(args):
    s = qseries.named_series(args.name, args.order)
    _emit(s.to_json_dict(args.name))
    return 0


def cmd_enumerate(args):
    count = qseries.enumerate_p1bar(args.n, ceiling=args.ceiling)
    _emit({"n": args.n, "p1bar": count})
    return 0


def cmd_exact(args):
    n = args.n
    prec = args.precision_bits or default_precision(n)
    tol = mpf(args.tol)
    with workprec(prec):
        if args.rademacher:
            res = p_rademacher(n, kmax=args.kmax, prec=prec)
            oracle = qseries.named_series("P", n).coefficient(n)
        else:
            res = p1bar_exact(n, kmax=args.kmax, tol=tol, prec=prec)
            oracle = qseries.named_series("G1", n).coefficient(n)
    row = res.to_json_dict(oracle)
    _emit(row)
    return 0 if row["match"] else 1


def cmd_asymptotic(args):
    n = args.n
    prec = args.precision_bits or default_precision(n)
    with workprec(prec):
        val = p1bar_asymptotic(n, prec=prec)
    _emit({"n": n, "asymptotic": _nstr(val)})
    return 0


def cmd_kloosterman(args):
    k, n, m = args.k, args.n, args.m
    if args.family == "classical":
        sv = classical_K(k, n, m)
    elif args.family == "A":
        sv = A_k(k, n)
    elif args.family == "incomplete":
        sv = incomplete_K(k, args.ell, args.N, n, m)
    else:
        spec = KloostermanSpec(
            args.family, k, n, m, d=args.d, j=args.j, nu=args.nu,
            ell=args.ell, N=args.N,
        )
        sv = rewritten_classical_form(spec) if args.rewrite else modified_K(spec)
    prec = args.precision_bits or 128
    with workprec(prec):
        val = sv.value(prec)
    _emit({
        "family": args.family,
        "d": args.d,
        "j": args.j,
        "k": k,
        "nu": args.nu,
        "n": n,
        "m": m,
        "re": _nstr(val.real),
        "im": _nstr(val.imag),
        "bound_ratio": bound_ratio(sv, k, n, prec),
    })
    return 0


def cmd_integral(args):
    prec = args.precision_bits or 128
    tol = mpf(args.tol)
    b = _parse_fraction(args.b) if args.b else None
    if b is None and args.which in ("J", "Jstar", "scriptI"):
        raise ValueError(f"--which {args.which} needs --b")
    if args.precision_bits is None and args.which == "scriptI":
        # --tol is absolute and the value grows like I_1(c) < e^c, c = (2 pi/k) sqrt(2bn)
        c = 2 * math.pi / max(args.k, 1) * math.sqrt(max(2 * b * args.n, 0))
        prec += math.ceil(c * math.log2(math.e))
    y = _parse_fraction(args.y) if args.which == "L" else None
    with workprec(prec):
        # z is parsed at prec, so a decimal --z is not rounded to 53 bits first
        z = _parse_complex(args.z) if args.which in ("mordell", "J", "Jstar") else None
        err = tol
        if args.which == "mordell":
            val = mordell_band(args.k, [args.nu], z, tol, prec=prec)[0]
        elif args.which == "J":
            val = J(b, args.k, args.nu, z, tol, prec=prec)
        elif args.which == "Jstar":
            val = Jstar(b, args.k, args.nu, z, tol, prec=prec)
        elif args.which == "scriptI":
            val = script_I_band(b, args.k, [args.nu], args.n, tol, prec=prec)[0]
        else:  # L
            y_mpf = mpf(y.numerator) / y.denominator
            closed = L_closed(args.k, args.n, y_mpf, prec)
            if args.N is None:
                val, err = closed, mpf(0)
            else:
                val = L_contour(args.k, args.n, y_mpf, args.N, tol, prec=prec)
                err = abs(val - closed)
        val = mpmath.mpc(val)
    # parameters the chosen integral does not take print as null
    _emit({
        "which": args.which,
        "b": str(b) if b is not None and args.which not in ("mordell", "L") else None,
        "k": args.k,
        "nu": args.nu if args.which != "L" else None,
        "n": args.n if args.which in ("scriptI", "L") else None,
        "value": _nstr(val.real if val.imag == 0 else val),
        "re": _nstr(val.real),
        "im": _nstr(val.imag),
        "err": _nstr(mpf(err), 4),
        "z": mpmath.nstr(z, 12) if z is not None else None,
        "y": str(y) if y is not None else None,
        "N": args.N if args.which == "L" else None,
    })
    return 0


def cmd_check_transform(args):
    prec = args.precision_bits or 160
    with workprec(prec):
        chk = check_law(args.law, args.h, args.k, _parse_complex(args.z),
                        tol=_parse_real(args.tol), prec=prec, r=args.r)
    _emit(chk.to_json_dict())
    return 0 if chk.passed else 1


def cmd_verify(args):
    tol = mpf(args.tol)
    report = verify_range(args.start, args.end, kmax=args.kmax, tol=tol,
                          prec=args.precision_bits)
    for row in report["rows"]:
        _emit(row)
    _emit({
        "summary": True,
        "mismatches": report["mismatches"],
        "max_distance": report["max_distance"],
        "ok": report["ok"],
    })
    return 0 if report["ok"] else 1


def cmd_selftest(args):
    failures = []

    def check(name, ok):
        _emit({"selftest": name, "ok": bool(ok)})
        if not ok:
            failures.append(name)

    g1 = qseries.named_series("G1", 30)
    check("oracle-equivalence-0..30", all(
        g1.coefficient(n) == qseries.enumerate_p1bar(n) for n in range(31)
    ))
    ok_ram, _ = qseries.check_ramanujan_relation(120)
    check("ramanujan-relation-120", ok_ram)
    check("multiplier-identity-k<=30", all(
        multiplier_identity_check(h, k)[0]
        for k in range(2, 31, 4) for h in range(k) if math.gcd(h, k) == 1
    ))
    dual = True
    for k, d in ((4, 4), (6, 2), (5, 1)):
        for nu in (1, k):
            spec = KloostermanSpec("modified", k, 3, 1, d=d, j=2, nu=nu)
            dual &= modified_K(spec).equals(rewritten_classical_form(spec))
    check("kloosterman-dual-path-sample", dual)
    res = p1bar_exact(4, kmax=10)
    check("exact-formula-n4", res.rounded == 12)
    _emit({"summary": True, "failures": failures, "ok": not failures})
    return 0 if not failures else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="circleforge",
        description="Exact formulas for lower 1-run overpartitions and their verification machinery.",
    )
    p.add_argument("--precision-bits", type=int, default=None,
                   help="working precision in bits (>= 64); default adapts to n")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coeffs", help="exact coefficients of a named series")
    sp.add_argument("--name", required=True, choices=qseries.SERIES_NAMES)
    sp.add_argument("--order", type=int, required=True)
    sp.set_defaults(func=cmd_coeffs)

    sp = sub.add_parser("enumerate", help="brute-force lower 1-run overpartition count")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--ceiling", type=int, default=DEFAULT_ORACLE_CEILING)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("exact", help="exact-formula evaluation with oracle comparison")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--tol", default="1e-12")
    sp.add_argument("--rademacher", action="store_true",
                    help="evaluate the plain partition formula instead")
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("asymptotic", help="leading asymptotic value")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_asymptotic)

    sp = sub.add_parser("kloosterman", help="evaluate a Kloosterman-type sum")
    sp.add_argument("--family", required=True,
                    choices=("classical", "incomplete", "A", "modified", "modified_incomplete"))
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--nu", type=int, default=None)
    sp.add_argument("--ell", type=int, default=None)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--rewrite", action="store_true",
                    help="evaluate the classical rewrite instead of the direct sum")
    sp.set_defaults(func=cmd_kloosterman)

    sp = sub.add_parser("integral", help="evaluate one of the analytic integrals")
    sp.add_argument("--which", required=True,
                    choices=("mordell", "J", "Jstar", "scriptI", "L"))
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--nu", type=int, default=1)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--z", default="1")
    sp.add_argument("--b", default=None, help="exact rational, e.g. 5/12")
    sp.add_argument("--y", default="5/24")
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--tol", default="1e-12")
    sp.set_defaults(func=cmd_integral)

    sp = sub.add_parser("check-transform", help="verify a transformation law at (h,k,z)")
    sp.add_argument("--law", required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--z", default="1")
    sp.add_argument("--tol", default="1e-10")
    sp.add_argument("--r", type=int, default=2)
    sp.set_defaults(func=cmd_check_transform)

    sp = sub.add_parser("verify", help="compare the exact formula with the oracle over a range")
    sp.add_argument("--from", dest="start", type=int, required=True)
    sp.add_argument("--to", dest="end", type=int, required=True)
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--tol", default="1e-12")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("selftest", help="run the invariant suite")
    sp.set_defaults(func=cmd_selftest)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_precision(args)
        return args.func(args)
    except SystemExit:
        raise
    except (QuadratureError, ArithmeticError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
