"""Command-line front end: named-series coefficients, the enumeration
oracle, exact formulas, Kloosterman sums, integrals, transformation-law
checks, range verification and a self-test.

Reports are JSON lines with fixed key order and decimal-string numerics,
so identical invocations produce byte-identical output.  Exit codes:
0 = pass, 1 = mismatch or failed check, 2 = usage error, 3 = numerical
failure (a quadrature that exhausted its subdivision budget).

Configuration precedence: command-line flags, then the environment
(CIRCLEFORGE_PREC, CIRCLEFORGE_CACHE), then built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf, workprec

from . import qseries
from .hpnum import QuadratureError, default_precision
from .integrals import J, Jstar, L_closed, L_contour, mordell_I, script_I
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


@dataclass
class Config:
    precision_bits: int | None
    default_tol: str
    kmax: int | None
    oracle_ceiling: int
    cache_path: str | None

    @classmethod
    def from_args(cls, args):
        prec = args.precision_bits
        if prec is None and os.environ.get("CIRCLEFORGE_PREC"):
            prec = int(os.environ["CIRCLEFORGE_PREC"])
        if prec is not None and prec < 64:
            raise SystemExit2("precision_bits must be >= 64")
        cache = getattr(args, "cache", None) or os.environ.get("CIRCLEFORGE_CACHE")
        tol = getattr(args, "tol", None) or "1e-12"
        if mpf(tol) <= 0:
            raise SystemExit2("tolerance must be positive")
        return cls(
            precision_bits=prec,
            default_tol=tol,
            kmax=getattr(args, "kmax", None),
            oracle_ceiling=getattr(args, "ceiling", None) or DEFAULT_ORACLE_CEILING,
            cache_path=cache,
        )


class SystemExit2(SystemExit):
    def __init__(self, message):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _emit(row):
    print(json.dumps(row, separators=(", ", ": ")))


def _nstr(x, digits=20):
    return mpmath.nstr(x, digits, strip_zeros=False)


def _parse_complex(text):
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return mpmath.mpc(mpf(re_s), mpf(im_s))
    return mpmath.mpc(mpf(text))


def _parse_fraction(text):
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(text)


# ---------------------------------------------------------------------------
# coefficient cache: append-only JSON lines, whole-file replace on write

def _cache_load(path):
    rows = []
    if path and os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append(json.loads(line))
    return rows

def _cache_append(path, new_rows):
    if not path or not new_rows:
        return
    rows = _cache_load(path)
    seen = {(r["series"], r["n"]) for r in rows}
    rows.extend(r for r in new_rows if (r["series"], r["n"]) not in seen)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        for r in rows:
            fh.write(json.dumps(r, separators=(", ", ": ")) + "\n")
    os.replace(tmp, path)


def _cache_rows_for(series, coeffs_list, order):
    return [
        {"series": series, "n": n, "coeff": c, "order_computed": order}
        for n, c in coeffs_list
    ]


# ---------------------------------------------------------------------------
# subcommands

def cmd_coeffs(args, cfg):
    s = qseries.named_series(args.name, args.order)
    _emit(s.to_json_dict(args.name))
    return 0


def cmd_enumerate(args, cfg):
    count = qseries.enumerate_p1bar(args.n, ceiling=cfg.oracle_ceiling)
    _emit({"n": args.n, "p1bar": count})
    return 0


def cmd_exact(args, cfg):
    n = args.n
    prec = cfg.precision_bits or default_precision(n)
    tol = mpf(cfg.default_tol)
    with workprec(prec):
        if args.rademacher:
            res = p_rademacher(n, kmax=cfg.kmax, prec=prec)
            oracle = qseries.named_series("P", n).coefficient(n)
        else:
            res = p1bar_exact(n, kmax=cfg.kmax, tol=tol, prec=prec)
            oracle = qseries.named_series("G1", n).coefficient(n)
    row = {
        "n": n,
        "value": _nstr(res.value),
        "rounded": res.rounded,
        "oracle": oracle,
        "match": res.rounded == oracle,
        "dist": _nstr(res.distance_to_integer, 6),
        "kmax": res.kmax,
        "tail": _nstr(res.tail_estimate, 6),
    }
    _emit(row)
    _cache_append(
        cfg.cache_path,
        _cache_rows_for("P" if args.rademacher else "G1", [(n, str(oracle))], n),
    )
    return 0 if row["match"] else 1


def cmd_asymptotic(args, cfg):
    n = args.n
    prec = cfg.precision_bits or default_precision(n)
    with workprec(prec):
        val = p1bar_asymptotic(n, prec=prec)
    _emit({"n": n, "asymptotic": _nstr(val)})
    return 0


def cmd_kloosterman(args, cfg):
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
    prec = cfg.precision_bits or 128
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
        "bound_ratio": bound_ratio(sv, k, n),
    })
    return 0


def cmd_integral(args, cfg):
    prec = cfg.precision_bits or 128
    tol = mpf(cfg.default_tol)
    b = _parse_fraction(args.b) if args.b else None
    with workprec(prec):
        if args.which == "mordell":
            val = mordell_I(args.k, args.nu, _parse_complex(args.z), tol, prec=prec)
            err = tol
        elif args.which == "J":
            val = J(b, args.k, args.nu, _parse_complex(args.z), tol, prec=prec)
            err = tol
        elif args.which == "Jstar":
            val = Jstar(b, args.k, args.nu, _parse_complex(args.z), tol, prec=prec)
            err = tol
        elif args.which == "scriptI":
            val = script_I(b, args.k, args.nu, args.n, tol, prec=prec)
            err = tol
        else:  # L
            y = _parse_fraction(args.y)
            closed = L_closed(args.k, args.n, mpf(y.numerator) / y.denominator, prec)
            val = L_contour(args.k, args.n, mpf(y.numerator) / y.denominator,
                            args.N, tol, prec=prec) if args.N else closed
            err = abs(val - closed) if args.N else mpf(0)
        val = mpmath.mpc(val)
    _emit({
        "which": args.which,
        "b": str(b) if b is not None else None,
        "k": args.k,
        "nu": args.nu,
        "n": args.n,
        "value": _nstr(val.real if val.imag == 0 else val),
        "re": _nstr(val.real),
        "im": _nstr(val.imag),
        "err": _nstr(mpf(err), 4),
    })
    return 0


def cmd_check_transform(args, cfg):
    prec = cfg.precision_bits or 160
    with workprec(prec):
        chk = check_law(args.law, args.h, args.k, _parse_complex(args.z),
                        tol=mpf(args.tol), prec=prec, r=args.r)
    _emit(chk.to_json_dict())
    return 0 if chk.passed else 1


def cmd_verify(args, cfg):
    tol = mpf(cfg.default_tol)
    report = verify_range(args.start, args.end, kmax=cfg.kmax, tol=tol,
                          prec=cfg.precision_bits)
    for row in report["rows"]:
        _emit(row)
    _emit({
        "summary": True,
        "mismatches": report["mismatches"],
        "max_distance": report["max_distance"],
        "ok": report["ok"],
    })
    if cfg.cache_path:
        g1 = qseries.named_series("G1", max(args.end, 0))
        _cache_append(cfg.cache_path, _cache_rows_for(
            "G1", [(r["n"], str(g1.coefficient(r["n"]))) for r in report["rows"]],
            max(args.end, 0)))
    return 0 if report["ok"] else 1


def cmd_selftest(args, cfg):
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
    # cache audit: sampled rows must re-derive exactly
    if cfg.cache_path and os.path.exists(cfg.cache_path):
        rows = _cache_load(cfg.cache_path)
        sample = random.Random(0).sample(rows, min(len(rows), 8))
        ok_cache = True
        for r in sample:
            series = qseries.named_series(r["series"], r["n"])
            ok_cache &= str(series.coefficient(r["n"])) == r["coeff"]
        check("cache-audit", ok_cache)
    _emit({"summary": True, "failures": failures, "ok": not failures})
    return 0 if not failures else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="circleforge",
        description="Exact formulas for lower 1-run overpartitions and their verification machinery.",
    )
    p.add_argument("--precision-bits", type=int, default=None,
                   help="working precision in bits (>= 64); default adapts to n")
    p.add_argument("--cache", default=None, help="coefficient cache path (JSON lines)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coeffs", help="exact coefficients of a named series")
    sp.add_argument("--name", required=True, choices=qseries.SERIES_NAMES)
    sp.add_argument("--order", type=int, required=True)
    sp.set_defaults(func=cmd_coeffs)

    sp = sub.add_parser("enumerate", help="brute-force lower 1-run overpartition count")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--ceiling", type=int, default=None)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("exact", help="exact-formula evaluation with oracle comparison")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--tol", default=None)
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
    sp.add_argument("--tol", default=None)
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
    sp.add_argument("--tol", default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("selftest", help="run the invariant suite")
    sp.set_defaults(func=cmd_selftest)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = Config.from_args(args)
        return args.func(args, cfg)
    except SystemExit:
        raise
    except QuadratureError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
