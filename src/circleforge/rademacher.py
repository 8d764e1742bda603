"""Assembly of the exact formulas: Rademacher's series for p(n), the
Kloosterman/Bessel-integral series for lower 1-run overpartitions, the
asymptotic approximation, and the oracle harness.

The k-sum for p1bar runs over gcd(4,k) in {1,2} with nu over 1..k; the
gcd(4,k)=4 band contributes nothing in the limit and is excluded by
construction.

Both series are summed in real arithmetic: each Kloosterman weight they
read (A_k(n), the j=2 modified sums) is checked exactly to be real by
`SumValue.real_value`, which raises ArithmeticError otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
from mpmath import mpf, workprec

from .hpnum import bessel_i32, default_precision
from .integrals import script_I_band
from .kloosterman import A_k, KloostermanSpec, modified_K
from .qseries import named_series

__all__ = [
    "FormulaResult",
    "default_kmax",
    "p_rademacher",
    "p1bar_term",
    "p1bar_exact",
    "p1bar_asymptotic",
    "verify_range",
]

FLAG_THRESHOLD = 0.25


@dataclass
class FormulaResult:
    n: int
    kmax: int
    value: object  # mpf
    rounded: int
    distance_to_integer: object  # mpf
    tail_estimate: object  # mpf, magnitude of the last included k-band
    flagged: bool
    per_k_terms: list = field(default_factory=list)

    def to_json_dict(self, oracle):
        """The report row of this result against the exact coefficient `oracle`."""
        return {
            "n": self.n,
            "value": mpmath.nstr(self.value, 20, strip_zeros=False),
            "rounded": self.rounded,
            "oracle": oracle,
            "match": self.rounded == oracle,
            "dist": mpmath.nstr(self.distance_to_integer, 6, strip_zeros=False),
            "kmax": self.kmax,
            "tail": mpmath.nstr(self.tail_estimate, 6, strip_zeros=False),
            "flagged": self.flagged,
        }


def default_kmax(n):
    return math.isqrt(max(n, 1)) + 10 + (0 if math.isqrt(max(n, 1)) ** 2 == n else 1)


def _round_result(n, kmax, total, per_k, prec):
    with workprec(prec):
        rounded = int(mpmath.nint(total))
        dist = abs(total - rounded)
        tail = abs(per_k[-1][1]) if per_k else mpf(0)
        return FormulaResult(
            n=n,
            kmax=kmax,
            value=+total,
            rounded=rounded,
            distance_to_integer=+dist,
            tail_estimate=+tail,
            flagged=bool(dist >= FLAG_THRESHOLD),
            per_k_terms=per_k,
        )


def p_rademacher(n, kmax=None, prec=None):
    """p(n) = 2*pi*(24n-1)^(-3/4) * sum_k A_k(n)/k * I_{3/2}(pi*sqrt(24n-1)/(6k))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kmax is None:
        kmax = default_kmax(n)
    if prec is None:
        prec = 64 + math.ceil(1.4427 * math.pi * math.sqrt(2 * n / 3)) + 2 * kmax
    with workprec(prec):
        root = mpmath.sqrt(mpf(24 * n - 1))
        front = 2 * mpmath.pi / root ** Fraction(3, 2)
        per_k = []
        total = mpf(0)
        for k in range(1, kmax + 1):
            ak = A_k(k, n).real_value(prec)
            term = front * ak / k
            if ak != 0:
                term *= bessel_i32(mpmath.pi * root / (6 * k), prec)
            total += term
            per_k.append((k, term))
        return _round_result(n, kmax, total, per_k, prec)


def _band_b(d):
    return Fraction(1, 24) if d == 1 else Fraction(5, 12)


def _band_prefactors(n):
    """{d: prefactor of the gcd(4,k) = d bands} at the working precision."""
    front = mpmath.pi / (12 * mpmath.sqrt(mpf(6 * n)))
    return {1: front, 2: 5 * front}


def p1bar_term(d, k, n, tol, prec=None):
    """The k-th band (1/k^2) sum_nu (-1)^(n+nu) K_k(nu,n) script_I(b,k,nu;n).

    d = gcd(4,k) must be 1 or 2; the leading pi/(12 sqrt(6n)) prefactors are
    not included.  Raises ArithmeticError if a weight K_k is not exactly real.
    """
    if d not in (1, 2):
        raise ValueError("gcd-4 bands vanish in the limit and are not evaluated")
    if math.gcd(4, k) != d:
        raise ValueError(f"gcd(4,{k}) != {d}")
    if prec is None:
        prec = default_precision(n)
    b = _band_b(d)
    with workprec(prec):
        weights = {}
        for nu in range(1, k + 1):
            kval = modified_K(KloostermanSpec("modified", k, n, d=d, j=2, nu=nu)).real_value(prec)
            if kval != 0:
                weights[nu] = -kval if (n + nu) % 2 else kval
        integrals = script_I_band(b, k, list(weights), n, mpf(tol) / (4 * k), prec=prec)
        total = mpf(0)
        for weight, integral in zip(weights.values(), integrals):
            total += weight * integral
        return +(total / (k * k))


def p1bar_exact(n, kmax=None, tol=mpf("1e-12"), prec=None):
    """The full double sum for p1bar(n), truncated at k <= kmax.

    Flags the result when the distance to the nearest integer reaches 0.25.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kmax is None:
        kmax = default_kmax(n)
    if kmax < 2:
        raise ValueError("kmax must include the dominant k=2 band")
    if prec is None:
        prec = default_precision(n)
    tol = mpf(tol)
    with workprec(prec):
        front = _band_prefactors(n)
        per_k = []
        total = mpf(0)
        for k in range(1, kmax + 1):
            d = math.gcd(4, k)
            if d == 4:
                continue
            band = p1bar_term(d, k, n, tol, prec=prec)
            term = front[d] * band
            total += term
            per_k.append((k, term))
        return _round_result(n, kmax, total, per_k, prec)


def p1bar_asymptotic(n, prec=None):
    """Main-term asymptotic sqrt(5)/(4 sqrt(6) n) * e^(pi sqrt(5n/6))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if prec is None:
        prec = default_precision(n)
    with workprec(prec):
        return +(
            mpmath.sqrt(mpf(5)) / (4 * mpmath.sqrt(mpf(6)) * n)
            * mpmath.exp(mpmath.pi * mpmath.sqrt(mpf(5 * n) / 6))
        )


def verify_range(n_lo, n_hi, kmax=None, tol=mpf("1e-12"), prec=None):
    """Compare p1bar_exact against the generating-function coefficients.

    Returns a report dict with one row per n and summary statistics;
    mismatches make the report failing.
    """
    if n_hi < n_lo:
        return {"rows": [], "mismatches": 0, "max_distance": 0.0, "ok": True}
    g1 = named_series("G1", n_hi)
    rows = []
    mismatches = 0
    max_dist = mpf(0)
    for n in range(n_lo, n_hi + 1):
        res = p1bar_exact(n, kmax=kmax, tol=tol, prec=prec)
        row = res.to_json_dict(g1.coefficient(n))
        if not row["match"]:
            mismatches += 1
        max_dist = max(max_dist, res.distance_to_integer)
        rows.append(row)
    return {
        "rows": rows,
        "mismatches": mismatches,
        "max_distance": float(max_dist),
        "ok": mismatches == 0,
    }
