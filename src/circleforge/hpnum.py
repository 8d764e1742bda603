"""Arbitrary-precision numerics: Bessel series and closed forms, the
Gauss-Legendre rule on Python integers, and error-controlled quadrature.

Scalars are mpmath mpf/mpc; every routine takes the working precision
explicitly (bits) and never depends on the global mpmath state it was
called under.  Quadrature is one adaptive driver, `quad_panels`: bisection
with an embedded pair of Gauss-Legendre rules, where panels are accepted
when the rule difference is within the local error budget.  The reported
error estimate, the sum of those differences, is an empirical estimate of
the discretization error for integrands smooth on each panel, not a bound:
a jump inside a panel can hide from it.  The driver takes the panel sums
as a function, one sum per component, and accepts a panel only when every
component meets its budget.
Every integral of the package supplies its panel sums in Python-integer
fixed point, from `gauss_legendre_fixed` (the rule built on ints) and, for
the main-term bands, `BesselFactor` (sqrt(s) I_1(c sqrt(s)) as a
polynomial in s, evaluated by Horner's rule).  `decay_cut` truncates a
Gaussian-decay integrand over the real line to a finite interval.
`cospi_fixed` is the one cosine of a rational multiple of pi, cached per
reduced root, that the Kloosterman values and the bands' cos beta_nu share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mpf, mpc, workprec
from mpmath.libmp import from_rational, mpf_cos_pi, mpf_shift, round_nearest, to_fixed, to_int

__all__ = [
    "default_precision",
    "bessel_i32",
    "bessel_i_series",
    "BesselFactor",
    "bessel_factor_degree",
    "cospi_fixed",
    "gauss_legendre_fixed",
    "QuadratureResult",
    "QuadratureError",
    "quad_panels",
    "decay_cut",
]


def default_precision(n):
    """Working precision (bits) that resolves p1bar(n) to well below 0.5."""
    return 64 + math.ceil(1.4427 * math.pi * math.sqrt(5 * max(n, 1) / 6))


def bessel_i_series(order2, x, prec):
    """I_(order2/2)(x) by the defining series; oracle for the closed forms.

    order2 is twice the order, so integer and half-integer orders share one
    code path.  Gamma factors come from the recurrence off 1 or sqrt(pi).
    """
    with workprec(prec + 16):
        x = mpf(x)
        if x <= 0:
            if x == 0 and order2 > 0:
                return mpf(0)
            raise ValueError("series oracle expects x > 0")
        ell = mpf(order2) / 2
        # Gamma(ell + 1): integer ell -> factorial; half-integer -> via sqrt(pi)
        if order2 % 2 == 0:
            g = mpf(math.factorial(order2 // 2))
        else:
            g = mpmath.sqrt(mpmath.pi)
            j = Fraction(1, 2)
            while j < Fraction(order2, 2) + 1:
                g *= mpf(j.numerator) / j.denominator
                j += 1
        half = x / 2
        term = half ** ell / g
        total = term
        m = 1
        eps = mpf(2) ** (-(prec + 8))
        while True:
            term = term * half * half / (m * (m + ell))
            total += term
            if term < eps * total:
                break
            m += 1
    with workprec(prec):
        return +total


def bessel_i32(x, prec):
    """I_{3/2}(x) = sqrt(2/(pi x)) (cosh x - sinh x / x), with a series
    fallback below x = 1/4 where the closed form cancels."""
    with workprec(prec + 16):
        x = mpf(x)
        if x <= 0:
            raise ValueError("bessel_i32 expects x > 0")
        if x < mpf(1) / 4:
            return bessel_i_series(3, x, prec)
        val = mpmath.sqrt(2 / (mpmath.pi * x)) * (mpmath.cosh(x) - mpmath.sinh(x) / x)
    with workprec(prec):
        return +val


class QuadratureError(RuntimeError):
    """Raised when the subdivision budget is exhausted; carries the best value."""

    def __init__(self, message, value, error_estimate, subdivisions):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.subdivisions = subdivisions


@dataclass
class QuadratureResult:
    value: object  # mpf or mpc; a list of them from quad_panels
    abs_error_estimate: object  # mpf; a list from quad_panels
    subdivisions: int
    # panels accepted only because they reached the width floor 2^(-prec/2)
    unconverged: int = 0


def _newton_step(npts, x, p):
    """The Newton step P_n(x)/P_n'(x) and the P_n(x), P_(n-1)(x) it used.

    x and all three results are ints scaled by 2^p.  The three-term
    recurrence gives P_n and P_(n-1), and P_n' = n (x P_n - P_(n-1)) / (x^2 - 1).
    """
    p0, p1 = 1 << p, x
    for j in range(2, npts + 1):
        p0, p1 = p1, (((2 * j - 1) * x * p1 >> p) - (j - 1) * p0) // j
    return p1 * (x * x - (1 << 2 * p)) // (npts * (x * p1 - (p0 << p))), p1, p0


@lru_cache(maxsize=32)
def _gauss_legendre_half(npts, bits):
    """Nodes x >= 0 of the npts-point Gauss-Legendre rule, largest first, and
    their weights, as ints scaled by 2^bits, each within 1 ulp of the exact rule.

    Built on Python ints throughout, as Johansson (arXiv:1205.5991, sec. 3)
    does for p(n).  Each positive root of P_n starts from
    cos(pi (i - 1/4) / (n + 1/2)) and takes Newton steps on the recurrence
    in fixed point: at the lowest precision p until a step is below
    2^-(p/2), then one per precision, doubling up to
    W = bits + 2 bits(n) + 16.  One more recurrence at W must move the root
    by at most 2^-(bits+8), else ArithmeticError; its P_n and P_(n-1) give
    the weight 2/((1 - x^2) P_n'(x)^2) at that final node.  Nodes and
    weights are truncated toward zero from W bits.  For odd n the last
    node is 0.
    """
    guard = 2 * npts.bit_length() + 8
    W = bits + guard + 8
    precs = [W]  # each Newton step roughly doubles the correct bits
    while precs[-1] > 2 * guard + 40:
        precs.append(precs[-1] // 2 + guard)
    precs.reverse()
    roots = []
    for i in range(1, npts // 2 + 1):
        p = precs[0]
        x = int(math.ldexp(math.cos(math.pi * (i - 0.25) / (npts + 0.5)), p))
        for _ in range(8):
            dx = _newton_step(npts, x, p)[0]
            x -= dx
            if abs(dx) < 1 << (p // 2):
                break
        for q in precs[1:]:
            x <<= q - p
            p = q
            x -= _newton_step(npts, x, p)[0]
        roots.append(x)
    if npts % 2:
        roots.append(0)
    half = []
    for i, x in enumerate(roots, 1):
        dx, pn, pm = _newton_step(npts, x, W)
        if abs(dx) > 1 << guard:  # 2^-(bits+8)
            raise ArithmeticError(f"root {i} of the {npts}-point Gauss-Legendre rule did not converge")
        q = x * pn - (pm << W)
        w = (((1 << 2 * W) - x * x) << (2 * W + bits + 1)) // (npts * npts * q * q)
        half.append((x >> (W - bits), w))
    return tuple(half)


@lru_cache(maxsize=128)
def gauss_legendre_fixed(npts, frac_bits):
    """The npts-point Gauss-Legendre rule on [-1, 1] as ints scaled by 2^frac_bits.

    Truncates the half table of _gauss_legendre_half at frac_bits rounded up
    to a multiple of 32, so the bands' k-dependent frac_bits share one build
    per rule size and bucket.  Truncating twice toward zero is truncating
    once, so each node and weight is within 1 ulp of the exact rule at
    frac_bits.  The negative half mirrors the positive one, so the table is
    exactly antisymmetric in x and symmetric in w.
    """
    bits = -(-frac_bits // 32) * 32
    pos = [(x >> (bits - frac_bits), w >> (bits - frac_bits))
           for x, w in _gauss_legendre_half(npts, bits)]
    mid = [pos.pop()] if npts % 2 else []
    return tuple([(-x, w) for x, w in pos] + mid + pos[::-1])


@lru_cache(maxsize=None)
def _cospi_bucket(p, q, bits):
    """cos(pi p/q), 0 <= p/q <= 1 in lowest terms, as an int scaled by 2^bits.

    The argument is rounded at bits + 8 bits (p/q <= 1 moves the cosine by
    at most pi 2^-(bits+8)), cospi rounds at bits + 8 bits, and the result
    rounds to the nearest multiple of 2^-bits: within 0.52 ulp.
    """
    return to_int(mpf_shift(mpf_cos_pi(from_rational(p, q, bits + 8), bits + 8), bits), round_nearest)


def cospi_fixed(p, q, F):
    """cos(pi p/q) as an int scaled by 2^F, within 1 ulp; q > 0.

    The Kloosterman values (e^(2 pi i r/m) = cospi_fixed(4r, 2m)
    + i cospi_fixed(4r - m, 2m)) and the bands' cos beta_nu all read it, as
    Johansson (arXiv:1205.5991, sec. 2-3) sums Rademacher's exponential sums
    from one table.  p/q is reduced to [0, 1] in lowest terms, so
    cos(pi (2q - p)/q) gives the same int, and each reduced root is
    evaluated once per bucket, F rounded up to a multiple of 64, then
    rounded to the nearest multiple of 2^-F: within 0.5 + 0.52/2 ulp.
    """
    p %= 2 * q
    p = min(p, 2 * q - p)
    g = math.gcd(p, q)
    bits = -(-F // 64) * 64
    c, s = _cospi_bucket(p // g, q // g, bits), bits - F
    return (c + (1 << s >> 1)) >> s


def bessel_factor_degree(c, prec):
    """Degree M of BesselFactor(c, M, ...) for relative error 2^-(prec+8).

    The terms t_m = a_m of S(1) = sum a_m are summed until 2 t_M is below
    2^-(prec+8) S(1) and the next ratio t_(M+1)/t_M is below 1/2, so the
    tail is below t_M.  tail(s)/S(s) grows with s, so the bound holds for
    every s in [0, 1].  The rule runs on the base-2 logarithms of t_m and
    of the partial sums in floats, which neither overflow nor underflow
    where t_m and 2^-(prec+8) do; tests/reference.py keeps the mpf loop.
    """
    log_h = 2 * math.log2(float(c) / 2)
    log_eps = -(prec + 8)
    log_term = log_total = 0.0
    m = 0
    while True:
        log_ratio = log_h - math.log2((m + 1) * (m + 2))
        if 1 + log_term < log_eps + log_total and log_ratio < -1:
            return m
        log_term += log_ratio
        log_total += math.log2(1 + 2 ** (log_term - log_total))
        m += 1


class BesselFactor:
    """sqrt(s) I_1(c sqrt(s)) for s in [0, 1], in fixed point.

    sqrt(s) I_1(c sqrt(s)) = (c/2) s S(s) with S(s) = sum_{m<=M} a_m s^m and
    a_m = (c^2/4)^m / (m! (m+1)!), so no square root is needed.  Arguments
    and results are ints scaled by 2^frac_bits; c must be accurate to
    frac_bits.  The a_m are rounded once; Horner's rule on positive terms
    with s <= 1 then keeps S within 2(M+1) ulp, i.e. within 2(M+1) 2^-frac_bits
    relative since S >= 1.  M comes from bessel_factor_degree.
    """

    def __init__(self, c, degree, frac_bits):
        self.frac_bits = frac_bits
        with workprec(frac_bits + 16 + degree.bit_length()):
            c = mpf(c)
            h = (c / 2) ** 2
            term = mpf(1)
            coeffs = []
            for m in range(degree + 1):
                coeffs.append(to_fixed(term._mpf_, frac_bits))
                term = term * h / ((m + 1) * (m + 2))
            self.half_c = to_fixed((c / 2)._mpf_, frac_bits)
        self.coeffs = coeffs[::-1]

    def __call__(self, s):
        F = self.frac_bits
        coeffs = self.coeffs
        acc = coeffs[0]
        for a in coeffs[1:]:
            acc = (acc * s >> F) + a
        return self.half_c * s * acc >> (2 * F)


def quad_panels(panel_sums, a, b, tol, prec, max_panels=4096):
    """Adaptive bisection with an embedded lower/higher-order pair.

    panel_sums(x0, x1, npts) returns the npts-point Gauss-Legendre sums on
    [x0, x1], one per component.  Each panel is evaluated with n and 2n
    points; their difference is the local error estimate.  A panel is
    accepted when every component is within its share of `tol`, otherwise
    bisected; a panel narrower than 2^(-prec/2) is accepted regardless and
    counted in `unconverged`.  Returns a QuadratureResult whose value and
    error estimate are lists; the loop runs at prec + 24 bits and the
    results are rounded to prec.

    The estimate holds only for integrands that are smooth on each panel.
    A jump inside a panel can make both rules agree to rounding: the step
    1[x < 1/sqrt(2)] on [0, 1] is accepted with an estimate near 1e-26 and
    an error near 1e-4, and `unconverged` stays 0.
    """
    n_lo = max(12, prec // 5)
    with workprec(prec + 24):
        stack = [(a, b, tol)]
        total = None
        err = None
        panels = 0
        unconverged = 0
        while stack:
            x0, x1, budget = stack.pop()
            panels += 1
            coarse = panel_sums(x0, x1, n_lo)
            fine = panel_sums(x0, x1, 2 * n_lo)
            delta = [abs(hi - lo) for hi, lo in zip(fine, coarse)]
            if total is None:
                total = [0] * len(fine)
                err = [mpf(0)] * len(fine)
            if panels > max_panels:
                raise QuadratureError(
                    "subdivision budget exhausted",
                    total,
                    [e + d for e, d in zip(err, delta)],
                    panels,
                )
            converged = all(d <= budget for d in delta)
            if converged or abs(x1 - x0) < mpf(2) ** (-(prec // 2)):
                unconverged += not converged
                total = [t + v for t, v in zip(total, fine)]
                err = [e + d for e, d in zip(err, delta)]
            else:
                xm = (x0 + x1) / 2
                stack.append((x0, xm, budget / 2))
                stack.append((xm, x1, budget / 2))
    with workprec(prec):
        return QuadratureResult([+t for t in total], [+e for e in err], panels, unconverged)


def decay_cut(c, tol, prec, envelope_max=1):
    """Cut X and tail bound (<= tol/4) for f over the line, |f| <= envelope_max |e^(-c x^2)|."""
    with workprec(prec + 24):
        c = mpc(c)
        if c.real <= 0:
            raise ValueError("decay_cut needs Re c > 0")
        tol = mpf(tol)
        X = mpmath.sqrt((mpmath.log(4 / tol) + mpmath.log(1 + mpf(envelope_max))) / c.real)
        X = max(X, mpf(1))
        # certified tail: 2 * int_X^inf envelope * e^(-Re c x^2) dx
        #              <= envelope * e^(-Re c X^2)/(Re c X);
        # for small Re c the 1/(Re c X) amplification can defeat the initial
        # radius, so inflate X until the bound actually clears tol/4
        def tail_bound(x):
            return envelope_max * mpmath.exp(-c.real * x * x) / (c.real * x)

        tail = tail_bound(X)
        while tail > tol / 4:
            X *= mpf(5) / 4
            tail = tail_bound(X)
        return X, tail
