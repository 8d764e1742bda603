"""Arbitrary-precision numerics: Bessel functions I_1 and I_{3/2} and
error-controlled quadrature on finite intervals and Gaussian-decay lines.

Scalars are mpmath mpf/mpc; every routine takes the working precision
explicitly (bits) and never depends on the global mpmath state it was
called under.  Quadrature is adaptive bisection with an embedded pair of
Gauss-Legendre rules; panels are accepted when the rule difference is
within the local error budget, so the reported error estimate bounds the
discretization error of the accepted value.  An integrand may return a
list of values instead of a scalar: the components then share the nodes
and the panel tree, and a panel is accepted only when every component
meets its budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mpf, mpc, workprec

__all__ = [
    "default_precision",
    "bessel_i1",
    "bessel_i32",
    "bessel_i_series",
    "QuadratureResult",
    "QuadratureError",
    "quad_finite",
    "quad_decay",
]


def default_precision(n):
    """Working precision (bits) that resolves p1bar(n) to well below 0.5."""
    return 64 + math.ceil(1.4427 * math.pi * math.sqrt(5 * max(n, 1) / 6))


def bessel_i1(x, prec):
    """I_1(x) for real x >= 0 by direct series summation.

    All terms are positive, so the truncation error is below the first
    omitted term; summation stops when that is < 2^-prec of the partial sum.
    """
    with workprec(prec + 16):
        x = mpf(x)
        if x < 0:
            raise ValueError("bessel_i1 expects x >= 0")
        if x == 0:
            return mpf(0)
        half = x / 2
        term = half  # m = 0: (x/2) / (0! * 1!)
        total = term
        m = 1
        eps = mpf(2) ** (-(prec + 8))
        while True:
            term = term * half * half / (m * (m + 1))
            total += term
            if term < eps * total:
                break
            m += 1
    with workprec(prec):
        return +total


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
    value: object  # mpf or mpc; a list of them for a list-valued integrand
    abs_error_estimate: object  # mpf; a list for a list-valued integrand
    subdivisions: int


@lru_cache(maxsize=32)
def _gauss_legendre_nodes(npts, prec):
    """Nodes/weights of the n-point Gauss-Legendre rule on [-1, 1].

    Roots of P_n by Newton iteration from Chebyshev initial guesses; the
    rule integrates polynomials of degree 2n-1 exactly.
    """
    with workprec(prec + 32):
        nodes = []
        for i in range(1, npts // 2 + 1):
            x = mpf(math.cos(math.pi * (i - 0.25) / (npts + 0.5)))
            for _ in range(100):
                p0, p1 = mpf(1), x
                for j in range(2, npts + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = npts * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < mpf(2) ** (-(prec + 16)):
                    break
            w = 2 / ((1 - x * x) * dp * dp)
            nodes.append((x, w))
        out = [(-x, w) for (x, w) in nodes]
        if npts % 2 == 1:
            x = mpf(0)
            p0, p1 = mpf(1), x
            for j in range(2, npts + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = npts * (x * p1 - p0) / (x * x - 1)
            out.append((x, 2 / (dp * dp)))
        out.extend((x, w) for (x, w) in reversed(nodes))
        return tuple((+x, +w) for (x, w) in out)


def _panel(f, a, b, npts, prec):
    """Gauss-Legendre sums on [a, b], one per component of the list-valued f."""
    nodes = _gauss_legendre_nodes(npts, prec)
    mid = (a + b) / 2
    rad = (b - a) / 2
    sums = None
    for x, w in nodes:
        values = f(mid + rad * x)
        if sums is None:
            sums = [w * v for v in values]
        else:
            for i, v in enumerate(values):
                sums[i] += w * v
    return [s * rad for s in sums]


def quad_finite(f, a, b, tol, prec=None, max_panels=4096):
    """Adaptive bisection with an embedded lower/higher-order pair.

    Each panel is evaluated with n and 2n point Gauss-Legendre rules; their
    difference is the local error estimate.  A panel within its share of
    `tol` is accepted, otherwise bisected.

    f may return a list instead of a scalar.  Then every component is
    integrated on the same nodes and panels, `tol` is the budget of each
    component, a panel is accepted only when all components are within
    their share, and the result's value and error estimate are lists.
    """
    if prec is None:
        prec = mpmath.mp.prec
    tol = mpf(tol)
    n_lo = max(12, prec // 5)
    is_list = None

    def components(x):
        nonlocal is_list
        values = f(x)
        if is_list is None:
            is_list = isinstance(values, list)
        return values if is_list else [values]

    def result(value, error):
        return (value, error) if is_list else (value[0], error[0])

    with workprec(prec + 24):
        a, b = mpc(a), mpc(b)
        if a.imag == 0 and b.imag == 0:
            a, b = a.real, b.real
        stack = [(a, b, tol)]
        total = None
        err = None
        panels = 0
        while stack:
            x0, x1, budget = stack.pop()
            panels += 1
            coarse = _panel(components, x0, x1, n_lo, prec)
            fine = _panel(components, x0, x1, 2 * n_lo, prec)
            delta = [abs(hi - lo) for hi, lo in zip(fine, coarse)]
            if total is None:
                total = [0] * len(fine)
                err = [mpf(0)] * len(fine)
            if panels > max_panels:
                raise QuadratureError(
                    "subdivision budget exhausted",
                    *result(total, [e + d for e, d in zip(err, delta)]),
                    panels,
                )
            if all(d <= budget for d in delta) or abs(x1 - x0) < mpf(2) ** (-(prec // 2)):
                total = [t + v for t, v in zip(total, fine)]
                err = [e + d for e, d in zip(err, delta)]
            else:
                xm = (x0 + x1) / 2
                stack.append((x0, xm, budget / 2))
                stack.append((xm, x1, budget / 2))
    with workprec(prec):
        return QuadratureResult(*result([+t for t in total], [+e for e in err]), panels)


def quad_decay(f, c, tol, prec=None, envelope_max=1, max_panels=4096):
    """Integral over the real line of f with |f(x)| <= envelope_max * |e^(-c x^2)|.

    Truncates to [-X, X] with the Gaussian tail certified below tol/4 and
    runs quad_finite on the rest of the budget.  Re c must be positive.
    """
    if prec is None:
        prec = mpmath.mp.prec
    with workprec(prec + 24):
        c = mpc(c)
        if c.real <= 0:
            raise ValueError("quad_decay needs Re c > 0")
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
        inner = quad_finite(f, -X, X, tol - tail, prec=prec, max_panels=max_panels)
    with workprec(prec):
        return QuadratureResult(+inner.value, +(inner.abs_error_estimate + tail),
                                inner.subdivisions)
