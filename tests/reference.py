"""Pointwise mpf references for the fixed-point band integrals.

Each integrand is evaluated node by node in mpf/mpc through the adaptive
`quad_finite`, independently of the fixed-point arithmetic of
`integrals._cosh_band`: `mordell_I` for one nu of `mordell_band`,
`script_I` for one nu of `script_I_band`, and `quad_decay` for Gaussian
decay over the real line.  Like the package, they take their precision
explicitly and never read the global mpmath precision.
"""

from fractions import Fraction

import mpmath
from mpmath import mpc, mpf, workprec

from circleforge.hpnum import QuadratureResult, bessel_i_series, decay_cut, quad_finite
from circleforge.integrals import _sqrt_fraction, cosh_path_floor


def quad_decay(f, c, tol, prec, envelope_max=1, max_panels=4096):
    """Integral over the real line of f with |f(x)| <= envelope_max * |e^(-c x^2)|.

    Truncates to [-X, X] at decay_cut, with the Gaussian tail certified
    below tol/4, and runs quad_finite on the rest of the budget.
    """
    with workprec(prec + 24):
        X, tail = decay_cut(c, tol, prec, envelope_max)
        inner = quad_finite(f, -X, X, mpf(tol) - tail, prec=prec, max_panels=max_panels)
    with workprec(prec):
        return QuadratureResult(+inner.value, +(inner.abs_error_estimate + tail),
                                inner.subdivisions, inner.unconverged)


def mordell_I(k, nu, z, tol, prec):
    """I_{k,nu}(z): the Gaussian/cosh integral over the real line.

    Requires Re z > 0.  For real z the integrand is conjugate-symmetric
    under x -> -x, so the value is real; the numeric imaginary part is kept
    as a sanity residue for the caller.
    """
    if k < 1:
        raise ValueError("k must be positive")
    with workprec(prec + 16):
        z = mpc(z)
        if z.real <= 0:
            raise ValueError("mordell_I needs Re z > 0")
        if z.imag == 0:
            z = z.real
        floor = cosh_path_floor(k, nu, z, prec)
        if floor < mpf(2) ** (-(prec // 2)):
            raise ValueError("path too close to pole of the integrand")
        pi = mpmath.pi
        shift = pi * 1j * mpf(6 * nu - 1) / (6 * k)
        c = 3 * pi * z / k

        def integrand(x):
            return mpmath.exp(-c * x * x) / mpmath.cosh(shift - pi * z * x / k)

        res = quad_decay(integrand, c, mpf(tol), prec=prec + 16, envelope_max=1 / floor)
    with workprec(prec):
        return +res.value


def script_I(b, k, nu, n, tol, prec):
    """The Bessel-weighted main-term integral over [-1, 1].

    Returns the real part; raises if the imaginary residue exceeds tol
    (the integrand is conjugate-symmetric under x -> -x, so the exact value
    is real).  The integrand vanishes at the endpoints.
    """
    b = Fraction(b)
    if b <= 0 or n < 1:
        raise ValueError("script_I needs b > 0 and n >= 1")
    if k < 1:
        raise ValueError("k must be positive")
    with workprec(prec + 16):
        pi = mpmath.pi
        sq = _sqrt_fraction(b / 3, prec)
        shift = pi * 1j * mpf(6 * nu - 1) / (6 * k)
        amp = 2 * pi / k
        two_b_n = mpf(2 * b.numerator * n) / b.denominator

        def integrand(x):
            s = 1 - x * x
            if s <= 0:
                return mpc(0)
            root = mpmath.sqrt(s)
            return root * bessel_i_series(2, amp * mpmath.sqrt(two_b_n * s), prec + 16) \
                / mpmath.cosh(shift - pi * sq * x / k)

        res = quad_finite(integrand, -1, 1, mpf(tol), prec=prec + 16)
        if abs(res.value.imag if isinstance(res.value, mpc) else 0) > tol:
            raise ArithmeticError("symmetry violation: imaginary residue above tol")
        val = res.value.real if isinstance(res.value, mpc) else res.value
    with workprec(prec):
        return +val
