"""The analytic objects of the formula: Mordell integrals, their wrapped and
principal-part-truncated forms, the Bessel-weighted main-term integrals, and
the residue/contour pair for the rectangle integral.

Parameter b is threaded through as an exact Fraction (the values that occur
are -1/12, 1/24 and 5/12); it only becomes a float inside sqrt(b/3) at the
working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf, workprec

from .hpnum import bessel_i1, quad_decay, quad_finite

__all__ = [
    "MordellParams",
    "cosh_path_floor",
    "mordell_I",
    "J",
    "Jstar",
    "J_gap",
    "lemma35_gap",
    "script_I",
    "script_I_band",
    "L_closed",
    "L_contour",
]


@dataclass(frozen=True)
class MordellParams:
    k: int
    nu: int
    b: Fraction | None = None
    n: int | None = None

    def validate(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        # (nu - 1/6)/k can never sit on 1/2 mod 1, so the cosh in the
        # integrand has no zero on the real path; see cosh_path_floor.
        if (6 * self.nu - 1 - 3 * self.k) % (6 * self.k) == 0:
            raise ValueError("cosh argument degenerate")  # unreachable for integer nu


def _sqrt_fraction(b, prec):
    with workprec(prec):
        return mpmath.sqrt(mpf(b.numerator) / b.denominator)


def cosh_path_floor(k, nu, z, prec):
    """A positive lower bound for |cosh(pi*i*(nu-1/6)/k - pi*z*x/k)| on real x.

    For z real the imaginary part of the argument is constant and
    |cosh(a+ib)| >= |cos b|; the distance of (nu-1/6)/k from 1/2 mod 1 is
    at least 1/(6k), so the bound is uniformly positive.  For complex z the
    imaginary part drifts; at each crossing of pi/2 mod pi the bound
    |cosh| >= |sinh(Re)| applies, minimized over the crossings.
    """
    with workprec(prec):
        z = mpc(z)
        beta0 = mpmath.pi * (mpf(6 * nu - 1) / (6 * k))
        if z.imag == 0:
            return abs(mpmath.cos(beta0))
        # crossings: beta0 - pi*Im(z)*x/k = pi/2 + j*pi  =>  x_j
        floor = abs(mpmath.cos(beta0))  # value at x = 0 as a starting candidate
        v = z.imag
        u = z.real
        # solve for a window of j around the path center
        for j in range(-8, 9):
            xj = (beta0 - mpmath.pi / 2 - j * mpmath.pi) * k / (mpmath.pi * v)
            a = -mpmath.pi * u * xj / k
            floor = min(floor, abs(mpmath.sinh(a)))
        return floor


def mordell_I(k, nu, z, tol, prec=None):
    """I_{k,nu}(z): the Gaussian/cosh integral over the real line.

    Requires Re z > 0.  For real z the integrand is conjugate-symmetric
    under x -> -x, so the value is real; the numeric imaginary part is kept
    as a sanity residue for the caller.
    """
    if prec is None:
        prec = mpmath.mp.prec
    MordellParams(k, nu).validate()
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


def J(b, k, nu, z, tol, prec=None):
    """z * e^(pi*b/(k*z)) * I_{k,nu}(z)."""
    if prec is None:
        prec = mpmath.mp.prec
    b = Fraction(b)
    with workprec(prec + 16):
        z = mpc(z)
        if z.imag == 0:
            z = z.real
        i = mordell_I(k, nu, z, tol, prec=prec + 16)
        val = z * mpmath.exp(mpmath.pi * mpf(b.numerator) / (b.denominator * k * z)) * i
    with workprec(prec):
        return +val


def _truncated_integrand(b, k, nu, z, prec):
    sq = _sqrt_fraction(b / 3, prec + 16)
    pi = mpmath.pi
    shift = pi * 1j * mpf(6 * nu - 1) / (6 * k)
    w = pi * mpf(b.numerator) / (b.denominator * k * z)

    def integrand(x):
        return mpmath.exp(w * (1 - x * x)) / mpmath.cosh(shift - pi * sq * x / k)

    return sq, integrand


def Jstar(b, k, nu, z, tol, prec=None):
    """Principal part truncation: sqrt(b/3) * int_{-1}^{1} of the wrapped kernel."""
    if prec is None:
        prec = mpmath.mp.prec
    b = Fraction(b)
    if b <= 0:
        raise ValueError("Jstar needs b > 0")
    with workprec(prec + 16):
        z = mpc(z)
        if z.imag == 0:
            z = z.real
        sq, integrand = _truncated_integrand(b, k, nu, z, prec)
        res = quad_finite(integrand, -1, 1, mpf(tol), prec=prec + 16)
        val = sq * res.value
    with workprec(prec):
        return +val


def J_gap(b, k, nu, z, tol, prec=None):
    """J - Jstar computed without cancellation, as the tail integral over |x| > 1.

    Rescaling x by z/sqrt(b/3) in the Mordell integral turns J into the
    Jstar integrand over the whole line, so the gap is just the two tails,
    where the exponential factor only damps.  Valid for real z > 0, b > 0.
    """
    if prec is None:
        prec = mpmath.mp.prec
    b = Fraction(b)
    if b <= 0:
        raise ValueError("J_gap needs b > 0")
    with workprec(prec + 16):
        z = mpf(z)
        if z <= 0:
            raise ValueError("J_gap needs real z > 0")
        sq, integrand = _truncated_integrand(b, k, nu, z, prec)
        # e^(w(1-x^2)) with w = pi*b/(kz) > 0 decays like e^(-2w(x-1)) past 1;
        # cut where the envelope is below tol.
        w = mpmath.pi * mpf(b.numerator) / (b.denominator * k * z)
        X = 1 + mpmath.sqrt(mpmath.log(mpf(4) / tol) / w + 1) if w > 0 else 2
        right = quad_finite(integrand, 1, X, mpf(tol) / 4, prec=prec + 16)
        left = quad_finite(integrand, -X, -1, mpf(tol) / 4, prec=prec + 16)
        val = sq * (right.value + left.value)
    with workprec(prec):
        return +val


def lemma35_gap(b, k, nu, z_values, tol=mpf("1e-12"), prec=96):
    """Boundedness record for the principal-part truncation along z -> 0.

    For b > 0 rows report |J - Jstar| via the cancellation-free tail
    integral; for b <= 0 they report |J| itself.  The comparison scale is
    1/|pi/2 - pi(nu-1/6)/k| and the empirical constant is gap * scale^-1.
    """
    b = Fraction(b)
    with workprec(prec):
        denom = abs(mpmath.pi / 2 - mpmath.pi * mpf(6 * nu - 1) / (6 * k))
        rows = []
        for z in z_values:
            if b > 0:
                gap = abs(J_gap(b, k, nu, z, tol, prec=prec))
            else:
                gap = abs(J(b, k, nu, z, tol, prec=prec))
            rows.append(
                {
                    "z": mpf(z),
                    "gap": gap,
                    "bound_denominator": denom,
                    "empirical_C": gap * denom,
                }
            )
        return rows


def script_I(b, k, nu, n, tol, prec=None):
    """The Bessel-weighted main-term integral over [-1, 1].

    Returns the real part; raises if the imaginary residue exceeds tol
    (the integrand is conjugate-symmetric under x -> -x, so the exact value
    is real).  The integrand vanishes at the endpoints.
    """
    if prec is None:
        prec = mpmath.mp.prec
    b = Fraction(b)
    if b <= 0 or n < 1:
        raise ValueError("script_I needs b > 0 and n >= 1")
    MordellParams(k, nu).validate()
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
            return root * bessel_i1(amp * mpmath.sqrt(two_b_n * s), prec + 16) \
                / mpmath.cosh(shift - pi * sq * x / k)

        res = quad_finite(integrand, -1, 1, mpf(tol), prec=prec + 16)
        if abs(res.value.imag if isinstance(res.value, mpc) else 0) > tol:
            raise ArithmeticError("symmetry violation: imaginary residue above tol")
        val = res.value.real if isinstance(res.value, mpc) else res.value
    with workprec(prec):
        return +val


def script_I_band(b, k, nus, n, tol, prec=None):
    """script_I(b, k, nu, n, tol, prec) for every nu in nus, in one quadrature.

    The Bessel factor B(x) = sqrt(1-x^2) I_1(...) does not depend on nu and
    is even in x, so it is computed once per |x| and shared by all nu on
    the same nodes and panels.  With zeta = e^(i*beta_nu) and e = e^(alpha x),
    1/cosh(i*beta_nu - alpha x) = 2/(zeta/e + conj(zeta) e), so no (nu, node)
    pair needs a transcendental function.  tol is the budget of each nu, and
    each nu's imaginary residue is checked against it as in script_I.
    """
    if prec is None:
        prec = mpmath.mp.prec
    b = Fraction(b)
    if b <= 0 or n < 1:
        raise ValueError("script_I needs b > 0 and n >= 1")
    for nu in nus:
        MordellParams(k, nu).validate()
    if not nus:
        return []
    with workprec(prec + 16):
        pi = mpmath.pi
        sq = _sqrt_fraction(b / 3, prec)
        alpha = pi * sq / k
        zetas = [mpmath.expjpi(mpf(6 * nu - 1) / (6 * k)) for nu in nus]
        amp = 2 * pi / k
        two_b_n = mpf(2 * b.numerator * n) / b.denominator
        bessel = {}

        def integrand(x):
            s = 1 - x * x
            if s <= 0:
                return [mpc(0)] * len(zetas)
            ax = abs(x)
            weight = bessel.get(ax)
            if weight is None:
                weight = 2 * mpmath.sqrt(s) * bessel_i1(amp * mpmath.sqrt(two_b_n * s), prec + 16)
                bessel[ax] = weight
            e = mpmath.exp(alpha * x)
            e_inv = 1 / e
            return [weight / (z * e_inv + z.conjugate() * e) for z in zetas]

        res = quad_finite(integrand, -1, 1, mpf(tol), prec=prec + 16)
        if any(abs(v.imag) > tol for v in res.value):
            raise ArithmeticError("symmetry violation: imaginary residue above tol")
        vals = [v.real for v in res.value]
    with workprec(prec):
        return [+v for v in vals]


def L_closed(k, n, y, prec):
    """(1/k) sqrt(y/n) I_1(4*pi*sqrt(n*y)/k); zero at y = 0."""
    with workprec(prec + 16):
        y = mpf(y)
        if y < 0 or n < 1 or k < 1:
            raise ValueError("L_closed needs y >= 0, n >= 1, k >= 1")
        if y == 0:
            return mpf(0)
        val = mpmath.sqrt(y / n) / k * bessel_i1(4 * mpmath.pi * mpmath.sqrt(n * y) / k, prec + 16)
    with workprec(prec):
        return +val


def L_contour(k, n, y, N, tol, prec=None):
    """(1/(2*pi*i)) times the rectangle integral of e^(2*pi*n*w + 2*pi*y/(k^2 w)).

    The rectangle has corners +-1/N^2 +- i/(k(k+N)), counterclockwise, with
    0 strictly inside.  Precision is raised automatically to survive the
    peak of the integrand on the right edge.
    """
    if N < 1:
        raise ValueError("degenerate rectangle")
    # peak of Re(2*pi*y/(k^2 w)) on the contour is 2*pi*y*N^2/k^2 at w = 1/N^2
    peak_bits = int(2 * math.pi * float(y) * N * N / (k * k) / math.log(2)) + 16
    if prec is None:
        prec = mpmath.mp.prec
    work = prec + peak_bits
    with workprec(work):
        y = mpf(y)
        a = mpf(1) / (N * N)
        beta = mpf(1) / (k * (k + N))
        corners = [
            mpc(a, -beta),
            mpc(a, beta),
            mpc(-a, beta),
            mpc(-a, -beta),
            mpc(a, -beta),
        ]
        two_pi = 2 * mpmath.pi

        def g(w):
            return mpmath.exp(two_pi * n * w + two_pi * y / (k * k * w))

        total = mpc(0)
        panels = 0
        for w0, w1 in zip(corners[:-1], corners[1:]):
            seg = w1 - w0
            res = quad_finite(lambda s: g(w0 + s * seg) * seg, 0, 1, mpf(tol) / 8,
                              prec=work, max_panels=8192)
            total += res.value
            panels += res.subdivisions
        val = total / (2j * mpmath.pi)
    with workprec(prec):
        return +val
