"""The analytic objects of the formula: Mordell integrals, their wrapped and
principal-part-truncated forms, the Bessel-weighted main-term integrals, and
the residue/contour pair for the rectangle integral.  The per-nu Mordell and
main-term integrals of one k are each one band of the same fixed-point
kernel (_cosh_band behind mordell_band and script_I_band).

Parameter b is threaded through as an exact Fraction (the values that occur
are -1/12, 1/24 and 5/12); it only becomes a float inside sqrt(b/3) at the
working precision.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf, workprec
from mpmath.libmp import from_man_exp, mpf_cos_sin, mpf_exp, to_fixed

from .hpnum import (
    BesselFactor,
    bessel_factor_degree,
    bessel_i_series,
    decay_cut,
    gauss_legendre_fixed,
    quad_finite,
    quad_panels,
)

__all__ = [
    "cosh_path_floor",
    "mordell_band",
    "J",
    "Jstar",
    "J_gap",
    "lemma35_gap",
    "script_I_band",
    "L_closed",
    "L_contour",
]


def _sqrt_fraction(b, prec):
    with workprec(prec):
        return mpmath.sqrt(mpf(b.numerator) / b.denominator)


def cosh_path_floor(k, nu, z, prec):
    """A positive lower bound for |cosh(pi*i*(nu-1/6)/k - pi*z*x/k)| on real x.

    Write the argument as a + ib with beta0 = pi*(nu-1/6)/k, a = -pi*Re(z)*x/k
    and b = beta0 - pi*Im(z)*x/k; then |cosh(a+ib)|^2 = sinh(a)^2 + cos(b)^2.
    For z real b = beta0 stays put and the bound is |cos beta0| itself.  For
    complex z, sinh(a)^2 >= a^2 and |cos b| >= (2/pi)|b - b_j| at the
    nearest crossing b_j of pi/2 mod pi; minimizing the sum of squares over
    x gives 2 Re(z) g / sqrt(pi^2 Re(z)^2 + 4 Im(z)^2), with g the distance
    from beta0 to pi/2 + pi*Z.  That distance is at least pi/(6k), so the
    bound is uniformly positive.
    """
    with workprec(prec):
        z = mpc(z)
        beta0 = mpmath.pi * (mpf(6 * nu - 1) / (6 * k))
        if z.imag == 0:
            return abs(mpmath.cos(beta0))
        t = Fraction(6 * nu - 1, 6 * k) - Fraction(1, 2)
        d = abs(t - round(t))
        g = mpmath.pi * mpf(d.numerator) / d.denominator
        u, v = z.real, z.imag
        return 2 * u * g / mpmath.sqrt(mpmath.pi ** 2 * u * u + 4 * v * v)


def _exp_fixed(t, F):  # e^(t 2^-2F) at F bits
    return to_fixed(mpf_exp(from_man_exp(t, -2 * F), F + 8), F)


def _cos_sin_fixed(t, F):  # cos and sin of t 2^-2F at F bits
    return [to_fixed(v, F) for v in mpf_cos_sin(from_man_exp(t, -2 * F), F + 8)]


def _cosh_band(k, nus, u, weight, X, F, tol, prec):
    """int_{-X}^{X} g(|x|) / cosh(i beta_nu - u x) dx, beta_nu = pi(6nu-1)/(6k), for
    every nu in nus, from one quad_panels run at prec + 16 with budget tol.

    u = (Re u, Im u) and the panel sums are ints scaled by 2^F; weight(ax) gives
    (Re g, Im g) at |x| = ax 2^-F, once per |x|, and is real for real u.  Nodes
    mid + rad t truncate toward zero, so mirrored nodes share the |x| memo.  The
    rule is within 2^-F of the exact one and the node truncates once more, so
    it adds at most rad 2^-F (npts max|f| + 2 (1 + rad) max|f'|) per panel.

    Real u: per node one exp gives ch, sh = cosh, sinh(u x); per (nu, node) one
    division gives 1/cosh(i beta - u x) = (cos beta ch + i sin beta sh)
    / (cos^2 beta + sh^2).  The values are real by conjugate symmetry; each
    imaginary residue is checked against tol.  Complex u: per |x| one exp and
    one cos/sin give E = e^(u x) as ch, sh = 2 cosh, 2 sinh of Re(u) x rotated
    by Im(u) x; per (nu, node) one complex multiply and one division give
    1/cosh(i beta - u x) = 2/D, D = e^(i beta)/E + E/e^(i beta).
    """
    ru, iu = u
    with workprec(F + 16):
        betas = [mpmath.pi * mpf(6 * nu - 1) / (6 * k) for nu in nus]
        cos_b = [to_fixed(mpmath.cos(t)._mpf_, F) for t in betas]
        sin_b = [to_fixed(mpmath.sin(t)._mpf_, F) for t in betas]
        cos2_b = [to_fixed((mpmath.cos(t) ** 2)._mpf_, F) for t in betas]
    one2 = 1 << (2 * F)
    memo = {}

    def panel_nodes(x0, x1, npts):
        mid = to_fixed(((x0 + x1) / 2)._mpf_, F)
        rad = to_fixed(((x1 - x0) / 2)._mpf_, F)
        return rad, [(mid + (rad * t >> F) if t >= 0 else mid - (rad * -t >> F), w)
                     for t, w in gauss_legendre_fixed(npts, F)]

    def real_sums(x0, x1, npts):
        rad, nodes = panel_nodes(x0, x1, npts)
        re, im = [0] * len(nus), [0] * len(nus)
        for x, w in nodes:
            ax = abs(x)
            g = memo.get(ax)
            if g is None:
                g = memo[ax] = weight(ax)[0]
            e = _exp_fixed(ru * x, F)
            e_inv = one2 // e
            ch = (e + e_inv) >> 1
            sh = (e - e_inv) >> 1
            sh2 = sh * sh >> F
            num = w * g
            qs = [num // (c2 + sh2) for c2 in cos2_b]
            re = [r + q * ch for r, q in zip(re, qs)]
            im = [v + q * sh for v, q in zip(im, qs)]
        # re and im carry 2F fraction bits; cos/sin beta and rad add F each
        return [mpc(mpf((cb * r * rad, -4 * F)), mpf((sb * v * rad, -4 * F)))
                for cb, sb, r, v in zip(cos_b, sin_b, re, im)]

    def node(ax):
        e = _exp_fixed(ru * ax, F)
        ch, sh = e + (e_inv := one2 // e), e - e_inv
        c, s = _cos_sin_fixed(iu * ax, F)
        return (*weight(ax), ch * c >> F, ch * s >> F, sh * s >> F, -(sh * c >> F))

    def complex_sums(x0, x1, npts):
        rad, nodes = panel_nodes(x0, x1, npts)
        re, im = [0] * len(nus), [0] * len(nus)
        for x, w in nodes:
            vals = memo.get(abs(x))
            if vals is None:
                vals = memo[abs(x)] = node(abs(x))
            gr, gi, a1, a2, b1, b2 = vals
            if x < 0:  # sh and sin(Im(u) x) are odd in x
                a2, b2 = -a2, -b2
            wr, wi = w * gr, w * gi
            for j, (cb, sb) in enumerate(zip(cos_b, sin_b)):
                dr = cb * a1 + sb * a2 >> F
                di = cb * b1 + sb * b2 >> F
                m = dr * dr + di * di
                re[j] += (wr * dr + wi * di) // m
                im[j] += (wi * dr - wr * di) // m
        # the quotients carry F fraction bits and rad adds F; the factor 2 is 2/D
        return [mpc(mpf((2 * r * rad, -2 * F)), mpf((2 * v * rad, -2 * F)))
                for r, v in zip(re, im)]

    with workprec(prec + 40):
        res = quad_panels(complex_sums if iu else real_sums, -X, X, tol, prec + 16)
        if not iu and any(abs(v.imag) > tol for v in res.value):
            raise ArithmeticError("symmetry violation: imaginary residue above tol")
    with workprec(prec):
        return [+v if iu else +v.real for v in res.value]


def mordell_band(k, nus, z, tol, prec):
    """I_{k,nu}(z) = int e^(-3u x^2) / cosh(i beta_nu - u x) dx over the real line,
    u = pi z/k, for every nu in nus from one _cosh_band; requires Re z > 0.
    The cut [-X, X] is decay_cut's for the smallest cosh_path_floor over nus,
    and its certified tail comes off tol, so each nu keeps tol.

    Error budget.  G = 24 + 2 ceil(log2(1/floor)) + bits(prec + 16) + 2 bits(X),
    plus ceil(log2(e) Re(u) X) for real z; bits(prec + 16) covers the rule
    sizes.  Rounding u and x moves the exponents by a few X^2 ulp.
    |D| >= 2 floor (complex z) or cos^2 beta + sh^2 >= floor^2 (real z) keeps
    1/cosh within a few X^2 ulp / floor^2, and each quotient adds one ulp,
    times ch <= e^(Re(u) X) for real z.  So each per-nu panel sum is within
    2^-(prec+36) (x1 - x0) of the Gauss-Legendre sum in exact arithmetic at
    the computed nodes and weights; _cosh_band bounds the rule's error.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not nus:
        return []
    quad_prec = prec + 16
    with workprec(quad_prec):
        z = mpc(z)
        if z.real <= 0:
            raise ValueError("mordell_band needs Re z > 0")
        floor = min(cosh_path_floor(k, nu, z, prec) for nu in nus)
        if floor < mpf(2) ** (-(prec // 2)):
            raise ValueError("path too close to pole of the integrand")
        X, tail = decay_cut(3 * mpmath.pi * z / k, tol, quad_prec, 1 / floor)
        tol = mpf(tol) - tail
        growth = 0 if z.imag else math.ceil(float(mpmath.pi * z.real * X / k) / math.log(2))
    F = (quad_prec + 24 + 2 * math.ceil(-math.log2(floor)) + quad_prec.bit_length()
         + 2 * int(X).bit_length() + growth)
    with workprec(F + 16):
        u = mpmath.pi * z / k
        ru, iu = to_fixed(u.real._mpf_, F), to_fixed(u.imag._mpf_, F)

    def gaussian(ax):  # e^(-3u x^2) at F bits
        x2 = ax * ax >> F
        c, s = _cos_sin_fixed(-3 * iu * x2, F) if iu else (1 << F, 0)
        g = _exp_fixed(-3 * ru * x2, F)
        return g * c >> F, g * s >> F

    return _cosh_band(k, nus, (ru, iu), gaussian, X, F, tol, prec)


def J(b, k, nu, z, tol, prec):
    """z * e^(pi*b/(k*z)) * I_{k,nu}(z)."""
    b = Fraction(b)
    with workprec(prec + 16):
        z = mpc(z)
        if z.imag == 0:
            z = z.real
        i = mordell_band(k, [nu], z, tol, prec=prec + 16)[0]
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


def Jstar(b, k, nu, z, tol, prec):
    """Principal part truncation: sqrt(b/3) * int_{-1}^{1} of the wrapped kernel."""
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


def J_gap(b, k, nu, z, tol, prec):
    """J - Jstar computed without cancellation, as the tail integral over |x| > 1.

    Rescaling x by z/sqrt(b/3) in the Mordell integral turns J into the
    Jstar integrand over the whole line, so the gap is just the two tails,
    where the exponential factor only damps.  Valid for real z > 0, b > 0.
    """
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


def _band_guard_bits(k, degree):
    """Guard bits G of script_I_band for band k and Bessel degree M; see its error budget."""
    sigma_bits = math.ceil(-math.log2(math.sin(math.pi / (6 * k))))
    return 24 + 2 * (degree + 1).bit_length() + 2 * sigma_bits


def script_I_band(b, k, nus, n, tol, prec):
    """int_{-1}^{1} B(x) / cosh(i beta_nu - alpha x) dx for every nu in nus, from
    one _cosh_band, with B(x) = sqrt(s) I_1(c sqrt(s)), s = 1 - x^2,
    c = (2pi/k) sqrt(2bn) and alpha = pi sqrt(b/3)/k.  The weight B is a
    BesselFactor polynomial in s, zero where s <= 0; tol is each nu's budget.

    Error budget.  F = prec + 16 + G, G = 24 + 2 bits(M+1) + 2 ceil(log2(1/sigma))
    with sigma = sin(pi/(6k)) <= |cos beta_nu| and M the polynomial degree; let
    u = 2^-F.  The polynomial is truncated at relative error 2^-(prec+24).
    Rounding its coefficients, the Horner steps and s move B by at most
    3(M+1) u I_1(c) (s S'(s) <= M S(s), and I_1(c) is the largest B).  The
    denominator cos^2 beta_nu + sh^2 >= sigma^2 carries an error of a few
    u, i.e. a few u / sigma^2 relative.  To first order in u each per-nu
    panel sum is therefore within 2^-(prec+36) (I_1(c) (x1 - x0)
    + sum_j w_j |f(x_j)|) of the Gauss-Legendre sum in exact arithmetic at
    the computed nodes and weights; _cosh_band bounds the rule's error.
    """
    b = Fraction(b)
    if b <= 0 or n < 1:
        raise ValueError("script_I_band needs b > 0 and n >= 1")
    if k < 1:
        raise ValueError("k must be positive")
    if not nus:
        return []
    quad_prec = prec + 16

    def bessel_argument():
        return 2 * mpmath.pi / k * mpmath.sqrt(mpf(2 * b.numerator * n) / b.denominator)

    with workprec(quad_prec):
        degree = bessel_factor_degree(bessel_argument(), quad_prec)
        tol = mpf(tol)
    F = quad_prec + _band_guard_bits(k, degree)
    with workprec(F + 16):
        factor = BesselFactor(bessel_argument(), degree, F)
        alpha = to_fixed((mpmath.pi * _sqrt_fraction(b / 3, F + 16) / k)._mpf_, F)

    def bessel(ax):  # B at F bits
        s = (1 << F) - (ax * ax >> F)
        return (factor(s) if s > 0 else 0), 0

    return _cosh_band(k, nus, (alpha, 0), bessel, mpf(1), F, tol, prec)


def L_closed(k, n, y, prec):
    """(1/k) sqrt(y/n) I_1(4*pi*sqrt(n*y)/k); zero at y = 0."""
    with workprec(prec + 16):
        y = mpf(y)
        if y < 0 or n < 1 or k < 1:
            raise ValueError("L_closed needs y >= 0, n >= 1, k >= 1")
        if y == 0:
            return mpf(0)
        x = 4 * mpmath.pi * mpmath.sqrt(n * y) / k
        val = mpmath.sqrt(y / n) / k * bessel_i_series(2, x, prec + 16)
    with workprec(prec):
        return +val


def L_contour(k, n, y, N, tol, prec):
    """(1/(2*pi*i)) times the rectangle integral of e^(2*pi*n*w + 2*pi*y/(k^2 w)).

    The rectangle has corners +-1/N^2 +- i/(k(k+N)), counterclockwise, with
    0 strictly inside.  Precision is raised automatically to survive the
    peak of the integrand on the right edge.
    """
    if N < 1:
        raise ValueError("degenerate rectangle")
    # peak of Re(2*pi*y/(k^2 w)) on the contour is 2*pi*y*N^2/k^2 at w = 1/N^2
    peak_bits = int(2 * math.pi * float(y) * N * N / (k * k) / math.log(2)) + 16
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
