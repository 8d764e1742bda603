"""The analytic objects of the formula: Mordell integrals, their wrapped and
principal-part-truncated forms, the Bessel-weighted main-term integrals, and
the residue/contour pair for the rectangle integral.  The per-nu integrals of
one k share a band quadrature in Python-integer fixed point (mordell_band,
script_I_band); mordell_I and script_I stay as their pointwise mpf references.

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
    bessel_i1,
    decay_cut,
    gauss_legendre_fixed,
    quad_decay,
    quad_finite,
    quad_panels,
)

__all__ = [
    "cosh_path_floor",
    "mordell_I",
    "mordell_band",
    "J",
    "Jstar",
    "J_gap",
    "lemma35_gap",
    "script_I",
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


def mordell_band(k, nus, z, tol, prec):
    """mordell_I(k, nu, z, tol, prec) for every nu in nus, in one quadrature.

    All nu share quad_decay's cut [-X, X] for the smallest cosh_path_floor
    over nus (so each nu keeps tol) and the panels of one quad_panels run
    at prec + 16; panel sums are Python ints with F = prec + 16 + G
    fractional bits.  With u = pi z/k and E = e^(u x), the integrand is
    e^(-3u x^2) 2/D with D = e^(i beta_nu)/E + E/e^(i beta_nu).  Each |x|
    costs one exp for the Gaussian and one for e^(Re(u) x), plus a cos/sin
    for each when z is complex; each (nu, x) costs one complex multiply and
    one division by |D|^2.

    Error budget.  G = 24 + 2 ceil(log2(1/floor)) + bits(prec + 16) + 2 bits(X)
    for the smallest floor; bits(prec + 16) covers the rule sizes.  Rounding
    u and x moves the exponents by a few X^2 ulp, and |D| >= 2 floor keeps
    2/D within a few X^2 ulp / floor^2; each quotient adds one ulp.  So each
    per-nu panel sum is within 2^-(prec+36) (x1 - x0) of the Gauss-Legendre
    sum in exact arithmetic at the computed nodes and weights.  Those come
    from gauss_legendre_fixed, within 1 ulp (2^-F) of the exact rule, and
    mid + rad t truncates once more, so each node is within (1 + rad) ulp;
    with sum w_j = 2 the rule adds at most
    rad 2^-F (npts max|f| + 2 (1 + rad) max|f'|) per panel, rad = (x1 - x0)/2.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not nus:
        return []
    quad_prec = prec + 16
    with workprec(quad_prec):
        z = mpc(z)
        if z.real <= 0:
            raise ValueError("mordell_I needs Re z > 0")
        floor = min(cosh_path_floor(k, nu, z, prec) for nu in nus)
        if floor < mpf(2) ** (-(prec // 2)):
            raise ValueError("path too close to pole of the integrand")
        X, tail = decay_cut(3 * mpmath.pi * z / k, tol, quad_prec, 1 / floor)
    F = (quad_prec + 24 + 2 * math.ceil(-math.log2(floor)) + quad_prec.bit_length()
         + 2 * int(X).bit_length())
    with workprec(F + 16):
        u = mpmath.pi * z / k
        ru, iu = to_fixed(u.real._mpf_, F), to_fixed(u.imag._mpf_, F)
        trig = [(to_fixed(mpmath.cos(t)._mpf_, F), to_fixed(mpmath.sin(t)._mpf_, F))
                for t in (mpmath.pi * mpf(6 * nu - 1) / (6 * k) for nu in nus)]
    one, one2 = 1 << F, 1 << (2 * F)

    def fixed_exp(t):  # e^(t 2^-2F) at F bits
        return to_fixed(mpf_exp(from_man_exp(t, -2 * F), F + 8), F)

    def rotation(t):  # cos and sin of t 2^-2F at F bits; no rotation for real z
        return [to_fixed(v, F) for v in mpf_cos_sin(from_man_exp(t, -2 * F), F + 8)] \
            if iu else (one, 0)

    def node(ax):
        x2 = ax * ax >> F
        g = fixed_exp(-3 * ru * x2)
        e = fixed_exp(ru * ax)
        ch, sh = e + (e_inv := one2 // e), e - e_inv
        (gc, gs), (c, s) = rotation(-3 * iu * x2), rotation(iu * ax)
        return g * gc >> F, g * gs >> F, ch * c >> F, ch * s >> F, sh * s >> F, -(sh * c >> F)

    nodes = {}

    def panel_sums(x0, x1, npts):
        mid = to_fixed(((x0 + x1) / 2)._mpf_, F)
        rad = to_fixed(((x1 - x0) / 2)._mpf_, F)
        re, im = [0] * len(nus), [0] * len(nus)
        for t, w in gauss_legendre_fixed(npts, F):
            d = rad * t
            x = mid + (d >> F if d >= 0 else -(-d >> F))
            vals = nodes.get(abs(x))
            if vals is None:
                vals = nodes[abs(x)] = node(abs(x))
            gr, gi, a1, a2, b1, b2 = vals
            if x < 0:  # sh and sin(Im(u) x) are odd in x
                a2, b2 = -a2, -b2
            wr, wi = w * gr, w * gi
            for j, (cb, sb) in enumerate(trig):
                dr = cb * a1 + sb * a2 >> F
                di = cb * b1 + sb * b2 >> F
                m = dr * dr + di * di
                re[j] += (wr * dr + wi * di) // m
                im[j] += (wi * dr - wr * di) // m
        # the quotients carry F fraction bits and rad adds F; the factor 2 is 2/D
        return [mpc(mpf((2 * r * rad, -2 * F)), mpf((2 * v * rad, -2 * F)))
                for r, v in zip(re, im)]

    with workprec(quad_prec + 24):
        res = quad_panels(panel_sums, -X, X, mpf(tol) - tail, quad_prec)
    with workprec(prec):
        return [+v for v in res.value]


def J(b, k, nu, z, tol, prec):
    """z * e^(pi*b/(k*z)) * I_{k,nu}(z)."""
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
            return root * bessel_i1(amp * mpmath.sqrt(two_b_n * s), prec + 16) \
                / mpmath.cosh(shift - pi * sq * x / k)

        res = quad_finite(integrand, -1, 1, mpf(tol), prec=prec + 16)
        if abs(res.value.imag if isinstance(res.value, mpc) else 0) > tol:
            raise ArithmeticError("symmetry violation: imaginary residue above tol")
        val = res.value.real if isinstance(res.value, mpc) else res.value
    with workprec(prec):
        return +val


def _band_guard_bits(k, degree):
    """Guard bits G of script_I_band for band k and Bessel degree M; see its error budget."""
    sigma_bits = math.ceil(-math.log2(math.sin(math.pi / (6 * k))))
    return 24 + 2 * (degree + 1).bit_length() + 2 * sigma_bits


def script_I_band(b, k, nus, n, tol, prec):
    """script_I(b, k, nu, n, tol, prec) for every nu in nus, in one quadrature.

    All nu share the nodes and panels of one quad_panels run (same rule,
    tolerance and panel decisions as quad_finite at prec + 16), and the
    panel sums are formed on Python ints with F = prec + 16 + G fractional
    bits.  Per node x, with s = 1 - x^2:
      * B = sqrt(s) I_1(c sqrt(s)), c = (2pi/k) sqrt(2bn), is a BesselFactor
        polynomial in s, evaluated once per |x| since B is even;
      * one exp(alpha x), alpha = pi sqrt(b/3)/k, gives ch = cosh(alpha x)
        and sh = sinh(alpha x);
      * 1/cosh(i beta_nu - alpha x) = (cos beta_nu ch + i sin beta_nu sh)
        / (cos^2 beta_nu + sh^2), beta_nu = pi(6nu-1)/(6k): one integer
        division per (nu, node); cos beta_nu and sin beta_nu multiply the
        per-nu sums once per panel.
    tol is the budget of each nu, and each nu's imaginary residue is
    checked against it as in script_I.

    Error budget.  G = 24 + 2 bits(M+1) + 2 ceil(log2(1/sigma)) with
    sigma = sin(pi/(6k)) <= |cos beta_nu| and M the polynomial degree; let
    u = 2^-F.  The polynomial is truncated at relative error 2^-(prec+24).
    Rounding its coefficients, the Horner steps and s move B by at most
    3(M+1) u I_1(c) (s S'(s) <= M S(s), and I_1(c) is the largest B).  The
    denominator cos^2 beta_nu + sh^2 >= sigma^2 carries an error of a few
    u, i.e. a few u / sigma^2 relative.  To first order in u every node
    value f(x) is therefore within 2^-(prec+36) (I_1(c) + |f(x)|) of the
    exact integrand at the computed node, and each per-nu panel sum within
    2^-(prec+36) (I_1(c) (x1 - x0) + sum_j w_j |f(x_j)|) of the
    Gauss-Legendre sum in exact arithmetic at the computed nodes and
    weights.  gauss_legendre_fixed holds those within 1 ulp u of the exact
    rule, and mid + rad t truncates once more, so each node is within
    (1 + rad) u; with sum w_j = 2 the rule adds at most
    rad u (npts max|f| + 2 (1 + rad) max|f'|) per panel, rad = (x1 - x0)/2.
    """
    b = Fraction(b)
    if b <= 0 or n < 1:
        raise ValueError("script_I needs b > 0 and n >= 1")
    if k < 1:
        raise ValueError("k must be positive")
    if not nus:
        return []
    quad_prec = prec + 16

    def bessel_argument():
        return 2 * mpmath.pi / k * mpmath.sqrt(mpf(2 * b.numerator * n) / b.denominator)

    with workprec(quad_prec):
        degree = bessel_factor_degree(bessel_argument(), quad_prec)
    F = quad_prec + _band_guard_bits(k, degree)
    with workprec(F + 16):
        factor = BesselFactor(bessel_argument(), degree, F)
        alpha = to_fixed((mpmath.pi * _sqrt_fraction(b / 3, F + 16) / k)._mpf_, F)
        betas = [mpmath.pi * mpf(6 * nu - 1) / (6 * k) for nu in nus]
        cos_b = [to_fixed(mpmath.cos(t)._mpf_, F) for t in betas]
        sin_b = [to_fixed(mpmath.sin(t)._mpf_, F) for t in betas]
        cos2_b = [to_fixed((mpmath.cos(t) ** 2)._mpf_, F) for t in betas]
    one = 1 << F
    one2 = 1 << (2 * F)
    bessel = {}

    def panel_sums(x0, x1, npts):
        mid = to_fixed(((x0 + x1) / 2)._mpf_, F)
        rad = to_fixed(((x1 - x0) / 2)._mpf_, F)
        re = [0] * len(nus)
        im = [0] * len(nus)
        for t, w in gauss_legendre_fixed(npts, F):
            d = rad * t
            # truncate toward zero, so mirrored nodes are exact negatives
            # and share the |x| memo
            x = mid + (d >> F if d >= 0 else -(-d >> F))
            s = one - (x * x >> F)
            if s <= 0:
                continue
            ax = abs(x)
            weight = bessel.get(ax)
            if weight is None:
                weight = bessel[ax] = factor(s)
            e = to_fixed(mpf_exp(from_man_exp(alpha * x, -2 * F), F + 8), F)
            e_inv = one2 // e
            ch = (e + e_inv) >> 1
            sh = (e - e_inv) >> 1
            sh2 = sh * sh >> F
            num = w * weight
            qs = [num // (c2 + sh2) for c2 in cos2_b]
            re = [r + q * ch for r, q in zip(re, qs)]
            im = [v + q * sh for v, q in zip(im, qs)]
        # re and im carry 2F fraction bits; cos/sin beta and rad add F each
        scale = -4 * F
        return [mpc(mpf((cb * r * rad, scale)), mpf((sb * v * rad, scale)))
                for cb, sb, r, v in zip(cos_b, sin_b, re, im)]

    with workprec(quad_prec):
        tol = mpf(tol)
        res = quad_panels(panel_sums, mpf(-1), mpf(1), tol, quad_prec)
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
