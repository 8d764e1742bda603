"""The analytic objects of the formula: Mordell integrals, their wrapped and
principal-part-truncated forms, the Bessel-weighted main-term integrals, and
the residue/contour pair for the rectangle integral.  The per-nu Mordell and
main-term integrals of one k and the truncated integrals are bands of one
fixed-point kernel (_cosh_band behind mordell_band, script_I_band, Jstar and
J_gap); L_contour sums its edges on the same fixed-point nodes.

Parameter b is threaded through as an exact Fraction (the values that occur
are -1/12, 1/24 and 5/12); it only becomes a float inside sqrt(b/3) at the
working precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

import mpmath
from mpmath import mpc, mpf, workprec
from mpmath.libmp import from_man_exp, mpf_cos_sin, mpf_exp, to_fixed

from .hpnum import (
    BesselFactor,
    bessel_factor_degree,
    bessel_i_series,
    decay_cut,
    gauss_legendre_fixed,
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


def _cexp_fixed(cr, ci, s, F):  # e^((cr + i ci) s 2^-2F) at F bits, as (Re, Im)
    c, si = _cos_sin_fixed(ci * s, F) if ci else (1 << F, 0)
    g = _exp_fixed(cr * s, F)
    return g * c >> F, g * si >> F


def _panel_nodes(x0, x1, npts, F):
    """rad and the nodes (mid + rad t, w) of the npts-point Gauss-Legendre rule on
    [x0, x1], as ints scaled by 2^F; rad t truncates toward zero.  The rule is
    within 2^-F of the exact one and the node truncates once more, so with
    sum w = 2 it adds at most rad 2^-F (npts max|f| + 2 (1 + rad) max|f'|) per panel.
    """
    mid = to_fixed(((x0 + x1) / 2)._mpf_, F)
    rad = to_fixed(((x1 - x0) / 2)._mpf_, F)
    return rad, [(mid + (rad * t >> F) if t >= 0 else mid - (rad * -t >> F), w)
                 for t, w in gauss_legendre_fixed(npts, F)]


def _cosh_band(k, nus, u, weight, real, lo, X, F, tol, prec):
    """int g(|x|) / cosh(i beta_nu - u x) dx over lo <= |x| <= X, beta_nu = pi(6nu-1)/(6k),
    for every nu in nus, from quad_panels at prec + 16 with budget tol.  It is
    behind script_I_band, mordell_band, Jstar and J_gap; their pointwise mpf
    references are in tests/reference.py.  lo = 0 is the one interval [-X, X];
    lo > 0 is the two tails [-X, -lo] and [lo, X], tol/2 each, summed.
    u = (Re u, Im u) and the panel sums are ints scaled by 2^F, on the nodes of
    _panel_nodes; weight(ax) gives (Re g, Im g) at |x| = ax 2^-F, once per |x|
    (the ends are negated exactly, so mirrored nodes share one memo entry).
    The loop follows the integrand; real says that u and g are both real:

    Real: per node one exp gives ch, sh = cosh, sinh(u x); per
    (nu, node) one division gives 1/cosh(i beta - u x) = (cos beta ch + i sin beta sh)
    / (cos^2 beta + sh^2).  The values are real by conjugate symmetry; each
    imaginary residue, summed over the tails, is checked against tol.
    Otherwise: per |x| one exp and, for Im u != 0, one cos/sin give E = e^(u x) as ch, sh = 2 cosh,
    2 sinh of Re(u) x rotated by Im(u) x; per (nu, node) one complex multiply and
    one division give 1/cosh(i beta - u x) = 2/D, D = e^(i beta)/E + E/e^(i beta).
    """
    ru, iu = u
    with workprec(F + 16):
        betas = [mpmath.pi * mpf(6 * nu - 1) / (6 * k) for nu in nus]
        cos_b = [to_fixed(mpmath.cos(t)._mpf_, F) for t in betas]
        sin_b = [to_fixed(mpmath.sin(t)._mpf_, F) for t in betas]
        cos2_b = [to_fixed((mpmath.cos(t) ** 2)._mpf_, F) for t in betas]
    one2 = 1 << (2 * F)
    memo = {}

    def real_sums(x0, x1, npts):
        rad, nodes = _panel_nodes(x0, x1, npts, F)
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
        c, s = _cos_sin_fixed(iu * ax, F) if iu else (1 << F, 0)
        return (*weight(ax), ch * c >> F, ch * s >> F, sh * s >> F, -(sh * c >> F))

    def complex_sums(x0, x1, npts):
        rad, nodes = _panel_nodes(x0, x1, npts, F)
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
        spans = [(-X, -lo), (lo, X)] if lo else [(-X, X)]
        parts = [quad_panels(real_sums if real else complex_sums, a, b, tol / len(spans),
                             prec + 16).value for a, b in spans]
        values = [sum(vs) for vs in zip(*parts)]
        if real and any(abs(v.imag) > tol for v in values):
            raise ArithmeticError("symmetry violation: imaginary residue above tol")
    with workprec(prec):
        return [+v.real if real else +v for v in values]


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
        return _cexp_fixed(-3 * ru, -3 * iu, ax * ax >> F, F)

    return _cosh_band(k, nus, (ru, iu), gaussian, not iu, 0, X, F, tol, prec)


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


def _truncated_band(b, k, nu, z, lo, tol, prec):
    """sqrt(b/3) int e^(w(1-x^2)) / cosh(i beta_nu - alpha x) dx over lo <= |x| <= X,
    w = pi b/(k z) and alpha = pi sqrt(b/3)/k, from one _cosh_band: Jstar has
    lo = 0 and X = 1; J_gap's tails (lo = 1, real z) get tol/4 each and stop at
    the X where their envelope e^(-w(x-1)^2) is e^(-w) tol/4.

    Error budget.  That of mordell_band with floor = |cos beta_nu| and u = alpha,
    plus bits(|w|) for the rounding of w in the exponent, and with growth
    ceil(log2(e) (alpha X + Re w [lo = 0])): |e^(w(1-x^2))| is at most e^(Re w)
    on |x| <= 1 but at most 1 on the tails, and each quotient's ulp is
    multiplied by ch <= e^(alpha X).
    """
    b = Fraction(b)
    if b <= 0:
        raise ValueError("b must be positive")
    if k < 1:
        raise ValueError("k must be positive")
    quad_prec = prec + 16

    def exponent():  # w
        return mpmath.pi * mpf(b.numerator) / (b.denominator * k * z)

    with workprec(quad_prec):
        z, tol = mpc(z), mpf(tol)
        if lo and z.imag:
            raise ValueError("J_gap needs real z > 0")
        if z.real <= 0:
            raise ValueError("Re z must be positive")
        w = exponent()
        X = 1 + mpmath.sqrt(mpmath.log(4 / tol) / w.real + 1) if lo else mpf(1)
        tol = tol / 2 if lo else tol
        growth = float(mpmath.pi * mpmath.sqrt(b / 3) * X / k + (0 if lo else w.real))
        floor = cosh_path_floor(k, nu, 1, prec)
    F = (quad_prec + 24 + 2 * math.ceil(-math.log2(floor)) + quad_prec.bit_length()
         + 2 * int(X).bit_length() + int(abs(w)).bit_length() + math.ceil(growth / math.log(2)))
    with workprec(F + 16):
        sq = _sqrt_fraction(b / 3, F + 16)
        alpha = to_fixed((mpmath.pi * sq / k)._mpf_, F)
        w = exponent()
        wr, wi = to_fixed(w.real._mpf_, F), to_fixed(w.imag._mpf_, F)

    def gaussian(ax):  # e^(w(1-x^2)) at F bits
        return _cexp_fixed(wr, wi, (1 << F) - (ax * ax >> F), F)

    val = _cosh_band(k, [nu], (alpha, 0), gaussian, not wi, lo, X, F, tol, prec)[0]
    with workprec(prec):
        return +(sq * val)


def Jstar(b, k, nu, z, tol, prec):
    """Principal part truncation: sqrt(b/3) int_{-1}^{1} e^(w(1-x^2)) / cosh(i beta_nu - alpha x)
    dx, w = pi b/(k z) and alpha = pi sqrt(b/3)/k; requires b > 0, k >= 1 and Re z > 0.
    Real at real z, where the band checks the imaginary residue against tol."""
    return _truncated_band(b, k, nu, z, 0, tol, prec)


def J_gap(b, k, nu, z, tol, prec):
    """J - Jstar computed without cancellation, as the tail integral over |x| > 1.

    Rescaling x by z/sqrt(b/3) in the Mordell integral turns J into the
    Jstar integrand over the whole line, so the gap is just the two tails,
    where the exponential factor only damps.  Valid for real z > 0, b > 0.
    """
    return _truncated_band(b, k, nu, z, 1, tol, prec)


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

    return _cosh_band(k, nus, (alpha, 0), bessel, True, 0, mpf(1), F, tol, prec)


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
    """(1/(2 pi i)) times the rectangle integral of e^E(w), E(w) = 2 pi n w + 2 pi y/(k^2 w).

    The rectangle has corners +-a +- i beta, a = 1/N^2 and beta = 1/(k(k+N)),
    counterclockwise, with 0 strictly inside.  It is symmetric under
    conjugation, so the value is real; its imaginary residue is checked
    against tol.  Each edge w0 + s seg, s in [0, 1], is one quad_panels run with
    budget tol/8 on the nodes of _panel_nodes; a node costs one _exp_fixed and
    one _cos_sin_fixed of E.

    Error budget.  Re E peaks near 2 pi y N^2/k^2 at w = a, where the edges
    cancel, so quad_panels runs at work = prec + peak, peak = 2 pi y N^2/(k^2 ln 2)
    + 16 bits, and the sums carry F = work + 24 + bits(m + ceil(2 pi y/k^2) + 4)
    + ceil(2 pi n/(N^2 ln 2)) fraction bits, m = max(N^2, k(k+N)) >= 1/|w|.  The
    corners are truncated to F bits once, so the edges still enclose 0 and the
    integral is unchanged; truncating s seg moves a node along its edge by at
    most m ulp of s, which _panel_nodes bounds.  Rounding 2 pi n, 2 pi y/k^2 and
    1/w moves E by at most (m + 2 pi y/k^2 + 4) ulp, and |e^E| < 2^(peak - 15)
    e^(2 pi n/N^2), so each panel sum is within 2^-(prec+36) |seg| (x1 - x0) of
    the Gauss-Legendre sum in exact arithmetic at the computed nodes and weights.
    """
    if N < 1:
        raise ValueError("degenerate rectangle")
    peak_bits = int(2 * math.pi * float(y) * N * N / (k * k) / math.log(2)) + 16
    work = prec + peak_bits
    m = max(N * N, k * (k + N))
    F = (work + 24 + (m + math.ceil(2 * math.pi * float(y) / (k * k)) + 4).bit_length()
         + math.ceil(2 * math.pi * n / (N * N * math.log(2))))
    with workprec(F + 16):
        c1 = to_fixed((2 * mpmath.pi * n)._mpf_, F)
        c2 = to_fixed((2 * mpmath.pi * mpf(y) / (k * k))._mpf_, F)
    a, beta = (1 << F) // (N * N), (1 << F) // (k * (k + N))
    corners = [(a, -beta), (a, beta), (-a, beta), (-a, -beta), (a, -beta)]

    def edge_sums(r0, i0, sr, si, s0, s1, npts):  # the edge (r0 + s sr) + i (i0 + s si)
        rad, nodes = _panel_nodes(s0, s1, npts, F)
        re = im = 0
        for s, wt in nodes:
            wr, wi = r0 + (s * sr >> F), i0 + (s * si >> F)
            d = wr * wr + wi * wi
            e = _exp_fixed(c1 * wr + c2 * ((wr << 2 * F) // d), F)
            c, sn = _cos_sin_fixed(c1 * wi - c2 * ((wi << 2 * F) // d), F)
            re += wt * (e * c >> F)
            im += wt * (e * sn >> F)
        # re and im carry 2F fraction bits; rad and seg add F each
        return [mpc(mpf(((re * sr - im * si) * rad, -4 * F)),
                    mpf(((re * si + im * sr) * rad, -4 * F)))]

    with workprec(work):
        total = 0
        for (r0, i0), (r1, i1) in zip(corners, corners[1:]):
            sums = partial(edge_sums, r0, i0, r1 - r0, i1 - i0)
            total += quad_panels(sums, mpf(0), mpf(1), mpf(tol) / 8, work, max_panels=8192).value[0]
        val = total / (2j * mpmath.pi)
        if abs(val.imag) > tol:
            raise ArithmeticError("symmetry violation: imaginary residue above tol")
    with workprec(prec):
        return +val.real
