"""The analytic objects of the formula: Mordell integrals, their wrapped and
principal-part-truncated forms, the Bessel-weighted main-term integrals, and
the residue/contour pair for the rectangle integral.  The per-nu Mordell and
main-term integrals of one k and the truncated integrals are bands of one
fixed-point kernel with one loop (_cosh_band behind mordell_band, script_I_band,
Jstar and J_gap): cosh has a real argument on every band's path, mordell_band's
turned at complex z.  L_contour sums its edges on the same fixed-point nodes.

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
from mpmath.libmp import from_man_exp, mpf_cos_sin, mpf_exp, mpf_shift, to_fixed, to_int

from .hpnum import (
    BesselFactor,
    bessel_factor_degree,
    bessel_i_series,
    cospi_fixed,
    decay_cut,
    gauss_legendre_fixed,
    quad_panels,
)

__all__ = [
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


def _cos_floor(k, nus, prec):
    """min |cos beta_nu| over nus: |cosh(i beta_nu - alpha x)| >= |cos beta_nu| on real alpha x."""
    return mpf((min(abs(cospi_fixed(6 * nu - 1, 6 * k, prec)) for nu in nus), -prec), prec=prec)


def _exp_fixed(t, F):  # e^(t 2^-2F) at F bits
    return to_fixed(mpf_exp(from_man_exp(t, -2 * F), F + 8), F)


def _cos_sin_fixed(t, F):  # cos and sin of t 2^-2F at F bits
    return [to_fixed(v, F) for v in mpf_cos_sin(from_man_exp(t, -2 * F), F + 8)]


def _cexp_fixed(cr, ci, s, F):  # e^((cr + i ci) s 2^-2F) at F bits, as (Re,) if ci = 0, else (Re, Im)
    g = _exp_fixed(cr * s, F)
    if not ci:
        return (g,)
    c, si = _cos_sin_fixed(ci * s, F)
    return g * c >> F, g * si >> F


def _panel_nodes(x0, x1, npts, F):
    """rad and the nodes (mid + rad t, w) of the npts-point Gauss-Legendre rule on
    [x0, x1], as ints scaled by 2^F; mid and rad t truncate toward zero, so the
    nodes of [-x1, -x0] are the exact negatives of those of [x0, x1].  The rule is
    within 2^-F of the exact one and the node truncates once more, so with
    sum w = 2 it adds at most rad 2^-F (npts max|f| + 2 (1 + rad) max|f'|) per panel.
    """
    mid = to_int(mpf_shift(((x0 + x1) / 2)._mpf_, F))
    rad = to_fixed(((x1 - x0) / 2)._mpf_, F)
    return rad, [(mid + (rad * t >> F) if t >= 0 else mid - (rad * -t >> F), w)
                 for t, w in gauss_legendre_fixed(npts, F)]


def _cosh_band(k, nus, alpha, weight, lo, X, F, tol, prec):
    """int g(|x|) / cosh(i beta_nu - alpha x) dx over lo <= |x| <= X, beta_nu = pi(6nu-1)/(6k),
    for every nu in nus, from quad_panels at prec + 16 with budget tol.  It is
    behind script_I_band, mordell_band, Jstar and J_gap; their pointwise mpf
    references are in tests/reference.py.  lo = 0 is the one interval [-X, X];
    lo > 0 is the two tails [-X, -lo] and [lo, X], tol/2 each, summed.  The real
    alpha and the panel sums are ints scaled by 2^F, on the nodes of _panel_nodes;
    weight(ax) gives g at |x| = ax 2^-F as (Re g,) or, for complex g, (Re g, Im g).
    cos beta_nu is hpnum.cospi_fixed's at F bits, the cosine cache the Kloosterman
    values read too, and cos^2 beta_nu its square truncated to F bits.

    Re 1/cosh(i beta - alpha x) = cos beta ch / (cos^2 beta + sh^2), ch, sh =
    cosh, sinh(alpha x), is even in x and Im 1/cosh odd, so against the even g
    only the real part counts, and each distinct |x| is evaluated once.  A
    panel with x0 = -x1 sums its x > 0 nodes with weight 2 and its middle node
    once.  A panel whose mirror [-x1, -x0] was summed before (bisection rounds
    symmetrically, and _panel_nodes negates nodes exactly) returns the mirror's
    sums; memo lives for this call only.  Per node one exp gives ch and sh; per
    (nu, node) each part of g takes one division.

    Each value v comes from quad_panels at prec + 16 bits, so it carries tol
    only if |v| 2^-(prec+16) <= tol; otherwise ArithmeticError.
    """
    cos_b = [cospi_fixed(6 * nu - 1, 6 * k, F) for nu in nus]
    cos2_b = [c * c >> F for c in cos_b]
    one2 = 1 << (2 * F)
    memo = {}

    def cosh_sums(x0, x1, npts):
        twin = memo.get((-x1, -x0, npts))
        if twin is not None:  # the mirror panel: the integrand is even in x
            return twin
        rad, nodes = _panel_nodes(x0, x1, npts, F)
        fold = x0 == -x1
        acc = []
        for x, w in nodes:
            if fold and x < 0:
                continue
            e = _exp_fixed(alpha * abs(x), F)
            e_inv = one2 // e
            ch, sh = (e + e_inv) >> 1, (e - e_inv) >> 1
            sh2 = sh * sh >> F
            g = weight(abs(x))
            acc = acc or [[0] * len(nus) for _ in g]  # per part of g, per nu
            if fold:  # x > 0 stands for x and -x
                ch <<= x > 0
            for sums, gp in zip(acc, g):
                num = w * gp
                for j, c2 in enumerate(cos2_b):
                    sums[j] += num // (c2 + sh2) * ch
        # the sums carry 2F fraction bits; cos beta and rad add F each
        vals = [[mpf((cb * s * rad, -4 * F)) for cb, s in zip(cos_b, sums)] for sums in acc]
        memo[x0, x1, npts] = vals[0] if len(vals) == 1 else [mpc(*v) for v in zip(*vals)]
        return memo[x0, x1, npts]

    with workprec(prec + 40):
        spans = [(-X, -lo), (lo, X)] if lo else [(-X, X)]
        parts = [quad_panels(cosh_sums, a, b, tol / len(spans), prec + 16).value
                 for a, b in spans]
        values = [sum(vs) for vs in zip(*parts)]
        if any(mpmath.ldexp(abs(v), -(prec + 16)) > tol for v in values):
            raise ArithmeticError(f"precision too low: {prec} + 16 bits cannot carry tol")
    with workprec(prec):
        return [+v for v in values]


def mordell_band(k, nus, z, tol, prec):
    """I_{k,nu}(z) = int e^(-3u x^2) / cosh(i beta_nu - u x) dx over the real line,
    u = pi z/k, for every nu in nus from one _cosh_band; requires Re z > 0.
    The path turns to x = rho s, rho = Re z / z (Zwegers, Mock Theta Functions,
    thesis, Utrecht 2002, 1.2), so that u x = alpha s with alpha = pi Re z/k real:
    I_{k,nu}(z) = rho int e^(-3 alpha rho s^2) / cosh(i beta_nu - alpha s) ds, as
    the Gaussian decays between the real line and the ray rho R, and the poles of
    1/cosh lie on (i/u) R, outside.  The cut [-X, X] is decay_cut's for the
    envelope 1/floor, floor = min |cos beta_nu|; its certified tail comes off
    tol, so each nu keeps tol.  Re z/|z| < 2^-(prec//2) brings the real line
    that close to a pole, and the band is refused.

    Error budget.  G = 24 + 2 ceil(log2(1/floor)) + bits(prec + 16) + 2 bits(X)
    + ceil(log2(e) alpha X); bits(prec + 16) covers the rule sizes.  Rounding
    alpha, alpha rho and s moves the exponents by a few X^2 ulp, and rho adds
    one ulp.  cos^2 beta + sh^2 >= floor^2 keeps 1/cosh within a few
    X^2 ulp / floor^2, and each quotient adds one ulp, times ch <= e^(alpha X).
    So each per-nu panel sum is within 2^-(prec+36) (x1 - x0) of the
    Gauss-Legendre sum in exact arithmetic at the computed nodes and weights;
    _cosh_band bounds the rule's error.
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
        if z.real / abs(z) < mpf(2) ** (-(prec // 2)):
            raise ValueError("path too close to pole of the integrand")
        floor = _cos_floor(k, nus, prec)
        X, tail = decay_cut(3 * mpmath.pi * z.real * (z.real / z) / k, tol, quad_prec, 1 / floor)
        tol = mpf(tol) - tail
        growth = math.ceil(float(mpmath.pi * z.real * X / k) / math.log(2))
    F = (quad_prec + 24 + 2 * math.ceil(-math.log2(floor)) + quad_prec.bit_length()
         + 2 * int(X).bit_length() + growth)
    with workprec(F + 16):
        alpha, rho = mpmath.pi * z.real / k, z.real / z
        c = alpha * rho
        alpha, cr, ci, rr, ri = (to_fixed(v._mpf_, F)
                                 for v in (alpha, c.real, c.imag, rho.real, rho.imag))

    def gaussian(ax):  # rho e^(-3 alpha rho s^2) at |s| = ax 2^-F, F bits
        g = _cexp_fixed(-3 * cr, -3 * ci, ax * ax >> F, F)
        if len(g) == 1:  # real z, rho = 1
            return g
        return g[0] * rr - g[1] * ri >> F, g[0] * ri + g[1] * rr >> F

    return _cosh_band(k, nus, alpha, gaussian, 0, X, F, tol, prec)


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

    Error budget.  That of mordell_band with floor = |cos beta_nu|,
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
        floor = _cos_floor(k, [nu], prec)
    F = (quad_prec + 24 + 2 * math.ceil(-math.log2(floor)) + quad_prec.bit_length()
         + 2 * int(X).bit_length() + int(abs(w)).bit_length() + math.ceil(growth / math.log(2)))
    with workprec(F + 16):
        sq = _sqrt_fraction(b / 3, F + 16)
        alpha = to_fixed((mpmath.pi * sq / k)._mpf_, F)
        w = exponent()
        wr, wi = to_fixed(w.real._mpf_, F), to_fixed(w.imag._mpf_, F)

    def gaussian(ax):  # e^(w(1-x^2)) at F bits
        return _cexp_fixed(wr, wi, (1 << F) - (ax * ax >> F), F)

    val = _cosh_band(k, [nu], alpha, gaussian, lo, X, F, tol, prec)[0]
    with workprec(prec):
        return +(sq * val)


def Jstar(b, k, nu, z, tol, prec):
    """Principal part truncation: sqrt(b/3) int_{-1}^{1} e^(w(1-x^2)) / cosh(i beta_nu - alpha x)
    dx, w = pi b/(k z) and alpha = pi sqrt(b/3)/k; requires b > 0, k >= 1 and Re z > 0.
    Real at real z, where its weight e^(w(1-x^2)) is real."""
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
        return (factor(s) if s > 0 else 0),

    return _cosh_band(k, nus, alpha, bessel, 0, mpf(1), F, tol, prec)


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
