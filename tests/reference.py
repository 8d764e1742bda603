"""Pointwise mpf references for the fixed-point integrals of the package,
and the desk-scale objects only the tests use.

Each integrand is evaluated node by node in mpf/mpc through the adaptive
`quad_finite`, on the mpf Gauss-Legendre rule `_gauss_legendre_nodes`,
independently of the fixed-point arithmetic of `integrals._cosh_band` and
`integrals.L_contour`: `mordell_I` for one nu of `mordell_band`, on the real
line with the envelope `cosh_path_floor` (the band turns its path instead),
`script_I` for one nu of `script_I_band`, `Jstar`, `J_gap` and
`L_contour` for the package's functions of those names, and `quad_decay`
for Gaussian decay over the real line.  `_gauss_legendre_nodes` is also the
reference for `hpnum.gauss_legendre_fixed`, and `bessel_factor_degree` the
mpf loop behind the float one of `hpnum`.  `kloosterman_value` sums a
Kloosterman SumValue in mpc, one `mpmath.expjpi` per root, as the reference
for the fixed-point `SumValue.value`.  Like the package, they take their
precision explicitly and never read the global mpmath precision.
`p1bar_dominant` is the k = 2 band alone, for the dominant-term checks.
`Overpartition` and `all_overpartitions` list overpartitions one by one,
and `farey_sequence` the Farey fractions, for brute-force checks.
"""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mpc, mpf, workprec

from circleforge.hpnum import (
    QuadratureError,
    QuadratureResult,
    bessel_i_series,
    decay_cut,
    default_precision,
    quad_panels,
)
from circleforge.integrals import _sqrt_fraction
from circleforge.rademacher import _band_prefactors, p1bar_term


@lru_cache(maxsize=32)
def _gauss_legendre_nodes(npts, prec):
    """Nodes/weights of the n-point Gauss-Legendre rule on [-1, 1], in mpf.

    Roots of P_n by Newton iteration from Chebyshev initial guesses; the
    rule integrates polynomials of degree 2n-1 exactly.  The nodes are
    good to the prec + 32 bits returned, but each weight takes P_n' at the
    iterate before the last Newton step, which may still be 2^-(prec+16)
    from the root, so a weight carries only about prec + 14 correct bits.
    Only `quad_finite` and the tests (as the reference for
    gauss_legendre_fixed at 40 more bits) use it; its bits are frozen on
    purpose, since changing them would move every quad_finite result.
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
    """The npts-point Gauss-Legendre sum of f on [a, b], as a one-component list."""
    nodes = _gauss_legendre_nodes(npts, prec)
    mid = (a + b) / 2
    rad = (b - a) / 2
    total = 0
    for x, w in nodes:
        total += w * f(mid + rad * x)
    return [total * rad]


def quad_finite(f, a, b, tol, prec, max_panels=4096):
    """quad_panels on the scalar integrand f sampled pointwise in mpf/mpc."""

    def panel_sums(x0, x1, npts):
        return _panel(f, x0, x1, npts, prec)

    with workprec(prec + 24):
        tol = mpf(tol)
        a, b = mpc(a), mpc(b)
        if a.imag == 0 and b.imag == 0:
            a, b = a.real, b.real
    try:
        res = quad_panels(panel_sums, a, b, tol, prec, max_panels)
    except QuadratureError as exc:
        exc.value, exc.error_estimate = exc.value[0], exc.error_estimate[0]
        raise
    res.value, res.abs_error_estimate = res.value[0], res.abs_error_estimate[0]
    return res


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


def bessel_factor_degree(c, prec):
    """hpnum.bessel_factor_degree's stopping rule on the terms themselves, in
    64-bit mpf: t_m = (c/2)^(2m) / (m! (m+1)!) is summed until 2 t_M is below
    2^-(prec+8) S(1) and the next ratio t_(M+1)/t_M is below 1/2."""
    with workprec(64):
        h = (mpf(c) / 2) ** 2
        term = total = mpf(1)
        eps = mpf(2) ** (-(prec + 8))
        m = 0
        while True:
            ratio = h / ((m + 1) * (m + 2))
            if 2 * term < eps * total and 2 * ratio < 1:
                return m
            term *= ratio
            total += term
            m += 1


@lru_cache(maxsize=None)
def _expjpi(num, den, prec):
    """e^(i pi num/den) at prec bits."""
    with workprec(prec):
        return mpmath.expjpi(mpf(num) / den)


def kloosterman_value(sv, prec):
    """A SumValue as the mpc sum of counts[r] e^(2 pi i r/modulus) at prec bits,
    one expjpi per reduced root: the reference for SumValue.value, which sums
    fixed-point cosines from hpnum.cospi_fixed instead."""
    with workprec(prec):
        total = mpc(0)
        for r in sorted(sv.counts):
            g = math.gcd(2 * r, sv.modulus)
            total += sv.counts[r] * _expjpi(2 * r // g, sv.modulus // g, prec)
        return total


def p1bar_dominant(n, tol=mpf("1e-12"), prec=None):
    """The k=2 band alone, with its prefactor 5*pi/(12 sqrt(6n)).

    It equals 5*pi/(48 sqrt(6n)) (script_I(5/12,2,0) + script_I(5/12,2,1)):
    both Kloosterman values at k=2 are +-1, and in the fixed 1..k system the
    class of 0 is represented by 2, where script_I flips sign.
    """
    if prec is None:
        prec = default_precision(n)
    with workprec(prec):
        band = p1bar_term(2, 2, n, tol, prec=prec)
        return +(_band_prefactors(n)[2] * band)


def farey_sequence(N):
    """All reduced fractions h/k with 0 <= h < k <= N, ascending."""
    fracs = sorted(
        {Fraction(h, k) for k in range(1, N + 1) for h in range(k) if math.gcd(h, k) == 1}
    )
    return fracs


class Overpartition:
    """A partition with a subset of part sizes overlined (the final
    occurrence of a size is the one that carries the overline)."""

    __slots__ = ("parts", "overlined")

    def __init__(self, parts, overlined=()):
        self.parts = tuple(sorted(parts, reverse=True))
        self.overlined = frozenset(overlined)
        sizes = set(self.parts)
        if not self.overlined <= sizes:
            raise ValueError("overlined sizes must occur as parts")

    def total(self):
        return sum(self.parts)

    def is_valid_lower_1run(self):
        """Every overlined size m stands alone (m-1, m+1 not overlined)
        and no parts of size m-1 exist; the gap below 1 is vacuous."""
        sizes = set(self.parts)
        for m in self.overlined:
            if m + 1 in self.overlined or m - 1 in self.overlined:
                return False
            if m - 1 in sizes:
                return False
        return True

    def __eq__(self, other):
        return (self.parts, self.overlined) == (other.parts, other.overlined)

    def __hash__(self):
        return hash((self.parts, self.overlined))

    def __repr__(self):
        shown = []
        seen = set()
        for p in self.parts:
            if p in self.overlined and p not in seen:
                shown.append(f"{p}~")
                seen.add(p)
            else:
                shown.append(str(p))
        return "Overpartition(" + "+".join(shown) + ")"


def all_overpartitions(n):
    """Yield every overpartition of n (for desk-scale n only)."""

    def partitions(rem, cap):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, cap), 0, -1):
            for rest in partitions(rem - first, first):
                yield (first,) + rest

    for parts in partitions(n, n) if n > 0 else [()]:
        sizes = sorted(set(parts))
        for mask in range(1 << len(sizes)):
            marked = {sizes[i] for i in range(len(sizes)) if mask >> i & 1}
            yield Overpartition(parts, marked)
