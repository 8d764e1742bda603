"""Kloosterman-type sums: classical, incomplete, A_k(n), and the nine
modified families in complete and incomplete form.

Every sum is available through two independent paths:

  * direct evaluation, multiplying exact eta-multiplier roots of unity
    term by term, and
  * the rewritten classical form, which expresses each modified family as
    a fixed root of unity times a classical sum with shifted arguments.

Every summand of a sum at modulus k is a 24k-th root of unity, so a sum is
stored in one way only: as the number of summands at each residue r mod
24k, r standing for e^(i*pi*r/(12k)).  Equality of the two paths is an
exact statement about these counts (no floating point): equal counts are
equal sums, and otherwise the difference is reduced modulo a cyclotomic
polynomial.  `SumValue.value(prec)` evaluates a sum numerically on demand,
as integer sums of counts times the fixed-point cosines of
`hpnum.cospi_fixed`, whose cache the bands' cos beta_nu share.  Every weight
the formulas read is real, and `SumValue.real_value(prec)` checks that
exactly and sums only the real part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from .hpnum import cospi_fixed
from .modular import farey_neighbors, omega_residue, strengthened_inverse

__all__ = [
    "KloostermanSpec",
    "SumValue",
    "classical_K",
    "incomplete_K",
    "A_k",
    "modified_K",
    "rewritten_classical_form",
    "bound_ratio",
]

@dataclass(frozen=True)
class KloostermanSpec:
    """Identifies one sum family together with its parameters.

    family: classical | incomplete | A | modified | modified_incomplete
    d: gcd(4,k) class for modified families; j: index 1..3; nu required
    iff j == 2; ell, N only for incomplete restrictions.
    """

    family: str
    k: int
    n: int = 0
    m: int = 0
    d: int | None = None
    j: int | None = None
    nu: int | None = None
    ell: int | None = None
    N: int | None = None

    def validate(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.family in ("modified", "modified_incomplete"):
            if self.d not in (1, 2, 4) or self.j not in (1, 2, 3):
                raise ValueError("modified family needs d in {1,2,4} and j in {1,2,3}")
            if math.gcd(4, self.k) != self.d:
                raise ValueError(f"gcd(4,{self.k}) != {self.d}")
            if (self.j == 2) != (self.nu is not None):
                raise ValueError("nu is present exactly when j == 2")
        if self.family in ("incomplete", "modified_incomplete"):
            if self.ell is None or self.N is None:
                raise ValueError("incomplete sums need ell and N")
            if self.N < self.k:
                raise ValueError("incomplete sums need N >= k")
            if not self.N + 1 <= self.ell <= self.N + self.k + 1:
                raise ValueError("need N+1 <= ell <= N+k+1")


# ---------------------------------------------------------------------------
# Exact zero-testing of integer combinations of roots of unity.

@lru_cache(maxsize=None)
def _cyclotomic(m):
    """Coefficients of the m-th cyclotomic polynomial, ascending."""
    # x^m - 1 divided by the product of Phi_d over proper divisors d of m.
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divide_exact(poly, _cyclotomic(d))
    return tuple(poly)


def _poly_divide_exact(num, den):
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def _radical(m):
    """The product of the distinct primes dividing m."""
    q, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            q *= p
            while m % p == 0:
                m //= p
        p += 1
    return q * m


def _is_zero_combination(modulus, coeffs):
    """Is the sum of c * e^(2*pi*i*r/modulus) over coeffs {r: c} exactly 0?

    The sum is P(zeta_m) for an integer polynomial P, where m is the least
    modulus the residues need, and it vanishes iff Phi_m divides P.  With q
    the radical of m and s = m/q, Phi_m(x) = Phi_q(x^s): P splits into one
    polynomial in x^s per residue class mod s, and each must vanish modulo
    Phi_q on its own.
    """
    live = [(r, c) for r, c in coeffs.items() if c]
    if not live:
        return True
    g = math.gcd(modulus, *(r for r, _ in live))
    q = _radical(modulus // g)
    s = modulus // g // q
    phi = _cyclotomic(q)
    deg = len(phi) - 1
    classes = {}
    for r, c in live:
        poly = classes.setdefault(r // g % s, [0] * q)
        poly[r // g // s] += c
    for poly in classes.values():
        # reduce modulo Phi_q (monic): the remainder must vanish identically
        for i in range(q - 1, deg - 1, -1):
            c = poly[i]
            if c:
                for j in range(deg):
                    poly[i - deg + j] -= c * phi[j]
        if any(poly[:deg]):
            return False
    return True


class SumValue:
    """Value of a Kloosterman-type sum: counts of roots of unity.

    `counts[r]` summands equal e^(2*pi*i*r/modulus); a sum at modulus k has
    modulus 24k.  Every sum is exact, so `exact` is always True.

    `value(prec)` sums counts[r] times cos(2*pi*r/modulus) for the real part
    and sin(2*pi*r/modulus) = cos(pi (4r - modulus)/(2 modulus)) for the
    imaginary part as Python ints at F = prec + 8 + bits(term_count)
    fraction bits, from `hpnum.cospi_fixed`, so each part is within
    term_count 2^-F of the sum before it is rounded to prec bits.  Exact
    tests run only when a part is within (term_count + 1) 2^-F of 0: the
    imaginary part is exactly 0 when the sum equals its conjugate, and then
    the real part is exactly 0 when the sum is exactly zero.

    `real_value(prec)` is the real part of a sum that equals its conjugate
    exactly, and raises ArithmeticError otherwise.
    """

    __slots__ = ("modulus", "counts", "term_count")
    exact = True

    def __init__(self, modulus, counts):
        self.modulus = modulus
        self.counts = counts
        self.term_count = sum(counts.values())

    def _part(self, shift, prec, exact_zero):
        """sum counts[r] cos(pi (4r - shift)/(2 modulus)) at prec bits: Re at shift 0,
        Im at shift = modulus; exactly 0 if near 0 and exact_zero() holds."""
        F = prec + 8 + self.term_count.bit_length()
        m = self.modulus
        total = sum(c * cospi_fixed(4 * r - shift, 2 * m, F) for r, c in self.counts.items())
        if abs(total) <= self.term_count + 1 and exact_zero():
            return mpmath.mpf(0)
        return mpmath.mpf((total, -F), prec=prec)

    def value(self, prec):
        im = self._part(self.modulus, prec, lambda: self.equals(self.conjugate()))
        re = self._part(0, prec, lambda: im == 0 and self.is_zero())
        with mpmath.workprec(prec):
            return mpmath.mpc(re, im)

    def real_value(self, prec):
        if not self.equals(self.conjugate()):
            raise ArithmeticError(f"{self!r} is not real")
        return self._part(0, prec, self.is_zero)

    def __neg__(self):
        n = self.modulus
        return SumValue(modulus=n, counts={(r + n // 2) % n: c for r, c in self.counts.items()})

    def conjugate(self):
        n = self.modulus
        return SumValue(modulus=n, counts={-r % n: c for r, c in self.counts.items()})

    def equals(self, other):
        """Exact equality: equal counts, else a zero test of the difference."""
        if self.modulus == other.modulus and self.counts == other.counts:
            return True
        modulus = math.lcm(self.modulus, other.modulus)
        diff = {}
        for sv, sign in ((self, 1), (other, -1)):
            scale = modulus // sv.modulus
            for r, c in sv.counts.items():
                diff[r * scale] = diff.get(r * scale, 0) + sign * c
        return _is_zero_combination(modulus, diff)

    def is_zero(self):
        return _is_zero_combination(self.modulus, self.counts)

    def __repr__(self):
        return f"SumValue(terms={self.term_count}, value~{complex(self.value(64)):.6g})"


@lru_cache(maxsize=None)
def _classical_rows(k):
    """(h, h', 0) over h coprime to k (h = 0 at k = 1), with h*h' == -1 (mod k)."""
    return tuple((h, (-pow(h, -1, k)) % k, 0) for h in range(k) if math.gcd(h, k) == 1)


def _collect(spec, rows, a, b, c=0):
    """The SumValue with one summand per admissible row (h, h', base) at
    residue base + a*h + b*h' + c mod 24k, i.e. e^(i*pi*residue/(12k))."""
    k = spec.k
    if spec.family in ("incomplete", "modified_incomplete"):
        rows = [row for row in rows
                if spec.N < k + farey_neighbors(row[0], k, spec.N).k1 <= spec.ell]
    modulus = 24 * k
    a, b = a % modulus, b % modulus
    counts = {}
    for h, hp, base in rows:
        r = (base + a * h + b * hp + c) % modulus
        counts[r] = counts.get(r, 0) + 1
    return SumValue(modulus=modulus, counts=counts)


def classical_K(k, n, m=0):
    """K_k(n,m) = sum over h coprime to k of e^(-2*pi*i*(n*h - m*h')/k)."""
    spec = KloostermanSpec("classical", k, n, m)
    spec.validate()
    return _collect(spec, _classical_rows(k), -24 * n, 24 * m)


def incomplete_K(k, ell, N, n, m=0):
    """The classical sum restricted to h with N < k + k1 <= ell."""
    spec = KloostermanSpec("incomplete", k, n, m, ell=ell, N=N)
    spec.validate()
    return _collect(spec, _classical_rows(k), -24 * n, 24 * m)


def A_k(k, n):
    """A_k(n) = sum over h of omega_{h,k} e^(-2*pi*i*n*h/k)."""
    spec = KloostermanSpec("A", k, n)
    spec.validate()
    rows = [(h, 0, omega_residue(h, k)) for h, _, _ in _classical_rows(k)]
    return _collect(spec, rows, -24 * n, 0)


def _multiplier_residue(d, j, k, h):
    """The omega-ratio multiplier of family (d, j) at h, as a residue mod 24k."""
    def w(hh, kk):  # omega_{hh,kk} in units of e^(i*pi/(12k))
        return omega_residue(hh, kk) * (k // kk)

    if d == 4:
        num, den = w(h, k // 2), w(h, k // 4)
    elif d == 2:
        num, den = w(h, k // 2), w(2 * h, k // 2)
    else:
        num, den = w(2 * h, k), w(4 * h, k)
    if j == 3:
        return (6 * num - 4 * w(h, k) - 2 * den) % (24 * k)
    return (4 * num - 2 * den) % (24 * k)


@lru_cache(maxsize=None)
def _modified_rows(d, j, k):
    """(h, h', multiplier residue): the n-, m- and nu-free data of family (d, j)."""
    return tuple((h, strengthened_inverse(h, k).hprime, _multiplier_residue(d, j, k, h))
                 for h, _, _ in _classical_rows(k))


def modified_K(spec):
    """Direct evaluation of a modified (possibly incomplete) family.

    For the d=1 families the factors h'/4 and 3h'/4 are evaluated through
    the inverse of 8 mod k, which makes every summand depend on h' only
    through its residue class; k odd guarantees 8 is invertible.

    All three gcd classes use the nu-polynomial -3*nu^2 + nu in the j=2
    sums.  The sign variant -3*nu^2 - nu for the odd-k class fails both
    the mock-theta transformation check and the end-to-end integrality of
    the assembled formula (off by ~8 at n=300), so it is rejected.
    """
    spec.validate()
    if spec.family not in ("modified", "modified_incomplete"):
        raise ValueError("modified_K expects a modified family spec")
    d, j, k, nu, n, m = spec.d, spec.j, spec.k, spec.nu, spec.n, spec.m
    # the exponents of the h'-factors, times 12k
    if d in (2, 4):
        b = 24 * m + (3 * k * (2 - 3 * k) if j == 1 else 0)
    else:
        inv8 = pow(8, -1, k) if k > 1 else 0
        b = 48 * inv8 * m + (72 * inv8 if j == 1 else 0)
    if j == 2:
        b += 12 * (-3 * nu * nu + nu)
    return _collect(spec, _modified_rows(d, j, k), -24 * n, b)


def _exact_div(a, b, what):
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"integrality violated in {what}: {a}/{b}")
    return q


def _rewrite_data(spec):
    """(prefactor, n_shifted, m_shifted) for the classical form of a family.

    The prefactor is a residue r mod 24k, meaning e^(i*pi*r/(12k)), like the
    summands.

    The bracket inverses are pinned to the representatives that make the
    reduction exact: inverses mod 3k (or mod k when 3 does not divide k)
    for d in {1,2}, and the inverse of 8 mod k shared with the direct path.
    """
    d, j, k, nu, n, m = spec.d, spec.j, spec.k, spec.nu, spec.n, spec.m
    if d == 4:
        pref = 12 * k
        n_new = n - _exact_div(2 * k * k + 4 * k, 16, "d=4 n-shift")
        if j == 1:
            m_new = m - _exact_div(5 * k * k - 4 * k, 16, "d=4 j=1 m-shift")
        elif j == 2:
            m_new = m + _exact_div(k * k, 16, "d=4 j=2 m-shift") \
                + _exact_div(-3 * nu * nu + nu, 2, "nu term")
        else:
            pref = 0
            n_new = n + _exact_div(k * k, 8, "d=4 j=3 n-shift")
            m_new = m - _exact_div(k * k, 16, "d=4 j=3 m-shift")
        return pref, n_new, m_new
    if d == 2:
        kap = k // 2
        mod = 3 * kap if kap % 3 == 0 else kap
        inv2 = pow(2, -1, mod) if mod > 1 else 0
        pref = 6 * k * (kap - 1)
        c_h = _exact_div((kap * kap - 1) * (1 - 2 * inv2), 3, "d=2 h-shift")
        c_hp = _exact_div((kap * kap - 1) * (2 - inv2), 6, "d=2 h'-shift")
        n_new = n - c_h
        if j == 1:
            m_new = m + c_hp - _exact_div(3 * k * k - 2 * k, 8, "d=2 j=1 m-shift")
        elif j == 2:
            m_new = m + c_hp + _exact_div(-3 * nu * nu + nu, 2, "nu term")
        else:
            pref += 12 * k
            m_new = m + c_hp - _exact_div(3 * k * k - 2 * k, 8, "d=2 j=3 m-shift")
        return pref, n_new, m_new
    # d == 1
    mod = 3 * k if k % 3 == 0 else k
    inv2 = pow(2, -1, mod) if mod > 1 else 0
    inv4 = pow(4, -1, mod) if mod > 1 else 0
    inv8 = pow(8, -1, k) if k > 1 else 0
    kk1 = k * k - 1
    if j in (1, 2):
        pref = 6 * k * (k - 1)
        d_h = _exact_div(kk1 * (8 * inv2 - 16 * inv4), 12, "d=1 h-shift")
        d_hp = _exact_div(kk1 * (2 * inv2 - inv4), 12, "d=1 h'-shift")
        n_new = n - d_h
        if j == 1:
            m_new = d_hp + 3 * inv8 + 2 * inv8 * m
        else:
            m_new = d_hp + _exact_div(-3 * nu * nu + nu, 2, "nu term") + 2 * inv8 * m
    else:
        pref = 0
        e_h = _exact_div(kk1 * (12 * inv2 - 2 - 16 * inv4), 12, "d=1 j=3 h-shift")
        e_hp = _exact_div(kk1 * (3 * inv2 - 2 - inv4), 12, "d=1 j=3 h'-shift")
        n_new = n - e_h
        m_new = e_hp + 2 * inv8 * m
    return pref, n_new, m_new


def rewritten_classical_form(spec):
    """The equivalent classical-sum form of a modified family.

    Returns prefactor * K_k(n', m') (with the incomplete restriction carried
    through when present), enabling dual-path verification against
    modified_K and classical bounding.
    """
    spec.validate()
    if spec.family not in ("modified", "modified_incomplete"):
        raise ValueError("rewrite applies to modified families only")
    pref, n_new, m_new = _rewrite_data(spec)
    k = spec.k

    filtered = KloostermanSpec(
        "incomplete" if spec.family == "modified_incomplete" else "classical",
        k, n_new, m_new, ell=spec.ell, N=spec.N,
    )
    return _collect(filtered, _classical_rows(k), -24 * n_new, 24 * m_new, pref)


def bound_ratio(sum_value, k, n, prec):
    """|K| / (max(|n|,1)^(1/3) * k^(2/3)): growth diagnostic, not a proof."""
    with mpmath.workprec(prec):
        mag = abs(sum_value.value(prec))
        return float(mag / (mpmath.mpf(max(abs(n), 1)) ** Fraction(1, 3)
                            * mpmath.mpf(k) ** Fraction(2, 3)))
