"""Numerical verification of the modular transformation laws at concrete
(h, k, z), reporting the two sides' ratio as a near-root-of-unity check.

Conventions: q = e^(2*pi*i*(h+iz)/k) and q1 = e^(2*pi*i*(h'+i/z)/k) with h'
the strengthened inverse; square roots of z use the principal branch
(Re z > 0 throughout).

Composite laws are verified in exact frame form: every factor P(q^r) is
transformed through its own reduced frame (argument rho*h mod k_r, modulus
k_r = k/gcd(r,k), scaled variable rho*z), which pins the transformed nome
exactly.  The customary one-line statements of these laws replace those
nomes by powers of q1 and the frame multipliers by literal-argument ones,
which is only correct up to computable roots of unity; check_law records
that discrepancy in `zeta_defects` instead of asserting it away.  Only the
law of P(q^r) itself keeps an undetermined root of unity, so its check
asserts modulus equality and reports the quantized phase.

The odd-k mock-theta law is evaluated with the nu-polynomial -3*nu^2 + nu
(the same as in the even case) and with the h' representative divisible by
8 in its non-integral factors: the sign variant and other representatives
fail the check against the actual series, see the kloosterman module notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mpc, mpf, pi, workprec
from mpmath.libmp import to_fixed

from .integrals import mordell_band
from .modular import omega, strengthened_inverse
from .qseries import named_series

__all__ = [
    "LAW_TAGS",
    "LawCheck",
    "evaluate_series",
    "law_applicable",
    "check_law",
    "standard_grid",
]

LAW_TAGS = (
    "P_law",
    "Pr_law",
    "xi_gcd4",
    "xi_gcd2",
    "xi_gcd1",
    "f_even",
    "f_odd",
    "g2_gcd4",
    "g2_gcd2",
    "g2_gcd1",
)

_INITIAL_ORDER = 64
_MAX_DOUBLINGS = 8

# The xi and g2 laws, one per gcd(4, k) class.  Each series is the eta
# quotient P(q^2)^a / (P(q^4)^2 P(q)^c) with (a, c) from _ETA_QUOTIENT_POWERS.
# Per law: the series, the literal multiplier arguments of the q^2 and q^4
# factors in units of h, the divisor of the right side, and the growth
# exponent as a function of (k, z, 1/z), None where there is none.
_ETA_QUOTIENT_POWERS = {"xi": (4, 1), "g2": (6, 4)}
_ETA_QUOTIENT_LAWS = {
    "xi_gcd4": ("xi", (1, 1), 1, lambda k, z, zinv: -pi * (zinv - z) / (12 * k)),
    "xi_gcd2": ("xi", (1, 2), 2,
                lambda k, z, zinv: 5 * pi / (12 * k) * zinv + pi * z / (12 * k)),
    "xi_gcd1": ("xi", (2, 4), 1,
                lambda k, z, zinv: pi / (24 * k) * zinv + pi * z / (12 * k)),
    "g2_gcd4": ("g2", (1, 1), 2, None),
    "g2_gcd2": ("g2", (1, 2), 4, lambda k, z, zinv: pi / (2 * k) * zinv),
    "g2_gcd1": ("g2", (2, 4), 1, lambda k, z, zinv: -pi / (8 * k) * zinv),
}


@dataclass
class LawCheck:
    law: str
    h: int
    k: int
    z: object
    lhs: object
    rhs: object
    ratio: object
    modulus_defect: object  # | |ratio| - 1 |
    phase: object
    tol: float
    passed: bool
    # exponents t (meaning e^(i*pi*t)) by which the one-line form of the
    # law deviates from the exact frame form; all zero when they coincide
    zeta_defects: dict = field(default_factory=dict)

    def to_json_dict(self):
        # ratio, modulus_defect and phase print 4 decimals past the leading
        # digit of tol (at least one), so rounding noise far below tol prints as 0
        places = max(1, 4 - math.floor(math.log10(self.tol)))
        ratio = mpc(self.ratio)
        re, im = _decimals(ratio.real, places), _decimals(ratio.imag, places)
        return {
            "law": self.law,
            "h": self.h,
            "k": self.k,
            "z": mpmath.nstr(self.z, 12),
            "ratio": f"({re} - {im[1:]}j)" if im[0] == "-" else f"({re} + {im}j)",
            "modulus_defect": _decimals(self.modulus_defect, places),
            "phase": _decimals(self.phase, places),
            "passed": self.passed,
            "zeta_defects": {
                key: f"{t.numerator}/{t.denominator}" for key, t in self.zeta_defects.items()
            },
        }


def _decimals(x, places):
    """Real x rounded to `places` digits after the decimal point."""
    with workprec(max(0, mpmath.mag(x) if x else 0) + 4 * places + 32):
        m = int(mpmath.nint(x * mpf(10) ** places))
    digits = str(abs(m)).rjust(places + 1, "0")
    return f"{'-' if m < 0 else ''}{digits[:-places]}.{digits[-places:]}"


def _expjpi(t):
    """e^(i*pi*t) for an exact exponent t at the working precision."""
    return mpmath.expjpi(mpf(t.numerator) / t.denominator)


@lru_cache(maxsize=None)
def _coeffs(name, order):
    return tuple(named_series(name, order).coeffs)


def evaluate_series(name, nome, tol, prec):
    """Numerical value of a named series at |nome| < 1 with tail doubling.

    The truncation order doubles until the terms that a doubling adds are
    within tol * max(1, |value|); non-convergence within the doubling
    budget is an error.  Each doubling sums only its new block of terms on
    Python ints with F = prec + 24 + G fractional bits, G = bits(max |c_j|)
    + bits(block length) + bits(4/(1 - |q|)): the power starts from q^lo
    and is carried by one complex multiply per term, each truncating by at
    most 2 ulp while older errors shrink by |q|, so the block is within
    2^-(prec+24) of its exact value.  Fractions are scaled by their common
    denominator.
    """
    with workprec(prec + 16):
        nome = mpc(nome)
        if abs(nome) >= 1:
            raise ValueError("series evaluation needs |nome| < 1")
        tol = mpf(tol)
        damping_bits = int(4 / (1 - abs(nome))).bit_length()
        value = mpc(0)
        lo, order = 0, _INITIAL_ORDER
        for _ in range(_MAX_DOUBLINGS + 1):
            coeffs = _coeffs(name, order)[lo:]
            den = math.lcm(*(c.denominator for c in coeffs))
            ints = [c.numerator * (den // c.denominator) for c in coeffs]
            F = (prec + 24 + max(map(abs, ints)).bit_length() + len(ints).bit_length()
                 + damping_bits)
            with workprec(F + 8):
                qr, qi, pr, pi = (to_fixed(v._mpf_, F) for w in (nome, nome ** lo)
                                  for v in (w.real, w.imag))
            sum_re = sum_im = 0
            for c in ints:
                if c:
                    sum_re += c * pr
                    sum_im += c * pi
                pr, pi = (pr * qr - pi * qi) >> F, (pr * qi + pi * qr) >> F
            block = mpc(mpf((sum_re // den, -F)), mpf((sum_im // den, -F)))
            value += block
            if lo and abs(block) <= tol * max(1, abs(value)):
                with workprec(prec):
                    return +value
            lo, order = order + 1, 2 * order
        raise ArithmeticError(f"series {name} did not converge at |q|={float(abs(nome)):.4f}")


def law_applicable(law, h, k):
    if math.gcd(h, k) != 1:
        return False
    d = math.gcd(4, k)
    return {
        "P_law": True,
        "Pr_law": True,
        "xi_gcd4": d == 4,
        "xi_gcd2": d == 2,
        "xi_gcd1": d == 1,
        "f_even": k % 2 == 0,
        "f_odd": k % 2 == 1,
        "g2_gcd4": d == 4,
        "g2_gcd2": d == 2,
        "g2_gcd1": d == 1,
    }[law]


class _Frame:
    """Transformation data for one P(q^r) factor.

    For q = e^(2*pi*i*(h+iz)/k) and r >= 1 with g = gcd(r,k), rho = r/g:
    q^r lives at (a, k_r, rho*z) with a = rho*h mod k_r, and transforms to
    the nome e^(2*pi*i*(a' + i/(rho*z))/k_r) with multiplier omega_{a,k_r}
    and weight factor (rho*z)^(1/2) e^(pi((rho z)^-1 - rho z)/(12 k_r)).
    """

    def __init__(self, h, k, r, zinv):
        g = math.gcd(r, k)
        self.rho = r // g
        self.kr = k // g
        self.a = (self.rho * h) % self.kr
        self.aprime = strengthened_inverse(self.a, self.kr).hprime
        self.omega = omega(self.a, self.kr, self.aprime)
        self.nome_arg = (self.aprime + 1j * zinv / self.rho) / self.kr

    def nome(self):
        return mpmath.exp(2j * pi * self.nome_arg)


def _head_inverse(h, k):
    """h' with h*h' == -1 (mod L(k)) and 8 | h', for odd k.

    The fractional factors e^(3*pi*i*h'/(4k)) and q1^(1/2) in the odd-k
    mock-theta law are only well defined under this extra congruence; it is
    also the reading under which the inverse-of-8 rewrites of the d=1
    Kloosterman sums are exact identities.
    """
    si = strengthened_inverse(h, k)
    L = si.modulus  # odd for odd k
    t = (-si.hprime * pow(L, -1, 8)) % 8
    return si.hprime + L * t


def check_law(law, h, k, z, tol=1e-10, *, prec, r=2):
    """Evaluate both sides of a transformation law and compare.

    For every law except Pr_law the assertion is |ratio - 1| < tol; Pr_law
    asserts modulus equality only and reports the phase for quantization.
    """
    if law not in LAW_TAGS:
        raise ValueError(f"unknown law {law!r}")
    if not law_applicable(law, h, k):
        raise ValueError(f"law {law} not applicable at (h,k)=({h},{k})")
    if r < 1:
        raise ValueError(f"need r >= 1 for the factor P(q^r), got r={r}")
    zeta = {}
    with workprec(prec + 16):
        tol = mpf(tol)
        z = mpc(z)
        if z.real <= 0:
            raise ValueError("need Re z > 0")
        zinv = 1 / z
        hp = strengthened_inverse(h, k).hprime
        q = mpmath.exp(2j * pi * (h + 1j * z) / k)
        q1 = mpmath.exp(2j * pi * (hp + 1j * zinv) / k)
        ev = lambda name, nome: evaluate_series(name, nome, tol / 64, prec=prec + 16)
        sqz = mpmath.sqrt(z)

        def nome_defect(f):
            # deviation of the customary nome q1^(g_r/rho_r) from the frame nome
            return (Fraction(2 * f.aprime, f.kr) - Fraction(2 * hp, f.rho * f.kr)) % 2

        if law == "P_law":
            lhs = ev("P", q)
            rhs = _expjpi(omega(h, k, hp)) * sqz * mpmath.exp(pi * (zinv - z) / (12 * k)) * ev("P", q1)
        elif law == "Pr_law":
            # The transformed argument is zeta * q1^(g/rho) for a root of
            # unity zeta the source display leaves undetermined; the frame
            # pins it exactly, and the check records it as the quantized
            # phase instead of assuming zeta = 1.
            fr = _Frame(h, k, r, zinv)
            zeta["nome_qr"] = nome_defect(fr)
            lhs = ev("P", mpmath.exp(2j * pi * r * (h + 1j * z) / k))
            rhs = (
                _expjpi(fr.omega)
                * mpmath.sqrt(fr.rho * z)
                * mpmath.exp(pi / (12 * fr.kr) * (zinv / fr.rho - fr.rho * z))
                * ev("P", fr.nome())
            )
        elif law in _ETA_QUOTIENT_LAWS:
            name, lit_args, div, growth = _ETA_QUOTIENT_LAWS[law]
            a, c = _ETA_QUOTIENT_POWERS[name]
            f2, f4 = _Frame(h, k, 2, zinv), _Frame(h, k, 4, zinv)
            # the one-line form's nomes and literal-argument multipliers
            # against the frame ones
            for f, tag, lit in zip((f2, f4), ("q2", "q4"), lit_args):
                zeta[f"nome_{tag}"] = nome_defect(f)
                zeta[f"mult_{tag}"] = (omega(lit * h, f.kr) - f.omega) % 2
            mult = (a * f2.omega - 2 * f4.omega - c * omega(h, k, hp)) % 2
            lhs = ev(name, q)
            rhs = _expjpi(mult) / div
            if name == "xi":  # weight 1/2; g2 has weight 0
                rhs *= sqz
            if growth is not None:
                rhs *= mpmath.exp(growth(k, z, zinv))
            rhs = rhs * ev("P", f2.nome()) ** a / (ev("P", f4.nome()) ** 2 * ev("P", q1) ** c)
        elif law in ("f_even", "f_odd"):
            lhs = ev("f", q)
            w = _expjpi(omega(h, k, hp))
            mord = mpc(0)
            nus = range(1, k + 1)
            for nu, integral in zip(nus, mordell_band(k, nus, z, tol / (16 * k), prec=prec + 16)):
                e = -3 * nu * nu + nu
                phase = mpmath.expjpi(mpf(hp * e) / k)
                sign = -1 if nu % 2 else 1
                mord += sign * phase * integral
            mord *= w * mpf(2) / k * sqz * mpmath.exp(-pi * z / (12 * k))
            if law == "f_even":
                head = (
                    (-1) ** (k // 2 + 1)
                    * mpmath.expjpi(mpf(hp) / 2 - 3 * mpf(hp * k) / 4)
                    * w / sqz * mpmath.exp(pi * (zinv - z) / (12 * k))
                    * ev("f", q1)
                )
            else:
                hp8 = _head_inverse(h, k)
                zeta["head_hprime_shift"] = Fraction(2 * (hp8 - hp), k) % 2
                head = (
                    2 * (-1) ** ((k - 1) // 2)
                    * mpmath.expjpi(3 * mpf(hp8) / (4 * k))
                    * w / sqz
                    * mpmath.exp(-2 * pi / (3 * k) * zinv - pi * z / (12 * k))
                    * ev("omega_mock", mpmath.exp(1j * pi * (hp8 + 1j * zinv) / k))
                )
            rhs = head + mord

        ratio = lhs / rhs
        modulus_defect = abs(abs(ratio) - 1)
        phase = mpmath.arg(ratio)
        if law == "Pr_law":
            # the recorded zeta must sit on the pi/(12 k k_r rho_r) lattice
            steps = zeta["nome_qr"] * 12 * k * fr.kr * fr.rho
            passed = bool(modulus_defect < tol and steps.denominator == 1)
        else:
            passed = bool(abs(ratio - 1) < tol)
    with workprec(prec):
        return LawCheck(
            law=law, h=h, k=k, z=+z, lhs=+lhs, rhs=+rhs, ratio=+ratio,
            modulus_defect=+modulus_defect, phase=+phase, tol=float(tol),
            passed=passed, zeta_defects=zeta,
        )


def standard_grid(kmax=12):
    """(h, k, z) sweep used by the acceptance checks: all k <= kmax, all
    coprime h, and three z values with Re z > 0."""
    zs = (mpf(1), mpc(mpf(4) / 5, mpf(1) / 5), mpf(1) / 2)
    grid = []
    for k in range(1, kmax + 1):
        for h in range(k):
            if math.gcd(h, k) == 1:
                for z in zs:
                    grid.append((h, k, z))
    return grid
