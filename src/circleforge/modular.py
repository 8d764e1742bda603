"""Exact modular arithmetic: Kronecker symbol, strengthened inverses,
the eta multiplier as an exact root of unity, and Farey dissection data.

A root of unity is always its exponent: a Fraction t in [0, 2) meaning
e^(i*pi*t).  Products of roots of unity are sums of exponents mod 2, so
every multiplier identity downstream is tested exactly instead of in
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "kronecker",
    "StrengthenedInverse",
    "strengthened_inverse",
    "omega",
    "omega_residue",
    "FareyArc",
    "farey_neighbors",
    "farey_sequence",
    "multiplier_identity_check",
]


def kronecker(a, n):
    """Kronecker symbol (a|n), the full multiplicative extension to all n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # factor out twos of n; (a|2) is 0 for even a, +-1 by a mod 8 otherwise
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            sign = -sign
    # Jacobi symbol for odd n >= 1 by quadratic reciprocity
    a %= n
    result = sign
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@dataclass(frozen=True)
class StrengthenedInverse:
    """h' with h*h' == -1 modulo L, where L strengthens k by 3 and 16."""

    h: int
    k: int
    hprime: int
    modulus: int


@lru_cache(maxsize=None)
def strengthened_inverse(h, k):
    """Least non-negative h' with h*h' == -1 (mod L), L = k * 3^[3|k] * 16^[2|k]."""
    if k < 1:
        raise ValueError("k must be positive")
    if math.gcd(h, k) != 1:
        raise ValueError(f"h={h} and k={k} are not coprime")
    L = k * (3 if k % 3 == 0 else 1) * (16 if k % 2 == 0 else 1)
    if L == 1:
        return StrengthenedInverse(h, k, 0, 1)
    hprime = (-pow(h, -1, L)) % L
    return StrengthenedInverse(h, k, hprime, L)


@lru_cache(maxsize=None)
def omega_residue(h, k, hprime=None, branch="auto"):
    """omega_{h,k} as the residue r mod 24k with omega = e^(i*pi*r/(12k)).

    omega = (kronecker sign) * e^(-i*pi*E), and r is the integer
    12k * (-E + [sign is -1]): every exponent of the eta multiplier is a
    multiple of 1/(12k).  h is used literally
    (2h, 4h arguments in the Kloosterman sums are not reduced mod k).  The
    branch is chosen by parity; when h and k are both odd the k-odd branch
    is the fixed convention, and `branch` can override it for the
    agreement diagnostic.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if h < 0:
        raise ValueError("h must be non-negative")
    if math.gcd(h, k) != 1:
        raise ValueError(f"h={h} and k={k} are not coprime")
    if hprime is None:
        hprime = strengthened_inverse(h, k).hprime
    if branch == "auto":
        branch = "k_odd" if k % 2 == 1 else "h_odd"
    if branch == "h_odd":
        if h % 2 == 0:
            raise ValueError("h-odd branch needs odd h")
        sign, r = kronecker(-k, h), -3 * k * (2 - h * k - h)
    elif branch == "k_odd":
        if k % 2 == 0:
            raise ValueError("k-odd branch needs odd k")
        sign, r = kronecker(-h, k), -3 * k * (k - 1)
    else:
        raise ValueError(f"unknown branch {branch!r}")
    if sign == 0:
        raise ValueError("vanishing Kronecker symbol; arguments not coprime")
    # a Kronecker sign of -1 adds 1 to the exponent, 12k to the residue
    return (r - (k * k - 1) * (2 * h - hprime + h * h * hprime) + 6 * k * (1 - sign)) % (24 * k)


@lru_cache(maxsize=None)
def omega(h, k, hprime=None, branch="auto"):
    """The eta multiplier for h/k as its exponent t in [0, 2), meaning
    e^(i*pi*t) (see omega_residue)."""
    return Fraction(omega_residue(h, k, hprime, branch), 12 * k)


@dataclass(frozen=True)
class FareyArc:
    """A Farey fraction h/k of order N with its neighbor data and arc widths."""

    h: int
    k: int
    N: int
    k1: int  # denominator of the left neighbor
    k2: int  # denominator of the right neighbor
    h1: int
    h2: int
    theta_left: Fraction  # 1/(k(k+k1)), except 1/(N+1) for the 0/1 arc
    theta_right: Fraction  # 1/(k(k+k2))


def farey_neighbors(h, k, N):
    """Neighbor denominators of h/k in the Farey sequence of order N."""
    if not (1 <= k <= N):
        raise ValueError("need 1 <= k <= N")
    if not 0 <= h < k or math.gcd(h, k) != 1:
        if not (h == 0 and k == 1):
            raise ValueError("need 0 <= h < k with gcd(h,k)=1")
    if (h, k) == (0, 1):
        # The arc around 0 is symmetric by convention: theta' = 1/(N+1).
        return FareyArc(0, 1, N, N, N, -1, 1, Fraction(1, N + 1), Fraction(1, N + 1))
    hinv = pow(h, -1, k)
    k1 = hinv + ((N - hinv) // k) * k  # representative of h^-1 mod k in (N-k, N]
    k2 = (k - hinv) + ((N - (k - hinv)) // k) * k  # -h^-1 mod k in (N-k, N]
    h1 = (h * k1 - 1) // k
    h2 = (h * k2 + 1) // k
    return FareyArc(
        h, k, N, k1, k2, h1, h2,
        Fraction(1, k * (k + k1)), Fraction(1, k * (k + k2)),
    )


def farey_sequence(N):
    """All reduced fractions h/k with 0 <= h < k <= N, ascending."""
    fracs = sorted(
        {Fraction(h, k) for k in range(1, N + 1) for h in range(k) if math.gcd(h, k) == 1}
    )
    return fracs


def multiplier_identity_check(h, k):
    """Exact check of (-1)^(k/2) e^(i*pi*h'/2 (1-3k/2)) == omega_{h,k/2}^2 / omega_{h,k}^4.

    Only defined in the gcd(4,k)=2 class.  Returns (holds, lhs, rhs), the
    two sides as exponents in [0, 2).
    """
    if math.gcd(4, k) != 2:
        raise ValueError("identity requires gcd(4,k) = 2")
    if math.gcd(h, k) != 1:
        raise ValueError("h, k must be coprime")
    hprime = strengthened_inverse(h, k).hprime
    lhs = (Fraction(k // 2) + Fraction(hprime * (2 - 3 * k), 4)) % 2
    rhs = (2 * omega(h, k // 2) - 4 * omega(h, k, hprime)) % 2
    return lhs == rhs, lhs, rhs
