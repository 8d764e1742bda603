"""Kronecker symbol, strengthened inverses, the eta multiplier against the
Dedekind-sum oracle, and Farey dissection data against brute-force
enumeration of the Farey sequence."""

import math
from fractions import Fraction

import pytest

from circleforge.modular import (
    farey_neighbors,
    kronecker,
    multiplier_identity_check,
    omega,
    omega_residue,
    strengthened_inverse,
)
from reference import farey_sequence


def test_kronecker_unit_modulus():
    for a in range(-6, 7):
        assert kronecker(a, 1) == 1


def test_kronecker_examples():
    assert kronecker(2, 3) == -1
    assert kronecker(-1, 5) == 1
    assert kronecker(4, 9) == 1
    assert kronecker(3, 9) == 0


def test_kronecker_against_quadratic_residues():
    for p in (3, 5, 7, 11, 13, 17):
        residues = {(x * x) % p for x in range(1, p)}
        for a in range(1, p):
            expected = 1 if a % p in residues else -1
            assert kronecker(a, p) == expected, (a, p)


def test_kronecker_multiplicative_in_top():
    for n in (3, 5, 15, 21):
        for a in range(1, 10):
            for b in range(1, 10):
                assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_strengthened_inverse_examples():
    si = strengthened_inverse(1, 1)
    assert (si.hprime, si.modulus) == (0, 1)
    si = strengthened_inverse(1, 2)
    assert (si.hprime, si.modulus) == (31, 32)
    si = strengthened_inverse(1, 3)
    assert (si.hprime, si.modulus) == (8, 9)
    si = strengthened_inverse(5, 6)
    assert si.modulus == 6 * 3 * 16
    assert (5 * si.hprime) % si.modulus == si.modulus - 1


def test_strengthened_inverse_rejects_non_coprime():
    with pytest.raises(ValueError):
        strengthened_inverse(2, 4)


def test_omega_trivial_points():
    assert omega(0, 1) == 0
    assert omega(1, 1) == 0
    assert omega(1, 2) == 0


def test_omega_is_24k_th_root():
    for k in range(1, 16):
        for h in range(k):
            if math.gcd(h, k) == 1:
                w = omega(h, k)
                assert isinstance(w, Fraction) and 0 <= w < 2
                assert (24 * k * w) % 2 == 0
                assert 12 * k % w.denominator == 0


def _dedekind_sum(h, k):
    s = Fraction(0)
    for r in range(1, k):
        x = Fraction(r, k) - Fraction(1, 2)
        hr = Fraction(h * r, k)
        frac = hr - (hr.numerator // hr.denominator)
        y = frac - Fraction(1, 2) if frac != 0 else Fraction(0)
        s += x * y
    return s


def test_omega_matches_dedekind_sums():
    # independent oracle: the eta multiplier is e^(i*pi*s(h,k))
    for k in range(1, 14):
        for h in range(k):
            if math.gcd(h, k) == 1 and (h > 0 or k == 1):
                assert omega(h, k) == _dedekind_sum(h, k) % 2, (h, k)


def test_omega_representative_independence():
    for (h, k) in ((1, 2), (1, 3), (3, 4), (2, 5), (5, 6), (3, 8), (7, 12)):
        si = strengthened_inverse(h, k)
        assert omega(h, k, si.hprime) == omega(h, k, si.hprime + si.modulus)
        assert omega(h, k, si.hprime) == omega(h, k, si.hprime + 3 * si.modulus)


def test_omega_branch_agreement_on_overlap():
    # both formulas apply when h and k are both odd; record full agreement
    disagreements = []
    for k in range(1, 26, 2):
        for h in range(1, k + 1, 2):
            if math.gcd(h, k) == 1 and h < k or (h, k) == (1, 1):
                if omega(h, k, branch="k_odd") != omega(h, k, branch="h_odd"):
                    disagreements.append((h, k))
    assert disagreements == []


def _omega_exponent(h, k, hprime, branch):
    """The -E part of omega = (kronecker) * e^(-i*pi*E), as an exact Fraction."""
    poly = 2 * h - hprime + h * h * hprime
    shared = Fraction(k * k - 1, 12 * k) * poly
    if branch == "h_odd":
        return Fraction(2 - h * k - h, 4) + shared
    return Fraction(k - 1, 4) + shared


def test_omega_residue_matches_fraction_formula():
    # the integer residue mod 24k against the rational exponent formula, on
    # every branch that is defined at (h, k)
    checked = 0
    for k in range(1, 101):
        for h in range(k):
            if math.gcd(h, k) != 1:
                continue
            hp = strengthened_inverse(h, k).hprime
            for branch in ("h_odd", "k_odd"):
                if (h if branch == "h_odd" else k) % 2 == 0:
                    continue
                sign = kronecker(-k, h) if branch == "h_odd" else kronecker(-h, k)
                t = (-_omega_exponent(h, k, hp, branch) + (sign == -1)) % 2
                r = omega_residue(h, k, branch=branch)
                assert 0 <= r < 24 * k and Fraction(r, 12 * k) == t, (h, k, branch)
                assert omega(h, k, branch=branch) == t
                checked += 1
    assert checked > 3000


def test_omega_branch_validation():
    with pytest.raises(ValueError):
        omega(2, 3, branch="h_odd")
    with pytest.raises(ValueError):
        omega(1, 2, branch="k_odd")
    with pytest.raises(ValueError):
        omega(2, 4)


def test_farey_neighbors_example():
    arc = farey_neighbors(2, 5, 5)
    assert (arc.k1, arc.k2) == (3, 2)
    assert (arc.h1, arc.h2) == (1, 1)


def test_farey_zero_arc():
    arc = farey_neighbors(0, 1, 7)
    assert arc.theta_left == Fraction(1, 8)
    assert arc.theta_right == Fraction(1, 8)


def test_farey_against_brute_force():
    for N in range(2, 13):
        seq = farey_sequence(N) + [Fraction(1)]
        for i, frac in enumerate(seq[:-1]):
            h, k = frac.numerator, frac.denominator
            arc = farey_neighbors(h, k, N)
            if (h, k) != (0, 1):
                left = seq[i - 1]
                right = seq[i + 1]
                assert arc.k1 == left.denominator, (h, k, N)
                assert arc.k2 == right.denominator, (h, k, N)
                assert abs(h * arc.k1 - arc.h1 * k) == 1
                assert abs(arc.h2 * k - h * arc.k2) == 1


def test_farey_arcs_tile_unit_interval():
    for N in (3, 7, 11):
        seq = farey_sequence(N)
        left_end = -farey_neighbors(0, 1, N).theta_left
        cursor = left_end
        for frac in seq:
            arc = farey_neighbors(frac.numerator, frac.denominator, N)
            assert frac - arc.theta_left == cursor, (frac, N)
            cursor = frac + arc.theta_right
        assert cursor == 1 + left_end


def test_farey_width_envelope():
    # 1/(2kN) <= theta <= 1/(kN) on every arc
    for N in (4, 9):
        for frac in farey_sequence(N):
            h, k = frac.numerator, frac.denominator
            arc = farey_neighbors(h, k, N)
            for theta in (arc.theta_left, arc.theta_right):
                assert Fraction(1, 2 * k * N) <= theta <= Fraction(1, k * N)


def test_farey_rejects_bad_input():
    with pytest.raises(ValueError):
        farey_neighbors(2, 4, 5)
    with pytest.raises(ValueError):
        farey_neighbors(1, 6, 5)


def test_multiplier_identity_small():
    for k in (2, 6, 10, 14, 18):
        for h in range(k):
            if math.gcd(h, k) == 1:
                holds, lhs, rhs = multiplier_identity_check(h, k)
                assert holds is True and lhs == rhs, (h, k, lhs, rhs)
                assert isinstance(lhs, Fraction) and 0 <= lhs < 2


def test_multiplier_identity_wrong_class():
    with pytest.raises(ValueError):
        multiplier_identity_check(1, 4)
    with pytest.raises(ValueError):
        multiplier_identity_check(1, 3)
