"""Mordell-type integrals against independent quadrature oracles, the
cancellation-free gap representation, and the residue/contour identity."""

from fractions import Fraction

import mpmath
import pytest
mpmath.mp.prec = 320  # test-level arithmetic must not truncate frozen oracles
from mpmath import mpc, mpf, workprec

from circleforge.hpnum import bessel_i1
from circleforge.integrals import (
    J,
    J_gap,
    Jstar,
    L_closed,
    L_contour,
    MordellParams,
    cosh_path_floor,
    lemma35_gap,
    mordell_I,
    script_I,
    script_I_band,
)

# frozen from mpmath.quad (tanh-sinh, 40 digits)
MORDELL_1_1_AT_1 = mpf("-0.516321344158313640297043516758628784231507")


def oracle_mordell(k, nu, z, dps=40):
    with mpmath.workdps(dps):
        z = mpc(z)
        shift = mpmath.pi * 1j * (nu - mpf(1) / 6) / k
        f = lambda x: mpmath.exp(-3 * mpmath.pi * z * x * x / k) / mpmath.cosh(shift - mpmath.pi * z * x / k)
        return mpmath.quad(f, [-mpmath.inf, mpmath.inf])


def test_mordell_value_and_oracle():
    v = mordell_I(1, 1, 1, mpf("1e-24"), prec=110)
    assert abs(v - MORDELL_1_1_AT_1) < mpf("1e-22")
    for (k, nu, z) in ((2, 1, mpf(1) / 2), (3, 2, 1), (5, 4, 2)):
        v = mordell_I(k, nu, z, mpf("1e-20"), prec=100)
        w = oracle_mordell(k, nu, z)
        assert abs(v - w) < mpf("1e-18"), (k, nu, z)


def test_mordell_real_for_real_z():
    for (k, nu) in ((1, 1), (4, 3), (7, 2)):
        v = mordell_I(k, nu, mpf("0.75"), mpf("1e-20"), prec=100)
        assert abs(v.imag) < mpf("1e-20")


def test_mordell_gaussian_damping():
    vals = [abs(mordell_I(1, 1, t, mpf("1e-16"), prec=80)) for t in (1, 2, 4)]
    assert vals[0] > vals[1] > vals[2]


def test_mordell_domain():
    with pytest.raises(ValueError):
        mordell_I(1, 1, mpc(-1, 1), mpf("1e-10"))
    with pytest.raises(ValueError):
        mordell_I(1, 1, 0, mpf("1e-10"))


def test_cosh_floor_positive():
    for (k, nu) in ((1, 1), (12, 6), (12, 12), (25, 13)):
        with workprec(80):
            assert cosh_path_floor(k, nu, mpf(1), 80) > 0
            assert cosh_path_floor(k, nu, mpc(1, mpf(1) / 3), 80) > 0


def test_J_at_b_zero_is_z_times_I():
    z = mpf(1) / 2
    jv = J(0, 2, 1, z, mpf("1e-18"), prec=90)
    iv = mordell_I(2, 1, z, mpf("1e-18"), prec=90)
    assert abs(jv - z * iv) < mpf("1e-16")


def test_Jstar_value_against_oracle():
    b = Fraction(5, 12)
    v = Jstar(b, 2, 1, mpf("0.1"), mpf("1e-18"), prec=110)
    with mpmath.workdps(45):
        sq = mpmath.sqrt(mpf(5) / 36)
        w = mpmath.pi * mpf(5) / 12 / (2 * mpf("0.1"))
        f = lambda x: sq * mpmath.exp(w * (1 - x * x)) / mpmath.cosh(
            mpmath.pi * 1j * (1 - mpf(1) / 6) / 2 - mpmath.pi * sq * x / 2)
        oracle = mpmath.quad(f, [-1, 1])
    assert abs(v - oracle) < abs(oracle) * mpf("1e-16")


def test_Jstar_rejects_nonpositive_b():
    with pytest.raises(ValueError):
        Jstar(Fraction(0), 1, 1, 1, mpf("1e-10"))
    with pytest.raises(ValueError):
        Jstar(Fraction(-1, 12), 1, 1, 1, mpf("1e-10"))


def test_gap_representation_matches_direct_difference():
    # at moderate z the catastrophic cancellation is affordable, so the two
    # routes to J - Jstar can be compared directly
    b = Fraction(5, 12)
    for (k, nu) in ((1, 1), (2, 1)):
        direct = (J(b, k, nu, mpf("0.1"), mpf("1e-28"), prec=260)
                  - Jstar(b, k, nu, mpf("0.1"), mpf("1e-28"), prec=260))
        tail = J_gap(b, k, nu, mpf("0.1"), mpf("1e-28"), prec=260)
        assert abs(direct - tail) < mpf("1e-20"), (k, nu)


def test_lemma35_rows_bounded():
    rows = lemma35_gap(Fraction(5, 12), 2, 1, [mpf(10) ** -j for j in range(1, 4)])
    gaps = [r["gap"] for r in rows]
    assert max(gaps) < 10
    rows = lemma35_gap(Fraction(-1, 12), 2, 1, [mpf(10) ** -j for j in range(1, 4)])
    assert all(r["gap"] < 1 for r in rows)


def test_lemma35_denominator_value():
    rows = lemma35_gap(Fraction(5, 12), 1, 1, [mpf("0.1")])
    with workprec(96):
        assert abs(rows[0]["bound_denominator"] - mpmath.pi / 3) < mpf("1e-20")


def test_script_I_real_and_endpoints():
    v = script_I(Fraction(5, 12), 2, 1, 4, mpf("1e-16"), prec=96)
    assert v.imag == 0 if isinstance(v, mpc) else True
    # integrand vanishes at the endpoints: the quadrature value is stable
    # under shrinking the interval by an epsilon that only cuts the zeros
    assert isinstance(float(v), float)


def test_script_I_against_oracle():
    with mpmath.workdps(40):
        sq = mpmath.sqrt(mpf(5) / 36)
        f = lambda x: (mpmath.sqrt(1 - x * x)
                       * mpmath.besseli(1, mpmath.pi * mpmath.sqrt(mpf(5) * 4 * (1 - x * x) / 6))
                       / mpmath.cosh(mpmath.pi * 1j * (1 - mpf(1) / 6) / 2 - mpmath.pi * sq * x / 2))
        oracle = mpmath.quad(f, [-1, 1]).real
    v = script_I(Fraction(5, 12), 2, 1, 4, mpf("1e-18"), prec=110)
    assert abs(v - oracle) < mpf("1e-15")


def test_script_I_validation():
    with pytest.raises(ValueError):
        script_I(Fraction(-1, 12), 1, 1, 4, mpf("1e-10"))
    with pytest.raises(ValueError):
        script_I(Fraction(5, 12), 1, 1, 0, mpf("1e-10"))


def test_script_I_band_matches_per_nu():
    # (5/12, 2, 55) and (5/12, 6, 10) bisect; (1/24, 5, 10) takes one panel
    tol = mpf("1e-14")
    for b, k, n in ((Fraction(1, 24), 5, 10), (Fraction(5, 12), 6, 10), (Fraction(5, 12), 2, 55)):
        nus = list(range(1, k + 1))
        band = script_I_band(b, k, nus, n, tol, prec=110)
        assert len(band) == k
        for nu, v in zip(nus, band):
            assert abs(v - script_I(b, k, nu, n, tol, prec=110)) < tol, (b, k, n, nu)
    assert script_I_band(Fraction(5, 12), 2, [], 4, tol, prec=96) == []


def test_script_I_band_checks_each_imaginary_residue(monkeypatch):
    import circleforge.integrals as integrals

    real_quad = integrals.quad_finite

    def skewed(*args, **kwargs):
        res = real_quad(*args, **kwargs)
        res.value[-1] += mpc(0, "1e-6")
        return res

    monkeypatch.setattr(integrals, "quad_finite", skewed)
    with pytest.raises(ArithmeticError):
        script_I_band(Fraction(1, 24), 3, [1, 2, 3], 4, mpf("1e-12"), prec=96)


def test_script_I_band_validation():
    with pytest.raises(ValueError):
        script_I_band(Fraction(-1, 12), 1, [1], 4, mpf("1e-10"))
    with pytest.raises(ValueError):
        script_I_band(Fraction(5, 12), 1, [1], 0, mpf("1e-10"))


def test_L_closed_trivials():
    assert L_closed(3, 5, 0, 80) == 0
    with workprec(100):
        expected = bessel_i1(4 * mpmath.pi, 100)
        assert abs(L_closed(1, 1, 1, 100) - expected) < mpf("1e-25")


def test_L_contour_matches_closed():
    for (k, n, y, N) in ((2, 3, mpf(1) / 4, 8), (1, 2, mpf(5) / 24, 4), (3, 7, mpf("0.15"), 16)):
        closed = L_closed(k, n, y, 90)
        contour = L_contour(k, n, y, N, mpf("1e-12"), prec=90)
        assert abs(contour - closed) < abs(closed) * mpf("1e-10"), (k, n, y, N)
        assert abs(contour.imag) < abs(closed) * mpf("1e-10")


def test_L_contour_degenerate():
    with pytest.raises(ValueError):
        L_contour(1, 1, mpf(1) / 4, 0, mpf("1e-8"))


def test_mordell_params_validation():
    MordellParams(5, 3).validate()
    with pytest.raises(ValueError):
        MordellParams(0, 1).validate()
