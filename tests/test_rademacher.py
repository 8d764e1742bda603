"""Assembled exact formulas against the generating-function oracles."""

import math
from fractions import Fraction

import mpmath
import pytest
mpmath.mp.prec = 256
from mpmath import mpf, workprec

from circleforge.hpnum import default_precision
from circleforge.integrals import script_I
from circleforge.kloosterman import KloostermanSpec, modified_K
from circleforge.qseries import named_series
from circleforge.rademacher import (
    default_kmax,
    p1bar_asymptotic,
    p1bar_dominant,
    p1bar_exact,
    p1bar_term,
    p_rademacher,
    verify_range,
)


def test_p_rademacher_small():
    p_series = named_series("P", 100)
    for n in (1, 5, 12, 30):
        res = p_rademacher(n)
        assert res.rounded == p_series.coefficient(n), n
        assert res.distance_to_integer < 0.25
    res = p_rademacher(100)
    assert res.rounded == 190569292 == p_series.coefficient(100)


def test_p_rademacher_validation():
    with pytest.raises(ValueError):
        p_rademacher(0)


def test_default_kmax():
    assert default_kmax(1) == 11
    assert default_kmax(100) == 20
    assert default_kmax(101) >= 21


def test_p1bar_exact_small():
    g1 = named_series("G1", 12)
    for n in (1, 2, 4, 7, 12):
        res = p1bar_exact(n, kmax=12)
        assert res.rounded == g1.coefficient(n), n
        assert res.distance_to_integer < mpf("0.5")
        assert res.imag_residue < mpf("1e-10")
    assert p1bar_exact(4, kmax=12).rounded == 12


def test_p1bar_exact_validation():
    with pytest.raises(ValueError):
        p1bar_exact(0)
    with pytest.raises(ValueError):
        p1bar_exact(5, kmax=1)


def test_p1bar_term_k1_single_unit_term():
    # at k=1 the Kloosterman factor is 1, so the band is one bare integral
    n = 6
    band = p1bar_term(1, 1, n, mpf("1e-12"), prec=128)
    with workprec(128):
        integral = script_I(Fraction(1, 24), 1, 1, n, mpf("1e-13"), prec=128)
        sign = (-1) ** (n + 1)
        assert abs(band - sign * integral) < mpf("1e-10")


def test_p1bar_term_rejects_gcd4():
    with pytest.raises(ValueError):
        p1bar_term(4, 4, 3, mpf("1e-10"))
    with pytest.raises(ValueError):
        p1bar_term(2, 4, 3, mpf("1e-10"))


def test_dominant_equals_k2_band():
    n = 9
    with workprec(160):
        band = p1bar_term(2, 2, n, mpf("1e-14"), prec=160)
        front = 5 * mpmath.pi / (12 * mpmath.sqrt(mpf(6 * n)))
        dom = p1bar_dominant(n, mpf("1e-14"), prec=160)
        assert abs(front * band - dom) < mpf("1e-10")


def test_dominant_tracks_exact():
    res = p1bar_exact(60, kmax=12)
    dom = p1bar_dominant(60)
    assert abs(dom - res.value) / res.value < mpf("0.05")


def test_asymptotic_positive_and_improving():
    g1 = named_series("G1", 400)
    with workprec(160):
        r200 = g1.coefficient(200) / p1bar_asymptotic(200, prec=160)
        r400 = g1.coefficient(400) / p1bar_asymptotic(400, prec=160)
        assert r200 > 0 and r400 > 0
        assert abs(r400 - 1) < abs(r200 - 1)


def test_verify_range_small():
    report = verify_range(1, 10, kmax=10)
    assert report["ok"]
    assert report["mismatches"] == 0
    assert len(report["rows"]) == 10
    assert report["max_distance"] < 0.5


def test_verify_range_1_to_30_k15():
    report = verify_range(1, 30, kmax=15)
    assert report["ok"] and report["mismatches"] == 0


def test_monotone_truncation_improvement():
    # individual distances oscillate with K, but the worst case over the
    # whole oracle-verified range must not grow as the truncation deepens
    maxima = []
    for kmax in (2, 5, 10, 15):
        maxima.append(max(p1bar_exact(n, kmax=kmax).distance_to_integer
                          for n in range(1, 31)))
    assert all(a >= b for a, b in zip(maxima, maxima[1:])), maxima


def test_verify_range_empty():
    report = verify_range(5, 4)
    assert report["ok"] and report["rows"] == []


def test_per_k_terms_sum_to_value():
    res = p1bar_exact(8, kmax=10)
    with workprec(200):
        total = sum(t for _, t in res.per_k_terms)
        assert abs(total.real - res.value) < mpf("1e-20")


def _p1bar_per_nu_reference(n, tol=mpf("1e-12")):
    """p1bar_exact's sum at default kmax and precision, one script_I per (k, nu)."""
    prec = default_precision(n)
    with workprec(prec):
        front = mpmath.pi / (12 * mpmath.sqrt(mpf(6 * n)))
        total = mpf(0)
        for k in range(1, default_kmax(n) + 1):
            d = math.gcd(4, k)
            if d == 4:
                continue
            b = Fraction(1, 24) if d == 1 else Fraction(5, 12)
            band = mpmath.mpc(0)
            for nu in range(1, k + 1):
                kval = modified_K(KloostermanSpec("modified", k, n, d=d, j=2, nu=nu)).value(prec)
                if kval != 0:
                    sign = -1 if (n + nu) % 2 else 1
                    band += sign * kval * script_I(b, k, nu, n, tol / (4 * k), prec=prec)
            total += (front if d == 1 else 5 * front) * band.real / (k * k)
        return total


@pytest.mark.parametrize("n", [55, 105, 400])
def test_band_quadrature_matches_per_nu_reference(n):
    res = p1bar_exact(n)
    reference = _p1bar_per_nu_reference(n)
    assert abs(res.value - reference) < mpf("1e-20") * res.value
    assert res.rounded == named_series("G1", n).coefficient(n)


def test_p1bar_exact_ignores_global_precision():
    saved = mpmath.mp.prec
    try:
        mpmath.mp.prec = 53
        low = p1bar_exact(105)
        mpmath.mp.prec = 320
        high = p1bar_exact(105)
    finally:
        mpmath.mp.prec = saved
    assert low.value == high.value
    assert low.rounded == high.rounded


def test_bessel_call_count_pin(monkeypatch):
    # deterministic work count: a later change may lower this pin, never raise it
    import circleforge.integrals as integrals

    calls = []
    real_i1 = integrals.bessel_i1

    def counted(x, prec):
        calls.append(x)
        return real_i1(x, prec)

    monkeypatch.setattr(integrals, "bessel_i1", counted)
    assert p1bar_exact(55).rounded == named_series("G1", 55).coefficient(55)
    assert len(calls) == 924
