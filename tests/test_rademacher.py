"""Assembled exact formulas against the generating-function oracles."""

import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf, workprec

from circleforge.hpnum import default_precision
from circleforge.kloosterman import A_k, KloostermanSpec, _rewrite_data, modified_K
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
from reference import script_I

PREC = 256


@pytest.fixture(autouse=True, scope="module")
def _module_precision():
    with workprec(PREC):
        yield


def test_p_rademacher_small():
    p_series = named_series("P", 100)
    for n in (1, 5, 12, 30):
        res = p_rademacher(n)
        assert res.rounded == p_series.coefficient(n), n
        assert res.distance_to_integer < 0.25
    res = p_rademacher(100)
    assert res.rounded == 190569292 == p_series.coefficient(100)
    # A_11(1) is exactly zero, so the last band of p(1) is exactly 0
    assert p_rademacher(1).tail_estimate == 0


def test_p_rademacher_skips_bessel_for_zero_sums(monkeypatch):
    # deterministic work count: A_k(500) is exactly zero for 10 of its 33 bands
    import circleforge.rademacher as rademacher

    calls = []
    real_bessel = rademacher.bessel_i32

    def counted(x, prec):
        calls.append(x)
        return real_bessel(x, prec)

    monkeypatch.setattr(rademacher, "bessel_i32", counted)
    res = p_rademacher(500)
    assert res.rounded == named_series("P", 500).coefficient(500)
    assert len(res.per_k_terms) == 33
    assert len(calls) == 23


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
    assert p1bar_exact(4, kmax=12).rounded == 12
    # the assembly is real because every weight it reads equals its
    # conjugate exactly: the j=2 modified sums of both bands and A_k(n)
    for n in (1, 7, 55, 400):
        for k in range(1, 61):
            d = math.gcd(4, k)
            if d == 4:
                continue
            for nu in range(1, k + 1):
                spec = KloostermanSpec("modified", k, n, d=d, j=2, nu=nu)
                sv = modified_K(spec)
                assert sv.equals(sv.conjugate()), (n, k, nu)
                # the classical form's prefactor e^(i pi pref/(12k)) is +-1
                assert _rewrite_data(spec)[0] % (12 * k) == 0, (n, k, nu)
    for n in (1, 7, 500):
        for k in range(1, 61):
            ak = A_k(k, n)
            assert ak.equals(ak.conjugate()), (n, k)


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


def test_bessel_call_count_pin(monkeypatch):
    # deterministic work counts: a later change may lower these pins, never raise them
    import circleforge.hpnum as hpnum
    import circleforge.integrals as integrals

    calls = []
    panels = []
    exps = []
    real_factor = hpnum.BesselFactor.__call__
    real_driver = integrals.quad_panels
    real_exp = integrals._exp_fixed

    def counted(self, s):
        calls.append(s)
        return real_factor(self, s)

    def counted_panels(*args, **kwargs):
        res = real_driver(*args, **kwargs)
        panels.append(res.subdivisions)
        return res

    def counted_exp(t, F):
        exps.append(t)
        return real_exp(t, F)

    monkeypatch.setattr(hpnum.BesselFactor, "__call__", counted)
    monkeypatch.setattr(integrals, "quad_panels", counted_panels)
    monkeypatch.setattr(integrals, "_exp_fixed", counted_exp)
    assert p1bar_exact(55).rounded == named_series("G1", 55).coefficient(55)
    assert len(calls) == 858
    assert sum(panels) == 26
    assert len(exps) == 858  # one exp per distinct |x|, as for the Bessel factor


def test_band_panels_converge_on_workload_inputs(monkeypatch):
    # every n of the two windows of perfbench's `exact` workload: no band panel
    # is accepted only because it reached the width floor
    import circleforge.integrals as integrals

    unconverged = []
    real_panels = integrals.quad_panels

    def recorded(*args, **kwargs):
        res = real_panels(*args, **kwargs)
        unconverged.append(res.unconverged)
        return res

    monkeypatch.setattr(integrals, "quad_panels", recorded)
    for n in (*range(50, 61), *range(101, 113)):
        p1bar_exact(n)
    assert unconverged and not any(unconverged)


def test_kloosterman_root_evaluation_pin(monkeypatch):
    # deterministic work count: the cos/sin evaluations behind every
    # SumValue.value of p1bar_exact(55); a later change may lower it, never raise it
    import functools

    import circleforge.kloosterman as kloosterman

    fresh = functools.lru_cache(maxsize=None)(kloosterman._root.__wrapped__)
    monkeypatch.setattr(kloosterman, "_root", fresh)
    assert p1bar_exact(55).rounded == named_series("G1", 55).coefficient(55)
    assert fresh.cache_info().misses == 82
