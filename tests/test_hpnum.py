"""Bessel kernels against independent series/library oracles and the
certified quadrature on known integrals."""

import mpmath
import pytest
mpmath.mp.prec = 320  # test-level arithmetic must not truncate frozen oracles
from mpmath import mpf, workprec

from circleforge.hpnum import (
    QuadratureError,
    bessel_i1,
    bessel_i32,
    bessel_i_series,
    default_precision,
    quad_decay,
    quad_finite,
)

# frozen from mpmath.besseli at 40 digits
I1_AT_2 = mpf("1.59063685463732906338225442499966624795448")
I32_AT_1 = mpf("0.293525326347479799788628858063109236015616")
# frozen independent oracle (tanh-sinh at 40 digits) for the decay integral
GAUSS_COSH = mpf("1.47906117144957589085445370321219004668014")


def test_default_precision_grows():
    assert default_precision(1) >= 64
    assert default_precision(100) > default_precision(10)


def test_i1_zero_and_value():
    assert bessel_i1(0, 64) == 0
    with workprec(120):
        assert abs(bessel_i1(2, 120) - I1_AT_2) < mpf(2) ** -110
    with mpmath.workdps(40):
        oracle = mpmath.besseli(1, mpmath.mpf(2))
        assert abs(bessel_i1(2, 160) - oracle) < mpf("1e-38")


def test_i1_recurrence():
    # I_0(x) - I_2(x) = (2/x) I_1(x), all three from the series oracle
    for x in (mpf("0.7"), mpf("3.1"), mpf("9.5")):
        with workprec(140):
            i0 = bessel_i_series(0, x, 140)
            i2 = bessel_i_series(4, x, 140)
            i1 = bessel_i1(x, 140)
            assert abs(i0 - i2 - 2 / x * i1) < mpf(2) ** -120


def test_i32_value_and_dual_path():
    with workprec(120):
        assert abs(bessel_i32(1, 120) - I32_AT_1) < mpf(2) ** -110
        closed = bessel_i32(mpf(1) / 2, 120)
        series = bessel_i_series(3, mpf(1) / 2, 120)
        assert abs(closed - series) < abs(closed) * mpf(2) ** -(120 - 8)


def test_i32_small_argument_path():
    with workprec(120):
        v = bessel_i32(mpf("0.01"), 120)
        s = bessel_i_series(3, mpf("0.01"), 120)
        assert abs(v - s) <= abs(s) * mpf(2) ** -100


def test_i32_monotone_and_domain():
    with workprec(80):
        grid = [mpf(x) / 4 for x in range(1, 20)]
        vals = [bessel_i32(x, 80) for x in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        bessel_i32(0, 64)
    with pytest.raises(ValueError):
        bessel_i32(-1, 64)


def test_quad_constant():
    r = quad_finite(lambda x: mpf(1), 0, 1, mpf("1e-25"), prec=96)
    assert abs(r.value - 1) < mpf("1e-25")
    assert r.subdivisions >= 1


def test_quad_semicircle():
    with workprec(96):
        r = quad_finite(lambda x: mpmath.sqrt(1 - x * x), -1, 1, mpf("1e-18"), prec=96)
        assert abs(r.value - mpmath.pi / 2) < mpf("1e-17")


def test_quad_odd_symmetry():
    with workprec(80):
        r = quad_finite(lambda x: x ** 3 * mpmath.cos(x), -2, 2, mpf("1e-20"), prec=80)
        assert abs(r.value) < mpf("1e-20")


def test_quad_tolerance_certificate():
    # halving the budget (forcing more subdivisions) moves the value by less
    # than the coarser run's reported estimate
    with workprec(96):
        f = lambda x: mpmath.exp(-x) * mpmath.sin(3 * x)
        coarse = quad_finite(f, 0, 4, mpf("1e-12"), prec=96)
        fine = quad_finite(f, 0, 4, mpf("1e-24"), prec=96)
        assert abs(coarse.value - fine.value) <= coarse.abs_error_estimate + mpf("1e-24")


def test_quad_budget_exhaustion():
    with workprec(64):
        with pytest.raises(QuadratureError) as err:
            quad_finite(lambda x: abs(x) ** mpf("0.5"), -1, 1, mpf("1e-40"),
                        prec=64, max_panels=8)
        assert err.value.subdivisions > 8


def test_quad_list_valued_matches_scalar_calls():
    # the Runge component forces bisection; the others would take one panel
    comps = (
        lambda x: mpmath.exp(-x) * mpmath.sin(3 * x),
        lambda x: 1 / (1 + 25 * x * x),
        lambda x: mpmath.sqrt(1 - x * x),
    )
    tol = mpf("1e-20")
    with workprec(96):
        joint = quad_finite(lambda x: [g(x) for g in comps], -1, 1, tol, prec=96)
        single = [quad_finite(g, -1, 1, tol, prec=96) for g in comps]
    assert isinstance(joint.value, list) and len(joint.value) == 3
    assert len(joint.abs_error_estimate) == 3
    assert single[0].subdivisions == 1 < single[1].subdivisions
    # a panel is bisected when any component misses its budget
    assert joint.subdivisions >= max(r.subdivisions for r in single)
    for v, r in zip(joint.value, single):
        assert abs(v - r.value) < tol


def test_decay_gaussian():
    with workprec(96):
        r = quad_decay(lambda x: mpmath.exp(-mpmath.pi * x * x), mpmath.pi, mpf("1e-22"), prec=96)
        assert abs(r.value - 1) < mpf("1e-21")


def test_decay_gauss_cosh_oracle():
    with workprec(96):
        r = quad_decay(lambda x: mpmath.exp(-x * x) / mpmath.cosh(x), 1, mpf("1e-20"), prec=96)
        assert abs(r.value - GAUSS_COSH) < mpf("1e-19")


def test_decay_even_symmetry():
    with workprec(96):
        f = lambda x: mpmath.exp(-2 * x * x) * mpmath.cos(x)
        full = quad_decay(f, 2, mpf("1e-20"), prec=96)
        half = quad_finite(f, 0, 12, mpf("1e-22"), prec=96)
        assert abs(full.value - 2 * half.value) < mpf("1e-19")


def test_decay_requires_positive_real_part():
    with pytest.raises(ValueError):
        quad_decay(lambda x: mpmath.exp(-x * x), -1, mpf("1e-10"))


def test_precision_escalation():
    for P in (80, 128):
        a = bessel_i1(mpf("2.7"), P)
        b = bessel_i1(mpf("2.7"), P + 64)
        with workprec(P + 80):
            assert abs(a - b) < abs(b) * mpf(2) ** (-P + 4)
