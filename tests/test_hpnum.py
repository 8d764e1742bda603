"""Bessel kernels against independent series/library oracles and the
certified quadrature on known integrals; the fixed-point Gauss-Legendre
tables against the mpf rule."""

import mpmath
import pytest
from mpmath import mpf, workprec

from circleforge import hpnum
from circleforge.hpnum import (
    QuadratureError,
    _gauss_legendre_nodes,
    bessel_i32,
    bessel_i_series,
    default_precision,
    gauss_legendre_fixed,
    quad_finite,
)
from reference import quad_decay

PREC = 320  # test-level arithmetic must not truncate frozen oracles

with workprec(PREC):
    # frozen from mpmath.besseli at 40 digits
    I1_AT_2 = mpf("1.59063685463732906338225442499966624795448")
    I32_AT_1 = mpf("0.293525326347479799788628858063109236015616")
    # frozen independent oracle (tanh-sinh at 40 digits) for the decay integral
    GAUSS_COSH = mpf("1.47906117144957589085445370321219004668014")


@pytest.fixture(autouse=True, scope="module")
def _module_precision():
    with workprec(PREC):
        yield


def test_default_precision_grows():
    assert default_precision(1) >= 64
    assert default_precision(100) > default_precision(10)


def test_i1_zero_and_value():
    assert bessel_i_series(2, 0, 64) == 0
    with workprec(120):
        assert abs(bessel_i_series(2, 2, 120) - I1_AT_2) < mpf(2) ** -110
    with mpmath.workdps(40):
        oracle = mpmath.besseli(1, mpmath.mpf(2))
        assert abs(bessel_i_series(2, 2, 160) - oracle) < mpf("1e-38")


def test_i1_recurrence():
    # I_0(x) - I_2(x) = (2/x) I_1(x), all three from the series oracle
    for x in (mpf("0.7"), mpf("3.1"), mpf("9.5")):
        with workprec(140):
            i0 = bessel_i_series(0, x, 140)
            i2 = bessel_i_series(4, x, 140)
            i1 = bessel_i_series(2, x, 140)
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


def test_quad_counts_unconverged_panels():
    # sqrt|x - a| at the irrational a = 1/sqrt(2): the kink never lands on a
    # panel edge, and the error of the panel holding it shrinks only like
    # h^(3/2) while its budget halves with h, so bisection reaches the width
    # floor 2^-(prec/2) before the budget
    with workprec(64):
        a = 1 / mpmath.sqrt(2)
        exact = 2 * (a ** mpf(1.5) + (1 - a) ** mpf(1.5)) / 3
    res = quad_finite(lambda x: mpmath.sqrt(abs(x - a)), 0, 1, mpf("1e-15"), prec=64)
    assert res.unconverged > 0
    assert abs(res.value - exact) < mpf("1e-15")
    smooth = quad_finite(lambda x: 1 / (1 + 25 * x * x), -1, 1, mpf("1e-20"), prec=110)
    assert smooth.unconverged == 0


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
        quad_decay(lambda x: mpmath.exp(-x * x), -1, mpf("1e-10"), prec=PREC)


def test_precision_escalation():
    for P in (80, 128):
        a = bessel_i_series(2, mpf("2.7"), P)
        b = bessel_i_series(2, mpf("2.7"), P + 64)
        with workprec(P + 80):
            assert abs(a - b) < abs(b) * mpf(2) ** (-P + 4)


# every (npts, frac_bits) of the band kernels on the `exact` benchmark windows
# (p1bar_exact(n), n in 50..60 and 101..112) and on the f-law points of the
# `laws` benchmark, plus an odd rule
FIXED_RULES = [
    (22, range(150, 160)),
    (44, range(150, 160)),
    (24, range(162, 171)),
    (48, range(162, 171)),
    (38, (228, 232, 236, 238, 240)),
    (76, (228, 232, 236, 238, 240)),
    (25, (100, 131)),
]


@pytest.mark.parametrize("npts, frac_bits", FIXED_RULES, ids=lambda v: str(v))
def test_gauss_legendre_fixed_within_one_ulp_of_mpf_reference(npts, frac_bits):
    # the mpf weights carry about prec + 14 correct bits, so a reference 40
    # bits above frac_bits is exact to far below one ulp
    ref = _gauss_legendre_nodes(npts, max(frac_bits) + 40)
    for F in frac_bits:
        table = gauss_legendre_fixed(npts, F)
        assert len(table) == npts
        with workprec(F + 80):
            scale = mpf(2) ** F
            for (t, w), (x_ref, w_ref) in zip(table, ref):
                assert abs(t - x_ref * scale) <= 1
                assert abs(w - w_ref * scale) <= 1
        assert all(t == -t_mirror and w == w_mirror
                   for (t, w), (t_mirror, w_mirror) in zip(table, reversed(table)))
        assert all(a[0] < b[0] for a, b in zip(table, table[1:]))
        if npts % 2:
            assert table[npts // 2][0] == 0
        assert abs(sum(w for _, w in table) - 2 ** (F + 1)) <= npts


def test_gauss_legendre_fixed_raises_on_unconverged_root(monkeypatch):
    # a halved Newton step converges only linearly, so the final check at
    # W bits still sees a large correction
    step = hpnum._newton_step
    monkeypatch.setattr(hpnum, "_newton_step",
                        lambda npts, x, p: (step(npts, x, p)[0] // 2,) + step(npts, x, p)[1:])
    with pytest.raises(ArithmeticError, match="did not converge"):
        hpnum._gauss_legendre_half.__wrapped__(13, 128)
