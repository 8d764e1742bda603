"""Mordell-type integrals against independent quadrature oracles, the
cancellation-free gap representation, and the residue/contour identity."""

import cmath
import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpc, mpf, workprec
from mpmath.libmp import to_fixed

from circleforge.hpnum import (
    BesselFactor,
    bessel_factor_degree,
    bessel_i_series,
    default_precision,
)
from circleforge.integrals import (
    J,
    J_gap,
    Jstar,
    L_closed,
    L_contour,
    cosh_path_floor,
    lemma35_gap,
    mordell_band,
    script_I_band,
    _band_guard_bits,
)
from circleforge.transform import standard_grid
from reference import J_gap as J_gap_pointwise
from reference import Jstar as Jstar_pointwise
from reference import L_contour as L_contour_pointwise
from reference import mordell_I, quad_finite, script_I

PREC = 320  # test-level arithmetic must not truncate frozen oracles

with workprec(PREC):
    # frozen from mpmath.quad (tanh-sinh, 40 digits)
    MORDELL_1_1_AT_1 = mpf("-0.516321344158313640297043516758628784231507")


@pytest.fixture(autouse=True, scope="module")
def _module_precision():
    with workprec(PREC):
        yield


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
        mordell_I(1, 1, mpc(-1, 1), mpf("1e-10"), prec=PREC)
    with pytest.raises(ValueError):
        mordell_I(1, 1, 0, mpf("1e-10"), prec=PREC)


@pytest.mark.parametrize("k", [1, 2, 5, 12])
def test_mordell_band_matches_per_nu(k):
    # the tolerance and precision check_law gives each nu at tol 1e-10, 160 bits
    tol = mpf("1e-10") / (16 * k)
    nus = list(range(1, k + 1))
    for _, _, z in standard_grid(1):  # z = 1, 4/5 + i/5 and 1/2
        band = mordell_band(k, nus, z, tol, prec=176)
        assert len(band) == k
        for nu, v in zip(nus, band):
            assert abs(v - mordell_I(k, nu, z, tol, prec=176)) < tol, (k, nu, z)


def test_mordell_band_validation():
    tol = mpf("1e-10")
    assert mordell_band(3, [], 1, tol, prec=110) == []
    with pytest.raises(ValueError):
        mordell_band(2, [1, 2], mpc(-1, 1), tol, prec=110)
    with pytest.raises(ValueError):
        mordell_band(2, [1, 2], 0, tol, prec=110)
    # a path that crosses the pole lines of 1/cosh with a real part of 2^-80
    # passes within ~2^-80 of a pole
    with workprec(110):
        z = mpc(mpf(2) ** -80, 1)
    with pytest.raises(ValueError, match="pole"):
        mordell_band(2, [1, 2], z, tol, prec=110)


def test_cosh_floor_positive():
    for (k, nu) in ((1, 1), (12, 6), (12, 12), (25, 13)):
        with workprec(80):
            assert cosh_path_floor(k, nu, mpf(1), 80) > 0
            assert cosh_path_floor(k, nu, mpc(1, mpf(1) / 3), 80) > 0


def _scanned_cosh_min(k, nu, z):
    """min over real x of |cosh(i beta0 - pi z x/k)|: a 4001-point grid over
    the x where |sinh(Re)| <= sinh(4), then a ternary search in every grid
    local minimum."""
    beta0 = math.pi * (6 * nu - 1) / (6 * k)

    def f(x):
        return abs(cmath.cosh(1j * beta0 - math.pi * z * x / k))

    half = 4 * k / (math.pi * z.real)
    xs = [-half + 2 * half * i / 4000 for i in range(4001)]
    vals = [f(x) for x in xs]
    best = min(vals)
    for i in range(1, 4000):
        if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]:
            lo, hi = xs[i - 1], xs[i + 1]
            for _ in range(60):
                m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
                lo, hi = (lo, m2) if f(m1) < f(m2) else (m1, hi)
            best = min(best, f((lo + hi) / 2))
    return best


@pytest.mark.parametrize("z", [0.8 + 0.2j, 0.5 + 0.5j, 1 + 1j, 0.25 + 1j, 1 + 0.05j, 0.6 - 0.4j])
def test_cosh_floor_is_a_tight_lower_bound_for_complex_z(z):
    for k in range(1, 13):
        for nu in range(1, k + 1):
            floor = float(cosh_path_floor(k, nu, mpc(z.real, z.imag), 64))
            scanned = _scanned_cosh_min(k, nu, z)
            assert floor <= scanned <= 2 * floor, (k, nu, z, floor, scanned)


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
        Jstar(Fraction(0), 1, 1, 1, mpf("1e-10"), prec=PREC)
    with pytest.raises(ValueError):
        Jstar(Fraction(-1, 12), 1, 1, 1, mpf("1e-10"), prec=PREC)


def test_gap_representation_matches_direct_difference():
    # at moderate z the catastrophic cancellation is affordable, so the two
    # routes to J - Jstar can be compared directly
    b = Fraction(5, 12)
    for (k, nu) in ((1, 1), (2, 1)):
        direct = (J(b, k, nu, mpf("0.1"), mpf("1e-28"), prec=260)
                  - Jstar(b, k, nu, mpf("0.1"), mpf("1e-28"), prec=260))
        tail = J_gap(b, k, nu, mpf("0.1"), mpf("1e-28"), prec=260)
        assert abs(direct - tail) < mpf("1e-20"), (k, nu)


TRUNCATED_GRID = [(b, k, nu) for b in (Fraction(5, 12), Fraction(1, 24))
                  for k, nu in ((1, 1), (2, 1), (5, 2), (7, 3))]


@pytest.mark.parametrize("b, k, nu", TRUNCATED_GRID, ids=str)
def test_truncated_bands_match_pointwise_references(b, k, nu):
    # Jstar at real z takes the kernel's real loop and at complex z its
    # complex one; J_gap sums two tails along z -> 0
    tol = mpf("1e-20")
    for z in (mpf(1) / 2, mpf("0.1"), mpc("0.8", "0.2"), mpc("0.5", "0.5")):
        v = Jstar(b, k, nu, z, tol, prec=96)
        assert isinstance(v, mpc) == bool(z.imag)
        assert abs(v - Jstar_pointwise(b, k, nu, z, tol, prec=96)) < tol, z
    for z in ("0.1", "0.01", "0.001", "1e-4"):
        v = J_gap(b, k, nu, mpf(z), tol, prec=96)
        assert abs(v - J_gap_pointwise(b, k, nu, mpf(z), tol, prec=96)) < tol, z


def test_J_gap_rejects_complex_and_nonpositive_z():
    with pytest.raises(ValueError, match="J_gap needs real z > 0"):
        J_gap(Fraction(5, 12), 1, 1, mpc(1, 1), mpf("1e-10"), prec=PREC)
    with pytest.raises(ValueError, match="Re z must be positive"):
        J_gap(Fraction(5, 12), 1, 1, 0, mpf("1e-10"), prec=PREC)


def test_truncated_and_contour_panel_counts(monkeypatch):
    # work pins: a later change may lower these counts, not raise them
    import circleforge.integrals as integrals

    real_driver = integrals.quad_panels
    panels = []

    def counted(*args, **kwargs):
        res = real_driver(*args, **kwargs)
        panels.append(res.subdivisions)
        return res

    monkeypatch.setattr(integrals, "quad_panels", counted)
    L_contour(2, 3, mpf(1) / 4, 8, mpf("1e-12"), prec=90)
    assert sum(panels) <= 20
    panels.clear()
    J_gap(Fraction(5, 12), 2, 1, mpf("0.01"), mpf("1e-16"), prec=140)
    assert sum(panels) <= 6


@pytest.mark.parametrize("band", [
    pytest.param(lambda: mordell_band(5, [1, 2, 3, 4, 5], mpf(1) / 2, mpf("1e-30"), prec=120),
                 id="mordell-real-z"),
    pytest.param(lambda: mordell_band(5, [1, 2, 3, 4, 5], mpc("0.8", "0.2"), mpf("1e-30"),
                                      prec=120), id="mordell-complex-z"),
    pytest.param(lambda: J_gap(Fraction(5, 12), 2, 1, mpf("0.01"), mpf("1e-16"), prec=140),
                 id="J_gap-tails"),
])
def test_cosh_band_weighs_each_mirrored_node_once(monkeypatch, band):
    # the domain is symmetric and its ends are negated exactly, whatever the
    # global precision, so the nodes at x and -x are exact negatives: the real
    # loop folds or reuses them, the complex loop shares one entry of its memo
    import circleforge.integrals as integrals

    real_band, real_driver = integrals._cosh_band, integrals.quad_panels
    nodes, weighed = [0], [0]

    def counted_driver(panel_sums, *args, **kwargs):
        def counted_sums(x0, x1, npts):
            nodes[0] += npts
            return panel_sums(x0, x1, npts)

        return real_driver(counted_sums, *args, **kwargs)

    def counted_band(k, nus, u, weight, *rest):
        def counted_weight(ax):
            weighed[0] += 1
            return weight(ax)

        return real_band(k, nus, u, counted_weight, *rest)

    monkeypatch.setattr(integrals, "quad_panels", counted_driver)
    monkeypatch.setattr(integrals, "_cosh_band", counted_band)
    with workprec(53):
        band()
    assert 0 < 2 * weighed[0] <= nodes[0] + 1


def test_real_cosh_band_exp_pin(monkeypatch):
    # work pin: one exp per distinct |x| for the Gaussian and one for cosh/sinh;
    # a later change may lower it, never raise it
    import circleforge.integrals as integrals

    calls = [0]
    real_exp = integrals._exp_fixed

    def counted(t, F):
        calls[0] += 1
        return real_exp(t, F)

    monkeypatch.setattr(integrals, "_exp_fixed", counted)
    mordell_band(5, [1, 2, 3, 4, 5], mpf(1) / 2, mpf("1e-30"), prec=120)
    assert calls[0] == 1540


def test_panel_nodes_of_the_mirror_panel_are_exact_negatives():
    # mid = 2/3 is not dyadic and carries more bits than F = 150, so flooring it
    # would shift the nodes of the mirror panel by 1 ulp
    from circleforge.integrals import _panel_nodes

    with workprec(200):
        a, b = mpf(1) / 3, mpf(1)
        rad, nodes = _panel_nodes(a, b, 13, 150)
        mirror_rad, mirror_nodes = _panel_nodes(-b, -a, 13, 150)
    assert mirror_rad == rad
    assert mirror_nodes == [(-x, w) for x, w in reversed(nodes)]


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
        script_I(Fraction(-1, 12), 1, 1, 4, mpf("1e-10"), prec=PREC)
    with pytest.raises(ValueError):
        script_I(Fraction(5, 12), 1, 1, 0, mpf("1e-10"), prec=PREC)


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


@pytest.mark.parametrize("b, k", [(Fraction(1, 24), 41), (Fraction(5, 12), 42)])
def test_script_I_band_matches_per_nu_at_guard_bit_edge(b, k):
    # the largest k of the default kmax at n = 1000, where cos^2 beta_nu is
    # smallest and the fixed-point guard bits are tightest
    n = 1000
    prec = default_precision(n)
    tol = mpf("1e-12") / (4 * k)
    nus = list(range(1, k + 1))
    band = script_I_band(b, k, nus, n, tol, prec=prec)
    for nu, v in zip(nus, band):
        assert abs(v - script_I(b, k, nu, n, tol, prec=prec)) < tol, (b, k, nu)


@pytest.mark.parametrize("b, k", [(Fraction(1, 24), 1), (Fraction(5, 12), 2)])
def test_bessel_factor_matches_bessel_i1(b, k):
    # the band's fixed-point polynomial against the mpf series at n = 1000
    n = 1000
    prec = default_precision(n)
    quad_prec = prec + 16
    with workprec(quad_prec + 32):
        c = 2 * mpmath.pi / k * mpmath.sqrt(mpf(2 * b.numerator * n) / b.denominator)
    degree = bessel_factor_degree(c, quad_prec)
    F = quad_prec + _band_guard_bits(k, degree)
    factor = BesselFactor(c, degree, F)
    for s in (mpf(2) ** -40, mpf("0.3"), mpf(1)):
        s_fixed = to_fixed(s._mpf_, F)
        with workprec(F + 32):
            s_exact = mpf(s_fixed) / 2 ** F
            got = mpf(factor(s_fixed)) / 2 ** F
            want = mpmath.sqrt(s_exact) * bessel_i_series(2, c * mpmath.sqrt(s_exact), F + 32)
            assert abs(got - want) < want * mpf(2) ** -prec, (k, s)


# frozen from quad_finite before the bisection loop moved into quad_panels,
# with the tolerances built at this module's precision (they set mordell_I's cut)
RUNGE_VALUE = "0.5493603067780063443445087705779847323422"
RUNGE_ERROR = "4.974666929919458138349170795763906233665e-27"
MORDELL_2_1_HALF = ("2.487614051225872901619480632203484539007",
                    "1.869530947138152181843835044349019558032e-46")


def test_quad_finite_bit_identical_after_driver_refactor():
    r = quad_finite(lambda x: 1 / (1 + 25 * x * x), -1, 1, mpf("1e-20"), prec=110)
    v = mordell_I(2, 1, mpf(1) / 2, mpf("1e-24"), prec=110)
    with workprec(110):
        assert r.value == mpf(RUNGE_VALUE)
        assert r.abs_error_estimate == mpf(RUNGE_ERROR)
        assert r.subdivisions == 11
        assert v == mpc(*MORDELL_2_1_HALF)


def test_bands_check_tol_against_their_precision(monkeypatch):
    import circleforge.integrals as integrals

    # a band value is computed at prec + 16 bits, so a tol below its rounding
    # cannot be met: script_I_band, the Mordell bands at real and complex z,
    # Jstar at real z and the summed tails of J_gap raise ...
    tol = mpf("1e-40")
    with workprec(96):
        z = mpc(mpf(4) / 5, mpf(1) / 5)
    with pytest.raises(ArithmeticError, match="precision too low"):
        script_I_band(Fraction(1, 24), 3, [1, 2, 3], 4, tol, prec=96)
    for w in (mpf(1) / 2, z):
        with pytest.raises(ArithmeticError, match="precision too low"):
            mordell_band(3, [1, 2, 3], w, tol, prec=96)
    for truncated in (Jstar, J_gap):
        with pytest.raises(ArithmeticError, match="precision too low"):
            truncated(Fraction(5, 12), 3, 2, mpf(1) / 2, tol, prec=96)
    # ... L_contour, whose edges are not mirrored node for node, checks its
    # imaginary residue, and the real skew of an edge turns imaginary after
    # the factor 1/(2 pi i) ...
    real_driver = integrals.quad_panels

    def skewed(*args, **kwargs):
        res = real_driver(*args, **kwargs)
        res.value[-1] += mpc("1e-6", "1e-6")
        return res

    monkeypatch.setattr(integrals, "quad_panels", skewed)
    with pytest.raises(ArithmeticError, match="symmetry violation"):
        L_contour(2, 3, mpf(1) / 4, 8, mpf("1e-12"), prec=90)
    # ... and at complex z, where there is no symmetry, stay complex
    assert all(isinstance(v, mpc) for v in mordell_band(3, [1, 2, 3], z, mpf("1e-12"), prec=96))


@pytest.mark.parametrize("band", [
    pytest.param(lambda: script_I_band(Fraction(5, 12), 2, [1, 2], 55, mpf("1e-12"), prec=110),
                 id="script_I"),
    pytest.param(lambda: mordell_band(5, [1, 2, 3, 4, 5], mpf(1) / 2, mpf("1e-30"), prec=120),
                 id="mordell-real-z"),
    pytest.param(lambda: J_gap(Fraction(5, 12), 2, 1, mpf("0.01"), mpf("1e-16"), prec=140),
                 id="J_gap-tails"),
])
def test_real_loop_sums_are_real_and_shared_by_mirror_panels(monkeypatch, band):
    # the real loop keeps only real sums, and a panel whose mirror was summed
    # before returns the mirror's sums themselves
    import circleforge.integrals as integrals

    real_driver = integrals.quad_panels
    seen = {}

    def recording_driver(panel_sums, *args, **kwargs):
        def recorded(x0, x1, npts):
            seen[x0, x1, npts] = panel_sums(x0, x1, npts)
            return seen[x0, x1, npts]

        return real_driver(recorded, *args, **kwargs)

    monkeypatch.setattr(integrals, "quad_panels", recording_driver)
    band()
    assert all(type(v) is mpf for sums in seen.values() for v in sums)
    mirrored = [((x0, x1, npts), (-x1, -x0, npts)) for x0, x1, npts in seen
                if x0 >= 0 and (-x1, -x0, npts) in seen]
    assert mirrored
    assert all(seen[panel] is seen[twin] for panel, twin in mirrored)


def test_script_I_band_validation():
    with pytest.raises(ValueError):
        script_I_band(Fraction(-1, 12), 1, [1], 4, mpf("1e-10"), prec=PREC)
    with pytest.raises(ValueError):
        script_I_band(Fraction(5, 12), 1, [1], 0, mpf("1e-10"), prec=PREC)


def test_L_closed_trivials():
    assert L_closed(3, 5, 0, 80) == 0
    with workprec(100):
        expected = bessel_i_series(2, 4 * mpmath.pi, 100)
        assert abs(L_closed(1, 1, 1, 100) - expected) < mpf("1e-25")


def test_L_contour_matches_closed():
    tol = mpf("1e-12")
    for (k, n, y, N) in ((2, 3, mpf(1) / 4, 8), (1, 2, mpf(5) / 24, 4), (3, 7, mpf("0.15"), 16)):
        closed = L_closed(k, n, y, 90)
        contour = L_contour(k, n, y, N, tol, prec=90)
        assert abs(contour - closed) < abs(closed) * mpf("1e-10"), (k, n, y, N)
        assert isinstance(contour, mpf)
        assert abs(contour - L_contour_pointwise(k, n, y, N, tol, prec=90)) < tol, (k, n, y, N)


def test_L_contour_degenerate():
    with pytest.raises(ValueError):
        L_contour(1, 1, mpf(1) / 4, 0, mpf("1e-8"), prec=PREC)


def test_mordell_params_validation():
    with pytest.raises(ValueError, match="k must be positive"):
        mordell_I(0, 1, 1, mpf("1e-10"), prec=PREC)
    with pytest.raises(ValueError, match="k must be positive"):
        mordell_band(0, [1], 1, mpf("1e-10"), prec=PREC)
    with pytest.raises(ValueError, match="k must be positive"):
        script_I_band(Fraction(5, 12), 0, [1], 4, mpf("1e-10"), prec=PREC)
