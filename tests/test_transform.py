"""Transformation-law checks at selected points of the standard grid (the
full grid runs in the acceptance suite)."""

import math

import mpmath
import pytest
from mpmath import mpc, mpf, workprec

from circleforge.qseries import named_series
from circleforge.transform import (
    check_law,
    evaluate_series,
    standard_grid,
)

TOL = 1e-10
PREC = 200


@pytest.fixture(autouse=True, scope="module")
def _module_precision():
    with workprec(PREC):
        yield


def test_evaluate_series_constant():
    assert abs(evaluate_series("P", 0, mpf("1e-20"), prec=80) - 1) < mpf("1e-20")


def test_evaluate_series_at_e_minus_2pi():
    # direct summation oracle at fixed order
    nome = mpmath.exp(-2 * mpmath.pi)
    coeffs = named_series("P", 60).coeffs
    direct = sum(c * nome ** j for j, c in enumerate(coeffs))
    val = evaluate_series("P", nome, mpf("1e-25"), prec=120)
    assert abs(val - direct) < mpf("1e-24")


def test_evaluate_series_domain_and_convergence():
    with pytest.raises(ValueError):
        evaluate_series("P", 1, mpf("1e-10"), prec=PREC)
    for name in ("f", "phi", "omega_mock"):
        v = evaluate_series(name, mpmath.exp(-mpf(1) / 2), mpf("1e-14"), prec=120)
        assert mpmath.isfinite(v)


def _direct_sum(name, nome, order, prec):
    with workprec(prec):
        total, power = mpc(0), mpc(1)
        for c in named_series(name, order).coeffs:
            total += mpf(c.numerator) / c.denominator * power
            power *= nome
        return total


def _converged_direct_sum(name, nome, tol, prec):
    """The direct sum at the order where evaluate_series's doubling rule stops."""
    order, prev = 64, None
    while True:
        value = _direct_sum(name, nome, order, prec)
        if prev is not None and abs(value - prev) <= tol * max(1, abs(value)):
            return value
        prev, order = value, 2 * order


# the nomes of the k = 12, z = 1/2 grid points: |q| = e^(-pi/12) ~ 0.77
with workprec(PREC):
    NOMES_077 = (mpmath.exp(-mpmath.pi / 12), mpmath.exp(2j * mpmath.pi * (5 + 0.5j) / 12))


@pytest.mark.parametrize("name", ["P", "xi", "g2", "f", "omega_mock"])
@pytest.mark.parametrize("nome", NOMES_077, ids=["real", "complex"])
def test_evaluate_series_matches_direct_sum(name, nome):
    # g2's coefficients are Fractions; the integer sum scales them by 2
    tol, prec = mpf("1e-15"), 160
    value = evaluate_series(name, nome, tol, prec=prec)
    direct = _converged_direct_sum(name, nome, tol, prec + 64)
    assert abs(value - direct) < tol
    assert abs(value - direct) < mpf(2) ** -(prec - 8) * max(1, abs(direct))


def test_f_even_band_panel_pin(monkeypatch):
    # deterministic work count of the Mordell band at k = 12; a later change
    # may lower it, never raise it
    import circleforge.integrals as integrals

    panels = []
    real_panels = integrals.quad_panels

    def counted(*args, **kwargs):
        res = real_panels(*args, **kwargs)
        panels.append(res.subdivisions)
        return res

    monkeypatch.setattr(integrals, "quad_panels", counted)
    assert check_law("f_even", 1, 12, mpf(1) / 2, prec=160).passed
    assert panels == [11]


def test_mordell_band_panels_converge_on_grid(monkeypatch):
    # every f-law point of standard_grid(12) at the 160 bits of perfbench's
    # `laws` workload: no band panel is accepted only at the width floor
    import circleforge.integrals as integrals

    unconverged = []
    real_panels = integrals.quad_panels

    def recorded(*args, **kwargs):
        res = real_panels(*args, **kwargs)
        unconverged.append(res.unconverged)
        return res

    monkeypatch.setattr(integrals, "quad_panels", recorded)
    for h, k, z in standard_grid(12):
        law = "f_even" if k % 2 == 0 else "f_odd"
        assert check_law(law, h, k, z, tol=TOL, prec=160).passed, (law, h, k, z)
    assert len(unconverged) == len(standard_grid(12))
    assert not any(unconverged)


def test_p_law_fixed_point():
    chk = check_law("P_law", 0, 1, 1, tol=TOL, prec=PREC)
    assert chk.passed
    assert abs(chk.ratio - 1) < mpf("1e-30")


def test_p_law_points():
    for (h, k, z) in ((1, 2, mpf(4) / 5), (1, 3, 1), (2, 5, mpc("0.8", "0.2")), (5, 12, mpf(1) / 2)):
        chk = check_law("P_law", h, k, z, tol=TOL, prec=PREC)
        assert chk.passed, (h, k, z)


def test_pr_law_quantized():
    for r in (2, 3, 4, 6):
        chk = check_law("Pr_law", 1, 3, 1, tol=TOL, prec=PREC, r=r)
        assert chk.passed, r
        assert chk.modulus_defect < TOL


def test_xi_laws_one_point_per_class():
    assert check_law("xi_gcd4", 3, 4, 1, tol=TOL, prec=PREC).passed
    assert check_law("xi_gcd2", 5, 6, mpc("0.8", "0.2"), tol=TOL, prec=PREC).passed
    assert check_law("xi_gcd1", 2, 5, mpf(1) / 2, tol=TOL, prec=PREC).passed


def test_g2_laws_one_point_per_class():
    assert check_law("g2_gcd4", 1, 8, 1, tol=TOL, prec=PREC).passed
    assert check_law("g2_gcd2", 1, 2, mpf(1) / 2, tol=TOL, prec=PREC).passed
    assert check_law("g2_gcd1", 2, 5, 1, tol=TOL, prec=PREC).passed


def test_f_laws_one_point_per_parity():
    assert check_law("f_even", 1, 2, 1, tol=TOL, prec=PREC).passed
    assert check_law("f_even", 3, 4, 1, tol=TOL, prec=PREC).passed
    assert check_law("f_odd", 1, 3, 1, tol=TOL, prec=PREC).passed
    assert check_law("f_odd", 2, 5, mpc("0.7", "0.3"), tol=TOL, prec=PREC).passed


def test_zeta_defects_recorded():
    # at (2,5) the quarter-power nome deviates from the frame by -1
    chk = check_law("g2_gcd1", 2, 5, 1, tol=TOL, prec=PREC)
    assert chk.passed
    assert chk.zeta_defects["nome_q4"] != 0
    # at (1,3) all printed factors coincide with the frame
    chk = check_law("xi_gcd1", 1, 3, 1, tol=TOL, prec=PREC)
    assert chk.passed
    assert all(t == 0 for t in chk.zeta_defects.values())


def test_exponential_factor_regime_small_z():
    # the growing factors e^(5pi/12kz), e^(pi/2kz) dominate at z = 1/10
    assert check_law("xi_gcd2", 1, 2, mpf(1) / 10, tol=TOL, prec=PREC).passed
    assert check_law("g2_gcd2", 1, 2, mpf(1) / 10, tol=TOL, prec=PREC).passed


def test_law_applicability_errors():
    with pytest.raises(ValueError):
        check_law("xi_gcd4", 1, 3, 1, prec=PREC)
    with pytest.raises(ValueError):
        check_law("f_even", 1, 3, 1, prec=PREC)
    with pytest.raises(ValueError):
        check_law("nope", 1, 3, 1, prec=PREC)
    with pytest.raises(ValueError):
        check_law("P_law", 1, 3, mpc(-1, 1), prec=PREC)


def test_standard_grid_shape():
    grid = standard_grid(12)
    ks = {k for (_, k, _) in grid}
    assert ks == set(range(1, 13))
    assert {k % 4 for k in ks} == {0, 1, 2, 3}
    per_point = {(h, k) for (h, k, _) in grid}
    assert all(math.gcd(h, k) == 1 for h, k in per_point)
    assert len(grid) == 3 * len(per_point)


def test_law_row_prints_ratio_and_phase_to_decimals_of_tol():
    # 4 decimals past the leading digit of tol: noise far below tol prints
    # as 0, a deviation near tol keeps its digits
    chk = check_law("P_law", 1, 2, mpc("0.8", "0.2"), tol=TOL, prec=160)
    row = chk.to_json_dict()
    assert row["ratio"] == "(1.00000000000000 + 0.00000000000000j)"
    assert row["modulus_defect"] == "0.00000000000000"
    assert row["phase"] == "0.00000000000000"
    chk.ratio, chk.phase = mpc("0.99999999997", "-2.3456e-11"), mpf("-2.3456e-11")
    chk.modulus_defect = mpf("3e-11")
    chk.tol = 3e-10
    row = chk.to_json_dict()
    assert row["ratio"] == "(0.99999999997000 - 0.00000000002346j)"
    assert row["modulus_defect"] == "0.00000000003000"
    assert row["phase"] == "-0.00000000002346"
    chk.ratio, chk.modulus_defect, chk.phase = mpc(1), mpf(0), mpf(0)
    for tol in (1e4, 1e5):
        chk.tol = tol
        row = chk.to_json_dict()
        assert (row["ratio"], row["modulus_defect"], row["phase"]) == ("(1.0 + 0.0j)", "0.0", "0.0")
