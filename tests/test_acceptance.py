"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete; the whole suite takes a few minutes.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf, workprec

from circleforge.integrals import J, J_gap, L_closed, L_contour
from circleforge.kloosterman import KloostermanSpec, modified_K, rewritten_classical_form
from circleforge.modular import multiplier_identity_check
from circleforge.qseries import enumerate_p1bar, named_series
from circleforge.rademacher import (
    p1bar_asymptotic,
    p1bar_dominant,
    p1bar_exact,
    p_rademacher,
)
from circleforge.transform import check_law, law_applicable, standard_grid

PREC = 256


@pytest.fixture(autouse=True, scope="module")
def _module_precision():
    with workprec(PREC):
        yield


def _report(criterion, ok, detail=""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_oracle_equivalence():
    g1 = named_series("G1", 30)
    ok = g1.coefficient(4) == enumerate_p1bar(4) == 12
    mismatches = [n for n in range(31) if g1.coefficient(n) != enumerate_p1bar(n)]
    _report(
        "1 oracle equivalence n<=30",
        ok and not mismatches,
        f"p1bar(4)={g1.coefficient(4)}, mismatches={mismatches}",
    )


def test_criterion_02_exact_formula_integrality():
    g1 = named_series("G1", 50)
    worst = mpf(0)
    ok = True
    for n in (1, 4, 10, 25, 50):
        res = p1bar_exact(n, kmax=15, tol=mpf("1e-12"))
        target = g1.coefficient(n)
        ok &= abs(res.value - target) < mpf("0.5") and res.rounded == target
        worst = max(worst, abs(res.value - target))
    _report("2 exact formula n in {1,4,10,25,50}, K=15", ok, f"max |value-p1bar| = {mpmath.nstr(worst, 4)}")


def test_criterion_03_rademacher_partition_formula():
    p_series = named_series("P", 200)
    worst = mpf(0)
    bad = []
    for n in range(1, 201):
        res = p_rademacher(n)
        if res.rounded != p_series.coefficient(n):
            bad.append(n)
        worst = max(worst, res.distance_to_integer)
    _report(
        "3 p(n) rounds correctly for n<=200 with max dist < 0.25",
        not bad and worst < mpf("0.25"),
        f"max distance {mpmath.nstr(worst, 4)}, mismatches {bad}",
    )


def test_criterion_04_kloosterman_identities():
    ok = True
    for k in range(2, 51):
        if math.gcd(4, k) != 2:
            continue
        for n in range(11):
            for m in range(11):
                a = modified_K(KloostermanSpec("modified", k, n, m, d=2, j=1))
                b = modified_K(KloostermanSpec("modified", k, n, m, d=2, j=3))
                if not a.equals(-b):
                    ok = False
    published = True
    for n in range(21):
        v0 = complex(modified_K(KloostermanSpec("modified", 2, n, d=2, j=2, nu=0)).value(64))
        v1 = complex(modified_K(KloostermanSpec("modified", 2, n, d=2, j=2, nu=1)).value(64))
        v2 = complex(modified_K(KloostermanSpec("modified", 2, n, d=2, j=2, nu=2)).value(64))
        published &= abs(v0 - (-1) ** n) < 1e-12
        published &= abs(v1 - (-1) ** (n + 1)) < 1e-12
        published &= abs(v2 + v0) < 1e-12  # class of 0 at representative 2 flips sign
    _report(
        "4 sign identity K21=-K23 (k<=50) and K2_22 evaluations",
        ok and published,
    )


def test_criterion_05_dual_path_equality():
    checked = 0
    ok = True
    for d, ks in ((4, range(4, 41, 4)),
                  (2, range(2, 41, 4)),
                  (1, [k for k in range(1, 41) if k % 2 == 1])):
        for k in ks:
            for j in (1, 2, 3):
                nus = (1, k // 2 + 1, k) if j == 2 else (None,)
                for nu in nus:
                    for n in range(0, 11, 2):
                        for m in range(0, 11, 2):
                            spec = KloostermanSpec("modified", k, n, m, d=d, j=j, nu=nu)
                            if not modified_K(spec).equals(rewritten_classical_form(spec)):
                                ok = False
                            checked += 1
    _report("5 dual-path Kloosterman equality k<=40", ok, f"{checked} pairs")


def test_criterion_06_multiplier_identity():
    ok = True
    count = 0
    for k in range(2, 51):
        if math.gcd(4, k) != 2:
            continue
        for h in range(k):
            if math.gcd(h, k) == 1:
                holds, _, _ = multiplier_identity_check(h, k)
                ok &= holds
                count += 1
    _report("6 multiplier identity gcd(4,k)=2, k<=50", ok, f"{count} pairs, exact")


def test_criterion_07_residue_identity():
    ys = [mpf(5) / 24, mpf(5) / 24 * (1 - mpf(1) / 4)]
    worst = mpf(0)
    ok = True
    for k in range(1, 6):
        for n in range(1, 11):
            for y in ys:
                for N in (4, 8, 16):
                    closed = L_closed(k, n, y, 90)
                    contour = L_contour(k, n, y, N, mpf("1e-11"), prec=90)
                    rel = abs(contour - closed) / closed
                    worst = max(worst, rel)
                    ok &= rel < mpf("1e-8")
    _report("7 residue identity L_contour == L_closed", ok, f"max rel err {mpmath.nstr(worst, 3)}")


def test_criterion_08_transformation_laws():
    ok = True
    worst = mpf(0)
    checked = 0
    for law in ("P_law", "xi_gcd4", "xi_gcd2", "xi_gcd1", "g2_gcd4", "g2_gcd2",
                "g2_gcd1", "f_even", "f_odd"):
        for (h, k, z) in standard_grid(12):
            if not law_applicable(law, h, k):
                continue
            chk = check_law(law, h, k, z, tol=1e-10, prec=PREC)
            ok &= chk.passed
            worst = max(worst, abs(chk.ratio - 1))
            checked += 1
    pr_ok = True
    for r in (2, 3, 4, 6):
        for (h, k, z) in standard_grid(12):
            if not law_applicable("Pr_law", h, k):
                continue
            chk = check_law("Pr_law", h, k, z, tol=1e-10, prec=PREC, r=r)
            pr_ok &= chk.passed and chk.modulus_defect < mpf("1e-10")
            checked += 1
    _report(
        "8 transformation laws on the standard grid",
        ok and pr_ok,
        f"{checked} checks, max |ratio-1| (exact laws) {mpmath.nstr(worst, 3)}",
    )


def test_criterion_09_asymptotics():
    g1 = named_series("G1", 2000)
    with workprec(320):
        r500 = g1.coefficient(500) / p1bar_asymptotic(500, prec=320)
        r2000 = g1.coefficient(2000) / p1bar_asymptotic(2000, prec=320)
        ok = mpf("0.8") < r2000 < mpf("1.25") and abs(r2000 - 1) < abs(r500 - 1)
    _report(
        "9 asymptotic ratio window and trend",
        ok,
        f"ratio(500)={mpmath.nstr(r500, 6)}, ratio(2000)={mpmath.nstr(r2000, 6)}",
    )


def test_criterion_10_dominant_term():
    res = p1bar_exact(100)
    dom = p1bar_dominant(100)
    rel = abs(dom - res.value) / res.value
    _report("10 dominant term within 5% at n=100", rel < mpf("0.05"),
            f"rel gap {mpmath.nstr(rel, 3)}")


def test_criterion_11_principal_part_boundedness():
    zs = [mpf(10) ** -j for j in range(1, 5)]
    ok = True
    detail = []
    for (k, nu) in ((1, 1), (2, 1), (5, 2)):
        for b in (Fraction(5, 12), Fraction(1, 24)):
            gaps = [abs(J_gap(b, k, nu, z, mpf("1e-16"), prec=140)) for z in zs]
            bound = max(gaps)
            ok &= bound < 100
            # recorded constants stay of one scale as z shrinks: the last
            # value must not dwarf the first
            ok &= gaps[-1] < 100 * (gaps[0] + mpf("1e-30"))
            detail.append(f"(k={k},nu={nu},b={b}): max {mpmath.nstr(bound, 3)}")
        mags = [abs(J(Fraction(-1, 12), k, nu, z, mpf("1e-16"), prec=140)) for z in zs]
        ok &= max(mags) < 100 and all(x >= y - mpf("1e-30") for x, y in zip(mags, mags[1:]))
    _report("11 principal-part truncation stays bounded as z -> 0", ok,
            "; ".join(detail[:3]) + " ...")
