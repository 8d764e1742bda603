"""Kloosterman sums: brute-force cross-checks, exact identities between the
direct multiplier evaluation and the classical rewrites, and the published
small evaluations."""

import cmath
import math
from fractions import Fraction

import mpmath
import pytest

from circleforge.kloosterman import (
    A_k,
    KloostermanSpec,
    SumValue,
    bound_ratio,
    classical_K,
    incomplete_K,
    modified_K,
    rewritten_classical_form,
)
from circleforge.modular import farey_neighbors, strengthened_inverse


def _brute_classical(k, n, m):
    total = 0
    for h in range(k) if k > 1 else [0]:
        if math.gcd(h, k) != 1:
            continue
        hp = (-pow(h, -1, k)) % k if k > 1 else 0
        total += cmath.exp(-2j * cmath.pi * (n * h - m * hp) / k)
    return total


def test_classical_trivial():
    assert complex(classical_K(1, 5, 3).value(64)) == pytest.approx(1)
    assert complex(classical_K(2, 0, 0).value(64)) == pytest.approx(1)


def test_classical_brute_force():
    for (k, n, m) in ((5, 1, 1), (7, 2, 3), (12, 4, 5), (9, 0, 2)):
        exact = complex(classical_K(k, n, m).value(96))
        brute = _brute_classical(k, n, m)
        assert exact == pytest.approx(brute, abs=1e-12)


def test_classical_conjugation():
    for (k, n, m) in ((5, 1, 1), (8, 3, 2), (11, 7, 4)):
        assert classical_K(k, n, m).equals(classical_K(k, -n, -m).conjugate())


def test_incomplete_vacuous_equals_classical():
    # ell = N + k + 1 admits every h
    for (k, N) in ((5, 6), (4, 7)):
        full = classical_K(k, 1, 0)
        assert incomplete_K(k, N + k + 1, N, 1, 0).equals(full)


def test_incomplete_empty():
    # k=4, N=5: admissible k1 values give k+k1 in {7, 9}, so ell=6 excludes all
    sv = incomplete_K(4, 6, 5, 1, 0)
    assert sv.term_count == 0
    assert sv.is_zero()


def test_incomplete_brute_force():
    k, N, ell, n, m = 5, 6, 8, 1, 0
    total = 0
    for h in range(k):
        if math.gcd(h, k) != 1:
            continue
        if N < k + farey_neighbors(h, k, N).k1 <= ell:
            hp = (-pow(h, -1, k)) % k
            total += cmath.exp(-2j * cmath.pi * (n * h - m * hp) / k)
    assert complex(incomplete_K(k, ell, N, n, m).value(96)) == pytest.approx(total, abs=1e-12)


def test_incomplete_range_validation():
    with pytest.raises(ValueError):
        incomplete_K(5, 20, 6, 1, 0)
    with pytest.raises(ValueError):
        incomplete_K(5, 6, 4, 1, 0)


def test_A_k_basics():
    for n in range(4):
        assert complex(A_k(1, n).value(64)) == pytest.approx(1)
    assert complex(A_k(2, 0).value(64)) == pytest.approx(1)
    assert complex(A_k(2, 1).value(64)) == pytest.approx(-1)
    for (k, n) in ((5, 2), (6, 1), (12, 7)):
        phi = sum(1 for h in range(k) if math.gcd(h, k) == 1)
        assert abs(A_k(k, n).value(96)) <= phi + 1e-12


def test_k2_22_published_values():
    for n in range(21):
        v0 = complex(modified_K(KloostermanSpec("modified", 2, n, d=2, j=2, nu=0)).value(64))
        v1 = complex(modified_K(KloostermanSpec("modified", 2, n, d=2, j=2, nu=1)).value(64))
        assert v0 == pytest.approx((-1) ** n, abs=1e-14)
        assert v1 == pytest.approx((-1) ** (n + 1), abs=1e-14)
        # in the 1..k representative system the class of 0 is represented by
        # 2, and the summand flips sign under nu -> nu + k
        v2 = complex(modified_K(KloostermanSpec("modified", 2, n, d=2, j=2, nu=2)).value(64))
        assert v2 == pytest.approx(-v0, abs=1e-14)


def test_sign_identity_21_vs_23():
    for k in (2, 6, 10):
        for n in range(3):
            for m in range(3):
                a = modified_K(KloostermanSpec("modified", k, n, m, d=2, j=1))
                b = modified_K(KloostermanSpec("modified", k, n, m, d=2, j=3))
                assert a.equals(-b), (k, n, m)


def test_modified_gcd_mismatch():
    with pytest.raises(ValueError):
        KloostermanSpec("modified", 3, 0, d=2, j=1).validate()
    with pytest.raises(ValueError):
        KloostermanSpec("modified", 4, 0, d=4, j=2).validate()  # nu missing


def test_rewrite_shift_example_k4():
    # at k=4 the j=1 shifts evaluate to (2k^2+4k)/16 = 3 and (5k^2-4k)/16 = 4
    spec = KloostermanSpec("modified", 4, 1, 0, d=4, j=1)
    rewritten = rewritten_classical_form(spec)
    direct = -classical_K(4, 1 - 3, 0 - 4)
    assert rewritten.equals(direct)
    assert rewritten.equals(modified_K(spec))


def test_rewrite_43_shifts():
    for k in (4, 8, 12):
        for (n, m) in ((0, 0), (1, 2), (3, 1)):
            spec = KloostermanSpec("modified", k, n, m, d=4, j=3)
            expect = classical_K(k, n + k * k // 8, m - k * k // 16)
            assert rewritten_classical_form(spec).equals(expect)


def test_dual_path_all_classes_small():
    grids = {
        4: (4, 8, 12, 16, 20),
        2: (2, 6, 10, 14, 18),
        1: (1, 3, 5, 7, 9, 15),
    }
    for d, ks in grids.items():
        for k in ks:
            for j in (1, 2, 3):
                nus = (1, k // 2 + 1, k) if j == 2 else (None,)
                for nu in nus:
                    for (n, m) in ((0, 0), (1, 0), (2, 3)):
                        spec = KloostermanSpec("modified", k, n, m, d=d, j=j, nu=nu)
                        assert modified_K(spec).equals(rewritten_classical_form(spec)), \
                            (d, j, k, nu, n, m)


def test_dual_path_incomplete():
    for (d, k) in ((4, 8), (2, 6), (1, 5)):
        N = k + 3
        for ell in (N + 1, N + k - 1):
            spec = KloostermanSpec(
                "modified_incomplete", k, 2, 1, d=d, j=2, nu=1, ell=ell, N=N
            )
            assert modified_K(spec).equals(rewritten_classical_form(spec)), (d, k, ell)


def test_summand_invariance_under_hprime_shift():
    # every h'-dependent factor in the modified sums has period dividing L
    for (d, k) in ((4, 8), (2, 10), (1, 9)):
        for h in range(k):
            if math.gcd(h, k) != 1:
                continue
            si = strengthened_inverse(h, k)
            hp, L = si.hprime, si.modulus
            if d in (2, 4):
                assert Fraction(hp * (2 - 3 * k), 4) % 2 == Fraction((hp + L) * (2 - 3 * k), 4) % 2
                assert Fraction(hp * (-12 + 2), k) % 2 == Fraction((hp + L) * (-12 + 2), k) % 2
                assert Fraction(2 * 3 * hp, k) % 2 == Fraction(2 * 3 * (hp + L), k) % 2
            else:
                inv8 = pow(8, -1, k) if k > 1 else 0
                assert Fraction(6 * inv8 * hp, k) % 2 == Fraction(6 * inv8 * (hp + L), k) % 2
                assert Fraction(4 * inv8 * hp, k) % 2 == Fraction(4 * inv8 * (hp + L), k) % 2


def test_periodicity_in_nu_n_m():
    for (d, k) in ((2, 6), (1, 5), (4, 8)):
        for nu in (1, 2):
            base = modified_K(KloostermanSpec("modified", k, 3, 2, d=d, j=2, nu=nu))
            shift_n = modified_K(KloostermanSpec("modified", k, 3 + k, 2, d=d, j=2, nu=nu))
            shift_m = modified_K(KloostermanSpec("modified", k, 3, 2 + k, d=d, j=2, nu=nu))
            assert base.equals(shift_n)
            assert base.equals(shift_m)
            shifted_nu = modified_K(KloostermanSpec("modified", k, 3, 2, d=d, j=2, nu=nu + k))
            if d == 1:
                assert base.equals(shifted_nu)
            else:
                assert base.equals(-shifted_nu)


def test_bound_ratio():
    assert bound_ratio(classical_K(1, 1, 0), 1, 1, 128) == pytest.approx(1.0)
    for (k, n) in ((5, 2), (20, 3), (50, 7)):
        phi = sum(1 for h in range(k) if math.gcd(h, k) == 1)
        sv = classical_K(k, n, 0)
        assert bound_ratio(sv, k, n, 128) >= 0
        assert abs(sv.value(96)) <= phi + 1e-9


def test_bound_ratio_large_k_finite():
    import math as _math
    for k in (100, 150, 200):
        r = bound_ratio(classical_K(k, 7, 3), k, 7, 128)
        assert _math.isfinite(r) and r >= 0


def test_classical_k101_exact_matches_brute_force():
    k, n, m = 101, 1, 1
    big = classical_K(k, n, m)
    assert big.exact
    assert big.term_count == 100
    with mpmath.workprec(128):
        brute = mpmath.mpc(0)
        for h in range(1, k):
            hp = (-pow(h, -1, k)) % k
            brute += mpmath.expjpi(mpmath.mpf(-2 * (n * h - m * hp)) / k)
        assert abs(big.value(128) - brute) < 1e-30


def test_dual_path_exact_beyond_k64():
    # sums are exact at every k, so the two paths agree exactly past k = 64 too
    specs = []
    for d, ks in ((1, (65, 99)), (2, (70, 98)), (4, (68, 100))):
        for k in ks:
            for j in (1, 2, 3):
                for nu in ((1, k // 3, k) if j == 2 else (None,)):
                    specs.append(KloostermanSpec("modified", k, 5, 7, d=d, j=j, nu=nu))
    specs.append(KloostermanSpec("modified_incomplete", 70, 3, 2, d=2, j=2, nu=5,
                                 ell=100, N=80))
    for spec in specs:
        direct, rewritten = modified_K(spec), rewritten_classical_form(spec)
        assert direct.equals(rewritten), spec
        if not direct.is_zero():
            assert not direct.equals(-rewritten), spec


def test_equals_returns_bool():
    a = classical_K(12, 0, 0)  # the Ramanujan sum c_12(0) = 4
    same_counts = a.equals(classical_K(12, 0, 0))
    # same sum at another modulus: decided by the cyclotomic reduction
    reduced = classical_K(1, 0, 0).equals(SumValue(modulus=2, counts={0: 1}))
    differs = a.equals(classical_K(12, 1, 0))  # c_12(1) = 0
    assert (same_counts, reduced, differs) == (True, True, False)
    assert all(type(x) is bool for x in (same_counts, reduced, differs))


def test_sumvalue_neg_and_zero():
    sv = classical_K(5, 1, 1)
    assert (-(-sv)).equals(sv)
    neg = -sv
    merged = {r: sv.counts.get(r, 0) + neg.counts.get(r, 0) for r in {*sv.counts, *neg.counts}}
    assert SumValue(modulus=sv.modulus, counts=merged).is_zero()
