"""Exact q-series arithmetic against small hand expansions and the
combinatorial enumeration oracle."""

from fractions import Fraction

import pytest

from circleforge.qseries import (
    TruncatedSeries,
    check_ramanujan_relation,
    enumerate_p1bar,
    named_series,
    pochhammer_inf,
)
from reference import Overpartition, all_overpartitions


def test_invert_geometric():
    s = TruncatedSeries([1, -1, 0, 0])
    assert s.inverse().coeffs == [1, 1, 1, 1]


def test_mul_difference_of_squares():
    a = TruncatedSeries([1, 1, 0])
    b = TruncatedSeries([1, -1, 0])
    assert (a * b).coeffs == [1, 0, -1]


def test_invert_requires_unit():
    with pytest.raises(ValueError, match="not invertible"):
        TruncatedSeries([2, 1, 1]).inverse()


def test_arithmetic_never_extends_order():
    a = TruncatedSeries([1, 1], 1)
    b = TruncatedSeries([1, 1, 1, 1], 3)
    assert (a * b).order == 1
    assert (a + b).order == 1


def test_pochhammer_euler_pentagonal():
    # (q;q)_inf = 1 - q - q^2 + q^5 + q^7 - ... by direct multiplication
    assert pochhammer_inf(1, 1, 1, 5).coeffs == [1, -1, -1, 0, 0, 1]
    assert pochhammer_inf(1, 1, 1, 12).coeffs == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def test_pochhammer_small():
    assert pochhammer_inf(-1, 1, 1, 2).coeffs == [1, 1, 1]
    assert pochhammer_inf(1, 1, 1, 0).coeffs == [1]
    with pytest.raises(ValueError):
        pochhammer_inf(2, 1, 1, 3)
    with pytest.raises(ValueError):
        pochhammer_inf(1, 0, 1, 3)


def test_g1_counts_match_example():
    g1 = named_series("G1", 10)
    assert g1.coefficient(4) == 12
    assert g1.coeffs[:5] == [1, 2, 4, 6, 12]


def test_constant_terms():
    for name in ("P", "Pbar", "f", "phi", "omega_mock", "xi", "G1", "G1bar"):
        assert named_series(name, 6).coefficient(0) == 1, name
    # the two halves of the decomposition each carry the global factor 1/2
    assert named_series("g1", 6).coefficient(0) == Fraction(1, 2)
    assert named_series("g2", 6).coefficient(0) == Fraction(1, 2)


def test_unknown_series_tag():
    with pytest.raises(ValueError, match="unknown series"):
        named_series("nope", 4)


def test_g1bar_alternating():
    g1 = named_series("G1", 20)
    g1bar = named_series("G1bar", 20)
    for n in range(21):
        assert g1bar.coefficient(n) == (-1) ** n * g1.coefficient(n)


def test_overpartition_type():
    op = Overpartition([3, 1, 1], {1})
    assert op.total() == 5
    assert op.is_valid_lower_1run()
    assert not Overpartition([2, 1], {2}).is_valid_lower_1run()  # no gap at 1
    assert not Overpartition([2, 1], {2, 1}).is_valid_lower_1run()  # adjacent run
    with pytest.raises(ValueError):
        Overpartition([2], {3})
    assert repr(Overpartition([2, 2], {2})) == "Overpartition(2~+2)"


def test_explicit_enumeration_matches_counting_recursion():
    # third route: materialize every overpartition and filter
    for n in range(13):
        explicit = sum(1 for op in all_overpartitions(n) if op.is_valid_lower_1run())
        assert explicit == enumerate_p1bar(n), n


def test_n4_exact_overlined_set():
    # the seven overlined lower 1-run overpartitions of 4, plus the five
    # plain partitions, give the count 12
    valid = {op for op in all_overpartitions(4) if op.is_valid_lower_1run()}
    overlined = {op for op in valid if op.overlined}
    expected = {
        Overpartition([4], {4}),
        Overpartition([3, 1], {3, 1}),
        Overpartition([3, 1], {3}),
        Overpartition([3, 1], {1}),
        Overpartition([2, 2], {2}),
        Overpartition([2, 1, 1], {1}),
        Overpartition([1, 1, 1, 1], {1}),
    }
    assert overlined == expected
    assert len(valid) == 12


def test_enumeration_small_values():
    assert enumerate_p1bar(0) == 1
    assert [enumerate_p1bar(n) for n in (1, 2, 3)] == [2, 4, 6]
    assert enumerate_p1bar(4) == 12


def test_enumeration_ceiling():
    with pytest.raises(ValueError, match="generating function"):
        enumerate_p1bar(61)
    with pytest.raises(ValueError):
        enumerate_p1bar(-1)


def test_oracle_equivalence_to_30():
    g1 = named_series("G1", 30)
    g1bar = named_series("G1bar", 30)
    for n in range(31):
        count = enumerate_p1bar(n)
        assert g1.coefficient(n) == count
        assert g1bar.coefficient(n) == (-1) ** n * count


def test_decomposition_g1_plus_g2():
    order = 120
    g1bar = named_series("G1bar", order)
    total = named_series("g1", order) + named_series("g2", order)
    for n in range(order + 1):
        assert total.coefficient(n) == g1bar.coefficient(n)


def test_a_is_half_cauchy_product_of_r_and_f():
    order = 60
    a = named_series("g1", order)
    r = named_series("xi", order)
    f = named_series("f", order)
    for n in range(order + 1):
        conv = sum(r.coefficient(i) * f.coefficient(n - i) for i in range(n + 1))
        assert a.coefficient(n) == Fraction(conv, 2)


def test_g1_positive_counting_function():
    g1 = named_series("G1", 200)
    assert all(c > 0 for c in g1.coeffs)


def test_ramanujan_relation_holds_to_200():
    ok, idx = check_ramanujan_relation(200)
    assert ok and idx is None


def test_ramanujan_relation_negative_control():
    # perturbing one f coefficient must be caught with the failing index
    from circleforge import qseries as q

    original = q._mock_theta_f

    def perturbed(order):
        s = original(order)
        coeffs = list(s.coeffs)
        if order >= 7:
            coeffs[7] += 1
        return TruncatedSeries(coeffs, order)

    q._mock_theta_f = perturbed
    try:
        ok, idx = check_ramanujan_relation(20)
    finally:
        q._mock_theta_f = original
    assert not ok and idx == 7


def test_json_export_decimal_strings():
    d = named_series("g1", 4).to_json_dict("g1")
    assert d["name"] == "g1"
    assert d["order"] == 4
    assert d["coeffs"][0] == "0.5"
    assert all(isinstance(c, str) for c in d["coeffs"])
    d2 = named_series("G1", 4).to_json_dict("G1")
    assert d2["coeffs"] == ["1", "2", "4", "6", "12"]


def test_alternate_and_shift():
    s = TruncatedSeries([1, 2, 3, 4])
    assert s.alternate().coeffs == [1, -2, 3, -4]
    assert s.shift(2).coeffs == [0, 0, 1, 2]
