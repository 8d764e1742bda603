"""Every numeric routine works at the precision it is given: its result does
not depend on the global mpmath precision it is called under, and no
source file reads that global."""

import ast
import pathlib
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpc, mpf, workprec

import circleforge
from circleforge.hpnum import quad_finite
from circleforge.integrals import (
    J,
    J_gap,
    Jstar,
    L_contour,
    mordell_band,
    script_I_band,
)
from circleforge.kloosterman import KloostermanSpec, modified_K
from circleforge.rademacher import p1bar_exact
from circleforge.transform import check_law, evaluate_series
from reference import mordell_I, quad_decay, script_I

# inputs are exact binary fractions, so they are the same numbers at any
# global precision
TOL = mpf(2) ** -64
HALF = mpf(1) / 2
B = Fraction(5, 12)

CASES = {
    "quad_finite": lambda: quad_finite(lambda x: 1 / (1 + 25 * x * x), -1, 1, TOL, prec=110),
    "quad_decay": lambda: quad_decay(lambda x: mpmath.exp(-x * x) / mpmath.cosh(x), 1, TOL,
                                     prec=96),
    "mordell_I": lambda: mordell_I(2, 1, mpc(HALF, HALF / 4), TOL, prec=110),
    "mordell_band": lambda: mordell_band(5, [1, 2, 3, 4, 5], mpc(HALF, HALF / 4), TOL, prec=110),
    "J": lambda: J(B, 2, 1, HALF, TOL, prec=110),
    "Jstar": lambda: Jstar(B, 2, 1, HALF, TOL, prec=110),
    "J_gap": lambda: J_gap(B, 2, 1, HALF, TOL, prec=110),
    "script_I": lambda: script_I(B, 2, 1, 4, TOL, prec=110),
    "script_I_band": lambda: script_I_band(Fraction(1, 24), 5, [1, 2, 3, 4, 5], 10, TOL,
                                           prec=110),
    "L_contour": lambda: L_contour(2, 3, HALF / 2, 8, TOL, prec=90),
    "evaluate_series": lambda: evaluate_series("f", mpc(HALF, HALF / 2), TOL, prec=120),
    "check_law": lambda: check_law("f_odd", 2, 5, mpc(HALF, HALF / 4), tol=1e-10, prec=160),
    "modified_K.value": lambda: modified_K(
        KloostermanSpec("modified", 70, 5, 7, d=2, j=2, nu=3)).value(200),
    "p1bar_exact": lambda: p1bar_exact(105),
}


@pytest.mark.parametrize("name", list(CASES))
def test_result_ignores_global_precision(name):
    with workprec(53):
        low = CASES[name]()
    with workprec(320):
        high = CASES[name]()
    assert low == high


def _global_precision_reads(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "prec":
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "mp") or (
                    isinstance(owner, ast.Attribute) and owner.attr == "mp"):
                yield f"{path.name}:{node.lineno}"


def test_no_source_reads_global_precision():
    # the package and the pointwise references its tests compare against
    src = pathlib.Path(circleforge.__file__).parent
    paths = [*sorted(src.glob("*.py")), pathlib.Path(__file__).parent / "reference.py"]
    reads = [hit for path in paths for hit in _global_precision_reads(path)]
    assert reads == []
