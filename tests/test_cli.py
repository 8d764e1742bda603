"""Command-line interface: subcommand contracts, exit codes and deterministic
JSON output."""

import json
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from circleforge.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.strip().splitlines() if line.strip()]
    return code, rows


def test_exact_n4(capsys):
    code, rows = run_cli(["exact", "--n", "4"], capsys)
    assert code == 0
    row = rows[0]
    assert row["rounded"] == 12
    assert row["oracle"] == 12
    assert row["match"] is True
    assert row["flagged"] is False
    assert list(row)[-1] == "flagged"


def test_exact_rademacher(capsys):
    code, rows = run_cli(["exact", "--n", "20", "--rademacher"], capsys)
    assert code == 0
    assert rows[0]["rounded"] == 627


def test_enumerate_zero(capsys):
    code, rows = run_cli(["enumerate", "--n", "0"], capsys)
    assert code == 0
    assert rows[0] == {"n": 0, "p1bar": 1}


def test_coeffs_deterministic(capsys):
    code1, _ = run_cli(["coeffs", "--name", "G1bar", "--order", "8"], capsys)
    text1 = None
    code1 = main(["coeffs", "--name", "G1bar", "--order", "8"])
    text1 = capsys.readouterr().out
    code2 = main(["coeffs", "--name", "G1bar", "--order", "8"])
    text2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert text1 == text2
    row = json.loads(text1)
    assert row["coeffs"][:5] == ["1", "-2", "4", "-6", "12"]


def test_asymptotic(capsys):
    code, rows = run_cli(["asymptotic", "--n", "100"], capsys)
    assert code == 0
    assert float(rows[0]["asymptotic"]) > 0


def test_kloosterman_row(capsys):
    code, rows = run_cli(
        ["kloosterman", "--family", "modified", "--d", "2", "--j", "2",
         "--k", "2", "--nu", "1", "--n", "4"],
        capsys,
    )
    assert code == 0
    assert float(rows[0]["re"]) == pytest.approx(-1.0)
    assert "bound_ratio" in rows[0]


def test_kloosterman_zero_sum_row_reads_zero(capsys):
    # A_30(7) is exactly zero
    code, rows = run_cli(["kloosterman", "--family", "A", "--k", "30", "--n", "7"], capsys)
    assert code == 0
    assert (rows[0]["re"], rows[0]["im"], rows[0]["bound_ratio"]) == ("0.0", "0.0", 0.0)


def test_kloosterman_precision_reaches_bound_ratio(capsys, monkeypatch):
    import circleforge.cli as cli

    precs = []
    real_bound_ratio = cli.bound_ratio

    def spy(sum_value, k, n, prec):
        precs.append(prec)
        return real_bound_ratio(sum_value, k, n, prec)

    monkeypatch.setattr(cli, "bound_ratio", spy)
    code, _ = run_cli(["--precision-bits", "300", "kloosterman", "--family", "A",
                       "--k", "7", "--n", "3"], capsys)
    assert code == 0 and precs == [300]


def test_kloosterman_rewrite_matches_direct(capsys):
    args = ["kloosterman", "--family", "modified", "--d", "1", "--j", "2",
            "--k", "5", "--nu", "2", "--n", "3", "--m", "1"]
    _, direct = run_cli(args, capsys)
    _, rewritten = run_cli(args + ["--rewrite"], capsys)
    assert float(direct[0]["re"]) == pytest.approx(float(rewritten[0]["re"]), abs=1e-12)
    assert float(direct[0]["im"]) == pytest.approx(float(rewritten[0]["im"]), abs=1e-12)


def test_integral_scriptI(capsys):
    code, rows = run_cli(
        ["integral", "--which", "scriptI", "--b", "5/12", "--k", "2", "--nu", "1", "--n", "4"],
        capsys,
    )
    assert code == 0
    assert float(rows[0]["re"]) == pytest.approx(124.96062323, rel=1e-8)


def test_integral_scriptI_default_precision_follows_its_size(capsys):
    # the value is -6.5e47 and --tol is absolute: 128 bits cannot resolve it
    from circleforge.integrals import script_I_band
    code, rows = run_cli(["integral", "--which", "scriptI", "--b", "5/12", "--k", "1",
                          "--nu", "1", "--n", "400"], capsys)
    assert code == 0
    with mpmath.workprec(200):
        val = script_I_band(Fraction(5, 12), 1, [1], 400, mpmath.mpf("1e-12"), prec=200)[0]
        assert rows[0]["value"] == mpmath.nstr(val, 20, strip_zeros=False)


def test_integral_Jstar_default_precision_follows_its_size(capsys):
    # the value is -4.7e55, near e^(Re w) with w = pi b/(k z) = 131, and --tol is
    # absolute: 128 bits cannot resolve it
    code, rows = run_cli(["integral", "--which", "Jstar", "--b", "5/12", "--k", "1",
                          "--z", "0.01"], capsys)
    assert code == 0
    assert rows[0]["value"] == "-4.6886650398111810820e+55"


@pytest.mark.parametrize("which, extra, b, nu, n, z, y, N", [
    pytest.param("mordell", ["--b", "5/12"], None, 2, None, "(1.0 + 0.0j)", None, None,
                 id="mordell"),
    pytest.param("J", ["--b", "5/12", "--z", "1/2"], "5/12", 2, None, "(0.5 + 0.0j)", None, None,
                 id="J"),
    pytest.param("Jstar", ["--b", "5/12", "--z", "0.8,0.2"], "5/12", 2, None, "(0.8 + 0.2j)",
                 None, None, id="Jstar"),
    pytest.param("scriptI", ["--b", "5/12", "--z", "1/2"], "5/12", 2, 4, None, None, None,
                 id="scriptI"),
    pytest.param("L", ["--b", "5/12", "--y", "1/4"], None, None, 4, None, "1/4", None, id="L"),
    pytest.param("L", ["--y", "1/4", "--N", "8"], None, None, 4, None, "1/4", 8, id="L-contour"),
])
def test_integral_row_nulls_unused_parameters(capsys, which, extra, b, nu, n, z, y, N):
    code, rows = run_cli(["integral", "--which", which, "--k", "3", "--nu", "2", "--n", "4",
                          "--tol", "1e-8", *extra], capsys)
    assert code == 0
    assert list(rows[0])[:5] == ["which", "b", "k", "nu", "n"]
    assert list(rows[0])[-3:] == ["z", "y", "N"]
    assert (rows[0]["b"], rows[0]["k"], rows[0]["nu"], rows[0]["n"]) == (b, 3, nu, n)
    assert (rows[0]["z"], rows[0]["y"], rows[0]["N"]) == (z, y, N)


def test_integral_parses_z_at_precision_bits(capsys):
    # 0.8 and 0.2 are not binary fractions: rounded to 53 bits they would
    # move the integral in its 17th digit
    from circleforge.integrals import mordell_band
    code, rows = run_cli(["--precision-bits", "200", "integral", "--which", "mordell",
                          "--k", "3", "--nu", "2", "--z", "0.8,0.2", "--tol", "1e-8"], capsys)
    assert code == 0
    with mpmath.workprec(200):
        val = mordell_band(3, [2], mpmath.mpc("0.8", "0.2"), mpmath.mpf("1e-8"), prec=200)[0]
        assert rows[0]["value"] == mpmath.nstr(val, 20, strip_zeros=False)


@pytest.mark.parametrize("which, extra", [
    pytest.param("mordell", [], id="mordell"),
    pytest.param("J", [], id="J"),
    pytest.param("Jstar", [], id="Jstar"),
    # real because the rectangle is symmetric under conjugation; at N = 16 the
    # rounding residue of the sum over its edges is nonzero
    pytest.param("L", ["--n", "5", "--N", "16"], id="L"),
])
def test_integral_at_real_z_prints_real_value(capsys, which, extra):
    # real by conjugate symmetry: the value prints without an imaginary part
    code, rows = run_cli(["integral", "--which", which, "--b", "5/12", "--k", "3", "--nu", "2",
                          "--z", "1/2", *extra], capsys)
    assert code == 0
    assert "j" not in rows[0]["value"]
    assert rows[0]["value"] == rows[0]["re"]
    assert float(rows[0]["im"]) == 0


def test_check_transform(capsys):
    code, rows = run_cli(
        ["check-transform", "--law", "P_law", "--h", "1", "--k", "2", "--z", "0.8,0.2"],
        capsys,
    )
    assert code == 0
    assert rows[0]["passed"] is True


def test_verify_range(capsys):
    code, rows = run_cli(["verify", "--from", "1", "--to", "5", "--kmax", "8"], capsys)
    assert code == 0
    summary = rows[-1]
    assert summary["ok"] is True
    assert summary["mismatches"] == 0


def test_verify_row_equals_exact_row(capsys):
    assert main(["exact", "--n", "7", "--kmax", "8"]) == 0
    exact_row = capsys.readouterr().out.splitlines()[0]
    assert main(["verify", "--from", "7", "--to", "7", "--kmax", "8"]) == 0
    verify_row = capsys.readouterr().out.splitlines()[0]
    assert verify_row == exact_row


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "circleforge.cli", "no-such-command"],
        capture_output=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("args, message", [
    pytest.param(["integral", "--which", "J", "--k", "2"], "needs --b", id="J-without-b"),
    pytest.param(["integral", "--which", "Jstar", "--k", "2"], "needs --b", id="Jstar-without-b"),
    pytest.param(["integral", "--which", "scriptI", "--k", "2", "--n", "4"], "needs --b",
                 id="scriptI-without-b"),
    pytest.param(["integral", "--which", "L", "--k", "2", "--n", "3", "--N", "0"],
                 "degenerate rectangle", id="L-N-0"),
    pytest.param(["--cache", "x", "exact", "--n", "4"], "invalid choice", id="removed-cache-flag"),
    pytest.param(["--precision-bits", "10", "exact", "--n", "4"], "precision_bits must be >= 64",
                 id="precision-below-64"),
    pytest.param(["exact", "--n", "4", "--tol", "0"], "tolerance must be positive",
                 id="exact-tol-0"),
    pytest.param(["check-transform", "--law", "P_law", "--h", "1", "--k", "2", "--tol", "0"],
                 "tolerance must be positive", id="check-transform-tol-0"),
    pytest.param(["integral", "--which", "L", "--k", "2", "--n", "3", "--y", "1/0"],
                 "division by zero", id="L-y-zero-denominator"),
    pytest.param(["integral", "--which", "J", "--b", "1/2", "--k", "2", "--z", "1/0"],
                 "division by zero", id="J-z-zero-denominator"),
    pytest.param(["exact", "--n", "4", "--tol", "1/0"], "division by zero",
                 id="exact-tol-zero-denominator"),
    pytest.param(["check-transform", "--law", "Pr_law", "--h", "1", "--k", "2", "--r", "0"],
                 "r=0", id="Pr_law-r-0"),
    pytest.param(["check-transform", "--law", "Pr_law", "--h", "1", "--k", "2", "--r", "-2"],
                 "r=-2", id="Pr_law-r-negative"),
    pytest.param(["integral", "--which", "Jstar", "--b", "5/12", "--k", "0"],
                 "k must be positive", id="Jstar-k-0"),
    pytest.param(["integral", "--which", "Jstar", "--b", "5/12", "--k", "1", "--z", "0"],
                 "Re z must be positive", id="Jstar-z-0"),
    pytest.param(["integral", "--which", "Jstar", "--b", "5/12", "--k", "1", "--z", "-1"],
                 "Re z must be positive", id="Jstar-z-negative"),
    pytest.param(["integral", "--which", "Jstar", "--b", "5/12", "--k", "1", "--z", "0,1"],
                 "Re z must be positive", id="Jstar-z-imaginary"),
])
def test_usage_error_exits_2(args, message):
    proc = subprocess.run([sys.executable, "-m", "circleforge.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "error: " in proc.stderr and message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_env_precision_override(tmp_path, capsys, monkeypatch):
    import circleforge.rademacher as rademacher

    monkeypatch.setenv("CIRCLEFORGE_PREC", "96")
    code, rows = run_cli(["asymptotic", "--n", "10"], capsys)
    assert code == 0
    precs = []
    real_exact = rademacher.p1bar_exact

    def spy(n, kmax=None, tol=None, prec=None):
        precs.append(prec)
        return real_exact(n, kmax=kmax, tol=tol, prec=prec)

    monkeypatch.setattr(rademacher, "p1bar_exact", spy)
    code, rows = run_cli(["verify", "--from", "1", "--to", "3", "--kmax", "6"], capsys)
    assert code == 0 and rows[-1]["ok"] is True
    assert precs == [96, 96, 96]
    code, rows = run_cli(["--precision-bits", "112", "verify", "--from", "2", "--to", "2",
                          "--kmax", "6"], capsys)
    assert code == 0 and precs[-1] == 112
    monkeypatch.setenv("CIRCLEFORGE_PREC", "10")
    with pytest.raises(SystemExit):
        main(["asymptotic", "--n", "10"])


def test_mismatch_exit_code(capsys):
    # an unreachable kmax makes the truncation too short to round correctly
    code, rows = run_cli(["exact", "--n", "40", "--kmax", "2"], capsys)
    assert code in (0, 1)  # documents the contract: 1 whenever match is false
    assert rows[0]["match"] is (code == 0)
    assert rows[0]["flagged"] is True  # dist 0.262 reaches the 0.25 flag threshold


def test_numerical_failure_exit_code(capsys, monkeypatch):
    import circleforge.integrals as integrals
    from circleforge.hpnum import QuadratureError

    def exhausted(*args, **kwargs):
        raise QuadratureError("subdivision budget exhausted", 0, 1, 4097)

    monkeypatch.setattr(integrals, "quad_panels", exhausted)
    code = main(["exact", "--n", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "error: numerical failure: subdivision budget exhausted" in captured.err


def test_imaginary_residue_exit_code(capsys, monkeypatch):
    import circleforge.rademacher as rademacher

    def failing_band(*args, **kwargs):
        raise ArithmeticError("precision too low: 96 + 16 bits cannot carry tol")

    monkeypatch.setattr(rademacher, "script_I_band", failing_band)
    code = main(["exact", "--n", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "error: numerical failure: precision too low" in captured.err
    # an integral that is real by symmetry, with a residue above --tol: the
    # real skew of an edge of L's rectangle turns imaginary after 1/(2 pi i)
    import circleforge.integrals as integrals

    real_driver = integrals.quad_panels

    def skewed(*args, **kwargs):
        res = real_driver(*args, **kwargs)
        res.value[-1] += mpmath.mpc("1e-6", "1e-6")
        return res

    monkeypatch.setattr(integrals, "quad_panels", skewed)
    code = main(["integral", "--which", "L", "--k", "3", "--n", "5", "--N", "16"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "error: numerical failure: symmetry violation" in captured.err


def test_non_real_weight_exit_code(capsys, monkeypatch):
    import circleforge.rademacher as rademacher
    from circleforge.kloosterman import SumValue

    # one summand e^(2 pi i/4) = i: a weight that is not real
    monkeypatch.setattr(rademacher, "modified_K", lambda spec: SumValue(modulus=4, counts={1: 1}))
    code = main(["exact", "--n", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "error: numerical failure" in captured.err


def test_low_precision_band_exits_3(capsys):
    # 120 bits cannot resolve the tolerance against the size of the bands
    # at n = 1000, so a band's precision check fails
    code = main(["--precision-bits", "120", "exact", "--n", "1000"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "error: numerical failure: precision too low" in captured.err


def test_low_precision_Jstar_exits_3(capsys):
    # Jstar is about -3.4e10 here, so 64 + 16 bits resolve it only to about
    # 1e-13, far above --tol 1e-20: no value is printed
    code = main(["--precision-bits", "64", "integral", "--which", "Jstar", "--b", "5/12",
                 "--k", "1", "--z", "0.05", "--tol", "1e-20"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "error: numerical failure: precision too low" in captured.err


_FROZEN_ROWS = {
    ("exact", "--n", "55"): [
        '{"n": 55, "value": "6052930.0696236902448", "rounded": 6052930, "oracle": 6052930, "match": true, "dist": "0.0696237", "kmax": 18, "tail": "0.0196267", "flagged": false}',
    ],
    ("exact", "--n", "105"): [
        '{"n": 105, "value": "11053718759.912077228", "rounded": 11053718760, "oracle": 11053718760, "match": true, "dist": "0.0879228", "kmax": 21, "tail": "0.000546897", "flagged": false}',
    ],
    ("exact", "--n", "500", "--rademacher"): [
        '{"n": 500, "value": "2.3001650325743239950e+21", "rounded": 2300165032574323995027, "oracle": 2300165032574323995027, "match": true, "dist": "0.000357968", "kmax": 33, "tail": "0.0", "flagged": false}',
    ],
    ("verify", "--from", "1", "--to", "12", "--kmax", "10"): [
        '{"n": 1, "value": "1.9130677716575551387", "rounded": 2, "oracle": 2, "match": true, "dist": "0.0869322", "kmax": 10, "tail": "0.0643634", "flagged": false}',
        '{"n": 2, "value": "3.9725212902744318271", "rounded": 4, "oracle": 4, "match": true, "dist": "0.0274787", "kmax": 10, "tail": "0.0349146", "flagged": false}',
        '{"n": 3, "value": "6.1803932184351640416", "rounded": 6, "oracle": 6, "match": true, "dist": "0.180393", "kmax": 10, "tail": "0.113978", "flagged": false}',
        '{"n": 4, "value": "11.899392800438561676", "rounded": 12, "oracle": 12, "match": true, "dist": "0.100607", "kmax": 10, "tail": "0.00612993", "flagged": false}',
        '{"n": 5, "value": "17.836148347842851842", "rounded": 18, "oracle": 18, "match": true, "dist": "0.163852", "kmax": 10, "tail": "0.0155056", "flagged": false}',
        '{"n": 6, "value": "29.993807456606840168", "rounded": 30, "oracle": 30, "match": true, "dist": "0.00619254", "kmax": 10, "tail": "0.0766489", "flagged": false}',
        '{"n": 7, "value": "44.113366951409119972", "rounded": 44, "oracle": 44, "match": true, "dist": "0.113367", "kmax": 10, "tail": "0.0414229", "flagged": false}',
        '{"n": 8, "value": "68.203743132907533783", "rounded": 68, "oracle": 68, "match": true, "dist": "0.203743", "kmax": 10, "tail": "0.134792", "flagged": false}',
        '{"n": 9, "value": "97.835858399906054603", "rounded": 98, "oracle": 98, "match": true, "dist": "0.164142", "kmax": 10, "tail": "0.00698901", "flagged": false}',
        '{"n": 10, "value": "146.01675904260174401", "rounded": 146, "oracle": 146, "match": true, "dist": "0.0167590", "kmax": 10, "tail": "0.0176811", "flagged": false}',
        '{"n": 11, "value": "204.02279705810986340", "rounded": 204, "oracle": 204, "match": true, "dist": "0.0227971", "kmax": 10, "tail": "0.0905099", "flagged": false}',
        '{"n": 12, "value": "293.85864945230737624", "rounded": 294, "oracle": 294, "match": true, "dist": "0.141351", "kmax": 10, "tail": "0.0487553", "flagged": false}',
        '{"summary": true, "mismatches": 0, "max_distance": 0.2037431329075338, "ok": true}',
    ],
}


@pytest.mark.parametrize("args", list(_FROZEN_ROWS), ids=" ".join)
def test_rows_are_frozen(capsys, args):
    # byte-identical full stdout: a change that moves one of these rows
    # must say which and why
    code = main(list(args))
    assert code == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in _FROZEN_ROWS[args])


def test_verify_rows_report_flagged(capsys):
    code, rows = run_cli(["verify", "--from", "3", "--to", "4", "--kmax", "8"], capsys)
    assert code == 0
    assert [list(r)[-1] for r in rows[:-1]] == ["flagged", "flagged"]
    # n = 3 rounds correctly at distance 0.30, past the 0.25 flag threshold
    assert [r["flagged"] for r in rows[:-1]] == [True, False]
