"""Command-line interface: subcommand contracts, exit codes, deterministic
JSON output, and the coefficient cache audit."""

import json
import subprocess
import sys

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


def test_selftest_with_cache(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    code, _ = run_cli(["--cache", str(cache), "exact", "--n", "4"], capsys)
    assert code == 0
    assert cache.exists()
    code, rows = run_cli(["--cache", str(cache), "selftest"], capsys)
    assert code == 0
    names = {r.get("selftest") for r in rows if "selftest" in r}
    assert "cache-audit" in names
    assert rows[-1]["ok"] is True


def test_cache_appends_without_duplicates(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    run_cli(["--cache", str(cache), "exact", "--n", "4"], capsys)
    run_cli(["--cache", str(cache), "exact", "--n", "4"], capsys)
    lines = cache.read_text().strip().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row == {"series": "G1", "n": 4, "coeff": "12", "order_computed": 4}


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "circleforge.cli", "no-such-command"],
        capture_output=True,
    )
    assert proc.returncode == 2


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


def test_numerical_failure_exit_code(capsys, monkeypatch):
    import circleforge.integrals as integrals
    from circleforge.hpnum import QuadratureError

    def exhausted(*args, **kwargs):
        raise QuadratureError("subdivision budget exhausted", 0, 1, 4097)

    monkeypatch.setattr(integrals, "quad_finite", exhausted)
    code = main(["exact", "--n", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "error: numerical failure: subdivision budget exhausted" in captured.err
