"""Property suites behind the CLI verify subcommand."""

import numpy as np
import pytest

from locpacf.cli import main
from locpacf.verify import CheckResult, cos_ratio_integral


def test_integral_identity_examples():
    # 4*pi*min(a,b), removable singularity at zero
    assert cos_ratio_integral(0.5, 0.5) == pytest.approx(2 * np.pi, abs=1e-7)
    assert cos_ratio_integral(1.0, 3.0) == pytest.approx(4 * np.pi, abs=1e-7)
    assert cos_ratio_integral(8.0, 2.5) == pytest.approx(10 * np.pi, abs=1e-6)


def test_integral_identity_grid(verify_run):
    res = verify_run.check("trigonometric ratio integral")
    assert res.passed, res.detail


def test_all_property_suites_pass(verify_run):
    failures = [r for r in verify_run.results if not r.passed]
    assert not failures, "; ".join(f"{r.name}: {r.detail}" for r in failures)
    assert verify_run.code == 0
    assert len(verify_run.results) == 13
    assert [(row["check"], row["passed"]) for row in verify_run.rows] == [
        (r.name, "1") for r in verify_run.results
    ]
    assert verify_run.stdout.count("PASS  ") == 13


def test_verify_failure_exits_4(monkeypatch, capsys, tmp_path):
    failing = [CheckResult("closed form vs brute force", False, "max |diff| 1.00e-03")]
    monkeypatch.setattr("locpacf.cli.run_all", lambda: failing)
    out = tmp_path / "verify.csv"
    assert main(["verify", "--output", str(out)]) == 4
    assert "FAIL  closed form vs brute force: max |diff| 1.00e-03" in capsys.readouterr().out
    assert out.read_text().splitlines()[1] == 'closed form vs brute force,0,"max |diff| 1.00e-03"'
