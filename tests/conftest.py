"""One ``locpacf verify`` run shared by every test that reads a verify check."""

import contextlib
import csv
import io
from dataclasses import dataclass

import pytest

from locpacf.cli import main
from locpacf.verify import CheckResult, run_all


@dataclass(frozen=True)
class VerifyRun:
    code: int
    stdout: str
    results: list[CheckResult]  # what run_all returned to the CLI
    rows: list[dict]  # the --output CSV

    def check(self, name: str) -> CheckResult:
        (res,) = [r for r in self.results if r.name == name]
        return res


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """``locpacf verify --output`` run once per session, recording run_all's results."""
    results = []

    def recording_run_all():
        results.extend(run_all())
        return results

    out = tmp_path_factory.mktemp("verify") / "verify.csv"
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
        mp.setattr("locpacf.cli.run_all", recording_run_all)
        code = main(["verify", "--output", str(out)])
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return VerifyRun(code, stdout.getvalue(), results, rows)
