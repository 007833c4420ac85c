"""The stdout and exit code of each CLI run in golden_reports.json, byte for
byte. The runs are every run of test_reachable.RUNS at the default eight
points, the runs of the ROADMAP Baseline table, the deep and flagged runs
the jet towers mended, and a singer run over several batches of points.

A change that moves a byte of a report updates the file and names, in
CHANGES.md, each residual that changed with its old and new value; dims,
singer_k, flags, pass and the exit code must not change."""

import json
from pathlib import Path

import pytest

from ambrose import cli
from test_reachable import RUNS

GOLDEN = json.loads(Path(__file__).with_name("golden_reports.json").read_text())


def test_every_reachable_run_is_golden():
    assert {argv for argv, _ in RUNS} <= {run["argv"] for run in GOLDEN}


@pytest.mark.parametrize("run", GOLDEN, ids=[run["argv"] for run in GOLDEN])
def test_report_is_byte_identical(run, capsys):
    code = cli.main(run["argv"].split())
    assert capsys.readouterr().out == run["stdout"]
    assert code == run["exit"]
