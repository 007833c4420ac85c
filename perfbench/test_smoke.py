"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python -m pytest -q perfbench/test_smoke.py

Runs each workload briefly, untraced and traced, and checks that every metric
named in BENCHMARK.json is emitted with its unit; then checks that the
oracle rejects hand-corrupted reports.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import MATCH_TOL, WORKLOADS, judge  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_emitted_with_unit(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    if trace == 0:
        assert all(v["value"] != 0 for v in out["metrics"].values())


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adapt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0 and done.stdout == ""


@pytest.fixture(scope="module")
def singer_report() -> dict:
    w = WORKLOADS["singer-metric"]
    text = w.run(5)
    assert judge(text, w.oracle) is not None
    return json.loads(text)


def _corrupt(rep: dict, **changes) -> str:
    from ambrose.cli import dumps_report

    return dumps_report({**rep, **changes})


def test_oracle_rejects_wrong_stabilizer_dims(singer_report):
    oracle = WORKLOADS["singer-metric"].oracle
    assert judge(_corrupt(singer_report, stabilizer_dims=[2]), oracle) is None
    assert judge(_corrupt(singer_report, singer_k=1), oracle) is None


def test_oracle_rejects_nan_residual(singer_report):
    residuals = dict(singer_report["residuals"], subalgebra=float("nan"))
    text = _corrupt(singer_report, residuals=residuals)
    assert '"nan"' in text
    assert judge(text, WORKLOADS["singer-metric"].oracle) is None


def test_oracle_recomputes_residual_against_tolerance(singer_report):
    # the program says pass, but the residual is over its tolerance
    residuals = dict(singer_report["residuals"], nesting_angle=2e-6)
    text = _corrupt(singer_report, residuals=residuals)
    assert judge(text, WORKLOADS["singer-metric"].oracle) is None


def test_residual_is_rescaled_to_the_tightest_tolerance(singer_report):
    # subalgebra (tolerance 1e-7) is nearer its tolerance than nesting_angle
    # (1e-6), though its raw residual is smaller; it decides the value
    residuals = dict(singer_report["residuals"], nesting_angle=5e-9, subalgebra=1e-9)
    text = _corrupt(singer_report, residuals=residuals)
    assert judge(text, WORKLOADS["singer-metric"].oracle) == pytest.approx(1e-9)


def test_oracle_rejects_bad_match():
    oracle = WORKLOADS["orbit-match"].oracle
    good = {"matched": True, "residual": 1e-9}
    assert judge(json.dumps(good), oracle) is not None
    assert judge(json.dumps({**good, "matched": False}), oracle) is None
    assert judge(json.dumps({**good, "residual": 2 * MATCH_TOL}), oracle) is None
    assert judge(json.dumps({**good, "residual": "nan"}), oracle) is None
