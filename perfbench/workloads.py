"""Benchmark workloads: one verification operation each, and its oracle.

An operation is one verification call at a fixed input size; it returns the
serialized report (``ambrose.cli.dumps_report``), so reruns can be compared
byte for byte. The oracle judges the parsed report against ground truth that
does not come from the program's verdict: every catalog fixture used here is
homogeneous, so the right answer is known in advance.

This module imports neither numpy nor ``ambrose`` at import time, so the
benchmark can time those imports itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

# orbit_match's own acceptance threshold, used as its tolerance
MATCH_TOL = 1e-6


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _verdict(rep: dict) -> float | None:
    """Largest residual of the report, each residual first rescaled to the
    report's tightest tolerance (``r_k * min(t) / t_k``), so that the key
    nearest its own tolerance decides; or None when the report does not pass:
    a missing or non-finite residual or tolerance (NaN is serialized as the
    string "nan"), a residual at or above its tolerance (recomputed here), or
    a program verdict other than pass."""
    res, tol = rep.get("residuals"), rep.get("tolerances")
    if not isinstance(res, dict) or not isinstance(tol, dict) or not res or set(res) != set(tol):
        return None
    for key, r in res.items():
        t = tol[key]
        if not (_finite(r) and _finite(t)) or not r < t:
            return None
    if rep.get("pass") is not True:
        return None
    return max(abs(r) / tol[key] for key, r in res.items()) * min(tol.values())


def chain_oracle(rep: dict) -> float | None:
    """Berger sphere: isotropy so(2) at every point, so the chain is [1] and
    stabilizes at k = 0."""
    if rep.get("stabilizer_dims") != [1] or rep.get("singer_k") != 0:
        return None
    return _verdict(rep)


def pass_oracle(rep: dict) -> float | None:
    """Hopf monopole total space: the parallelism criteria hold."""
    return _verdict(rep)


def match_oracle(rep: dict) -> float | None:
    """Two points of a homogeneous space: their towers are in one orbit."""
    r = rep.get("residual")
    if rep.get("matched") is not True or not _finite(r) or not r < MATCH_TOL:
        return None
    return abs(r)


def judge(text: str | None, oracle: Callable[[dict], float | None]) -> float | None:
    """Parse a serialized report and apply the oracle: the report's largest
    rescaled residual, or None if it failed."""
    if text is None:
        return None
    try:
        rep = json.loads(text)
    except json.JSONDecodeError:
        return None
    return oracle(rep) if isinstance(rep, dict) else None


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str
    points: int  # sample points verified per operation (a matched pair is 2)
    argv: tuple[str, ...] | None  # CLI arguments; None for orbit-match
    oracle: Callable[[dict], float | None]

    def run(self, seed: int) -> str:
        """One operation with the given seed; returns the serialized report."""
        from ambrose import cli

        if self.argv is None:
            return _orbit_match_report(self.fixture, seed)
        cfg = cli.parse_config([*self.argv, "--points", str(self.points), "--seed", str(seed)])
        return cli.dumps_report(cli.run_scenario(cfg))


def _orbit_match_report(fixture: str, seed: int) -> str:
    """Towers (kmax=2) at a seeded point pair, matched at depth 1, as in
    acceptance criterion 07."""
    from ambrose import cli, homogeneity
    from ambrose.chart_calculus import sample_interior
    from ambrose.fixtures import instantiate
    from ambrose.lie_core import frame_structure_rep

    fix = instantiate(fixture, {})
    rep = frame_structure_rep(fix.chart.dim)
    sigma = homogeneity.opozda_section_spec(fix.gamma)
    x1, x2 = sample_interior(fix.chart, 2, seed)
    t1 = homogeneity.build_tower(sigma, None, fix.gamma, fix.g, x1, 2)
    t2 = homogeneity.build_tower(sigma, None, fix.gamma, fix.g, x2, 2)
    match = homogeneity.orbit_match(t1, t2, rep, depth=1)
    return cli.dumps_report({
        "scenario": "orbit-match",
        "fixture": fixture,
        "points": [x1, x2],
        "matched": match.matched,
        "residual": match.residual,
        "theta": match.theta,
        "reason": match.reason,
    })


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "singer-metric", "berger_sphere", 4,
            ("--scenario", "singer", "--fixture", "berger_sphere", "--param", "connection=metric"),
            chain_oracle,
        ),
        Workload("adapt", "berger_sphere", 1,
                 ("--scenario", "adapt", "--fixture", "berger_sphere"), chain_oracle),
        Workload("total-space", "hopf_monopole", 2,
                 ("--scenario", "total-space", "--fixture", "hopf_monopole"), pass_oracle),
        Workload("orbit-match", "berger_sphere", 2, None, match_oracle),
    )
}
