"""Acceptance battery.

Each test exercises one headline guarantee of the package at its stated
tolerance and prints a single PASS/FAIL line.  Run with

    pytest tests/test_acceptance.py -s

to see every line; a plain pytest run still enforces all of them.
"""

import json

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from ambrose import cli
from ambrose.chart_calculus import (
    Chart,
    ConnectionCoeffs,
    TensorFieldSpec,
    curvature,
    curvature_field,
    fd_array,
    ortho_frame,
    sample_interior,
    torsion_field,
)
from ambrose.fixtures import fixture_names, instantiate
from ambrose.homogeneity import (
    TripleSpec,
    build_tower,
    check_lh_triple,
    check_ls_triple,
    opozda_section_spec,
    orbit_match,
    tower_and_chain,
)
from ambrose.lie_core import frame_structure_rep
from ambrose.tensor_core import DOWN, to_frame
from ambrose.total_space import (
    TotalSpaceModel,
    bar_parallelism_check,
    distribution_parallel_check,
)
from oracles import (
    _frame_fields,
    bar_torsion,
    bar_torsion_direct,
    covariant_derivative,
    equivalence_check_c_c0,
)


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{label}]: {status} ({detail})")
    assert ok, f"criterion {num:02d} [{label}]: {detail}"


def _metric_field(g) -> TensorFieldSpec:
    return TensorFieldSpec(chart=g.chart, markers=(DOWN, DOWN), evaluator=g.evaluator)


def _nabla_frame_norm(gamma: ConnectionCoeffs, field: TensorFieldSpec, g,
                      x: np.ndarray) -> float:
    return to_frame(covariant_derivative(gamma, field, x), ortho_frame(g, x)).norm()


def _cfg(scenario: str, fixture: str, params=None, points=8, seed=42):
    return cli.RunConfig(
        scenario=scenario, fixture=fixture, params=params or {},
        points=points, seed=seed, tols={}, kmax=None, out=None,
    )


def test_criterion_01_calculus_layer():
    worst = 0.0
    for name, params in (
        ("euclidean", {"n": 2}),
        ("euclidean", {"n": 3}),
        ("flat_torus", {}),
    ):
        fix = instantiate(name, params)
        g_field = _metric_field(fix.g)
        for x in sample_interior(fix.chart, 4, seed=1):
            worst = max(
                worst,
                float(np.abs(fix.gamma.at(x)).max()),
                curvature(fix.gamma, x).norm(),
                torsion_field(fix.gamma).at(x).norm(),
                covariant_derivative(fix.gamma, g_field, x).norm(),
            )
    sphere = instantiate("round_sphere2", {})
    x = np.array([np.pi / 2, 2.0])
    low = np.einsum(
        "lm,lkij->mkij", sphere.g.at(x), curvature(sphere.gamma, x).data
    )
    sphere_err = abs(low[0, 1, 0, 1] - 1.0)
    hyper = instantiate("hyperbolic_plane", {})
    xh = np.array([0.7, 1.3])
    lowh = np.einsum(
        "lm,lkij->mkij", hyper.g.at(xh), curvature(hyper.gamma, xh).data
    )
    e = ortho_frame(hyper.g, xh).frame
    sec = np.einsum("mkij,m,k,i,j->", lowh, e[:, 0], e[:, 1], e[:, 0], e[:, 1])
    hyper_err = abs(sec + 1.0)
    ok = worst < 1e-10 and sphere_err < 1e-7 and hyper_err < 1e-7
    _verdict(
        1, "calculus layer", ok,
        f"flat residual {worst:.2e} < 1e-10, sphere curvature error "
        f"{sphere_err:.2e}, hyperbolic sectional error {hyper_err:.2e} < 1e-7",
    )


def test_criterion_02_fd_order():
    chart = Chart(dim=2, box=np.array([[-2.0, 2.0], [-2.0, 2.0]]), margin=0.1)
    x = np.array([0.4, -0.7])
    fields = (
        lambda p: np.array([np.sin(3 * p[0]) * np.cos(p[1]),
                            np.exp(0.3 * p[0] * p[1])]),
        lambda p: np.array([p[0] ** 3 * p[1] - 2.0 * p[0] * p[1] ** 2,
                            np.cosh(0.5 * p[0]) * np.arctan(p[1])]),
        lambda p: np.array([1.0 / (3.0 + p[0] + 0.3 * p[1]),
                            np.log(4.0 + p[0] * p[1])]),
    )
    ratios = []
    for field in fields:
        for mu in range(2):
            coarse = fd_array(field, chart, x, mu, richardson=False,
                              step_scale=1e-2)
            fine = fd_array(field, chart, x, mu, richardson=False,
                            step_scale=5e-3)
            exact = fd_array(field, chart, x, mu)
            e1 = np.abs(coarse - exact).max()
            e2 = np.abs(fine - exact).max()
            ratios.append(e1 / e2)
    ok = all(3.5 < r < 4.5 for r in ratios)
    _verdict(
        2, "finite-difference order", ok,
        "halving ratios "
        + ", ".join(f"{r:.2f}" for r in ratios)
        + " all within [3.5, 4.5]",
    )


def test_criterion_03_identity_suite():
    worst = 0.0
    for fixture in ("round_sphere2", "round_sphere3"):
        rep = cli.run_identities(_cfg("identities", fixture))
        worst = max(worst, max(rep.residuals.values()))
        assert rep.passed, (fixture, rep.residuals)
    ok = worst < 1e-6
    _verdict(
        3, "identity suite", ok,
        f"worst residual {worst:.2e} < 1e-6 at 8 points on both fixtures",
    )


def test_criterion_04_parallel_curvature_instances():
    def dfield_norm(fix, gamma: ConnectionCoeffs, inner) -> float:
        return max(
            _nabla_frame_norm(gamma, inner, fix.g, x)
            for x in sample_interior(fix.chart, 4, seed=3)
        )

    sphere = instantiate("round_sphere2", {})
    hyper = instantiate("hyperbolic_plane", {})
    berger = instantiate("berger_sphere", {"lam": 2.0})
    s_dr = dfield_norm(sphere, sphere.gamma, curvature_field(sphere.gamma))
    h_dr = dfield_norm(hyper, hyper.gamma, curvature_field(hyper.gamma))
    b_dr_metric = dfield_norm(berger, berger.gamma, curvature_field(berger.gamma))
    can = berger.gamma_canonical
    b_dr = dfield_norm(berger, can, curvature_field(can))
    b_dt = dfield_norm(berger, can, torsion_field(can))
    ok = (
        s_dr < 1e-6 and h_dr < 1e-6
        and b_dr_metric > 1e-2
        and b_dr < 1e-6 and b_dt < 1e-6
    )
    _verdict(
        4, "parallel-curvature instances", ok,
        f"sphere {s_dr:.2e}, hyperbolic {h_dr:.2e} < 1e-6; berger metric "
        f"{b_dr_metric:.2e} > 1e-2 while canonical dR {b_dr:.2e}, "
        f"dT {b_dt:.2e} < 1e-6",
    )


def test_criterion_05_equivalence_agreement():
    checked = 0
    for name in fixture_names():
        fix = instantiate(name, {})
        pts = sample_interior(fix.chart, 4, seed=5)
        reports = [equivalence_check_c_c0(fix.gamma, fix.g, pts, fixture=name)]
        if fix.gamma_canonical is not None:
            reports.append(
                equivalence_check_c_c0(fix.gamma_canonical, fix.g, pts,
                                       fixture=name)
            )
        for rep in reports:
            assert "systems-agree" in rep.flags, (name, rep.flags, rep.residuals)
            assert rep.passed, (name, rep.flags)
            checked += 1
    _verdict(
        5, "equivalence agreement", True,
        f"both condition systems agree on all {checked} fixture/connection "
        "combinations",
    )


def test_criterion_06_stabilizer_chains():
    cases = (
        ("round_sphere2", {}, "metric"),
        ("hyperbolic_plane", {}, "metric"),
        ("berger_sphere", {"lam": 2.0}, "canonical"),
        ("round_sphere3", {}, "canonical"),
    )
    worst_angle = 0.0
    for name, params, which in cases:
        fix = instantiate(name, params)
        gamma = fix.gamma if which == "metric" else fix.gamma_canonical
        rep = frame_structure_rep(fix.chart.dim)
        sigma = opozda_section_spec(gamma)
        singers = set()
        h0_dims = set()
        for x in sample_interior(fix.chart, 8, seed=42):
            _, chain = tower_and_chain(sigma, None, gamma, fix.g, x, rep)
            assert all(
                b <= a for a, b in zip(chain.dims, chain.dims[1:])
            ), (name, chain.dims)
            for k in range(len(chain.bases) - 1):
                hi, lo = chain.bases[k], chain.bases[k + 1]
                if min(hi.shape[1], lo.shape[1]) == 0:
                    continue
                worst_angle = max(
                    worst_angle,
                    float(subspace_angles(lo, hi).max(initial=0.0)),
                )
            assert chain.singer_k is not None, name
            singers.add(chain.singer_k)
            h0_dims.add(chain.dims[0])
        assert len(singers) == 1, (name, singers)
        if name == "round_sphere2":
            assert singers == {0} and h0_dims == {1}
        if name == "round_sphere3":
            assert h0_dims == {3}
    ok = worst_angle < 1e-6
    _verdict(
        6, "stabilizer chains", ok,
        f"nesting angle {worst_angle:.2e} < 1e-6, dims nonincreasing and "
        "singer stage constant over 8 points on 4 fixtures; "
        "sphere dims=[1] singer 0, su(2) canonical dim h(0)=3",
    )


def test_criterion_07_orbit_match():
    worst = 0.0
    for name, params in (("round_sphere2", {}), ("berger_sphere", {"lam": 2.0})):
        fix = instantiate(name, params)
        rep = frame_structure_rep(fix.chart.dim)
        sigma = opozda_section_spec(fix.gamma)
        x1, x2 = sample_interior(fix.chart, 2, seed=8)
        t1 = build_tower(sigma, None, fix.gamma, fix.g, x1, 2)
        t2 = build_tower(sigma, None, fix.gamma, fix.g, x2, 2)
        match = orbit_match(t1, t2, rep, depth=1)
        assert match.matched, (name, match.reason)
        worst = max(worst, match.residual)
    sphere = instantiate("round_sphere2", {})
    hyper = instantiate("hyperbolic_plane", {})
    ts = build_tower(opozda_section_spec(sphere.gamma), None, sphere.gamma,
                     sphere.g, np.array([1.2, 2.0]), 2)
    th = build_tower(opozda_section_spec(hyper.gamma), None, hyper.gamma,
                     hyper.g, np.array([0.7, 1.3]), 2)
    cross = orbit_match(ts, th, frame_structure_rep(2), depth=1)
    ok = worst < 1e-6 and not cross.matched and cross.reason.startswith("prescreen")
    _verdict(
        7, "orbit match", ok,
        f"within-fixture residual {worst:.2e} < 1e-6; sphere/hyperbolic "
        f"rejected by {cross.reason}",
    )


def test_criterion_08_adapted_connection():
    detail = []
    ok = True
    for lam in (2.0, 0.5):
        rep = cli.run_adapt(_cfg("adapt", "berger_sphere", {"lam": lam}, points=2))
        ok = ok and rep.singer_k is not None
        ok = ok and rep.residuals["nabla_beta"] < 1e-5
        ok = ok and rep.residuals["nabla_tower"] < 1e-5
        if lam == 2.0:
            ok = ok and rep.passed
        detail.append(
            f"lam={lam}: shift {rep.residuals['nabla_beta']:.2e}, "
            f"tower {rep.residuals['nabla_tower']:.2e}"
        )
    _verdict(8, "adapted connection", ok, "; ".join(detail) + " all < 1e-5")


def test_criterion_09_triple_criteria():
    fix = instantiate("hopf_monopole", {})
    pts = sample_interior(fix.chart, 8, seed=42)
    triple = TripleSpec(g=fix.g, a0=fix.a0)
    lh = check_lh_triple(triple, fix.gamma, fix.a0, pts)
    ls = check_ls_triple(triple, pts)
    clean = max(max(lh.residuals.values()), max(ls.residuals.values()))
    bumped = TripleSpec(g=fix.g, a0=fix.a0.shifted(fix.alpha_bump))
    bad = check_lh_triple(bumped, fix.gamma, fix.a0, pts)
    ok = (
        lh.passed and ls.passed and clean < 1e-5
        and not bad.passed and bad.residuals["nabla_alpha"] > 1e-2
    )
    _verdict(
        9, "bundle triple criteria", ok,
        f"monopole residuals {clean:.2e} < 1e-5 on both checks; bump shift "
        f"residual {bad.residuals['nabla_alpha']:.2e} > 1e-2",
    )


def test_criterion_10_total_space():
    fix = instantiate("hopf_monopole", {})
    model = TotalSpaceModel(chart=fix.chart, g=fix.g, gamma=fix.gamma,
                            algebra=fix.algebra, inner=fix.inner, a=fix.a0)
    lifts, funds = _frame_fields(model)
    frame = lifts + funds
    table_gap = 0.0
    for x in sample_interior(fix.chart, 2, seed=2):
        for u in frame:
            for v in frame:
                a = bar_torsion(model, u, v, x)
                b = bar_torsion_direct(model, u, v, x)
                table_gap = max(
                    table_gap,
                    float(np.abs(a.horizontal - b.horizontal).max()),
                    float(np.abs(a.vertical - b.vertical).max()),
                )
    pts2 = sample_interior(fix.chart, 2, seed=4)
    par = bar_parallelism_check(model, pts2)
    pts8 = sample_interior(fix.chart, 8, seed=42)
    dist_ok = distribution_parallel_check(
        model, fix.a0.shifted(fix.alpha_parallel), pts8
    )
    dist_bad = distribution_parallel_check(
        model, fix.a0.shifted(fix.alpha_bump), pts8
    )
    ok = (
        table_gap < 1e-6
        and par.passed
        and par.residuals["nabla_bar_T"] < 1e-5
        and par.residuals["nabla_bar_R"] < 1e-5
        and dist_ok.residuals["distribution"] < 1e-5
        and dist_bad.residuals["distribution"] > 1e-2
    )
    _verdict(
        10, "total-space connection", ok,
        f"torsion table vs direct {table_gap:.2e} < 1e-6; "
        f"dbar_T {par.residuals['nabla_bar_T']:.2e}, "
        f"dbar_R {par.residuals['nabla_bar_R']:.2e} < 1e-5; distribution "
        f"{dist_ok.residuals['distribution']:.2e} < 1e-5 parallel / "
        f"{dist_bad.residuals['distribution']:.2e} > 1e-2 bump",
    )


def test_criterion_11_determinism(capsys):
    configs = (
        ["--scenario", "singer", "--fixture", "round_sphere2", "--points", "2"],
        ["--scenario", "identities", "--fixture", "euclidean",
         "--param", "n=2", "--points", "2"],
    )
    ok = True
    for argv in configs:
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        ok = ok and first == second and first.endswith("\n")
        json.loads(first)
    with capsys.disabled():
        _verdict(11, "deterministic reports", ok,
                 "repeat runs byte-identical for both configurations")
