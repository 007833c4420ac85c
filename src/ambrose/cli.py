"""Command line runner emitting deterministic JSON verification reports.

Reports are serialized with sorted keys and 12-significant-digit floats so
that identical runs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from . import jet
from .bundle_conn import (
    bianchi_residual,
    connection_variation_check,
    curvature_variation_check,
    leibniz_check,
)
from .chart_calculus import (
    TensorFieldSpec,
    curvature_field,
    frame_levels,
    max_over_batches,
    max_over_chunks,
    nan_max,
    sample_interior,
)
from .errors import (
    AmbroseError,
    BadParameters,
    ConfigError,
    NumericalFailure,
    UnknownFixture,
)
from .fixtures import (
    Fixture,
    fixture_names,
    instantiate,
    smooth_connection_form,
    smooth_tensor_field,
)
from .homogeneity import (
    KMAX_CAP,
    TOLERANCES,
    VerificationReport,
    adapted_residuals,
    check_lh_triple,
    check_ls_triple,
    make_report,
    opozda_section_spec,
    towers_and_chains,
    verdict,
)
from .lie_core import (
    algebra_by_name,
    default_inner,
    frame_structure_rep,
)
from .tensor_core import DOWN, LIE, point_norms
from .total_space import TotalSpaceModel, total_space_check

SCENARIOS = (
    "singer",
    "check-lh-triple",
    "check-ls-triple",
    "adapt",
    "total-space",
    "identities",
    "selftest",
)

# The parameters a scenario reads itself (adapt, identities and selftest read
# none); the rest go to the fixture, and another scenario's are rejected.
SCENARIO_PARAMS = {"singer": ("connection",), "check-lh-triple": ("perturb",),
                   "check-ls-triple": ("perturb",), "total-space": ("alpha",)}

# The most sample points a run takes. The sampler's arrays peak at about
# 1.7 KB per point, so this bounds them at about 17 MB, far above the tens
# of points a run needs; a larger count fails closed before it allocates.
POINTS_CAP = 10_000

SELFTEST_BATTERY = (
    ("identities", "euclidean", {"n": 2}),
    ("singer", "round_sphere2", {}),
    ("check-ls-triple", "hopf_monopole", {}),
)


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    fixture: str
    params: dict
    points: int
    seed: int
    tols: dict
    kmax: int | None
    out: str | None


# ---------------------------------------------------------------------------
# configuration


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_pairs(items: list[str] | None, label: str, numeric: bool) -> dict:
    out: dict = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"{label} entries need key=value form, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{label} entry has an empty key: {item!r}")
        if numeric:
            try:
                out[key] = float(raw)
            except ValueError as exc:
                raise ConfigError(f"{label} value for {key!r} is not a number") from exc
        else:
            out[key] = _parse_value(raw)
    return out


def _is_int(value) -> bool:
    """An int that is not a bool (JSON true/false load as bool, a subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args on it is
    re-entrant, and its repeatable flags default to None, so no list is
    shared between calls."""
    parser = argparse.ArgumentParser(
        prog="ambrose",
        description="Run a verification scenario on a catalog fixture and "
        "print a deterministic JSON report.",
    )
    parser.add_argument("--config", help="JSON file with the same keys as the flags")
    parser.add_argument("--scenario", choices=SCENARIOS)
    parser.add_argument("--fixture")
    parser.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="fixture or scenario parameter, repeatable",
    )
    parser.add_argument("--points", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help="override default (every residual) or one residual's tolerance, repeatable",
    )
    parser.add_argument("--kmax", type=int)
    parser.add_argument("--out", help="write the report here instead of stdout")
    return parser


def parse_config(argv: list[str] | None = None) -> RunConfig:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise ConfigError("invalid command line") from exc
        raise
    base: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                base = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(base, dict):
            raise ConfigError("config file must hold a JSON object")
    params = base.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config file params must be a JSON object")
    params = dict(params)
    params.update(_parse_pairs(args.param, "--param", numeric=False))
    try:
        tols = dict(base.get("tols", {}))
        # JSON true and false load as bools, which float takes as 1.0 and 0.0
        if any(isinstance(v, bool) for v in tols.values()):
            raise TypeError("a tolerance is a boolean")
        tols = {k: float(v) for k, v in tols.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError("config file tols must map names to numbers") from exc
    tols.update(_parse_pairs(args.tol, "--tol", numeric=True))
    scenario = args.scenario or base.get("scenario")
    fixture = args.fixture or base.get("fixture")
    points = args.points if args.points is not None else base.get("points", 8)
    seed = args.seed if args.seed is not None else base.get("seed", 42)
    kmax = args.kmax if args.kmax is not None else base.get("kmax")
    out = args.out or base.get("out")
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"scenario must be one of {', '.join(SCENARIOS)}, got {scenario!r}"
        )
    unread = sorted(k for k in params if k not in SCENARIO_PARAMS.get(scenario, ())
                    and any(k in ps for ps in SCENARIO_PARAMS.values()))
    if unread:
        raise ConfigError(f"scenario {scenario} does not read parameter(s) {', '.join(unread)}")
    if scenario == "selftest":
        # its battery fixes the fixtures and their parameters
        for option, value in (("--fixture", fixture), ("--param", ", ".join(params))):
            if value:
                raise ConfigError(f"scenario selftest takes no {option}, got {value}")
    elif not fixture:
        raise ConfigError("a fixture name is required (see --fixture)")
    elif fixture not in fixture_names():
        raise ConfigError(
            f"unknown fixture {fixture!r}; available: {', '.join(fixture_names())}"
        )
    if not _is_int(points) or not 1 <= points <= POINTS_CAP:
        raise ConfigError(f"points must be an integer in 1..{POINTS_CAP}")
    if not _is_int(seed) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    if kmax is not None and (not _is_int(kmax) or not 1 <= kmax <= KMAX_CAP):
        raise ConfigError(f"kmax must be an integer in 1..{KMAX_CAP}")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a file name")
    # a tolerance name is `default` or a residual key of the scenario; for
    # selftest, of a scenario of its battery (without the `scenario.` prefix)
    battery = [s for s, _, _ in SELFTEST_BATTERY] if scenario == "selftest" else [scenario]
    known = {k for s in battery for k in TOLERANCES[s]}
    unknown = sorted(set(tols) - known - {"default"})
    if unknown:
        raise ConfigError(
            f"unknown tolerance name(s) {', '.join(unknown)}; "
            f"known: default, {', '.join(sorted(known))}"
        )
    return RunConfig(
        scenario=scenario,
        fixture=fixture or "",
        params=params,
        points=points,
        seed=seed,
        tols=tols,
        kmax=kmax,
        out=out,
    )


# ---------------------------------------------------------------------------
# deterministic serialization


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    text = format(x, ".12g")
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


def _encode(obj) -> str:
    if isinstance(obj, dict):
        body = ",".join(
            json.dumps(str(k)) + ":" + _encode(v) for k, v in sorted(obj.items())
        )
        return "{" + body + "}"
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_encode(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ConfigError(f"cannot serialize report value of type {type(obj).__name__}")


def dumps_report(report: dict) -> str:
    return _encode(report) + "\n"


def report_dict(rep: VerificationReport, params: dict) -> dict:
    points = np.atleast_2d(np.asarray(rep.points, float))
    return {
        "scenario": rep.scenario,
        "fixture": rep.fixture,
        "params": dict(params),
        "points": [[float(v) for v in row] for row in points] if points.size else [],
        "residuals": {k: float(v) for k, v in rep.residuals.items()},
        "stabilizer_dims": (
            list(rep.stabilizer_dims) if rep.stabilizer_dims is not None else None
        ),
        "singer_k": rep.singer_k,
        "pass": bool(rep.passed),
        "tolerances": {k: float(v) for k, v in rep.tolerances.items()},
        "flags": list(rep.flags),
    }


def _retolerance(rep: VerificationReport, tols: dict) -> VerificationReport:
    """Apply tolerance overrides and recompute the verdict: ``default`` sets
    every tolerance of the report, and a named key wins over it."""
    overrides = {k: tols.get(k, tols.get("default")) for k in rep.tolerances
                 if k in tols or "default" in tols}
    if not overrides:
        return rep
    tolerances = {**rep.tolerances, **overrides}
    return replace(rep, tolerances=tolerances,
                   passed=verdict(rep.residuals, tolerances, rep.flags))


# ---------------------------------------------------------------------------
# scenario runners


def _fixture(cfg: RunConfig) -> Fixture:
    params = {k: v for k, v in cfg.params.items() if k not in SCENARIO_PARAMS.get(cfg.scenario, ())}
    try:
        return instantiate(cfg.fixture, params)
    except (UnknownFixture, BadParameters) as exc:
        raise ConfigError(str(exc)) from exc


def _require_bundle(fix: Fixture) -> None:
    if fix.a0 is None or fix.algebra is None or fix.inner is None:
        raise ConfigError(
            f"fixture {fix.name!r} carries no bundle connection; "
            "use hopf_monopole or trivial_bundle_flat"
        )


def _reference_form(fix: Fixture, choice, what: str):
    """Reference connection form, optionally shifted by a catalog 1-form."""
    if choice in (None, "none"):
        return fix.a0
    if choice == "parallel":
        if fix.alpha_parallel is None:
            raise ConfigError(f"fixture {fix.name!r} has no parallel shift form")
        return fix.a0.shifted(fix.alpha_parallel)
    if choice == "bump":
        if fix.alpha_bump is None:
            raise ConfigError(f"fixture {fix.name!r} has no bump shift form")
        return fix.a0.shifted(fix.alpha_bump)
    raise ConfigError(f"{what} must be none, parallel, or bump, got {choice!r}")


def _frame_rep(fix: Fixture, scenario: str):
    """so(n) acting on the frames of the fixture's n-dimensional chart."""
    if fix.chart.dim < 2:
        raise ConfigError(f"{scenario} needs a chart of dimension 2 or more, got {fix.chart.dim}")
    return frame_structure_rep(fix.chart.dim)


def _connection_choice(fix: Fixture, params: dict):
    choice = params.get("connection")
    if choice is None:
        choice = "canonical" if fix.gamma_canonical is not None else "metric"
    if choice == "canonical":
        if fix.gamma_canonical is None:
            raise ConfigError(f"fixture {fix.name!r} has no canonical connection")
        return fix.gamma_canonical
    if choice == "metric":
        return fix.gamma
    raise ConfigError(f"connection must be metric or canonical, got {choice!r}")


def run_singer(cfg: RunConfig) -> VerificationReport:
    fix = _fixture(cfg)
    gamma0 = _connection_choice(fix, cfg.params)
    sigma = opozda_section_spec(gamma0)
    rep = _frame_rep(fix, "singer")
    points = sample_interior(fix.chart, cfg.points, cfg.seed)
    chains = [None] * len(points)
    for todo, _, built in towers_and_chains(sigma, None, gamma0, fix.g, points, rep, kmax=cfg.kmax):
        for i, chain in zip(todo, built):
            chains[i] = chain
    flags = sorted({f for ch in chains for f in ch.flags})
    if len({ch.dims for ch in chains}) > 1:
        flags.append("dims-vary")
    if len({ch.singer_k for ch in chains}) > 1:
        flags.append("singer-varies")
    residuals = {"nesting_angle": nan_max(a for ch in chains for a in ch.nesting),
                 "subalgebra": nan_max(s for ch in chains for s in ch.subalgebra)}
    singer_k, dims = chains[0].singer_k, chains[0].dims
    return make_report("singer", fix.name, points, residuals, flags, singer_k=singer_k,
                       stabilizer_dims=dims if singer_k is None else dims[:singer_k + 1])


def run_check_lh(cfg: RunConfig) -> VerificationReport:
    fix = _fixture(cfg)
    _require_bundle(fix)
    a0 = _reference_form(fix, cfg.params.get("perturb"), "perturb")
    points = sample_interior(fix.chart, cfg.points, cfg.seed)
    return check_lh_triple(fix.g, a0, fix.gamma, fix.a0, points, fixture=fix.name)


def run_check_ls(cfg: RunConfig) -> VerificationReport:
    fix = _fixture(cfg)
    _require_bundle(fix)
    a0 = _reference_form(fix, cfg.params.get("perturb"), "perturb")
    points = sample_interior(fix.chart, cfg.points, cfg.seed)
    return check_ls_triple(fix.g, a0, points, fixture=fix.name)


def run_adapt(cfg: RunConfig) -> VerificationReport:
    """Construct the adapted connection of the Levi-Civita connection from
    its tower and check that it parallelizes its shift and the tower up to
    depth k_S + 1.

    The Singer stage k_S is read from the chain at the first sample point,
    grown from KMAX_START (or built at --kmax); that tower is a batch of its
    own if it reaches the k_S + 2 that ``adapted_residuals`` reads. The other
    towers, of depth k_S + 2, are checked batch by batch as
    ``towers_and_chains`` builds them. Under infinitesimal homogeneity k_S
    is the same at every point: a chain that stabilizes elsewhere raises
    NumericalFailure. The flags are every chain's, and dims-vary if its dims
    through level k_S + 1 differ. A fixture with a bundle form is refused:
    its triple tower is not built here."""
    fix = _fixture(cfg)
    if fix.a0 is not None:
        raise ConfigError(f"adapt does not construct the connection of a bundle; "
                          f"fixture {fix.name!r} carries a bundle form")
    rep = _frame_rep(fix, "adapt")
    inner = default_inner(rep.algebra)
    sigma = opozda_section_spec(fix.gamma)
    points = sample_interior(fix.chart, cfg.points, cfg.seed)
    *_, probe = towers_and_chains(sigma, None, fix.gamma, fix.g, points[:1], rep, kmax=cfg.kmax)
    singer_k, dims, flags = probe[2][0].singer_k, probe[2][0].dims, set(probe[2][0].flags)
    if singer_k is None:
        raise ConfigError("stabilizer chain did not stabilize within the cap")
    depth = singer_k + 2

    def check(at, levels, chains):
        for x, chain in zip(at, chains):
            if chain.singer_k != singer_k:
                raise NumericalFailure(
                    f"stabilizer chain at {x} stabilizes at stage {chain.singer_k}, "
                    f"not at the first sample point's {singer_k}"
                )
            flags.update(chain.flags)
            if chain.dims[:depth] != dims[:depth]:
                flags.add("dims-vary")
        return adapted_residuals(levels, chains, rep, inner)

    rows = [check(points[:1], *probe[1:])] if len(probe[1]) > depth else []
    rest = points[len(rows):]
    residuals = max_over_batches(rows + [check(rest[todo], *build) for todo, *build in
                                         towers_and_chains(sigma, None, fix.gamma, fix.g, rest,
                                                           rep, kmax=depth)])
    return make_report("adapt", fix.name, points, residuals, sorted(flags),
                       stabilizer_dims=tuple(dims[:singer_k + 1]), singer_k=singer_k)


def run_total_space(cfg: RunConfig) -> VerificationReport:
    fix = _fixture(cfg)
    _require_bundle(fix)
    model = TotalSpaceModel(
        chart=fix.chart,
        g=fix.g,
        gamma=fix.gamma,
        algebra=fix.algebra,
        inner=fix.inner,
        a=fix.a0,
    )
    a0_ref = _reference_form(fix, cfg.params.get("alpha"), "alpha")
    points = sample_interior(fix.chart, cfg.points, cfg.seed)
    return total_space_check(model, a0_ref, points, fixture=fix.name)


def run_identities(cfg: RunConfig) -> VerificationReport:
    fix = _fixture(cfg)
    algebra = fix.algebra if fix.algebra is not None else algebra_by_name("su(2)")
    chart = fix.chart
    gamma = fix.gamma
    a = smooth_connection_form(chart, algebra, seed=cfg.seed)
    alpha = smooth_tensor_field(chart, (DOWN, LIE), cfg.seed + 1, algebra)
    eta = (smooth_tensor_field(chart, (LIE,), cfg.seed + 2, algebra),
           smooth_tensor_field(chart, (DOWN, LIE), cfg.seed + 3, algebra))
    beta = smooth_tensor_field(chart, (DOWN, LIE), cfg.seed + 4, algebra)
    a_prime = a.shifted(alpha)
    # g read off its memo, which the Christoffel symbols fill
    section = (TensorFieldSpec(chart=chart, markers=(DOWN, DOWN),
                               evaluator=lambda X: fix.g.jet_at(X.value.T, X.order)),
               curvature_field(gamma))
    points = sample_interior(chart, cfg.points, cfg.seed)

    def check(batch: np.ndarray) -> dict[str, float]:
        # first, so that Gamma is evaluated once, at the highest order the
        # checks read: del g (level 1) and R in the frames (level 0)
        fields, derivatives = frame_levels(section, None, gamma, fix.g, batch, 1)
        r_hat = jet.points_last(fields[1][1])
        cyc = (
            r_hat
            + np.transpose(r_hat, (0, 2, 3, 1, 4))
            + np.transpose(r_hat, (0, 3, 1, 2, 4))
        )
        return {
            "nabla_g": nan_max(point_norms(jet.points_last(derivatives[0][1]))),
            "bianchi_first": nan_max(point_norms(cyc)),
            "bianchi_second": bianchi_residual(a, batch),
            "curvature_variation": curvature_variation_check(a, alpha, batch),
            "connection_variation": connection_variation_check(eta, a, a_prime, gamma, batch),
            "leibniz": leibniz_check(beta, eta, a, gamma, batch),
        }

    return make_report("identities", fix.name, points, max_over_chunks(check, points))


def run_selftest(cfg: RunConfig) -> VerificationReport:
    residuals: dict[str, float] = {}
    tolerances: dict[str, float] = {}
    passed = True
    for scenario, fixture, params in SELFTEST_BATTERY:
        sub = replace(
            cfg, scenario=scenario, fixture=fixture, params=params, out=None
        )
        rep = _retolerance(RUNNERS[scenario](sub), sub.tols)
        for key, value in rep.residuals.items():
            residuals[f"{scenario}.{key}"] = value
            tolerances[f"{scenario}.{key}"] = rep.tolerances[key]
        passed = passed and rep.passed
    return VerificationReport(
        scenario="selftest",
        fixture="",
        points=np.zeros((0, 0)),
        residuals=residuals,
        tolerances=tolerances,
        passed=passed,
    )


RUNNERS = {
    "singer": run_singer,
    "check-lh-triple": run_check_lh,
    "check-ls-triple": run_check_ls,
    "adapt": run_adapt,
    "total-space": run_total_space,
    "identities": run_identities,
    "selftest": run_selftest,
}


# ---------------------------------------------------------------------------
# entry point


def run_scenario(cfg: RunConfig) -> dict:
    rep = RUNNERS[cfg.scenario](cfg)
    # selftest has applied the overrides to each of its sub-reports
    if cfg.scenario != "selftest":
        rep = _retolerance(rep, cfg.tols)
    return report_dict(rep, cfg.params)


def _partial_report(cfg: RunConfig, exc: Exception) -> dict:
    rep = make_report(cfg.scenario, cfg.fixture, np.zeros((0, 0)), {},
                      ("numerical-failure", f"error: {exc}"))
    return report_dict(rep, cfg.params)


def _emit(report: dict, out: str | None) -> None:
    text = dumps_report(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_scenario(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (AmbroseError, np.linalg.LinAlgError, FloatingPointError) as exc:
        _emit(_partial_report(cfg, exc), cfg.out)
        return 3
    _emit(report, cfg.out)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
