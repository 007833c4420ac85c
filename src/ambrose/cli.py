"""Command line runner emitting deterministic JSON verification reports.

Reports are serialized with sorted keys and 12-significant-digit floats so
that identical runs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
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
    adapted_residuals,
    check_lh_triple,
    check_ls_triple,
    opozda_section_spec,
    towers_and_chains,
)
from .lie_core import (
    algebra_by_name,
    default_inner,
    frame_structure_rep,
)
from .tensor_core import DOWN, LIE, point_norms
from .total_space import TotalSpaceModel, total_space_check

# Every report's residual keys with their default tolerances, by scenario.
TOLERANCES = {
    "singer": {"nesting_angle": 1e-6, "subalgebra": 1e-7},
    "adapt": {"nabla_beta": 1e-5, "nabla_tower": 1e-5},
    "check-lh-triple": dict.fromkeys(("nabla_R", "nabla_T", "nabla_F", "nabla_alpha"), 1e-5),
    "check-ls-triple": dict.fromkeys(("nabla_Rg", "nabla_F0"), 1e-5),
    "total-space": {
        **dict.fromkeys(("nabla_R", "nabla_T", "nabla_F", "alpha_parallel"), 1e-6),
        **dict.fromkeys(("nabla_bar_T", "nabla_bar_R", "distribution"), 1e-5),
    },
    "identities": dict.fromkeys(
        ("nabla_g", "bianchi_first", "bianchi_second", "curvature_variation",
         "connection_variation", "leibniz"), 1e-6),
}
# the total-space residuals that are hypotheses of its criteria, judged by
# hypotheses_hold
HYPOTHESES = ("nabla_R", "nabla_T", "nabla_F", "alpha_parallel")

# flags that fail a report whatever its residuals
BAD_FLAGS = ("ambiguous", "truncated", "dims-vary", "singer-varies", "hypotheses-failed",
             "numerical-failure")

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
        # the keys are RunConfig's fields; a misspelt one is not ignored
        known = [f.name for f in fields(RunConfig)]
        unknown = sorted(set(base) - set(known))
        if unknown:
            raise ConfigError(f"unknown config key(s) {', '.join(unknown)}; "
                              f"known: {', '.join(known)}")
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
    # only the scenarios that build a tower read kmax
    if kmax is not None and scenario not in ("singer", "adapt", "selftest"):
        raise ConfigError(f"scenario {scenario} builds no tower and does not read kmax")
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
# reports: deterministic serialization, and the verdict


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


def verdict(residuals: dict[str, float], tolerances: dict[str, float],
            flags: tuple[str, ...] | list[str] = ()) -> bool:
    """Pass iff every residual is below its tolerance (NaN is not) and no
    flag is in BAD_FLAGS."""
    return (all(residuals[k] < tolerances[k] for k in tolerances)
            and not any(f in BAD_FLAGS for f in flags))


def hypotheses_hold(residuals: dict[str, float]) -> bool:
    """Each total-space hypothesis among the residuals is within its
    default tolerance, whatever the overrides (NaN is not)."""
    tol = TOLERANCES["total-space"]
    return all(residuals[k] <= tol[k] for k in HYPOTHESES if k in residuals)


def make_report(cfg: RunConfig, points: np.ndarray, residuals: dict[str, float],
                flags: tuple[str, ...] | list[str] = (),
                stabilizer_dims: tuple[int, ...] | None = None,
                singer_k: int | None = None) -> dict:
    """The run's report, ready to serialize: each residual's tolerance is
    its --tol override (a named key winning over ``default``) or else its
    default in TOLERANCES, and ``pass`` is the verdict on them and the
    flags."""
    tols = cfg.tols
    tolerances = {k: float(tols.get(k, tols.get("default", TOLERANCES[cfg.scenario][k])))
                  for k in residuals}
    points = np.atleast_2d(np.asarray(points, float))
    return {
        "scenario": cfg.scenario,
        "fixture": cfg.fixture,
        "params": dict(cfg.params),
        "points": [[float(v) for v in row] for row in points] if points.size else [],
        "residuals": {k: float(v) for k, v in residuals.items()},
        "stabilizer_dims": list(stabilizer_dims) if stabilizer_dims is not None else None,
        "singer_k": singer_k,
        "pass": verdict(residuals, tolerances, flags),
        "tolerances": tolerances,
        "flags": list(flags),
    }


# ---------------------------------------------------------------------------
# scenario runners


def _fixture(cfg: RunConfig) -> Fixture:
    params = {k: v for k, v in cfg.params.items() if k not in SCENARIO_PARAMS.get(cfg.scenario, ())}
    try:
        return instantiate(cfg.fixture, params)
    except (UnknownFixture, BadParameters) as exc:
        raise ConfigError(str(exc)) from exc


def _require_bundle(fix: Fixture) -> None:
    if fix.a0 is None:
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


def _tower_report(cfg: RunConfig, fix: Fixture, gamma0, rep, check) -> dict:
    """The report of singer or adapt from one pass over the sample points:
    the towers and chains of gamma0's section, each point built once by
    towers_and_chains (grown to singer_k + 2, or at --kmax), with the
    residuals the largest of check's on each build. The flags are every
    chain's, plus dims-vary if the dims differ and singer-varies if the
    Singer stages do; the report gives the first point's Singer stage and
    its dims through it (all of them if its chain is truncated)."""
    points = sample_interior(fix.chart, cfg.points, cfg.seed)
    # each point's dims and Singer stage, not its chain: a run holds one
    # batch of kernel bases at a time
    stages, flags, rows = [None] * len(points), set(), []
    for todo, levels, built in towers_and_chains(opozda_section_spec(gamma0), None, gamma0,
                                                 fix.g, points, rep, kmax=cfg.kmax):
        for i, chain in zip(todo, built):
            stages[i] = chain.dims, chain.singer_k
            flags.update(chain.flags)
        rows.append(check(levels, built))
    flags = sorted(flags)
    if len({dims for dims, _ in stages}) > 1:
        flags.append("dims-vary")
    if len({singer_k for _, singer_k in stages}) > 1:
        flags.append("singer-varies")
    dims, singer_k = stages[0]
    return make_report(cfg, points, max_over_batches(rows), flags, singer_k=singer_k,
                       stabilizer_dims=dims if singer_k is None else dims[:singer_k + 1])


def run_singer(cfg: RunConfig) -> dict:
    fix = _fixture(cfg)
    return _tower_report(cfg, fix, _connection_choice(fix, cfg.params), _frame_rep(fix, "singer"),
                         lambda levels, chains: {
                             "nesting_angle": nan_max(a for ch in chains for a in ch.nesting),
                             "subalgebra": nan_max(s for ch in chains for s in ch.subalgebra)})


def run_check_lh(cfg: RunConfig) -> dict:
    fix = _fixture(cfg)
    _require_bundle(fix)
    a0 = _reference_form(fix, cfg.params.get("perturb"), "perturb")
    points = sample_interior(fix.chart, cfg.points, cfg.seed)
    return make_report(cfg, points, check_lh_triple(fix.g, a0, fix.gamma, fix.a0, points))


def run_check_ls(cfg: RunConfig) -> dict:
    fix = _fixture(cfg)
    _require_bundle(fix)
    a0 = _reference_form(fix, cfg.params.get("perturb"), "perturb")
    points = sample_interior(fix.chart, cfg.points, cfg.seed)
    return make_report(cfg, points, check_ls_triple(fix.g, a0, points))


def run_adapt(cfg: RunConfig) -> dict:
    """Construct the adapted connection of the Levi-Civita connection from
    its tower and check that it parallelizes its shift and the tower up to
    depth k_S + 1.

    The towers, chains, flags and report keys are singer's, from its one
    pass (_tower_report): each point's tower is grown to depth k_S + 2, the
    depth ``adapted_residuals`` reads, or built at --kmax, and each build
    is checked as it comes. A chain that did not stabilize, or a tower
    below k_S + 2, fails the run closed; chains that stabilize at other
    stages raise singer-varies. A fixture with a bundle form is refused:
    its triple tower is not built here."""
    fix = _fixture(cfg)
    if fix.a0 is not None:
        raise ConfigError(f"adapt does not construct the connection of a bundle; "
                          f"fixture {fix.name!r} carries a bundle form")
    rep = _frame_rep(fix, "adapt")
    inner = default_inner(rep.algebra)
    return _tower_report(cfg, fix, fix.gamma, rep, lambda levels, chains:
                         adapted_residuals(levels, chains, rep, inner))


def run_total_space(cfg: RunConfig) -> dict:
    fix = _fixture(cfg)
    _require_bundle(fix)
    model = TotalSpaceModel(g=fix.g, gamma=fix.gamma, a=fix.a0)
    a0_ref = _reference_form(fix, cfg.params.get("alpha"), "alpha")
    points = sample_interior(fix.chart, cfg.points, cfg.seed)
    residuals = total_space_check(model, a0_ref, points)
    return make_report(cfg, points, residuals,
                       [] if hypotheses_hold(residuals) else ["hypotheses-failed"])


def run_identities(cfg: RunConfig) -> dict:
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
    section = (TensorFieldSpec(markers=(DOWN, DOWN),
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
            "curvature_variation": curvature_variation_check(a, a_prime, alpha, batch),
            "connection_variation": connection_variation_check(eta, a, a_prime, gamma, batch),
            "leibniz": leibniz_check(beta, eta, a, gamma, batch),
        }

    return make_report(cfg, points, max_over_chunks(check, points))


def run_selftest(cfg: RunConfig) -> dict:
    """The battery's reports as one: their residuals and tolerances under
    the scenario's prefix, the sorted union of their flags, and a pass if
    every one passes."""
    subs = {scenario: RUNNERS[scenario](replace(cfg, scenario=scenario, fixture=fixture,
                                                params=params, out=None))
            for scenario, fixture, params in SELFTEST_BATTERY}
    merged = {key: {f"{scenario}.{k}": v for scenario, sub in subs.items()
                    for k, v in sub[key].items()} for key in ("residuals", "tolerances")}
    flags = sorted({f for sub in subs.values() for f in sub["flags"]})
    return {**make_report(cfg, [], {}, flags), **merged,
            "pass": all(sub["pass"] for sub in subs.values())}


RUNNERS = {
    "singer": run_singer,
    "check-lh-triple": run_check_lh,
    "check-ls-triple": run_check_ls,
    "adapt": run_adapt,
    "total-space": run_total_space,
    "identities": run_identities,
    "selftest": run_selftest,
}
SCENARIOS = tuple(RUNNERS)


# ---------------------------------------------------------------------------
# entry point


def run_scenario(cfg: RunConfig) -> dict:
    return RUNNERS[cfg.scenario](cfg)


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
        # the partial report: no residuals, the error among its flags
        _emit(make_report(cfg, [], {}, ("numerical-failure", f"error: {exc}")), cfg.out)
        return 3
    _emit(report, cfg.out)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
