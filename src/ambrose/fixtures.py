"""Catalog of analytic geometric fixtures.

Every metric, coframe, connection form, shift field and smooth field is
written once, as a formula over Taylor jets (``ambrose.jet``): evaluated on
the coordinate jet at a point, it gives the field and all its partials up to
the requested order, so every derivative the package takes is exact to
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jet
from .bundle_conn import LocalConnectionForm
from .chart_calculus import (
    Chart,
    ConnectionCoeffs,
    FrameFieldConnection,
    MetricField,
    TensorFieldSpec,
    frame_connection_field,
    levi_civita,
)
from .errors import BadParameters, UnknownFixture
from .jet import Jet
from .lie_core import AdInvariantInner, LieAlgebra, algebra_by_name, algebra_dim, default_inner
from .tensor_core import DOWN, LIE

# largest dimension of a trivial_bundle_flat algebra; su(2)+u(1) has 4
MAX_ALGEBRA_DIM = 8


@dataclass(frozen=True)
class Fixture:
    """A chart with a metric and whatever extra structure the model carries."""

    name: str
    params: dict
    chart: Chart
    g: MetricField
    gamma: ConnectionCoeffs
    frame_conn: FrameFieldConnection | None = None
    gamma_canonical: ConnectionCoeffs | None = None
    algebra: LieAlgebra | None = None
    inner: AdInvariantInner | None = None
    a0: LocalConnectionForm | None = None
    alpha_parallel: TensorFieldSpec | None = None
    alpha_bump: TensorFieldSpec | None = None


def _constant_metric(chart: Chart, mat: np.ndarray) -> MetricField:
    return MetricField(chart=chart, evaluator=lambda X: X.lift(mat))


def _number(value, what: str, integer: bool = False) -> float:
    """A fixture parameter as a finite float, a whole one if integer. A bool,
    a non-numeric string, inf and nan raise BadParameters."""
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x) or (integer and not x.is_integer()):
        kind = "an integer" if integer else "a finite number"
        raise BadParameters(f"{what} must be {kind}, got {value!r}")
    return x


def euclidean(n: int = 2) -> Fixture:
    n = int(_number(n, "euclidean dimension", integer=True))
    if not 1 <= n <= 6:
        raise BadParameters("euclidean dimension must be an integer in 1..6")
    chart = Chart(dim=n, box=np.array([[-1.0, 1.0]] * n), margin=0.05)
    g = _constant_metric(chart, np.eye(n))
    return Fixture("euclidean", {"n": n}, chart, g, levi_civita(g))


def flat_torus_chart() -> Fixture:
    chart = Chart(dim=2, box=np.array([[0.0, 2 * np.pi]] * 2), margin=0.05)
    g = _constant_metric(chart, np.eye(2))
    return Fixture("flat_torus", {}, chart, g, levi_civita(g))


def _sphere2_chart() -> Chart:
    # polar caps excluded: coframe degenerates at sin(theta) = 0
    return Chart(
        dim=2, box=np.array([[0.2, np.pi - 0.2], [0.0, 2 * np.pi]]), margin=0.05
    )


def round_sphere2(radius: float = 1.0) -> Fixture:
    r = _number(radius, "sphere radius")
    if not r > 0:
        raise BadParameters("sphere radius must be positive")
    chart = _sphere2_chart()
    r2 = r * r
    g = MetricField(chart=chart, evaluator=lambda X: jet.array(
        [[r2, 0.0], [0.0, r2 * jet.sin(X[0]) ** 2]]))
    return Fixture("round_sphere2", {"radius": r}, chart, g, levi_civita(g))


def hyperbolic_plane() -> Fixture:
    chart = Chart(dim=2, box=np.array([[-1.0, 1.0], [0.3, 2.5]]), margin=0.05)

    def ev(X):
        w = 1.0 / X[1] ** 2
        return jet.array([[w, 0.0], [0.0, w]])

    g = MetricField(chart=chart, evaluator=ev)
    return Fixture("hyperbolic_plane", {}, chart, g, levi_civita(g))


def _su2_chart() -> Chart:
    # Euler z-y-z coordinates (phi, theta, psi); coframe singular at sin(theta) = 0
    return Chart(
        dim=3,
        box=np.array([[0.0, 2 * np.pi], [0.3, np.pi - 0.3], [0.0, 2 * np.pi]]),
        margin=0.05,
    )


def _su2_coframe(X: Jet) -> Jet:
    # theta and psi share one table of powers
    sines, cosines = jet.sincos(X[1:3])
    st, sp, ct, cp = sines[0], sines[1], cosines[0], cosines[1]
    return 0.5 * jet.array([
        [-st * cp, sp, 0.0],
        [st * sp, cp, 0.0],
        [ct, 0.0, 1.0],
    ])


def _berger_metric(chart: Chart, lam: float) -> MetricField:
    d = np.diag([lam * lam, 1.0, 1.0])

    def ev(X):
        th = _su2_coframe(X)
        return jet.einsum("ai,ab,bj->ij", th, d, th)

    return MetricField(chart=chart, evaluator=ev)


def berger_sphere(lam: float = 2.0) -> Fixture:
    lam = _number(lam, "berger squash parameter")
    if not lam > 0:
        raise BadParameters("berger squash parameter must be positive")
    chart = _su2_chart()
    g = _berger_metric(chart, lam)
    frame_conn = FrameFieldConnection(chart=chart, coframe=_su2_coframe,
                                      gamma=np.zeros((3, 3, 3)))
    return Fixture(
        "berger_sphere",
        {"lam": lam},
        chart,
        g,
        levi_civita(g),
        frame_conn=frame_conn,
        gamma_canonical=frame_connection_field(frame_conn),
        algebra=algebra_by_name("su(2)"),
    )


def round_sphere3() -> Fixture:
    fx = berger_sphere(1.0)
    return Fixture("round_sphere3", {}, fx.chart, fx.g, fx.gamma,
                   frame_conn=fx.frame_conn, gamma_canonical=fx.gamma_canonical,
                   algebra=fx.algebra)


def _monopole_form(chart: Chart, algebra: LieAlgebra,
                   charge: int) -> LocalConnectionForm:
    half_q = 0.5 * charge
    return LocalConnectionForm(chart=chart, algebra=algebra, evaluator=lambda X: jet.array(
        [[0.0, 0.0, 0.0], [0.0, 0.0, half_q * (1.0 - jet.cos(X[0]))]]))


def _parallel_shift_field(chart: Chart) -> TensorFieldSpec:
    """Adjoint-valued 1-form invariant under the monopole holonomy; rows over
    (theta, phi), values in the su(2) basis."""

    def ev(X):
        st = jet.sin(X[0])
        sp, cp = jet.sincos(X[1])
        return jet.array([[cp, -sp, 0.0], [-st * sp, -st * cp, 0.0]])

    return TensorFieldSpec(chart=chart, markers=(DOWN, LIE), evaluator=ev)


def _bump_shift_field(chart: Chart, algebra: LieAlgebra) -> TensorFieldSpec:
    """A localized non-parallel shift used as a negative control."""
    c0, c1 = 0.5 * np.pi, np.pi
    corner = np.zeros((2, algebra.dim))
    corner[0, 0] = 1.0

    def ev(X):
        return jet.exp(-((X[0] - c0) ** 2 + (X[1] - c1) ** 2) / 0.5) * corner

    return TensorFieldSpec(chart=chart, markers=(DOWN, LIE), evaluator=ev)


def hopf_monopole(charge: int = 1) -> Fixture:
    charge = int(_number(charge, "monopole charge", integer=True))
    base = round_sphere2(1.0)
    algebra = algebra_by_name("su(2)")
    return Fixture(
        "hopf_monopole",
        {"charge": charge},
        base.chart,
        base.g,
        base.gamma,
        algebra=algebra,
        inner=default_inner(algebra),
        a0=_monopole_form(base.chart, algebra, charge),
        alpha_parallel=_parallel_shift_field(base.chart) if charge == 1 else None,
        alpha_bump=_bump_shift_field(base.chart, algebra),
    )


def trivial_bundle_flat(algebra: str = "su(2)") -> Fixture:
    if not isinstance(algebra, str):
        raise BadParameters(f"algebra must be a name such as su(2)+u(1), got {algebra!r}")
    if algebra_dim(algebra) > MAX_ALGEBRA_DIM:
        raise BadParameters(f"algebra {algebra!r} has dimension above {MAX_ALGEBRA_DIM}")
    alg = algebra_by_name(algebra)
    base = euclidean(2)
    zero = LocalConnectionForm(chart=base.chart, algebra=alg,
                               evaluator=lambda X: X.lift(np.zeros((2, alg.dim))))
    return Fixture(
        "trivial_bundle_flat",
        {"algebra": algebra},
        base.chart,
        base.g,
        base.gamma,
        algebra=alg,
        inner=default_inner(alg),
        a0=zero,
        alpha_bump=_bump_shift_field(base.chart, alg),
    )


def smooth_tensor_field(chart: Chart, markers: tuple[str, ...], seed: int,
                        algebra: LieAlgebra | None = None,
                        amplitude: float = 0.5) -> TensorFieldSpec:
    """Deterministic smooth trigonometric field."""
    rng = np.random.default_rng(seed)
    n = chart.dim
    if LIE in markers and algebra is None:
        raise BadParameters("lie axes need an algebra")
    dims = tuple(
        (algebra.dim if m == LIE else n) for m in markers
    )
    amp = amplitude * rng.uniform(-1.0, 1.0, size=dims)
    phase = rng.uniform(0.0, 2 * np.pi, size=dims)
    freq = rng.integers(1, 3, size=dims + (n,)).astype(float)
    lo = chart.box[:, 0]
    wid = chart.box[:, 1] - chart.box[:, 0]

    def ev(X):
        u = (X - lo) * (2 * np.pi / wid)
        # an ordered sum over the coordinates, so that each point's bits do
        # not depend on the batch it is evaluated in
        return jet.sin(sum(freq[..., mu] * u[mu] for mu in range(n)) + phase) * amp

    return TensorFieldSpec(chart=chart, markers=markers, evaluator=ev)


def smooth_connection_form(chart: Chart, algebra: LieAlgebra, seed: int,
                           amplitude: float = 0.5) -> LocalConnectionForm:
    """Deterministic smooth algebra-valued form."""
    field = smooth_tensor_field(chart, (DOWN, LIE), seed, algebra, amplitude)
    return LocalConnectionForm(chart=chart, algebra=algebra, evaluator=field.evaluator)


_CATALOG = {
    "euclidean": (euclidean, {"n"}),
    "flat_torus": (flat_torus_chart, set()),
    "round_sphere2": (round_sphere2, {"radius"}),
    "hyperbolic_plane": (hyperbolic_plane, set()),
    "round_sphere3": (round_sphere3, set()),
    "berger_sphere": (berger_sphere, {"lam"}),
    "hopf_monopole": (hopf_monopole, {"charge"}),
    "trivial_bundle_flat": (trivial_bundle_flat, {"algebra"}),
}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def instantiate(name: str, params: dict | None = None) -> Fixture:
    if name not in _CATALOG:
        raise UnknownFixture(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        )
    builder, allowed = _CATALOG[name]
    params = dict(params or {})
    extra = set(params) - allowed
    if extra:
        raise BadParameters(
            f"fixture {name!r} does not take parameters {sorted(extra)}"
        )
    return builder(**params)
