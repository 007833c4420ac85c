"""Catalog of analytic geometric fixtures.

Every metric and moving frame carries hand-coded first and second coordinate
partials, and every field returns its partials along all coordinates in one
call, stacked on a leading axis.  Levi-Civita coefficients and curvature thus
evaluate pointwise exactly; finite differences only enter at the outermost
derivative level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
from .lie_core import AdInvariantInner, LieAlgebra, algebra_by_name, default_inner
from .tensor_core import DOWN, LIE, DenseTensor


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
    n = chart.dim
    return MetricField(
        chart=chart,
        evaluator=lambda x: mat,
        partial_evaluator=lambda x: np.zeros((n, n, n)),
        second_partial_evaluator=lambda x: np.zeros((n, n, n, n)),
    )


def euclidean(n: int = 2) -> Fixture:
    if not isinstance(n, int) or n < 1 or n > 6:
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
    r = float(radius)
    if not r > 0:
        raise BadParameters("sphere radius must be positive")
    chart = _sphere2_chart()
    r2 = r * r

    def ev(x):
        return np.diag([r2, r2 * np.sin(x[0]) ** 2])

    def p(x):
        out = np.zeros((2, 2, 2))
        out[0, 1, 1] = r2 * np.sin(2 * x[0])
        return out

    def pp(x):
        out = np.zeros((2, 2, 2, 2))
        out[0, 0, 1, 1] = 2 * r2 * np.cos(2 * x[0])
        return out

    g = MetricField(chart=chart, evaluator=ev, partial_evaluator=p,
                    second_partial_evaluator=pp)
    return Fixture("round_sphere2", {"radius": r}, chart, g, levi_civita(g))


def hyperbolic_plane() -> Fixture:
    chart = Chart(dim=2, box=np.array([[-1.0, 1.0], [0.3, 2.5]]), margin=0.05)

    def ev(x):
        return np.diag([1.0 / x[1] ** 2] * 2)

    def p(x):
        out = np.zeros((2, 2, 2))
        out[1, 0, 0] = out[1, 1, 1] = -2.0 / x[1] ** 3
        return out

    def pp(x):
        out = np.zeros((2, 2, 2, 2))
        out[1, 1, 0, 0] = out[1, 1, 1, 1] = 6.0 / x[1] ** 4
        return out

    g = MetricField(chart=chart, evaluator=ev, partial_evaluator=p,
                    second_partial_evaluator=pp)
    return Fixture("hyperbolic_plane", {}, chart, g, levi_civita(g))


def _su2_chart() -> Chart:
    # Euler z-y-z coordinates (phi, theta, psi); coframe singular at sin(theta) = 0
    return Chart(
        dim=3,
        box=np.array([[0.0, 2 * np.pi], [0.3, np.pi - 0.3], [0.0, 2 * np.pi]]),
        margin=0.05,
    )


def _su2_coframe(x: np.ndarray) -> np.ndarray:
    phi, theta, psi = x[0], x[1], x[2]
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(psi), np.cos(psi)
    return 0.5 * np.array([
        [-st * cp, sp, 0.0],
        [st * sp, cp, 0.0],
        [ct, 0.0, 1.0],
    ])


def _su2_coframe_partial(x: np.ndarray) -> np.ndarray:
    theta, psi = x[1], x[2]
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(psi), np.cos(psi)
    out = np.zeros((3, 3, 3))
    out[1, :, 0] = -ct * cp, ct * sp, -st
    out[2, :2, :2] = [[st * sp, cp], [st * cp, -sp]]
    return 0.5 * out


def _su2_coframe_second(x: np.ndarray) -> np.ndarray:
    theta, psi = x[1], x[2]
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(psi), np.cos(psi)
    out = np.zeros((3, 3, 3, 3))
    out[1, 1, :, 0] = st * cp, -st * sp, -ct
    out[1, 2, :, 0] = out[2, 1, :, 0] = ct * sp, ct * cp, 0.0
    out[2, 2, :2, :2] = [[st * cp, -sp], [-st * sp, -cp]]
    return 0.5 * out


def _berger_metric(chart: Chart, lam: float) -> MetricField:
    d = np.diag([lam * lam, 1.0, 1.0])

    def ev(x):
        th = _su2_coframe(x)
        return th.T @ d @ th

    def p(x):
        th = _su2_coframe(x)
        dth = _su2_coframe_partial(x)
        return dth.swapaxes(1, 2) @ d @ th + th.T @ d @ dth

    def pp(x):
        th = _su2_coframe(x)
        dth = _su2_coframe_partial(x)
        dd = _su2_coframe_second(x)
        dmu, dnu = dth[:, None], dth[None, :]
        return (dd.swapaxes(2, 3) @ d @ th + dmu.swapaxes(2, 3) @ d @ dnu
                + dnu.swapaxes(2, 3) @ d @ dmu + th.T @ d @ dd)

    return MetricField(chart=chart, evaluator=ev, partial_evaluator=p,
                       second_partial_evaluator=pp)


def _su2_frame_connection(chart: Chart) -> FrameFieldConnection:
    return FrameFieldConnection(
        chart=chart,
        coframe=_su2_coframe,
        gamma=np.zeros((3, 3, 3)),
        coframe_partial=_su2_coframe_partial,
        coframe_second=_su2_coframe_second,
    )


def berger_sphere(lam: float = 2.0) -> Fixture:
    lam = float(lam)
    if not lam > 0:
        raise BadParameters("berger squash parameter must be positive")
    chart = _su2_chart()
    g = _berger_metric(chart, lam)
    frame_conn = _su2_frame_connection(chart)
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

    def ev(x):
        a = np.zeros((2, algebra.dim))
        a[1, 2] = half_q * (1.0 - np.cos(x[0]))
        return a

    def p(x):
        a = np.zeros((2, 2, algebra.dim))
        a[0, 1, 2] = half_q * np.sin(x[0])
        return a

    return LocalConnectionForm(chart=chart, algebra=algebra, evaluator=ev,
                               partial_evaluator=p)


def _parallel_shift_field(chart: Chart, algebra: LieAlgebra) -> TensorFieldSpec:
    """Adjoint-valued 1-form invariant under the monopole holonomy; rows over
    (theta, phi), values in the su(2) basis."""

    def ev(x):
        theta, phi = x[0], x[1]
        a = np.zeros((2, algebra.dim))
        a[0, 0] = np.cos(phi)
        a[0, 1] = -np.sin(phi)
        a[1, 0] = -np.sin(theta) * np.sin(phi)
        a[1, 1] = -np.sin(theta) * np.cos(phi)
        return DenseTensor((DOWN, LIE), a)

    def p(x):
        theta, phi = x[0], x[1]
        a = np.zeros((2, 2, algebra.dim))
        a[0, 1, 0] = -np.cos(theta) * np.sin(phi)
        a[0, 1, 1] = -np.cos(theta) * np.cos(phi)
        a[1, 0, 0] = -np.sin(phi)
        a[1, 0, 1] = -np.cos(phi)
        a[1, 1, 0] = -np.sin(theta) * np.cos(phi)
        a[1, 1, 1] = np.sin(theta) * np.sin(phi)
        return a

    return TensorFieldSpec(chart=chart, markers=(DOWN, LIE), evaluator=ev,
                           partial_evaluator=p)


def _bump_shift_field(chart: Chart, algebra: LieAlgebra) -> TensorFieldSpec:
    """A localized non-parallel shift used as a negative control."""
    c0, c1 = 0.5 * np.pi, np.pi

    def bump(x):
        return np.exp(-((x[0] - c0) ** 2 + (x[1] - c1) ** 2) / 0.5)

    def ev(x):
        a = np.zeros((2, algebra.dim))
        a[0, 0] = bump(x)
        return DenseTensor((DOWN, LIE), a)

    def p(x):
        a = np.zeros((2, 2, algebra.dim))
        a[:, 0, 0] = bump(x) * (-2.0 * (x - (c0, c1)) / 0.5)
        return a

    return TensorFieldSpec(chart=chart, markers=(DOWN, LIE), evaluator=ev,
                           partial_evaluator=p)


def hopf_monopole(charge: int = 1) -> Fixture:
    if not float(charge).is_integer():
        raise BadParameters("monopole charge must be an integer")
    charge = int(charge)
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
        alpha_parallel=(
            _parallel_shift_field(base.chart, algebra) if charge == 1 else None
        ),
        alpha_bump=_bump_shift_field(base.chart, algebra),
    )


def trivial_bundle_flat(algebra: str = "su(2)") -> Fixture:
    alg = algebra_by_name(algebra)
    base = euclidean(2)
    zero = LocalConnectionForm(
        chart=base.chart,
        algebra=alg,
        evaluator=lambda x: np.zeros((2, alg.dim)),
        partial_evaluator=lambda x: np.zeros((2, 2, alg.dim)),
    )
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
    """Deterministic smooth trigonometric field with analytic partials."""
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

    def arg(x):
        u = 2 * np.pi * (np.asarray(x, float) - lo) / wid
        return np.einsum("...n,n->...", freq, u) + phase

    def ev(x):
        return DenseTensor(markers, amp * np.sin(arg(x)))

    def p(x):
        d = (amp * np.cos(arg(x)))[..., None] * freq * (2 * np.pi / wid)
        return np.moveaxis(d, -1, 0)

    return TensorFieldSpec(chart=chart, markers=markers, evaluator=ev,
                           partial_evaluator=p)


def smooth_connection_form(chart: Chart, algebra: LieAlgebra, seed: int,
                           amplitude: float = 0.5) -> LocalConnectionForm:
    """Deterministic smooth algebra-valued form with analytic partials."""
    field = smooth_tensor_field(chart, (DOWN, LIE), seed, algebra, amplitude)
    return LocalConnectionForm(
        chart=chart,
        algebra=algebra,
        evaluator=lambda x: field.at(x).data,
        partial_evaluator=field.partial_at,
    )


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
    if name == "euclidean" and "n" in params:
        params["n"] = int(params["n"])
    return builder(**params)
