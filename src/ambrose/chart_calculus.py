"""Single-chart differential calculus: metrics, connections, curvature, torsion.

Derivatives are central finite differences with Richardson extrapolation
unless a field carries analytic partial evaluators.  Everything lives on one
coordinate chart; points are plain coordinate arrays.

Index layout for connection coefficients: data[k, i, j] = coefficient of the
k-th basis vector in the derivative along direction i of basis vector j, so
covariant differentiation of a vector reads (del v)[mu, k] = d_mu v^k +
data[k, mu, m] v^m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from scipy.stats import qmc

from .errors import (
    AxisMismatch,
    BadParameters,
    DegenerateMetric,
    OutOfDomain,
    SingularFrame,
)
from .tensor_core import DOWN, UP, DenseTensor, OrthoFrame, axis_action, to_frame

STEP_SCALE = 1e-3


@dataclass(frozen=True)
class Chart:
    """Coordinate box with an interior margin reserved for FD stencils."""

    dim: int
    box: np.ndarray
    margin: float

    def __post_init__(self):
        if self.dim < 1:
            raise BadParameters("chart dimension must be at least 1")
        box = np.asarray(self.box, float).reshape(self.dim, 2)
        if not (box[:, 1] > box[:, 0]).all():
            raise BadParameters("chart box intervals must be nonempty")
        if not self.margin > 0:
            raise BadParameters("chart margin must be positive")
        object.__setattr__(self, "box", box)

    def width(self, axis: int) -> float:
        return float(self.box[axis, 1] - self.box[axis, 0])

    def require_inside(self, x: np.ndarray, radius: float = 0.0) -> None:
        x = np.asarray(x, float)
        if x.shape != (self.dim,):
            raise OutOfDomain(
                f"point shape {x.shape} does not match chart dim {self.dim}"
            )
        if (x < self.box[:, 0] + radius).any() or (x > self.box[:, 1] - radius).any():
            raise OutOfDomain(f"stencil of radius {radius:g} exits the chart box")


def sample_interior(chart: Chart, count: int, seed: int = 42) -> np.ndarray:
    """Scrambled-Halton points at least one margin inside the chart box."""
    if count < 1:
        raise BadParameters("sample count must be at least 1")
    lo = chart.box[:, 0] + chart.margin
    hi = chart.box[:, 1] - chart.margin
    sampler = qmc.Halton(d=chart.dim, scramble=True, seed=seed)
    return lo + sampler.random(count) * (hi - lo)


def fd_array(f: Callable[[np.ndarray], np.ndarray], chart: Chart, x: np.ndarray,
             mu: int, richardson: bool = True,
             step_scale: float = STEP_SCALE) -> np.ndarray:
    """Central difference of an array-valued callable along coordinate mu."""
    x = np.asarray(x, float)
    if not 0 <= mu < chart.dim:
        raise AxisMismatch(f"direction {mu} outside chart of dim {chart.dim}")
    h = step_scale * chart.width(mu)
    chart.require_inside(x, radius=h)

    def central(step: float) -> np.ndarray:
        off = np.zeros(chart.dim)
        off[mu] = step
        fp = np.asarray(f(x + off), float)
        fm = np.asarray(f(x - off), float)
        return (fp - fm) / (2.0 * step)

    d1 = central(h)
    if not richardson:
        return d1
    return (4.0 * central(0.5 * h) - d1) / 3.0


@dataclass(frozen=True)
class TensorFieldSpec:
    """Tensor field on a chart: evaluator plus optional analytic partials."""

    chart: Chart
    markers: tuple[str, ...]
    evaluator: Callable[[np.ndarray], DenseTensor]
    partial_evaluator: Callable[[np.ndarray, int], DenseTensor] | None = None

    def at(self, x: np.ndarray) -> DenseTensor:
        t = self.evaluator(np.asarray(x, float))
        if t.markers != tuple(self.markers):
            raise AxisMismatch(
                f"evaluator produced markers {t.markers}, declared {self.markers}"
            )
        return t

    def partial_at(self, x: np.ndarray, mu: int) -> DenseTensor:
        if self.partial_evaluator is not None:
            return self.partial_evaluator(np.asarray(x, float), mu)
        return fd_partial(self, x, mu)


def fd_partial(field: TensorFieldSpec, x: np.ndarray, mu: int,
               richardson: bool = True,
               step_scale: float = STEP_SCALE) -> DenseTensor:
    data = fd_array(lambda p: field.at(p).data, field.chart, x, mu,
                    richardson=richardson, step_scale=step_scale)
    return DenseTensor(field.markers, data)


@dataclass(frozen=True)
class MetricField:
    """Riemannian metric on a chart, with optional analytic derivatives."""

    chart: Chart
    evaluator: Callable[[np.ndarray], np.ndarray]
    partial_evaluator: Callable[[np.ndarray, int], np.ndarray] | None = None
    second_partial_evaluator: Callable[[np.ndarray, int, int], np.ndarray] | None = None

    def at(self, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self.evaluator(np.asarray(x, float)), float)
        if not np.allclose(g, g.T, rtol=0.0, atol=1e-12):
            raise DegenerateMetric("metric evaluator returned a non-symmetric matrix")
        return g

    def partial_at(self, x: np.ndarray, mu: int) -> np.ndarray:
        if self.partial_evaluator is not None:
            return np.asarray(self.partial_evaluator(np.asarray(x, float), mu), float)
        return fd_array(self.evaluator, self.chart, x, mu)

    def second_partial_at(self, x: np.ndarray, mu: int, nu: int) -> np.ndarray:
        if self.second_partial_evaluator is not None:
            return np.asarray(
                self.second_partial_evaluator(np.asarray(x, float), mu, nu), float
            )
        return fd_array(lambda p: self.partial_at(p, nu), self.chart, x, mu)


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Linear connection in the coordinate frame: data[k, i, j] at each point."""

    chart: Chart
    evaluator: Callable[[np.ndarray], np.ndarray]
    symmetric_flag: bool = False
    partial_evaluator: Callable[[np.ndarray, int], np.ndarray] | None = None

    def at(self, x: np.ndarray) -> np.ndarray:
        G = np.asarray(self.evaluator(np.asarray(x, float)), float)
        if not np.isfinite(G).all():
            raise BadParameters("connection coefficients are not finite")
        if self.symmetric_flag and not np.allclose(
            G, G.swapaxes(1, 2), rtol=0.0, atol=1e-12
        ):
            raise BadParameters("symmetric_flag set but coefficients asymmetric")
        return G

    def partial_at(self, x: np.ndarray, mu: int) -> np.ndarray:
        if self.partial_evaluator is not None:
            return np.asarray(self.partial_evaluator(np.asarray(x, float), mu), float)
        return fd_array(self.evaluator, self.chart, x, mu)


@dataclass(frozen=True)
class FrameFieldConnection:
    """Connection given by moving-frame coefficients over a coframe field.

    ``coframe(x)`` rows are the frame covectors; the frame vectors are the
    columns of its inverse.  ``gamma`` holds gamma[k, i, j] with respect to
    that frame, either constant or as an evaluator.
    """

    chart: Chart
    coframe: Callable[[np.ndarray], np.ndarray]
    gamma: np.ndarray | Callable[[np.ndarray], np.ndarray]
    coframe_partial: Callable[[np.ndarray, int], np.ndarray] | None = None
    coframe_second: Callable[[np.ndarray, int, int], np.ndarray] | None = None

    def coframe_at(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.coframe(np.asarray(x, float)), float)

    def frame_at(self, x: np.ndarray) -> np.ndarray:
        th = self.coframe_at(x)
        try:
            frame = np.linalg.inv(th)
        except np.linalg.LinAlgError as exc:
            raise SingularFrame(f"coframe not invertible at {x}: {exc}") from exc
        return frame

    def gamma_at(self, x: np.ndarray) -> np.ndarray:
        if callable(self.gamma):
            return np.asarray(self.gamma(np.asarray(x, float)), float)
        return np.asarray(self.gamma, float)

    def coframe_partial_at(self, x: np.ndarray, mu: int) -> np.ndarray:
        if self.coframe_partial is not None:
            return np.asarray(self.coframe_partial(np.asarray(x, float), mu), float)
        return fd_array(self.coframe, self.chart, x, mu)

    def has_analytic_partials(self) -> bool:
        return (
            self.coframe_partial is not None
            and self.coframe_second is not None
            and not callable(self.gamma)
        )


def christoffel(g: MetricField, x: np.ndarray) -> np.ndarray:
    """Levi-Civita coefficients at x: out[k, i, j] = half g^{kl}(d_i g_{jl} + d_j g_{il} - d_l g_{ij})."""
    gx = g.at(x)
    try:
        np.linalg.cholesky(gx)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetric(f"metric not positive definite at {x}") from exc
    ginv = np.linalg.inv(gx)
    n = g.chart.dim
    dg = np.stack([g.partial_at(x, mu) for mu in range(n)])
    p = dg.transpose(2, 0, 1)
    lowered = p + p.swapaxes(1, 2) - dg
    return 0.5 * np.einsum("kl,lij->kij", ginv, lowered)


def christoffel_partial(g: MetricField, x: np.ndarray, mu: int) -> np.ndarray:
    """Analytic derivative of the Levi-Civita coefficients along mu."""
    gx = g.at(x)
    ginv = np.linalg.inv(gx)
    n = g.chart.dim
    dg = np.stack([g.partial_at(x, m) for m in range(n)])
    d2g = np.stack([g.second_partial_at(x, mu, m) for m in range(n)])
    p = dg.transpose(2, 0, 1)
    lowered = p + p.swapaxes(1, 2) - dg
    q = d2g.transpose(2, 0, 1)
    dlowered = q + q.swapaxes(1, 2) - d2g
    dginv = -ginv @ g.partial_at(x, mu) @ ginv
    return 0.5 * (
        np.einsum("kl,lij->kij", dginv, lowered)
        + np.einsum("kl,lij->kij", ginv, dlowered)
    )


def levi_civita(g: MetricField) -> ConnectionCoeffs:
    """Levi-Civita connection as a coefficient field on g's chart."""
    partial = None
    if g.partial_evaluator is not None and g.second_partial_evaluator is not None:
        partial = lambda x, mu: christoffel_partial(g, x, mu)
    return ConnectionCoeffs(
        chart=g.chart,
        evaluator=lambda x: christoffel(g, x),
        symmetric_flag=True,
        partial_evaluator=partial,
    )


def covariant_derivative(gamma: ConnectionCoeffs, t: TensorFieldSpec,
                         x: np.ndarray,
                         lie: Callable[[np.ndarray], np.ndarray] | None = None,
                         ) -> DenseTensor:
    """Covariant derivative of a tensor field; new covariant axis leads.

    Along direction mu the connection matrix G[:, mu, :] acts on the tangent
    axes (plus on UP, minus transpose on DOWN) and ``lie(x)[mu]`` on the LIE
    axes, e.g. ad of a bundle connection form."""
    x = np.asarray(x, float)
    G = gamma.at(x)
    L = lie(x) if lie is not None else None
    tx = t.at(x)
    parts = []
    for mu in range(gamma.chart.dim):
        d = t.partial_at(x, mu).data.copy()
        parts.append(axis_action(tx, G[:, mu, :], None if L is None else L[mu], d))
    return DenseTensor((DOWN,) + tuple(t.markers), np.stack(parts, axis=0))


def covariant_derivative_field(gamma: ConnectionCoeffs, t: TensorFieldSpec,
                               lie: Callable[[np.ndarray], np.ndarray] | None = None,
                               ) -> TensorFieldSpec:
    """Field wrapper so covariant derivatives nest through the FD machinery."""
    return TensorFieldSpec(
        chart=t.chart,
        markers=(DOWN,) + tuple(t.markers),
        evaluator=lambda x: covariant_derivative(gamma, t, x, lie),
    )


def curvature(gamma: ConnectionCoeffs, x: np.ndarray) -> DenseTensor:
    """Curvature R[l, k, i, j] = d_i G[l,j,k] - d_j G[l,i,k] + G[l,i,m]G[m,j,k] - (i<->j)."""
    x = np.asarray(x, float)
    G = gamma.at(x)
    n = gamma.chart.dim
    dG = np.stack([gamma.partial_at(x, i) for i in range(n)])
    p = dG.transpose(1, 3, 0, 2)
    q = np.einsum("lim,mjk->lkij", G, G)
    r = p - p.swapaxes(2, 3) + q - q.swapaxes(2, 3)
    return DenseTensor((UP, DOWN, DOWN, DOWN), r)


def curvature_field(gamma: ConnectionCoeffs) -> TensorFieldSpec:
    return TensorFieldSpec(
        chart=gamma.chart,
        markers=(UP, DOWN, DOWN, DOWN),
        evaluator=lambda x: curvature(gamma, x),
    )


def torsion_field(conn: "ConnectionCoeffs | FrameFieldConnection") -> TensorFieldSpec:
    partial = None
    if isinstance(conn, ConnectionCoeffs) and conn.partial_evaluator is not None:

        def partial(x: np.ndarray, mu: int) -> DenseTensor:
            dG = conn.partial_at(x, mu)
            return DenseTensor((UP, DOWN, DOWN), dG - dG.swapaxes(1, 2))

    return TensorFieldSpec(
        chart=conn.chart,
        markers=(UP, DOWN, DOWN),
        evaluator=lambda x: torsion(conn, x),
        partial_evaluator=partial,
    )


def frame_structure_functions(conn: FrameFieldConnection, x: np.ndarray) -> np.ndarray:
    """c[k, i, j] with [e_i, e_j] = c[k, i, j] e_k for the moving frame."""
    x = np.asarray(x, float)
    E = conn.frame_at(x)
    n = conn.chart.dim
    dth = np.stack([conn.coframe_partial_at(x, mu) for mu in range(n)])
    a = np.einsum("mkn,mi,nj->kij", dth, E, E)
    return -(a - a.swapaxes(1, 2))


def torsion(conn: ConnectionCoeffs | FrameFieldConnection,
            x: np.ndarray) -> DenseTensor:
    """Torsion T[k, i, j]; frame-field connections include the frame bracket."""
    if isinstance(conn, FrameFieldConnection):
        gam = conn.gamma_at(x)
        t = gam - gam.swapaxes(1, 2) - frame_structure_functions(conn, x)
    else:
        G = conn.at(x)
        t = G - G.swapaxes(1, 2)
    return DenseTensor((UP, DOWN, DOWN), t)


def frame_to_coordinate(conn: FrameFieldConnection, x: np.ndarray) -> np.ndarray:
    """Coordinate-frame coefficients of a moving-frame connection at x."""
    x = np.asarray(x, float)
    th = conn.coframe_at(x)
    E = conn.frame_at(x)
    gam = conn.gamma_at(x)
    n = conn.chart.dim
    dth = np.stack([conn.coframe_partial_at(x, mu) for mu in range(n)])
    a = dth.transpose(1, 0, 2) + np.einsum("ia,lv,kil->kav", th, th, gam)
    return np.einsum("lk,kav->lav", E, a)


def frame_to_coordinate_partial(conn: FrameFieldConnection, x: np.ndarray,
                                mu: int) -> np.ndarray:
    """Analytic mu-derivative of frame_to_coordinate; needs second coframe partials."""
    if not conn.has_analytic_partials():
        raise BadParameters("analytic coframe partials not available")
    x = np.asarray(x, float)
    th = conn.coframe_at(x)
    E = conn.frame_at(x)
    gam = conn.gamma_at(x)
    n = conn.chart.dim
    dth = np.stack([conn.coframe_partial_at(x, m) for m in range(n)])
    dth_mu = dth[mu]
    dE = -E @ dth_mu @ E
    ddth = np.stack(
        [np.asarray(conn.coframe_second(x, mu, m), float) for m in range(n)]
    )
    a = dth.transpose(1, 0, 2) + np.einsum("ia,lv,kil->kav", th, th, gam)
    da = ddth.transpose(1, 0, 2) + np.einsum("ia,lv,kil->kav", dth_mu, th, gam)
    da += np.einsum("ia,lv,kil->kav", th, dth_mu, gam)
    return np.einsum("lk,kav->lav", dE, a) + np.einsum("lk,kav->lav", E, da)


def frame_connection_field(conn: FrameFieldConnection) -> ConnectionCoeffs:
    """Coordinate ConnectionCoeffs field for a moving-frame connection."""
    partial = None
    if conn.has_analytic_partials():
        partial = lambda x, mu: frame_to_coordinate_partial(conn, x, mu)
    return ConnectionCoeffs(
        chart=conn.chart,
        evaluator=lambda x: frame_to_coordinate(conn, x),
        symmetric_flag=False,
        partial_evaluator=partial,
    )


def ortho_frame(g: MetricField, x: np.ndarray) -> OrthoFrame:
    """Cholesky orthonormal frame of g at x."""
    x = np.asarray(x, float)
    return OrthoFrame.from_metric(g.at(x), x)


def ortho_frame_partial(g: MetricField, x: np.ndarray,
                        mu: int) -> tuple[np.ndarray, np.ndarray]:
    """(d frame, d coframe) of the Cholesky frame along coordinate mu."""
    x = np.asarray(x, float)
    gx = g.at(x)
    dg = g.partial_at(x, mu)
    lower = np.linalg.cholesky(gx)
    linv = np.linalg.inv(lower)
    phi = linv @ dg @ linv.T
    # dG = dL L^T + L dL^T forces dL = L (tril(phi, -1) + diag(phi)/2)
    dlower = lower @ (np.tril(phi, -1) + 0.5 * np.diag(np.diag(phi)))
    dcoframe = dlower.T
    frame = linv.T
    dframe = -frame @ dcoframe @ frame
    return dframe, dcoframe


def nan_max(values: Iterable[float]) -> float:
    """Largest value, 0.0 for none; NaN as soon as any value is NaN."""
    vals = [float(v) for v in values]
    return float(np.max(vals)) if vals else 0.0


def max_frame_norms(fields: dict[str, TensorFieldSpec], g: MetricField,
                    points: np.ndarray) -> dict[str, float]:
    """Largest norm of each named field over the points, each value taken in
    the orthonormal frame of g at its point."""
    vals: dict[str, list[float]] = {name: [] for name in fields}
    for x in points:
        fr = ortho_frame(g, x)
        for name, fld in fields.items():
            vals[name].append(to_frame(fld.at(x), fr).norm())
    return {name: nan_max(v) for name, v in vals.items()}
