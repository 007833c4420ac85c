"""Single-chart differential calculus: metrics, connections, curvature, torsion.

Every field returns its partials along all coordinates in one call, stacked
on a leading axis: ``partial_at(x)[mu]`` is the mu-th partial.  Metrics and
moving frames carry analytic first and second partials; other fields use
central finite differences with Richardson extrapolation (``fd_partials``)
unless they carry analytic partial evaluators.  Everything lives on one
coordinate chart; points are plain coordinate arrays.

Index layout for connection coefficients: data[k, i, j] = coefficient of the
k-th basis vector in the derivative along direction i of basis vector j, so
covariant differentiation of a vector reads (del v)[mu, k] = d_mu v^k +
data[k, mu, m] v^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
# numpy loads numpy.random lazily; importing it here keeps that cost in the
# import instead of the first sample
from numpy.random import default_rng

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


def scrambled_halton(dim: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` points of Owen's scrambled Halton sequence in
    [0, 1)^dim (arXiv:1706.02808): axis i uses the i-th prime base b, and
    each of its ceil(54 / log2 b) - 1 digits is permuted by its own random
    permutation, drawn with ``default_rng(seed).shuffle``."""
    rng = default_rng(seed)
    bases: list[int] = []
    cand = 2
    while len(bases) < dim:
        if all(cand % p for p in bases):
            bases.append(cand)
        cand += 1
    out = np.empty((dim, count))
    for axis, base in enumerate(bases):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        index = np.arange(count)
        acc = np.zeros(count)
        weight = 1.0 / base
        for perm in perms:
            acc += perm[index % base] * weight
            index //= base
            weight /= base
        out[axis] = acc
    return out.T


def sample_interior(chart: Chart, count: int, seed: int = 42) -> np.ndarray:
    """Scrambled-Halton points at least one margin inside the chart box."""
    if count < 1:
        raise BadParameters("sample count must be at least 1")
    lo = chart.box[:, 0] + chart.margin
    hi = chart.box[:, 1] - chart.margin
    return lo + scrambled_halton(chart.dim, count, seed) * (hi - lo)


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


def fd_partials(f: Callable[[np.ndarray], np.ndarray], chart: Chart,
                x: np.ndarray, step_scale: float = STEP_SCALE) -> np.ndarray:
    """Every coordinate partial of an array-valued callable, stacked on a
    leading axis: out[mu] = fd_array(f, chart, x, mu, step_scale=step_scale)."""
    return np.stack([fd_array(f, chart, x, mu, step_scale=step_scale)
                     for mu in range(chart.dim)])


@dataclass(frozen=True)
class TensorFieldSpec:
    """Tensor field on a chart: evaluator plus optional analytic partials,
    which return the components' partials along every coordinate, stacked."""

    chart: Chart
    markers: tuple[str, ...]
    evaluator: Callable[[np.ndarray], DenseTensor]
    partial_evaluator: Callable[[np.ndarray], np.ndarray] | None = None

    def at(self, x: np.ndarray) -> DenseTensor:
        t = self.evaluator(np.asarray(x, float))
        if t.markers != tuple(self.markers):
            raise AxisMismatch(
                f"evaluator produced markers {t.markers}, declared {self.markers}"
            )
        return t

    def partial_at(self, x: np.ndarray) -> np.ndarray:
        """out[mu] = d_mu of the components, shape (n, *dims)."""
        if self.partial_evaluator is not None:
            return np.asarray(self.partial_evaluator(np.asarray(x, float)), float)
        return fd_partials(lambda p: self.at(p).data, self.chart, x)


@dataclass(frozen=True)
class MetricField:
    """Riemannian metric on a chart with its analytic first and second
    partials: partial_evaluator(x)[mu] = d_mu g and
    second_partial_evaluator(x)[mu, nu] = d_mu d_nu g."""

    chart: Chart
    evaluator: Callable[[np.ndarray], np.ndarray]
    partial_evaluator: Callable[[np.ndarray], np.ndarray]
    second_partial_evaluator: Callable[[np.ndarray], np.ndarray]

    def at(self, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self.evaluator(np.asarray(x, float)), float)
        # NaN and inf fail the comparison, so they raise too
        if not (np.abs(g - g.T) <= 1e-12).all():
            raise DegenerateMetric("metric evaluator returned a non-symmetric matrix")
        return g

    def partial_at(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.partial_evaluator(np.asarray(x, float)), float)

    def second_partial_at(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.second_partial_evaluator(np.asarray(x, float)), float)


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Linear connection in the coordinate frame: data[k, i, j] at each point.
    The optional analytic ``partial_evaluator`` returns the coefficients and
    their partials out[mu, k, i, j] together, so that both come from one
    evaluation of the underlying geometry."""

    chart: Chart
    evaluator: Callable[[np.ndarray], np.ndarray]
    symmetric_flag: bool = False
    partial_evaluator: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def at(self, x: np.ndarray) -> np.ndarray:
        return self._checked(self.evaluator(np.asarray(x, float)))

    def _checked(self, G: np.ndarray) -> np.ndarray:
        G = np.asarray(G, float)
        if not np.isfinite(G).all():
            raise BadParameters("connection coefficients are not finite")
        if self.symmetric_flag and not (np.abs(G - G.swapaxes(1, 2)) <= 1e-12).all():
            raise BadParameters("symmetric_flag set but coefficients asymmetric")
        return G

    def jet_at(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(coefficients, partials) at x, checked as ``at`` checks them."""
        if self.partial_evaluator is not None:
            G, dG = self.partial_evaluator(np.asarray(x, float))
            return self._checked(G), np.asarray(dG, float)
        return self.at(x), fd_partials(self.evaluator, self.chart, x)

    def partial_at(self, x: np.ndarray) -> np.ndarray:
        return self.jet_at(x)[1]


@dataclass(frozen=True)
class FrameFieldConnection:
    """Connection given by constant moving-frame coefficients over a coframe.

    ``coframe(x)`` rows are the frame covectors; the frame vectors are the
    columns of its inverse.  ``gamma`` holds gamma[k, i, j] with respect to
    that frame.  ``coframe_partial(x)[mu]`` and ``coframe_second(x)[mu, nu]``
    are the coframe's analytic first and second partials.
    """

    chart: Chart
    coframe: Callable[[np.ndarray], np.ndarray]
    gamma: np.ndarray
    coframe_partial: Callable[[np.ndarray], np.ndarray]
    coframe_second: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.asarray(self.gamma, float))

    def coframe_at(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.coframe(np.asarray(x, float)), float)

    def frame_at(self, x: np.ndarray) -> np.ndarray:
        th = self.coframe_at(x)
        try:
            frame = np.linalg.inv(th)
        except np.linalg.LinAlgError as exc:
            raise SingularFrame(f"coframe not invertible at {x}: {exc}") from exc
        return frame

    def coframe_partial_at(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.coframe_partial(np.asarray(x, float)), float)


def lowered(dg: np.ndarray) -> np.ndarray:
    """out[l, i, j] = d_i g_{jl} + d_j g_{il} - d_l g_{ij} from dg[m] = d_m g,
    over the last three axes (leading axes are carried along)."""
    p = np.moveaxis(dg, -1, -3)
    return p + p.swapaxes(-1, -2) - dg


def _christoffel_parts(g: MetricField,
                       x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g^{-1}, d g, Levi-Civita coefficients) at x."""
    gx = g.at(x)
    try:
        np.linalg.cholesky(gx)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetric(f"metric not positive definite at {x}") from exc
    ginv = np.linalg.inv(gx)
    dg = g.partial_at(x)
    return ginv, dg, 0.5 * np.einsum("kl,lij->kij", ginv, lowered(dg))


def christoffel(g: MetricField, x: np.ndarray) -> np.ndarray:
    """Levi-Civita coefficients at x: out[k, i, j] = half g^{kl}(d_i g_{jl} + d_j g_{il} - d_l g_{ij})."""
    return _christoffel_parts(g, x)[2]


def christoffel_partial(g: MetricField, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Levi-Civita coefficients and their analytic partials
    out[mu, k, i, j], from one evaluation of g and its partials."""
    ginv, dg, G = _christoffel_parts(g, x)
    dginv = -ginv @ dg @ ginv
    return G, 0.5 * (
        np.einsum("mkl,lij->mkij", dginv, lowered(dg))
        + np.einsum("kl,mlij->mkij", ginv, lowered(g.second_partial_at(x)))
    )


def levi_civita(g: MetricField) -> ConnectionCoeffs:
    """Levi-Civita connection as a coefficient field on g's chart."""
    return ConnectionCoeffs(
        chart=g.chart,
        evaluator=lambda x: christoffel(g, x),
        symmetric_flag=True,
        partial_evaluator=lambda x: christoffel_partial(g, x),
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
    return covariant_derivative_of(gamma, t.at(x), t.partial_at(x), x, lie)


def covariant_derivative_of(gamma: ConnectionCoeffs, tx: DenseTensor,
                            partials: np.ndarray, x: np.ndarray,
                            lie: Callable[[np.ndarray], np.ndarray] | None = None,
                            ) -> DenseTensor:
    """covariant_derivative at x of a tensor whose value ``tx`` and
    coordinate partials ``partials[mu]`` there are already known."""
    G = gamma.at(x)
    L = lie(x) if lie is not None else None
    d = np.array(partials, float)
    for mu in range(gamma.chart.dim):
        axis_action(tx, G[:, mu, :], None if L is None else L[mu], d[mu])
    return DenseTensor((DOWN,) + tuple(tx.markers), d)


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
    G, dG = gamma.jet_at(x)
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


def torsion_field(conn: ConnectionCoeffs) -> TensorFieldSpec:
    partial = None
    if conn.partial_evaluator is not None:

        def partial(x: np.ndarray) -> np.ndarray:
            dG = conn.partial_at(x)
            return dG - dG.swapaxes(2, 3)

    return TensorFieldSpec(
        chart=conn.chart,
        markers=(UP, DOWN, DOWN),
        evaluator=lambda x: torsion(conn, x),
        partial_evaluator=partial,
    )


def torsion(conn: ConnectionCoeffs, x: np.ndarray) -> DenseTensor:
    """Torsion T[k, i, j] = G[k, i, j] - G[k, j, i]."""
    G = conn.at(x)
    return DenseTensor((UP, DOWN, DOWN), G - G.swapaxes(1, 2))


def _frame_to_coordinate_parts(conn: FrameFieldConnection, x: np.ndarray,
                               ) -> tuple[np.ndarray, ...]:
    """(coframe, frame, d coframe, a, coordinate coefficients) at x, where
    the coefficients are E a."""
    x = np.asarray(x, float)
    th = conn.coframe_at(x)
    E = conn.frame_at(x)
    dth = conn.coframe_partial_at(x)
    a = dth.transpose(1, 0, 2) + np.einsum("ia,lv,kil->kav", th, th, conn.gamma)
    return th, E, dth, a, np.einsum("lk,kav->lav", E, a)


def frame_to_coordinate(conn: FrameFieldConnection, x: np.ndarray) -> np.ndarray:
    """Coordinate-frame coefficients of a moving-frame connection at x."""
    return _frame_to_coordinate_parts(conn, x)[4]


def frame_to_coordinate_partial(conn: FrameFieldConnection,
                                x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """frame_to_coordinate and its analytic partials out[mu, l, a, v], from
    one evaluation of the coframe and its partials."""
    th, E, dth, a, G = _frame_to_coordinate_parts(conn, x)
    gam = conn.gamma
    ddth = np.asarray(conn.coframe_second(np.asarray(x, float)), float)
    dE = -E @ dth @ E
    da = ddth.transpose(0, 2, 1, 3) + np.einsum("mia,lv,kil->mkav", dth, th, gam)
    da += np.einsum("ia,mlv,kil->mkav", th, dth, gam)
    return G, np.einsum("mlk,kav->mlav", dE, a) + np.einsum("lk,mkav->mlav", E, da)


def frame_connection_field(conn: FrameFieldConnection) -> ConnectionCoeffs:
    """Coordinate ConnectionCoeffs field for a moving-frame connection."""
    return ConnectionCoeffs(
        chart=conn.chart,
        evaluator=lambda x: frame_to_coordinate(conn, x),
        symmetric_flag=False,
        partial_evaluator=lambda x: frame_to_coordinate_partial(conn, x),
    )


def ortho_frame(g: MetricField, x: np.ndarray) -> OrthoFrame:
    """Cholesky orthonormal frame of g at x."""
    x = np.asarray(x, float)
    return OrthoFrame.from_metric(g.at(x), x)


def ortho_frame_partial(g: MetricField,
                        x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d frame, d coframe) of the Cholesky frame, each stacked over the
    coordinate directions."""
    x = np.asarray(x, float)
    lower = np.linalg.cholesky(g.at(x))
    linv = np.linalg.inv(lower)
    frame = linv.T
    phi = linv @ g.partial_at(x) @ linv.T
    # dG = dL L^T + L dL^T forces dL = L (tril(phi, -1) + diag(phi)/2)
    dlower = lower @ (np.tril(phi, -1) + 0.5 * np.eye(len(x)) * phi)
    dcoframe = dlower.swapaxes(1, 2)
    return -frame @ dcoframe @ frame, dcoframe


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
