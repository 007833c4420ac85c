"""Single-chart differential calculus: metrics, connections, curvature, torsion.

Every field has one evaluator. It takes the coordinates as a Taylor jet at a
point (``jet.variables``) and returns the field as a jet there, so all its
partials up to any order come from one evaluation: ``jet_at(x, order)`` is
that jet and ``at(x)`` its value. Connection coefficients, curvature,
torsion and covariant derivatives are formulas over jets, one order lower
per derivative. Everything lives on one coordinate chart; points are plain
coordinate arrays. ``fd_array``, a Richardson-extrapolated central
difference, is the tests' reference for those partials.

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

from . import jet
from .errors import (
    AxisMismatch,
    BadParameters,
    DegenerateMetric,
    OutOfDomain,
    SingularFrame,
)
from .jet import Jet, shift, variables
from .tensor_core import DOWN, UP, DenseTensor, OrthoFrame, axis_action, to_frame

STEP_SCALE = 1e-3


@dataclass(frozen=True)
class Chart:
    """Coordinate box with an interior margin kept clear of the sample points."""

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


@dataclass(frozen=True)
class TensorFieldSpec:
    """Tensor field on a chart: the evaluator maps the coordinate jet at a
    point to the components' jet there."""

    chart: Chart
    markers: tuple[str, ...]
    evaluator: Callable[[Jet], Jet]

    def jet_at(self, x: np.ndarray, order: int) -> Jet:
        t = self.evaluator(variables(x, order))
        if len(t.shape) != len(self.markers):
            raise AxisMismatch(
                f"evaluator produced {len(t.shape)} axes, declared {len(self.markers)}"
            )
        return t

    def at(self, x: np.ndarray) -> DenseTensor:
        return DenseTensor(self.markers, self.jet_at(x, 0).value)

    def partial_at(self, x: np.ndarray) -> np.ndarray:
        """out[mu] = d_mu of the components, shape (n, *dims)."""
        return shift(self.jet_at(x, 1)).value


@dataclass(frozen=True)
class MetricField:
    """Riemannian metric on a chart, as a jet evaluator of the matrix."""

    chart: Chart
    evaluator: Callable[[Jet], Jet]

    def jet_at(self, x: np.ndarray, order: int) -> Jet:
        """The jet of g, symmetrized so that the Levi-Civita coefficients
        and the torsion come out exactly symmetric and zero."""
        g = self.evaluator(variables(x, order))
        # NaN and inf fail the comparison, so they raise too
        if not (np.abs(g.value - g.value.T) <= 1e-12).all():
            raise DegenerateMetric("metric evaluator returned a non-symmetric matrix")
        return 0.5 * (g + g.transpose(1, 0))

    def at(self, x: np.ndarray) -> np.ndarray:
        return self.jet_at(x, 0).value


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Linear connection in the coordinate frame: the jet of data[k, i, j]."""

    chart: Chart
    evaluator: Callable[[Jet], Jet]
    symmetric_flag: bool = False

    def jet_at(self, x: np.ndarray, order: int) -> Jet:
        G = self.evaluator(variables(x, order))
        if not np.isfinite(G.c).all():
            raise BadParameters("connection coefficients are not finite")
        v = G.value
        if self.symmetric_flag and not (np.abs(v - v.swapaxes(1, 2)) <= 1e-12).all():
            raise BadParameters("symmetric_flag set but coefficients asymmetric")
        return G

    def at(self, x: np.ndarray) -> np.ndarray:
        return self.jet_at(x, 0).value

    def partial_at(self, x: np.ndarray) -> np.ndarray:
        return shift(self.jet_at(x, 1)).value


@dataclass(frozen=True)
class FrameFieldConnection:
    """Connection given by constant moving-frame coefficients over a coframe.

    ``coframe`` maps the coordinate jet to the jet of the coframe, whose rows
    are the frame covectors; the frame vectors are the columns of its
    inverse. ``gamma`` holds gamma[k, i, j] with respect to that frame.
    """

    chart: Chart
    coframe: Callable[[Jet], Jet]
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.asarray(self.gamma, float))

    def frame_at(self, x: np.ndarray) -> np.ndarray:
        return _inverse(self.coframe(variables(x, 0)), x).value


def _inverse(th: Jet, x: np.ndarray) -> Jet:
    try:
        return jet.inv(th)
    except np.linalg.LinAlgError as exc:
        raise SingularFrame(f"coframe not invertible at {x}: {exc}") from exc


def _christoffel_jet(g: MetricField, x: np.ndarray, order: int) -> Jet:
    """Levi-Civita coefficients half g^{kl}(d_i g_{jl} + d_j g_{il} - d_l g_{ij})
    as a jet of the given order, from one jet of g one order higher."""
    gx = g.jet_at(x, order + 1)
    try:
        np.linalg.cholesky(gx.value)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetric(f"metric not positive definite at {x}") from exc
    dg = shift(gx)
    p = dg.transpose(2, 0, 1)  # p[l, i, j] = d_i g_{jl}
    return 0.5 * jet.einsum("kl,lij->kij", jet.inv(gx), p + p.transpose(0, 2, 1) - dg)


def christoffel_partial(g: MetricField, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Levi-Civita coefficients and their partials out[mu, k, i, j]."""
    G = _christoffel_jet(g, x, 1)
    return G.value, shift(G).value


def levi_civita(g: MetricField) -> ConnectionCoeffs:
    """Levi-Civita connection as a coefficient field on g's chart."""
    return ConnectionCoeffs(
        chart=g.chart,
        evaluator=lambda X: _christoffel_jet(g, X.value, X.order),
        symmetric_flag=True,
    )


def nabla(t: Jet, markers: tuple[str, ...], G: Jet | np.ndarray,
          lie: Jet | np.ndarray | None = None) -> Jet:
    """Jet of the covariant derivative of a tensor jet, one order lower; the
    new covariant axis leads. Along direction mu the connection matrix
    G[:, mu, :] acts on the tangent axes (plus on UP, minus transpose on
    DOWN) and ``lie[mu]`` on the LIE axes, e.g. ad of a bundle connection
    form. G and lie may be jets or their values."""
    mat = G.transpose(1, 0, 2)
    return shift(t) + axis_action(markers, t, mat, lie)


def covariant_derivative(gamma: ConnectionCoeffs, t: TensorFieldSpec,
                         x: np.ndarray,
                         lie: Callable[[np.ndarray], np.ndarray] | None = None,
                         ) -> DenseTensor:
    """Covariant derivative of a tensor field at x; new covariant axis leads.
    ``lie(x)[mu]`` acts on the LIE axes."""
    x = np.asarray(x, float)
    d = nabla(t.jet_at(x, 1), t.markers, gamma.at(x), None if lie is None else lie(x))
    return DenseTensor((DOWN,) + tuple(t.markers), d.value)


def _curvature_jet(gamma: ConnectionCoeffs, x: np.ndarray, order: int) -> Jet:
    G = gamma.jet_at(x, order + 1)
    p = shift(G).transpose(1, 3, 0, 2) + jet.einsum("lim,mjk->lkij", G, G)
    return p - p.transpose(0, 1, 3, 2)


def curvature(gamma: ConnectionCoeffs, x: np.ndarray) -> DenseTensor:
    """Curvature R[l, k, i, j] = d_i G[l,j,k] - d_j G[l,i,k] + G[l,i,m]G[m,j,k] - (i<->j)."""
    return DenseTensor((UP, DOWN, DOWN, DOWN), _curvature_jet(gamma, x, 0).value)


def curvature_field(gamma: ConnectionCoeffs) -> TensorFieldSpec:
    return TensorFieldSpec(
        chart=gamma.chart,
        markers=(UP, DOWN, DOWN, DOWN),
        evaluator=lambda X: _curvature_jet(gamma, X.value, X.order),
    )


def _torsion_jet(conn: ConnectionCoeffs, x: np.ndarray, order: int) -> Jet:
    G = conn.jet_at(x, order)
    return G - G.transpose(0, 2, 1)


def torsion_field(conn: ConnectionCoeffs) -> TensorFieldSpec:
    """Torsion T[k, i, j] = G[k, i, j] - G[k, j, i]."""
    return TensorFieldSpec(
        chart=conn.chart,
        markers=(UP, DOWN, DOWN),
        evaluator=lambda X: _torsion_jet(conn, X.value, X.order),
    )


def _frame_connection_jet(conn: FrameFieldConnection, x: np.ndarray, order: int) -> Jet:
    """Coordinate coefficients E a of a moving-frame connection, with
    a[k, mu, v] = d_mu th[k, v] + th[i, mu] th[l, v] gamma[k, i, l]."""
    th = conn.coframe(variables(x, order + 1))
    a = shift(th).transpose(1, 0, 2) + jet.einsum("ia,lv,kil->kav", th, th, conn.gamma)
    return jet.einsum("lk,kav->lav", _inverse(th, x), a)


def frame_connection_field(conn: FrameFieldConnection) -> ConnectionCoeffs:
    """Coordinate ConnectionCoeffs field for a moving-frame connection."""
    return ConnectionCoeffs(
        chart=conn.chart,
        evaluator=lambda X: _frame_connection_jet(conn, X.value, X.order),
    )


def ortho_frame(g: MetricField, x: np.ndarray) -> OrthoFrame:
    """Cholesky orthonormal frame of g at x."""
    x = np.asarray(x, float)
    return OrthoFrame.from_metric(g.at(x), x)


def frame_jet(g: MetricField, x: np.ndarray, order: int) -> tuple[Jet, Jet]:
    """(frame, coframe) of the Cholesky orthonormal frame of g as jets."""
    try:
        coframe = jet.cholesky(g.jet_at(x, order)).transpose(1, 0)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetric(f"metric not positive definite at {x}: {exc}") from exc
    return jet.inv(coframe), coframe


def ortho_frame_partial(g: MetricField,
                        x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d frame, d coframe) of the Cholesky frame, each stacked over the
    coordinate directions."""
    frame, coframe = frame_jet(g, x, 1)
    return shift(frame).value, shift(coframe).value


def nan_max(values: Iterable[float]) -> float:
    """Largest value, 0.0 for none; NaN as soon as any value is NaN."""
    vals = [float(v) for v in values]
    return float(np.max(vals)) if vals else 0.0


def max_nabla_norms(gamma: ConnectionCoeffs,
                    fields: dict[str, tuple[TensorFieldSpec, Callable | None]],
                    g: MetricField, points: np.ndarray) -> dict[str, float]:
    """Largest norm over the points of the covariant derivative of each named
    field, with ``lie(x)[mu]`` on its LIE axes for a (field, lie) pair, each
    value taken in the orthonormal frame of g at its point."""
    vals: dict[str, list[float]] = {name: [] for name in fields}
    for x in points:
        fr = ortho_frame(g, x)
        for name, (t, lie) in fields.items():
            vals[name].append(to_frame(covariant_derivative(gamma, t, x, lie), fr).norm())
    return {name: nan_max(v) for name, v in vals.items()}
