"""Single-chart differential calculus: metrics, connections, curvature, torsion.

Every field has one evaluator. It takes the coordinates as a Taylor jet at a
batch of points (``jet.variables``) and returns the field as a jet there, so
all its partials up to any order, at every point of the batch, come from one
evaluation: ``jet_at(x, order)`` is that jet, at the points x of shape
(P, n) or at the single point x of shape (n,), and ``at(x)`` its value at a
single point. Connection coefficients, curvature, torsion and covariant
derivatives are formulas over jets, one order lower per derivative.
Everything lives on one coordinate chart; points are plain coordinate
arrays. ``fd_array``, a Richardson-extrapolated central
difference, is the tests' reference for those partials.

A section, a tuple of fields, is differentiated in one place, frame_levels,
which the towers and the residual checks read. The checks run on the batch
too, any number of points in batches of at most CHUNK (max_over_chunks).

Index layout for connection coefficients: data[k, i, j] = coefficient of the
k-th basis vector in the derivative along direction i of basis vector j, so
covariant differentiation of a vector reads (del v)[mu, k] = d_mu v^k +
data[k, mu, m] v^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np
# numpy loads numpy.random lazily; importing it here keeps that cost in the
# import instead of the first sample
from numpy.random import default_rng

from . import jet
from .errors import (
    AxisMismatch,
    BadParameters,
    DegenerateMetric,
    DepthMismatch,
    OutOfDomain,
    SingularFrame,
)
from .jet import Jet, shift, variables
from .tensor_core import (
    DOWN,
    UP,
    DenseTensor,
    OrthoFrame,
    axis_action,
    cholesky_frames,
    point_norms,
    to_frames,
)

if TYPE_CHECKING:
    from .bundle_conn import LocalConnectionForm

STEP_SCALE = 1e-3
# most sample points in one batch of jets: the memory of a batch grows with
# its size, so a run over any number of points stays bounded
CHUNK = 8


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
    permutation, drawn with ``default_rng(seed).permuted``."""
    rng = default_rng(seed)
    bases: list[int] = []
    cand = 2
    while len(bases) < dim:
        for p in bases:
            if cand % p == 0:
                break
        else:
            bases.append(cand)
        cand += 1
    ndigits = [math.ceil(54 / math.log2(base)) - 1 for base in bases]
    # the weight b^-k of digit k of each axis, by k divisions, one row per axis
    divisors = np.ones((dim, max(ndigits) + 1)) * np.array(bases, float)[:, None]
    divisors[:, 0] = 1.0
    weights = np.divide.accumulate(divisors, axis=1)[:, 1:]
    index = np.arange(count)
    out = np.empty((dim, count))
    for axis, (base, ndigit) in enumerate(zip(bases, ndigits)):
        # one draw per row, from the same stream as a shuffle of each row
        perms = rng.permuted(np.arange(base)[None].repeat(ndigit, axis=0), axis=1)
        # the digits past the first `live` are 0 at every index below count,
        # so those terms are perms[k, 0] b^-k at every index
        live = 0
        while live < ndigit and base ** live < count:
            live += 1
        # digit k of index i is q_k - b q_{k+1}, with q_k = i // b^k
        k = np.arange(live + 1)[:, None]
        quotients = index // base ** k
        w = weights[axis, :ndigit]
        terms = np.empty((ndigit, count))
        np.multiply(perms[k[:-1], quotients[:-1] - base * quotients[1:]], w[:live, None],
                    out=terms[:live])
        terms[live:] = (perms[live:, 0] * w[live:])[:, None]
        # the terms summed in digit order
        out[axis] = np.add.accumulate(terms, axis=0)[-1]
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


class LastJet:
    """One-entry memo of a field's jet: the batch of points it was last
    evaluated at and that jet. A request at those points of an order no
    higher is read off the jet by truncation, so a field that several
    others derive from (the metric under its Christoffel symbols, the
    connection under torsion and curvature) is evaluated once per batch at
    the highest order any of them needs. ``held`` keeps a value derived from
    the jet (the metric's Cholesky frames) until the jet is replaced."""

    def __init__(self):
        self.points: np.ndarray | None = None
        self.jet: Jet | None = None
        self.held = None

    def jet_at(self, x: np.ndarray, order: int, evaluate: Callable[[Jet], Jet]) -> Jet:
        """The jet of the given order at the points x, shape (P, n), or at
        the single point x, shape (n,): read off the memo, or evaluate(the
        coordinate jet) and kept."""
        x = _batch(x)
        if self.jet is None or self.jet.order < order or not np.array_equal(x, self.points):
            self.points, self.jet, self.held = x.copy(), evaluate(variables(x, order)), None
        return self.jet.truncate(order)


def _batch(x: np.ndarray) -> np.ndarray:
    """Points as a (P, n) batch; a single point (n,) is a batch of one."""
    return np.atleast_2d(np.asarray(x, float))


def _base_points(X: Jet) -> np.ndarray:
    """The batch of points of a coordinate jet."""
    return X.value.T


@dataclass(frozen=True)
class TensorFieldSpec:
    """Tensor field on a chart: the evaluator maps the coordinate jet at a
    batch of points to the components' jet there."""

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
        return DenseTensor(self.markers, self.jet_at(x, 0).value[..., 0])


@dataclass(frozen=True)
class MetricField:
    """Riemannian metric on a chart, as a jet evaluator of the matrix."""

    chart: Chart
    evaluator: Callable[[Jet], Jet]
    memo: LastJet = field(default_factory=LastJet, init=False, repr=False, compare=False)

    def jet_at(self, x: np.ndarray, order: int) -> Jet:
        """The jet of g at a batch of points, symmetrized so that the
        Levi-Civita coefficients and the torsion come out exactly symmetric
        and zero. The symmetry check runs once per evaluation, at every
        point of the batch."""
        return self.memo.jet_at(x, order, self._symmetrized)

    def _symmetrized(self, X: Jet) -> Jet:
        g = self.evaluator(X)
        v = g.value
        # NaN and inf fail the comparison, so they raise too
        if not (np.abs(v - v.swapaxes(0, 1)) <= 1e-12).all():
            raise DegenerateMetric("metric evaluator returned a non-symmetric matrix")
        return 0.5 * (g + g.transpose(1, 0))

    def at(self, x: np.ndarray) -> np.ndarray:
        return self.jet_at(x, 0).value[..., 0]


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Linear connection in the coordinate frame: the jet of data[k, i, j]."""

    chart: Chart
    evaluator: Callable[[Jet], Jet]
    symmetric_flag: bool = False
    memo: LastJet = field(default_factory=LastJet, init=False, repr=False, compare=False)

    def jet_at(self, x: np.ndarray, order: int) -> Jet:
        return self.memo.jet_at(x, order, self._checked)

    def _checked(self, X: Jet) -> Jet:
        G = self.evaluator(X)
        if not np.isfinite(G.c).all():
            raise BadParameters("connection coefficients are not finite")
        v = G.value
        if self.symmetric_flag and not (np.abs(v - v.swapaxes(1, 2)) <= 1e-12).all():
            raise BadParameters("symmetric_flag set but coefficients asymmetric")
        return G

    def at(self, x: np.ndarray) -> np.ndarray:
        return self.jet_at(x, 0).value[..., 0]

    def partial_at(self, x: np.ndarray) -> np.ndarray:
        return shift(self.jet_at(x, 1)).value[..., 0]


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


def _inverse(th: Jet, points: np.ndarray) -> Jet:
    """jet.inv of a coframe jet. A singular coframe value raises
    SingularFrame at its first point: LU found an exact zero pivot there,
    so its determinant is 0."""
    try:
        return jet.inv(th)
    except np.linalg.LinAlgError as exc:
        x = points[np.argmax(np.linalg.det(jet.points_first(th.value)) == 0)]
        raise SingularFrame(f"coframe not invertible at {x}: {exc}") from exc


def _christoffel_jet(g: MetricField, x: np.ndarray, order: int) -> Jet:
    """Levi-Civita coefficients half g^{kl}(d_i g_{jl} + d_j g_{il} - d_l g_{ij})
    as a jet of the given order, from one jet of g one order higher."""
    gx = g.jet_at(x, order + 1)
    frame_stacks(g, x)  # the check that g is positive definite
    dg = shift(gx)
    p = dg.transpose(2, 0, 1)  # p[l, i, j] = d_i g_{jl}
    return 0.5 * jet.einsum("kl,lij->kij", jet.inv(gx.truncate(order)),
                            p + p.transpose(0, 2, 1) - dg)


def christoffel_partial(g: MetricField, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Levi-Civita coefficients and their partials out[mu, k, i, j]."""
    G = _christoffel_jet(g, x, 1)
    return G.value[..., 0], shift(G).value[..., 0]


def levi_civita(g: MetricField) -> ConnectionCoeffs:
    """Levi-Civita connection as a coefficient field on g's chart."""
    return ConnectionCoeffs(
        chart=g.chart,
        evaluator=lambda X: _christoffel_jet(g, _base_points(X), X.order),
        symmetric_flag=True,
    )


def nabla(t: Jet, markers: tuple[str, ...], G: Jet | np.ndarray,
          lie: Jet | np.ndarray | None = None) -> Jet:
    """Jet of the covariant derivative of a tensor jet, one order lower; the
    new covariant axis leads. Along direction mu the connection matrix
    G[:, mu, :] acts on the tangent axes (plus on UP, minus transpose on
    DOWN) and ``lie[mu]`` on the LIE axes, e.g. ad of a bundle connection
    form. G and lie may be jets or constant values. The action is taken on
    t one order lower, the order of the result."""
    mat = G.transpose(1, 0, 2)
    return shift(t) + axis_action(markers, t.truncate(t.order - 1), mat, lie)


def curvature_of(G: Jet) -> Jet:
    """Curvature R[l, k, i, j] = d_i G[l,j,k] - d_j G[l,i,k] + G[l,i,m]G[m,j,k]
    - (i<->j) from the connection jet G, one order lower."""
    low = G.truncate(G.order - 1)
    p = shift(G).transpose(1, 3, 0, 2) + jet.einsum("lim,mjk->lkij", low, low)
    return p - p.transpose(0, 1, 3, 2)


def torsion_of(G: Jet) -> Jet:
    """Torsion T[k, i, j] = G[k, i, j] - G[k, j, i] from the connection jet G."""
    return G - G.transpose(0, 2, 1)


def curvature(gamma: ConnectionCoeffs, x: np.ndarray) -> DenseTensor:
    """Curvature of the connection at x."""
    return DenseTensor((UP, DOWN, DOWN, DOWN),
                       curvature_of(gamma.jet_at(x, 1)).value[..., 0])


def curvature_field(gamma: ConnectionCoeffs) -> TensorFieldSpec:
    return TensorFieldSpec(
        chart=gamma.chart,
        markers=(UP, DOWN, DOWN, DOWN),
        evaluator=lambda X: curvature_of(gamma.jet_at(_base_points(X), X.order + 1)),
    )


def torsion_field(conn: ConnectionCoeffs) -> TensorFieldSpec:
    return TensorFieldSpec(
        chart=conn.chart,
        markers=(UP, DOWN, DOWN),
        evaluator=lambda X: torsion_of(conn.jet_at(_base_points(X), X.order)),
    )


def _frame_connection_jet(conn: FrameFieldConnection, X: Jet) -> Jet:
    """Coordinate coefficients E a of a moving-frame connection, with
    a[k, mu, v] = d_mu th[k, v] + th[i, mu] th[l, v] gamma[k, i, l], from the
    coframe one order higher than the coordinate jet X."""
    points = _base_points(X)
    th = conn.coframe(variables(points, X.order + 1))
    low = th.truncate(X.order)
    a = shift(th).transpose(1, 0, 2) + jet.einsum("ia,lv,kil->kav", low, low, conn.gamma)
    return jet.einsum("lk,kav->lav", _inverse(low, points), a)


def frame_connection_field(conn: FrameFieldConnection) -> ConnectionCoeffs:
    """Coordinate ConnectionCoeffs field for a moving-frame connection."""
    return ConnectionCoeffs(
        chart=conn.chart,
        evaluator=lambda X: _frame_connection_jet(conn, X),
    )


def ortho_frame(g: MetricField, x: np.ndarray) -> OrthoFrame:
    """Cholesky orthonormal frame of g at the single point x."""
    coframe, frame = frame_stacks(g, x)
    return OrthoFrame(_batch(x)[0], frame[0], coframe[0])


def frame_stacks(g: MetricField, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coframes and frames of g's Cholesky frames at a batch of points,
    each shape (P, n, n): cholesky_frames of the metric's values, factored
    once per evaluation of the metric and held, read-only, by its memo (the
    Christoffel symbols' positive-definiteness check reads them too)."""
    value = g.jet_at(points, 0).value
    if g.memo.held is None:
        g.memo.held = cholesky_frames(jet.points_first(value))
        for a in g.memo.held:
            a.flags.writeable = False
    return g.memo.held


def ortho_frame_partial(g: MetricField,
                        x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d frame, d coframe) of the Cholesky frame at the single point x,
    each stacked over the coordinate directions, from the first-order
    perturbation of G = L L^T: dL = L Phi(L^-1 dG L^-T), with Phi keeping the
    strict lower triangle and half the diagonal; coframe = L^T and
    frame = L^-T."""
    dg = shift(g.jet_at(x, 1)).value[..., 0]
    fr = ortho_frame(g, x)
    n = len(dg)
    phi = np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n)
    dcoframe = (fr.coframe.T @ (phi * (fr.frame.T @ dg @ fr.frame))).transpose(0, 2, 1)
    return -fr.frame @ dcoframe @ fr.frame, dcoframe


def nan_max(values: Iterable[float] | np.ndarray) -> float:
    """Largest value, 0.0 for none; NaN as soon as any value is NaN."""
    vals = np.asarray(values if isinstance(values, np.ndarray) else list(values), float)
    return float(vals.max()) if vals.size else 0.0


def max_over_batches(rows: Iterable[dict[str, float]]) -> dict[str, float]:
    """Each residual's largest value over its rows, NaN as soon as any is NaN."""
    rows = list(rows)
    return {name: nan_max([row[name] for row in rows]) for name in rows[0]}


def max_over_chunks(check: Callable[[np.ndarray], dict[str, float]],
                    points: np.ndarray) -> dict[str, float]:
    """max_over_batches of check, which maps a batch of at most CHUNK points
    to the largest of each residual there, so a check's memory does not
    grow with the points."""
    points = _batch(points)
    return max_over_batches(check(points[i:i + CHUNK]) for i in range(0, len(points), CHUNK))


def frame_levels(fields: tuple[TensorFieldSpec, ...], form: LocalConnectionForm | None,
                 gamma: ConnectionCoeffs, g: MetricField, points: np.ndarray, kmax: int,
                 frames: tuple[np.ndarray, np.ndarray] | None = None,
                 ) -> list[list[tuple[tuple[str, ...], np.ndarray]]]:
    """Levels 0..kmax of a section at a batch of points, each a list of
    (markers, data), one per field, data point-first in g's Cholesky frames
    (or the (coframes, frames) stacks given). Level k + 1 is the covariant
    derivative of level k: the shift of its jet, plus Gamma and ad of the
    form (on LIE axes) acting on it. Gamma is evaluated first, at order
    kmax + 1, the order a curvature field reads; the fields (order kmax),
    ad (kmax - 1) and the frames read its, the metric's and the form's
    memos, so each is evaluated once per batch. Each level is framed as soon
    as it is built, and only one level's jet is held at a time."""
    if kmax < 1:
        raise DepthMismatch("tower depth kmax must be at least 1")
    points = _batch(points)
    G = gamma.jet_at(points, kmax + 1).truncate(kmax - 1)
    level = [(f.markers, f.jet_at(points, kmax)) for f in fields]
    lie = None if form is None else form.ad_jet(points, kmax - 1)
    coframe, frame = frame_stacks(g, points) if frames is None else frames
    levels = []
    for k in range(kmax + 1):
        levels.append([(m, to_frames(m, jet.points_first(t.value), coframe, frame))
                       for m, t in level])
        if k < kmax:
            level = [((DOWN,) + m, nabla(t, m, G, lie)) for m, t in level]
    return levels


def max_nabla_norms(gamma: ConnectionCoeffs, fields: dict[str, TensorFieldSpec],
                    form: LocalConnectionForm | None, g: MetricField,
                    points: np.ndarray) -> dict[str, float]:
    """Largest norm over the points of the covariant derivative of each
    named field, with ad of the form on LIE axes: level 1 of frame_levels."""
    return max_over_chunks(lambda batch: {
        name: nan_max(point_norms(jet.points_last(d)))
        for name, (_, d) in zip(fields, frame_levels(tuple(fields.values()), form, gamma, g,
                                                     batch, 1)[1])}, points)
