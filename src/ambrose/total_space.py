"""Adapted connection on a locally trivialized principal-bundle total space,
and the total-space parallelism criteria.

The criteria of the adapted connection, del-bar T-bar and del-bar R-bar
parallel and the reference horizontal distribution parallel, are read off
the same covariant derivatives as check_lh_triple's: del T, del R, del F and
del(A - A0) in the orthonormal frames, level 1 of one ``frame_levels``
call per batch of at most CHUNK points. Their frame tuples are those
tensors and the Jacobi sums of the structure constants, and the hypotheses
are the tensors' norms, check_lh_triple's residuals. Each check returns its
residuals by name; cli judges them, and flags a failed hypothesis.

``bar_torsion_derivative`` and ``bar_curvature_derivative`` define those
tuples from the adapted connection itself, on the total space U x g with
coordinates (x, y): a frame connection over the coframe {dx, omega},
omega = Ad(exp(-y)) A + theta(y) dy (Kobayashi and Nomizu, Foundations of
Differential Geometry I, ch. II), whose coefficients in the dual frame
{d_mu^h, e_d*} are Gamma on horizontal triples and the structure constants
on vertical ones. Its torsion and curvature towers are one frame_levels
call, at base points lifted to y = 0: the connection and the metric
g-bar = pi*g + <omega, omega> are invariant under the right action, so
every norm is constant along a fibre. The checks do not call them; the
tests compare the criteria against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jet
from .bundle_conn import LocalConnectionForm
from .chart_calculus import (
    ConnectionCoeffs,
    MetricField,
    TensorFieldSpec,
    _frame_connection_jet,
    curvature_field,
    frame_levels,
    frame_stacks,
    max_over_chunks,
    nan_max,
    torsion_field,
)
from .homogeneity import lh_fields
from .jet import Jet, variables
from .lie_core import AdInvariantInner, LieAlgebra, default_inner
from .tensor_core import point_norms


@dataclass(frozen=True)
class TotalSpaceModel:
    """Base metric and linear connection, and a principal connection form.
    The structure algebra is the form's, with its default invariant inner
    product."""

    g: MetricField
    gamma: ConnectionCoeffs
    a: LocalConnectionForm

    @property
    def algebra(self) -> LieAlgebra:
        return self.a.algebra

    @property
    def inner(self) -> AdInvariantInner:
        return default_inner(self.a.algebra)


def _vertical_coframe(model: TotalSpaceModel) -> np.ndarray:
    # rows w -> orthonormal coordinates for the inner product
    return np.linalg.cholesky(model.inner.matrix).T


def _blocks(X: Jet, base: Jet, const: np.ndarray) -> Jet:
    """A jet in the n + m coordinates X of U x g: the base jet, in the n
    coordinates of U, on the first n indices of every axis, the constant
    const on the last m, and 0 elsewhere."""
    n = X.n - len(const)
    c = np.zeros((X.n,) * const.ndim + X.c.shape[1:])
    c[(slice(n),) * const.ndim] = jet._embed(base, X.n).c
    c[(slice(n, None),) * const.ndim + (slice(None), 0)] = const[..., None]
    return Jet(c, X.n, X.order)


def _base(model: TotalSpaceModel, X: Jet) -> np.ndarray:
    """The base points x of the coordinate jet X at points (x, 0)."""
    return X.value.T[:, :X.n - model.algebra.dim]


def _coframe_jet(model: TotalSpaceModel, X: Jet) -> Jet:
    """The coframe Theta = [[I, 0], [e^{-ad y} A(x), theta(y)]], rows dx and
    omega, at points (x, 0): there ad y vanishes, so e^{-ad y} and
    theta(y) = sum_k (-ad y)^k / (k + 1)! are polynomials to the jet's
    order."""
    s = model.algebra.structure
    n = X.n - len(s)
    neg_ad = jet.einsum("kij,i->kj", -s, X[n:])
    term = X.lift(np.eye(len(s)))
    exp_ad, theta = term, term
    for k in range(1, X.order + 1):
        term = jet.einsum("ij,jk->ik", term, neg_ad) * (1.0 / k)
        exp_ad, theta = exp_ad + term, theta + term * (1.0 / (k + 1))
    a = jet._embed(model.a.jet_at(_base(model, X), X.order), X.n)
    c = np.zeros((X.n,) + X.c.shape)
    c[:n, :n, :, 0] = np.eye(n)[..., None]
    c[n:, :n] = jet.einsum("de,me->dm", exp_ad, a).c
    c[n:, n:] = theta.c
    return Jet(c, X.n, X.order)


def _bar_connection(model: TotalSpaceModel) -> ConnectionCoeffs:
    """The adapted connection in the coordinates of U x g, at points
    (x, 0): the frame connection over Theta whose coefficients in the dual
    frame {d_mu^h, e_d*} are Gamma(x) on horizontal triples, the structure
    constants on vertical ones and 0 on the rest. So del-bar of lifts is
    the lift of del, fundamental fields are horizontally parallel,
    del-bar_{xi*} eta* = [xi, eta]* and del-bar_{xi*} Y^h = 0."""
    def evaluate(X: Jet) -> Jet:
        gamma = _blocks(X, model.gamma.jet_at(_base(model, X), X.order), model.algebra.structure)
        return _frame_connection_jet(X, _coframe_jet(model, variables(X.value.T, X.order + 1)),
                                     gamma)

    return ConnectionCoeffs(evaluator=evaluate)


def _lifted(model: TotalSpaceModel, points: np.ndarray) -> np.ndarray:
    """The points (x, 0) of U x g over the base points x, shape (P, n)."""
    return np.hstack([points, np.zeros((len(points), model.algebra.dim))])


def _adapted_frames(model: TotalSpaceModel, points: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(coframes, frames) of the adapted orthonormal frames {E_a^h, C_d} at
    the points (x, 0): coframe blockdiag(E's coframe, the vertical coframe)
    Theta(x, 0), Theta(x, 0) = [[I, 0], [A(x), I]]."""
    n, vc = points.shape[1], _vertical_coframe(model)
    coframe = np.zeros((len(points), n + len(vc), n + len(vc)))
    coframe[:, :n, :n] = frame_stacks(model.g, points)[0]
    coframe[:, n:, :n] = np.einsum("de,mep->pdm", vc, model.a.jet_at(points, 0).value)
    coframe[:, n:, n:] = vc
    return coframe, np.linalg.inv(coframe)


def _bar_tower(model: TotalSpaceModel, points: np.ndarray,
               field: Callable[[ConnectionCoeffs], TensorFieldSpec]) -> list:
    """Levels 0 and 1 of the tower of the adapted connection's field
    (torsion_field or curvature_field) at the points (x, 0) over the base
    points, in the adapted orthonormal frames."""
    points = np.atleast_2d(np.asarray(points, float))
    gamma = _bar_connection(model)
    return frame_levels((field(gamma),), None, gamma, None, _lifted(model, points), 1,
                        _adapted_frames(model, points))


def bar_torsion_derivative(model: TotalSpaceModel, points: np.ndarray) -> np.ndarray:
    """del-bar T-bar at the points (x, 0) over the base points, point first,
    in the adapted orthonormal frames: data[p, u, k, v, w] is component k
    of (del-bar T-bar)(u; v, w)."""
    return _bar_tower(model, points, torsion_field)[1][0][1]


def bar_curvature_derivative(model: TotalSpaceModel, points: np.ndarray) -> np.ndarray:
    """del-bar R-bar at the points (x, 0) over the base points, point first,
    in the adapted orthonormal frames: data[p, u, l, k, v, w] is component
    l of (del-bar R-bar)(u; v, w) applied to frame vector k."""
    return _bar_tower(model, points, curvature_field)[1][0][1]


def _residuals(model: TotalSpaceModel, points: np.ndarray,
               a0: LocalConnectionForm | None = None) -> dict[str, float]:
    """The largest of every total-space residual over a batch of points,
    from level 1 of one frame_levels call on check_lh_triple's fields
    (lh_fields) of the model's form a and the reference form a0 (a itself
    when there is none), under ad of a, point axis last. The hypotheses
    nabla_R, nabla_T, nabla_F and, given a0, alpha_parallel are the norms of
    those four arrays, as check_lh_triple takes them. In the adapted
    orthonormal frames {E_a^h, C_d}, the components of bar_torsion_derivative
    and bar_curvature_derivative that are not zero are those same tensors:
    del-bar T-bar is del T horizontally and del F vertically on lift
    triples, and the Jacobi sum of [C_k, [C_a, C_b]] on vertical triples;
    del-bar R-bar on (lift, lift, lift, frame) tuples is del R for a lift
    E_d and [del F, C_d] for a fundamental C_d. So nabla_bar_T is the norm
    of [del T, del F, Jacobi] and nabla_bar_R that of [del R, [del F, C_d]],
    vertical parts in the coframe of the inner product; and, given a0,
    distribution is the largest vertical norm of (del alpha)(E_c; E_b),
    alpha = a - a0 the shift form."""
    fields = lh_fields(model.gamma, model.a, model.a if a0 is None else a0)
    d = {name: jet.points_last(data) for name, (_, data) in zip(fields, frame_levels(
        tuple(fields.values()), model.a, model.gamma, model.g, points, 1)[1])}
    out = {k: nan_max(point_norms(d[k])) for k in ("nabla_R", "nabla_T", "nabla_F")}
    vc = _vertical_coframe(model)
    cm = np.linalg.inv(vc)  # columns C_i: the fundamental frame elements
    s = model.algebra.structure
    n_points = d["nabla_F"].shape[-1]

    def norms(*parts):  # each point's norm of all the parts' components
        return nan_max(point_norms(np.concatenate([p.reshape(-1, n_points) for p in parts])))

    # the Jacobi sums of the vertical triples (k, a, b) of T-bar, [C_a, C_b]
    # differentiated along C_k: the same at every point
    br = np.einsum("eij,ia,jb->eab", s, cm, cm)
    jacobi = (np.einsum("eij,ik,jab->keab", s, cm, br)
              - np.einsum("eij,ika,jb->keab", s, br, cm)
              - np.einsum("eij,ia,jkb->keab", s, cm, br))
    jacobi = np.repeat(np.einsum("pe,keab->kpab", vc, jacobi)[..., None], n_points, axis=-1)
    out["nabla_bar_T"] = norms(d["nabla_T"], np.einsum("pe,cabeP->cabpP", vc, d["nabla_F"]),
                               jacobi)
    # vc [X, C_d] = ad_c[:, d] X
    ad_c = np.einsum("pe,eij,jd->pdi", vc, s, cm)
    out["nabla_bar_R"] = norms(d["nabla_R"], np.einsum("pdi,cabiP->cabpdP", ad_c, d["nabla_F"]))
    if a0 is not None:
        out["alpha_parallel"] = nan_max(point_norms(d["nabla_alpha"]))
        out["distribution"] = nan_max(np.linalg.norm(
            np.einsum("pe,cbeP->pcbP", vc, d["nabla_alpha"]), axis=0))
    return out


def total_space_check(model: TotalSpaceModel, a0: LocalConnectionForm,
                      points: np.ndarray) -> dict[str, float]:
    """Both total-space criteria, bar_parallelism_check's and
    distribution_parallel_check's, with their hypotheses, from one set of
    jets per batch of at most CHUNK points."""
    return max_over_chunks(lambda batch: _residuals(model, batch, a0), points)


def bar_parallelism_check(model: TotalSpaceModel, points: np.ndarray) -> dict[str, float]:
    """Torsion and curvature of the adapted connection are parallel, given
    the base parallelism hypotheses nabla_R, nabla_T and nabla_F."""
    return max_over_chunks(lambda batch: _residuals(model, batch), points)


def distribution_parallel_check(model: TotalSpaceModel, a0: LocalConnectionForm,
                                points: np.ndarray) -> dict[str, float]:
    """The reference horizontal distribution is parallel for the adapted
    connection iff the shift form is parallel: alpha_parallel and
    distribution."""
    residuals = total_space_check(model, a0, points)
    return {k: residuals[k] for k in ("alpha_parallel", "distribution")}
