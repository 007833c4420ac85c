"""Adapted connection on a locally trivialized principal-bundle total space,
and the total-space parallelism criteria.

The criteria of the adapted connection, del-bar T-bar and del-bar R-bar
parallel and the reference horizontal distribution parallel, are read off
the same covariant derivatives as check_lh_triple's: del T, del R, del F and
del(A - A0) in the orthonormal frames, from one ``nabla_frames`` call per
batch of at most CHUNK points. Their frame tuples are those tensors and the
Jacobi sums of the structure constants, and the hypotheses are the tensors'
norms, check_lh_triple's residuals.

The per-tuple case tables (``bar_torsion_derivative``,
``bar_curvature_derivative``) define those tuples on generated fields:
horizontal lifts of base fields, fundamental fields of constant algebra
elements, and vertical fields of adjoint sections.  Their vertical values
track the provenance of each slot: adjoint-section slots differentiate by the
bundle connection along horizontal directions and are inert vertically,
while constant slots are inert horizontally and move by the bracket
vertically.  The checks do not call them; the tests compare the criteria
against them, with the partials of generated fields by finite differences,
the one derivative by FD left in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bundle_conn import LocalConnectionForm, curvature_form
from .chart_calculus import (
    Chart,
    ConnectionCoeffs,
    MetricField,
    curvature,
    fd_array,
    max_over_chunks,
    nabla_frames,
    nan_max,
    torsion_field,
)
from .errors import RepMismatch, UnsupportedFieldKind
from .homogeneity import TOLERANCES, VerificationReport, lh_fields, make_report
from .lie_core import AdInvariantInner, LieAlgebra
from .tensor_core import LIE, UP, axis_action, point_norms


@dataclass(frozen=True)
class TotalSpaceModel:
    """Base chart with metric and linear connection, structure algebra with
    invariant inner product, and a principal connection form."""

    chart: Chart
    g: MetricField
    gamma: ConnectionCoeffs
    algebra: LieAlgebra
    inner: AdInvariantInner
    a: LocalConnectionForm

    def __post_init__(self):
        if self.a.algebra.labels != self.algebra.labels:
            raise RepMismatch("connection form algebra differs from model algebra")


@dataclass(frozen=True)
class TotalVector:
    """Full tangent value: horizontal part in base coordinates plus vertical
    part in algebra coordinates."""

    horizontal: np.ndarray
    vertical: np.ndarray

    def __add__(self, other: "TotalVector") -> "TotalVector":
        return TotalVector(self.horizontal + other.horizontal,
                           self.vertical + other.vertical)

    def __sub__(self, other: "TotalVector") -> "TotalVector":
        return TotalVector(self.horizontal - other.horizontal,
                           self.vertical - other.vertical)


def total_zero(model: TotalSpaceModel) -> TotalVector:
    return TotalVector(np.zeros(model.chart.dim), np.zeros(model.algebra.dim))


LIFT = "lift"
FUNDAMENTAL = "fundamental"
ADJOINT = "adjoint"


@dataclass(frozen=True)
class GeneratedField:
    """Horizontal lift of a base field, fundamental field of a constant
    algebra element, or vertical field of an adjoint section."""

    kind: str
    payload: np.ndarray | Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.kind not in (LIFT, FUNDAMENTAL, ADJOINT):
            raise UnsupportedFieldKind(f"unknown field kind {self.kind!r}")
        if self.kind == FUNDAMENTAL and callable(self.payload):
            raise UnsupportedFieldKind("fundamental fields take a constant element")

    def at(self, x: np.ndarray) -> np.ndarray:
        if callable(self.payload):
            return np.asarray(self.payload(np.asarray(x, float)), float)
        return np.asarray(self.payload, float)

    def value(self, model: TotalSpaceModel, x: np.ndarray) -> TotalVector:
        v = self.at(x)
        if self.kind == LIFT:
            return TotalVector(v, np.zeros(model.algebra.dim))
        return TotalVector(np.zeros(model.chart.dim), v)


def _cov(model: TotalSpaceModel, f, marker: str, x: np.ndarray, xv: np.ndarray,
         lie: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
    """Covariant derivative along vector xv at x of a field f, constant or
    callable, whose one axis carries the given marker."""
    x = np.asarray(x, float)
    fv = np.asarray(f(x) if callable(f) else f, float)
    df = np.zeros((model.chart.dim,) + fv.shape)
    if callable(f):
        # a third of fd_array's default step: the O(h^4) error falls from
        # about 3e-10 to below 1e-11 while rounding stays smaller
        df = np.stack([fd_array(f, model.chart, x, mu, step_scale=3e-4)
                       for mu in range(model.chart.dim)])
    mat = model.gamma.at(x).transpose(1, 0, 2)
    return xv @ (df + axis_action((marker,), fv, mat, None if lie is None else lie(x)))


def base_cov(model: TotalSpaceModel, h, x: np.ndarray,
             xv: np.ndarray) -> np.ndarray:
    """Base covariant derivative of the base field h along vector xv at x."""
    return _cov(model, h, UP, x, xv)


def conn_cov(model: TotalSpaceModel, nu, x: np.ndarray,
             xv: np.ndarray) -> np.ndarray:
    """Bundle covariant derivative of the adjoint section nu along xv at x."""
    return _cov(model, nu, LIE, x, xv, model.a.ad_at)


class VertExpr:
    """Vertical value with provenance-aware derivative rules."""

    def value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def d_h(self, model: TotalSpaceModel, x: np.ndarray,
            xv: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def d_v(self, model: TotalSpaceModel, x: np.ndarray,
            a: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ConstVert(VertExpr):
    def __init__(self, c: np.ndarray):
        self.c = np.asarray(c, float)

    def value(self, x):
        return self.c

    def d_h(self, model, x, xv):
        return np.zeros_like(self.c)

    def d_v(self, model, x, a):
        return model.algebra.bracket(a, self.c)


class SectionVert(VertExpr):
    def __init__(self, nu: Callable[[np.ndarray], np.ndarray]):
        self.nu = nu

    def value(self, x):
        return np.asarray(self.nu(np.asarray(x, float)), float)

    def d_h(self, model, x, xv):
        return conn_cov(model, self.nu, x, xv)

    def d_v(self, model, x, a):
        return np.zeros(model.algebra.dim)


class BracketVert(VertExpr):
    def __init__(self, left: VertExpr, right: VertExpr):
        self.left = left
        self.right = right

    def d_h(self, model, x, xv):
        return model.algebra.bracket(
            self.left.d_h(model, x, xv), self.right.value(x)
        ) + model.algebra.bracket(self.left.value(x), self.right.d_h(model, x, xv))

    def d_v(self, model, x, a):
        return model.algebra.bracket(
            self.left.d_v(model, x, a), self.right.value(x)
        ) + model.algebra.bracket(self.left.value(x), self.right.d_v(model, x, a))


def bar_connection_apply(model: TotalSpaceModel, u: GeneratedField,
                         v: GeneratedField, x: np.ndarray) -> TotalVector:
    """Case table of the adapted connection on generated fields at x."""
    x = np.asarray(x, float)
    out = total_zero(model)
    if u.kind == LIFT:
        xv = u.at(x)
        if v.kind == LIFT:
            return TotalVector(base_cov(model, v.payload, x, xv),
                               out.vertical)
        if v.kind == ADJOINT:
            return TotalVector(out.horizontal, conn_cov(model, v.payload, x, xv))
        return out
    w = u.at(x)
    if v.kind == FUNDAMENTAL:
        return TotalVector(out.horizontal, model.algebra.bracket(w, v.at(x)))
    return out


def _pair_torsion(model: TotalSpaceModel, uv: TotalVector, vv: TotalVector,
                  x: np.ndarray) -> TotalVector:
    t = torsion_field(model.gamma).at(x).data
    f = curvature_form(model.a, x).data
    h = np.einsum("kij,i,j->k", t, uv.horizontal, vv.horizontal)
    w = np.einsum("ijc,i,j->c", f, uv.horizontal, vv.horizontal)
    w = w + model.algebra.bracket(uv.vertical, vv.vertical)
    return TotalVector(h, w)


def _pair_curvature(model: TotalSpaceModel, uv: TotalVector, vv: TotalVector,
                    wv: TotalVector, x: np.ndarray) -> TotalVector:
    r = curvature(model.gamma, x).data
    f = curvature_form(model.a, x).data
    h = np.einsum("lkij,i,j,k->l", r, uv.horizontal, vv.horizontal, wv.horizontal)
    fv = np.einsum("ijc,i,j->c", f, uv.horizontal, vv.horizontal)
    return TotalVector(h, model.algebra.bracket(fv, wv.vertical))


def _vertical_coframe(model: TotalSpaceModel) -> np.ndarray:
    # rows w -> orthonormal coordinates for the inner product
    return np.linalg.cholesky(model.inner.matrix).T


def _bar_torsion_field(model: TotalSpaceModel, v: GeneratedField,
                       w: GeneratedField):
    """T-bar(v, w) as (horizontal base field, vertical expression)."""
    if v.kind == LIFT and w.kind == LIFT:
        def h_field(y):
            t = torsion_field(model.gamma).at(y).data
            return np.einsum("kij,i,j->k", t, v.at(y), w.at(y))

        def nu_field(y):
            f = curvature_form(model.a, y).data
            return np.einsum("ijc,i,j->c", f, v.at(y), w.at(y))

        return h_field, SectionVert(nu_field)
    if v.kind == FUNDAMENTAL and w.kind == FUNDAMENTAL:
        return None, ConstVert(
            model.algebra.bracket(np.asarray(v.payload, float),
                                  np.asarray(w.payload, float))
        )
    return None, None


def _bar_curvature_field(model: TotalSpaceModel, v: GeneratedField,
                         w: GeneratedField, z: GeneratedField):
    """R-bar(v, w)z as (horizontal base field, vertical expression)."""
    if v.kind != LIFT or w.kind != LIFT:
        return None, None
    if z.kind == LIFT:
        def h_field(y):
            r = curvature(model.gamma, y).data
            return np.einsum("lkij,i,j,k->l", r, v.at(y), w.at(y), z.at(y))

        return h_field, None

    def f_field(y):
        f = curvature_form(model.a, y).data
        return np.einsum("ijc,i,j->c", f, v.at(y), w.at(y))

    return None, BracketVert(SectionVert(f_field), ConstVert(z.payload))


def _derive_output(model: TotalSpaceModel, h_field, vert: VertExpr | None,
                   u: GeneratedField, x: np.ndarray) -> TotalVector:
    """Covariant derivative of a case-table output field along frame field u."""
    out = total_zero(model)
    if u.kind == LIFT:
        xv = u.at(x)
        h = base_cov(model, h_field, x, xv) if h_field is not None else out.horizontal
        w = vert.d_h(model, x, xv) if vert is not None else out.vertical
        return TotalVector(h, w)
    a = u.at(x)
    w = vert.d_v(model, x, a) if vert is not None else out.vertical
    return TotalVector(out.horizontal, w)


def bar_torsion_derivative(model: TotalSpaceModel, u: GeneratedField,
                           v: GeneratedField, w: GeneratedField,
                           x: np.ndarray) -> TotalVector:
    """(del-bar T-bar)(u; v, w) on adapted frame fields."""
    x = np.asarray(x, float)
    h_field, vert = _bar_torsion_field(model, v, w)
    term1 = _derive_output(model, h_field, vert, u, x)
    dv = bar_connection_apply(model, u, v, x)
    dw = bar_connection_apply(model, u, w, x)
    term2 = _pair_torsion(model, dv, w.value(model, x), x)
    term3 = _pair_torsion(model, v.value(model, x), dw, x)
    return term1 - term2 - term3


def bar_curvature_derivative(model: TotalSpaceModel, u: GeneratedField,
                             v: GeneratedField, w: GeneratedField,
                             z: GeneratedField, x: np.ndarray) -> TotalVector:
    """(del-bar R-bar)(u; v, w, z) on adapted frame fields."""
    x = np.asarray(x, float)
    h_field, vert = _bar_curvature_field(model, v, w, z)
    term1 = _derive_output(model, h_field, vert, u, x)
    dv = bar_connection_apply(model, u, v, x)
    dw = bar_connection_apply(model, u, w, x)
    dz = bar_connection_apply(model, u, z, x)
    vv, wv, zv = (f.value(model, x) for f in (v, w, z))
    term2 = _pair_curvature(model, dv, wv, zv, x)
    term3 = _pair_curvature(model, vv, dw, zv, x)
    term4 = _pair_curvature(model, vv, wv, dz, x)
    return term1 - term2 - term3 - term4


# the residuals that are hypotheses of the total-space criteria
HYPOTHESES = ("nabla_R", "nabla_T", "nabla_F", "alpha_parallel")


def _hypotheses_hold(residuals: dict[str, float]) -> bool:
    """Each hypothesis residual present is within its default tolerance (NaN
    is not)."""
    tol = TOLERANCES["total-space"]
    return all(residuals[k] <= tol[k] for k in HYPOTHESES if k in residuals)


def _residuals(model: TotalSpaceModel, points: np.ndarray,
               a0: LocalConnectionForm | None = None) -> dict[str, float]:
    """The largest of every total-space residual over a batch of points,
    from one nabla_frames call on check_lh_triple's fields (lh_fields) of
    the model's form a and the reference form a0 (a itself when there is
    none). The hypotheses nabla_R, nabla_T, nabla_F and, given a0,
    alpha_parallel are the norms of those four arrays, as check_lh_triple
    takes them. In the orthonormal frames E_a of the base and C_d of the
    algebra, the nonzero frame tuples of the case tables are those same
    tensors: del-bar T-bar is del T horizontally and del F vertically on
    lift triples, and the Jacobi sum of [C_k, [C_a, C_b]] on vertical
    triples; del-bar R-bar on (lift, lift, lift, frame) tuples is del R for
    a lift E_d and [del F, C_d] for a fundamental C_d. So nabla_bar_T is the
    norm of [del T, del F, Jacobi] and nabla_bar_R that of
    [del R, [del F, C_d]], vertical parts in the coframe of the inner
    product; and, given a0, distribution is the largest vertical norm of
    (del alpha)(E_c; E_b), alpha = a - a0 the shift form.

    The other tuples are exact zeros of the case tables, and so is the
    fundamental/lift/lift/fundamental case of R-bar: its derivative
    [F(E_a, E_b), [C_e, C_d]] cancels its Leibniz correction."""
    fields = lh_fields(model.gamma, model.a, model.a if a0 is None else a0)
    d = nabla_frames(model.gamma, fields, model.g, points)
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


def _check(model: TotalSpaceModel, a0: LocalConnectionForm | None,
           points: np.ndarray, fixture: str,
           keys: tuple[str, ...] | None = None) -> VerificationReport:
    """The largest of each residual of _residuals over the points, in
    batches of at most CHUNK (all of them, or the given keys), flagged when
    a hypothesis fails."""
    points = np.atleast_2d(np.asarray(points, float))
    residuals = max_over_chunks(lambda batch: _residuals(model, batch, a0), points)
    if keys is not None:
        residuals = {k: residuals[k] for k in keys}
    flags = [] if _hypotheses_hold(residuals) else ["hypotheses-failed"]
    return make_report("total-space", fixture, points, residuals, flags)


def total_space_check(model: TotalSpaceModel, a0: LocalConnectionForm,
                      points: np.ndarray, fixture: str = "") -> VerificationReport:
    """Both total-space criteria, bar_parallelism_check's and
    distribution_parallel_check's, from one set of jets per batch of points."""
    return _check(model, a0, points, fixture)


def bar_parallelism_check(model: TotalSpaceModel, points: np.ndarray,
                          fixture: str = "") -> VerificationReport:
    """Torsion and curvature of the adapted connection are parallel, given
    the base parallelism hypotheses."""
    return _check(model, None, points, fixture)


def distribution_parallel_check(model: TotalSpaceModel, a0: LocalConnectionForm,
                                points: np.ndarray,
                                fixture: str = "") -> VerificationReport:
    """The reference horizontal distribution is parallel for the adapted
    connection iff the shift form is parallel."""
    return _check(model, a0, points, fixture, ("alpha_parallel", "distribution"))
