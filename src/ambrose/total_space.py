"""Connection metric and adapted connection on a locally trivialized
principal-bundle total space.

Vector fields are restricted to the module generated by horizontal lifts of
base fields, fundamental fields of constant algebra elements, and vertical
fields of adjoint sections.  Vertical values produced by the case tables
track the provenance of each slot: adjoint-section slots differentiate by the
bundle connection along horizontal directions and are inert vertically, while
constant slots are inert horizontally and move by the bracket vertically.

The checks do not call the per-tuple case tables, which stay their
definition: per point they evaluate one orthonormal frame, the torsion,
curvature and curvature-form tables contracted with it, and one
finite-difference sweep of those, and assemble every tuple as an einsum.
The same sweep gives the curvature partials of the hypotheses and the
shift-form partials of the distribution criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bundle_conn import LocalConnectionForm, curvature_form, form_difference
from .chart_calculus import (
    Chart,
    ConnectionCoeffs,
    MetricField,
    TensorFieldSpec,
    covariant_derivative,
    covariant_derivative_of,
    curvature,
    fd_partials,
    nan_max,
    ortho_frame,
    torsion,
    torsion_field,
)
from .errors import RepMismatch, UnsupportedFieldKind
from .homogeneity import TOLERANCES, VerificationReport, make_report
from .lie_core import AdInvariantInner, LieAlgebra
from .tensor_core import DOWN, LIE, UP, DenseTensor, to_frame


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


def lift(payload) -> GeneratedField:
    return GeneratedField(LIFT, payload)


def fundamental(c) -> GeneratedField:
    return GeneratedField(FUNDAMENTAL, c)


def xi(nu) -> GeneratedField:
    return GeneratedField(ADJOINT, nu)


def horizontal_lift_shift(z, a0: LocalConnectionForm, a: LocalConnectionForm,
                          x: np.ndarray) -> np.ndarray:
    """The algebra element alpha(Z) by which the two horizontal lifts of Z
    differ at x, with alpha = a - a0."""
    x = np.asarray(x, float)
    zv = np.asarray(z(x) if callable(z) else z, float)
    return (a.at(x) - a0.at(x)).T @ zv


def base_cov(model: TotalSpaceModel, h, x: np.ndarray,
             xv: np.ndarray) -> np.ndarray:
    """Base covariant derivative of the base field h along vector xv at x."""
    x = np.asarray(x, float)
    if callable(h):
        dh = fd_partials(h, model.chart, x)
    else:
        dh = np.zeros((model.chart.dim, model.chart.dim))
    hv = np.asarray(h(x) if callable(h) else h, float)
    G = model.gamma.at(x)
    return np.einsum("m,mk->k", xv, dh) + np.einsum("kmj,m,j->k", G, xv, hv)


def conn_cov(model: TotalSpaceModel, nu, x: np.ndarray,
             xv: np.ndarray) -> np.ndarray:
    """Bundle covariant derivative of the adjoint section nu along xv at x."""
    x = np.asarray(x, float)
    if callable(nu):
        dn = fd_partials(nu, model.chart, x)
    else:
        dn = np.zeros((model.chart.dim, model.algebra.dim))
    nv = np.asarray(nu(x) if callable(nu) else nu, float)
    av = model.a.at(x)
    out = np.einsum("m,mi->i", xv, dn)
    for mu in range(model.chart.dim):
        out += xv[mu] * model.algebra.bracket(av[mu], nv)
    return out


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

    def value(self, x):
        raise NotImplementedError  # bracket needs the algebra; use methods below

    def value_in(self, model, x):
        return model.algebra.bracket(self.left.value(x), self.right.value(x))

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


def bar_torsion(model: TotalSpaceModel, u: GeneratedField, v: GeneratedField,
                x: np.ndarray) -> TotalVector:
    """Torsion case table: horizontal pair gives base torsion plus curvature
    form; mixed pairs vanish; vertical pairs give the bracket."""
    x = np.asarray(x, float)
    if u.kind == LIFT and v.kind == LIFT:
        xv, yv = u.at(x), v.at(x)
        t = torsion(model.gamma, x).data
        f = curvature_form(model.a, x).data
        return TotalVector(np.einsum("kij,i,j->k", t, xv, yv),
                           np.einsum("ijc,i,j->c", f, xv, yv))
    if u.kind != LIFT and v.kind != LIFT:
        return TotalVector(np.zeros(model.chart.dim),
                           model.algebra.bracket(u.at(x), v.at(x)))
    return total_zero(model)


def _pair_torsion(model: TotalSpaceModel, uv: TotalVector, vv: TotalVector,
                  x: np.ndarray) -> TotalVector:
    t = torsion(model.gamma, x).data
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


def bracket_fields(model: TotalSpaceModel, u: GeneratedField, v: GeneratedField,
                   x: np.ndarray) -> TotalVector:
    """Lie bracket of generated fields at x: base bracket minus the curvature
    obstruction for lifts; fundamental pairs bracket in the algebra; a lift
    and a fundamental field commute."""
    x = np.asarray(x, float)
    if u.kind == LIFT and v.kind == LIFT:
        xv, yv = u.at(x), v.at(x)
        n = model.chart.dim
        du = fd_partials(u.payload, model.chart, x) if callable(u.payload) \
            else np.zeros((n, n))
        dv = fd_partials(v.payload, model.chart, x) if callable(v.payload) \
            else np.zeros((n, n))
        hx = np.einsum("m,mk->k", xv, dv) - np.einsum("m,mk->k", yv, du)
        f = curvature_form(model.a, x).data
        return TotalVector(hx, -np.einsum("ijc,i,j->c", f, xv, yv))
    if u.kind == FUNDAMENTAL and v.kind == FUNDAMENTAL:
        return TotalVector(np.zeros(model.chart.dim),
                           model.algebra.bracket(u.at(x), v.at(x)))
    if LIFT in (u.kind, v.kind) and FUNDAMENTAL in (u.kind, v.kind):
        return total_zero(model)
    raise UnsupportedFieldKind("bracket supports lift and fundamental fields")


def bar_torsion_direct(model: TotalSpaceModel, u: GeneratedField,
                       v: GeneratedField, x: np.ndarray) -> TotalVector:
    """Torsion from its definition, for comparison against the case table."""
    return (bar_connection_apply(model, u, v, x)
            - bar_connection_apply(model, v, u, x)
            - bracket_fields(model, u, v, x))


def connection_metric(model: TotalSpaceModel, u: TotalVector, v: TotalVector,
                      x: np.ndarray) -> float:
    """g_A: base metric on horizontal parts plus the invariant inner product
    on vertical parts."""
    gx = model.g.at(np.asarray(x, float))
    return float(u.horizontal @ gx @ v.horizontal
                 + u.vertical @ model.inner.matrix @ v.vertical)


def _vertical_coframe(model: TotalSpaceModel) -> np.ndarray:
    # rows w -> orthonormal coordinates for the inner product
    return np.linalg.cholesky(model.inner.matrix).T


def _frame_fields(model: TotalSpaceModel) -> tuple[list[GeneratedField], list[GeneratedField]]:
    n = model.chart.dim
    lifts = [
        lift(lambda y, a=a: ortho_frame(model.g, y).frame[:, a]) for a in range(n)
    ]
    l_inv = np.linalg.inv(_vertical_coframe(model))
    funds = [fundamental(l_inv[:, i]) for i in range(model.algebra.dim)]
    return lifts, funds


def _tv_norm2(model: TotalSpaceModel, tv: TotalVector, x: np.ndarray) -> float:
    fr = ortho_frame(model.g, x)
    h = fr.coframe @ tv.horizontal
    w = _vertical_coframe(model) @ tv.vertical
    return float(h @ h + w @ w)


def _bar_torsion_field(model: TotalSpaceModel, v: GeneratedField,
                       w: GeneratedField):
    """T-bar(v, w) as (horizontal base field, vertical expression)."""
    if v.kind == LIFT and w.kind == LIFT:
        def h_field(y):
            t = torsion(model.gamma, y).data
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


def bar_curvature(model: TotalSpaceModel, u: GeneratedField, v: GeneratedField,
                  w: GeneratedField, x: np.ndarray) -> TotalVector:
    """Curvature case table: nonzero only for horizontal direction pairs."""
    x = np.asarray(x, float)
    if u.kind != LIFT or v.kind != LIFT:
        return total_zero(model)
    uv, vv, wv = (f.value(model, x) for f in (u, v, w))
    return _pair_curvature(model, uv, vv, wv, x)


# the residuals that are hypotheses of the total-space criteria
HYPOTHESES = ("nabla_R", "nabla_T", "nabla_F", "alpha_parallel")


def _hypotheses_hold(residuals: dict[str, float]) -> bool:
    """Each hypothesis residual present is within its default tolerance (NaN
    is not)."""
    tol = TOLERANCES["total-space"]
    return all(residuals[k] <= tol[k] for k in HYPOTHESES if k in residuals)


def _with_partials(f: Callable[[np.ndarray], list[np.ndarray]], chart: Chart,
                   x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The arrays f(x) and their coordinate partials from one fd_partials of
    their concatenation: parts[i][mu] = d_mu of f(x)[i]."""
    vals = f(x)
    d = fd_partials(lambda y: np.concatenate([v.ravel() for v in f(y)]), chart, x)
    cuts = np.cumsum([v.size for v in vals])[:-1]
    return vals, [p.reshape((chart.dim,) + v.shape)
                  for v, p in zip(vals, np.split(d, cuts, axis=1))]


def _frame_actions(model: TotalSpaceModel, x: np.ndarray,
                   E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connection matrices at x along each frame vector E_c: Gamma(E_c) on
    base vectors and ad(a(E_c)) on algebra elements."""
    gc = np.einsum("kmj,mc->ckj", model.gamma.at(x), E)
    adc = np.einsum("eij,mi,mc->cej", model.algebra.structure, model.a.at(x), E)
    return gc, adc


def _along_frame(E: np.ndarray, act: np.ndarray, table: np.ndarray,
                 d: np.ndarray) -> np.ndarray:
    """Covariant derivative along each frame vector E_c (leading axis) of a
    table with coordinate partials d, act[c] acting on its leading axis."""
    return np.tensordot(E, d, axes=(0, 0)) + np.tensordot(act, table, axes=(2, 0))


def _slot_terms(table: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum over the frame slots of a table (every axis after the first) of the
    table with that slot's E_b replaced by del_{E_c} E_b = w[c, p, b] E_p;
    the direction c leads."""
    out = 0.0
    for ax in range(1, table.ndim):
        t = np.moveaxis(np.tensordot(table, w, axes=(ax, 1)), -1, ax)
        out = out + np.moveaxis(t, -1, 0)
    return out


def _frame_tables(model: TotalSpaceModel, y: np.ndarray,
                  alpha: TensorFieldSpec | None = None) -> list[np.ndarray]:
    """The orthonormal frame E at y, the curvature form F and the curvature
    R, and the case tables on E: HT[:, a, b] = T(E_a, E_b),
    NF[:, a, b] = F(E_a, E_b) and HR[:, a, b, c] = R(E_a, E_b) E_c; given a
    shift form alpha, also its values alpha(E_b) on the lifts, SH[:, b]."""
    E = ortho_frame(model.g, y).frame
    t = torsion(model.gamma, y).data
    f = curvature_form(model.a, y).data
    r = curvature(model.gamma, y).data
    tables = [E, f, r, np.einsum("kij,ia,jb->kab", t, E, E),
              np.einsum("ijc,ia,jb->cab", f, E, E),
              np.einsum("lkij,ia,jb,kc->labc", r, E, E, E)]
    if alpha is not None:
        tables.append(alpha.at(y).data.T @ E)
    return tables


def _point_residuals(model: TotalSpaceModel, x: np.ndarray,
                     alpha: TensorFieldSpec | None = None) -> dict[str, float]:
    """Every total-space residual at x from one frame and one FD sweep of
    the frame tables: the hypotheses nabla_R, nabla_T and nabla_F; the norms
    nabla_bar_T of del-bar T-bar over all frame triples and nabla_bar_R of
    del-bar R-bar over (frame, lift, lift, frame) tuples, as the per-tuple
    case tables define them; and, given the shift form alpha, alpha_parallel
    and distribution.

    Only lift triples and the vertical Jacobi triple of T-bar, and the
    lift/lift/lift and lift/lift/fundamental cases of R-bar, are nonzero.
    The other tuples are exact zeros of the case tables, and so is the
    fundamental/lift/lift/fundamental case of R-bar: its derivative
    [F(E_a, E_b), [C_e, C_d]] cancels its Leibniz correction."""
    vals, parts = _with_partials(lambda y: _frame_tables(model, y, alpha), model.chart, x)
    (E, f, r, ht, nf, hr), (dE, df, dr, dht, dnf, dhr) = vals[:6], parts[:6]
    gamma, lie = model.gamma, model.a.ad_at
    fr = ortho_frame(model.g, x)

    def frame_norm(t: DenseTensor) -> float:
        return to_frame(t, fr).norm()

    out = {
        "nabla_R": frame_norm(covariant_derivative_of(
            gamma, DenseTensor((UP, DOWN, DOWN, DOWN), r), dr, x)),
        "nabla_T": frame_norm(covariant_derivative(gamma, torsion_field(gamma), x)),
        "nabla_F": frame_norm(covariant_derivative_of(
            gamma, DenseTensor((DOWN, DOWN, LIE), f), df, x, lie)),
    }
    vc = _vertical_coframe(model)
    cm = np.linalg.inv(vc)  # columns C_i: the fundamental frame elements
    gc, adc = _frame_actions(model, x, E)
    dframe = _along_frame(E, gc, E, dE)
    w = fr.coframe @ dframe  # del_{E_c} E_b = w[c, p, b] E_p
    # lift triples (c, a, b) of T-bar: T(E_a, E_b) + F(E_a, E_b)
    t_h = _along_frame(E, gc, ht, dht) - _slot_terms(ht, w)
    t_v = _along_frame(E, adc, nf, dnf) - _slot_terms(nf, w)
    # vertical triples (k, a, b) of T-bar: [C_a, C_b]
    s = model.algebra.structure
    br = np.einsum("eij,ia,jb->eab", s, cm, cm)
    jacobi = (np.einsum("eij,ik,jab->keab", s, cm, br)
              - np.einsum("eij,ika,jb->keab", s, br, cm)
              - np.einsum("eij,ia,jkb->keab", s, cm, br))
    # (c, a, b, d) of R-bar: R(E_a, E_b)E_d for a lift E_d, and
    # [F(E_a, E_b), C_d] for a fundamental C_d
    r_h = _along_frame(E, gc, hr, dhr) - _slot_terms(hr, w)
    r_v = np.einsum("eij,ciab,jd->ceabd", s, t_v, cm)

    def norm2(coframe, t):  # t[tuple index, component, further tuple indices]
        return float(np.sum(np.tensordot(coframe, t, axes=(1, 1)) ** 2))

    out["nabla_bar_T"] = float(np.sqrt(norm2(fr.coframe, t_h) + norm2(vc, t_v)
                                       + norm2(vc, jacobi)))
    out["nabla_bar_R"] = float(np.sqrt(norm2(fr.coframe, r_h) + norm2(vc, r_v)))
    if alpha is not None:
        out["alpha_parallel"] = frame_norm(covariant_derivative(gamma, alpha, x, lie))
        # the shifts alpha(E_b) of the lifts, differentiated along each E_c
        resid = _along_frame(E, adc, vals[6], parts[6]) - alpha.at(x).data.T @ dframe
        out["distribution"] = nan_max(
            np.linalg.norm(np.tensordot(vc, resid, axes=(1, 1)), axis=0).ravel())
    return out


def _check(model: TotalSpaceModel, a0: LocalConnectionForm | None,
           points: np.ndarray, fixture: str,
           keys: tuple[str, ...] | None = None) -> VerificationReport:
    """The largest of each residual of _point_residuals over the points (all
    of them, or the given keys), flagged when a hypothesis fails."""
    points = np.atleast_2d(np.asarray(points, float))
    alpha = None if a0 is None else form_difference(model.a, a0)
    per_point = [_point_residuals(model, x, alpha) for x in points]
    keys = tuple(per_point[0]) if keys is None else keys
    residuals = {k: nan_max(p[k] for p in per_point) for k in keys}
    flags = [] if _hypotheses_hold(residuals) else ["hypotheses-failed"]
    return make_report("total-space", fixture, points, residuals, flags)


def total_space_check(model: TotalSpaceModel, a0: LocalConnectionForm,
                      points: np.ndarray, fixture: str = "") -> VerificationReport:
    """Both total-space criteria, bar_parallelism_check's and
    distribution_parallel_check's, from one FD sweep per point."""
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
