"""Independent oracles used to pin expected values.

Symbolic Christoffel/Riemann come from sympy and share no code with the
package; the parallel-transport oracle integrates the transport ODE with
scipy.  Oracle callables are built once per metric and cached.

The total-space scaffolding at the end (generated-field constructors, the
torsion, curvature and bracket case tables, the connection metric and the
adapted frame fields) serves the per-tuple case tables of
``ambrose.total_space``, against which the tests check its per-point frame
tables.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import sympy as sp
from scipy.integrate import solve_ivp

from ambrose.bundle_conn import curvature_form
from ambrose.chart_calculus import fd_partials, ortho_frame, torsion
from ambrose.errors import UnsupportedFieldKind
from ambrose.total_space import (
    ADJOINT,
    FUNDAMENTAL,
    LIFT,
    GeneratedField,
    TotalSpaceModel,
    TotalVector,
    _pair_curvature,
    _vertical_coframe,
    bar_connection_apply,
    total_zero,
)


def _christoffel_exprs(g: sp.Matrix, coords: tuple[sp.Symbol, ...]):
    n = len(coords)
    ginv = g.inv()
    gam = [[[sp.S.Zero] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                expr = sp.S.Zero
                for l in range(n):
                    expr += ginv[k, l] * (
                        sp.diff(g[j, l], coords[i])
                        + sp.diff(g[i, l], coords[j])
                        - sp.diff(g[i, j], coords[l])
                    )
                gam[k][i][j] = sp.together(expr / 2)
    return gam


def _riemann_exprs(gam, coords):
    """R[l][k][i][j] matching the convention R(e_i, e_j) e_k = R^l_k{ij} e_l."""
    n = len(coords)
    out = [
        [[[sp.S.Zero] * n for _ in range(n)] for _ in range(n)] for _ in range(n)
    ]
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    expr = sp.diff(gam[l][j][k], coords[i]) - sp.diff(
                        gam[l][i][k], coords[j]
                    )
                    for m in range(n):
                        expr += gam[l][i][m] * gam[m][j][k]
                        expr -= gam[l][j][m] * gam[m][i][k]
                    out[l][k][i][j] = expr
    return out


def _lambdify_nested(exprs, coords, shape):
    flat = []

    def collect(node):
        if isinstance(node, list):
            for item in node:
                collect(item)
        else:
            flat.append(node)

    collect(exprs)
    fn = sp.lambdify(coords, flat, "numpy")

    def call(x):
        vals = fn(*np.asarray(x, float))
        return np.array(vals, float).reshape(shape)

    return call


def _metric_matrix(name: str, params: tuple, coords):
    if name == "round_sphere2":
        (radius,) = params
        r2 = sp.Rational(1) * radius**2
        return sp.diag(r2, r2 * sp.sin(coords[0]) ** 2)
    if name == "hyperbolic_plane":
        y = coords[1]
        return sp.diag(1 / y**2, 1 / y**2)
    if name == "berger_sphere":
        (lam,) = params
        phi, theta, psi = coords
        st, ct = sp.sin(theta), sp.cos(theta)
        spsi, cpsi = sp.sin(psi), sp.cos(psi)
        coframe = sp.Matrix(
            [
                [-st * cpsi, spsi, 0],
                [st * spsi, cpsi, 0],
                [ct, 0, 1],
            ]
        ) / 2
        d = sp.diag(sp.Rational(1) * lam**2, 1, 1)
        return coframe.T * d * coframe
    raise KeyError(name)


@lru_cache(maxsize=None)
def symbolic_geometry(name: str, params: tuple = ()):
    """(christoffel(x) -> (n,n,n), riemann(x) -> (n,n,n,n)) numeric callables."""
    dim = 3 if name == "berger_sphere" else 2
    coords = sp.symbols(f"q0:{dim}", real=True)
    g = _metric_matrix(name, params, coords)
    gam = _christoffel_exprs(g, coords)
    rie = _riemann_exprs(gam, coords)
    n = dim
    return (
        _lambdify_nested(gam, coords, (n, n, n)),
        _lambdify_nested(rie, coords, (n, n, n, n)),
    )


def transport_holonomy_angle(gamma_at, g_at, loop, span=(0.0, 1.0)) -> float:
    """Angle by which parallel transport around a closed loop on a surface
    rotates a vector, measured in the orthonormal frame of g at the start
    point.  gamma_at/g_at give coefficients and metric, (path, velocity)
    parametrize the curve."""
    path, velocity = loop

    def rhs(t, v):
        x = path(t)
        dx = velocity(t)
        G = gamma_at(x)
        return -np.einsum("kij,i,j->k", G, dx, v)

    v0 = np.array([1.0, 0.0])
    sol = solve_ivp(rhs, span, v0, rtol=1e-10, atol=1e-12)
    v1 = sol.y[:, -1]
    coframe = np.linalg.cholesky(np.asarray(g_at(path(span[0])), float)).T
    h0, h1 = coframe @ v0, coframe @ v1
    return float(np.arctan2(h1[1], h1[0]) - np.arctan2(h0[1], h0[0]))


def lift(payload) -> GeneratedField:
    return GeneratedField(LIFT, payload)


def fundamental(c) -> GeneratedField:
    return GeneratedField(FUNDAMENTAL, c)


def xi(nu) -> GeneratedField:
    return GeneratedField(ADJOINT, nu)


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


def bar_curvature(model: TotalSpaceModel, u: GeneratedField, v: GeneratedField,
                  w: GeneratedField, x: np.ndarray) -> TotalVector:
    """Curvature case table: nonzero only for horizontal direction pairs."""
    x = np.asarray(x, float)
    if u.kind != LIFT or v.kind != LIFT:
        return total_zero(model)
    uv, vv, wv = (f.value(model, x) for f in (u, v, w))
    return _pair_curvature(model, uv, vv, wv, x)
