"""Independent oracles used to pin expected values.

Symbolic Christoffel/Riemann come from sympy and share no code with the
package; the parallel-transport oracle integrates the transport ODE with
scipy.  Oracle callables are built once per metric and cached.

The moving-frame structure functions and torsion pin the torsion of the
canonical connection. The derivative tower by nested central finite
differences (FD), and the adapted gauge form with a stabilizer chain built
wherever it is evaluated, FD stencil points included, with its residuals by
FD, are the reference for ``homogeneity.adapted_residuals``.

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

from ambrose import jet
from ambrose.bundle_conn import LocalConnectionForm, SectionSpec, curvature_form
from ambrose.chart_calculus import (
    Chart,
    ConnectionCoeffs,
    FrameFieldConnection,
    MetricField,
    fd_array,
    ortho_frame,
    torsion_field,
)
from ambrose.errors import NotInvariant, NotReductive, NumericalFailure, UnsupportedFieldKind
from ambrose.homogeneity import (
    build_tower,
    frame_gauge_form,
    opozda_section_spec,
    stabilizer_chain,
    with_adjoint_rep,
)
from ambrose.lie_core import (
    default_inner,
    frame_structure_rep,
    reductive_complement,
    tensor_action,
)
from ambrose.tensor_core import DOWN, LIE, DenseTensor, axis_action, to_frame
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
    # the adjugate over the simplified determinant: sympy's inv() of the
    # Berger metric takes seconds
    ginv = g.adjugate() / sp.trigsimp(sp.factor(g.det()))
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


def fd_partials(f, chart: Chart, x: np.ndarray) -> np.ndarray:
    """Every coordinate partial of an array-valued callable by fd_array,
    stacked on a leading axis."""
    return np.stack([fd_array(f, chart, x, mu) for mu in range(chart.dim)])


def stacked_action_loop(tensors, rep) -> np.ndarray:
    """The stacked action matrix one generator at a time: column j stacks
    tensor_action of basis element j on every tensor."""
    cols = [np.concatenate([tensor_action(e, t, rep).components for t in tensors])
            for e in np.eye(rep.algebra.dim)]
    return np.stack(cols, axis=1)


def frame_structure_functions(conn: FrameFieldConnection, x: np.ndarray) -> np.ndarray:
    """c[k, i, j] with [e_i, e_j] = c[k, i, j] e_k for the moving frame."""
    x = np.asarray(x, float)
    E = conn.frame_at(x)
    dth = jet.shift(conn.coframe(jet.variables(x, 1))).value
    a = np.einsum("mkn,mi,nj->kij", dth, E, E)
    return -(a - a.swapaxes(1, 2))


def frame_torsion(conn: FrameFieldConnection, x: np.ndarray) -> np.ndarray:
    """Torsion T[k, i, j] of a moving-frame connection in its own frame,
    including the frame bracket."""
    gam = conn.gamma
    return gam - gam.swapaxes(1, 2) - frame_structure_functions(conn, x)


def fd_tower(sigma: SectionSpec, gamma: ConnectionCoeffs, kmax: int):
    """(markers, x -> array) for sigma and its first kmax iterated covariant
    derivatives, each level the FD of the one below."""

    def nabla_fd(f, markers):
        return lambda x: fd_partials(f, sigma.chart, x) + axis_action(
            markers, f(x), gamma.at(x).transpose(1, 0, 2), None)

    level = [(f.markers, lambda x, f=f: f.at(x).data) for f in sigma.fields]
    out = list(level)
    for _ in range(kmax):
        level = [((DOWN,) + m, nabla_fd(f, m)) for m, f in level]
        out.extend(level)
    return out


def frame_expressed(f, markers, g: MetricField):
    """x -> the callable coordinate field f re-expressed in the Cholesky frame."""
    return lambda x: to_frame(DenseTensor(markers, f(x)), ortho_frame(g, x)).data


def gauge_derivative(b, rep, t_hat, markers, chart: Chart, x: np.ndarray) -> np.ndarray:
    """The gauge-covariant derivative d_mu t_hat + b(x)_mu . t_hat of a
    frame-expressed callable field, its partials by FD."""
    bx = b(x)
    lie = None if rep.lie is None else np.einsum("mi,iab->mab", bx, rep.lie.matrices)
    act = axis_action(markers, t_hat(x), np.einsum("mi,iab->mab", bx, rep.vector.matrices), lie)
    return fd_partials(t_hat, chart, x) + act


def adapted_connection(b0: LocalConnectionForm, b_prime: LocalConnectionForm,
                       chain_field, inner):
    """x -> b0 + component of (b' - b0) in the invariant complement of the
    stabilizer h = bases[singer_k + 1] of chain_field(x), at every point
    it is evaluated at."""

    def ev(x: np.ndarray) -> np.ndarray:
        chain = chain_field(np.asarray(x, float))
        if chain.singer_k is None:
            raise NumericalFailure("stabilizer chain did not stabilize")
        h = chain.bases[chain.singer_k + 1]
        try:
            reductive_complement(h, inner)
        except NotInvariant as exc:
            raise NotReductive(str(exc)) from exc
        beta = b_prime.at(x) - b0.at(x)
        m = inner.matrix
        proj = h @ np.linalg.solve(h.T @ m @ h, h.T @ m)
        return b0.at(x) + beta - beta @ proj.T

    return ev


def stencil_adapt(fix, singer_k: int, b_prime: LocalConnectionForm | None = None):
    """The adapted form x -> b(x) of b_prime (the canonical connection's
    frame gauge form by default) to the Levi-Civita one, with each h read
    off a tower of depth singer_k + 1 built where the form is evaluated, FD
    stencil points included, and memoized per point. Returns (b, b0, rep)."""
    rep = frame_structure_rep(fix.chart.dim)
    inner = default_inner(rep.algebra)
    b0 = frame_gauge_form(fix.gamma, fix.g, rep.vector)
    if b_prime is None:
        b_prime = frame_gauge_form(fix.gamma_canonical, fix.g, rep.vector)
    sigma = opozda_section_spec(fix.gamma)
    memo = {}

    def chain_field(x):
        key = x.tobytes()
        if key not in memo:
            memo[key] = stabilizer_chain(
                build_tower(sigma, None, fix.gamma, fix.g, x, singer_k + 1), rep)
        return memo[key]

    return adapted_connection(b0, b_prime, chain_field, inner), b0, rep


def nested_fd_adapt_residuals(fix, x: np.ndarray, singer_k: int,
                              b_prime: LocalConnectionForm | None = None,
                              ) -> tuple[float, float]:
    """(nabla_beta, nabla_tower) at x from stencil_adapt's form: every
    frame-expressed field differenced by FD, the tower fields nested."""
    b, b0, rep = stencil_adapt(fix, singer_k, b_prime)

    def norm(rep, t_hat, markers):
        d = gauge_derivative(b, rep, t_hat, markers, fix.chart, x)
        return float(np.linalg.norm(np.tensordot(ortho_frame(fix.g, x).frame, d, axes=(0, 0))))

    shift = norm(with_adjoint_rep(rep),
                 lambda y: ortho_frame(fix.g, y).frame.T @ (b(y) - b0.at(y)), (DOWN, LIE))
    levels = fd_tower(opozda_section_spec(fix.gamma), fix.gamma, singer_k + 1)
    return shift, max(norm(rep, frame_expressed(f, m, fix.g), m) for m, f in levels)


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
        t = torsion_field(model.gamma).at(x).data
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
