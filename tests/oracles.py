"""Independent oracles used to pin expected values.

Symbolic Christoffel/Riemann come from sympy and share no code with the
package; the parallel-transport oracle integrates the transport ODE with
scipy.  Oracle callables are built once per metric and cached.

The moving-frame structure functions and torsion pin the torsion of the
canonical connection. The derivative tower by nested central finite
differences (FD), and the adapted shift beta_k of adapt's own route at
every point it is evaluated at, FD stencil points included, with its
residuals by FD, are the reference for ``homogeneity.adapted_residuals``;
so is the per-entry gauge_residual loop over the tower, for the
``nabla_tower`` that adapt takes from its stacked least-squares system.

Two earlier routes to beta are kept as oracles: the difference tensor
S = Gamma_can - Gamma of a fixture's canonical connection, carried as a
tower, which judges the beta that adapt constructs from the Levi-Civita
tower alone; and the moving frame, whose Cholesky factor of a jet, frame
jets and frame gauge forms make FD derivatives of frame-expressed fields
covariant. So are the frame helpers that only tests use, and the total
space's metric g-bar, whose orthonormal frames are the adapted frames the
manifold route reads. Criterion 05's check that two condition systems on a
metric connection agree reads the same difference tensor, and lives here
with it.

Six earlier kernels judge their replacements: the matrix inverse of a
jet by the Neumann series, the functions of one jet by Horner's rule, the
change to orthonormal frames by one einsum per axis over point-last data,
orbit_match's exp Jacobian by its power series, the Cauchy product table
by sorting every pair of multi-indices, and the adapted connection's
least-squares system by one solve per point.
"""

from __future__ import annotations

import dataclasses
import math
import string
from functools import lru_cache

import numpy as np
import sympy as sp
from scipy.integrate import solve_ivp

from ambrose import jet
from ambrose.bundle_conn import LocalConnectionForm
from ambrose.chart_calculus import (
    Chart,
    ConnectionCoeffs,
    FrameFieldConnection,
    MetricField,
    TensorFieldSpec,
    _base_points,
    curvature_field,
    fd_array,
    frame_levels,
    levi_civita,
    max_nabla_norms,
    nabla,
    nan_max,
    ortho_frame,
    torsion_field,
)
from ambrose.errors import (
    AmbroseError,
    DegenerateMetric,
    NotReductive,
    NumericalFailure,
    RepMismatch,
)
from ambrose.fixtures import Fixture
from ambrose.cli import TOLERANCES, verdict
from ambrose.homogeneity import (
    _adapted_shifts,
    gauge_residual,
    opozda_section_spec,
    tower_and_chain,
    with_adjoint_rep,
)
from ambrose.jet import Jet
from ambrose.lie_core import (
    LinearRep,
    action_rows,
    default_inner,
    frame_structure_rep,
    stacked_action_matrix,
    tensor_action,
)
from ambrose.tensor_core import DOWN, LIE, UP, axis_action, cholesky_frames, to_frame
from ambrose.total_space import TotalSpaceModel, _base, _blocks, _coframe_jet


class NotMetric(AmbroseError):
    """A connection failed the metric-compatibility precondition of an
    oracle that reads it in orthonormal frames."""


def warped_surface() -> Fixture:
    """dr^2 + (r + r^3)^2 dtheta^2: Gauss curvature -6 / (1 + r^2) varies
    with r, so towers at points of different r lie in different orbits."""
    chart = Chart(dim=2, box=np.array([[0.5, 1.5], [0.0, 2 * np.pi]]), margin=0.05)

    def ev(X):
        r = X[0]
        return jet.array([[1.0, 0.0], [0.0, (r + r**3) ** 2]])

    return Fixture("warped_surface", {}, chart, MetricField(evaluator=ev))


def bumped(fx: Fixture) -> Fixture:
    """fx with its metric scaled by 1 + 0.2 sin(x_0) cos(x_1), and no
    frame connection: a metric that is not locally homogeneous."""
    def ev(X):
        return fx.g.evaluator(X) * (1.0 + 0.2 * jet.sin(X[0]) * jet.cos(X[1]))

    g = dataclasses.replace(fx.g, evaluator=ev)
    return dataclasses.replace(fx, name="bumped_" + fx.name, g=g, frame_conn=None)


def homothety(fx: Fixture, c: float) -> Fixture:
    """fx with its metric g scaled to c^2 g: a homothety, so every verdict
    on local homogeneity is fx's."""
    ev = fx.g.evaluator
    return dataclasses.replace(fx, g=dataclasses.replace(fx.g, evaluator=lambda X: c * c * ev(X)))


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


def field_at(t: TensorFieldSpec, x: np.ndarray) -> np.ndarray:
    """A field's components at the single point x, its order-0 jet's value."""
    return t.jet_at(x, 0).value[..., 0]


def jet_partials(t: TensorFieldSpec, x: np.ndarray) -> np.ndarray:
    """out[mu] = d_mu of a field's components at the single point x, from its
    first-order jet."""
    return jet.shift(t.jet_at(x, 1)).value[..., 0]


def covariant_derivative(gamma: ConnectionCoeffs, t: TensorFieldSpec, x: np.ndarray,
                         form: LocalConnectionForm | None = None) -> np.ndarray:
    """Covariant derivative of a tensor field at the single point x, markers
    (DOWN,) + t.markers, the new covariant axis leading, with ad of the
    form on the LIE axes."""
    x = np.asarray(x, float)
    return nabla(t.jet_at(x, 1), t.markers, gamma.at(x),
                 None if form is None else form.ad_jet(x, 0).value[..., 0]).value[..., 0]


def exterior_cov_derivative(a: LocalConnectionForm, alpha: TensorFieldSpec,
                            x: np.ndarray) -> np.ndarray:
    """d^A alpha at the single point x for an adjoint-valued 1-form, markers
    (DOWN, DOWN, LIE); coordinate brackets vanish."""
    if alpha.markers != (DOWN, LIE):
        raise RepMismatch("exterior_cov_derivative expects an adjoint-valued 1-form")
    x = np.asarray(x, float)
    dal = jet_partials(alpha, x)
    alv = field_at(alpha, x)
    br = np.einsum("kij,mi,nj->mnk", a.algebra.structure, a.at(x), alv)
    return dal - dal.transpose(1, 0, 2) + br - br.transpose(1, 0, 2)


def fd_partials(f, chart: Chart, x: np.ndarray) -> np.ndarray:
    """Every coordinate partial of an array-valued callable by fd_array,
    stacked on a leading axis."""
    return np.stack([fd_array(f, chart, x, mu) for mu in range(chart.dim)])


def apply_axis(matrix: np.ndarray, data: np.ndarray, axis: int) -> np.ndarray:
    """Contract ``matrix`` into one axis: out[..., i, ...] = M[i, j] t[..., j, ...].
    Axis by axis, it is the oracle of ``homogeneity.group_action``."""
    moved = np.tensordot(matrix, data, axes=(1, axis))
    return np.moveaxis(moved, 0, axis)


def stacked_action_loop(tensors, rep) -> np.ndarray:
    """The stacked action matrix one generator at a time: column j stacks
    tensor_action of basis element j on every tensor (markers, data)."""
    cols = [np.concatenate([tensor_action(e, m, t, rep).reshape(-1) for m, t in tensors])
            for e in np.eye(rep.algebra.dim)]
    return np.stack(cols, axis=1)


def exp_jacobian_series(ad: np.ndarray) -> np.ndarray:
    """sum_k ad^k / (k+1)!. For ad = ad(theta) this is the left Jacobian J_l
    of exp, exp(theta + d) = exp(J_l d) exp(theta) to first order; for
    ad = ad(-theta) it is the right one, exp(theta + d) = exp(theta)
    exp(J_r d). The series is cut once a term no longer changes the sum.
    It is the oracle of the closed form ``homogeneity._exp_jacobian``."""
    out = term = np.eye(len(ad))
    for k in range(2, 100):
        term = term @ ad / k
        if not np.abs(term).max() > 1e-17 * np.abs(out).max():
            break
        out = out + term
    return out


def axis_action_per_axis(markers, data, mat, lie):
    """tensor_core.axis_action one jet.einsum per acted axis, summed in
    axis order: jet data and a jet matrix make one Cauchy product per axis."""
    letters = string.ascii_lowercase[:len(markers)]
    total = None
    for ax, m in enumerate(markers):
        a = lie if m == LIE else mat
        if a is None:
            continue
        j = letters[ax]
        out = letters.replace(j, "Z")
        spec = f"B{j}Z,{letters}->B{out}" if m == DOWN else f"BZ{j},{letters}->B{out}"
        term = jet.einsum(spec, a, data)
        if total is None:
            total = -term if m == DOWN else term
        else:
            total = total - term if m == DOWN else total + term
    return total


def subalgebra_residual_pairs(algebra, basis: np.ndarray) -> float:
    """lie_core.subalgebra_residuals of one basis, one bracket of its
    orthonormalized columns at a time: the QR's columns whose |r_cc| is at
    most 1e-12 x max(1, |r|) are dropped as dependent."""
    q, r = np.linalg.qr(np.asarray(basis, float))
    basis = q[:, np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max(initial=0.0))]
    worst = 0.0
    for i in range(basis.shape[1]):
        for j in range(i + 1, basis.shape[1]):
            w = np.einsum("kij,i,j->k", algebra.structure, basis[:, i], basis[:, j])
            worst = max(worst, float(np.linalg.norm(w - basis @ (basis.T @ w))))
    return worst


def scrambled_halton_loop(dim: int, count: int, seed: int) -> np.ndarray:
    """chart_calculus.scrambled_halton one digit permutation and one digit
    at a time: each row shuffled in turn, each digit taken by a division."""
    rng = np.random.default_rng(seed)
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


def structure_constants_loop(mats: np.ndarray) -> np.ndarray:
    """lie_core.algebra_from_matrices's structure constants with one
    Frobenius Gram solve per bracket."""
    m = mats.shape[0]
    flat = mats.reshape(m, -1)
    gram = flat @ flat.T
    cols = np.zeros((m, m, m))
    for i in range(m):
        for j in range(m):
            w = (mats[i] @ mats[j] - mats[j] @ mats[i]).reshape(-1)
            cols[:, i, j] = np.linalg.solve(gram, flat @ w)
    c = 0.5 * (cols - cols.swapaxes(1, 2))
    c[np.abs(c) < 1e-12] = 0.0
    return c


def frame_from_metric(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(coframe, frame) of the Cholesky frame of the metric value g."""
    coframe, frame = cholesky_frames(np.asarray(g, float)[None])
    return coframe[0], frame[0]


def rotated(frame: tuple[np.ndarray, np.ndarray], q: np.ndarray,
            ) -> tuple[np.ndarray, np.ndarray]:
    """Another valid orthonormal frame (coframe, frame): the frame's columns
    mixed by orthogonal q."""
    q = np.asarray(q, float)
    return q.T @ frame[0], frame[1] @ q


def frame_at(conn: FrameFieldConnection, x: np.ndarray) -> np.ndarray:
    """The frame vectors of a moving-frame connection at the single point x,
    as the columns of its coframe's inverse."""
    return np.linalg.inv(conn.coframe(jet.variables(x, 0)).value[..., 0])


def degrees(n: int, order: int) -> np.ndarray:
    """The order |a| of each multi-index of a jet, in coefficient order."""
    return np.array([sum(a) for a in jet._indices(n, order)])


def product_table_sorted(n: int, order: int):
    """jet._product_table by sorting every pair of multi-indices whose
    orders sum to at most ``order`` by (index of the sum, i, j)."""
    idx = jet._indices(n, order)
    pos = {a: k for k, a in enumerate(idx)}
    pairs = sorted((pos[tuple(p + q for p, q in zip(a, b))], i, j)
                   for i, a in enumerate(idx) for j, b in enumerate(idx)
                   if sum(a) + sum(b) <= order)
    starts = [p for p, (k, _, _) in enumerate(pairs) if p == 0 or pairs[p - 1][0] != k]
    _, i, j = zip(*pairs)
    return np.array(i), np.array(j), np.array(starts), (*starts, len(pairs))


def cholesky(g: Jet) -> Jet:
    """Lower Cholesky factor of a jet of symmetric positive definite
    matrices: G = L0 (I + P) L0^T, and I + P = (I + N)(I + N)^T with N lower
    triangular and no constant term, solved one order at a time."""
    l0 = jet.stacked(np.linalg.cholesky, g.value)
    l0inv = jet.stacked(np.linalg.inv, l0)
    pert = jet.einsum("ij,jk,lk->il", l0inv, jet._nilpotent(g), l0inv)
    deg = degrees(g.n, g.order)
    d = len(l0)
    lower = np.tril(np.ones((d, d)), -1) + 0.5 * np.eye(d)
    n_jet = g.lift(np.zeros((d, d)))
    for k in range(1, g.order + 1):
        q = pert - jet.einsum("ij,kj->ik", n_jet, n_jet)
        n_jet = n_jet + Jet(q.c * (deg == k) * lower[..., None, None], g.n, g.order)
    return jet.einsum("ij,jk->ik", l0, n_jet + np.eye(d))


def inv_neumann(a: Jet) -> Jet:
    """jet.inv by the Neumann series in Horner form: with A = A0 + H and
    X = -A0^-1 H, A^-1 = (I + X (I + X (...))) A0^-1, one Cauchy product
    per order."""
    a0inv = jet.stacked(np.linalg.inv, a.value)
    eye = np.eye(len(a0inv))
    x = -jet.einsum("ij,jk->ik", a0inv, jet._nilpotent(a))
    out = a.lift(eye)
    for _ in range(a.order):
        out = jet.einsum("ij,jk->ik", x, out) + eye
    return jet.einsum("ij,jk->ik", out, a0inv)


def series_horner(u: Jet, coeffs: list[np.ndarray]) -> Jet:
    """jet._series by Horner's rule: sum_k coeffs[k] h^k with h = u - u(x),
    one product per order."""
    h = jet._nilpotent(u)
    c = np.zeros_like(u.c)
    c[..., 0] = coeffs[u.order]
    out = Jet(c, u.n, u.order)
    for k in range(u.order - 1, -1, -1):
        out = h * out
        out.c[..., 0] += coeffs[k]
    return out


def to_frames_per_axis(markers: tuple[str, ...], data: np.ndarray, coframe: np.ndarray,
                       frame: np.ndarray) -> np.ndarray:
    """tensor_core.to_frames by one einsum per acted axis over data with the
    point axis trailing: the arguments and the result as to_frames has
    them, point first."""
    letters = string.ascii_lowercase[:len(markers)]
    out = np.moveaxis(data, 0, -1)
    # [a, j, p]: coframe[p, a, j] on UP axes, frame[p, j, a] on DOWN axes
    mats = {UP: coframe.transpose(1, 2, 0), DOWN: frame.transpose(2, 1, 0)}
    for ax, m in enumerate(markers):
        if m == LIE:
            continue
        j = letters[ax]
        out = np.einsum(f"Z{j}P,{letters}P->{letters.replace(j, 'Z')}P", mats[m], out)
    return np.moveaxis(out, -1, 0)


def frame_jet(g: MetricField, x: np.ndarray, order: int) -> tuple[Jet, Jet]:
    """(frame, coframe) of the Cholesky orthonormal frame of g as jets at the
    points x, from the Cholesky factor of g's jet."""
    try:
        coframe = cholesky(g.jet_at(x, order)).transpose(1, 0)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetric(f"metric not positive definite: {exc}") from exc
    return jet.inv(coframe), coframe


def frame_gauge_form(gamma: ConnectionCoeffs, g: MetricField,
                     so_rep: LinearRep) -> LocalConnectionForm:
    """Moving-frame form of a metric connection in the Cholesky gauge.

    Returns algebra coordinates of w_mu = E^{-1}(d_mu E + Gamma_mu E), which
    must be antisymmetric (the connection must be metric for g)."""
    algebra = so_rep.algebra
    mats = so_rep.matrices
    pinv = np.linalg.pinv(mats.reshape(algebra.dim, -1).T).reshape(-1, *mats.shape[1:])

    def ev(X):
        points, order = X.value.T, X.order
        frame, coframe = frame_jet(g, points, order + 1)
        G = gamma.jet_at(points, order)
        w = jet.einsum("ai,mib->mab", coframe,
                       jet.shift(frame) + jet.einsum("imj,jb->mib", G, frame))
        v = w.value
        skew = np.abs(v + v.transpose(0, 2, 1, 3)).max(axis=(0, 1, 2))
        if (skew > 1e-6 * np.maximum(1.0, np.abs(v).max(axis=(0, 1, 2)))).any():
            raise NotMetric("connection is not metric: gauge form not antisymmetric")
        return jet.einsum("pab,mab->mp", pinv, 0.5 * (w - w.transpose(0, 2, 1)))

    return LocalConnectionForm(algebra=algebra, evaluator=ev)


def difference_field(gamma1: ConnectionCoeffs, gamma0: ConnectionCoeffs) -> TensorFieldSpec:
    """The difference tensor S = Gamma1 - Gamma0 of two connections, read
    off both connections' memos."""
    return TensorFieldSpec(
        markers=(UP, DOWN, DOWN),
        evaluator=lambda X: (gamma1.jet_at(_base_points(X), X.order)
                             - gamma0.jet_at(_base_points(X), X.order)),
    )


EQUIVALENCE_TOLERANCES = dict.fromkeys(("nabla_Rg", "nabla_S", "nabla_R", "nabla_T"), 1e-5)


def passes(scenario: str, residuals: dict[str, float]) -> bool:
    """cli's verdict on a criterion's residuals at the scenario's default
    tolerances. A total-space hypothesis below its tolerance holds, so this
    is also its hypotheses rule."""
    return verdict(residuals, {k: TOLERANCES[scenario][k] for k in residuals})


@dataclasses.dataclass(frozen=True)
class EquivalenceReport:
    residuals: dict[str, float]
    passed: bool
    flags: tuple[str, ...]


def equivalence_check_c_c0(gamma: ConnectionCoeffs, g: MetricField,
                           points: np.ndarray) -> EquivalenceReport:
    """Two equivalent condition systems for a metric connection C vs C0.

    System one: del R^g = 0 and del (C - C0) = 0.  System two: del R^C = 0 and
    del T^C = 0.  Both use del = C. The report passes when the two systems
    agree and every residual is finite; its flags say which systems hold,
    and non-finite when a residual is not."""
    gamma0 = levi_civita(g)
    g_field = TensorFieldSpec(markers=(DOWN, DOWN), evaluator=g.evaluator)
    # S after both curvatures, so that it reads both connections' memos
    residuals = max_nabla_norms(gamma, {
        "nabla_g": g_field,
        "nabla_Rg": curvature_field(gamma0),
        "nabla_R": curvature_field(gamma),
        "nabla_T": torsion_field(gamma),
        "nabla_S": difference_field(gamma, gamma0),
    }, None, g, points)
    if not residuals.pop("nabla_g") <= 1e-7:
        raise NotMetric("connection is not metric-compatible at a sample point")
    tol = EQUIVALENCE_TOLERANCES
    one = verdict(residuals, {n: tol[n] for n in ("nabla_Rg", "nabla_S")})
    two = verdict(residuals, {n: tol[n] for n in ("nabla_R", "nabla_T")})
    finite = all(math.isfinite(v) for v in residuals.values())
    flags = ("systems-agree" if one == two else "systems-disagree",
             "system-one-holds" if one else "system-one-fails",
             "system-two-holds" if two else "system-two-fails")
    return EquivalenceReport(residuals=residuals, passed=one == two and finite,
                             flags=flags if finite else flags + ("non-finite",))


def point_towers(levels) -> list:
    """Each point's tower, a batch of one, from a batch of towers, the
    levels of frame_levels."""
    return [[[(m, data[p:p + 1]) for m, data in lv] for lv in levels]
            for p in range(len(levels[0][0][1]))]


def stacked_levels(towers) -> list:
    """Towers with equal entry shapes, each a batch of one, as one batch in
    frame_levels' layout."""
    return [[(m, np.concatenate([tw[k][i][1] for tw in towers])) for i, (m, _) in enumerate(level)]
            for k, level in enumerate(towers[0])]


def entries(tower, depth: int) -> list:
    """The entries (markers, data) of levels 0..depth of one tower, a batch
    of one, each at its point."""
    return [(m, data[0]) for level in tower[:depth + 1] for m, data in level]


def _entry_pairs(tower, depth: int):
    """(T, Tnext) for each entry T of levels 0..depth, Tnext one level up."""
    found = entries(tower, depth + 1)
    return list(zip(found, found[len(tower[0]):]))


def adapted_shifts_loop(pairs, rep, inner):
    """(beta_k, nabla beta_k, nabla_tower) at each (tower, chain) pair's
    point, in frame indices, nabla beta_k[b, a, i], one least-squares
    system per point: the reference for ``homogeneity._adapted_shifts``,
    which solves the system on the stack of a batch's points."""
    m = inner.matrix
    for tower, chain in pairs:
        if chain.singer_k is None:
            raise NumericalFailure("stabilizer chain did not stabilize")
        h = chain.bases[chain.singer_k]
        # inner is ad-invariant, so the complement of a subalgebra is ad(h)-invariant
        if not chain.subalgebra[chain.singer_k] <= 1e-9:
            raise NotReductive(f"stabilizer at stage {chain.singer_k} is not a subalgebra: "
                               f"closure residual {chain.subalgebra[chain.singer_k]:.3g}")
        # the entries T of levels 0..singer_k, Tnext one level up, T2 two
        found = entries(tower, chain.singer_k + 2)
        per_level = len(tower[0])
        count = len(found) - 2 * per_level
        tensors, nexts, seconds = (found[:count], found[per_level:per_level + count],
                                   found[2 * per_level:])
        n = rep.vector.matrices.shape[-1]
        v = np.concatenate([nxt.reshape(n, -1) for _, nxt in nexts], axis=1)
        w = np.concatenate([t2.reshape(n, n, -1) for _, t2 in seconds], axis=2)
        d = np.concatenate([action_rows(m, nxt, rep) for (m, _), (_, nxt) in zip(tensors, nexts)],
                           axis=1)
        mat = stacked_action_matrix(tensors, rep)
        u, sing, vt = np.linalg.svd(mat, full_matrices=False)
        rank = h.shape[0] - h.shape[1]
        pinv = (vt[:rank].T / sing[:rank]) @ u[:, :rank].T
        beta = -v @ pinv.T
        resid = v + beta @ mat.T
        nabla_beta = -(w + (d @ beta.T).transpose(0, 2, 1)
                       + np.einsum("brj,ar->baj", d, resid) @ pinv) @ pinv.T
        nabla_h = -pinv @ d @ h
        coeff = np.linalg.solve(h.T @ m @ h, h.T @ m)
        proj = h @ coeff
        # P is m-self-adjoint and m is parallel: nabla P is its part off h
        # plus that part's m-adjoint
        off = (np.eye(len(m)) - proj) @ nabla_h @ coeff
        nabla_proj = off + np.linalg.solve(m, off.transpose(0, 2, 1) @ m)
        beta_k = beta - beta @ proj.T
        # each entry's adapted derivative: V + M beta_k on levels 0..singer_k;
        # on level singer_k + 1, whose rows are those of level singer_k,
        # B_b = sum_j beta_k[b, j] X_j also acts on Tnext's leading axis
        offsets = np.cumsum([0] + [t.size for _, t in tensors])
        top = offsets[count - per_level]
        upper = (w[:, :, top:] + (d[:, top:] @ beta_k.T).transpose(2, 0, 1)
                 - np.einsum("bj,jca,cr->bar", beta_k, rep.vector.matrices, v[:, top:]))
        blocks = (np.split(v + beta_k @ mat.T, offsets[1:-1], axis=1)
                  + np.split(upper, offsets[count - per_level + 1:-1] - top, axis=2))
        yield (beta_k,
               nabla_beta - nabla_beta @ proj.T - beta @ nabla_proj.transpose(0, 2, 1),
               nan_max([np.linalg.norm(block) for block in blocks]))


def entrywise_tower_residuals(pairs, rep, inner) -> list[float]:
    """nabla_tower of ``homogeneity.adapted_residuals`` entry by entry, at
    each pair's point: the largest |Tnext + beta_k . T| over the entries T
    of levels 0..singer_k + 1, beta_k acting on every axis of T through
    gauge_residual, the leading covariant axis of a derivative included."""
    return [nan_max([gauge_residual(beta_k, rep, m, t, nxt)
                     for (m, t), (_, nxt) in _entry_pairs(tower, chain.singer_k + 1)])
            for (tower, chain), (beta_k, _, _) in zip(pairs,
                                                      adapted_shifts_loop(pairs, rep, inner))]


def difference_shifts(pairs, points: np.ndarray, gamma: ConnectionCoeffs, s: TensorFieldSpec,
                      g: MetricField, rep, inner):
    """(beta_k, nabla beta_k) at each pair's point, the pairs' towers built
    at the points in g's Cholesky frames, from the difference tensor
    S = Gamma_can - gamma of a metric connection Gamma_can: S is carried as
    a tower of depth 1 in the same frames, beta[a] is the so(n)
    coordinates of S(e_a), and level 1 gives its covariant derivative. Both
    are projected off the Singer-stage stabilizer h as adapt projects its
    own beta, with nabla h = -M^+ M(Tnext[b]) h. An S that is not
    antisymmetric in the frames raises NotMetric."""
    (_, s_hat), (_, nabla_s_hat) = (level[0] for level in frame_levels(
        (s,), None, gamma, g, points, 1))
    skew = np.abs(s_hat + s_hat.transpose(0, 3, 2, 1)).max(axis=(1, 2, 3))
    if (skew > 1e-6 * np.maximum(1.0, np.abs(s_hat).max(axis=(1, 2, 3)))).any():
        raise NotMetric("connection is not metric: difference tensor not antisymmetric")
    mats = rep.vector.matrices
    coords = np.linalg.pinv(mats.reshape(len(mats), -1).T).reshape(mats.shape)
    betas = np.einsum("icb,pcab->pai", coords, s_hat)
    nabla_betas = np.einsum("icb,pdcab->pdai", coords, nabla_s_hat)
    for (tower, chain), beta, nabla_beta in zip(pairs, betas, nabla_betas):
        h = chain.bases[chain.singer_k]
        tensors, nexts = zip(*_entry_pairs(tower, chain.singer_k))
        u, sing, vt = np.linalg.svd(stacked_action_matrix(tensors, rep), full_matrices=False)
        rank = h.shape[0] - h.shape[1]
        pinv = (vt[:rank].T / sing[:rank]) @ u[:, :rank].T
        nabla_h = np.stack([
            -pinv @ stacked_action_matrix(
                [(m, nxt[b]) for (m, _), (_, nxt) in zip(tensors, nexts)], rep) @ h
            for b in range(points.shape[1])
        ])
        m = inner.matrix
        coeff = np.linalg.solve(h.T @ m @ h, h.T @ m)
        proj = h @ coeff
        off = (np.eye(len(m)) - proj) @ nabla_h @ coeff
        nabla_proj = off + np.linalg.solve(m, off.transpose(0, 2, 1) @ m)
        yield (beta - beta @ proj.T,
               nabla_beta - nabla_beta @ proj.T - beta @ nabla_proj.transpose(0, 2, 1))


def bar_metric(model: TotalSpaceModel) -> MetricField:
    """g-bar = Theta^T diag(g(x), <,>) Theta on the total space U x g, at
    points (x, 0): the metric whose orthonormal frames are the adapted
    frames of total_space._adapted_frames."""
    def evaluate(X: Jet) -> Jet:
        th = _coframe_jet(model, X)
        return jet.einsum("ai,ab,bj->ij", th, _blocks(
            X, model.g.jet_at(_base(model, X), X.order), model.inner.matrix), th)

    return MetricField(evaluator=evaluate)


def frame_structure_functions(conn: FrameFieldConnection, x: np.ndarray) -> np.ndarray:
    """c[k, i, j] with [e_i, e_j] = c[k, i, j] e_k for the moving frame."""
    x = np.asarray(x, float)
    E = frame_at(conn, x)
    dth = jet.shift(conn.coframe(jet.variables(x, 1))).value[..., 0]
    a = np.einsum("mkn,mi,nj->kij", dth, E, E)
    return -(a - a.swapaxes(1, 2))


def frame_torsion(conn: FrameFieldConnection, x: np.ndarray) -> np.ndarray:
    """Torsion T[k, i, j] of a moving-frame connection in its own frame,
    including the frame bracket."""
    gam = conn.gamma
    return gam - gam.swapaxes(1, 2) - frame_structure_functions(conn, x)


def fd_tower(sigma: tuple[TensorFieldSpec, ...], gamma: ConnectionCoeffs, chart: Chart,
             kmax: int):
    """(markers, x -> array) for sigma and its first kmax iterated covariant
    derivatives, each level the FD on the chart of the one below."""

    def nabla_fd(f, markers):
        return lambda x: fd_partials(f, chart, x) + axis_action(
            markers, f(x), gamma.at(x).transpose(1, 0, 2), None)

    level = [(f.markers, lambda x, f=f: field_at(f, x)) for f in sigma]
    out = list(level)
    for _ in range(kmax):
        level = [((DOWN,) + m, nabla_fd(f, m)) for m, f in level]
        out.extend(level)
    return out


def frame_expressed(f, markers, g: MetricField):
    """x -> the callable coordinate field f re-expressed in the Cholesky frame."""
    return lambda x: to_frame(markers, f(x), *ortho_frame(g, x))


def gauge_derivative(b, rep, t_hat, markers, chart: Chart, x: np.ndarray) -> np.ndarray:
    """The gauge-covariant derivative d_mu t_hat + b(x)_mu . t_hat of a
    frame-expressed callable field, its partials by FD."""
    bx = b(x)
    lie = None if rep.lie is None else np.einsum("mi,iab->mab", bx, rep.lie.matrices)
    act = axis_action(markers, t_hat(x), np.einsum("mi,iab->mab", bx, rep.vector.matrices), lie)
    return fd_partials(t_hat, chart, x) + act


def tower_shift(fix, depth: int):
    """y -> beta_k(y) in the Cholesky frame at y, by adapt's own route on
    the Levi-Civita tower of the given depth built at y, wherever it is
    evaluated, FD stencil points included; memoized per point."""
    rep = frame_structure_rep(fix.chart.dim)
    inner = default_inner(rep.algebra)
    sigma = opozda_section_spec(fix.gamma)
    memo = {}

    def beta_k(y):
        key = y.tobytes()
        if key not in memo:
            pair = tower_and_chain(sigma, None, fix.gamma, fix.g, y, rep, kmax=depth)
            memo[key] = _adapted_shifts(pair[0], [pair[1]], rep, inner)[0][0]
        return memo[key]

    return beta_k


def covariant_fd(fix, x: np.ndarray, field, rep, markers, form=None) -> np.ndarray:
    """The covariant derivative at x of a field expressed in the Cholesky
    frames, frame-indexed: gauge_derivative with the gauge form ``form``,
    the Levi-Civita frame gauge form's by default, its partials by FD."""
    if form is None:
        form = frame_gauge_form(fix.gamma, fix.g, rep.vector).at
    d = gauge_derivative(form, rep, field, markers, fix.chart, x)
    return np.tensordot(ortho_frame(fix.g, x)[1], d, axes=(0, 0))


def nested_fd_adapt_residuals(fix, x: np.ndarray, singer_k: int) -> tuple[float, float]:
    """(nabla_beta, nabla_tower) at x with tower_shift's beta_k: every
    frame-expressed field differenced by FD, the tower fields nested."""
    rep = frame_structure_rep(fix.chart.dim)
    beta_k = tower_shift(fix, singer_k + 2)
    b0 = frame_gauge_form(fix.gamma, fix.g, rep.vector)

    def b(y):
        """The adapted connection's gauge form, b0 + beta_k in coordinates."""
        return b0.at(y) + ortho_frame(fix.g, y)[0].T @ beta_k(y)

    def norm(rep, t_hat, markers):
        return float(np.linalg.norm(covariant_fd(fix, x, t_hat, rep, markers, b)))

    shift = norm(with_adjoint_rep(rep), beta_k, (DOWN, LIE))
    levels = fd_tower(opozda_section_spec(fix.gamma), fix.gamma, fix.chart, singer_k + 1)
    return shift, max(norm(rep, frame_expressed(f, m, fix.g), m) for m, f in levels)
