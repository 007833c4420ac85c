"""Tests for the total-space model: the adapted connection on U x g, its
torsion and curvature and their derivatives in the adapted orthonormal
frames, judged by closed forms and judging the frame tables of the
parallelism checks; the checks themselves, and the horizontal-distribution
criterion."""

import dataclasses
import json
import sys

import numpy as np
import pytest

from ambrose import bundle_conn, chart_calculus, cli, jet, tensor_core
from ambrose.bundle_conn import LocalConnectionForm, curvature_form_field
from ambrose.chart_calculus import (
    FrameFieldConnection,
    curvature_field,
    frame_connection_field,
    frame_levels,
    sample_interior,
    torsion_field,
)
from ambrose.fixtures import instantiate, smooth_connection_form
from ambrose.homogeneity import check_lh_triple
from ambrose.lie_core import algebra_by_name, default_inner
from ambrose.tensor_core import point_norms
from ambrose.total_space import (
    TotalSpaceModel,
    _adapted_frames,
    _bar_connection,
    _bar_tower,
    _coframe_jet,
    _lifted,
    _residuals,
    _vertical_coframe,
    bar_curvature_derivative,
    bar_parallelism_check,
    bar_torsion_derivative,
    distribution_parallel_check,
    total_space_check,
)
from oracles import bar_metric, field_at, passes

SU2 = algebra_by_name("su(2)")


def model_of(fx, a=None, gamma=None):
    return TotalSpaceModel(g=fx.g, gamma=fx.gamma if gamma is None else gamma,
                           a=fx.a0 if a is None else a)


def hopf_model(charge=1):
    fx = instantiate("hopf_monopole", {"charge": charge})
    return model_of(fx), fx


def flat_model(algebra="su(2)"):
    fx = instantiate("trivial_bundle_flat", {"algebra": algebra})
    return model_of(fx), fx


def generic_model(algebra="su(2)"):
    fx = instantiate("hopf_monopole", {})
    return model_of(fx, smooth_connection_form(fx.chart, algebra_by_name(algebra), seed=5)), fx


def bump_model():
    fx = instantiate("hopf_monopole", {})
    return model_of(fx, fx.a0.shifted(fx.alpha_bump)), fx


def berger_model():
    """berger_sphere's torsionful canonical connection under a generic form."""
    fx = instantiate("berger_sphere", {})
    return model_of(fx, smooth_connection_form(fx.chart, SU2, seed=5), fx.gamma_canonical), fx


def torsion_model():
    """A metric connection on round_sphere3 whose torsion is not parallel:
    constant coefficients, skew in their frame indices, over its
    orthonormal su(2) coframe; under a generic form."""
    fx = instantiate("round_sphere3", {})
    coeffs = np.random.default_rng(3).normal(size=(3, 3, 3))
    conn = FrameFieldConnection(coframe=fx.frame_conn.coframe,
                                gamma=coeffs - coeffs.transpose(2, 1, 0))
    return model_of(fx, smooth_connection_form(fx.chart, SU2, seed=5),
                    frame_connection_field(conn)), fx


MODELS = {
    "hopf1": lambda: hopf_model(1), "hopf2": lambda: hopf_model(2),
    "flat-su2": lambda: flat_model("su(2)"), "flat-so3": lambda: flat_model("so(3)"),
    "flat-su2u1": lambda: flat_model("su(2)+u(1)"),
    "generic-su2": lambda: generic_model("su(2)"),
    "generic-su2u1": lambda: generic_model("su(2)+u(1)"),
    "hopf-bump": bump_model, "berger-generic": berger_model, "sphere3-torsion": torsion_model,
}
CURVED = ["hopf1", "hopf2", "generic-su2", "generic-su2u1", "berger-generic", "sphere3-torsion"]


def close(got, want, tol=1e-13):
    """got equals want to tol relative to want's largest entry (absolute
    below 1)."""
    return np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())


class TestModel:
    @pytest.mark.parametrize("algebra", ["su(2)", "so(3)", "su(2)+u(1)"])
    def test_algebra_and_inner_are_the_forms(self, algebra):
        """The model's algebra is its form's, one object, and its inner
        product that algebra's default: there is no second copy to
        disagree with the form."""
        model, fx = flat_model(algebra)
        assert model.algebra is fx.a0.algebra
        assert model.inner is default_inner(fx.a0.algebra)
        assert [f.name for f in dataclasses.fields(TotalSpaceModel)] == ["g", "gamma", "a"]


def frame_fields(model, points):
    """The frame {d_mu^h, e_d*} dual to the coframe Theta as a first-order
    jet at the points (x, 0), and Theta's values there, point last."""
    th = _coframe_jet(model, jet.variables(_lifted(model, points), 1))
    return jet.inv(th), th.value


def derivative_along(model, points, field):
    """del-bar of a vector field jet (value shape (N,)) along each frame
    vector, in the frame: out[a, i, P] is component a of del-bar_{E_i} V."""
    e, th0 = frame_fields(model, points)
    gbar = _bar_connection(model).jet_at(_lifted(model, points), 0).value
    d = jet.shift(field).value + np.einsum("kmlP,lP->mkP", gbar, field.value)
    return np.einsum("akP,miP,mkP->aiP", th0, e.value, d)


class TestAdaptedConnection:
    """The adapted connection on U x g, from its coframe Theta: the metric,
    the brackets of the frame fields and the rules that define del-bar."""

    @pytest.mark.parametrize("name", ["hopf1", "generic-su2u1", "berger-generic"])
    def test_metric_blocks_and_orthonormal_frames(self, name):
        """g-bar is g on the horizontal lifts, the inner product on the
        fundamental fields and 0 between them; the adapted frames are
        g-bar-orthonormal."""
        model, fx = MODELS[name]()
        pts = sample_interior(fx.chart, 4, seed=1)
        n, m = fx.chart.dim, model.algebra.dim
        gbar = jet.points_first(bar_metric(model).jet_at(_lifted(model, pts), 0).value)
        th_inv = np.linalg.inv(jet.points_first(frame_fields(model, pts)[1]))
        blocks = np.einsum("pai,pab,pbj->pij", th_inv, gbar, th_inv)
        want = np.zeros_like(blocks)
        want[:, :n, :n] = jet.points_first(fx.g.jet_at(pts, 0).value)
        want[:, n:, n:] = model.inner.matrix
        assert close(blocks, want)
        _, frame = _adapted_frames(model, pts)
        gram = np.einsum("pai,pab,pbj->pij", frame, gbar, frame)
        assert close(gram, np.broadcast_to(np.eye(n + m), gram.shape))

    @pytest.mark.parametrize("name", ["hopf2", "generic-su2u1"])
    def test_brackets_of_frame_fields(self, name):
        """[d_i^h, d_j^h] = -F_ij*, [e_c*, e_d*] = [e_c, e_d]*, and lifts
        commute with fundamental fields."""
        model, fx = MODELS[name]()
        pts = sample_interior(fx.chart, 4, seed=2)
        n, s = fx.chart.dim, model.algebra.structure
        e, th0 = frame_fields(model, pts)
        de = jet.shift(e).value
        br = np.einsum("miP,mkjP->kijP", e.value, de)
        br = np.einsum("akP,kijP->aijP", th0, br - br.transpose(0, 2, 1, 3))
        want = np.zeros_like(br)
        f = curvature_form_field(model.a).jet_at(pts, 0).value
        want[n:, :n, :n] = -f.transpose(2, 0, 1, 3)
        want[n:, n:, n:] = s[..., None]
        assert close(br, want)

    def test_bracket_of_a_coordinate_lift(self):
        """[x_1 d_0^h, d_1^h] = -d_0^h - x_1 F_01*."""
        model, fx = hopf_model()
        pts = sample_interior(fx.chart, 3, seed=3)
        e, th0 = frame_fields(model, pts)
        X = jet.variables(_lifted(model, pts), 1)
        u, v = e[:, 0] * X[1], e[:, 1]
        d_u, d_v = jet.shift(u).value, jet.shift(v).value
        br = (np.einsum("mP,mkP->kP", u.value, d_v) - np.einsum("mP,mkP->kP", v.value, d_u))
        br = np.einsum("akP,kP->aP", th0, br)
        f = curvature_form_field(model.a).jet_at(pts, 0).value
        want = np.zeros_like(br)
        want[0] = -1.0
        want[2:] = -pts[:, 1] * f[0, 1]
        assert close(br, want)

    @pytest.mark.parametrize("name", ["hopf1", "generic-su2u1", "berger-generic"])
    def test_connection_rules(self, name):
        """In the frame {d_mu^h, e_d*}: del-bar of lifts is the lift of del,
        fundamental fields are horizontally parallel, del-bar_{e_c*} e_d* =
        [e_c, e_d]* and del-bar_{e_c*} d_mu^h = 0."""
        model, fx = MODELS[name]()
        pts = sample_interior(fx.chart, 4, seed=4)
        n, s = fx.chart.dim, model.algebra.structure
        e = frame_fields(model, pts)[0]
        got = np.stack([derivative_along(model, pts, e[:, j]) for j in range(len(e.value))],
                       axis=2)
        want = np.zeros_like(got)
        want[:n, :n, :n] = model.gamma.jet_at(pts, 0).value
        want[n:, n:, n:] = s[..., None]
        assert close(got, want)

    @pytest.mark.parametrize("name", ["hopf1", "generic-su2u1"])
    def test_adjoint_section_derivative(self, name):
        """The vertical field of an adjoint section nu, e^{-ad y} nu(x) on
        the fundamental fields, has del-bar (d nu + [A, nu])* along the lifts
        d_mu^h and 0 along the fundamental fields."""
        model, fx = MODELS[name]()
        pts = sample_interior(fx.chart, 3, seed=5)
        n, s = fx.chart.dim, model.algebra.structure
        m = len(s)
        X = jet.variables(_lifted(model, pts), 1)
        nu = jet.array([X[0] * X[1], X[1]] + [X[0] + 0.5] * (m - 2))
        ad_y = jet.einsum("kij,i->kj", s, X[n:])
        rotated = nu - jet.einsum("kj,j->k", ad_y, nu)  # e^{-ad y} nu to first order
        field = jet.einsum("kd,d->k", frame_fields(model, pts)[0][:, n:], rotated)
        got = derivative_along(model, pts, field)
        x0, x1 = pts[:, 0], pts[:, 1]
        dnu = np.zeros((n, m, len(pts)))
        dnu[0, 0], dnu[1, 0], dnu[1, 1], dnu[0, 2:] = x1, x0, 1.0, 1.0
        a = model.a.jet_at(pts, 0).value
        want = np.zeros_like(got)
        want[n:, :n] = (dnu + np.einsum("kij,miP,jP->mkP", s, a, nu.value)).transpose(1, 0, 2)
        assert close(got, want)


def base_level0(model, pts):
    """T, R and F at the points in g's Cholesky frames, F's algebra axis in
    the coframe of the inner product, point first."""
    fields = (torsion_field(model.gamma), curvature_field(model.gamma),
              curvature_form_field(model.a))
    t, r, f = (d for _, d in frame_levels(fields, model.a, model.gamma, model.g, pts, 1)[0])
    return t, r, np.einsum("de,pije->pdij", _vertical_coframe(model), f)


def frame_brackets(model):
    """vc [C_a, C_b] in the adapted orthonormal basis C of the algebra, and
    the matrices ad_c[d] X = vc [X, C_d] of orthonormal components X."""
    vc = _vertical_coframe(model)
    cm = np.linalg.inv(vc)
    s = model.algebra.structure
    return (np.einsum("pe,eij,ia,jb->pab", vc, s, cm, cm),
            np.einsum("pe,eij,jd->pdi", vc, s, cm) @ cm[None])


class TestTorsionAndCurvature:
    """Level 0 of the towers of T-bar and R-bar in the adapted orthonormal
    frames {E_a^h, C_d}: the closed forms of the adapted connection."""

    def test_horizontal_torsion_is_curvature_form(self):
        """T-bar(d_0^h, d_1^h) = F_01* = sin(x_0) e_3* at charge 2."""
        model, fx = hopf_model(charge=2)
        pts = sample_interior(fx.chart, 3, seed=6)
        t = field_at(torsion_field(_bar_connection(model)), _lifted(model, pts[:1]))
        e, th0 = frame_fields(model, pts[:1])
        out = th0[..., 0] @ np.einsum("kij,i,j->k", t, e.value[:, 0, 0], e.value[:, 1, 0])
        assert close(out, np.array([0.0, 0.0, 0.0, 0.0, np.sin(pts[0, 0])]))

    @pytest.mark.parametrize("name", CURVED)
    def test_torsion_closed_form(self, name):
        """T-bar is [T, F] on lift pairs, the orthonormal structure
        constants on vertical pairs and 0 on mixed pairs."""
        model, fx = MODELS[name]()
        pts = sample_interior(fx.chart, 4, seed=7)
        n = fx.chart.dim
        t_bar = _bar_tower(model, pts, torsion_field)[0][0][1]
        t, _, f = base_level0(model, pts)
        want = np.zeros_like(t_bar)
        want[:, :n, :n, :n] = t
        want[:, n:, :n, :n] = f
        want[:, n:, n:, n:] = frame_brackets(model)[0]
        assert close(t_bar, want)

    @pytest.mark.parametrize("name", CURVED)
    def test_curvature_closed_form(self, name):
        """R-bar is R on lift triples and [F, C_d] in the vertical slot, and
        0 when either 2-form slot is vertical."""
        model, fx = MODELS[name]()
        pts = sample_interior(fx.chart, 4, seed=8)
        n = fx.chart.dim
        r_bar = _bar_tower(model, pts, curvature_field)[0][0][1]
        _, r, f = base_level0(model, pts)
        want = np.zeros_like(r_bar)
        want[:, :n, :n, :n, :n] = r
        want[:, n:, n:, :n, :n] = np.einsum("qdi,pixy->pqdxy", frame_brackets(model)[1], f)
        assert close(r_bar, want)

    @pytest.mark.parametrize("name", ["flat-su2", "flat-so3", "flat-su2u1", "hopf1", "hopf2"])
    def test_parallel_bundles(self, name):
        """On flat bundles and on the monopoles, del-bar T-bar and del-bar
        R-bar vanish in every component: vertical directions on horizontal
        pairs included."""
        model, fx = MODELS[name]()
        pts = sample_interior(fx.chart, 4, seed=9)
        assert np.abs(bar_torsion_derivative(model, pts)).max() < 1e-13
        assert np.abs(bar_curvature_derivative(model, pts)).max() < 1e-13


def bar_norms(model, pts):
    """Each point's norm of del-bar T-bar and of del-bar R-bar, from the
    manifold route."""
    return (point_norms(jet.points_last(bar_torsion_derivative(model, pts))),
            point_norms(jet.points_last(bar_curvature_derivative(model, pts))))


class TestFrameTables:
    """The frame tables of bar_parallelism_check against the manifold route
    that defines them, point by point."""

    @pytest.mark.parametrize("name", MODELS)
    def test_norms_match_manifold_route(self, name):
        model, fx = MODELS[name]()
        for seed in (8, 11):
            pts = sample_interior(fx.chart, 3, seed=seed)
            for i, new in enumerate(zip(*bar_norms(model, pts))):
                res = _residuals(model, pts[i])
                for got, ref in zip(new, (res["nabla_bar_T"], res["nabla_bar_R"])):
                    if ref > 1e-8:
                        assert got == pytest.approx(ref, rel=1e-12)
                    else:
                        assert got == pytest.approx(ref, abs=1e-11)

    @pytest.mark.parametrize("algebra", ["su(2)", "so(3)", "su(2)+u(1)"])
    def test_flat_bundle_tables_are_exact_zero(self, algebra):
        model, fx = flat_model(algebra)
        for x in sample_interior(fx.chart, 2, seed=8):
            res = _residuals(model, x)
            assert (res["nabla_bar_T"], res["nabla_bar_R"]) == (0.0, 0.0)

    def test_generic_connection_residual(self):
        model, fx = generic_model()
        x = sample_interior(fx.chart, 1, seed=6)
        res = _residuals(model, x)
        for got in ((res["nabla_bar_T"], res["nabla_bar_R"]), bar_norms(model, x)):
            assert np.ravel(got) == pytest.approx([11.8408, 11.8408], abs=1e-4)


class TestParallelismChecks:
    def test_monopole_passes(self):
        model, fx = hopf_model()
        pts = sample_interior(fx.chart, 2, seed=4)
        residuals = bar_parallelism_check(model, pts)
        assert passes("total-space", residuals)
        assert set(residuals) == {
            "nabla_R", "nabla_T", "nabla_F", "nabla_bar_T", "nabla_bar_R",
        }
        assert residuals["nabla_bar_T"] < 1e-5
        assert residuals["nabla_bar_R"] < 1e-5
        assert cli.hypotheses_hold(residuals)

    def test_generic_connection_fails_hypotheses(self):
        model, fx = generic_model()
        pts = sample_interior(fx.chart, 1, seed=6)
        residuals = bar_parallelism_check(model, pts)
        assert not passes("total-space", residuals)
        assert not cli.hypotheses_hold(residuals)
        assert residuals["nabla_F"] > 1e-2

    def test_distribution_parallel_reference(self):
        model, fx = hopf_model()
        moved = fx.a0.shifted(fx.alpha_parallel)
        pts = sample_interior(fx.chart, 3, seed=7)
        residuals = distribution_parallel_check(model, moved, pts)
        assert passes("total-space", residuals)
        assert residuals["alpha_parallel"] < 1e-9
        assert residuals["distribution"] < 1e-5

    def test_distribution_bump_reference(self):
        model, fx = hopf_model()
        moved = fx.a0.shifted(fx.alpha_bump)
        pts = np.array([[0.5 * np.pi, np.pi]])
        residuals = distribution_parallel_check(model, moved, pts)
        assert not passes("total-space", residuals)
        assert not cli.hypotheses_hold(residuals)
        assert residuals["distribution"] > 1e-2


class TestSharedNablaTensors:
    """The total-space criteria read the same covariant derivatives as
    check_lh_triple."""

    @pytest.mark.parametrize("make", [
        lambda: hopf_model(charge=1), lambda: hopf_model(charge=2), generic_model,
    ], ids=["hopf1", "hopf2", "generic"])
    def test_hypotheses_are_lh_residuals_and_bound_the_bar_norms(self, make):
        """Each hypothesis is check_lh_triple's residual bit for bit, with no,
        the parallel (charge 1 only) and the bump reference shift; del-bar
        T-bar and del-bar R-bar hold del T and del R among their components,
        so their norms are no smaller. The CLI's default points and seed."""
        model, fx = make()
        pts = sample_interior(fx.chart, 8, seed=42)
        shifts = [al for al in (fx.alpha_parallel, fx.alpha_bump) if al is not None]
        for a0 in [fx.a0] + [fx.a0.shifted(al) for al in shifts]:
            res = total_space_check(model, a0, pts)
            lh = check_lh_triple(model.g, a0, model.gamma, model.a, pts)
            assert ([res[k] for k in ("nabla_R", "nabla_T", "nabla_F", "alpha_parallel")]
                    == [lh[k] for k in ("nabla_R", "nabla_T", "nabla_F", "nabla_alpha")])
            assert res["nabla_bar_R"] >= res["nabla_R"] * (1 - 1e-12)
            assert res["nabla_bar_T"] >= res["nabla_T"] * (1 - 1e-12)


def nan_form_fixture(bad, pts):
    """hopf_monopole with a connection form that is NaN near pts[bad]."""
    fx = instantiate("hopf_monopole", {})

    def ev(X):
        """NaN values and zero partials at the points of the batch near pts[bad]."""
        a = fx.a0.evaluator(X)
        near = np.linalg.norm(X.value.T - pts[bad], axis=1) < 0.05
        a.c[..., near, :] = 0.0
        a.c[..., near, 0] = np.nan
        return a

    a = LocalConnectionForm(algebra=fx.algebra, evaluator=ev)
    return dataclasses.replace(fx, a0=a)


class TestFailClosed:
    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_nan_form_near_one_point_fails(self, bad, monkeypatch, capsys):
        """Skipping the zero tuple cases must keep the NaN of a connection
        form that is NaN near any one sample point."""
        fx = instantiate("hopf_monopole", {})
        pts = sample_interior(fx.chart, 3, seed=19)
        monkeypatch.setattr(cli, "instantiate",
                            lambda name, params: nan_form_fixture(bad, pts))
        code = cli.main(["--scenario", "total-space", "--fixture", "hopf_monopole",
                         "--points", "3", "--seed", "19"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["pass"] is False
        for key in ("nabla_bar_T", "nabla_bar_R", "distribution"):
            assert data["residuals"][key] == "nan", key


def count_calls(monkeypatch, fn):
    """Count the calls of fn through every ambrose module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("ambrose") and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


class TestCallCounts:
    def test_total_space_calls_per_point(self, monkeypatch, capsys):
        """The checks difference nothing, and factor the orthonormal frames
        once per batch of points."""
        fd = count_calls(monkeypatch, chart_calculus.fd_array)
        frames = count_calls(monkeypatch, tensor_core.cholesky_frames)
        code = cli.main(["--scenario", "total-space", "--fixture", "hopf_monopole",
                         "--points", "2"])
        capsys.readouterr()
        assert code == 0
        assert fd == []
        assert len(frames) == 1

    def test_one_curvature_per_batch(self, monkeypatch, capsys):
        """The hypotheses and the criteria share one curvature and one
        curvature-form jet per batch of points."""
        curv = count_calls(monkeypatch, chart_calculus.curvature_of)
        forms = count_calls(monkeypatch, bundle_conn._curvature_form_jet)
        code = cli.main(["--scenario", "total-space", "--fixture", "hopf_monopole",
                         "--points", "8"])
        capsys.readouterr()
        assert code == 0
        assert len(curv) == 1 and len(forms) == 1

    def test_one_sweep_per_point(self, monkeypatch, capsys):
        """The hypotheses, the frame tables and the distribution criterion
        share one set of first-order jets per point: the metric and the
        connection form are evaluated a handful of times per point, and the
        curvature and curvature-form values never on their own."""
        metric = []
        jet_at = chart_calculus.MetricField.jet_at

        def counted(self, x, order):
            metric.append(order)
            return jet_at(self, x, order)

        monkeypatch.setattr(chart_calculus.MetricField, "jet_at", counted)
        curv = count_calls(monkeypatch, chart_calculus.curvature)
        forms = count_calls(monkeypatch, bundle_conn.curvature_form)
        code = cli.main(["--scenario", "total-space", "--fixture", "hopf_monopole",
                         "--points", "2"])
        capsys.readouterr()
        assert code == 0
        assert curv == [] and forms == []
        assert 0 < len(metric) <= 5 * 2
