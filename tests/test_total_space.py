"""Tests for the total-space model: the case tables of the adapted
connection and of its torsion and curvature derivatives, the parallelism
checks, and the horizontal-distribution criterion; and the test-only
connection metric, torsion, curvature and bracket tables of the oracles."""

import dataclasses
import json
import sys

import numpy as np
import pytest

from ambrose import bundle_conn, chart_calculus, cli, tensor_core
from ambrose.bundle_conn import LocalConnectionForm, curvature_form
from ambrose.chart_calculus import curvature, sample_interior
from ambrose.errors import RepMismatch, UnsupportedFieldKind
from ambrose.fixtures import instantiate, smooth_connection_form
from ambrose.homogeneity import TripleSpec, check_lh_triple
from ambrose.lie_core import algebra_by_name, default_inner
from ambrose.total_space import (
    GeneratedField,
    TotalSpaceModel,
    TotalVector,
    bar_connection_apply,
    bar_curvature_derivative,
    bar_parallelism_check,
    bar_torsion_derivative,
    distribution_parallel_check,
    total_space_check,
    total_zero,
    _residuals,
)
from oracles import (
    _frame_fields,
    _tv_norm2,
    bar_curvature,
    bar_torsion,
    bar_torsion_direct,
    bracket_fields,
    connection_metric,
    fundamental,
    lift,
    xi,
)

SU2 = algebra_by_name("su(2)")


def hopf_model(charge=1):
    fx = instantiate("hopf_monopole", {"charge": charge})
    model = TotalSpaceModel(chart=fx.chart, g=fx.g, gamma=fx.gamma,
                            algebra=fx.algebra, inner=fx.inner, a=fx.a0)
    return model, fx


def flat_model():
    fx = instantiate("trivial_bundle_flat", {})
    model = TotalSpaceModel(chart=fx.chart, g=fx.g, gamma=fx.gamma,
                            algebra=fx.algebra, inner=fx.inner, a=fx.a0)
    return model, fx


class TestModelAndVectors:
    def test_algebra_mismatch_rejected(self):
        fx = instantiate("hopf_monopole", {})
        with pytest.raises(RepMismatch):
            TotalSpaceModel(chart=fx.chart, g=fx.g, gamma=fx.gamma,
                            algebra=algebra_by_name("so(3)"),
                            inner=default_inner(algebra_by_name("so(3)")),
                            a=fx.a0)

    def test_total_vector_arithmetic(self):
        u = TotalVector(np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        v = TotalVector(np.array([0.0, 2.0]), np.array([1.0, 0.0, 0.0]))
        s = u + v
        d = s - v
        assert np.allclose(s.horizontal, [1.0, 2.0])
        assert np.allclose(s.vertical, [1.0, 1.0, 0.0])
        assert np.allclose(d.horizontal, u.horizontal)
        assert np.allclose(d.vertical, u.vertical)

    def test_generated_field_kinds(self):
        with pytest.raises(UnsupportedFieldKind):
            GeneratedField("mystery", np.zeros(2))
        with pytest.raises(UnsupportedFieldKind):
            fundamental(lambda x: np.zeros(3))

    def test_generated_field_values(self):
        model, _ = hopf_model()
        x = np.array([1.0, 1.0])
        lv = lift(np.array([1.0, 2.0])).value(model, x)
        assert np.allclose(lv.horizontal, [1.0, 2.0])
        assert np.allclose(lv.vertical, 0.0)
        fv = fundamental(np.array([0.0, 0.0, 1.0])).value(model, x)
        assert np.allclose(fv.horizontal, 0.0)
        assert np.allclose(fv.vertical, [0.0, 0.0, 1.0])
        sv = xi(lambda y: np.array([y[0], 0.0, 0.0])).value(model, x)
        assert np.allclose(sv.vertical, [1.0, 0.0, 0.0])

    def test_total_zero(self):
        model, _ = hopf_model()
        z = total_zero(model)
        assert z.horizontal.shape == (2,)
        assert z.vertical.shape == (3,)


class TestConnectionMetric:
    def test_block_structure(self):
        model, fx = hopf_model()
        x = np.array([1.2, 2.0])
        gx = fx.g.at(x)
        e0 = TotalVector(np.array([1.0, 0.0]), np.zeros(3))
        e1 = TotalVector(np.array([0.0, 1.0]), np.zeros(3))
        w1 = TotalVector(np.zeros(2), np.array([1.0, 0.0, 0.0]))
        w2 = TotalVector(np.zeros(2), np.array([0.0, 1.0, 0.0]))
        assert connection_metric(model, e0, e0, x) == pytest.approx(gx[0, 0])
        assert connection_metric(model, e1, e1, x) == pytest.approx(gx[1, 1])
        assert connection_metric(model, e0, w1, x) == 0.0
        assert connection_metric(model, w1, w2, x) == pytest.approx(
            model.inner.matrix[0, 1]
        )
        assert connection_metric(model, w1, w1, x) == pytest.approx(
            model.inner.matrix[0, 0]
        )

    def test_frame_fields_are_orthonormal(self):
        model, fx = hopf_model()
        lifts, funds = _frame_fields(model)
        frame = lifts + funds
        x = sample_interior(fx.chart, 1, seed=1)[0]
        vals = [f.value(model, x) for f in frame]
        gram = np.array(
            [[connection_metric(model, u, v, x) for v in vals] for u in vals]
        )
        assert np.allclose(gram, np.eye(5), atol=1e-12)

    def test_norm_matches_metric(self):
        model, _ = hopf_model()
        x = np.array([1.0, 2.5])
        tv = TotalVector(np.array([0.3, -0.7]), np.array([0.1, 0.2, -0.4]))
        assert _tv_norm2(model, tv, x) == pytest.approx(
            connection_metric(model, tv, tv, x)
        )


class TestConnectionCaseTable:
    def test_lift_lift_is_base_derivative(self):
        model, fx = hopf_model()
        x = np.array([1.1, 2.2])
        u = lift(np.array([1.0, 0.0]))
        v = lift(np.array([0.0, 1.0]))
        out = bar_connection_apply(model, u, v, x)
        G = fx.gamma.at(x)
        assert np.allclose(out.horizontal, G[:, 0, 1])
        assert np.allclose(out.vertical, 0.0)

    def test_lift_adjoint_is_bundle_derivative(self):
        model, _ = hopf_model()
        x = np.array([1.0, 1.5])
        nu = np.array([0.0, 1.0, 0.0])
        out = bar_connection_apply(model, lift(np.array([0.0, 1.0])),
                                   xi(lambda y: nu), x)
        av = model.a.at(x)
        assert np.allclose(out.horizontal, 0.0)
        assert np.allclose(out.vertical, SU2.bracket(av[1], nu), atol=1e-9)

    def test_vertical_fundamental_is_bracket(self):
        model, _ = hopf_model()
        x = np.array([1.0, 1.0])
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        out = bar_connection_apply(model, fundamental(e1), fundamental(e2), x)
        assert np.allclose(out.vertical, [0.0, 0.0, 2.0])
        out2 = bar_connection_apply(model, xi(lambda y: e1), fundamental(e2), x)
        assert np.allclose(out2.vertical, [0.0, 0.0, 2.0])

    def test_mixed_pairs_vanish(self):
        model, _ = hopf_model()
        x = np.array([1.0, 1.0])
        u = lift(np.array([1.0, 0.0]))
        c = fundamental(np.array([1.0, 0.0, 0.0]))
        for out in (bar_connection_apply(model, u, c, x),
                    bar_connection_apply(model, c, u, x)):
            assert np.allclose(out.horizontal, 0.0)
            assert np.allclose(out.vertical, 0.0)


class TestTorsionAndCurvatureTables:
    def test_horizontal_torsion_is_curvature_form(self):
        model, _ = hopf_model(charge=2)
        x = np.array([0.9, 2.0])
        out = bar_torsion(model, lift(np.array([1.0, 0.0])),
                          lift(np.array([0.0, 1.0])), x)
        assert np.allclose(out.horizontal, 0.0, atol=1e-12)
        assert np.allclose(out.vertical, [0.0, 0.0, np.sin(x[0])], atol=1e-12)

    def test_vertical_torsion_is_bracket(self):
        model, _ = hopf_model()
        x = np.array([1.0, 1.0])
        out = bar_torsion(model, fundamental(np.array([1.0, 0.0, 0.0])),
                          fundamental(np.array([0.0, 1.0, 0.0])), x)
        assert np.allclose(out.vertical, [0.0, 0.0, 2.0])

    def test_mixed_torsion_vanishes(self):
        model, _ = hopf_model()
        x = np.array([1.0, 1.0])
        out = bar_torsion(model, lift(np.array([1.0, 0.0])),
                          fundamental(np.array([1.0, 0.0, 0.0])), x)
        assert np.allclose(out.horizontal, 0.0)
        assert np.allclose(out.vertical, 0.0)

    def test_torsion_table_matches_definition(self):
        """The case table agrees with the definition applied to the adapted
        orthonormal frame fields, for every pair."""
        model, fx = hopf_model()
        lifts, funds = _frame_fields(model)
        frame = lifts + funds
        x = sample_interior(fx.chart, 1, seed=2)[0]
        for u in frame:
            for v in frame:
                table = bar_torsion(model, u, v, x)
                direct = bar_torsion_direct(model, u, v, x)
                assert np.abs(table.horizontal - direct.horizontal).max() < 1e-7
                assert np.abs(table.vertical - direct.vertical).max() < 1e-7

    def test_curvature_nonzero_only_for_horizontal_pairs(self):
        model, _ = hopf_model()
        x = np.array([1.3, 0.7])
        u = lift(np.array([1.0, 0.0]))
        v = lift(np.array([0.0, 1.0]))
        c = fundamental(np.array([1.0, 0.0, 0.0]))
        for bad in (bar_curvature(model, u, c, v, x),
                    bar_curvature(model, c, u, v, x),
                    bar_curvature(model, c, c, u, x)):
            assert np.allclose(bad.horizontal, 0.0)
            assert np.allclose(bad.vertical, 0.0)

    def test_curvature_horizontal_slot(self):
        model, fx = hopf_model()
        x = np.array([1.3, 0.7])
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        w = np.array([1.0, 1.0])
        out = bar_curvature(model, lift(u), lift(v), lift(w), x)
        r = curvature(fx.gamma, x).data
        expect = np.einsum("lkij,i,j,k->l", r, u, v, w)
        assert np.allclose(out.horizontal, expect)
        assert np.allclose(out.vertical, 0.0)

    def test_curvature_vertical_slot(self):
        model, _ = hopf_model()
        x = np.array([1.3, 0.7])
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        c = np.array([1.0, 0.0, 0.0])
        out = bar_curvature(model, lift(u), lift(v), fundamental(c), x)
        f = curvature_form(model.a, x).data
        fv = np.einsum("ijc,i,j->c", f, u, v)
        assert np.allclose(out.horizontal, 0.0)
        assert np.allclose(out.vertical, SU2.bracket(fv, c))


class TestBrackets:
    def test_constant_lifts_bracket_to_vertical_curvature(self):
        model, _ = hopf_model()
        x = np.array([0.8, 1.9])
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        out = bracket_fields(model, lift(u), lift(v), x)
        f = curvature_form(model.a, x).data
        assert np.allclose(out.horizontal, 0.0)
        assert np.allclose(out.vertical, -np.einsum("ijc,i,j->c", f, u, v))

    def test_coordinate_lift_bracket(self):
        model, _ = hopf_model()
        x = np.array([1.0, 2.0])
        u = lift(lambda y: np.array([y[1], 0.0]))
        v = lift(lambda y: np.array([0.0, 1.0]))
        out = bracket_fields(model, u, v, x)
        # [y1 d0, d1] = -d0, plus the vertical curvature obstruction
        assert np.allclose(out.horizontal, [-1.0, 0.0], atol=1e-9)

    def test_fundamental_bracket(self):
        model, _ = hopf_model()
        x = np.array([1.0, 1.0])
        out = bracket_fields(model, fundamental(np.array([1.0, 0.0, 0.0])),
                             fundamental(np.array([0.0, 1.0, 0.0])), x)
        assert np.allclose(out.vertical, [0.0, 0.0, 2.0])

    def test_lift_and_fundamental_commute(self):
        model, _ = hopf_model()
        x = np.array([1.0, 1.0])
        out = bracket_fields(model, lift(np.array([1.0, 0.0])),
                             fundamental(np.array([1.0, 0.0, 0.0])), x)
        assert np.allclose(out.horizontal, 0.0)
        assert np.allclose(out.vertical, 0.0)

    def test_adjoint_fields_unsupported(self):
        model, _ = hopf_model()
        with pytest.raises(UnsupportedFieldKind):
            bracket_fields(model, xi(lambda y: np.zeros(3)),
                           lift(np.array([1.0, 0.0])), np.array([1.0, 1.0]))


class TestDerivativeVanishing:
    def test_flat_bundle_exact_zero(self):
        model, fx = flat_model()
        lifts, funds = _frame_fields(model)
        frame = lifts + funds
        x = np.array([0.2, -0.3])
        for u in frame:
            for v in frame[:3]:
                for w in frame[2:]:
                    tv = bar_torsion_derivative(model, u, v, w, x)
                    assert np.abs(tv.horizontal).max() < 1e-12
                    assert np.abs(tv.vertical).max() < 1e-12

    def test_monopole_mixed_combination(self):
        """A combination exercising the Leibniz corrections: vertical
        direction, horizontal pair."""
        model, fx = hopf_model()
        x = sample_interior(fx.chart, 1, seed=3)[0]
        lifts, funds = _frame_fields(model)
        tv = bar_torsion_derivative(model, funds[0], lifts[0], lifts[1], x)
        assert np.abs(tv.horizontal).max() < 1e-7
        assert np.abs(tv.vertical).max() < 1e-7
        rv = bar_curvature_derivative(model, funds[2], lifts[0], lifts[1],
                                      funds[1], x)
        assert np.abs(rv.vertical).max() < 1e-7


class TestParallelismChecks:
    def test_monopole_passes(self):
        model, fx = hopf_model()
        pts = sample_interior(fx.chart, 2, seed=4)
        report = bar_parallelism_check(model, pts, fixture="hopf_monopole")
        assert report.passed
        assert set(report.residuals) == {
            "nabla_R", "nabla_T", "nabla_F", "nabla_bar_T", "nabla_bar_R",
        }
        assert report.residuals["nabla_bar_T"] < 1e-5
        assert report.residuals["nabla_bar_R"] < 1e-5
        assert report.flags == ()

    def test_generic_connection_fails_hypotheses(self):
        fx = instantiate("hopf_monopole", {})
        wild = smooth_connection_form(fx.chart, SU2, seed=5)
        model = TotalSpaceModel(chart=fx.chart, g=fx.g, gamma=fx.gamma,
                                algebra=fx.algebra, inner=fx.inner, a=wild)
        pts = sample_interior(fx.chart, 1, seed=6)
        report = bar_parallelism_check(model, pts)
        assert not report.passed
        assert "hypotheses-failed" in report.flags
        assert report.residuals["nabla_F"] > 1e-2

    def test_distribution_parallel_reference(self):
        model, fx = hopf_model()
        moved = fx.a0.shifted(fx.alpha_parallel)
        pts = sample_interior(fx.chart, 3, seed=7)
        report = distribution_parallel_check(model, moved, pts)
        assert report.passed
        assert report.residuals["alpha_parallel"] < 1e-9
        assert report.residuals["distribution"] < 1e-5

    def test_distribution_bump_reference(self):
        model, fx = hopf_model()
        moved = fx.a0.shifted(fx.alpha_bump)
        pts = np.array([[0.5 * np.pi, np.pi]])
        report = distribution_parallel_check(model, moved, pts)
        assert not report.passed
        assert "hypotheses-failed" in report.flags
        assert report.residuals["distribution"] > 1e-2


def tuple_loop_norm2(model, x):
    """The squared sums of del-bar T-bar and del-bar R-bar at x, from the
    per-tuple case-table definitions."""
    lifts, funds = _frame_fields(model)
    frame = lifts + funds
    acc_t = sum(_tv_norm2(model, bar_torsion_derivative(model, u, v, w, x), x)
                for u in frame for v in frame for w in frame)
    acc_r = sum(_tv_norm2(model, bar_curvature_derivative(model, u, v, w, z, x), x)
                for u in frame for v in lifts for w in lifts for z in frame)
    return acc_t, acc_r


def bar_norm2(model, x):
    """The squared sums of del-bar T-bar and del-bar R-bar at x, from the
    frame tables on a batch of one."""
    res = _residuals(model, x)
    return res["nabla_bar_T"] ** 2, res["nabla_bar_R"] ** 2


def generic_model():
    fx = instantiate("hopf_monopole", {})
    wild = smooth_connection_form(fx.chart, SU2, seed=5)
    return TotalSpaceModel(chart=fx.chart, g=fx.g, gamma=fx.gamma,
                           algebra=fx.algebra, inner=fx.inner, a=wild), fx


class TestFrameTables:
    """The frame tables of bar_parallelism_check against the per-tuple case
    tables that define them."""

    @pytest.mark.parametrize("make", [
        lambda: hopf_model(charge=1), lambda: hopf_model(charge=2),
        flat_model, generic_model,
    ], ids=["hopf1", "hopf2", "flat", "generic"])
    def test_squared_sums_match_tuple_loop(self, make):
        model, fx = make()
        for x in sample_interior(fx.chart, 2, seed=8):
            for new, old in zip(bar_norm2(model, x), tuple_loop_norm2(model, x)):
                assert new == pytest.approx(old, rel=1e-9, abs=1e-20)

    def test_flat_bundle_sums_are_exact_zero(self):
        model, fx = flat_model()
        for x in sample_interior(fx.chart, 2, seed=8):
            assert bar_norm2(model, x) == (0.0, 0.0)
            assert tuple_loop_norm2(model, x) == (0.0, 0.0)

    def test_generic_connection_residual(self):
        model, fx = generic_model()
        x = sample_interior(fx.chart, 1, seed=6)[0]
        acc_t, acc_r = bar_norm2(model, x)
        assert np.sqrt(acc_t) == pytest.approx(11.8408, abs=1e-4)
        assert np.sqrt(acc_r) == pytest.approx(11.8408, abs=1e-4)


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
            res = total_space_check(model, a0, pts).residuals
            lh = check_lh_triple(TripleSpec(model.g, a0), model.gamma, model.a, pts).residuals
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

    a = LocalConnectionForm(chart=fx.chart, algebra=fx.algebra, evaluator=ev)
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
        once per batch of points; the per-tuple case tables take hundreds of
        FD calls and thousands of frames per point."""
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
