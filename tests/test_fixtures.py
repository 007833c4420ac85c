"""Tests for the fixture catalog: parameter validation, jet partials of the
metrics and coframes against finite differences, frame data, bundle data,
and the seeded smooth-field helpers."""

import numpy as np
import pytest

from ambrose import jet
from ambrose.chart_calculus import curvature, fd_array, ortho_frame, sample_interior
from ambrose.errors import BadParameters, UnknownFixture
from ambrose.fixtures import (
    MAX_ALGEBRA_DIM,
    fixture_names,
    instantiate,
    smooth_connection_form,
    smooth_tensor_field,
)
from ambrose.lie_core import algebra_by_name
from ambrose.tensor_core import DOWN, LIE, UP
from oracles import jet_partials

ALL_NAMES = (
    "berger_sphere",
    "euclidean",
    "flat_torus",
    "hopf_monopole",
    "hyperbolic_plane",
    "round_sphere2",
    "round_sphere3",
    "trivial_bundle_flat",
)


class TestCatalog:
    def test_names_sorted_and_complete(self):
        assert fixture_names() == ALL_NAMES

    def test_unknown_fixture(self):
        with pytest.raises(UnknownFixture):
            instantiate("klein_bottle", {})

    def test_unknown_parameter(self):
        with pytest.raises(BadParameters):
            instantiate("round_sphere2", {"charge": 1})

    def test_euclidean_dimension_range(self):
        with pytest.raises(BadParameters):
            instantiate("euclidean", {"n": 9})
        fx = instantiate("euclidean", {"n": 3.0})
        assert fx.chart.dim == 3

    def test_sphere_radius_positive(self):
        with pytest.raises(BadParameters):
            instantiate("round_sphere2", {"radius": -1.0})

    def test_berger_lambda_positive(self):
        with pytest.raises(BadParameters):
            instantiate("berger_sphere", {"lam": 0.0})

    def test_monopole_charge_integer(self):
        with pytest.raises(BadParameters):
            instantiate("hopf_monopole", {"charge": 1.5})
        fx = instantiate("hopf_monopole", {"charge": 2.0})
        assert fx.params == {"charge": 2}

    def test_no_parameter_fixtures_reject_everything(self):
        with pytest.raises(BadParameters):
            instantiate("flat_torus", {"n": 2})

    def test_params_recorded(self):
        fx = instantiate("berger_sphere", {"lam": 3.0})
        assert fx.params == {"lam": 3.0}
        assert fx.name == "berger_sphere"


METRIC_CASES = [
    ("round_sphere2", {}),
    ("round_sphere2", {"radius": 2.0}),
    ("hyperbolic_plane", {}),
    ("berger_sphere", {"lam": 2.0}),
    ("round_sphere3", {}),
]


def partials(j, times=1):
    """The partials of a jet's value, ``times`` deep, leading axes first."""
    for _ in range(times):
        j = jet.shift(j)
    return j.value[..., 0]


class TestAnalyticPartials:
    @pytest.mark.parametrize("name,params", METRIC_CASES)
    def test_metric_partial_matches_fd(self, name, params):
        fx = instantiate(name, params)
        for x in sample_interior(fx.chart, 3, seed=1):
            dg = partials(fx.g.jet_at(x, 1))
            for mu in range(fx.chart.dim):
                fd = fd_array(fx.g.at, fx.chart, x, mu)
                # the hyperbolic metric has large high-order derivatives near
                # the chart floor, so allow ordinary FD truncation error
                assert np.abs(dg[mu] - fd).max() < 1e-7

    @pytest.mark.parametrize("name,params", METRIC_CASES)
    def test_metric_second_partial_matches_fd(self, name, params):
        fx = instantiate(name, params)
        x = sample_interior(fx.chart, 1, seed=2)[0]
        ddg = partials(fx.g.jet_at(x, 2), 2)
        for mu in range(fx.chart.dim):
            for nu in range(fx.chart.dim):
                fd = fd_array(
                    lambda p, m=mu: partials(fx.g.jet_at(p, 1))[m], fx.chart, x, nu
                )
                assert np.abs(ddg[nu, mu] - fd).max() < 1e-8

    @pytest.mark.parametrize("name,params", METRIC_CASES)
    def test_metric_third_partial_matches_fd(self, name, params):
        """The jet's third partials, which the deep towers read, against the
        FD of its second ones."""
        fx = instantiate(name, params)
        x = sample_interior(fx.chart, 1, seed=2)[0]
        d3g = partials(fx.g.jet_at(x, 3), 3)
        for mu in range(fx.chart.dim):
            fd = fd_array(lambda p: partials(fx.g.jet_at(p, 2), 2), fx.chart, x, mu)
            assert np.abs(d3g[mu] - fd).max() < 1e-7

    def test_coframe_partials_match_fd(self):
        fx = instantiate("berger_sphere", {"lam": 2.0})
        fc = fx.frame_conn
        x = sample_interior(fx.chart, 1, seed=3)[0]

        def coframe_partials(p, times):
            return partials(fc.coframe(jet.variables(p, times)), times)

        second = coframe_partials(x, 2)
        assert np.abs(second - second.swapaxes(0, 1)).max() < 1e-15
        for mu in range(3):
            fd = fd_array(lambda p: fc.coframe(jet.variables(p, 0)).value[..., 0], fx.chart, x, mu)
            assert np.abs(coframe_partials(x, 1)[mu] - fd).max() < 1e-9
            for nu in range(3):
                fd = fd_array(lambda p, n=nu: coframe_partials(p, 1)[n], fx.chart, x, mu)
                assert np.abs(second[mu, nu] - fd).max() < 1e-8


class TestRoundSphere3:
    def test_unit_sectional_curvature(self):
        """At squash parameter 1 every orthonormal coordinate plane has
        sectional curvature one."""
        fx = instantiate("round_sphere3", {})
        for x in sample_interior(fx.chart, 3, seed=4):
            riem = curvature(fx.gamma, x).data
            low = np.einsum("lm,lkij->mkij", fx.g.at(x), riem)
            e = ortho_frame(fx.g, x).frame
            for a in range(3):
                for b in range(a + 1, 3):
                    k = np.einsum(
                        "mkij,m,k,i,j->",
                        low, e[:, a], e[:, b], e[:, a], e[:, b],
                    )
                    assert k == pytest.approx(1.0, abs=1e-9)

    def test_alias_fixtures_share_geometry(self):
        fx3 = instantiate("round_sphere3", {})
        fxb = instantiate("berger_sphere", {"lam": 1.0})
        x = np.array([1.0, 1.0, 1.0])
        assert np.allclose(fx3.g.at(x), fxb.g.at(x))
        assert fx3.algebra is not None
        assert fx3.gamma_canonical is not None


class TestBundleData:
    def test_monopole_partials_analytic(self):
        fx = instantiate("hopf_monopole", {"charge": 3})
        x = np.array([1.1, 2.3])
        for mu in range(2):
            fd = fd_array(fx.a0.at, fx.chart, x, mu)
            assert np.abs(partials(fx.a0.jet_at(x, 1))[mu] - fd).max() < 1e-10

    def test_parallel_shift_only_for_unit_charge(self):
        assert instantiate("hopf_monopole", {"charge": 1}).alpha_parallel is not None
        assert instantiate("hopf_monopole", {"charge": 2}).alpha_parallel is None

    def test_shift_fields_have_analytic_partials(self):
        fx = instantiate("hopf_monopole", {})
        x = np.array([0.9, 1.7])
        for field in (fx.alpha_parallel, fx.alpha_bump):
            for mu in range(2):
                fd = fd_array(lambda p: field.at(p).data, fx.chart, x, mu)
                assert np.abs(jet_partials(field, x)[mu] - fd).max() < 1e-9

    def test_bundle_inner_is_default(self):
        fx = instantiate("hopf_monopole", {})
        assert np.allclose(fx.inner.matrix, 8.0 * np.eye(3), atol=1e-9)

    def test_trivial_bundle_other_algebra(self):
        fx = instantiate("trivial_bundle_flat", {"algebra": "so(3)"})
        assert fx.algebra.labels == ("L1", "L2", "L3")
        assert np.allclose(fx.a0.at(np.zeros(2)), 0.0)

    def test_trivial_bundle_algebra_capped(self):
        """The summed dimension is checked on the names, before any structure
        constants are built; a non-string algebra is rejected too."""
        fx = instantiate("trivial_bundle_flat", {"algebra": "su(2)+su(2)+u(1)+so(2)"})
        assert fx.algebra.dim == MAX_ALGEBRA_DIM == 8
        for bad in ("su(2)+su(2)+su(2)", 5, None):
            with pytest.raises(BadParameters):
                instantiate("trivial_bundle_flat", {"algebra": bad})

    def test_base_fixtures_carry_no_bundle(self):
        fx = instantiate("round_sphere2", {})
        assert fx.a0 is None and fx.algebra is None


class TestSmoothFields:
    def test_deterministic_in_seed(self):
        chart = instantiate("euclidean", {"n": 2}).chart
        f1 = smooth_tensor_field(chart, (UP, DOWN), seed=5)
        f2 = smooth_tensor_field(chart, (UP, DOWN), seed=5)
        f3 = smooth_tensor_field(chart, (UP, DOWN), seed=6)
        x = np.array([0.2, -0.3])
        assert np.array_equal(f1.at(x).data, f2.at(x).data)
        assert not np.allclose(f1.at(x).data, f3.at(x).data)

    def test_partials_analytic(self):
        chart = instantiate("hyperbolic_plane", {}).chart
        su2 = algebra_by_name("su(2)")
        f = smooth_tensor_field(chart, (DOWN, LIE), seed=7, algebra=su2)
        x = np.array([0.1, 1.2])
        for mu in range(2):
            fd = fd_array(lambda p: f.at(p).data, chart, x, mu)
            assert np.abs(jet_partials(f, x)[mu] - fd).max() < 1e-8

    def test_lie_axis_requires_algebra(self):
        chart = instantiate("euclidean", {"n": 2}).chart
        with pytest.raises(BadParameters):
            smooth_tensor_field(chart, (DOWN, LIE), seed=1)

    def test_amplitude_scaling(self):
        chart = instantiate("euclidean", {"n": 2}).chart
        f = smooth_tensor_field(chart, (UP,), seed=8, amplitude=0.0)
        assert np.allclose(f.at(np.zeros(2)).data, 0.0)

    def test_connection_form_wraps_field(self):
        chart = instantiate("euclidean", {"n": 2}).chart
        su2 = algebra_by_name("su(2)")
        a = smooth_connection_form(chart, su2, seed=9)
        f = smooth_tensor_field(chart, (DOWN, LIE), seed=9, algebra=su2)
        x = np.array([0.4, 0.5])
        assert np.array_equal(a.at(x), f.at(x).data)
