"""Tests for local principal-connection forms, associated covariant
derivatives, curvature forms, and the variation identities."""

import numpy as np
import pytest

from ambrose import jet
from ambrose.bundle_conn import (
    LocalConnectionForm,
    SectionSpec,
    bianchi_residual,
    connection_variation_check,
    curvature_form,
    curvature_form_field,
    curvature_variation_check,
    form_difference,
    leibniz_check,
)
from ambrose.chart_calculus import (
    TensorFieldSpec,
    fd_array,
    levi_civita,
    sample_interior,
)
from ambrose.errors import RepMismatch
from ambrose.fixtures import (
    instantiate,
    smooth_connection_form,
    smooth_tensor_field,
)
from ambrose.lie_core import algebra_by_name
from ambrose.tensor_core import DOWN, LIE, UP, DenseTensor, axis_action
from oracles import covariant_derivative, exterior_cov_derivative, jet_partials

SU2 = algebra_by_name("su(2)")


def form_partials(a, x):
    """out[nu, mu] = d_nu of the mu-th row of a connection form."""
    return jet.shift(a.jet_at(x, 1)).value[..., 0]


def euclid_chart(n=2):
    return instantiate("euclidean", {"n": n}).chart


def sphere_fixture():
    return instantiate("round_sphere2", {})


def hopf(charge=1):
    return instantiate("hopf_monopole", {"charge": charge})


class TestLocalConnectionForm:
    def test_shape_validated(self):
        chart = euclid_chart()
        bad = LocalConnectionForm(
            chart=chart, algebra=SU2, evaluator=lambda X: X.lift(np.zeros((3, 3)))
        )
        with pytest.raises(RepMismatch):
            bad.at(np.zeros(2))

    def test_analytic_partial_matches_fd(self):
        chart = euclid_chart()
        a = smooth_connection_form(chart, SU2, seed=7)
        x = np.array([0.3, -0.2])
        for mu in range(2):
            diff = form_partials(a, x)[mu] - fd_array(a.at, chart, x, mu)
            assert np.abs(diff).max() < 1e-9

    def test_shifted_adds_pointwise(self):
        chart = euclid_chart()
        a = smooth_connection_form(chart, SU2, seed=1)
        alpha = smooth_tensor_field(chart, (DOWN, LIE), seed=2, algebra=SU2)
        x = np.array([0.1, 0.4])
        shifted = a.shifted(alpha)
        assert np.allclose(shifted.at(x), a.at(x) + alpha.at(x).data)
        assert np.allclose(
            form_partials(shifted, x)[1], form_partials(a, x)[1] + jet_partials(alpha, x)[1]
        )

    def test_shifted_requires_one_form(self):
        chart = euclid_chart()
        a = smooth_connection_form(chart, SU2, seed=1)
        wrong = smooth_tensor_field(chart, (LIE,), seed=3, algebra=SU2)
        with pytest.raises(RepMismatch):
            a.shifted(wrong)

    def test_form_difference_inverts_shift(self):
        chart = euclid_chart()
        a = smooth_connection_form(chart, SU2, seed=1)
        alpha = smooth_tensor_field(chart, (DOWN, LIE), seed=2, algebra=SU2)
        diff = form_difference(a.shifted(alpha), a)
        x = np.array([-0.5, 0.2])
        assert np.abs(diff.at(x).data - alpha.at(x).data).max() < 1e-12
        assert np.abs(
            jet_partials(diff, x)[0] - jet_partials(alpha, x)[0]
        ).max() < 1e-12

    def test_form_difference_algebra_mismatch(self):
        chart = euclid_chart()
        a = smooth_connection_form(chart, SU2, seed=1)
        b = smooth_connection_form(chart, algebra_by_name("so(3)"), seed=1)
        with pytest.raises(RepMismatch):
            form_difference(a, b)


class TestSectionsAndActions:
    def test_ad_acts_only_on_lie_axes(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(2, 3))
        t = DenseTensor((DOWN, LIE), data)
        u = np.array([1.0, 0.0, 0.0])
        out = axis_action(t.markers, t.data, None, SU2.ad(u)[None])[0]
        expect = np.einsum("kj,mj->mk", SU2.ad(u), data)
        assert np.allclose(out, expect)
        plain = DenseTensor((UP, DOWN), rng.normal(size=(3, 3)))
        assert np.linalg.norm(axis_action(plain.markers, plain.data, None, SU2.ad(u)[None])) == 0.0

    def test_ad_dim_mismatch(self):
        t = DenseTensor((LIE,), np.zeros(2))
        with pytest.raises(RepMismatch):
            axis_action(t.markers, t.data, None, SU2.ad(np.array([1.0, 0, 0]))[None])

    def test_constant_adjoint_bracket_pin(self):
        """Constant connection and section on a flat chart: the derivative
        reduces to the pointwise bracket [a_mu, nu]."""
        fx = instantiate("trivial_bundle_flat", {"algebra": "su(2)"})
        chart = fx.chart
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        a = LocalConnectionForm(
            chart=chart,
            algebra=SU2,
            evaluator=lambda X: X.lift(np.stack([e1, np.zeros(3)])),
        )
        nu = TensorFieldSpec(chart=chart, markers=(LIE,), evaluator=lambda X: X.lift(e2))
        out = covariant_derivative(fx.gamma, nu, np.zeros(2), a.ad_at)
        assert out.markers == (DOWN, LIE)
        # [e1, e2] = 2 e3 along direction 0; direction 1 has no connection
        assert np.allclose(out.data[0], [0.0, 0.0, 2.0], atol=1e-12)
        assert np.allclose(out.data[1], 0.0, atol=1e-12)

    def test_covariant_derivative_prepends_covariant_axis(self):
        fx = hopf()
        x = np.array([1.2, 2.0])
        out = covariant_derivative(fx.gamma, fx.alpha_parallel, x, fx.a0.ad_at)
        assert out.markers == (DOWN, DOWN, LIE)
        assert out.dims == (2, 2, 3)

    def test_parallel_shift_is_covariantly_constant(self):
        fx = hopf()
        pts = sample_interior(fx.chart, 6, seed=11)
        for x in pts:
            out = covariant_derivative(fx.gamma, fx.alpha_parallel, x, fx.a0.ad_at)
            assert out.norm() < 1e-9

    def test_bump_shift_is_not_parallel(self):
        fx = hopf()
        x = np.array([0.5 * np.pi, np.pi])
        out = covariant_derivative(fx.gamma, fx.alpha_bump, x, fx.a0.ad_at)
        assert out.norm() > 1e-2


class TestCurvatureForm:
    def test_monopole_field_strength(self):
        for charge in (1, 2):
            fx = hopf(charge)
            for x in sample_interior(fx.chart, 5, seed=3):
                f = curvature_form(fx.a0, x)
                assert f.markers == (DOWN, DOWN, LIE)
                expect = np.zeros((2, 2, 3))
                expect[0, 1, 2] = 0.5 * charge * np.sin(x[0])
                expect[1, 0, 2] = -expect[0, 1, 2]
                assert np.abs(f.data - expect).max() < 1e-12

    def test_flat_connection_has_zero_curvature(self):
        fx = instantiate("trivial_bundle_flat", {})
        x = np.array([0.2, -0.7])
        assert curvature_form(fx.a0, x).norm() == 0.0

    def test_antisymmetry(self):
        chart = euclid_chart()
        a = smooth_connection_form(chart, SU2, seed=9)
        f = curvature_form(a, np.array([0.25, -0.4])).data
        assert np.abs(f + f.transpose(1, 0, 2)).max() < 1e-14

    def test_field_wrapper(self):
        fx = hopf()
        field = curvature_form_field(fx.a0)
        x = np.array([1.0, 1.0])
        assert np.allclose(field.at(x).data, curvature_form(fx.a0, x).data)

    def test_bianchi_identity(self):
        chart = euclid_chart()
        a = smooth_connection_form(chart, SU2, seed=12)
        for x in sample_interior(chart, 5, seed=5):
            assert bianchi_residual(a, x) < 1e-7

    def test_exterior_derivative_requires_one_form(self):
        chart = euclid_chart()
        a = smooth_connection_form(chart, SU2, seed=1)
        wrong = smooth_tensor_field(chart, (DOWN, DOWN), seed=2)
        with pytest.raises(RepMismatch):
            exterior_cov_derivative(a, wrong, np.zeros(2))

    def test_exterior_derivative_antisymmetrizes_mixed_derivative(self):
        """With a torsion-free linear connection the Christoffel terms cancel
        in the antisymmetrization, leaving the covariant exterior derivative."""
        fx = sphere_fixture()
        a = smooth_connection_form(fx.chart, SU2, seed=21)
        alpha = smooth_tensor_field(fx.chart, (DOWN, LIE), seed=22, algebra=SU2)
        gamma = levi_civita(fx.g)
        for x in sample_interior(fx.chart, 4, seed=6):
            d = exterior_cov_derivative(a, alpha, x).data
            g = covariant_derivative(gamma, alpha, x, a.ad_at).data
            assert np.abs(d - (g - g.transpose(1, 0, 2))).max() < 1e-11


class TestVariationIdentities:
    def setup_method(self):
        self.fx = sphere_fixture()
        self.gamma = levi_civita(self.fx.g)
        self.a = smooth_connection_form(self.fx.chart, SU2, seed=31)
        self.alpha = smooth_tensor_field(
            self.fx.chart, (DOWN, LIE), seed=32, algebra=SU2
        )
        self.points = sample_interior(self.fx.chart, 5, seed=7)

    def test_curvature_variation(self):
        for x in self.points:
            assert curvature_variation_check(self.a, self.alpha, x) < 1e-8

    def test_connection_variation(self):
        eta = SectionSpec(
            self.fx.chart,
            (
                smooth_tensor_field(self.fx.chart, (LIE,), seed=33, algebra=SU2),
                smooth_tensor_field(
                    self.fx.chart, (DOWN, LIE), seed=34, algebra=SU2
                ),
            ),
        )
        a_prime = self.a.shifted(self.alpha)
        for x in self.points:
            assert connection_variation_check(
                eta, self.a, a_prime, self.gamma, x
            ) < 1e-8

    def test_leibniz(self):
        eta = SectionSpec(
            self.fx.chart,
            (smooth_tensor_field(self.fx.chart, (LIE,), seed=35, algebra=SU2),),
        )
        for x in self.points:
            assert leibniz_check(self.alpha, eta, self.a, self.gamma, x) < 1e-7

    def test_leibniz_requires_one_form(self):
        eta = SectionSpec(
            self.fx.chart,
            (smooth_tensor_field(self.fx.chart, (LIE,), seed=35, algebra=SU2),),
        )
        bad = smooth_tensor_field(self.fx.chart, (LIE,), seed=36, algebra=SU2)
        with pytest.raises(RepMismatch):
            leibniz_check(bad, eta, self.a, self.gamma, self.points[0])
