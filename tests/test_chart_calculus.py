"""Tests for chart-level calculus: finite differences, Levi-Civita, curvature,
torsion, and moving-frame connections, pinned against symbolic oracles."""

import numpy as np
import pytest

from ambrose import jet
from ambrose.chart_calculus import (
    Chart,
    ConnectionCoeffs,
    MetricField,
    TensorFieldSpec,
    christoffel_partial,
    curvature,
    fd_array,
    frame_connection_field,
    levi_civita,
    nabla,
    ortho_frame,
    ortho_frame_partial,
    sample_interior,
    scrambled_halton,
    torsion_field,
)
from ambrose.errors import BadParameters, DegenerateMetric, OutOfDomain
from ambrose.fixtures import instantiate
from ambrose.tensor_core import DOWN, UP

from oracles import (
    covariant_derivative,
    frame_at,
    frame_jet,
    frame_structure_functions,
    frame_torsion,
    scrambled_halton_loop,
    symbolic_geometry,
    transport_holonomy_angle,
)

ORACLE_CASES = [
    ("round_sphere2", {"radius": 1.0}, ("round_sphere2", (1.0,))),
    ("round_sphere2", {"radius": 2.0}, ("round_sphere2", (2.0,))),
    ("hyperbolic_plane", {}, ("hyperbolic_plane", ())),
    ("berger_sphere", {"lam": 2.0}, ("berger_sphere", (2.0,))),
]


class TestChart:
    def test_box_validation(self):
        with pytest.raises(BadParameters):
            Chart(dim=2, box=np.array([[0.0, 1.0], [1.0, 1.0]]), margin=0.1)
        with pytest.raises(BadParameters):
            Chart(dim=2, box=np.array([[0.0, 1.0], [0.0, 1.0]]), margin=0.0)

    def test_require_inside_with_stencil_radius(self):
        chart = Chart(dim=1, box=np.array([[0.0, 1.0]]), margin=0.05)
        chart.require_inside(np.array([0.5]), radius=0.1)
        with pytest.raises(OutOfDomain):
            chart.require_inside(np.array([0.05]), radius=0.1)
        with pytest.raises(OutOfDomain):
            chart.require_inside(np.array([0.5, 0.5]))

    def test_sample_interior_deterministic_and_inside(self):
        chart = Chart(dim=2, box=np.array([[0.0, 2.0], [4.0, 8.0]]), margin=0.25)
        pts = sample_interior(chart, 32, seed=3)
        same = sample_interior(chart, 32, seed=3)
        other = sample_interior(chart, 32, seed=4)
        assert np.array_equal(pts, same)
        assert not np.array_equal(pts, other)
        assert (pts >= chart.box[:, 0] + chart.margin).all()
        assert (pts <= chart.box[:, 1] - chart.margin).all()

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_scrambled_halton_equals_scipy_bitwise(self, dim):
        """Same digit permutations and the same sums as scipy's Halton."""
        qmc = pytest.importorskip("scipy.stats.qmc")
        for seed in [*range(10), 42, 12345]:
            for count in (1, 2, 8, 33):
                ref = qmc.Halton(d=dim, scramble=True, seed=seed).random(count)
                assert np.array_equal(scrambled_halton(dim, count, seed), ref), (seed, count)


    @pytest.mark.parametrize("dim", range(1, 7))
    def test_scrambled_halton_equals_loop_bitwise(self, dim):
        """Digits gathered at once and summed in digit order give the
        points of one shuffle and one digit at a time bit for bit, for seeds
        0 to 4 and counts up to 1000: every count to 40, and the counts at
        and around the powers of 2, 3, 5 and 7 above it, where a digit is
        added. Point i of the loop does not depend on the count, so its
        first points at count 1000 are its points at each smaller count."""
        edges = {q ** e + d for q in (2, 3, 5, 7) for e in range(2, 10) for d in (-1, 0, 1)}
        counts = sorted({*range(1, 41), 500, 999, 1000} | {c for c in edges if 40 < c <= 1000})
        for seed in range(5):
            ref = scrambled_halton_loop(dim, 1000, seed)
            for count in counts:
                got = scrambled_halton(dim, count, seed)
                assert np.array_equal(got, ref[:count]), (seed, count)


class TestFiniteDifferences:
    def field(self, x):
        return np.array(
            [np.sin(3 * x[0]) * np.cos(x[1]), np.exp(0.3 * x[0] * x[1])]
        )

    def grad(self, x, mu):
        if mu == 0:
            return np.array(
                [
                    3 * np.cos(3 * x[0]) * np.cos(x[1]),
                    0.3 * x[1] * np.exp(0.3 * x[0] * x[1]),
                ]
            )
        return np.array(
            [
                -np.sin(3 * x[0]) * np.sin(x[1]),
                0.3 * x[0] * np.exp(0.3 * x[0] * x[1]),
            ]
        )

    def test_richardson_accuracy(self):
        chart = Chart(dim=2, box=np.array([[-2.0, 2.0], [-2.0, 2.0]]), margin=0.1)
        x = np.array([0.4, -0.7])
        for mu in range(2):
            d = fd_array(self.field, chart, x, mu)
            assert np.abs(d - self.grad(x, mu)).max() < 1e-9

    def test_halving_ratio_is_second_order(self):
        """Pre-Richardson central differences gain a factor ~4 per halving."""
        chart = Chart(dim=2, box=np.array([[-2.0, 2.0], [-2.0, 2.0]]), margin=0.1)
        x = np.array([0.4, -0.7])
        e1 = np.abs(
            fd_array(self.field, chart, x, 0, richardson=False, step_scale=1e-2)
            - self.grad(x, 0)
        ).max()
        e2 = np.abs(
            fd_array(self.field, chart, x, 0, richardson=False, step_scale=5e-3)
            - self.grad(x, 0)
        ).max()
        assert 3.5 < e1 / e2 < 4.5

    def test_direction_out_of_range(self):
        chart = Chart(dim=1, box=np.array([[0.0, 1.0]]), margin=0.05)
        with pytest.raises(Exception):
            fd_array(lambda x: x, chart, np.array([0.5]), 3)


class TestLeviCivitaAgainstOracle:
    @pytest.mark.parametrize("name,params,oracle_key", ORACLE_CASES)
    def test_christoffel(self, name, params, oracle_key):
        fix = instantiate(name, params)
        gam_oracle, _ = symbolic_geometry(*oracle_key)
        for x in sample_interior(fix.chart, 6, seed=5):
            assert np.abs(fix.gamma.at(x) - gam_oracle(x)).max() < 1e-11

    @pytest.mark.parametrize("name,params,oracle_key", ORACLE_CASES)
    def test_curvature(self, name, params, oracle_key):
        fix = instantiate(name, params)
        _, rie_oracle = symbolic_geometry(*oracle_key)
        for x in sample_interior(fix.chart, 6, seed=6):
            assert np.abs(curvature(fix.gamma, x).data - rie_oracle(x)).max() < 1e-10

    def test_christoffel_partial_matches_fd(self):
        fix = instantiate("round_sphere2", {})
        x = np.array([1.1, 2.0])
        for mu in range(2):
            d = christoffel_partial(fix.g, x)[1][mu]
            fd = fd_array(fix.gamma.at, fix.chart, x, mu)
            assert np.abs(d - fd).max() < 1e-9

    def test_curvature_evaluates_the_metric_once(self):
        """Levi-Civita curvature takes Γ and ∂Γ from one evaluation of g."""
        fix = instantiate("berger_sphere", {})
        calls = []

        def ev(X):
            calls.append(X)
            return fix.g.evaluator(X)

        g = MetricField(chart=fix.chart, evaluator=ev)
        x = np.array([1.5, 1.3, 3.1])
        assert np.array_equal(curvature(levi_civita(g), x).data,
                              curvature(fix.gamma, x).data)
        assert len(calls) == 1

    def test_lowered_sphere_curvature_sign(self):
        """R_theta-phi-theta-phi = +sin^2(theta) on the unit sphere."""
        fix = instantiate("round_sphere2", {})
        x = np.array([1.0, 0.5])
        r = curvature(fix.gamma, x).data
        lowered = np.einsum("al,lkij->akij", fix.g.at(x), r)
        assert lowered[0, 1, 0, 1] == pytest.approx(np.sin(1.0) ** 2, abs=1e-12)

    def test_transport_holonomy_around_latitude(self):
        """Transport around a latitude loop rotates by -2 pi cos(theta0)."""
        fix = instantiate("round_sphere2", {})
        gam_oracle, _ = symbolic_geometry("round_sphere2", (1.0,))
        theta0 = 1.1
        loop = (
            lambda t: np.array([theta0, 2 * np.pi * t]),
            lambda t: np.array([0.0, 2 * np.pi]),
        )
        angle = transport_holonomy_angle(
            fix.gamma.at, fix.g.at, loop
        )
        expected = -2 * np.pi * np.cos(theta0)
        expected = np.mod(expected + np.pi, 2 * np.pi) - np.pi
        assert angle == pytest.approx(expected, abs=1e-8)


class TestCovariantDerivative:
    def test_metric_is_parallel(self):
        for name in ("round_sphere2", "hyperbolic_plane", "berger_sphere"):
            fix = instantiate(name, {})
            g_field = TensorFieldSpec(chart=fix.chart, markers=(DOWN, DOWN),
                                      evaluator=fix.g.evaluator)
            for x in sample_interior(fix.chart, 4, seed=8):
                dg = covariant_derivative(fix.gamma, g_field, x)
                assert dg.norm() < 1e-12

    def test_product_rule_on_scaled_vector(self):
        fix = instantiate("round_sphere2", {})

        def f(X):
            return jet.sin(X[0]) * jet.cos(X[1])

        def v(X):
            return jet.array([jet.cos(X[1]), jet.sin(X[0])])

        vf = TensorFieldSpec(chart=fix.chart, markers=(UP,), evaluator=v)
        fvf = TensorFieldSpec(chart=fix.chart, markers=(UP,), evaluator=lambda X: f(X) * v(X))
        x = np.array([1.2, 3.0])
        lhs = covariant_derivative(fix.gamma, fvf, x).data
        df = np.array(
            [np.cos(x[0]) * np.cos(x[1]), -np.sin(x[0]) * np.sin(x[1])]
        )
        fx, vx = np.sin(x[0]) * np.cos(x[1]), np.array([np.cos(x[1]), np.sin(x[0])])
        rhs = np.outer(df, vx) + fx * covariant_derivative(fix.gamma, vf, x).data
        assert np.abs(lhs - rhs).max() < 1e-14

    def test_second_derivative_commutator_is_curvature(self):
        """(del_i del_j - del_j del_i) v = R(e_i, e_j) v for torsion-free gamma."""
        fix = instantiate("hyperbolic_plane", {})

        def v(X):
            return jet.array([jet.sin(X[0] + X[1]), X[1] ** 2])

        x = np.array([0.2, 1.3])
        G = fix.gamma.jet_at(x, 1)
        dv = nabla(v(jet.variables(x, 2)), (UP,), G)
        ddv = nabla(dv, (DOWN, UP), G).value[..., 0]  # axes (i, j, k): del_i del_j v^k
        comm = ddv - ddv.swapaxes(0, 1)
        r = curvature(fix.gamma, x).data
        expect = np.einsum("lkij,k->ijl", r, v(jet.variables(x, 0)).value[..., 0])
        assert np.abs(comm - expect).max() < 1e-12


class TestTorsionAndFrames:
    def test_levi_civita_torsion_free(self):
        fix = instantiate("berger_sphere", {})
        for x in sample_interior(fix.chart, 4, seed=9):
            assert torsion_field(fix.gamma).at(x).norm() < 1e-12

    def test_su2_frame_structure_functions(self):
        """[e_i, e_j] = 2 eps_ijk e_k for the left-invariant frame."""
        fix = instantiate("round_sphere3", {})
        eps = np.zeros((3, 3, 3))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            eps[k, i, j] = 1.0
            eps[k, j, i] = -1.0
        for x in sample_interior(fix.chart, 4, seed=10):
            c = frame_structure_functions(fix.frame_conn, x)
            assert np.abs(c - 2.0 * eps).max() < 1e-12

    def test_canonical_torsion_pins_minus_bracket(self):
        """T(e_1, e_2) = -2 e_3 for the canonical left-invariant connection,
        and the torsion of its coordinate coefficients is the same tensor."""
        fix = instantiate("round_sphere3", {})
        x = np.array([1.0, 1.2, 2.5])
        t = frame_torsion(fix.frame_conn, x)
        assert t[2, 0, 1] == pytest.approx(-2.0, abs=1e-12)
        assert t[2, 1, 0] == pytest.approx(2.0, abs=1e-12)
        th = fix.frame_conn.coframe(jet.variables(x, 0)).value[..., 0]
        E = frame_at(fix.frame_conn, x)
        coord = torsion_field(fix.gamma_canonical).at(x).data
        assert np.abs(np.einsum("kl,lmn,mi,nj->kij", th, coord, E, E) - t).max() < 1e-12

    def test_canonical_connection_parallelizes_the_frame(self):
        """Coordinate coefficients of the frame connection transport the
        frame vectors to zero derivative."""
        fix = instantiate("round_sphere3", {})
        gamma_c = fix.gamma_canonical
        x = np.array([2.0, 1.0, 0.7])
        G = gamma_c.at(x)
        E = frame_at(fix.frame_conn, x)
        for mu in range(3):
            dE = fd_array(
                lambda p: frame_at(fix.frame_conn, p), fix.chart, x, mu
            )
            resid = dE + G[:, mu, :] @ E
            assert np.abs(resid).max() < 1e-10

    def test_frame_to_coordinate_matches_fd_in_partial(self):
        fix = instantiate("berger_sphere", {})
        gamma_c = fix.gamma_canonical
        x = np.array([1.5, 1.3, 3.1])
        for mu in range(3):
            fd = fd_array(frame_connection_field(fix.frame_conn).at,
                          fix.chart, x, mu)
            assert np.abs(gamma_c.partial_at(x)[mu] - fd).max() < 1e-8

    @pytest.mark.parametrize("name,params,x", [
        ("berger_sphere", {}, [1.5, 1.3, 3.1]),
        ("berger_sphere", {"lam": 0.5}, [0.4, 2.2, 5.0]),
        ("round_sphere2", {}, [1.2, 2.0]),
        ("hyperbolic_plane", {}, [0.3, 1.1]),
    ])
    def test_ortho_frame_partial_matches_cholesky_jet_and_fd(self, name, params, x):
        """The closed form dL = L Phi(L^-1 dG L^-T) equals the partials of
        the Cholesky factor's jet to rounding, and FD within its error."""
        fix = instantiate(name, params)
        x = np.array(x)
        dframes, dcoframes = ortho_frame_partial(fix.g, x)
        frame, coframe = frame_jet(fix.g, x, 1)
        assert np.abs(dframes - jet.shift(frame).value[..., 0]).max() < 1e-14
        assert np.abs(dcoframes - jet.shift(coframe).value[..., 0]).max() < 1e-14
        for mu in range(fix.chart.dim):
            dframe, dcoframe = dframes[mu], dcoframes[mu]
            fd_frame = fd_array(
                lambda p: ortho_frame(fix.g, p).frame, fix.chart, x, mu
            )
            fd_coframe = fd_array(
                lambda p: ortho_frame(fix.g, p).coframe, fix.chart, x, mu
            )
            assert np.abs(dframe - fd_frame).max() < 1e-9
            assert np.abs(dcoframe - fd_coframe).max() < 1e-9

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 2e-12])
    def test_metric_symmetry_check_fails_closed(self, entry):
        """NaN, inf (even placed symmetrically) and an asymmetry just above
        1e-12 all raise."""
        chart = Chart(dim=2, box=np.array([[-1.0, 1.0]] * 2), margin=0.05)
        g = np.eye(2)
        g[0, 1] = entry
        if not np.isfinite(entry):
            g[1, 0] = entry
        metric = MetricField(chart, lambda X: X.lift(g))
        with pytest.raises(DegenerateMetric):
            metric.at(np.zeros(2))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 2e-12])
    def test_connection_symmetry_check_fails_closed(self, entry):
        chart = Chart(dim=2, box=np.array([[-1.0, 1.0]] * 2), margin=0.05)
        coeffs = np.zeros((2, 2, 2))
        coeffs[0, 0, 1] = entry
        if not np.isfinite(entry):
            coeffs[0, 1, 0] = entry
        conn = ConnectionCoeffs(chart=chart, evaluator=lambda X: X.lift(coeffs),
                                symmetric_flag=True)
        with pytest.raises(BadParameters):
            conn.at(np.zeros(2))

    def test_symmetric_flag_enforced(self):
        chart = Chart(dim=2, box=np.array([[-1.0, 1.0]] * 2), margin=0.05)
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 1] = 1.0
        conn = ConnectionCoeffs(
            chart=chart, evaluator=lambda X: X.lift(bad), symmetric_flag=True
        )
        with pytest.raises(BadParameters):
            conn.at(np.zeros(2))
