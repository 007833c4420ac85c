"""Tests for derivative towers, stabilizer chains, orbit matching, gauge
forms, the adapted connection, and the parallelism criteria."""

import numpy as np
import pytest
from scipy.linalg import expm

from ambrose.bundle_conn import LocalConnectionForm, form_difference
from ambrose.chart_calculus import (
    ConnectionCoeffs,
    covariant_derivative,
    covariant_derivative_field,
    curvature_field,
    levi_civita,
    nan_max,
    ortho_frame,
    sample_interior,
)
from ambrose.errors import DepthMismatch, NotMetric, NumericalFailure
from ambrose.fixtures import instantiate
from ambrose.homogeneity import (
    DerivativeTower,
    StabilizerChain,
    TripleSpec,
    adapted_connection,
    build_tower,
    check_lh_triple,
    check_ls_triple,
    derivative_fields,
    equivalence_check_c_c0,
    frame_expressed_field,
    frame_gauge_form,
    form_as_field,
    gauge_connection,
    gauge_residual,
    group_action,
    kirichenko_section_spec,
    opozda_section_spec,
    orbit_match,
    stabilizer_chain,
    tower_and_chain,
    with_adjoint_rep,
)
from ambrose.lie_core import (
    default_inner,
    frame_structure_rep,
    subspace_contained,
)
from ambrose.tensor_core import DOWN, LIE, UP, DenseTensor, OrthoFrame, to_frame

REP2 = frame_structure_rep(2)
REP3 = frame_structure_rep(3)


def lc_tower(fx, x, kmax=2, frame=None):
    sigma = opozda_section_spec(fx.gamma)
    return build_tower(sigma, None, fx.gamma, fx.g, x, kmax, frame=frame)


def flat_tower3(levels):
    fr = OrthoFrame(point=np.zeros(3), frame=np.eye(3), coframe=np.eye(3))
    return DerivativeTower(
        point=np.zeros(3), frame=fr, kmax=len(levels) - 1,
        entries=tuple(tuple(level) for level in levels),
    )


class TestDerivativeTower:
    def test_entry_shapes_and_depth(self):
        fx = instantiate("round_sphere2", {})
        x = sample_interior(fx.chart, 1)[0]
        tower = lc_tower(fx, x, kmax=2)
        assert len(tower.entries) == 3
        torsion, riem = tower.entries[0]
        assert torsion.markers == (UP, DOWN, DOWN)
        assert riem.markers == (UP, DOWN, DOWN, DOWN)
        # each level prepends one covariant axis
        assert tower.entries[1][1].markers == (DOWN, UP, DOWN, DOWN, DOWN)
        assert len(tower.up_to(1)) == 4
        with pytest.raises(DepthMismatch):
            tower.up_to(3)

    def test_kmax_validated(self):
        fx = instantiate("round_sphere2", {})
        with pytest.raises(DepthMismatch):
            lc_tower(fx, np.array([1.0, 1.0]), kmax=0)

    def test_unit_sphere_frame_invariants(self):
        """Unit-sphere pins: torsion vanishes and the frame-expressed
        curvature entry has norm 2 at every point."""
        fx = instantiate("round_sphere2", {})
        for x in sample_interior(fx.chart, 4, seed=2):
            tower = lc_tower(fx, x, kmax=1)
            assert tower.entries[0][0].norm() < 1e-12
            assert tower.entries[0][1].norm() == pytest.approx(2.0, abs=1e-9)

    def test_derivative_fields_level_markers(self):
        fx = instantiate("round_sphere2", {})
        sigma = opozda_section_spec(fx.gamma)
        levels = derivative_fields(sigma, None, fx.gamma, 2)
        assert [len(level) for level in levels] == [2, 2, 2]
        assert levels[2][0].markers == (DOWN, DOWN, UP, DOWN, DOWN)


CHAIN_CASES = [
    ("euclidean", {"n": 3}, "metric", (3, 3, 3)),
    ("round_sphere2", {}, "metric", (1, 1, 1)),
    ("hyperbolic_plane", {}, "metric", (1, 1, 1)),
    ("berger_sphere", {"lam": 2.0}, "metric", (1, 1, 1)),
    ("round_sphere3", {}, "canonical", (3, 3, 3)),
]


class TestStabilizerChains:
    @pytest.mark.parametrize("name,params,conn,dims", CHAIN_CASES)
    def test_fixture_chains(self, name, params, conn, dims):
        fx = instantiate(name, params)
        gamma = fx.gamma if conn == "metric" else fx.gamma_canonical
        rep = frame_structure_rep(fx.chart.dim)
        sigma = opozda_section_spec(gamma)
        for x in sample_interior(fx.chart, 3, seed=4):
            tower = build_tower(sigma, None, gamma, fx.g, x, 2)
            chain = stabilizer_chain(tower, rep)
            assert chain.dims == dims
            assert chain.singer_k == 0
            assert chain.flags == ()
            for k in range(len(chain.bases) - 1):
                assert subspace_contained(chain.bases[k + 1], chain.bases[k])

    def test_tower_and_chain_explicit_depth(self):
        fx = instantiate("euclidean", {"n": 2})
        x = sample_interior(fx.chart, 1)[0]
        sigma = opozda_section_spec(fx.gamma)
        tower, chain = tower_and_chain(
            sigma, None, fx.gamma, fx.g, x, REP2, kmax=3
        )
        assert len(tower.entries) == 4
        assert chain.dims == (1, 1, 1, 1)

    def test_custom_section_collection(self):
        """A chain built from a hand-picked tensor collection (here just the
        curvature of the metric connection) matches the torsion+curvature
        chain on a torsion-free geometry."""
        fx = instantiate("round_sphere2", {})
        x = sample_interior(fx.chart, 1, seed=6)[0]
        sigma = kirichenko_section_spec(
            fx.chart, (curvature_field(fx.gamma),)
        )
        tower, chain = tower_and_chain(sigma, None, fx.gamma, fx.g, x, REP2)
        assert [len(level) for level in tower.entries] == [1, 1, 1]
        assert chain.dims == (1, 1, 1)
        assert chain.singer_k == 0
        assert chain.flags == ()

    def test_deep_towers_report_noise_honestly(self):
        """Triply nested finite differences can push noise past the rank
        cutoff; the chain must then either stay stable or flag itself."""
        fx = instantiate("round_sphere2", {})
        x = sample_interior(fx.chart, 1)[0]
        sigma = opozda_section_spec(fx.gamma)
        _, chain = tower_and_chain(sigma, None, fx.gamma, fx.g, x, REP2, kmax=3)
        assert chain.dims[:3] == (1, 1, 1)
        assert chain.singer_k == 0
        assert chain.dims[3] == 1 or "ambiguous" in chain.flags

    def test_chain_constant_across_points(self):
        fx = instantiate("berger_sphere", {"lam": 2.0})
        sigma = opozda_section_spec(fx.gamma)
        results = set()
        for x in sample_interior(fx.chart, 6, seed=5):
            _, chain = tower_and_chain(sigma, None, fx.gamma, fx.g, x, REP3)
            results.add((chain.dims, chain.singer_k))
        assert len(results) == 1


class TestChainFlags:
    def test_truncated_when_dims_keep_falling(self):
        identity = DenseTensor((DOWN, DOWN), np.eye(3))
        axial = DenseTensor((DOWN, DOWN), np.diag([1.0, 1.0, 3.0]))
        generic = DenseTensor((DOWN, DOWN), np.diag([1.0, 2.0, 3.0]))
        chain = stabilizer_chain(
            flat_tower3([(identity,), (axial,), (generic,)]), REP3
        )
        assert chain.dims == (3, 1, 0)
        assert chain.singer_k is None
        assert chain.flags == ("truncated",)

    def test_spurious_stabilization_flagged(self):
        identity = DenseTensor((DOWN, DOWN), np.eye(3))
        zero = DenseTensor((DOWN, DOWN), np.zeros((3, 3)))
        generic = DenseTensor((DOWN, DOWN), np.diag([1.0, 2.0, 3.0]))
        chain = stabilizer_chain(
            flat_tower3([(identity,), (zero,), (generic,)]), REP3
        )
        assert chain.dims == (3, 3, 0)
        assert chain.singer_k == 0
        assert "ambiguous" in chain.flags

    def test_zero_dimensional_stabilizer_counts_as_stabilized(self):
        generic = DenseTensor((DOWN, DOWN), np.diag([1.0, 2.0, 3.0]))
        chain = stabilizer_chain(flat_tower3([(generic,), (generic,)]), REP3)
        assert chain.dims == (0, 0)
        assert chain.singer_k == 0
        assert chain.flags == ()

    def test_spectral_gap_ambiguity(self):
        """Perturbations straddling the rank cutoff within one decade make the
        kernel dimension a coin flip, which must be flagged."""

        def perturbed(big, small):
            m = np.eye(3)
            m[2, 2] += big
            m[0, 1] += small
            m[1, 0] += small
            return DenseTensor((DOWN, DOWN), m)

        murky = stabilizer_chain(flat_tower3([(perturbed(3e-8, 5e-9),)]), REP3)
        assert "ambiguous" in murky.flags
        clean = stabilizer_chain(flat_tower3([(perturbed(5e-8, 1e-9),)]), REP3)
        assert "ambiguous" not in clean.flags


class TestFrameRotationInvariance:
    def test_chain_and_match_are_gauge_invariant(self):
        """Rotating the orthonormal frame must not change stabilizer
        dimensions, and the rotated tower must match the original exactly."""
        fx = instantiate("berger_sphere", {"lam": 2.0})
        x = sample_interior(fx.chart, 1, seed=6)[0]
        fr = ortho_frame(fx.g, x)
        theta = np.array([0.3, -0.7, 0.5])
        q = expm(REP3.vector.matrix(theta))
        t_plain = lc_tower(fx, x, kmax=2, frame=fr)
        t_rot = lc_tower(fx, x, kmax=2, frame=fr.rotated(q))
        c_plain = stabilizer_chain(t_plain, REP3)
        c_rot = stabilizer_chain(t_rot, REP3)
        assert c_plain.dims == c_rot.dims
        assert c_plain.singer_k == c_rot.singer_k
        match = orbit_match(t_plain, t_rot, REP3, depth=1)
        assert match.matched
        assert match.residual < 1e-9
        # the chain is (1, 1, 1): the match is exp(-theta) only modulo the
        # stabilizer, so exp(theta) exp(match.theta) must fix every entry
        for a in t_plain.up_to(2):
            back = group_action(theta, REP3, group_action(match.theta, REP3, a))
            assert (back - a).norm() <= 1e-9 * a.norm()

    def test_group_action_matches_frame_rotation(self):
        fx = instantiate("round_sphere2", {})
        x = sample_interior(fx.chart, 1, seed=7)[0]
        fr = ortho_frame(fx.g, x)
        theta = np.array([0.4])
        q = expm(REP2.vector.matrix(theta))
        t_plain = lc_tower(fx, x, kmax=1, frame=fr)
        t_rot = lc_tower(fx, x, kmax=1, frame=fr.rotated(q))
        # rotating the frame by q re-expresses every entry by the inverse action
        for a, b in zip(t_plain.up_to(1), t_rot.up_to(1)):
            assert (group_action(-theta, REP2, a) - b).norm() < 1e-12


class TestOrbitMatch:
    def test_homogeneous_fixture_matches_across_points(self):
        for name, params in (("round_sphere2", {}), ("berger_sphere", {"lam": 2.0})):
            fx = instantiate(name, params)
            x1, x2 = sample_interior(fx.chart, 2, seed=8)
            t1, t2 = lc_tower(fx, x1), lc_tower(fx, x2)
            match = orbit_match(t1, t2, frame_structure_rep(fx.chart.dim), depth=1)
            assert match.matched, match.reason
            assert match.residual < 1e-6

    def test_opposite_curvature_rejected_by_spectrum(self):
        ts = lc_tower(instantiate("round_sphere2", {}),
                      np.array([1.2, 2.0]))
        th = lc_tower(instantiate("hyperbolic_plane", {}),
                      np.array([0.3, 1.0]))
        match = orbit_match(ts, th, REP2, depth=1)
        assert not match.matched
        assert match.reason == "prescreen-spectrum"
        assert match.residual == np.inf

    def test_different_scale_rejected_by_norm(self):
        t1 = lc_tower(instantiate("round_sphere2", {}), np.array([1.2, 2.0]))
        t2 = lc_tower(instantiate("round_sphere2", {"radius": 2.0}),
                      np.array([1.2, 2.0]))
        match = orbit_match(t1, t2, REP2, depth=1)
        assert not match.matched
        assert match.reason == "prescreen-norm"

    def test_flat_towers_match_trivially(self):
        fx = instantiate("euclidean", {"n": 2})
        x1, x2 = sample_interior(fx.chart, 2, seed=9)
        match = orbit_match(lc_tower(fx, x1), lc_tower(fx, x2), REP2, depth=1)
        assert match.matched
        assert match.residual == 0.0

    def test_depth_mismatch(self):
        fx = instantiate("round_sphere2", {})
        x = sample_interior(fx.chart, 1)[0]
        with pytest.raises(DepthMismatch):
            orbit_match(lc_tower(fx, x, kmax=2), lc_tower(fx, x, kmax=1),
                        REP2, depth=2)


class TestGaugeForms:
    def test_gauge_form_reproduces_covariant_derivative(self):
        """The frame gauge form must re-express the linear connection: the
        gauge derivative of a frame-expressed field equals the frame
        expression of its covariant derivative."""
        fx = instantiate("round_sphere2", {})
        gamma = levi_civita(fx.g)
        b0 = frame_gauge_form(gamma, fx.g, REP2.vector)
        riem = curvature_field(gamma)
        riem_hat = frame_expressed_field(riem, fx.g)
        grad = covariant_derivative_field(gamma, riem)
        for x in sample_interior(fx.chart, 3, seed=10):
            fr = ortho_frame(fx.g, x)
            gauge, lie = gauge_connection(b0, REP2)
            d = covariant_derivative(gauge, riem_hat, x, lie)
            lhs = np.tensordot(fr.frame, d.data, axes=(0, 0))
            rhs = to_frame(grad.at(x), fr).data
            assert np.abs(lhs - rhs).max() < 1e-7

    def test_non_metric_connection_rejected(self):
        fx = instantiate("round_sphere2", {})
        zero_gamma = ConnectionCoeffs(
            chart=fx.chart, evaluator=lambda x: np.zeros((2, 2, 2))
        )
        b = frame_gauge_form(zero_gamma, fx.g, REP2.vector)
        with pytest.raises(NotMetric):
            b.at(np.array([1.0, 1.0]))

    def test_form_as_field_shape(self):
        fx = instantiate("round_sphere2", {})
        b0 = frame_gauge_form(levi_civita(fx.g), fx.g, REP2.vector)
        field = form_as_field(b0, fx.g)
        val = field.at(np.array([1.0, 1.0]))
        assert val.markers == (DOWN, LIE)
        assert val.dims == (2, 1)

    def test_with_adjoint_rep(self):
        rep = with_adjoint_rep(REP3)
        assert rep.lie is not None
        assert np.allclose(rep.lie.matrices, REP3.algebra.adjoint_rep().matrices)


class TestAdaptedConnection:
    def test_berger_contracts(self):
        """The adapted connection parallelizes both the shift and the whole
        derivative tower on the squashed three-sphere."""
        fx = instantiate("berger_sphere", {"lam": 2.0})
        inner = default_inner(REP3.algebra)
        b0 = frame_gauge_form(fx.gamma, fx.g, REP3.vector)
        b_prime = frame_gauge_form(fx.gamma_canonical, fx.g, REP3.vector)
        sigma = opozda_section_spec(fx.gamma)

        def chain_field(x):
            return tower_and_chain(sigma, None, fx.gamma, fx.g, x, REP3)[1]

        b = adapted_connection(b0, b_prime, chain_field, inner)
        beta_hat = frame_expressed_field(form_difference(b, b0), fx.g)
        x = sample_interior(fx.chart, 1, seed=11)[0]
        assert gauge_residual(b, with_adjoint_rep(REP3), beta_hat, fx.g, x) < 1e-5
        levels = derivative_fields(sigma, None, fx.gamma, 1)
        worst = 0.0
        for level in levels:
            for f in level:
                t_hat = frame_expressed_field(f, fx.g)
                worst = max(worst, gauge_residual(b, REP3, t_hat, fx.g, x))
        assert worst < 1e-5

    def test_unstabilized_chain_raises(self):
        fx = instantiate("round_sphere2", {})
        b0 = frame_gauge_form(levi_civita(fx.g), fx.g, REP2.vector)
        bad_chain = StabilizerChain(
            bases=(np.zeros((1, 0)),), dims=(0,), singer_k=None,
            flags=("truncated",),
        )
        b = adapted_connection(
            b0, b0, lambda x: bad_chain, default_inner(REP2.algebra)
        )
        with pytest.raises(NumericalFailure):
            b.at(np.array([1.0, 1.0]))


class TestEquivalence:
    def test_symmetric_space_both_systems_hold(self):
        fx = instantiate("round_sphere2", {})
        pts = sample_interior(fx.chart, 4, seed=12)
        report = equivalence_check_c_c0(fx.gamma, fx.g, pts, fixture="round_sphere2")
        assert report.passed
        assert "systems-agree" in report.flags
        assert "system-one-holds" in report.flags
        assert "system-two-holds" in report.flags

    def test_canonical_berger_both_systems_hold(self):
        fx = instantiate("berger_sphere", {"lam": 2.0})
        pts = sample_interior(fx.chart, 2, seed=13)
        report = equivalence_check_c_c0(fx.gamma_canonical, fx.g, pts)
        assert report.passed
        assert "system-one-holds" in report.flags
        assert "system-two-holds" in report.flags

    def test_agreement_on_a_failing_connection(self):
        """A metric connection with a position-dependent torsion: both
        condition systems must fail, and the check must report agreement."""
        fx = instantiate("round_sphere2", {})
        gamma0 = levi_civita(fx.g)
        eps = np.array([[0.0, 1.0], [-1.0, 0.0]])

        def ev(x):
            ginv = np.diag([1.0, 1.0 / np.sin(x[0]) ** 2])
            shift = np.sin(x[0]) * np.einsum("m,kj->kmj", [1.0, 0.0], ginv @ eps)
            return gamma0.at(x) + shift

        gamma = ConnectionCoeffs(chart=fx.chart, evaluator=ev)
        pts = sample_interior(fx.chart, 3, seed=14)
        report = equivalence_check_c_c0(gamma, fx.g, pts)
        assert report.passed
        assert "systems-agree" in report.flags
        assert "system-one-fails" in report.flags
        assert "system-two-fails" in report.flags

    def test_non_metric_rejected(self):
        fx = instantiate("round_sphere2", {})
        zero_gamma = ConnectionCoeffs(
            chart=fx.chart, evaluator=lambda x: np.zeros((2, 2, 2))
        )
        with pytest.raises(NotMetric):
            equivalence_check_c_c0(zero_gamma, fx.g, np.array([[1.0, 1.0]]))


class TestParallelismCriteria:
    def triple(self, fx):
        return TripleSpec(g=fx.g, algebra=fx.algebra, inner=fx.inner, a0=fx.a0)

    def test_monopole_is_locally_homogeneous(self):
        fx = instantiate("hopf_monopole", {})
        pts = sample_interior(fx.chart, 4, seed=15)
        report = check_lh_triple(self.triple(fx), fx.gamma, fx.a0, pts,
                                 fixture="hopf_monopole")
        assert report.passed
        assert set(report.residuals) == {"nabla_R", "nabla_T", "nabla_F",
                                         "nabla_alpha"}
        assert max(report.residuals.values()) < 1e-5

    def test_monopole_is_locally_symmetric(self):
        fx = instantiate("hopf_monopole", {})
        pts = sample_interior(fx.chart, 4, seed=16)
        report = check_ls_triple(self.triple(fx), pts, fixture="hopf_monopole")
        assert report.passed
        assert set(report.residuals) == {"nabla_Rg", "nabla_F0"}

    def test_bump_shift_breaks_homogeneity(self):
        fx = instantiate("hopf_monopole", {})
        shifted = fx.a0.shifted(fx.alpha_bump)
        pts = np.array([[0.5 * np.pi, np.pi], [1.2, 2.5]])
        report = check_lh_triple(self.triple(fx), fx.gamma, shifted, pts)
        assert not report.passed
        assert report.residuals["nabla_alpha"] > 1e-2

    def test_parallel_shift_preserves_homogeneity(self):
        """Moving the reference form by a shift that is parallel for the live
        connection leaves the criterion satisfied."""
        fx = instantiate("hopf_monopole", {})
        moved = TripleSpec(g=fx.g, algebra=fx.algebra, inner=fx.inner,
                           a0=fx.a0.shifted(fx.alpha_parallel))
        pts = sample_interior(fx.chart, 3, seed=17)
        report = check_lh_triple(moved, fx.gamma, fx.a0, pts)
        assert report.passed

    def test_flat_bundle_symmetric(self):
        fx = instantiate("trivial_bundle_flat", {})
        pts = sample_interior(fx.chart, 3, seed=18)
        report = check_ls_triple(self.triple(fx), pts)
        assert report.passed
        assert max(report.residuals.values()) < 1e-10


class TestFailClosed:
    @pytest.mark.parametrize("values", [[0.0, np.nan], [np.nan, 0.0]])
    def test_nan_max_propagates_nan(self, values):
        assert np.isnan(nan_max(values))

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_nan_bundle_form_near_one_point_fails(self, bad):
        """A bundle form that is NaN near any one sample point must not pass."""
        fx = instantiate("hopf_monopole", {})
        pts = sample_interior(fx.chart, 3, seed=19)

        def near(x):
            return np.linalg.norm(np.asarray(x) - pts[bad]) < 0.05

        a = LocalConnectionForm(
            chart=fx.chart,
            algebra=fx.algebra,
            evaluator=lambda x: np.full((2, 3), np.nan) if near(x) else fx.a0.at(x),
            partial_evaluator=lambda x: (
                np.full((2, 2, 3), np.nan) if near(x) else fx.a0.partial_at(x)
            ),
        )
        triple = TripleSpec(g=fx.g, algebra=fx.algebra, inner=fx.inner, a0=fx.a0)
        report = check_lh_triple(triple, fx.gamma, a, pts)
        assert not report.passed
        assert np.isnan(report.residuals["nabla_F"])
