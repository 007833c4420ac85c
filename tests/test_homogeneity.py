"""Tests for derivative towers, stabilizer chains, orbit matching, the
adapted connection (against the difference-tensor oracle and FD), and the
parallelism criteria."""

import dataclasses
import json

import numpy as np
import pytest
from scipy.linalg import expm, subspace_angles

from ambrose import chart_calculus, cli, homogeneity, jet, lie_core
from ambrose.bundle_conn import LocalConnectionForm, curvature_form_field
from ambrose.chart_calculus import (
    CHUNK,
    ConnectionCoeffs,
    curvature_field,
    frame_connection_field,
    frame_levels,
    levi_civita,
    nan_max,
    ortho_frame,
    sample_interior,
    torsion_field,
)
from ambrose.errors import DepthMismatch, NotMetric, NotReductive, NumericalFailure
from ambrose.fixtures import fixture_names, instantiate
from ambrose.homogeneity import (
    KMAX_CAP,
    KMAX_START,
    DerivativeTower,
    StabilizerChain,
    _adapted_shifts,
    _nesting,
    adapted_residuals,
    build_tower,
    check_lh_triple,
    check_ls_triple,
    group_action,
    lh_fields,
    opozda_section_spec,
    orbit_match,
    stabilizer_chain,
    stabilizer_chains,
    tower_and_chain,
    towers_and_chains,
    with_adjoint_rep,
)
from ambrose.lie_core import (
    ANGLE_TOL,
    default_inner,
    frame_structure_rep,
    subalgebra_residuals,
)
from ambrose.tensor_core import DOWN, LIE, UP, DenseTensor, OrthoFrame, to_frame
import oracles
from oracles import (
    covariant_derivative,
    covariant_fd,
    degrees,
    difference_field,
    difference_shifts,
    equivalence_check_c_c0,
    fd_tower,
    frame_expressed,
    frame_gauge_form,
    gauge_derivative,
    nested_fd_adapt_residuals,
    point_towers,
    rotated,
    tower_shift,
)
from test_orbit_match import warped_surface
from test_total_space import count_calls

REP2 = frame_structure_rep(2)
REP3 = frame_structure_rep(3)


def largest_angle(a, b):
    """scipy's largest principal angle between two column spans, 0.0 where
    either is empty."""
    return float(subspace_angles(a, b)[0]) if min(a.shape[1], b.shape[1]) else 0.0


def assert_angle(got, want):
    """Within 1e-12 of scipy's angle below 0.1 rad, where the sine is
    accurate, and within 1e-7 above it."""
    assert abs(got - want) <= (1e-12 if want < 0.1 else 1e-7), (got, want)


def lc_tower(fx, x, kmax=2, frame=None):
    sigma = opozda_section_spec(fx.gamma)
    return build_tower(sigma, None, fx.gamma, fx.g, x, kmax, frame=frame)


def point_chains(builds):
    """Each point's chain from the builds of towers_and_chains, which yield
    each point once, in point order."""
    chains = {}
    for todo, _, built in builds:
        chains.update(zip(todo, built))
    return [chains[i] for i in sorted(chains)]


def flat_tower3(levels):
    fr = OrthoFrame(point=np.zeros(3), frame=np.eye(3), coframe=np.eye(3))
    return DerivativeTower(
        point=np.zeros(3), frame=fr, kmax=len(levels) - 1,
        entries=tuple(tuple(level) for level in levels),
    )


class TestDerivativeTower:
    def test_entry_shapes_and_depth(self):
        """The Levi-Civita tower carries the curvature alone, and a
        connection with torsion the pair (T, R)."""
        fx = instantiate("round_sphere2", {})
        x = sample_interior(fx.chart, 1)[0]
        tower = lc_tower(fx, x, kmax=2)
        assert len(tower.entries) == 3
        (riem,) = tower.entries[0]
        assert riem.markers == (UP, DOWN, DOWN, DOWN)
        # each level prepends one covariant axis
        assert tower.entries[1][0].markers == (DOWN, UP, DOWN, DOWN, DOWN)
        assert len(tower.up_to(1)) == 2
        berger = instantiate("berger_sphere", {})
        torsion, riem = build_tower(opozda_section_spec(berger.gamma_canonical), None,
                                    berger.gamma_canonical, berger.g,
                                    sample_interior(berger.chart, 1)[0], 2).entries[0]
        assert torsion.markers == (UP, DOWN, DOWN)
        assert riem.markers == (UP, DOWN, DOWN, DOWN)
        with pytest.raises(DepthMismatch):
            tower.up_to(3)

    def test_kmax_validated(self):
        fx = instantiate("round_sphere2", {})
        with pytest.raises(DepthMismatch):
            lc_tower(fx, np.array([1.0, 1.0]), kmax=0)

    def test_unit_sphere_frame_invariants(self):
        """Unit-sphere pins: torsion vanishes, so the tower is the
        curvature's alone, and the frame-expressed curvature entry has norm
        2 at every point."""
        fx = instantiate("round_sphere2", {})
        for x in sample_interior(fx.chart, 4, seed=2):
            tower = lc_tower(fx, x, kmax=1)
            assert np.abs(torsion_field(fx.gamma).at(x).data).max() < 1e-12
            assert len(tower.entries[0]) == 1
            assert tower.entries[0][0].norm() == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("name,conn", [("round_sphere2", "metric"),
                                           ("berger_sphere", "metric"),
                                           ("berger_sphere", "canonical")])
    def test_jet_tower_matches_nested_fd(self, name, conn):
        """Every entry up to level 2 equals the nested-FD tower's within the
        FD error, marker by marker."""
        fx = instantiate(name, {})
        gamma = fx.gamma if conn == "metric" else fx.gamma_canonical
        sigma = opozda_section_spec(gamma)
        x = sample_interior(fx.chart, 1, seed=3)[0]
        tower = build_tower(sigma, None, gamma, fx.g, x, 2)
        ref = fd_tower(sigma, gamma, 2)
        assert [t.markers for t in tower.up_to(2)] == [m for m, _ in ref]
        assert tower.entries[2][0].markers == (DOWN, DOWN) + sigma[0].markers
        assert len(sigma) == (1 if conn == "metric" else 2)
        for t, (m, f) in zip(tower.up_to(2), ref):
            expect = frame_expressed(f, m, fx.g)(x)
            assert np.abs(t.data - expect).max() < 1e-6 * max(1.0, np.abs(expect).max())


CHAIN_CASES = [
    ("euclidean", {"n": 3}, "metric", (3, 3, 3)),
    ("round_sphere2", {}, "metric", (1, 1, 1)),
    ("hyperbolic_plane", {}, "metric", (1, 1, 1)),
    ("berger_sphere", {"lam": 2.0}, "metric", (1, 1, 1)),
    ("round_sphere3", {}, "canonical", (3, 3, 3)),
]


# every catalog fixture with each connection it has, as singer takes it
SINGER_RUNS = [(name, connection) for name in fixture_names()
               for connection in ("metric", "canonical")
               if connection == "metric" or instantiate(name, {}).gamma_canonical is not None]


class TestTorsionFreeTower:
    """A torsion-free connection's tower is its curvature tower: the
    Levi-Civita section is the curvature alone, and a connection with
    torsion keeps the pair (T, R)."""

    @pytest.mark.parametrize("name", fixture_names())
    def test_levi_civita_jet_is_symmetric(self, name):
        """The Levi-Civita jet is symmetric to the bit at order
        KMAX_CAP + 2, the deepest any tower reads (adapt's depth k_S + 2,
        plus one), so its torsion is zero at every order a tower reads."""
        fx = instantiate(name, {})
        assert fx.gamma.symmetric_flag
        c = fx.gamma.jet_at(sample_interior(fx.chart, 8, seed=5), KMAX_CAP + 2).c
        assert np.array_equal(c, c.swapaxes(1, 2))

    @pytest.mark.parametrize("name", [name for name, conn in SINGER_RUNS if conn == "metric"])
    def test_curvature_chain_matches_torsion_pair(self, name):
        """singer connection=metric's chains at its default points, from
        the curvature alone and from an explicit (T, R) section, have the
        same dims, singer_k and flags, and nesting angles within 1e-12."""
        fx = instantiate(name, {})
        rep = frame_structure_rep(fx.chart.dim)
        points = sample_interior(fx.chart, 8, 42)
        pair = (torsion_field(fx.gamma), curvature_field(fx.gamma))
        assert [f.markers for f in opozda_section_spec(fx.gamma)] == [(UP, DOWN, DOWN, DOWN)]
        curvature, both = (point_chains(towers_and_chains(sigma, None, fx.gamma, fx.g, points,
                                                          rep))
                           for sigma in (opozda_section_spec(fx.gamma), pair))
        for a, b in zip(curvature, both, strict=True):
            assert (a.dims, a.singer_k, a.flags) == (b.dims, b.singer_k, b.flags)
            np.testing.assert_allclose(a.nesting, b.nesting, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", [name for name, conn in SINGER_RUNS if conn == "canonical"])
    def test_connection_with_torsion_keeps_the_pair(self, name):
        """A canonical connection with torsion keeps two fields, T and R,
        at every level of its tower, and its torsion entry is not zero."""
        fx = instantiate(name, {})
        gamma = fx.gamma_canonical
        assert not gamma.symmetric_flag
        sigma = opozda_section_spec(gamma)
        assert [f.markers for f in sigma] == [(UP, DOWN, DOWN), (UP, DOWN, DOWN, DOWN)]
        tower = build_tower(sigma, None, gamma, fx.g, sample_interior(fx.chart, 1)[0], 2)
        assert [len(level) for level in tower.entries] == [2, 2, 2]
        assert tower.entries[0][0].norm() > 0.1


class TestStabilizerChains:
    @pytest.mark.parametrize("name,connection", SINGER_RUNS)
    def test_singer_reads_the_chains(self, name, connection, monkeypatch, capsys):
        """Each chain records the largest principal angle between each
        level's kernel and the next one's, scipy's within 1e-12 below 0.1
        rad, and each level's closure residual, the one subalgebra_residuals
        gives its basis; singer's residuals are their largest."""
        batches = []
        make_chains = homogeneity.stabilizer_chains

        def recorded(levels, rep):
            batches.append(make_chains(levels, rep))
            return batches[-1]

        monkeypatch.setattr(homogeneity, "stabilizer_chains", recorded)
        code = cli.main(["--scenario", "singer", "--fixture", name, "--points", "3",
                         "--param", f"connection={connection}"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        chains = [ch for batch in batches for ch in batch]
        assert chains
        rep = frame_structure_rep(instantiate(name, {}).chart.dim)
        for ch in chains:
            assert len(ch.nesting) == len(ch.bases) - 1
            for k, angle in enumerate(ch.nesting):
                assert_angle(angle, largest_angle(ch.bases[k + 1], ch.bases[k]))
            assert ch.subalgebra == tuple(subalgebra_residuals(rep.algebra, ch.bases).tolist())
        # the report prints 12 significant digits
        assert data["residuals"] == {
            "nesting_angle": float(f"{nan_max(a for ch in chains for a in ch.nesting):.12g}"),
            "subalgebra": float(f"{nan_max(s for ch in chains for s in ch.subalgebra):.12g}")}

    def test_nesting_of_random_stacks(self):
        """Each point's nesting angle is scipy's largest principal angle
        between a level's kernel and the next one's, for random kernels of
        equal and unequal dimensions, nearly nested ones and empty ones,
        several points and level pairs sharing each pair of shapes."""
        rng = np.random.default_rng(26)
        for dims in ((3, 3, 2), (2, 4, 4), (6, 5, 0), (0, 2, 2), (4, 1, 3)):
            n = max(dims) + 1
            levels = [[np.linalg.qr(rng.normal(size=(n, d)))[0] for _ in range(5)]
                      for d in dims]
            for k in range(len(dims) - 1):
                lo, hi = levels[k], levels[k + 1]
                small = min(dims[k], dims[k + 1])
                for p, scale in ((1, 1e-9), (2, 1e-4), (3, 0.0)):
                    # hi nearly inside lo, or lo nearly inside hi
                    a, b = (lo, hi) if dims[k] <= dims[k + 1] else (hi, lo)
                    basis = b[p].copy()
                    basis[:, :small] = a[p] + scale * rng.normal(size=a[p].shape)
                    b[p] = np.linalg.qr(basis)[0]
            nesting = _nesting(levels)
            for p, angles in enumerate(nesting):
                assert len(angles) == len(dims) - 1
                for k, angle in enumerate(angles):
                    assert_angle(angle, largest_angle(levels[k + 1][p], levels[k][p]))
                    if 0 in dims[k:k + 2]:
                        assert angle == 0.0

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
                assert largest_angle(chain.bases[k + 1], chain.bases[k]) < ANGLE_TOL

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
        sigma = (curvature_field(fx.gamma),)
        tower, chain = tower_and_chain(sigma, None, fx.gamma, fx.g, x, REP2)
        assert [len(level) for level in tower.entries] == [1, 1, 1]
        assert chain.dims == (1, 1, 1)
        assert chain.singer_k == 0
        assert chain.flags == ()

    @pytest.mark.parametrize("kmax", [3, 4])
    def test_deep_towers_keep_the_true_chain(self, kmax):
        """Jet towers carry no finite-difference noise: at depth 3 and 4 the
        chain stays the true constant one, with no flag."""
        fx = instantiate("round_sphere2", {})
        x = sample_interior(fx.chart, 1)[0]
        sigma = opozda_section_spec(fx.gamma)
        _, chain = tower_and_chain(sigma, None, fx.gamma, fx.g, x, REP2, kmax=kmax)
        assert chain.dims == (1,) * (kmax + 1)
        assert chain.singer_k == 0
        assert chain.flags == ()

    def test_each_entry_rows_built_once_per_batch(self, monkeypatch):
        """The chains of a batch build each tower entry's action rows once,
        for every point of the batch together, and stack no action matrix."""
        fx = instantiate("berger_sphere", {"lam": 2.0})
        points = sample_interior(fx.chart, 4, seed=5)
        levels = frame_levels(opozda_section_spec(fx.gamma), None, fx.gamma, fx.g, points, 3)
        rows = count_calls(monkeypatch, lie_core.action_rows)
        stacked = count_calls(monkeypatch, lie_core.stacked_action_matrix)
        chains = stabilizer_chains(levels, REP3)
        assert len(rows) == sum(len(level) for level in levels)
        assert stacked == []
        assert [len(chain.bases) for chain in chains] == [4] * len(points)

    def test_chain_constant_across_points(self):
        fx = instantiate("berger_sphere", {"lam": 2.0})
        sigma = opozda_section_spec(fx.gamma)
        results = set()
        for x in sample_interior(fx.chart, 6, seed=5):
            _, chain = tower_and_chain(sigma, None, fx.gamma, fx.g, x, REP3)
            results.add((chain.dims, chain.singer_k))
        assert len(results) == 1


TRIPLE_CASES = [
    ("hopf_monopole", {"charge": 1}, (2, 2, 2)),
    ("hopf_monopole", {"charge": 2}, (2, 2, 2)),
    ("trivial_bundle_flat", {}, (4, 4, 4)),
    ("trivial_bundle_flat", {"algebra": "su(2)+u(1)"}, (5, 5, 5)),
]


class TestTripleTowers:
    @pytest.mark.parametrize("name,params,dims", TRIPLE_CASES)
    def test_bundle_triple_chain(self, name, params, dims):
        """The tower of (R, F) under the Levi-Civita connection and ad(a) on
        lie axes, with so(2) + the structure algebra acting: so(2) + u(1)_F
        on the monopole, the whole algebra on the flat bundle."""
        fx = instantiate(name, params)
        sigma = (curvature_field(fx.gamma), curvature_form_field(fx.a0))
        rep = frame_structure_rep(2, fx.algebra)
        for x in sample_interior(fx.chart, 4):
            tower = build_tower(sigma, fx.a0, fx.gamma, fx.g, x, 2)
            assert [t.markers for t in tower.entries[1]] == [
                (DOWN, UP, DOWN, DOWN, DOWN), (DOWN, DOWN, DOWN, LIE)]
            chain = stabilizer_chain(tower, rep)
            assert chain.dims == dims
            assert chain.singer_k == 0
            assert chain.flags == ()


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
        t_rot = lc_tower(fx, x, kmax=2, frame=rotated(fr, q))
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
            back = group_action(theta, REP3, group_action(match.theta, REP3, [a]))[0]
            assert np.linalg.norm(back.data - a.data) <= 1e-9 * a.norm()

    def test_group_action_matches_frame_rotation(self):
        fx = instantiate("round_sphere2", {})
        x = sample_interior(fx.chart, 1, seed=7)[0]
        fr = ortho_frame(fx.g, x)
        theta = np.array([0.4])
        q = expm(REP2.vector.matrix(theta))
        t_plain = lc_tower(fx, x, kmax=1, frame=fr)
        t_rot = lc_tower(fx, x, kmax=1, frame=rotated(fr, q))
        # rotating the frame by q re-expresses every entry by the inverse action
        for a, b in zip(t_plain.up_to(1), t_rot.up_to(1)):
            assert np.linalg.norm(group_action(-theta, REP2, [a])[0].data - b.data) < 1e-12


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
    """The gauge-form oracle of the adapted connection."""

    def test_gauge_form_reproduces_covariant_derivative(self):
        """The frame gauge form must re-express the linear connection: the
        gauge derivative of a frame-expressed field equals the frame
        expression of its covariant derivative."""
        fx = instantiate("round_sphere2", {})
        gamma = levi_civita(fx.g)
        b0 = frame_gauge_form(gamma, fx.g, REP2.vector)
        riem = curvature_field(gamma)
        riem_hat = frame_expressed(lambda y: riem.at(y).data, riem.markers, fx.g)
        for x in sample_interior(fx.chart, 3, seed=10):
            fr = ortho_frame(fx.g, x)
            d = gauge_derivative(b0.at, REP2, riem_hat, riem.markers, fx.chart, x)
            lhs = np.tensordot(fr.frame, d, axes=(0, 0))
            rhs = to_frame(covariant_derivative(gamma, riem, x), fr).data
            assert np.abs(lhs - rhs).max() < 1e-7

    def test_non_metric_connection_rejected(self):
        fx = instantiate("round_sphere2", {})
        zero_gamma = ConnectionCoeffs(
            chart=fx.chart, evaluator=lambda X: X.lift(np.zeros((2, 2, 2)))
        )
        b = frame_gauge_form(zero_gamma, fx.g, REP2.vector)
        with pytest.raises(NotMetric):
            b.at(np.array([1.0, 1.0]))

    def test_with_adjoint_rep(self):
        rep = with_adjoint_rep(REP3)
        assert rep.lie is not None
        assert np.allclose(rep.lie.matrices, REP3.algebra.adjoint_rep().matrices)


def adapt_inputs(lam, x, depth=2):
    """Berger's Levi-Civita tower of the given depth at x with its chain."""
    fx = instantiate("berger_sphere", {"lam": lam})
    tower = lc_tower(fx, x, kmax=depth)
    return fx, tower, stabilizer_chain(tower, REP3)


def bumped(fx):
    """fx with its metric scaled by 1 + 0.2 sin(x_0) cos(x_1), and that
    metric's Levi-Civita connection: a metric that is not locally
    homogeneous."""
    def ev(X):
        return fx.g.evaluator(X) * (1.0 + 0.2 * jet.sin(X[0]) * jet.cos(X[1]))

    g = dataclasses.replace(fx.g, evaluator=ev)
    return dataclasses.replace(fx, name="bumped_" + fx.name, g=g, gamma=levi_civita(g),
                               frame_conn=None, gamma_canonical=None)


def adapt_pair(fx, x):
    """The Levi-Civita tower at x and its chain, at the depth adapt builds:
    grown to singer_k + 2 by towers_and_chains' default growth."""
    rep = frame_structure_rep(fx.chart.dim)
    return tower_and_chain(opozda_section_spec(fx.gamma), None, fx.gamma, fx.g, x, rep)


BERGER_X = sample_interior(instantiate("berger_sphere", {}).chart, 2, seed=11)
ADAPT_CASES = [("berger_sphere", {"lam": 2.0}), ("berger_sphere", {"lam": 0.5}),
               ("round_sphere3", {})]
# metrics that are not locally homogeneous: the warped surface stabilizes
# at k_S = 1, the bumped Berger sphere at k_S = 0 with no stabilizer
NON_HOMOGENEOUS = [warped_surface, lambda: bumped(instantiate("berger_sphere", {}))]
NON_HOMOGENEOUS_IDS = ["warped-surface", "bumped-berger"]


class TestAdaptedConnection:
    INNER = default_inner(REP3.algebra)

    def test_berger_contracts(self):
        """The adapted connection parallelizes both the shift and the
        derivative tower up to level singer_k + 1 on the squashed
        three-sphere."""
        for x in BERGER_X:
            fx, tower, chain = adapt_inputs(2.0, x)
            res = adapted_residuals(tower.levels(), [chain], REP3, self.INNER)
            assert res["nabla_beta"] < 1e-8
            assert res["nabla_tower"] < 1e-6

    @pytest.mark.parametrize("name,params", ADAPT_CASES,
                             ids=["berger", "berger-lam=0.5", "round_sphere3"])
    def test_matches_difference_tensor_oracle(self, name, params):
        """beta_k and its covariant derivative, constructed from the
        Levi-Civita tower alone, equal the ones read off the difference
        tensor of the fixture's canonical connection at eight points, to
        1e-10 of the largest of them (or of 1)."""
        fx = instantiate(name, params)
        sigma = opozda_section_spec(fx.gamma)
        points = sample_interior(fx.chart, 8, seed=11)
        _, levels, chains = next(towers_and_chains(sigma, None, fx.gamma, fx.g, points, REP3,
                                                   kmax=2))
        got = list(zip(*_adapted_shifts(levels, chains, REP3, self.INNER)[:2]))
        pairs = list(zip(point_towers(levels, fx.g, points), chains))
        want = list(difference_shifts(pairs, fx.gamma,
                                      difference_field(fx.gamma_canonical, fx.gamma), fx.g,
                                      REP3, self.INNER))
        assert len(got) == len(want) == len(points)
        for (beta, nabla_beta), (beta_o, nabla_beta_o) in zip(got, want):
            scale = max(np.abs(beta_o).max(), np.abs(nabla_beta_o).max(), 1.0)
            assert np.abs(beta - beta_o).max() <= 1e-10 * scale
            assert np.abs(nabla_beta - nabla_beta_o).max() <= 1e-10 * scale

    def test_difference_tensor_oracle_rejects_non_metric_connection(self):
        """The oracle's difference tensor must be antisymmetric in the
        frames: a connection that is not metric raises NotMetric."""
        fx, tower, chain = adapt_inputs(2.0, BERGER_X[0])
        zero = ConnectionCoeffs(chart=fx.chart, evaluator=lambda X: X.lift(np.zeros((3, 3, 3))))
        with pytest.raises(NotMetric):
            list(difference_shifts([(tower, chain)], fx.gamma, difference_field(zero, fx.gamma),
                                   fx.g, REP3, self.INNER))

    @pytest.mark.parametrize("lam", [2.0, 0.5])
    @pytest.mark.parametrize("x", BERGER_X)
    def test_shift_derivative_matches_stencil_fd(self, lam, x):
        """The covariant derivative of beta_k, with the projector's
        derivative read off the tower, matches the FD of beta_k constructed
        at every stencil point (made covariant by the Levi-Civita gauge
        form); the FD of the canonical connection's shift projected with
        the projector held fixed does not."""
        fx, tower, chain = adapt_inputs(lam, x)
        beta_k, nabla_beta_k, _ = (a[0] for a in _adapted_shifts(tower.levels(), [chain], REP3,
                                                                 self.INNER))
        adjoint = with_adjoint_rep(REP3)
        assert np.abs(beta_k - tower_shift(fx, 2)(x)).max() == 0.0
        fd = covariant_fd(fx, x, tower_shift(fx, 2), adjoint, (DOWN, LIE))
        assert np.abs(nabla_beta_k - fd).max() < 1e-7
        b0 = frame_gauge_form(fx.gamma, fx.g, REP3.vector)
        b_prime = frame_gauge_form(fx.gamma_canonical, fx.g, REP3.vector)
        nabla_beta = covariant_fd(
            fx, x, lambda y: ortho_frame(fx.g, y).frame.T @ (b_prime.at(y) - b0.at(y)),
            adjoint, (DOWN, LIE))
        h, m = chain.bases[chain.singer_k], self.INNER.matrix
        proj = h @ np.linalg.solve(h.T @ m @ h, h.T @ m)
        assert np.abs(nabla_beta_k - (nabla_beta - nabla_beta @ proj.T)).max() > 1e-2

    @pytest.mark.parametrize("x", sample_interior(warped_surface().chart, 2, seed=11))
    def test_shift_derivative_matches_stencil_fd_off_homogeneity(self, x):
        """On the warped surface (k_S = 1, a tower of depth 3) the
        least-squares equations for beta have a residual r of order one,
        and nabla beta_k still matches the FD of beta_k constructed at every
        stencil point: this takes the pseudo-inverse derivative's r term."""
        fx = warped_surface()
        tower, chain = adapt_pair(fx, x)
        assert (chain.singer_k, tower.kmax) == (1, 3)
        rep = frame_structure_rep(2)
        inner = default_inner(rep.algebra)
        nabla_beta_k = _adapted_shifts(tower.levels(), [chain], rep, inner)[1][0]
        assert adapted_residuals(tower.levels(), [chain], rep, inner)["nabla_tower"] > 1.0
        fd = covariant_fd(fx, x, tower_shift(fx, 3), with_adjoint_rep(rep), (DOWN, LIE))
        assert np.abs(fd).max() > 0.1
        assert np.abs(nabla_beta_k - fd).max() < 1e-7

    @pytest.mark.parametrize("make", NON_HOMOGENEOUS, ids=NON_HOMOGENEOUS_IDS)
    def test_matches_nested_fd_reference(self, make):
        """On a metric that is not locally homogeneous both residuals are
        large, and they equal the nested-FD computation with beta_k
        constructed at every stencil point."""
        fx = make()
        x = sample_interior(fx.chart, 1, seed=11)[0]
        rep = frame_structure_rep(fx.chart.dim)
        tower, chain = adapt_pair(fx, x)
        res = adapted_residuals(tower.levels(), [chain], rep, default_inner(rep.algebra))
        got = res["nabla_beta"], res["nabla_tower"]
        assert min(got) > 0.5
        ref = nested_fd_adapt_residuals(fx, x, chain.singer_k)
        np.testing.assert_allclose(got, ref, rtol=1e-7, atol=1e-8)

    def test_non_homogeneous_surface_fails(self, monkeypatch, capsys):
        """adapt on the warped surface constructs beta from its tower and
        fails on both residuals, with the chain it reads unflagged."""
        monkeypatch.setattr(cli, "instantiate", lambda name, params: warped_surface())
        code = cli.main(["--scenario", "adapt", "--fixture", "round_sphere2"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert (data["singer_k"], data["stabilizer_dims"], data["flags"]) == (1, [1, 0], [])
        assert all(data["residuals"][k] > 1e3 * data["tolerances"][k]
                   for k in ("nabla_beta", "nabla_tower"))

    @pytest.mark.parametrize("make", [*[lambda name=name, params=params: instantiate(name, params)
                                        for name, params in ADAPT_CASES], warped_surface],
                             ids=["berger", "berger-lam=0.5", "round_sphere3", "warped-surface"])
    def test_tower_residual_matches_entrywise_oracle(self, make):
        """nabla_tower from the stacked least-squares system equals the
        per-entry gauge residuals at eight points, to 1e-12 of the largest
        entry norm of levels 0..singer_k + 1 at each; on the warped surface
        the residual is of order one, so the term of beta_k acting on the
        leading axis of level singer_k + 1 counts."""
        fx = make()
        rep = frame_structure_rep(fx.chart.dim)
        inner = default_inner(rep.algebra)
        points = sample_interior(fx.chart, 8, seed=11)
        sigma = opozda_section_spec(fx.gamma)
        # every point grown to singer_k + 2 in one build
        (_, levels, chains), = towers_and_chains(sigma, None, fx.gamma, fx.g, points, rep)
        assert all(len(levels) == chain.singer_k + 3 for chain in chains)
        got = _adapted_shifts(levels, chains, rep, inner)[2].tolist()
        pairs = list(zip(point_towers(levels, fx.g, points), chains))
        want = oracles.entrywise_tower_residuals(pairs, rep, inner)
        for (tower, chain), res, ref in zip(pairs, got, want, strict=True):
            scale = max(t.norm() for t in tower.up_to(chain.singer_k + 1))
            assert abs(res - ref) <= 1e-12 * scale
        assert adapted_residuals(levels, chains, rep, inner)["nabla_tower"] == max(got)
        if fx.name == warped_surface().name:
            assert min(want) > 1.0

    def test_nan_in_the_top_level_fails(self, monkeypatch, capsys):
        """A NaN in one entry of level singer_k + 2, which only W reads,
        makes nabla_tower NaN, and the adapt verdict fails."""
        adapted = homogeneity.adapted_residuals
        seen = []

        def spoiled(levels, chains, rep, inner):
            top = chains[0].singer_k + 2
            markers, data = levels[top][0]
            data = data.copy()
            data.reshape(len(data), -1)[:, 5] = np.nan
            levels = levels[:top] + [[(markers, data)] + levels[top][1:]] + levels[top + 1:]
            seen.append(adapted(levels, chains, rep, inner))
            return seen[-1]

        monkeypatch.setattr(cli, "adapted_residuals", spoiled)
        code = cli.main(["--scenario", "adapt", "--fixture", "berger_sphere"])
        data = json.loads(capsys.readouterr().out)
        assert seen and all(np.isnan(res["nabla_tower"]) for res in seen)
        assert code == 1
        assert data["pass"] is False
        assert data["residuals"]["nabla_tower"] == "nan"

    def test_shallow_tower_rejected(self):
        fx, tower, chain = adapt_inputs(2.0, BERGER_X[0], depth=1)
        with pytest.raises(DepthMismatch):
            adapted_residuals(tower.levels(), [chain], REP3, self.INNER)

    def test_unstabilized_chain_raises(self):
        fx, tower, chain = adapt_inputs(2.0, BERGER_X[0])
        bad_chain = dataclasses.replace(chain, singer_k=None, flags=("truncated",))
        with pytest.raises(NumericalFailure):
            adapted_residuals(tower.levels(), [bad_chain], REP3, self.INNER)

    def test_open_stabilizer_raises(self):
        """A stabilizer that is not closed under the bracket has no
        invariant complement: the shifts raise NotReductive, NaN included."""
        fx, tower, chain = adapt_inputs(2.0, BERGER_X[0])
        assert chain.subalgebra[chain.singer_k] <= 1e-9
        for bad in (1.0, np.nan):
            closure = list(chain.subalgebra)
            closure[chain.singer_k] = bad
            open_chain = dataclasses.replace(chain, subalgebra=tuple(closure))
            with pytest.raises(NotReductive):
                _adapted_shifts(tower.levels(), [open_chain], REP3, self.INNER)


class TestAdaptSingerDepth:
    """adapt builds each sample point's tower once, in singer's pass: grown
    from KMAX_START until its chain has stabilized and the tower reaches
    depth k_S + 2, batch by batch, and no other tower; none at an FD
    stencil point."""

    ARGV = ["--scenario", "adapt", "--fixture", "berger_sphere"]

    @pytest.mark.parametrize("points", [1, 3])
    def test_one_tower_per_point(self, points, monkeypatch, capsys):
        grown = count_calls(monkeypatch, homogeneity.towers_and_chains)
        fd = count_calls(monkeypatch, chart_calculus.fd_array)
        curv = count_calls(monkeypatch, chart_calculus.curvature)
        depths = []

        def recorded(sigma, b0, gamma0, g, points, kmax, frames=None):
            depths.extend([kmax] * len(points))
            return frame_levels(sigma, b0, gamma0, g, points, kmax, frames)

        monkeypatch.setattr(homogeneity, "frame_levels", recorded)
        code = cli.main([*self.ARGV, "--points", str(points)])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        # one pass over the points
        assert len(grown) == 1
        # berger_sphere stabilizes at k_S = 0: every tower is final at
        # KMAX_START = k_S + 2, built once
        assert data["singer_k"] + 2 == KMAX_START
        assert depths == [KMAX_START] * points
        # the towers and beta's derivative all come from jets; the
        # curvature enters through the tower's section, never on its own
        assert fd == []
        assert curv == []

    @pytest.mark.parametrize("where", ["first-point", "other-points"])
    def test_other_singer_stage_fails_closed(self, where, monkeypatch, capsys):
        """A first point whose chain stabilizes one stage later than the
        others' is grown to its own k_S + 2, and the report fails with
        singer-varies, as singer's would; chains that do not stabilize
        within the cap end the run with exit 3 and a failing report."""
        seen = []

        def changed(levels, rep):
            """first-point: the first chain of each build (the first sample
            point's, in both builds) one stage later; other-points: every
            chain truncated but the first sample point's."""
            out = []
            for p, chain in enumerate(stabilizer_chains(levels, rep)):
                seen.append((len(levels) - 1, chain))
                if where == "first-point":
                    out.append(dataclasses.replace(chain, singer_k=chain.singer_k + 1)
                               if p == 0 else chain)
                else:
                    out.append(chain if len(seen) == 1 else dataclasses.replace(
                        chain, singer_k=None, flags=("truncated",)))
            return out

        monkeypatch.setattr(homogeneity, "stabilizer_chains", changed)
        code = cli.main([*self.ARGV, "--points", "2"])
        data = json.loads(capsys.readouterr().out)
        assert data["pass"] is False
        if where == "first-point":
            # the first point, at k_S = 1, is built again at depth 3
            assert [depth for depth, _ in seen] == [2, 2, 3]
            assert code == 1
            assert "singer-varies" in data["flags"]
            assert (data["singer_k"], data["stabilizer_dims"]) == (1, [1, 1])
            assert np.isfinite(list(data["residuals"].values())).all()
        else:
            # the second point grows to the cap, still truncated
            assert [depth for depth, _ in seen] == [2, 2, 3, 4]
            assert code == 3
            assert data["flags"][0] == "numerical-failure"
            assert "did not stabilize" in data["flags"][1]

    @pytest.mark.parametrize("points", [1, CHUNK, 2 * CHUNK + 3])
    def test_singer_and_adapt_build_alike(self, points, monkeypatch, capsys):
        """singer connection=metric and adapt on berger_sphere make the same
        frame_levels calls, (depth, batch size): one pass, the first point
        in the first batch, every tower at KMAX_START."""
        calls = {}

        def recorded(sigma, b0, gamma0, g, points, kmax, frames=None):
            calls[scenario].append((kmax, len(points)))
            return frame_levels(sigma, b0, gamma0, g, points, kmax, frames)

        monkeypatch.setattr(homogeneity, "frame_levels", recorded)
        for scenario, params in (("singer", ["--param", "connection=metric"]), ("adapt", [])):
            calls[scenario] = []
            assert cli.main(["--scenario", scenario, "--fixture", "berger_sphere", *params,
                             "--points", str(points)]) == 0
        capsys.readouterr()
        assert calls["singer"] == calls["adapt"] == [
            (KMAX_START, min(CHUNK, points - start)) for start in range(0, points, CHUNK)]

    def test_warped_surface_built_once_at_depth_three(self, monkeypatch, capsys):
        """The warped surface's chains stabilize at k_S = 1 at depth 2, so
        every point is built again at depth 3, k_S + 2, and yielded once,
        there; singer's report reads as it did at depth 2."""
        fx = warped_surface()
        points = sample_interior(fx.chart, 8)
        builds = list(towers_and_chains(opozda_section_spec(fx.gamma), None, fx.gamma, fx.g,
                                        points, REP2))
        assert sorted(i for todo, _, _ in builds for i in todo) == list(range(len(points)))
        assert [len(levels) - 1 for _, levels, _ in builds] == [3] * len(builds)
        assert {chain.singer_k for _, _, chains in builds for chain in chains} == {1}
        monkeypatch.setattr(cli, "instantiate", lambda name, params: fx)
        code = cli.main(["--scenario", "singer", "--fixture", "round_sphere2"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (data["stabilizer_dims"], data["singer_k"], data["flags"]) == ([1, 0], 1, [])

    def test_kmax_is_every_towers_depth(self, capsys):
        """--kmax K is the depth of every tower, as in singer: below k_S + 2
        = 2 on berger_sphere the run fails closed with exit 3, and at 2, 3
        and 4 the report is byte for byte the default run's."""
        assert cli.main([*self.ARGV, "--kmax", "1"]) == 3
        data = json.loads(capsys.readouterr().out)
        assert data["pass"] is False
        assert data["flags"] == ["numerical-failure", "error: tower has entries up to 1, need 2"]
        assert cli.main(self.ARGV) == 0
        default = capsys.readouterr().out
        for kmax in (2, 3, 4):
            assert cli.main([*self.ARGV, "--kmax", str(kmax)]) == 0
            assert capsys.readouterr().out == default

    def test_truncated_at_the_cap_fails_closed(self, monkeypatch, capsys):
        """A first point whose chain does not stabilize is grown to
        KMAX_CAP, and the run ends with exit 3 and a failing report."""
        depths = []

        def truncated(levels, rep):
            depths.append(len(levels) - 1)
            return [dataclasses.replace(chain, singer_k=None, flags=("truncated",))
                    for chain in stabilizer_chains(levels, rep)]

        monkeypatch.setattr(homogeneity, "stabilizer_chains", truncated)
        code = cli.main([*self.ARGV, "--points", "1"])
        data = json.loads(capsys.readouterr().out)
        assert depths == list(range(KMAX_START, KMAX_CAP + 1))
        assert code == 3
        assert data["pass"] is False
        assert data["flags"][0] == "numerical-failure"
        assert "did not stabilize" in data["flags"][1]

    def test_open_stabilizer_fails_closed(self, monkeypatch, capsys):
        """A stabilizer whose closure residual at the Singer stage is 1.0
        ends the run with exit 3 and a failing report."""

        def opened(levels, rep):
            return [dataclasses.replace(chain, subalgebra=(1.0,) * len(chain.subalgebra))
                    for chain in stabilizer_chains(levels, rep)]

        monkeypatch.setattr(homogeneity, "stabilizer_chains", opened)
        code = cli.main([*self.ARGV, "--points", "2"])
        data = json.loads(capsys.readouterr().out)
        assert code == 3
        assert data["pass"] is False
        assert data["flags"][0] == "numerical-failure"
        assert "not a subalgebra" in data["flags"][1]

    @pytest.mark.parametrize("points", [3, 2 * CHUNK + 3])
    @pytest.mark.parametrize("change,flags", [
        ({"flags": ("ambiguous",)}, ["ambiguous"]),
        ({"dims": (2, 1, 1)}, ["dims-vary"]),
        ({"flags": ("ambiguous",), "dims": (2, 1, 1)}, ["ambiguous", "dims-vary"]),
        ({"dims": (1, 1, 0)}, ["dims-vary"]),
    ], ids=["flagged", "other-dims", "both", "dims-above-k+1"])
    def test_flags_of_every_chain(self, change, flags, points, monkeypatch, capsys):
        """The flags are those of every chain, and dims-vary is raised when
        the chains' dims differ at any level, as singer raises it: a later
        point's chain (the second point's, or one in the last batch) fails
        the report as the first one's would."""
        later = points - 2
        chains = []

        def changed(levels, rep):
            out = []
            for chain in stabilizer_chains(levels, rep):
                chains.append(chain)
                out.append(dataclasses.replace(chain, **change)
                           if len(chains) == later + 1 else chain)
            return out

        monkeypatch.setattr(homogeneity, "stabilizer_chains", changed)
        code = cli.main([*self.ARGV, "--points", str(points)])
        data = json.loads(capsys.readouterr().out)
        # one chain per point: each point is built once
        assert len(chains) == points
        assert data["flags"] == flags
        assert data["pass"] is (not flags)
        assert code == (1 if flags else 0)
        assert (data["singer_k"], data["stabilizer_dims"]) == (0, [1])


DEEP_SINGER = [
    ("round_sphere2", []),
    ("hyperbolic_plane", []),
    ("round_sphere3", []),
    ("berger_sphere", ["--param", "connection=metric"]),
    ("berger_sphere", ["--param", "connection=canonical"]),
]


class TestDeepTowers:
    @pytest.mark.parametrize("kmax", [3, 4])
    @pytest.mark.parametrize("name,params", DEEP_SINGER)
    def test_singer_deep_chain_is_constant_and_unflagged(self, name, params, kmax, capsys):
        """At depth 3 and 4, on the 8 default points, every homogeneous
        fixture passes with the same chain everywhere and no flag."""
        code = cli.main(["--scenario", "singer", "--fixture", name, *params,
                         "--kmax", str(kmax)])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["flags"] == []
        assert data["singer_k"] == 0
        assert data["residuals"]["subalgebra"] < 1e-12

    @pytest.mark.parametrize("argv", [["--fixture", "round_sphere3"],
                                      ["--fixture", "berger_sphere", "--param", "lam=0.5"]])
    def test_adapt_passes(self, argv, capsys):
        assert cli.main(["--scenario", "adapt", *argv]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("name", ["round_sphere2", "hyperbolic_plane", "flat_torus"])
    def test_adapt_constructs_without_canonical_connection(self, name, capsys):
        """Fixtures that carry no canonical connection are adapted from
        their towers, with every residual at rounding."""
        code = cli.main(["--scenario", "adapt", "--fixture", name])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert max(data["residuals"].values()) <= 1e-10

    def test_adapt_tower_residual_over_seeds(self, capsys):
        """lam = 0.5 at one point for each of 30 seeds: nabla_tower stays
        100 times inside its tolerance."""
        worst = 0.0
        for seed in [*range(1, 21), *range(5001, 5011)]:
            code = cli.main(["--scenario", "adapt", "--fixture", "berger_sphere",
                             "--param", "lam=0.5", "--points", "1", "--seed", str(seed)])
            data = json.loads(capsys.readouterr().out)
            assert code == 0, seed
            worst = max(worst, data["residuals"]["nabla_tower"])
        assert worst <= 1e-7


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

        def ev(X):
            ginv = jet.array([[1.0, 0.0], [0.0, 1.0 / jet.sin(X[0]) ** 2]])
            shift = jet.sin(X[0]) * jet.einsum("m,kl,lj->kmj", [1.0, 0.0], ginv, eps)
            return gamma0.evaluator(X) + shift

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
            chart=fx.chart, evaluator=lambda X: X.lift(np.zeros((2, 2, 2)))
        )
        with pytest.raises(NotMetric):
            equivalence_check_c_c0(zero_gamma, fx.g, np.array([[1.0, 1.0]]))

    def test_non_finite_residual_fails(self, monkeypatch):
        """NaN residuals fail both systems, which then agree: the report
        must still fail, and say why."""
        fx = instantiate("berger_sphere", {})
        norms = oracles.max_nabla_norms

        def spoiled(*args):
            return {**norms(*args), "nabla_S": np.nan, "nabla_T": np.nan}

        monkeypatch.setattr(oracles, "max_nabla_norms", spoiled)
        report = equivalence_check_c_c0(fx.gamma_canonical, fx.g, BERGER_X)
        assert not report.passed
        assert report.flags == ("systems-agree", "system-one-fails", "system-two-fails",
                                "non-finite")


class TestParallelismCriteria:
    def test_monopole_is_locally_homogeneous(self):
        fx = instantiate("hopf_monopole", {})
        pts = sample_interior(fx.chart, 4, seed=15)
        report = check_lh_triple(fx.g, fx.a0, fx.gamma, fx.a0, pts,
                                 fixture="hopf_monopole")
        assert report.passed
        assert set(report.residuals) == {"nabla_R", "nabla_T", "nabla_F",
                                         "nabla_alpha"}
        assert max(report.residuals.values()) < 1e-5

    def test_monopole_is_locally_symmetric(self):
        fx = instantiate("hopf_monopole", {})
        pts = sample_interior(fx.chart, 4, seed=16)
        report = check_ls_triple(fx.g, fx.a0, pts, fixture="hopf_monopole")
        assert report.passed
        assert set(report.residuals) == {"nabla_Rg", "nabla_F0"}

    def test_bump_shift_breaks_homogeneity(self):
        fx = instantiate("hopf_monopole", {})
        shifted = fx.a0.shifted(fx.alpha_bump)
        pts = np.array([[0.5 * np.pi, np.pi], [1.2, 2.5]])
        report = check_lh_triple(fx.g, fx.a0, fx.gamma, shifted, pts)
        assert not report.passed
        assert report.residuals["nabla_alpha"] > 1e-2

    def test_parallel_shift_preserves_homogeneity(self):
        """Moving the reference form by a shift that is parallel for the live
        connection leaves the criterion satisfied."""
        fx = instantiate("hopf_monopole", {})
        moved = fx.a0.shifted(fx.alpha_parallel)
        pts = sample_interior(fx.chart, 3, seed=17)
        report = check_lh_triple(fx.g, moved, fx.gamma, fx.a0, pts)
        assert report.passed

    @pytest.mark.parametrize("perturb", ["none", "parallel", "bump"])
    def test_criterion_is_level_one_of_the_triple_tower(self, perturb):
        """check_lh_triple's four residuals are, bit for bit, the largest
        norms over the points of the level-1 entries of the tower of
        lh_fields' section under ad(a), b0 = a: the criterion is the first
        level of the triple's tower."""
        fx = instantiate("hopf_monopole", {})
        a0 = fx.a0 if perturb == "none" else fx.a0.shifted(getattr(fx, f"alpha_{perturb}"))
        pts = sample_interior(fx.chart, 8)
        report = check_lh_triple(fx.g, a0, fx.gamma, fx.a0, pts)
        fields = lh_fields(fx.gamma, fx.a0, a0)
        levels = frame_levels(tuple(fields.values()), fx.a0, fx.gamma, fx.g, pts, 1)
        assert report.residuals == {name: max(DenseTensor(m, d).norm() for d in data)
                                    for (m, data), name in zip(levels[1], fields)}
        assert (report.residuals["nabla_alpha"] > 1e-2) == (perturb == "bump")

    def test_flat_bundle_symmetric(self):
        fx = instantiate("trivial_bundle_flat", {})
        pts = sample_interior(fx.chart, 3, seed=18)
        report = check_ls_triple(fx.g, fx.a0, pts)
        assert report.passed
        assert max(report.residuals.values()) < 1e-10


def spoil_metric_d2g(fx, spoil):
    """The fixture with the metric jet's second-order coefficients spoiled."""
    g = dataclasses.replace(fx.g, evaluator=spoil(fx.g.evaluator, 2))
    return dataclasses.replace(fx, g=g, gamma=levi_civita(g))


def spoil_metric_dg(fx, spoil):
    """The fixture with the metric jet's first-order coefficients spoiled."""
    g = dataclasses.replace(fx.g, evaluator=spoil(fx.g.evaluator, 1))
    return dataclasses.replace(fx, g=g, gamma=levi_civita(g))


def spoil_coframe_d2(fx, spoil):
    """The fixture with the canonical coframe jet's second-order coefficients spoiled."""
    conn = dataclasses.replace(fx.frame_conn, coframe=spoil(fx.frame_conn.coframe, 2))
    return dataclasses.replace(fx, frame_conn=conn, gamma_canonical=frame_connection_field(conn))


# the inputs spoiled near a sample point, with the scenario that reads them
SPOILED_INPUTS = [
    (["--scenario", "singer", "--param", "connection=metric"], spoil_metric_d2g,
     "singer-metric-d2g"),
    (["--scenario", "singer"], spoil_coframe_d2, "singer-canonical-coframe-d2"),
    (["--scenario", "adapt"], spoil_metric_dg, "adapt-dg"),
    (["--scenario", "adapt"], spoil_metric_d2g, "adapt-d2g"),
]


class TestFailClosed:
    @pytest.mark.parametrize("values", [[0.0, np.nan], [np.nan, 0.0]])
    def test_nan_max_propagates_nan(self, values):
        assert np.isnan(nan_max(values))

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_nan_bundle_form_near_one_point_fails(self, bad):
        """A bundle form that is NaN near any one sample point must not pass."""
        fx = instantiate("hopf_monopole", {})
        pts = sample_interior(fx.chart, 3, seed=19)

        def ev(X):
            """NaN values and zero partials at the points of the batch near pts[bad]."""
            a = fx.a0.evaluator(X)
            near = np.linalg.norm(X.value.T - pts[bad], axis=1) < 0.05
            a.c[..., near, :] = 0.0
            a.c[..., near, 0] = np.nan
            return a

        a = LocalConnectionForm(chart=fx.chart, algebra=fx.algebra, evaluator=ev)
        report = check_lh_triple(fx.g, fx.a0, fx.gamma, a, pts)
        assert not report.passed
        assert np.isnan(report.residuals["nabla_F"])

    @pytest.mark.parametrize("bad", [0, 1])
    @pytest.mark.parametrize("argv,spoil,value", [
        pytest.param(argv, spoil, value, id=name + suffix)
        for argv, spoil, name in SPOILED_INPUTS
        for value, suffix in ((np.nan, ""), (np.inf, "-inf"), (-np.inf, "-neginf"))
    ])
    def test_nan_input_near_one_point_fails(self, argv, spoil, value, bad, monkeypatch,
                                            capsys):
        """A berger_sphere input that the scenario reads, whose jet
        coefficients of one order are NaN or +-inf at either of two sample
        points, ends the run with exit 3 and a failing report."""
        fx = instantiate("berger_sphere", {})
        pts = sample_interior(fx.chart, 2, seed=19)

        def at_order(ev, order):
            def spoiled(X):
                j = ev(X)
                # the points of the batch near pts[bad]
                near = np.linalg.norm(X.value.T - pts[bad], axis=1) < 0.05
                if X.order < order or not near.any():
                    return j
                c = j.c.copy()
                c[..., near[:, None] & (degrees(j.n, j.order) == order)] = value
                return jet.Jet(c, j.n, j.order)
            return spoiled

        monkeypatch.setattr(cli, "instantiate", lambda name, params: spoil(fx, at_order))
        code = cli.main([*argv, "--fixture", "berger_sphere", "--points", "2", "--seed", "19"])
        data = json.loads(capsys.readouterr().out)
        assert code == 3
        assert data["pass"] is False
        assert data["flags"][0] == "numerical-failure"
