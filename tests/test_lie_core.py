"""Tests for Lie algebra structures, representations, actions, and the
subspace machinery behind stabilizer chains."""

import numpy as np
import pytest

from ambrose.errors import (
    AxisMismatch,
    BadParameters,
    NotInvariant,
    NotSubalgebra,
    RepMismatch,
)
from ambrose.lie_core import (
    algebra_dim,
    AdInvariantInner,
    LieAlgebra,
    LinearRep,
    TensorRep,
    algebra_by_name,
    algebra_from_matrices,
    default_inner,
    direct_sum,
    frame_structure_rep,
    nullspace,
    orthonormalize,
    principal_angles,
    reductive_complement,
    skew_exp,
    so_generators,
    stacked_action_matrix,
    subalgebra_residual,
    tensor_action,
)
from ambrose.chart_calculus import sample_interior
from ambrose.fixtures import instantiate
from ambrose.homogeneity import build_tower, opozda_section_spec
from ambrose.tensor_core import DOWN, LIE, UP, DenseTensor
from oracles import stacked_action_loop


class TestLieAlgebra:
    def test_su2_structure(self):
        su2 = algebra_by_name("su(2)")
        assert su2.labels == ("E1", "E2", "E3")
        b = su2.bracket(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        assert np.allclose(b, [0, 0, 2.0])

    def test_so3_structure(self):
        so3 = algebra_by_name("so(3)")
        b = so3.bracket(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        assert np.allclose(b, [0, 0, 1.0])

    def test_abelian_algebras(self):
        for name in ("u(1)", "so(2)"):
            alg = algebra_by_name(name)
            assert alg.dim == 1
            assert np.allclose(alg.structure, 0.0)

    def test_unknown_name(self):
        with pytest.raises(BadParameters):
            algebra_by_name("e8")

    def test_jacobi_violation_rejected(self):
        # [a, b] = c and [b, c] = b leave an uncancelled [a, [b, c]] term
        c = np.zeros((3, 3, 3))
        c[2, 0, 1] = 1.0
        c[2, 1, 0] = -1.0
        c[1, 1, 2] = 1.0
        c[1, 2, 1] = -1.0
        with pytest.raises(BadParameters):
            LieAlgebra(("a", "b", "c"), c)

    def test_antisymmetry_enforced(self):
        c = np.zeros((2, 2, 2))
        c[0, 0, 1] = 1.0
        with pytest.raises(BadParameters):
            LieAlgebra(("a", "b"), c)

    def test_killing_form_su2(self):
        su2 = algebra_by_name("su(2)")
        assert np.allclose(su2.killing_form(), -8.0 * np.eye(3), atol=1e-12)

    def test_ad_is_bracket(self):
        su2 = algebra_by_name("su(2)")
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(su2.ad(u) @ v, su2.bracket(u, v))

    def test_direct_sum_blocks(self):
        s = algebra_by_name("so(3)+u(1)")
        assert s.dim == 4
        assert s.labels == ("a.L1", "a.L2", "a.L3", "b.iota")
        b = s.bracket(np.array([1.0, 0, 0, 5.0]), np.array([0, 1.0, 0, 7.0]))
        assert np.allclose(b, [0, 0, 1.0, 0])

    def test_algebra_from_matrices_recovers_so3(self):
        alg = algebra_from_matrices(("L1", "L2", "L3"), so_generators(3))
        so3 = algebra_by_name("so(3)")
        assert np.allclose(alg.structure, so3.structure, atol=1e-12)


class TestRepsAndInner:
    def test_linear_rep_homomorphism_enforced(self):
        su2 = algebra_by_name("su(2)")
        with pytest.raises(RepMismatch):
            LinearRep(su2, np.stack([np.eye(2)] * 3))

    def test_adjoint_rep_of_su2(self):
        su2 = algebra_by_name("su(2)")
        rep = su2.adjoint_rep()
        assert rep.matrices.shape[1] == 3
        assert np.allclose(rep.matrix(np.array([1.0, 0, 0])), su2.ad([1.0, 0, 0]))

    def test_default_inner_su2(self):
        su2 = algebra_by_name("su(2)")
        inner = default_inner(su2)
        assert np.allclose(inner.matrix, 8.0 * np.eye(3), atol=1e-9)

    def test_default_inner_patches_center(self):
        alg = algebra_by_name("su(2)+u(1)")
        inner = default_inner(alg)
        assert inner.matrix[3, 3] == pytest.approx(1.0)
        assert np.allclose(inner.matrix[:3, :3], 8.0 * np.eye(3), atol=1e-9)

    def test_inner_positivity_enforced(self):
        su2 = algebra_by_name("su(2)")
        with pytest.raises(BadParameters):
            AdInvariantInner(su2, np.diag([1.0, 1.0, -1.0]))

    def test_inner_invariance_enforced(self):
        su2 = algebra_by_name("su(2)")
        with pytest.raises(NotInvariant):
            AdInvariantInner(su2, np.diag([1.0, 2.0, 3.0]))

    def test_tensor_rep_shares_algebra(self):
        su2 = algebra_by_name("su(2)")
        so3 = algebra_by_name("so(3)")
        vec = su2.adjoint_rep()
        with pytest.raises(RepMismatch):
            TensorRep(so3, vec, None)


class TestTensorAction:
    def so2_rep(self):
        so2 = algebra_by_name("so(2)")
        return TensorRep(so2, LinearRep(so2, so_generators(2)), None)

    def test_rotation_generator_on_covariant_square(self):
        """J acting on e^1 (x) e^1 yields +(e^2 (x) e^1 + e^1 (x) e^2)."""
        rep = self.so2_rep()
        eta = DenseTensor((DOWN, DOWN), np.array([[1.0, 0.0], [0.0, 0.0]]))
        out = tensor_action(np.array([1.0]), eta, rep)
        assert np.allclose(out.data, [[0.0, 1.0], [1.0, 0.0]])

    def test_vector_axis_gets_plus_action(self):
        rep = self.so2_rep()
        v = DenseTensor((UP,), np.array([1.0, 0.0]))
        out = tensor_action(np.array([1.0]), v, rep)
        assert np.allclose(out.data, [0.0, 1.0])

    def test_metric_is_annihilated(self):
        """so(n) kills the identity metric whatever the coefficients."""
        for n in (2, 3):
            rep = frame_structure_rep(n)
            g = DenseTensor((DOWN, DOWN), np.eye(n))
            rng = np.random.default_rng(n)
            for _ in range(5):
                b = rng.normal(size=rep.algebra.dim)
                assert tensor_action(b, g, rep).norm() < 1e-12

    def test_lie_axis_requires_lie_rep(self):
        rep = self.so2_rep()
        t = DenseTensor((LIE,), np.zeros(1))
        with pytest.raises(RepMismatch):
            tensor_action(np.array([1.0]), t, rep)

    def test_leibniz_over_axes(self):
        """Action on a two-axis tensor is the sum of single-axis actions."""
        rep = frame_structure_rep(3)
        rng = np.random.default_rng(5)
        b = rng.normal(size=3)
        u = rng.normal(size=3)
        w = rng.normal(size=3)
        t = DenseTensor((UP, DOWN), np.outer(u, w))
        out = tensor_action(b, t, rep)
        m = rep.vector.matrix(b)
        expect = np.outer(m @ u, w) + np.outer(u, -m.T @ w)
        assert np.allclose(out.data, expect, atol=1e-12)


class TestSubspaceMachinery:
    def test_nullspace_rank(self):
        mat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        k = nullspace(mat)
        assert k.shape == (3, 1)
        assert np.abs(k[:2]).max() < 1e-12

    def test_nullspace_scale_floor(self):
        """A pure-noise matrix counts as zero when the data scale dominates."""
        rng = np.random.default_rng(1)
        noise = 1e-12 * rng.normal(size=(6, 3))
        assert nullspace(noise, scale=1.0).shape == (3, 3)
        assert nullspace(noise, scale=0.0).shape[1] < 3

    def test_nullspace_of_zero_matrix(self):
        assert nullspace(np.zeros((4, 3))).shape == (3, 3)

    def test_nonfinite_rejected(self):
        with pytest.raises(BadParameters):
            nullspace(np.array([[np.nan]]))

    def test_principal_angles(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert principal_angles(e1, e2).max() == pytest.approx(np.pi / 2)
        assert principal_angles(e1, e1).max() < 1e-8
        assert principal_angles(e1, np.zeros((2, 0))).size == 0

    @pytest.mark.parametrize("shapes", [(6, 2, 3), (5, 3, 3), (8, 4, 1), (4, 3, 2)])
    def test_principal_angles_match_scipy(self, shapes):
        """Random pairs, and nearly nested pairs whose angles are all tiny,
        against scipy.linalg.subspace_angles."""
        subspace_angles = pytest.importorskip("scipy.linalg").subspace_angles
        n, p, q = shapes
        rng = np.random.default_rng(n * 100 + p * 10 + q)
        for _ in range(20):
            a = rng.normal(size=(n, p))
            b = rng.normal(size=(n, q))
            nested = a[:, :q] @ rng.normal(size=(min(p, q), q)) if q <= p else \
                np.hstack([a, rng.normal(size=(n, q - p))])
            nested = nested + 1e-9 * rng.normal(size=nested.shape)
            for x, y in ((a, b), (b, a), (nested, a), (a, nested)):
                ours, ref = principal_angles(x, y), subspace_angles(x, y)
                assert ours.shape == ref.shape
                assert np.abs(ours - ref).max() <= 1e-15

    def test_orthonormalize_drops_dependent_columns(self):
        basis = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
        q = orthonormalize(basis)
        assert q.shape == (3, 1)
        assert np.allclose(q.T @ q, np.eye(1), atol=1e-12)

    def test_subalgebra_residual(self):
        su2 = algebra_by_name("su(2)")
        closed = np.array([[0.0], [0.0], [1.0]])
        open_pair = np.eye(3)[:, :2]
        assert subalgebra_residual(su2, closed) < 1e-14
        assert subalgebra_residual(su2, open_pair) == pytest.approx(2.0)

    def test_stabilizer_of_invariant_tensor_is_full(self):
        rep = frame_structure_rep(3)
        g = DenseTensor((DOWN, DOWN), np.eye(3))
        mat = stacked_action_matrix([g], rep)
        assert nullspace(mat).shape[1] == rep.algebra.dim

    def test_stabilizer_of_generic_tensor(self):
        rep = frame_structure_rep(3)
        t = DenseTensor((DOWN, DOWN), np.diag([1.0, 2.0, 3.0]))
        mat = stacked_action_matrix([t], rep)
        # distinct eigenvalues leave no continuous rotation symmetry
        assert nullspace(mat).shape[1] == 0
        axial = DenseTensor((DOWN, DOWN), np.diag([1.0, 1.0, 3.0]))
        assert nullspace(stacked_action_matrix([axial], rep)).shape[1] == 1


STACKED_CASES = [
    # the orbit-match workload's towers and singer towers with each connection
    ("berger_sphere", "metric", 2, 3),
    ("berger_sphere", "metric", 2, 8),
    ("round_sphere2", "metric", 3, 42),
    ("berger_sphere", "canonical", 3, 42),
]


def test_algebra_dim_from_names():
    assert algebra_dim("su(2) + u(1)") == 4
    assert algebra_dim("so(2)+so(3)+u(1)") == 5
    with pytest.raises(BadParameters):
        algebra_dim("su(3)")


class TestStackedActionMatrix:
    @pytest.mark.parametrize("name,conn,kmax,seed", STACKED_CASES)
    def test_matches_per_generator_loop(self, name, conn, kmax, seed):
        """One contraction per tensor over all generators gives the matrix
        that tensor_action, one generator at a time, gives."""
        fx = instantiate(name, {})
        gamma = fx.gamma if conn == "metric" else fx.gamma_canonical
        rep = frame_structure_rep(fx.chart.dim)
        sigma = opozda_section_spec(gamma)
        for x in sample_interior(fx.chart, 2, seed):
            tensors = build_tower(sigma, None, gamma, fx.g, x, kmax).up_to(kmax)
            ref = stacked_action_loop(tensors, rep)
            got = stacked_action_matrix(tensors, rep)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())

    def test_lie_axes_use_the_lie_rep(self):
        fx = instantiate("hopf_monopole", {})
        rep = frame_structure_rep(2, fx.algebra)
        rng = np.random.default_rng(2)
        tensors = [DenseTensor((DOWN, DOWN, LIE), rng.normal(size=(2, 2, 3))),
                   DenseTensor((LIE,), rng.normal(size=3))]
        got = stacked_action_matrix(tensors, rep)
        assert np.abs(got - stacked_action_loop(tensors, rep)).max() <= 1e-14
        assert stacked_action_matrix([], rep).shape == (0, 4)


class TestReductiveComplement:
    def test_complement_in_su2(self):
        su2 = algebra_by_name("su(2)")
        inner = default_inner(su2)
        h = np.array([[0.0], [0.0], [1.0]])
        k = reductive_complement(h, inner)
        assert k.shape == (3, 2)
        assert np.abs(k[2]).max() < 1e-12

    def test_trivial_subalgebra_gives_everything(self):
        su2 = algebra_by_name("su(2)")
        k = reductive_complement(np.zeros((3, 0)), default_inner(su2))
        assert k.shape == (3, 3)

    def test_non_subalgebra_rejected(self):
        su2 = algebra_by_name("su(2)")
        with pytest.raises(NotSubalgebra):
            reductive_complement(np.eye(3)[:, :2], default_inner(su2))


class TestGroupAndFrameRep:
    def test_group_exp_rotation(self):
        so2 = algebra_by_name("so(2)")
        rep = LinearRep(so2, so_generators(2))
        g = skew_exp(rep.matrix(np.array([np.pi / 2])))
        assert np.allclose(g, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)

    @staticmethod
    def generators():
        su2 = algebra_by_name("su(2)")
        frame = frame_structure_rep(2, su2)
        return [*so_generators(2), *so_generators(3), *su2.adjoint_rep().matrices,
                *frame.vector.matrices, *frame.lie.matrices]

    def test_skew_exp_matches_scipy_expm(self):
        """The generators of so(2), so(3), su(2) and frame_structure_rep(2,
        su(2))."""
        expm = pytest.importorskip("scipy.linalg").expm
        for x in self.generators():
            assert np.abs(skew_exp(x) - expm(x)).max() <= 1e-14
            # the dual action: exp(-x)^T is exp(x) for skew x
            assert np.abs(skew_exp(-x).T - skew_exp(x)).max() <= 1e-15

    def test_skew_exp_of_large_combinations(self):
        """Combinations with angles up to pi, as orbit_match draws them: the
        exponential stays orthogonal to 1e-14, where expm's Pade error grows
        to about 3e-13, and agrees with expm to within that error."""
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(7)
        for gens in (so_generators(2), so_generators(3),
                     algebra_by_name("su(2)").adjoint_rep().matrices):
            for _ in range(50):
                x = np.einsum("i,iab->ab", rng.uniform(-np.pi, np.pi, len(gens)), gens)
                q = skew_exp(x)
                assert np.abs(q.T @ q - np.eye(len(q))).max() <= 1e-14
                assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-14)
                assert np.abs(q - expm(x)).max() <= 1e-12

    def test_skew_exp_rejects_non_skew(self):
        with pytest.raises(BadParameters):
            skew_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(BadParameters):
            skew_exp(np.array([[0.0, np.nan], [-np.nan, 0.0]]))

    def test_so_generators_antisymmetric(self):
        for n in (2, 3, 4):
            gens = so_generators(n)
            assert gens.shape[0] == n * (n - 1) // 2
            assert np.allclose(gens, -gens.swapaxes(1, 2))

    def test_so_generators_need_two_dimensions(self):
        for n in (0, 1):
            with pytest.raises(BadParameters):
                so_generators(n)

    def test_frame_structure_rep_plain(self):
        rep = frame_structure_rep(3)
        assert rep.algebra.labels == ("so.1", "so.2", "so.3")
        assert rep.lie is None

    def test_frame_structure_rep_with_k(self):
        su2 = algebra_by_name("su(2)")
        rep = frame_structure_rep(2, su2)
        assert rep.algebra.dim == 4
        # so block moves vectors, k block is inert on vectors
        assert np.allclose(rep.vector.matrices[1:], 0.0)
        # k block acts on lie axes by ad
        assert np.allclose(rep.lie.matrices[1:], su2.adjoint_rep().matrices)
        assert np.allclose(rep.lie.matrices[0], 0.0)
