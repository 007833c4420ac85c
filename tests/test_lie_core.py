"""Tests for Lie algebra structures, representations, actions, and the
subspace machinery behind stabilizer chains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambrose.errors import (
    AxisMismatch,
    BadParameters,
    NotInvariant,
    RepMismatch,
)
from ambrose.lie_core import (
    action_rows,
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
    kernel_spectra,
    nullspace,
    skew_exp,
    so_generators,
    stacked_action_matrix,
    subalgebra_residuals,
    tensor_action,
)
from ambrose.chart_calculus import sample_interior
from ambrose.fixtures import instantiate
from ambrose.homogeneity import build_tower, opozda_section_spec, stabilizer_chain
from ambrose.tensor_core import DOWN, LIE, UP, DenseTensor
from oracles import stacked_action_loop, structure_constants_loop, subalgebra_residual_pairs
from test_homogeneity import SINGER_RUNS


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

    @pytest.mark.parametrize("name", ["so(2)", "so(3)", "u(1)", "su(2)", "su(2)+u(1)",
                                      "so(3)+u(1)", "so(2)+so(3)+u(1)"])
    def test_structure_constants_from_one_solve(self, name):
        """One Gram solve over all brackets gives the structure constants of
        a faithful block-diagonal realization of each catalog algebra bit
        for bit as one solve per bracket does."""
        blocks = [so_generators(2) if p in ("so(2)", "u(1)") else
                  so_generators(3) if p == "so(3)" else
                  algebra_by_name(p).adjoint_rep().matrices for p in name.split("+")]
        size = sum(b.shape[1] for b in blocks)
        mats, row, col = [], 0, 0
        for b in blocks:
            for gen in b:
                mat = np.zeros((size, size))
                mat[row:row + len(gen), row:row + len(gen)] = gen
                mats.append(mat)
            row += b.shape[1]
        mats = np.stack(mats)
        alg = algebra_from_matrices(tuple(map(str, range(len(mats)))), mats)
        assert np.array_equal(alg.structure, structure_constants_loop(mats))
        assert np.allclose(alg.structure, algebra_by_name(name).structure, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_so_n_structure_constants_from_one_solve(self, n):
        """so(n)'s constants are exactly -1, 0 and 1: its generators have
        the Gram matrix 2 I, so the Gram solve leaves no rounding."""
        mats = so_generators(n)
        alg = algebra_from_matrices(tuple(map(str, range(len(mats)))), mats)
        assert np.array_equal(alg.structure, structure_constants_loop(mats))
        assert set(np.unique(alg.structure).tolist()) <= {-1.0, 0.0, 1.0}
        assert set(np.unique(frame_structure_rep(n).algebra.structure).tolist()) <= {
            -1.0, 0.0, 1.0}


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

    def test_nullspaces_of_a_stack(self):
        """Each matrix of a stack, with its own scale floor, has the kernel,
        spectrum and cutoff that it has alone, and the kernel that nullspace
        gives it; a zero matrix among them has zero singular values, a zero
        cutoff and the whole space as kernel."""
        rng = np.random.default_rng(3)
        mats = rng.normal(size=(4, 2, 3))
        mats[1] = 0.0
        mats[3] *= 1e-12
        scales = [0.0, 1.0, 0.5, 1.0]
        bases, sing, cutoff = kernel_spectra(mats, scales)
        for p, (mat, scale) in enumerate(zip(mats, scales)):
            alone = kernel_spectra(mat[None], [scale])
            for a, b in zip((bases[p], sing[p], cutoff[p]),
                            (alone[0][0], alone[1][0], alone[2][0]), strict=True):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(bases[p], nullspace(mat, scale=scale))
        np.testing.assert_array_equal(bases[1], np.eye(3))
        assert not sing[1].any() and cutoff[1] == 0.0
        assert bases[3].shape == (3, 3)
        with pytest.raises(BadParameters):
            kernel_spectra(mats, [0.0, 1.0, np.nan, 1.0])

    def test_nullspace_of_zero_matrix(self):
        assert nullspace(np.zeros((4, 3))).shape == (3, 3)

    def test_nonfinite_rejected(self):
        with pytest.raises(BadParameters):
            nullspace(np.array([[np.nan]]))

    @pytest.mark.parametrize("name", ["so(3)", "so(4)", "su(2)+u(1)"])
    def test_stacked_subalgebra_residuals(self, name):
        """Random bases of 0-3 columns, some with a dependent column, in
        mixed order: the stacked residuals are the per-basis ones, in the
        same order."""
        algebra = frame_structure_rep(4).algebra if name == "so(4)" else algebra_by_name(name)
        rng = np.random.default_rng(algebra.dim)
        bases = []
        for k in rng.integers(0, 4, size=24):
            basis = rng.normal(size=(algebra.dim, k))
            if k >= 2 and rng.random() < 0.3:
                basis[:, -1] = 2.0 * basis[:, 0]
            bases.append(basis)
        got = subalgebra_residuals(algebra, bases)
        want = [subalgebra_residual_pairs(algebra, b) for b in bases]
        assert np.abs(got - want).max() <= 1e-15 * max(1.0, max(want))

    def test_nonfinite_basis_raises(self):
        """A NaN column is not dropped as a dependent one: the residuals of
        a stack with a non-finite basis raise."""
        su2 = algebra_by_name("su(2)")
        spoiled = np.array([[1.0, 0.0], [0.0, np.nan], [0.0, 1.0]])
        with pytest.raises(BadParameters):
            subalgebra_residuals(su2, [np.eye(3)[:, :2], spoiled])

    def test_subalgebra_residual(self):
        su2 = algebra_by_name("su(2)")
        closed = np.array([[0.0], [0.0], [1.0]])
        open_pair = np.eye(3)[:, :2]
        closed_res, open_res = subalgebra_residuals(su2, [closed, open_pair])
        assert closed_res < 1e-14
        assert open_res == pytest.approx(2.0)

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

    @pytest.mark.parametrize("lead", [1, 2, 3])
    def test_rows_of_each_prefix(self, lead):
        """The rows whose leading indices are fixed, prefix by prefix in C
        order, are the rows of the whole tensor at each point of a batch."""
        fx = instantiate("hopf_monopole", {})
        rep = frame_structure_rep(2, fx.algebra)
        markers = (DOWN, UP, DOWN, LIE)
        data = np.random.default_rng(4).normal(size=(3, 2, 2, 2, 3))
        whole = action_rows(markers, data, rep)
        assert whole.shape == (3, 24, rep.algebra.dim)
        for p in range(3):
            np.testing.assert_array_equal(
                whole[p], stacked_action_matrix([DenseTensor(markers, data[p])], rep))
        parts = [action_rows(markers, data, rep, prefix)
                 for prefix in np.ndindex(*data.shape[1:lead + 1])]
        assert np.abs(np.concatenate(parts, axis=1) - whole).max() <= 1e-15 * np.abs(whole).max()

    @pytest.mark.parametrize("markers", [(UP,), (DOWN,), (LIE,), (UP, DOWN), (DOWN, LIE, UP),
                                         (LIE, DOWN, DOWN, UP)])
    @pytest.mark.parametrize("lead", [0, 1, 2])
    def test_rows_match_the_per_generator_loop(self, markers, lead):
        """action_rows at each point of a batch, whole or prefix by prefix in
        C order, is the matrix that tensor_action gives one generator at a
        time, on UP, DOWN and LIE axes."""
        fx = instantiate("hopf_monopole", {})
        rep = frame_structure_rep(2, fx.algebra)
        dims = tuple(fx.algebra.dim if m == LIE else 2 for m in markers)
        data = np.random.default_rng(len(markers) + 10 * lead).normal(size=(3,) + dims)
        prefixes = list(np.ndindex(*dims[:lead]))
        parts = [action_rows(markers, data, rep, prefix) for prefix in prefixes]
        for p in range(len(data)):
            want = stacked_action_loop([DenseTensor(markers, data[p])], rep)
            got = np.concatenate([part[p] for part in parts])
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_lie_axes_use_the_lie_rep(self):
        fx = instantiate("hopf_monopole", {})
        rep = frame_structure_rep(2, fx.algebra)
        rng = np.random.default_rng(2)
        tensors = [DenseTensor((DOWN, DOWN, LIE), rng.normal(size=(2, 2, 3))),
                   DenseTensor((LIE,), rng.normal(size=3))]
        got = stacked_action_matrix(tensors, rep)
        assert np.abs(got - stacked_action_loop(tensors, rep)).max() <= 1e-14
        assert stacked_action_matrix([], rep).shape == (0, 4)


# closed subalgebras by basis index: the line of E3 (L3), the u(1) summand,
# a torus and su(2) itself in su(2)+u(1), so(3) on the first three
# coordinates and the torus of the planes (0, 1) and (2, 3) in so(4)
SUBALGEBRAS = {
    "su(2)": [[2]],
    "so(3)": [[2]],
    "su(2)+u(1)": [[3], [2, 3], [0, 1, 2]],
    "so(4)": [[0, 1, 3], [0, 5]],
}


def complement_leak(inner: AdInvariantInner, h: np.ndarray) -> float:
    """Largest |<[X, Y], Z>| over orthonormal X and Z spanning h and Y
    spanning h's inner-orthogonal complement: 0 exactly where [h, k] stays
    in the complement k."""
    null_space = pytest.importorskip("scipy.linalg").null_space
    q = np.linalg.qr(h)[0]
    k = null_space(q.T @ inner.matrix)
    brackets = np.einsum("cab,ai,bj->cij", inner.algebra.structure, q, k)
    return float(np.abs(np.einsum("ai,ab,bjk->ijk", q, inner.matrix, brackets)).max(initial=0.0))


class TestInvariantComplement:
    """With an ad-invariant inner product the orthogonal complement of a
    subalgebra h is ad(h)-invariant: <[X, Y], Z> = -<Y, [X, Z]> = 0 for X, Z
    in h and Y orthogonal to h. adapt checks that its stabilizer is closed
    and builds no complement."""

    @pytest.mark.parametrize("name", sorted(SUBALGEBRAS))
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_random_subalgebras(self, name, seed):
        """Random conjugates Ad(exp X) h of the closed subalgebras above, and
        a random line, under default_inner."""
        expm = pytest.importorskip("scipy.linalg").expm
        algebra = frame_structure_rep(4).algebra if name == "so(4)" else algebra_by_name(name)
        rng = np.random.default_rng(seed)
        move = expm(algebra.ad(rng.normal(size=algebra.dim)))
        bases = [move @ np.eye(algebra.dim)[:, idx] for idx in SUBALGEBRAS[name]]
        bases.append(rng.normal(size=(algebra.dim, 1)))
        assert subalgebra_residuals(algebra, bases).max() <= 1e-12
        for h in bases:
            assert complement_leak(default_inner(algebra), h) <= 1e-12

    @pytest.mark.parametrize("name,connection", SINGER_RUNS)
    def test_chain_bases(self, name, connection):
        """Every nonzero level of the chains at three points of each fixture
        and connection singer takes."""
        fx = instantiate(name, {})
        gamma = fx.gamma if connection == "metric" else fx.gamma_canonical
        rep = frame_structure_rep(fx.chart.dim)
        sigma = opozda_section_spec(gamma)
        for x in sample_interior(fx.chart, 3, seed=5):
            chain = stabilizer_chain(build_tower(sigma, None, gamma, fx.g, x, 2), rep)
            for h in chain.bases:
                if h.shape[1]:
                    assert complement_leak(default_inner(rep.algebra), h) <= 1e-12


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
