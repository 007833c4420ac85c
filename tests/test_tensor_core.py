"""Tests for dense tensor values, axis markers, contraction, and frames."""

import numpy as np
import pytest

from ambrose import jet
from ambrose.errors import AxisMismatch, DegenerateMetric, SingularFrame
from ambrose.tensor_core import (
    DOWN,
    LIE,
    UP,
    DenseTensor,
    OrthoFrame,
    _leibniz,
    axis_action,
    axis_stacks,
    cholesky_frames,
    to_frame,
    to_frames,
)
from oracles import (
    apply_axis,
    axis_action_per_axis,
    frame_from_metric,
    rotated,
    to_frames_per_axis,
)


def random_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


class TestDenseTensor:
    def test_marker_count_must_match_array_rank(self):
        with pytest.raises(AxisMismatch):
            DenseTensor((UP,), np.zeros((2, 2)))

    def test_unknown_marker_rejected(self):
        with pytest.raises(AxisMismatch):
            DenseTensor(("sideways",), np.zeros(2))

    def test_components_are_row_major(self):
        t = DenseTensor((UP, DOWN), np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(t.components, [1.0, 2.0, 3.0, 4.0])

    def test_norm(self):
        a = DenseTensor((UP,), np.array([1.0, 2.0]))
        assert a.norm() == pytest.approx(np.sqrt(5.0))


class TestContract:
    def test_apply_axis_matches_einsum(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(3, 3))
        data = rng.normal(size=(3, 3, 3))
        assert np.allclose(apply_axis(m, data, 1), np.einsum("ij,ajb->aib", m, data))


class TestOrthoFrame:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cholesky_frame_orthonormalizes_the_metric(self, n):
        rng = np.random.default_rng(n)
        g = random_spd(rng, n)
        fr = frame_from_metric(g, np.zeros(n))
        assert np.allclose(fr.frame.T @ g @ fr.frame, np.eye(n), atol=1e-12)
        assert np.allclose(fr.coframe @ fr.frame, np.eye(n), atol=1e-12)

    def test_degenerate_metric_rejected(self):
        with pytest.raises(DegenerateMetric):
            frame_from_metric(np.diag([1.0, -1.0]), np.zeros(2))

    def test_nonfinite_frame_rejected(self):
        with pytest.raises(SingularFrame):
            OrthoFrame(np.zeros(2), np.array([[np.inf, 0], [0, 1.0]]), np.eye(2))

    def test_rotated_frame_still_orthonormal(self):
        rng = np.random.default_rng(7)
        g = random_spd(rng, 3)
        fr = frame_from_metric(g, np.zeros(3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        fr2 = rotated(fr, q)
        assert np.allclose(fr2.frame.T @ g @ fr2.frame, np.eye(3), atol=1e-12)
        assert np.allclose(fr2.coframe @ fr2.frame, np.eye(3), atol=1e-12)


def random_action(seed: int, matrices: str):
    """(markers, data, mat, lie) of a random axis action over rank 0-5
    tensors with mixed UP, DOWN and LIE axes, 1-5 points and 2 matrices of
    each kind. For "jet" and "constant", a jet tensor in n = 1-4 variables
    of order 0-3, and jet or constant matrices; for "shared" and
    "per-point", a batch of arrays, point first, and one stack of matrices
    for every point or a stack per point."""
    rng = np.random.default_rng(seed)
    n, order, rank, points = map(int, rng.integers([1, 0, 0, 1], [5, 4, 6, 6]))
    markers = tuple((UP, DOWN, LIE)[k] for k in rng.integers(0, 3, size=rank))
    dim, lie_dim = 3 - rank // 4, 2
    dims = tuple(lie_dim if m == LIE else dim for m in markers)

    def jet_of(shape, k):
        k = int(k)
        return jet.Jet(rng.normal(size=shape + (points, jet.size(n, k))), n, k)

    if matrices in ("shared", "per-point"):
        lead = (points,) if matrices == "per-point" else ()
        return (markers, rng.normal(size=(points,) + dims), rng.normal(size=lead + (2, dim, dim)),
                rng.normal(size=lead + (2, lie_dim, lie_dim)))
    data = jet_of(dims, order)
    if matrices == "jet":
        # the matrices at their own order: the product takes the lower one
        mat = jet_of((2, dim, dim), rng.integers(0, 4))
        lie = jet_of((2, lie_dim, lie_dim), rng.integers(0, 4))
    else:
        mat, lie = rng.normal(size=(2, dim, dim)), rng.normal(size=(2, lie_dim, lie_dim))
    return markers, data, mat, lie


def per_point_oracle(markers, data, mat, lie):
    """axis_action_per_axis at each point of a batch of arrays, with the
    point's own matrices where there is a stack per point."""
    def at(a, p):
        return a[p] if a.ndim == 4 else a

    return np.stack([axis_action_per_axis(markers, data[p], at(mat, p), at(lie, p))
                     for p in range(len(data))])


class TestAxisAction:
    @pytest.mark.parametrize("matrices", ["jet", "constant", "shared", "per-point"])
    @pytest.mark.parametrize("seed", range(30))
    def test_equals_one_product_per_axis(self, seed, matrices):
        """One Cauchy product for all the axes of the data and the matrices
        is the sum of the products axis by axis, within rounding; so is the
        kernel on a batch of arrays, with shared or per-point matrices."""
        markers, data, mat, lie = random_action(seed, matrices)
        if matrices in ("shared", "per-point"):
            got = _leibniz(markers, data, axis_stacks(mat, lie))
            want = per_point_oracle(markers, data, mat, lie) if markers else np.zeros((len(data), 2))
            assert got.shape == want.shape
            assert np.abs(got - want).max(initial=0.0) <= 1e-14 * np.abs(want).max(initial=0.0)
            if len(data) == 1:  # axis_action is the kernel on a batch of one
                np.testing.assert_array_equal(
                    axis_action(markers, data[0], *[a if a.ndim == 3 else a[0] for a in (mat, lie)]),
                    got[0])
            return
        got = axis_action(markers, data, mat, lie)
        if not markers:  # no axis is acted on: the zero action
            assert np.array_equal(got, np.zeros((2,)))
            return
        want = axis_action_per_axis(markers, data, mat, lie)
        assert (got.n, got.order) == (want.n, want.order)
        assert np.abs(got.c - want.c).max() <= 1e-14 * np.abs(want.c).max()

    @pytest.mark.parametrize("block", [1, 60, 900])
    def test_blocks_are_bit_for_bit(self, block, monkeypatch):
        """With the block bound tiny, the product goes in blocks of output
        coefficients (at the least one each), and the action is the
        unsplit one bit for bit."""
        rng = np.random.default_rng(7)
        markers = (DOWN, UP, LIE, DOWN)
        data = jet.Jet(rng.normal(size=(3, 3, 2, 3, 4, jet.size(3, 3))), 3, 3)
        mat = jet.Jet(rng.normal(size=(3, 3, 3, 4, jet.size(3, 3))), 3, 3)
        lie = jet.Jet(rng.normal(size=(3, 2, 2, 4, jet.size(3, 2))), 3, 2)
        whole = axis_action(markers, data, mat, lie)
        monkeypatch.setattr(jet, "PRODUCT_BLOCK", block)
        np.testing.assert_array_equal(axis_action(markers, data, mat, lie).c, whole.c)

    @pytest.mark.parametrize("seed,matrices", [(13, "jet"), (29, "jet"), (21, "jet"),
                                               (13, "per-point")])
    def test_nan_stays_at_its_point(self, seed, matrices):
        """A NaN in one point's data, in a gathered product (order 3), an
        order-0 one or the kernel on per-point arrays, reaches no other
        point."""
        markers, data, mat, lie = random_action(seed, matrices)
        if matrices == "per-point":
            clean = _leibniz(markers, data, axis_stacks(mat, lie))
            spoiled = data.copy()
            spoiled[(1,) + (0,) * len(markers)] = np.nan
            got = np.moveaxis(_leibniz(markers, spoiled, axis_stacks(mat, lie)), 0, -1)[..., None]
            clean = np.moveaxis(clean, 0, -1)[..., None]
        else:
            clean = axis_action(markers, data, mat, lie).c
            spoiled = jet.Jet(data.c.copy(), data.n, data.order)
            spoiled.c[(0,) * len(markers) + (1, 0)] = np.nan
            got = axis_action(markers, spoiled, mat, lie).c
        assert np.isnan(got[..., 1, :]).any()
        others = [p for p in range(got.shape[-2]) if p != 1]
        np.testing.assert_array_equal(got[..., others, :], clean[..., others, :])

    @pytest.mark.parametrize("seed", [4, 13, 21, 29])
    def test_takes_no_einsum_product(self, seed, monkeypatch):
        """The action of jet matrices on jet data goes through the kernel,
        with no Cauchy product of jet.einsum."""
        calls = []
        cauchy = jet._cauchy
        monkeypatch.setattr(jet, "_cauchy", lambda *args: calls.append(1) or cauchy(*args))
        axis_action(*random_action(seed, "jet"))
        assert calls == []


class TestFrameTransport:
    @pytest.mark.parametrize(
        "markers",
        [(UP,), (DOWN,), (UP, DOWN), (DOWN, DOWN), (UP, DOWN, LIE), (LIE,)],
    )
    def test_roundtrip(self, markers):
        rng = np.random.default_rng(hash(markers) % 2**32)
        n, m = 3, 4
        dims = tuple(m if mk == LIE else n for mk in markers)
        t = DenseTensor(markers, rng.normal(size=dims))
        fr = frame_from_metric(random_spd(rng, n), np.zeros(n))
        # swapping frame and coframe gives the inverse change of basis
        inverse = OrthoFrame(fr.point, fr.coframe, fr.frame)
        back = to_frame(to_frame(t, fr), inverse)
        assert np.allclose(back.data, t.data, atol=1e-12)

    def test_metric_becomes_identity_in_frame(self):
        rng = np.random.default_rng(11)
        g = random_spd(rng, 3)
        fr = frame_from_metric(g, np.zeros(3))
        ghat = to_frame(DenseTensor((DOWN, DOWN), g), fr)
        assert np.allclose(ghat.data, np.eye(3), atol=1e-12)

    def test_up_down_pairing_is_frame_invariant(self):
        rng = np.random.default_rng(12)
        v = DenseTensor((UP,), rng.normal(size=3))
        w = DenseTensor((DOWN,), rng.normal(size=3))
        fr = frame_from_metric(random_spd(rng, 3), np.zeros(3))
        raw = float(v.data @ w.data)
        hat = float(to_frame(v, fr).data @ to_frame(w, fr).data)
        assert hat == pytest.approx(raw, abs=1e-12)

    def test_lie_axes_untouched(self):
        rng = np.random.default_rng(13)
        t = DenseTensor((LIE,), rng.normal(size=5))
        fr = frame_from_metric(random_spd(rng, 2), np.zeros(2))
        assert np.array_equal(to_frame(t, fr).data, t.data)

    def test_dim_mismatch_rejected(self):
        t = DenseTensor((UP,), np.zeros(4))
        fr = frame_from_metric(np.eye(3), np.zeros(3))
        with pytest.raises(AxisMismatch):
            to_frame(t, fr)


class TestToFrames:
    MIXES = [(UP,), (DOWN,), (LIE,), (UP, DOWN), (DOWN, LIE, UP), (LIE, DOWN, DOWN, UP),
             (DOWN, UP, DOWN, LIE, DOWN)]

    @pytest.mark.parametrize("markers", MIXES)
    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("points", [1, 4, 9])
    def test_matches_one_einsum_per_axis(self, markers, n, points):
        """One matmul per axis on point-first data, each axis rotated to the
        end, is the per-axis einsum over point-last data within rounding, in
        each point's own Cholesky frame."""
        rng = np.random.default_rng([n, points, len(markers)])
        dims = tuple(4 if m == LIE else n for m in markers)
        data = rng.normal(size=(points,) + dims)
        coframe, frame = cholesky_frames(np.stack([random_spd(rng, n) for _ in range(points)]))
        got = to_frames(markers, data, coframe, frame)
        want = to_frames_per_axis(markers, data, coframe, frame)
        assert got.shape == data.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
