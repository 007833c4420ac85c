"""Tests for dense tensor values, axis markers, contraction, and frames."""

import numpy as np
import pytest

from ambrose.errors import AxisMismatch, DegenerateMetric, SingularFrame
from ambrose.tensor_core import (
    DOWN,
    LIE,
    UP,
    DenseTensor,
    OrthoFrame,
    apply_axis,
    to_frame,
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
        fr = OrthoFrame.from_metric(g, np.zeros(n))
        assert np.allclose(fr.frame.T @ g @ fr.frame, np.eye(n), atol=1e-12)
        assert np.allclose(fr.coframe @ fr.frame, np.eye(n), atol=1e-12)

    def test_degenerate_metric_rejected(self):
        with pytest.raises(DegenerateMetric):
            OrthoFrame.from_metric(np.diag([1.0, -1.0]), np.zeros(2))

    def test_nonfinite_frame_rejected(self):
        with pytest.raises(SingularFrame):
            OrthoFrame(np.zeros(2), np.array([[np.inf, 0], [0, 1.0]]), np.eye(2))

    def test_rotated_frame_still_orthonormal(self):
        rng = np.random.default_rng(7)
        g = random_spd(rng, 3)
        fr = OrthoFrame.from_metric(g, np.zeros(3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        fr2 = fr.rotated(q)
        assert np.allclose(fr2.frame.T @ g @ fr2.frame, np.eye(3), atol=1e-12)
        assert np.allclose(fr2.coframe @ fr2.frame, np.eye(3), atol=1e-12)


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
        fr = OrthoFrame.from_metric(random_spd(rng, n), np.zeros(n))
        # swapping frame and coframe gives the inverse change of basis
        inverse = OrthoFrame(fr.point, fr.coframe, fr.frame)
        back = to_frame(to_frame(t, fr), inverse)
        assert np.allclose(back.data, t.data, atol=1e-12)

    def test_metric_becomes_identity_in_frame(self):
        rng = np.random.default_rng(11)
        g = random_spd(rng, 3)
        fr = OrthoFrame.from_metric(g, np.zeros(3))
        ghat = to_frame(DenseTensor((DOWN, DOWN), g), fr)
        assert np.allclose(ghat.data, np.eye(3), atol=1e-12)

    def test_up_down_pairing_is_frame_invariant(self):
        rng = np.random.default_rng(12)
        v = DenseTensor((UP,), rng.normal(size=3))
        w = DenseTensor((DOWN,), rng.normal(size=3))
        fr = OrthoFrame.from_metric(random_spd(rng, 3), np.zeros(3))
        raw = float(v.data @ w.data)
        hat = float(to_frame(v, fr).data @ to_frame(w, fr).data)
        assert hat == pytest.approx(raw, abs=1e-12)

    def test_lie_axes_untouched(self):
        rng = np.random.default_rng(13)
        t = DenseTensor((LIE,), rng.normal(size=5))
        fr = OrthoFrame.from_metric(random_spd(rng, 2), np.zeros(2))
        assert np.array_equal(to_frame(t, fr).data, t.data)

    def test_dim_mismatch_rejected(self):
        t = DenseTensor((UP,), np.zeros(4))
        fr = OrthoFrame.from_metric(np.eye(3), np.zeros(3))
        with pytest.raises(AxisMismatch):
            to_frame(t, fr)
