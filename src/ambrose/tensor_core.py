"""Dense multi-index tensor values at a point, orthonormal frames, axis actions.

Axis markers tag each tensor axis as contravariant (UP), covariant (DOWN) or
Lie-adjoint (LIE).  Components are stored row-major over the axis dims, so the
flat serialization order is the C order of the backing array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AxisMismatch, DegenerateMetric, RepMismatch, SingularFrame

UP = "up"
DOWN = "down"
LIE = "lie"

_MARKERS = (UP, DOWN, LIE)


@dataclass(frozen=True)
class DenseTensor:
    """Tensor value at a single point with explicit axis markers."""

    markers: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self):
        markers = tuple(self.markers)
        data = np.asarray(self.data, dtype=float)
        if data.ndim != len(markers):
            raise AxisMismatch(
                f"{data.ndim} array axes for {len(markers)} markers"
            )
        for m in markers:
            if m not in _MARKERS:
                raise AxisMismatch(f"unknown axis marker {m!r}")
        object.__setattr__(self, "markers", markers)
        object.__setattr__(self, "data", data)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def components(self) -> np.ndarray:
        """Flat row-major component vector (the serialization layout)."""
        return self.data.reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))


def apply_axis(matrix: np.ndarray, data: np.ndarray, axis: int) -> np.ndarray:
    """Contract ``matrix`` into one axis: out[..., i, ...] = M[i, j] t[..., j, ...]."""
    moved = np.tensordot(matrix, data, axes=(1, axis))
    return np.moveaxis(moved, 0, axis)


def axis_action(t: DenseTensor, mat: np.ndarray | None, lie: np.ndarray | None,
                out: np.ndarray | None = None) -> np.ndarray:
    """Add to ``out`` (zeros by default) the action of a connection matrix on
    every axis of t: +mat on UP axes, -matᵀ on DOWN axes, ``lie`` on LIE
    axes.  A None ``mat`` leaves the tangent axes alone; LIE axes need ``lie``."""
    out = np.zeros_like(t.data) if out is None else out
    for ax, m in enumerate(t.markers):
        a = lie if m == LIE else mat
        if a is None:
            if m == LIE:
                raise RepMismatch("tensor has lie axes but no lie-axis matrix")
            continue
        if t.dims[ax] != a.shape[0]:
            raise RepMismatch(f"axis {ax} has dim {t.dims[ax]}, matrix dim {a.shape[0]}")
        if m == DOWN:
            out -= apply_axis(a.T, t.data, ax)
        else:
            out += apply_axis(a, t.data, ax)
    return out


@dataclass(frozen=True)
class OrthoFrame:
    """Orthonormal frame at a point: columns of ``frame`` are the frame vectors."""

    point: np.ndarray
    frame: np.ndarray
    coframe: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, float))
        object.__setattr__(self, "frame", np.asarray(self.frame, float))
        object.__setattr__(self, "coframe", np.asarray(self.coframe, float))
        if not (np.isfinite(self.frame).all() and np.isfinite(self.coframe).all()):
            raise SingularFrame("frame/coframe has non-finite entries")

    @classmethod
    def from_metric(cls, g: np.ndarray, point: np.ndarray) -> "OrthoFrame":
        """Cholesky frame: G = L Lᵀ, frame = L^{-T}, so frameᵀ G frame = I."""
        g = np.asarray(g, float)
        try:
            lower = np.linalg.cholesky(g)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMetric(f"metric not positive definite: {exc}") from exc
        coframe = lower.T
        frame = np.linalg.inv(coframe)
        return cls(point=np.asarray(point, float), frame=frame, coframe=coframe)

    def rotated(self, q: np.ndarray) -> "OrthoFrame":
        """Another valid orthonormal frame: columns mixed by orthogonal q."""
        q = np.asarray(q, float)
        return OrthoFrame(self.point, self.frame @ q, q.T @ self.coframe)


def to_frame(t: DenseTensor, f: OrthoFrame) -> DenseTensor:
    """Express tensor-axis components in the frame basis (LIE axes untouched)."""
    n = f.frame.shape[0]
    data = t.data
    for ax, m in enumerate(t.markers):
        if m == LIE:
            continue
        if t.dims[ax] != n:
            raise AxisMismatch(f"axis {ax} has dim {t.dims[ax]}, frame dim {n}")
        # v̂ = coframe·v for UP axes; ω̂_a = ω(e_a) contracts with frame for DOWN
        data = apply_axis(f.coframe if m == UP else f.frame.T, data, ax)
    return DenseTensor(t.markers, data)

