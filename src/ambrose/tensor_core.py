"""Dense multi-index tensor values at a point, orthonormal frames, axis actions.

Axis markers tag each tensor axis as contravariant (UP), covariant (DOWN) or
Lie-adjoint (LIE).  Components are stored row-major over the axis dims, so the
flat serialization order is the C order of the backing array.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from . import jet
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


def axis_action(markers: tuple[str, ...], data, mat, lie):
    """out[b] = the sum over the axes of a tensor of the action on that axis
    of the b-th matrices: +mat[b] on UP axes, -mat[b]^T on DOWN axes and
    lie[b] on LIE axes. A None ``mat`` leaves the tangent axes alone; LIE
    axes need ``lie``. The data and the matrices may be jets: one
    contraction per axis."""
    letters = string.ascii_lowercase[:len(markers)]
    terms = []
    for ax, m in enumerate(markers):
        a = lie if m == LIE else mat
        if a is None:
            if m == LIE:
                raise RepMismatch("tensor has lie axes but no lie-axis matrix")
            continue
        if data.shape[ax] != a.shape[-1]:
            raise RepMismatch(f"axis {ax} has dim {data.shape[ax]}, matrix dim {a.shape[-1]}")
        j = letters[ax]
        out = letters.replace(j, "Z")
        spec = f"B{j}Z,{letters}->B{out}" if m == DOWN else f"BZ{j},{letters}->B{out}"
        term = jet.einsum(spec, a, data)
        terms.append(-term if m == DOWN else term)
    if not terms:  # no axis is acted on: the zero action
        return np.zeros((len(mat if mat is not None else lie),) + tuple(data.shape))
    return sum(terms[1:], terms[0])


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

