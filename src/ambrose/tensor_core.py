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


def axis_action(markers: tuple[str, ...], data, mat, lie):
    """out[b] = the sum over the axes of a tensor of the action on that axis
    of the b-th matrices: +mat[b] on UP axes, -mat[b]^T on DOWN axes and
    lie[b] on LIE axes. A None ``mat`` leaves the tangent axes alone; LIE
    axes need ``lie``. The data and the matrices may be jets: the axes of
    each matrix operand are summed in one jet.einsum_sum, so jet data and a
    jet matrix make one Cauchy product for all of its axes."""
    letters = string.ascii_lowercase[:len(markers)]
    terms = {}  # the signed subscripts of each matrix operand, in axis order
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
        terms.setdefault(m == LIE, []).append((-1 if m == DOWN else 1, spec))
    if not terms:  # no axis is acted on: the zero action
        return np.zeros(((mat if mat is not None else lie).shape[0],) + tuple(data.shape))
    total = None
    for on_lie, group in terms.items():
        term = jet.einsum_sum(group, lie if on_lie else mat, data)
        total = term if total is None else total + term
    return total


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


def cholesky_frames(gs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(coframes, frames), each shape (P, d, d), of the Cholesky frame at
    each point from the metric values gs, shape (P, d, d), in one stacked
    factorization: G = L Lᵀ, coframe = Lᵀ and frame = L^{-T}, so
    frameᵀ G frame = I. A non-finite frame raises SingularFrame."""
    try:
        coframe = np.swapaxes(np.linalg.cholesky(gs), 1, 2)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetric(f"metric not positive definite: {exc}") from exc
    frame = np.linalg.inv(coframe)
    if not (np.isfinite(frame).all() and np.isfinite(coframe).all()):
        raise SingularFrame("frame/coframe has non-finite entries")
    return coframe, frame


def to_frame(t: DenseTensor, f: OrthoFrame) -> DenseTensor:
    """Express tensor-axis components in the frame basis (LIE axes
    untouched): to_frames on a batch of one."""
    return DenseTensor(t.markers, to_frames(t.markers, t.data[None], f.coframe[None],
                                            f.frame[None])[0])


def to_frames(markers: tuple[str, ...], data: np.ndarray, coframe: np.ndarray,
              frame: np.ndarray) -> np.ndarray:
    """Tensor-axis components in an orthonormal frame at each point of a
    batch: data has shape (P, dims...), point first, and coframe and frame
    shape (P, n, n), as cholesky_frames gives them; the result has the
    shape of data. v̂ = coframe·v on UP axes, and ω̂_a = ω(e_a) contracts
    with the frame on DOWN axes.

    The axes go in order, each one matmul per point: the acted axis leads
    the (axis, rest) reshape of each point's data, and the product,
    (rest, axis), leaves it last, so after every axis (a LIE axis only
    rotates) the axis order is the original."""
    points, dims = data.shape[0], data.shape[1:]
    n = coframe.shape[-1]
    for ax, m in enumerate(markers):
        if m != LIE and dims[ax] != n:
            raise AxisMismatch(f"axis {ax} has dim {dims[ax]}, frame dim {n}")
    out = data
    for m, d in zip(markers, dims):
        rows = out.reshape(points, d, -1).transpose(0, 2, 1)
        # (rest, axis) times coframeᵀ on UP, the frame on DOWN
        out = rows if m == LIE else rows @ (coframe.transpose(0, 2, 1) if m == UP else frame)
    return out.reshape(data.shape)


def point_norms(data: np.ndarray) -> np.ndarray:
    """The norm of each point's components of data, shape (dims..., P), as
    DenseTensor.norm takes it: one dot product of that point's components,
    in row-major order."""
    flat = np.ascontiguousarray(jet.points_first(data)).reshape(data.shape[-1], 1, -1)
    return np.sqrt(flat @ flat.transpose(0, 2, 1)).ravel()
