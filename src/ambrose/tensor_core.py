"""Tensors as (markers, data), orthonormal frames as (coframe, frame), and
the two actions on tensor axes, each coded once.

Axis markers tag each tensor axis as contravariant (UP), covariant (DOWN) or
Lie-adjoint (LIE); a tensor is its markers and an array with one axis per
marker, and a batch of tensors leads with the point axis. Components are
stored row-major over the axis dims, so the flat serialization order is the
C order of the array. A frame is the pair (coframe, frame) of
cholesky_frames, or a stack of them, one per point. The Lie-algebra
action, the Leibniz rule summed over the axes (-M^T on DOWN ones), is
``_leibniz``: ``axis_action`` (arrays and jets) and ``lie_core.action_rows``
call it. The group action, one matrix per axis kind, is ``to_frames``: the
frames and ``homogeneity.group_action`` call it.
"""

from __future__ import annotations

import math

import numpy as np

from . import jet
from .errors import AxisMismatch, DegenerateMetric, RepMismatch, SingularFrame

UP = "up"
DOWN = "down"
LIE = "lie"

MARKERS = (UP, DOWN, LIE)


def axis_stacks(mat: np.ndarray | None, lie: np.ndarray | None) -> dict[str, np.ndarray]:
    """The action of matrices (..., B, n, n) on each axis kind, as _leibniz
    reads it: by marker, a stack (..., B n, n) whose row b n + i is row i of
    the b-th action, +mat[b] on UP axes, -mat[b]^T on DOWN axes and lie[b]
    on LIE axes. A kind whose matrices are None has no stack."""
    stacks = {}
    if mat is not None:
        shape = mat.shape[:-3] + (-1, mat.shape[-1])
        stacks[UP] = mat.reshape(shape)
        stacks[DOWN] = -np.swapaxes(mat, -1, -2).reshape(shape)
    if lie is not None:
        stacks[LIE] = lie.reshape(lie.shape[:-3] + (-1, lie.shape[-1]))
    return stacks


def _leibniz(markers: tuple[str, ...], data: np.ndarray, stacks: dict[str, np.ndarray],
             prefix: tuple[int, ...] = ()) -> np.ndarray:
    """The Leibniz rule on a batch: out[p, b] is the sum over the axes of
    data[p] of the b-th action on that axis, read from ``stacks`` (see
    axis_stacks): a stack every element shares, (B n, n), or one per
    element, (N, B n, n). An axis kind without a stack is left alone (a
    LIE axis then raises RepMismatch, as does a wrong axis dim). data has
    shape (N, dims...); the result is (N, B, dims...), or with a prefix
    only the components whose leading indices are the prefix. Each acted
    axis is one matmul of its stack by the (n, rest) reshape of each
    element's data, the axis then put back in its place (an axis the prefix
    fixes takes the prefix's rows of each action); the terms are summed in
    axis order, one held at a time."""
    count, lead = len(data), len(prefix)
    sub = data[(slice(None),) + prefix]
    total = None
    for ax, marker in enumerate(markers):
        if marker not in stacks:
            if marker == LIE:
                raise RepMismatch("tensor has lie axes but no lie-axis matrix")
            continue
        stack = stacks[marker]
        n = stack.shape[-1]
        if data.shape[ax + 1] != n:
            raise RepMismatch(f"axis {ax} has dim {data.shape[ax + 1]}, matrix dim {n}")
        if ax < lead:
            free = data[(slice(None),) + prefix[:ax] + (slice(None),) + prefix[ax + 1:]]
            term = np.matmul(stack[..., prefix[ax]::n, :], free.reshape(count, n, -1))
            term = term.reshape((count, -1) + sub.shape[1:])
        elif ax == lead:  # the first free axis leads already
            term = np.matmul(stack, sub.reshape(count, n, -1)).reshape(
                (count, -1) + sub.shape[1:])
        else:
            a = ax - lead + 1
            moved = sub.transpose(0, a, *range(1, a), *range(a + 1, sub.ndim))
            term = np.matmul(stack, moved.reshape(count, n, -1))
            # (N, B, n, rest...) to (N, B, axes...), the acted axis in its place
            term = term.reshape((count, -1, n) + moved.shape[2:]).transpose(
                0, 1, *range(3, a + 2), 2, *range(a + 2, sub.ndim + 1))
        if total is None:
            total = term
        else:
            total += term
    if total is None:  # no axis is acted on: the zero action
        stack = next(iter(stacks.values()))
        return np.zeros((count, stack.shape[-2] // stack.shape[-1]) + sub.shape[1:])
    return total


def axis_action(markers: tuple[str, ...], data, mat, lie):
    """out[b] = the sum over the axes of a tensor of the action on that axis
    of the b-th matrices: +mat[b] on UP axes, -mat[b]^T on DOWN axes and
    lie[b] on LIE axes, shape (B, dims...). A None ``mat`` leaves the
    tangent axes alone; LIE axes need ``lie``. Arrays are one point, a
    batch of one of _leibniz. Jets (beside constant arrays, lifted) give a
    jet at the lowest order among those that act, one Cauchy product for
    all the axes: the coefficients of the matrices are made into stacks
    once, and each (point, pair) of gathered data and stacks is an element
    of _leibniz; each coefficient sums its pairs in order, in the blocks of
    jet._blocked_product. An order-0 product is one pair at each point: no
    gather and no sum."""
    count = (mat if mat is not None else lie).shape[0]
    mat = mat if any([m != LIE for m in markers]) else None  # the matrices that act
    lie = lie if LIE in markers else None
    if mat is None and LIE not in markers:  # no axis is acted on: the zero action
        return np.zeros((count,) + tuple(data.shape))
    jets = [o for o in (data, mat, lie) if isinstance(o, jet.Jet)]
    if not jets:
        return _leibniz(markers, np.asarray(data)[None], axis_stacks(mat, lie))[0]
    ref = min(jets, key=lambda j: j.order)
    points, dims = ref.c.shape[-2], tuple(data.shape)
    # the operands' coefficients at that order, point and coefficient axes first
    cd, cm, cl = [None if o is None else _points_and_coefficients_first(
        (o if isinstance(o, jet.Jet) else ref.lift(o)).truncate(ref.order).c)
        for o in (data, mat, lie)]
    stacks = axis_stacks(cm, cl)
    if ref.order == 0:
        out = _leibniz(markers, cd[:, 0], {k: s[:, 0] for k, s in stacks.items()})[:, None]
    else:
        def product(i, j, starts):
            out = _leibniz(markers, cd.take(i, axis=1).reshape((-1,) + cd.shape[2:]),
                           {k: s.take(j, axis=1).reshape((-1,) + s.shape[2:])
                            for k, s in stacks.items()})
            return np.add.reduceat(out.reshape((points, len(i)) + out.shape[1:]), starts, axis=1)

        per_pair = points * max(2 * count * math.prod(dims),
                                *[c[0, 0].size for c in (cm, cl) if c is not None])
        out = jet._blocked_product(ref.n, ref.order, per_pair, product, axis=1)
    return jet.Jet(out.transpose(*range(2, out.ndim), 0, 1), ref.n, ref.order)


def _points_and_coefficients_first(c: np.ndarray) -> np.ndarray:
    """The view of jet coefficients c, shape (value..., P, K), as (P, K, value...)."""
    return c.transpose([c.ndim - 2, c.ndim - 1, *range(c.ndim - 2)])


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


def to_frame(markers: tuple[str, ...], data: np.ndarray, coframe: np.ndarray,
             frame: np.ndarray) -> np.ndarray:
    """Tensor-axis components of one point's data in the frame (coframe,
    frame), LIE axes untouched: to_frames on a batch of one."""
    return to_frames(markers, data[None], coframe[None], frame[None])[0]


def to_frames(markers: tuple[str, ...], data: np.ndarray, coframe: np.ndarray,
              frame: np.ndarray, lie: np.ndarray | None = None) -> np.ndarray:
    """Tensor-axis components in an orthonormal frame at each point of a
    batch: data has shape (P, dims...), point first, and coframe and frame
    shape (P, n, n), as cholesky_frames gives them; the result has the
    shape of data. v̂ = coframe·v on UP axes, and ω̂_a = ω(e_a) contracts
    with the frame on DOWN axes. LIE axes are left alone, or, given ``lie``,
    shape (P, l, l), take v̂ = lie·v.

    The axes go in order, each one matmul per point: the acted axis leads
    the (axis, rest) reshape of each point's data, and the product,
    (rest, axis), leaves it last, so after every axis (an axis left alone
    only rotates) the axis order is the original."""
    points, dims = data.shape[0], data.shape[1:]
    for ax, m in enumerate(markers):
        n = coframe.shape[-1] if m != LIE else dims[ax] if lie is None else lie.shape[-1]
        if dims[ax] != n:
            raise AxisMismatch(f"axis {ax} has dim {dims[ax]}, frame dim {n}")
    out = data
    for m, d in zip(markers, dims):
        rows = out.reshape(points, d, -1).transpose(0, 2, 1)
        # (rest, axis) times coframeᵀ on UP, the frame on DOWN and lieᵀ on LIE
        mat = frame if m == DOWN else coframe if m == UP else lie
        out = rows if mat is None else rows @ (mat if m == DOWN else mat.transpose(0, 2, 1))
    return out.reshape(data.shape)


def point_norms(data: np.ndarray) -> np.ndarray:
    """The norm of each point's components of data, shape (dims..., P): one
    dot product of that point's components, in row-major order."""
    flat = np.ascontiguousarray(jet.points_first(data)).reshape(data.shape[-1], 1, -1)
    return np.sqrt(flat @ flat.transpose(0, 2, 1)).ravel()
