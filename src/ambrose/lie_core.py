"""Finite-dimensional Lie algebras, representations, and subspace machinery.

Structure constants are stored as c[k, i, j] with [b_i, b_j] = c[k, i, j] b_k.
Subspaces of an algebra are matrices whose columns are coordinate vectors. A
rep acts on a tensor by tensor_core's Leibniz rule (``action_rows``).

The constants a run reads (so(n) and its defining representation, the
catalog algebras, their default inner products and adjoint representations)
are built once per process and shared: so their arrays are read-only copies,
each taken before its construction check, and the check runs once, on the
object that is then shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, wraps

import numpy as np

from .errors import BadParameters, NotInvariant, RepMismatch
from .tensor_core import LIE, UP, DenseTensor, _leibniz, axis_action, axis_stacks

NULL_TOL = 1e-8
ANGLE_TOL = 1e-6


def _read_only(a) -> np.ndarray:
    """A read-only float copy of a, which no alias of a can change."""
    out = np.array(a, float)
    out.flags.writeable = False
    return out


def _held(fn):
    """fn(obj), built on the first call and held by obj in its __dict__: a
    constant derived from an object lives as long as the object, and no
    table outside it grows with the objects built."""
    key = fn.__qualname__

    @wraps(fn)
    def held(obj):
        memo = obj.__dict__
        if key not in memo:
            memo[key] = fn(obj)
        return memo[key]

    return held


# eq=False: the fields are arrays, so == cannot compare two of these, and
# each hashes by identity, as TensorRep's `is` test reads it
@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """Lie algebra by structure constants over a labelled basis."""

    labels: tuple[str, ...]
    structure: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        c = _read_only(self.structure)
        m = len(labels)
        if c.shape != (m, m, m):
            raise BadParameters("structure constants must be (m, m, m)")
        if not np.array_equal(c, -c.swapaxes(1, 2)):
            raise BadParameters("structure constants must be exactly antisymmetric")
        jac = np.einsum("rjl,mir->mijl", c, c)
        jac = jac + np.einsum("rli,mjr->mijl", c, c) + np.einsum("rij,mlr->mijl", c, c)
        if np.abs(jac).max() > 1e-10:
            raise BadParameters("structure constants fail the Jacobi identity")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "structure", c)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def bracket(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("kij,i,j->k", self.structure, u, v)

    def ad(self, u: np.ndarray) -> np.ndarray:
        """Matrix of ad(u) in the basis: ad(u)[k, j] = c[k, i, j] u[i]."""
        return np.einsum("kij,i->kj", self.structure, np.asarray(u, float))

    @_held
    def adjoint_rep(self) -> "LinearRep":
        """The adjoint representation, built and checked once per algebra."""
        mats = np.stack([self.ad(e) for e in np.eye(self.dim)])
        return LinearRep(self, mats)

    def killing_form(self) -> np.ndarray:
        ads = [self.ad(e) for e in np.eye(self.dim)]
        return np.array([[np.trace(a @ b) for b in ads] for a in ads])


@dataclass(frozen=True, eq=False)
class LinearRep:
    """Infinitesimal representation: one matrix per basis element."""

    algebra: LieAlgebra
    matrices: np.ndarray

    def __post_init__(self):
        mats = _read_only(self.matrices)
        m = self.algebra.dim
        if mats.ndim != 3 or mats.shape[0] != m or mats.shape[1] != mats.shape[2]:
            raise RepMismatch("need one square matrix per basis element")
        scale = max(1.0, np.abs(mats).max()) ** 2
        # [X_i, X_j] - c[k, i, j] X_k for every basis pair at once
        prods = np.matmul(mats[:, None], mats[None])
        law = prods - prods.swapaxes(0, 1) - np.einsum("kij,kab->ijab", self.algebra.structure, mats)
        failed = np.abs(law).max(axis=(2, 3), initial=0.0) > 1e-9 * scale
        if failed.any():
            i, j = np.argwhere(failed)[0]
            raise RepMismatch(f"matrices fail the homomorphism law at basis pair ({i},{j})")
        object.__setattr__(self, "matrices", mats)

    def matrix(self, theta: np.ndarray) -> np.ndarray:
        return np.einsum("i,iab->ab", np.asarray(theta, float), self.matrices)

    @_held
    def axis_stacks(self) -> dict[str, np.ndarray]:
        """The generators' action on UP and DOWN axes, the (B n, n) stacks of
        tensor_core.axis_stacks, built once per rep and read-only."""
        return {kind: _read_only(stack)
                for kind, stack in axis_stacks(self.matrices, None).items()}


@dataclass(frozen=True)
class AdInvariantInner:
    """Ad-invariant inner product on the algebra, checked when built: the
    orthogonal complement of any subalgebra h is then ad(h)-invariant."""

    algebra: LieAlgebra
    matrix: np.ndarray

    def __post_init__(self):
        mat = _read_only(self.matrix)
        m = self.algebra.dim
        if mat.shape != (m, m) or not np.allclose(mat, mat.T, atol=1e-12):
            raise BadParameters("inner product must be a symmetric m x m matrix")
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError as exc:
            raise BadParameters("inner product must be positive definite") from exc
        c = self.algebra.structure
        # <[a,b],c> + <b,[a,c]> = 0 over basis triples
        t = np.einsum("kib,kc->ibc", c, mat)
        if np.abs(t + t.swapaxes(1, 2)).max() > 1e-9 * max(1.0, np.abs(mat).max()):
            raise NotInvariant("inner product is not ad-invariant")
        object.__setattr__(self, "matrix", mat)


@_held
def default_inner(algebra: LieAlgebra) -> AdInvariantInner:
    """Negative Killing form, patched to the identity on the center; built
    and checked once per algebra."""
    m = -algebra.killing_form()
    w, v = np.linalg.eigh(m)
    scale = max(1.0, np.abs(w).max())
    if (w < -1e-9 * scale).any():
        raise NotInvariant("negative Killing form is not positive semidefinite")
    w = np.where(w > 1e-9 * scale, w, 1.0)
    return AdInvariantInner(algebra, (v * w) @ v.T)


@dataclass(frozen=True)
class TensorRep:
    """Registration of how the algebra acts on each tensor-axis kind.

    ``vector`` acts on frame (up/down) axes, ``lie`` on lie-adjoint axes.
    """

    algebra: LieAlgebra
    vector: LinearRep
    lie: LinearRep | None = None

    def __post_init__(self):
        if self.vector.algebra is not self.algebra or (
            self.lie is not None and self.lie.algebra is not self.algebra
        ):
            raise RepMismatch("axis representations must share the algebra")

    @_held
    def axis_stacks(self) -> dict[str, np.ndarray]:
        """The stacks _leibniz reads: the vector rep's on UP and DOWN axes,
        the lie rep's UP stack on LIE axes; built once per rep."""
        stacks = dict(self.vector.axis_stacks())
        if self.lie is not None:
            stacks[LIE] = self.lie.axis_stacks()[UP]
        return stacks


def tensor_action(b: np.ndarray, eta: DenseTensor, rep: TensorRep) -> DenseTensor:
    """Leibniz action of algebra element b through its matrices in ``rep``:
    plus on value axes, minus transpose on covariant axes, adjoint action on
    lie axes, summed over axes."""
    b = np.asarray(b, float)
    if b.shape != (rep.algebra.dim,):
        raise RepMismatch("algebra coordinates have the wrong length")
    mat_l = rep.lie.matrix(b)[None] if rep.lie is not None else None
    return DenseTensor(eta.markers,
                       axis_action(eta.markers, eta.data, rep.vector.matrix(b)[None], mat_l)[0])


def action_rows(markers: tuple[str, ...], data: np.ndarray, rep: TensorRep,
                prefix: tuple[int, ...] = ()) -> np.ndarray:
    """The rows a tensor adds to the stacked action matrix, at each point of
    a batch: data has shape (P, dims...), and out[p, r, j] is component r, in
    C order, of the action of basis element j on point p's tensor (the
    Leibniz rule of tensor_core._leibniz with the rep's held generator
    stacks, which every point shares). With a prefix, only the rows whose
    leading indices are the prefix."""
    rows = _leibniz(markers, data, rep.axis_stacks(), tuple(prefix))
    return rows.reshape(rows.shape[0], rows.shape[1], -1).transpose(0, 2, 1)


def stacked_action_matrix(tensors: list[DenseTensor], rep: TensorRep) -> np.ndarray:
    """Matrix whose column j stacks the action of basis element j on every
    tensor: action_rows of each tensor as a batch of one."""
    rows = [action_rows(t.markers, t.data[None], rep)[0] for t in tensors]
    return np.concatenate(rows) if rows else np.zeros((0, rep.algebra.dim))


def nullspace(mat: np.ndarray, scale: float = 0.0) -> np.ndarray:
    """Orthonormal kernel basis (columns); SVD cutoff at NULL_TOL x
    sigma_max: kernel_spectra on a stack of one."""
    return kernel_spectra(np.asarray(mat, float)[None], [scale])[0][0]


def kernel_spectra(mats: np.ndarray, scales: np.ndarray | list[float],
                   ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """(bases, sing, cutoff) of a stack of matrices, shape (P, rows, cols),
    from one stacked SVD: each matrix's orthonormal kernel basis (columns),
    the stacked singular values, shape (P, min(rows, cols)), and each cutoff
    NULL_TOL x sigma_max. The cutoffs and ranks are taken on the whole
    stack.

    Each matrix's ``scales`` entry floors its reference magnitude, so a
    matrix that is pure noise relative to the data it was built from counts
    as zero. A zero matrix has the whole space as its kernel, zero singular
    values and a zero cutoff. A non-finite matrix or scale raises
    BadParameters."""
    mats = np.asarray(mats, float)
    scales = np.asarray(scales, float)
    if not (np.isfinite(mats).all() and np.isfinite(scales).all()):
        raise BadParameters("matrix or its scale has non-finite entries")
    count, rows, cols = mats.shape
    nonzero = mats.reshape(count, -1).any(axis=1)
    if not nonzero.any():
        return [np.eye(cols)] * count, np.zeros((count, min(rows, cols))), np.zeros(count)
    # thin SVD; a wide matrix needs the full V to span its kernel
    _, sing, vt = np.linalg.svd(mats, full_matrices=rows < cols)
    sing = np.where(nonzero[:, None], sing, 0.0)
    cutoff = np.where(nonzero, NULL_TOL * np.maximum(sing[:, 0], scales), 0.0)
    ranks = (sing > cutoff[:, None]).sum(axis=1).tolist()
    bases = [v[rank:].T if nz else np.eye(cols)
             for v, rank, nz in zip(vt, ranks, nonzero.tolist())]
    return bases, sing, cutoff


def subalgebra_residuals(algebra: LieAlgebra, bases: list[np.ndarray]) -> np.ndarray:
    """For each basis of a list, the largest component of a bracket of two
    of its orthonormalized columns sticking out of its span, in list order.
    The bases of one shape take one stacked QR and one set of bracket
    products; the columns whose |r_cc| is at most 1e-12 x max(1, |r|) are
    dependent and zeroed, so their brackets add nothing. A non-finite basis
    raises BadParameters, before any QR."""
    bases = [np.asarray(b, float).reshape(algebra.dim, -1) for b in bases]
    if not all(np.isfinite(b).all() for b in bases):
        raise BadParameters("basis has non-finite entries")
    out = np.zeros(len(bases))
    groups = {}
    for i, basis in enumerate(bases):
        groups.setdefault(basis.shape[1], []).append(i)
    for cols, idx in groups.items():
        if cols < 2:  # no pair of columns
            continue
        q, r = np.linalg.qr(np.stack([bases[i] for i in idx]))
        scale = np.maximum(1.0, np.abs(r).max(axis=(1, 2)))
        q = q * (np.abs(np.diagonal(r, axis1=1, axis2=2)) > 1e-12 * scale[:, None])[:, None, :]
        k = q.shape[2]
        # w[p, :, (i, j)] = [q_i, q_j], then its part outside the span
        w = np.einsum("kij,pia,pjb->pkab", algebra.structure, q, q).reshape(len(idx), -1, k * k)
        leak = np.linalg.norm(w - q @ (q.transpose(0, 2, 1) @ w), axis=1)
        upper = np.triu_indices(k, 1)
        out[idx] = leak.reshape(len(idx), k, k)[:, upper[0], upper[1]].max(axis=1)
    return out


def skew_function(x: np.ndarray, f_w) -> np.ndarray:
    """f(x) of a real skew-symmetric matrix x, for a power series f, from the
    Hermitian eigensystem of 1j * x: if 1j * x = V diag(w) V^H then
    f(x) = V diag(f_w(w)) V^H, where f_w(w) = f(-1j w) on the real
    eigenvalues w.

    Every representation built here (so(n), u(1), su(2) and their adjoints)
    is skew; any other matrix raises rather than being taken
    inaccurately."""
    x = np.asarray(x, float)
    if not (np.abs(x + x.T) <= 1e-12 * max(1.0, float(np.abs(x).max(initial=0.0)))).all():
        raise BadParameters("expected a skew-symmetric matrix")
    w, v = np.linalg.eigh(0.5j * (x - x.T))
    return ((v * f_w(w)) @ v.conj().T).real


def skew_exp(x: np.ndarray) -> np.ndarray:
    """exp(x) of a real skew-symmetric matrix, by skew_function."""
    return skew_function(x, lambda w: np.exp(-1j * w))


def _eps3() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[i, k, j] = -1.0
    return eps


def so_generators(n: int) -> np.ndarray:
    """Standard antisymmetric generators of so(n) acting on R^n.

    so(2): the single rotation J e1 = e2.  so(3): the cross-product basis
    (L_a)_{bc} = -eps_{abc} with [L_1, L_2] = L_3.  Larger n: E_{ab} pairs.
    """
    if n < 2:
        raise BadParameters(f"so(n) needs n >= 2, got n = {n}")
    if n == 2:
        return np.array([[[0.0, -1.0], [1.0, 0.0]]])
    if n == 3:
        return -_eps3()
    gens = []
    for a in range(n):
        for b in range(a + 1, n):
            m = np.zeros((n, n))
            m[b, a] = 1.0
            m[a, b] = -1.0
            gens.append(m)
    return np.stack(gens)


def algebra_from_matrices(labels: tuple[str, ...], mats: np.ndarray) -> LieAlgebra:
    """Structure constants from a matrix realization (basis must be
    independent): the brackets [b_i, b_j] expanded in the basis by one
    solve of the Frobenius Gram system, A A^T c = A [b_i, b_j] with A the
    flattened basis, every bracket a right-hand side. On so(n)'s generators,
    whose Gram matrix is 2 I, the constants come out exactly +-1 and 0."""
    mats = np.asarray(mats, float)
    m = mats.shape[0]
    prods = np.matmul(mats[:, None], mats[None])
    brackets = (prods - prods.swapaxes(0, 1)).reshape(m * m, -1).T
    flat = mats.reshape(m, -1)
    cols = np.linalg.solve(flat @ flat.T, flat @ brackets).reshape(m, m, m)
    c = 0.5 * (cols - cols.swapaxes(1, 2))
    c[np.abs(c) < 1e-12] = 0.0
    return LieAlgebra(labels, c)


# catalog algebras: basis labels, and the multiple of eps that gives the
# structure constants of the three-dimensional ones
_CATALOG = {
    "so(2)": (("J",), 0.0),
    "so(3)": (("L1", "L2", "L3"), 1.0),
    "u(1)": (("iota",), 0.0),
    "su(2)": (("E1", "E2", "E3"), 2.0),
}


def _summands(name: str) -> list[str]:
    parts = [p.strip() for p in name.split("+")]
    for p in parts:
        if p not in _CATALOG:
            raise BadParameters(f"unknown algebra name {p!r}")
    return parts


def algebra_dim(name: str) -> int:
    """Dimension of a catalog algebra or '+'-joined sum, from the names alone."""
    return sum(len(_CATALOG[p][0]) for p in _summands(name))


@cache
def algebra_by_name(name: str) -> LieAlgebra:
    """Catalog: so(2), so(3), u(1), su(2), plus '+'-joined direct sums; built
    and checked once per name."""
    out = None
    for p in _summands(name):
        labels, scale = _CATALOG[p]
        c = scale * _eps3().transpose(2, 0, 1) if len(labels) == 3 else np.zeros((1, 1, 1))
        alg = LieAlgebra(labels, c)
        out = alg if out is None else direct_sum(out, alg)
    return out


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    labels = tuple(f"a.{s}" for s in a.labels) + tuple(f"b.{s}" for s in b.labels)
    ma, mb = a.dim, b.dim
    c = np.zeros((ma + mb, ma + mb, ma + mb))
    c[:ma, :ma, :ma] = a.structure
    c[ma:, ma:, ma:] = b.structure
    return LieAlgebra(labels, c)


@cache
def _so_frame_rep(n: int) -> TensorRep:
    """so(n) acting on the frame axes of R^n, derived and checked once per n."""
    so_mats = so_generators(n)
    labels = tuple(f"so.{i + 1}" for i in range(so_mats.shape[0]))
    alg = algebra_from_matrices(labels, so_mats)
    return TensorRep(alg, LinearRep(alg, so_mats), None)


def frame_structure_rep(n: int, k_algebra: LieAlgebra | None = None) -> TensorRep:
    """TensorRep for g = so(n) (+ k): so(n) moves frame axes, k moves lie
    axes. so(n)'s rep, with the constants it holds, is shared by every call
    with this n and no k; the sum with k is built on each call."""
    if k_algebra is None:
        return _so_frame_rep(n)
    so_rep = _so_frame_rep(n).vector
    so_alg = so_rep.algebra
    g = direct_sum(so_alg, k_algebra)
    m_so = so_alg.dim
    m_k = k_algebra.dim
    vec = np.zeros((m_so + m_k, n, n))
    vec[:m_so] = so_rep.matrices
    lie = np.zeros((m_so + m_k, m_k, m_k))
    ad_k = k_algebra.adjoint_rep().matrices
    lie[m_so:] = ad_k
    return TensorRep(g, LinearRep(g, vec), LinearRep(g, lie))
