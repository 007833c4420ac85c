"""Finite-dimensional Lie algebras, representations, and subspace machinery.

Structure constants are stored as c[k, i, j] with [b_i, b_j] = c[k, i, j] b_k.
Subspaces of an algebra are matrices whose columns are coordinate vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameters,
    NotInvariant,
    NotReductive,
    NotSubalgebra,
    RepMismatch,
)
from .tensor_core import DenseTensor, axis_action

NULL_TOL = 1e-8
ANGLE_TOL = 1e-6


@dataclass(frozen=True)
class LieAlgebra:
    """Lie algebra by structure constants over a labelled basis."""

    labels: tuple[str, ...]
    structure: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        c = np.asarray(self.structure, float)
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

    def adjoint_rep(self) -> "LinearRep":
        mats = np.stack([self.ad(e) for e in np.eye(self.dim)])
        return LinearRep(self, mats)

    def killing_form(self) -> np.ndarray:
        ads = [self.ad(e) for e in np.eye(self.dim)]
        return np.array([[np.trace(a @ b) for b in ads] for a in ads])


@dataclass(frozen=True)
class LinearRep:
    """Infinitesimal representation: one matrix per basis element."""

    algebra: LieAlgebra
    matrices: np.ndarray

    def __post_init__(self):
        mats = np.asarray(self.matrices, float)
        m = self.algebra.dim
        if mats.ndim != 3 or mats.shape[0] != m or mats.shape[1] != mats.shape[2]:
            raise RepMismatch("need one square matrix per basis element")
        c = self.algebra.structure
        scale = max(1.0, np.abs(mats).max()) ** 2
        for i in range(m):
            for j in range(m):
                lhs = mats[i] @ mats[j] - mats[j] @ mats[i]
                rhs = np.einsum("k,kab->ab", c[:, i, j], mats)
                if np.abs(lhs - rhs).max() > 1e-9 * scale:
                    raise RepMismatch(
                        f"matrices fail the homomorphism law at basis pair ({i},{j})"
                    )
        object.__setattr__(self, "matrices", mats)

    def matrix(self, theta: np.ndarray) -> np.ndarray:
        return np.einsum("i,iab->ab", np.asarray(theta, float), self.matrices)


@dataclass(frozen=True)
class AdInvariantInner:
    """Ad-invariant inner product on the algebra."""

    algebra: LieAlgebra
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, float)
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


def default_inner(algebra: LieAlgebra) -> AdInvariantInner:
    """Negative Killing form, patched to the identity on the center."""
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


def stacked_action_matrix(tensors: list[DenseTensor], rep: TensorRep) -> np.ndarray:
    """Matrix whose column j stacks the action of basis element j on every
    tensor: one contraction per tensor axis over all the generators."""
    lie = rep.lie.matrices if rep.lie is not None else None
    rows = [axis_action(t.markers, t.data, rep.vector.matrices, lie).reshape(rep.algebra.dim, -1)
            for t in tensors]
    return np.concatenate(rows, axis=1).T if rows else np.zeros((0, rep.algebra.dim))


def nullspace(mat: np.ndarray, rel_tol: float = NULL_TOL, scale: float = 0.0,
              spectrum: bool = False,
              ) -> np.ndarray | tuple[np.ndarray, np.ndarray, float]:
    """Orthonormal kernel basis (columns); SVD cutoff at rel_tol x sigma_max.

    ``scale`` floors the reference magnitude so a matrix that is pure noise
    relative to the data it was built from counts as zero.  With
    ``spectrum`` the result is (basis, singular values, cutoff); a zero
    matrix has no singular values."""
    mat = np.asarray(mat, float)
    if not np.isfinite(mat).all():
        raise BadParameters("matrix has non-finite entries")
    if mat.size == 0 or not mat.any():
        basis, sing, cutoff = np.eye(mat.shape[1]), np.zeros(0), 0.0
    else:
        # thin SVD; a wide matrix needs the full V to span its kernel
        _, sing, vt = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
        cutoff = rel_tol * max(sing[0], scale)
        basis = vt[int((sing > cutoff).sum()):].T
    return (basis, sing, cutoff) if spectrum else basis


def orthonormalize(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the column span."""
    basis = np.asarray(basis, float)
    if basis.size == 0:
        return basis.reshape(basis.shape[0], 0)
    q, r = np.linalg.qr(basis)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())
    return q[:, keep]


def _orth(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span from a thin SVD, dropping
    singular values at or below max(shape) * eps * sigma_max."""
    u, sing, _ = np.linalg.svd(a, full_matrices=False)
    cutoff = np.amax(sing, initial=0.0) * np.finfo(float).eps * max(a.shape)
    return u[:, : int((sing > cutoff).sum())]


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans, descending: cosines from
    one SVD, and sines from a second for the pairs with cosine^2 >= 1/2,
    where the arccosine loses precision (Knyazev and Argentati, SIAM J. Sci.
    Comput. 23, 2002; the algorithm of scipy.linalg.subspace_angles)."""
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros(0)
    qa, qb = _orth(np.asarray(a, float)), _orth(np.asarray(b, float))
    cross = qa.T @ qb
    cos = np.linalg.svd(cross, compute_uv=False)
    rest = qb - qa @ cross if qa.shape[1] >= qb.shape[1] else qa - qb @ cross.T
    mask = cos**2 >= 0.5
    sin = np.arcsin(np.clip(np.linalg.svd(rest, compute_uv=False), -1.0, 1.0)) \
        if mask.any() else 0.0
    return np.where(mask, sin, np.arccos(np.clip(cos[::-1], -1.0, 1.0)))


def subalgebra_residual(algebra: LieAlgebra, basis: np.ndarray) -> float:
    """Largest component of a basis bracket sticking out of the span."""
    basis = orthonormalize(basis)
    p = basis.shape[1]
    worst = 0.0
    for i in range(p):
        for j in range(i + 1, p):
            w = algebra.bracket(basis[:, i], basis[:, j])
            out = w - basis @ (basis.T @ w)
            worst = max(worst, float(np.linalg.norm(out)))
    return worst


def reductive_complement(h_basis: np.ndarray, inner: AdInvariantInner) -> np.ndarray:
    """Inner-orthogonal complement k of a subalgebra h, with [h, k] in k."""
    algebra = inner.algebra
    h = orthonormalize(np.asarray(h_basis, float).reshape(algebra.dim, -1))
    if subalgebra_residual(algebra, h) > 1e-9:
        raise NotSubalgebra("basis does not span a Lie subalgebra")
    if h.shape[1] == 0:
        k = np.eye(algebra.dim)
    else:
        k = nullspace(h.T @ inner.matrix, rel_tol=1e-12)
    if h.shape[1] + k.shape[1] != algebra.dim:
        raise NotReductive("complement dimensions do not add up")
    # infinitesimal ad_H-invariance: brackets [h, k] must stay inner-orthogonal to h
    gram = h.T @ inner.matrix @ h
    for i in range(h.shape[1]):
        for j in range(k.shape[1]):
            w = algebra.bracket(h[:, i], k[:, j])
            coeff = np.linalg.solve(gram, h.T @ inner.matrix @ w)
            leak = float(np.linalg.norm(h @ coeff))
            if leak > 1e-8 * max(1.0, float(np.linalg.norm(w))):
                raise NotInvariant(
                    "bracket [h, k] leaves the complement; inner product not invariant"
                )
    return k


def skew_exp(x: np.ndarray) -> np.ndarray:
    """exp(x) of a real skew-symmetric matrix, from the Hermitian eigensystem
    of 1j * x: if 1j * x = V diag(w) V^H then exp(x) = V diag(exp(-1j w)) V^H.

    Every representation built here (so(n), u(1), su(2) and their adjoints)
    is skew; any other matrix raises rather than being exponentiated
    inaccurately."""
    x = np.asarray(x, float)
    if not (np.abs(x + x.T) <= 1e-12 * max(1.0, float(np.abs(x).max(initial=0.0)))).all():
        raise BadParameters("exponential needs a skew-symmetric generator")
    w, v = np.linalg.eigh(0.5j * (x - x.T))
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


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
    """Structure constants from a matrix realization (basis must be independent)."""
    mats = np.asarray(mats, float)
    m = mats.shape[0]
    flat = mats.reshape(m, -1).T
    cols = np.zeros((m, m, m))
    for i in range(m):
        for j in range(m):
            w = (mats[i] @ mats[j] - mats[j] @ mats[i]).reshape(-1)
            coef, *_ = np.linalg.lstsq(flat, w, rcond=None)
            cols[:, i, j] = coef
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


def algebra_by_name(name: str) -> LieAlgebra:
    """Catalog: so(2), so(3), u(1), su(2), plus '+'-joined direct sums."""
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


def frame_structure_rep(n: int, k_algebra: LieAlgebra | None = None) -> TensorRep:
    """TensorRep for g = so(n) (+ k): so(n) moves frame axes, k moves lie axes."""
    so_mats = so_generators(n)
    labels = tuple(f"so.{i + 1}" for i in range(so_mats.shape[0]))
    so_alg = algebra_from_matrices(labels, so_mats)
    if k_algebra is None:
        return TensorRep(so_alg, LinearRep(so_alg, so_mats), None)
    g = direct_sum(so_alg, k_algebra)
    m_so = so_alg.dim
    m_k = k_algebra.dim
    vec = np.zeros((m_so + m_k, n, n))
    vec[:m_so] = so_mats
    lie = np.zeros((m_so + m_k, m_k, m_k))
    ad_k = k_algebra.adjoint_rep().matrices
    lie[m_so:] = ad_k
    return TensorRep(g, LinearRep(g, vec), LinearRep(g, lie))
