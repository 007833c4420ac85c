"""Finite-dimensional Lie algebras, representations, and subspace machinery.

Structure constants are stored as c[k, i, j] with [b_i, b_j] = c[k, i, j] b_k.
Subspaces of an algebra are matrices whose columns are coordinate vectors.

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

from .errors import (
    BadParameters,
    NotInvariant,
    NotReductive,
    NotSubalgebra,
    RepMismatch,
)
from .tensor_core import DOWN, LIE, DenseTensor, axis_action

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
    C order, of the action of basis element j on point p's tensor: +mat on UP
    axes, -mat^T on DOWN axes and lie on LIE axes, summed over the axes in
    order. With a prefix, only the rows whose leading indices are the prefix.

    Each axis is one matmul of its (m n, n) generator stack by the (n, rest)
    reshape of the data; an axis the prefix fixes takes only the prefix's
    row of each generator."""
    m = rep.algebra.dim
    prefix = tuple(prefix)
    points, lead = len(data), len(prefix)
    sub = data[(slice(None),) + prefix]
    total = None
    for ax, marker in enumerate(markers):
        if marker == LIE and rep.lie is None:
            raise RepMismatch("tensor has lie axes but no lie-axis matrix")
        gens = (rep.lie if marker == LIE else rep.vector).matrices
        n = gens.shape[-1]
        if data.shape[ax + 1] != n:
            raise RepMismatch(f"axis {ax} has dim {data.shape[ax + 1]}, matrix dim {n}")
        if marker == DOWN:
            gens = gens.transpose(0, 2, 1)
        if ax < lead:
            free = data[(slice(None),) + prefix[:ax] + (slice(None),) + prefix[ax + 1:]]
            term = np.matmul(gens[:, prefix[ax]], free.reshape(points, n, -1))
            term = term.reshape((points, m) + sub.shape[1:])
        else:
            a = ax - lead + 1
            moved = sub.transpose(a, *range(a), *range(a + 1, sub.ndim))
            term = (gens.reshape(m * n, n) @ moved.reshape(n, -1)).reshape((m, n) + moved.shape[1:])
            # back to (points, m, axes...) with the acted axis in its place
            term = term.transpose(2, 0, *range(3, a + 2), 1, *range(a + 2, sub.ndim + 1))
        # summed as it goes, so that one term at a time is held
        if total is None:
            total = -term if marker == DOWN else term
        elif marker == DOWN:
            total -= term
        else:
            total += term
    if total is None:  # a scalar: the zero action
        return np.zeros((points, 1, m))
    return total.reshape(points, m, -1).transpose(0, 2, 1)


def stacked_action_matrix(tensors: list[DenseTensor], rep: TensorRep) -> np.ndarray:
    """Matrix whose column j stacks the action of basis element j on every
    tensor: action_rows of each tensor as a batch of one."""
    rows = [action_rows(t.markers, t.data[None], rep)[0] for t in tensors]
    return np.concatenate(rows) if rows else np.zeros((0, rep.algebra.dim))


def nullspace(mat: np.ndarray, rel_tol: float = NULL_TOL, scale: float = 0.0,
              spectrum: bool = False,
              ) -> np.ndarray | tuple[np.ndarray, np.ndarray, float]:
    """Orthonormal kernel basis (columns); SVD cutoff at rel_tol x sigma_max:
    nullspaces on a stack of one. With ``spectrum`` the result is (basis,
    singular values, cutoff)."""
    basis, sing, cutoff = nullspaces(np.asarray(mat, float)[None], [scale], rel_tol)[0]
    return (basis, sing, cutoff) if spectrum else basis


def nullspaces(mats: np.ndarray, scales: np.ndarray | list[float], rel_tol: float = NULL_TOL,
               ) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """(kernel basis, singular values, cutoff) of each matrix of a stack,
    shape (P, rows, cols), from one stacked SVD; the cutoff is rel_tol x
    sigma_max.

    Each matrix's ``scales`` entry floors its reference magnitude, so a
    matrix that is pure noise relative to the data it was built from counts
    as zero. A zero matrix has no singular values and the whole space as its
    kernel. A non-finite matrix or scale raises BadParameters."""
    mats = np.asarray(mats, float)
    scales = np.asarray(scales, float)
    if not (np.isfinite(mats).all() and np.isfinite(scales).all()):
        raise BadParameters("matrix or its scale has non-finite entries")
    rows, cols = mats.shape[1:]
    nonzero = mats.reshape(len(mats), -1).any(axis=1)
    if nonzero.any():
        # thin SVD; a wide matrix needs the full V to span its kernel
        _, sing, vt = np.linalg.svd(mats, full_matrices=rows < cols)
    out = []
    for p, scale in enumerate(scales):
        if not nonzero[p]:
            out.append((np.eye(cols), np.zeros(0), 0.0))
            continue
        cutoff = rel_tol * max(sing[p, 0], scale)
        out.append((vt[p, int((sing[p] > cutoff).sum()):].T, sing[p], cutoff))
    return out


def _finite(*arrays) -> None:
    """Raise BadParameters unless every entry of the arrays is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise BadParameters("basis has non-finite entries")


def _qr_columns(bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q, keep) of a stack of bases, shape (P, m, k), from one stacked QR:
    column c of q[p] counts where keep[p, c], that is where |r_cc| exceeds
    1e-12 x max(1, |r|) for that basis."""
    q, r = np.linalg.qr(bases)
    scale = np.maximum(1.0, np.abs(r).max(axis=(1, 2)))
    return q, np.abs(np.diagonal(r, axis1=1, axis2=2)) > 1e-12 * scale[:, None]


def orthonormalize(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the column span; a non-finite basis
    raises BadParameters."""
    basis = np.asarray(basis, float)
    _finite(basis)
    if basis.size == 0:
        return basis.reshape(basis.shape[0], 0)
    q, keep = _qr_columns(basis[None])
    return q[0][:, keep[0]]


def _orth(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, rank) of a stack of matrices, shape (P, n, k), from one thin
    stacked SVD: the first rank[p] columns of u[p] are an orthonormal basis
    of the column span of a[p], whose singular values at or below
    max(n, k) * eps * sigma_max are dropped."""
    u, sing, _ = np.linalg.svd(a, full_matrices=False)
    cutoff = np.amax(sing, axis=-1, initial=0.0) * np.finfo(float).eps * max(a.shape[1:])
    return u, (sing > cutoff[:, None]).sum(axis=-1)


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray | list[np.ndarray]:
    """Principal angles between the column spans, descending: cosines from
    one SVD, and sines from a second for the pairs with cosine^2 >= 1/2,
    where the arccosine loses precision (Knyazev and Argentati, SIAM J. Sci.
    Comput. 23, 2002; the algorithm of scipy.linalg.subspace_angles).

    a and b are matrices, shape (n, ka) and (n, kb), or stacks of them,
    shape (P, n, ka) and (P, n, kb), whose P arrays of angles come as a
    list: the SVDs are stacked, over the points whose spans have the same
    ranks. A non-finite entry raises BadParameters, before any SVD."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    _finite(a, b)
    stacked = a.ndim == 3
    if not stacked:
        a, b = a[None], b[None]
    (ua, rank_a), (ub, rank_b) = _orth(a), _orth(b)
    groups = {}  # the points whose spans have each pair of ranks
    for p, ranks in enumerate(zip(rank_a.tolist(), rank_b.tolist())):
        groups.setdefault(ranks, []).append(p)
    out = [np.zeros(0) for _ in a]
    for (ra, rb), points in groups.items():
        if ra == 0 or rb == 0:  # an empty span has no angles
            continue
        qa, qb = ua[points, :, :ra], ub[points, :, :rb]
        cross = qa.transpose(0, 2, 1) @ qb
        cos = np.linalg.svd(cross, compute_uv=False)
        rest = qb - qa @ cross if ra >= rb else qa - qb @ cross.transpose(0, 2, 1)
        mask = cos**2 >= 0.5
        sin = np.arcsin(np.clip(np.linalg.svd(rest, compute_uv=False), -1.0, 1.0)) \
            if mask.any() else 0.0
        angles = np.where(mask, sin, np.arccos(np.clip(cos[:, ::-1], -1.0, 1.0)))
        for p, row in zip(points, angles):
            out[p] = row
    return out if stacked else out[0]


def subalgebra_residual(algebra: LieAlgebra, basis: np.ndarray) -> float:
    """Largest component of a basis bracket sticking out of the span:
    subalgebra_residuals of one basis."""
    return float(subalgebra_residuals(algebra, [basis])[0])


def subalgebra_residuals(algebra: LieAlgebra, bases: list[np.ndarray]) -> np.ndarray:
    """For each basis of a list, the largest component of a bracket of two
    of its orthonormalized columns sticking out of its span, in list order.
    The bases of one shape take one stacked QR and one set of bracket
    products; the columns the QR drops are zeroed, so their brackets add
    nothing. A non-finite basis raises BadParameters, before any QR."""
    bases = [np.asarray(b, float).reshape(algebra.dim, -1) for b in bases]
    _finite(*bases)
    out = np.zeros(len(bases))
    groups = {}
    for i, basis in enumerate(bases):
        groups.setdefault(basis.shape[1], []).append(i)
    for cols, idx in groups.items():
        if cols < 2:  # no pair of columns
            continue
        q, keep = _qr_columns(np.stack([bases[i] for i in idx]))
        q = q * keep[:, None, :]
        k = q.shape[2]
        # w[p, :, (i, j)] = [q_i, q_j], then its part outside the span
        w = np.einsum("kij,pia,pjb->pkab", algebra.structure, q, q).reshape(len(idx), -1, k * k)
        leak = np.linalg.norm(w - q @ (q.transpose(0, 2, 1) @ w), axis=1)
        upper = np.triu_indices(k, 1)
        out[idx] = leak.reshape(len(idx), k, k)[:, upper[0], upper[1]].max(axis=1)
    return out


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
    prods = np.matmul(mats[:, None], mats[None])
    # every bracket [b_i, b_j] a right-hand side of one least-squares solve
    brackets = (prods - prods.swapaxes(0, 1)).reshape(m * m, -1).T
    cols = np.linalg.lstsq(mats.reshape(m, -1).T, brackets, rcond=None)[0].reshape(m, m, m)
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
def _so_rep(n: int) -> LinearRep:
    """so(n) acting on R^n, derived and checked once per n."""
    so_mats = so_generators(n)
    labels = tuple(f"so.{i + 1}" for i in range(so_mats.shape[0]))
    return LinearRep(algebra_from_matrices(labels, so_mats), so_mats)


def frame_structure_rep(n: int, k_algebra: LieAlgebra | None = None) -> TensorRep:
    """TensorRep for g = so(n) (+ k): so(n) moves frame axes, k moves lie
    axes. so(n) and its rep are shared by every call with this n; the sum
    with k is built on each call."""
    so_rep = _so_rep(n)
    so_alg = so_rep.algebra
    if k_algebra is None:
        return TensorRep(so_alg, so_rep, None)
    g = direct_sum(so_alg, k_algebra)
    m_so = so_alg.dim
    m_k = k_algebra.dim
    vec = np.zeros((m_so + m_k, n, n))
    vec[:m_so] = so_rep.matrices
    lie = np.zeros((m_so + m_k, m_k, m_k))
    ad_k = k_algebra.adjoint_rep().matrices
    lie[m_so:] = ad_k
    return TensorRep(g, LinearRep(g, vec), LinearRep(g, lie))
