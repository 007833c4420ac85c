"""Truncated multivariate Taylor jets.

A jet of order K in n variables holds, for each entry of a value array, the
Taylor coefficients f_a = d^a f(x) / a! over the multi-indices |a| <= K, on
the last axis of an ndarray. The multi-indices are graded: the constant term,
then e_0 .. e_{n-1}, then the order-2 ones, and so on, so the jet of a lower
order is a prefix of the coefficient axis. A product is the Cauchy product
over the pairs (a, b) with |a + b| <= K; that table is built on first use and
cached per (n, K) (Griewank, Utke and Walther, Math. Comp. 69, 2000;
Bettencourt, Johnson and Duvenaud, "Taylor-mode automatic differentiation
for higher-order derivatives", 2019).

Value axes lead and the coefficient axis is last, so contractions with
constant arrays are plain numpy on ``Jet.c``.
"""

from __future__ import annotations

import math
import string
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np


@lru_cache(maxsize=None)
def _indices(n: int, order: int) -> tuple[tuple[int, ...], ...]:
    """The multi-indices of order <= ``order``, graded."""
    return tuple(tuple(c.count(mu) for mu in range(n)) for d in range(order + 1)
                 for c in combinations_with_replacement(range(n), d))


def size(n: int, order: int) -> int:
    """Number of multi-indices of order <= ``order`` in n variables."""
    return math.comb(n + order, n)


def degrees(n: int, order: int) -> np.ndarray:
    """The order |a| of each multi-index, in coefficient order."""
    return np.array([sum(a) for a in _indices(n, order)])


# The tables are built in plain Python: the numpy sorting and searching
# routines would map about 0.8 MB more of the library on first use.
@lru_cache(maxsize=None)
def _product_table(n: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, starts): the pairs of coefficient indices whose multi-indices
    sum to order <= ``order``, sorted by the index of the sum, and the first
    pair of each sum."""
    idx = _indices(n, order)
    pos = {a: k for k, a in enumerate(idx)}
    pairs = sorted((pos[tuple(p + q for p, q in zip(a, b))], i, j)
                   for i, a in enumerate(idx) for j, b in enumerate(idx)
                   if sum(a) + sum(b) <= order)
    starts = [p for p, (k, _, _) in enumerate(pairs) if p == 0 or pairs[p - 1][0] != k]
    _, i, j = zip(*pairs)
    return np.array(i), np.array(j), np.array(starts)


@lru_cache(maxsize=None)
def _shift_table(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, factor), each (n, size(n, order - 1)): coefficient a of d_mu f
    is factor[mu, a] f[src[mu, a]], factor = a_mu + 1."""
    idx = _indices(n, order)
    pos = {a: k for k, a in enumerate(idx)}
    low = idx[:size(n, order - 1)]
    src = [[pos[a[:mu] + (a[mu] + 1,) + a[mu + 1:]] for a in low] for mu in range(n)]
    return np.array(src), np.array([[a[mu] + 1.0 for a in low] for mu in range(n)])


class Jet:
    """Value array with its Taylor coefficients: c[..., a] for multi-index a."""

    __array_ufunc__ = None  # numpy operators defer to the Jet ones

    def __init__(self, c: np.ndarray, n: int, order: int):
        self.c = c
        self.n = n
        self.order = order

    @property
    def shape(self) -> tuple[int, ...]:
        return self.c.shape[:-1]

    @property
    def value(self) -> np.ndarray:
        return self.c[..., 0]

    def lift(self, a) -> "Jet":
        """The constant array a as a jet in the same variables and order."""
        a = np.asarray(a, float)
        c = np.zeros(a.shape + (size(self.n, self.order),))
        c[..., 0] = a
        return Jet(c, self.n, self.order)

    def truncate(self, order: int) -> "Jet":
        return self if order >= self.order else Jet(
            self.c[..., :size(self.n, order)], self.n, order)

    def __getitem__(self, item) -> "Jet":
        item = item if isinstance(item, tuple) else (item,)
        return Jet(self.c[item + (slice(None),)], self.n, self.order)

    def transpose(self, *axes: int) -> "Jet":
        return Jet(self.c.transpose(*axes, len(axes)), self.n, self.order)

    def _pair(self, other) -> tuple["Jet", "Jet"]:
        other = other if isinstance(other, Jet) else self.lift(other)
        k = min(self.order, other.order)
        return self.truncate(k), other.truncate(k)

    def __add__(self, other) -> "Jet":
        a, b = self._pair(other)
        return Jet(a.c + b.c, a.n, a.order)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(-self.c, self.n, self.order)

    def __sub__(self, other) -> "Jet":
        return self + (-other)

    def __rsub__(self, other) -> "Jet":
        return -self + other

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.c * np.asarray(other, float)[..., None], self.n, self.order)
        a, b = self._pair(other)
        i, j, starts = _product_table(a.n, a.order)
        return Jet(np.add.reduceat(a.c[..., i] * b.c[..., j], starts, axis=-1), a.n, a.order)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        return self * (reciprocal(other) if isinstance(other, Jet) else 1.0 / np.asarray(other))

    def __rtruediv__(self, other) -> "Jet":
        return reciprocal(self) * other

    def __pow__(self, p: int) -> "Jet":
        """A positive integer power, by repeated products."""
        out = self
        for _ in range(p - 1):
            out = out * self
        return out


def variables(x: np.ndarray, order: int) -> Jet:
    """The coordinates themselves as a jet at x: entry mu is x_mu + e_mu."""
    x = np.asarray(x, float)
    n = len(x)
    c = np.zeros((n, size(n, order)))
    c[:, 0] = x
    if order:
        c[:, 1:n + 1] = np.eye(n)
    return Jet(c, n, order)


def array(rows) -> Jet:
    """A jet from a nested list of jets and numbers, like np.array; the
    order is the lowest among the jets."""
    items = np.array(rows, dtype=object)
    ref = min((v for v in items.flat if isinstance(v, Jet)), key=lambda j: j.order)
    cs = [(v if isinstance(v, Jet) else ref.lift(v)).truncate(ref.order).c for v in items.flat]
    return Jet(np.stack(cs).reshape(*items.shape, -1), ref.n, ref.order)


def shift(f: Jet) -> Jet:
    """Every partial d_mu f, stacked on a new leading axis, one order lower."""
    src, factor = _shift_table(f.n, f.order)
    c = f.c[..., src] * factor
    return Jet(np.moveaxis(c, -2, 0), f.n, f.order - 1)


def einsum(spec: str, *ops) -> Jet | np.ndarray:
    """np.einsum over the value axes of jets and constant arrays; the
    coefficient axes of jets multiply as Cauchy products, two at a time.
    Without a jet among the operands it is np.einsum."""
    if not any(isinstance(o, Jet) for o in ops):
        return np.einsum(spec, *ops)
    ins, out = spec.replace(" ", "").split("->")
    subs = ins.split(",")
    ops = list(ops)
    free = iter(sorted(set(string.ascii_letters) - set(spec)))
    z, p = next(free), next(free)
    while sum(isinstance(o, Jet) for o in ops) > 1:
        a, b = [i for i, o in enumerate(ops) if isinstance(o, Jet)][:2]
        rest = "".join(s for i, s in enumerate(subs) if i not in (a, b)) + out
        keep = "".join(dict.fromkeys(ch for ch in subs[a] + subs[b] if ch in rest))
        ja, jb = ops[a]._pair(ops[b])
        i, j, starts = _product_table(ja.n, ja.order)
        c = np.einsum(f"{subs[a]}{p},{subs[b]}{p}->{keep}{p}", ja.c[..., i], jb.c[..., j])
        ops[a] = Jet(np.add.reduceat(c, starts, axis=-1), ja.n, ja.order)
        subs[a] = keep
        del ops[b], subs[b]
    jet = next(o for o in ops if isinstance(o, Jet))
    terms = [s + z if isinstance(o, Jet) else s for s, o in zip(subs, ops)]
    args = [o.c if isinstance(o, Jet) else o for o in ops]
    return Jet(np.einsum(",".join(terms) + "->" + out + z, *args), jet.n, jet.order)


def _series(u: Jet, coeffs: list[np.ndarray]) -> Jet:
    """sum_k coeffs[k] h^k with h = u - u(x), elementwise, by Horner; exact
    to the jet's order because h^(K+1) = 0."""
    h = u - u.value
    out = u.lift(coeffs[u.order])
    for k in range(u.order - 1, -1, -1):
        out = h * out + coeffs[k]
    return out


def sin(u: Jet) -> Jet:
    return _series(u, [np.sin(u.value + 0.5 * k * np.pi) / math.factorial(k)
                       for k in range(u.order + 1)])


def cos(u: Jet) -> Jet:
    return _series(u, [np.cos(u.value + 0.5 * k * np.pi) / math.factorial(k)
                       for k in range(u.order + 1)])


def exp(u: Jet) -> Jet:
    e = np.exp(u.value)
    return _series(u, [e / math.factorial(k) for k in range(u.order + 1)])


def reciprocal(u: Jet) -> Jet:
    r = 1.0 / u.value
    return _series(u, [(-r) ** k * r for k in range(u.order + 1)])


def inv(a: Jet) -> Jet:
    """Inverse of a jet of square matrices (value shape (d, d)): with
    A = A0 + H, A^-1 = sum_k (-A0^-1 H)^k A0^-1, a finite Neumann series."""
    a0inv = np.linalg.inv(a.value)
    x = -einsum("ij,jk->ik", a0inv, a - a.value)
    out = a.lift(np.eye(len(a0inv)))
    for _ in range(a.order):
        out = einsum("ij,jk->ik", x, out) + np.eye(len(a0inv))
    return einsum("ij,jk->ik", out, a0inv)


def cholesky(g: Jet) -> Jet:
    """Lower Cholesky factor of a jet of symmetric positive definite
    matrices: G = L0 (I + P) L0^T, and I + P = (I + N)(I + N)^T with N lower
    triangular and no constant term, solved one order at a time."""
    l0 = np.linalg.cholesky(g.value)
    l0inv = np.linalg.inv(l0)
    pert = einsum("ij,jk,lk->il", l0inv, g - g.value, l0inv)
    deg = degrees(g.n, g.order)
    d = len(l0)
    lower = np.tril(np.ones((d, d)), -1) + 0.5 * np.eye(d)
    n_jet = g.lift(np.zeros((d, d)))
    for k in range(1, g.order + 1):
        q = pert - einsum("ij,kj->ik", n_jet, n_jet)
        n_jet = n_jet + Jet(q.c * (deg == k) * lower[..., None], g.n, g.order)
    return einsum("ij,jk->ik", l0, n_jet + np.eye(d))
