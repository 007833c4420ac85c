"""Truncated multivariate Taylor jets.

A jet of order K in n variables holds, for each entry of a value array and
each point x of a batch, the Taylor coefficients f_a = d^a f(x) / a! over
the multi-indices |a| <= K, on the last axis of an ndarray. The
multi-indices are graded: the constant term, then e_0 .. e_{n-1}, then the
order-2 ones, and so on, so the jet of a lower order is a prefix of the
coefficient axis. A product is the Cauchy product over the pairs (a, b)
with |a + b| <= K; that table is built on first use and cached per (n, K)
(Griewank, Utke and Walther, Math. Comp. 69, 2000; Bettencourt, Johnson and
Duvenaud, "Taylor-mode automatic differentiation for higher-order
derivatives", 2019). A large product goes in blocks of whole coefficients,
``_blocked_product``, which ``einsum`` and tensor_core.axis_action share.

A jet holds a batch of P points at once. ``Jet.c`` has shape
``value_shape + (P, ncoef)``: the value axes lead, then the point axis, then
the coefficient axis, so a formula indexes and contracts the value axes
alone and runs over every point of the batch in each numpy call; a single
point is a batch of one. ``einsum`` takes, beside jets, constant arrays
(one value for every point) and per-point arrays, which carry the point
axis after their value axes.
"""

from __future__ import annotations

import bisect
import itertools
import math
import string
from functools import lru_cache

import numpy as np

# most elements a pairwise Cauchy product of einsum holds at a time
PRODUCT_BLOCK = 1 << 21


@lru_cache(maxsize=None)
def _indices(n: int, order: int) -> tuple[tuple[int, ...], ...]:
    """The multi-indices of order <= ``order``, graded."""
    return tuple(tuple(c.count(mu) for mu in range(n)) for d in range(order + 1)
                 for c in itertools.combinations_with_replacement(range(n), d))


def size(n: int, order: int) -> int:
    """Number of multi-indices of order <= ``order`` in n variables."""
    return math.comb(n + order, n)


# The tables are built in plain Python: the numpy sorting and searching
# routines would map about 0.8 MB more of the library on first use.
@lru_cache(maxsize=None)
def _product_table(n: int, order: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """(i, j, starts, bounds): the pairs of coefficient indices whose
    multi-indices sum to order <= ``order``, sorted by the index of the sum
    and then by i, the first pair of each sum, and those firsts followed by
    the pair count. The pairs of a sum c are its sub-multi-indices a, in
    graded order, each with c - a, so the table takes time in proportion to
    its pairs."""
    idx = _indices(n, order)
    pos = {a: k for k, a in enumerate(idx)}
    i, j, starts = [], [], []
    for c in idx:
        starts.append(len(i))
        subs = sorted([pos[a] for a in itertools.product(*[range(m + 1) for m in c])])
        i.extend(subs)
        j.extend([pos[tuple([p - q for p, q in zip(c, idx[k])])] for k in subs])
    return np.array(i), np.array(j), np.array(starts), (*starts, len(i))


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
    """Value array with its Taylor coefficients at each point of a batch:
    c[..., p, a] for point p and multi-index a."""

    __array_ufunc__ = None  # numpy operators defer to the Jet ones

    def __init__(self, c: np.ndarray, n: int, order: int):
        self.c = c
        self.n = n
        self.order = order

    @property
    def shape(self) -> tuple[int, ...]:
        return self.c.shape[:-2]

    @property
    def value(self) -> np.ndarray:
        """The values, shape ``shape + (P,)``."""
        return self.c[..., 0]

    def lift(self, a) -> "Jet":
        """The constant array a, the same at every point, as a jet in the same
        variables, points and order."""
        a = np.asarray(a, float)
        c = np.zeros(a.shape + self.c.shape[-2:])
        c[..., 0] = a[..., None]
        return Jet(c, self.n, self.order)

    def truncate(self, order: int) -> "Jet":
        return self if order >= self.order else Jet(
            self.c[..., :size(self.n, order)], self.n, order)

    def __getitem__(self, item) -> "Jet":
        item = item if isinstance(item, tuple) else (item,)
        return Jet(self.c[item + (slice(None), slice(None))], self.n, self.order)

    def transpose(self, *axes: int) -> "Jet":
        return Jet(self.c.transpose(*axes, len(axes), len(axes) + 1), self.n, self.order)

    def _pair(self, other: "Jet") -> tuple["Jet", "Jet"]:
        k = min(self.order, other.order)
        return self.truncate(k), other.truncate(k)

    def __add__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            other = np.asarray(other, float)
            shape = np.broadcast_shapes(self.c.shape, other.shape + (1, 1))
            c = np.array(np.broadcast_to(self.c, shape))
            c[..., 0] += other[..., None]
            return Jet(c, self.n, self.order)
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
            return Jet(self.c * np.asarray(other, float)[..., None, None], self.n, self.order)
        a, b = self._pair(other)
        i, j, starts, _ = _product_table(a.n, a.order)
        # gathered by take, C-ordered (see _cauchy)
        return Jet(np.add.reduceat(a.c.take(i, axis=-1) * b.c.take(j, axis=-1), starts, axis=-1),
                   a.n, a.order)

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
    """The coordinates themselves as a jet at the points x, shape (P, n), or
    at the single point x, shape (n,): entry mu is x_mu + e_mu."""
    x = np.atleast_2d(np.asarray(x, float))
    count, n = x.shape
    c = np.zeros((n, count, size(n, order)))
    c[..., 0] = x.T
    if order:
        c[..., 1:n + 1] = np.eye(n)[:, None, :]
    return Jet(c, n, order)


def _embed(f: Jet, n: int) -> Jet:
    """f, a jet in f.n variables, as a jet in the first f.n of n variables:
    its partials along the others are 0."""
    pos = {a: k for k, a in enumerate(_indices(n, f.order))}
    c = np.zeros(f.c.shape[:-1] + (size(n, f.order),))
    c[..., [pos[a + (0,) * (n - f.n)] for a in _indices(f.n, f.order)]] = f.c
    return Jet(c, n, f.order)


def array(rows) -> Jet:
    """A jet from a nested list of jets and numbers, like np.array; the
    order is the lowest among the jets."""
    items = np.array(rows, dtype=object)
    ref = min((v for v in items.flat if isinstance(v, Jet)), key=lambda j: j.order)
    cs = [(v if isinstance(v, Jet) else ref.lift(v)).truncate(ref.order).c for v in items.flat]
    return Jet(np.stack(cs).reshape(items.shape + cs[0].shape), ref.n, ref.order)


def shift(f: Jet) -> Jet:
    """Every partial d_mu f, stacked on a new leading axis, one order lower."""
    src, factor = _shift_table(f.n, f.order)
    c = f.c[..., src] * factor
    # np.moveaxis(c, -2, 0) by an axes list (see points_first)
    return Jet(c.transpose([c.ndim - 2, *range(c.ndim - 2), c.ndim - 1]), f.n, f.order - 1)


@lru_cache(maxsize=None)
def _einsum_plan(spec: str, ndims: tuple[int | None, ...]
                 ) -> tuple[list[tuple[int, int, str, bool]], str | None]:
    """The steps and the final contraction of an einsum whose operands have
    these numbers of axes (None for a jet); the final contraction is None
    where it would be the identity. A jet gets a point and a coefficient
    letter, a per-point array (one axis more than its subscripts) a point
    letter, a constant array none. First each array
    that shares an index with a jet and with nothing else is contracted into
    that jet (a plain einsum, which sums the index away before any Cauchy
    product); then the jets multiply two at a time (Cauchy products); each
    step is (kept operand, dropped operand, subscripts, is a Cauchy
    product)."""
    ins, out = spec.replace(" ", "").split("->")
    subs = ins.split(",")
    kinds = ["jet" if d is None else "point" if "." not in s and d == len(s) + 1 else "const"
             for s, d in zip(subs, ndims)]
    free = iter(sorted(set(string.ascii_letters) - set(spec)))
    z, q = next(free), next(free)
    tail = {"jet": q + z, "point": q, "const": ""}
    steps = []

    def others(a: int, b: int) -> str:
        return "".join(s for i, s in enumerate(subs) if i not in (a, b)) + out

    def contract(a: int, b: int, cauchy: bool) -> None:
        rest = others(a, b)
        keep = "".join(dict.fromkeys(ch for ch in subs[a] + subs[b] if ch in rest))
        if cauchy:  # over the value axes: _cauchy adds the point and pair axes
            sub = f"{subs[a]},{subs[b]}->{keep}"
        else:
            sub = f"{subs[a]}{q}{z},{subs[b]}{tail[kinds[b]]}->{keep}{q}{z}"
        steps.append((a, b, sub, cauchy))
        subs[a] = keep
        del subs[b], kinds[b]

    def fold() -> tuple[int, int] | None:
        for b, kb in enumerate(kinds):
            if kb == "jet" or "." in subs[b]:
                continue
            for a, ka in enumerate(kinds):
                if ka == "jet" and any(ch in subs[a] and ch not in others(a, b) for ch in subs[b]):
                    return a, b
        return None

    while (pair := fold()) is not None:
        contract(*pair, cauchy=False)
    while kinds.count("jet") > 1:
        contract(*[i for i, k in enumerate(kinds) if k == "jet"][:2], cauchy=True)
    terms = ",".join([s + tail[k] for s, k in zip(subs, kinds)])
    # None where one jet is left with its axes in place: it is the result
    return steps, None if terms == out + q + z else terms + "->" + out + q + z


@lru_cache(maxsize=None)
def _pair_subscripts(sub: str) -> str:
    """An einsum over value axes as one over (value, point, pair) axes."""
    q, p = sorted(set(string.ascii_letters) - set(sub))[:2]
    ins, res = sub.split("->")
    sa, sb = ins.split(",")
    return f"{sa}{q}{p},{sb}{q}{p}->{res}{q}{p}"


def _blocked_product(n: int, order: int, per_pair: int, product, axis: int = -1) -> np.ndarray:
    """A Cauchy product of order ``order`` in n variables, in blocks of
    whole output coefficients: product(i, j, starts) gives a block's
    coefficients on axis ``axis`` from its pairs (i, j) of coefficient
    indices, each coefficient's pairs from its offset in ``starts`` to the
    next. A block holds as many pairs as keep per_pair elements a pair
    within about PRODUCT_BLOCK, and one coefficient at the least, so a small
    product is one block; each coefficient sums the same pairs in the same
    order whatever the blocks."""
    i, j, starts, bounds = _product_table(n, order)
    limit = PRODUCT_BLOCK // max(per_pair, 1)  # pairs per block
    if len(i) <= limit:  # one block
        return product(i, j, starts)
    out, lo = None, 0
    while lo < len(starts):
        # the most whole coefficients from lo whose pairs fit, at least one
        hi = max(bisect.bisect_right(bounds, bounds[lo] + limit) - 1, lo + 1)
        pairs = slice(bounds[lo], bounds[hi])
        block = product(i[pairs], j[pairs], starts[lo:hi] - bounds[lo])
        if out is None:
            shape = list(block.shape)
            shape[axis] = len(starts)
            out = np.empty(shape)
        out[(slice(None),) * (axis % block.ndim) + (slice(lo, hi),)] = block
        lo = hi
    return out


def _cauchy(sub: str, a: Jet, b: Jet) -> Jet:
    """The Cauchy product of two jets of one order over einsum(sub) of their
    value axes, in the blocks of _blocked_product: the gathered operands and
    the einsum of a block held at a time."""
    # gathered by take from C-ordered copies, the point and pair axes are
    # the innermost of each gathered operand, and einsum is many times
    # slower otherwise: an index array on the last axis (ac[..., i]) lays
    # the pair axis outermost in memory
    ac, bc = np.ascontiguousarray(a.c), np.ascontiguousarray(b.c)
    spec = _pair_subscripts(sub)
    ins, res = sub.split("->")
    sa, sb = ins.split(",")
    dims = {**dict(zip(sa, ac.shape)), **dict(zip(sb, bc.shape))}
    per_pair = max(ac[..., 0].size, bc[..., 0].size,
                   ac.shape[-2] * math.prod(dims[ch] for ch in res))

    def product(i, j, starts):
        return np.add.reduceat(np.einsum(spec, ac.take(i, axis=-1), bc.take(j, axis=-1)),
                               starts, axis=-1)

    return Jet(_blocked_product(a.n, a.order, per_pair, product), a.n, a.order)


def einsum(spec: str, *ops) -> Jet | np.ndarray:
    """np.einsum over the value axes of jets, constant arrays and per-point
    arrays, point by point; the coefficient axes of jets multiply as Cauchy
    products, two at a time (see _einsum_plan). Without a jet among the
    operands it is np.einsum."""
    if not any(isinstance(o, Jet) for o in ops):
        return np.einsum(spec, *ops)
    # the key from a list: a tuple built from a generator is resized after
    # it is filled, so it skips the tuple free list when made but joins it
    # when freed, and that list grows to its cap of 2000 per length
    steps, final = _einsum_plan(spec, tuple([None if isinstance(o, Jet) else np.ndim(o)
                                             for o in ops]))
    ops = list(ops)
    for a, b, sub, cauchy in steps:
        ja = ops[a]
        ops[a] = (_cauchy(sub, *ja._pair(ops[b])) if cauchy
                  else Jet(np.einsum(sub, ja.c, ops[b]), ja.n, ja.order))
        del ops[b]
    if final is None:
        return ops[0]
    jet = next(o for o in ops if isinstance(o, Jet))
    return Jet(np.einsum(final, *(o.c if isinstance(o, Jet) else o for o in ops)),
               jet.n, jet.order)


def _nilpotent(u: Jet) -> Jet:
    """u - u(x): the jet without its constant term."""
    c = u.c.copy()
    c[..., 0] = 0.0
    return Jet(c, u.n, u.order)


def _powers(u: Jet) -> list[Jet]:
    """[h, h^2, .., h^K] with h = u - u(x) and K the jet's order, each power
    the one below times h: K - 1 products, the table every function of u
    reads."""
    powers = [_nilpotent(u)]
    for _ in range(u.order - 1):
        powers.append(powers[-1] * powers[0])
    return powers


def _series(u: Jet, powers: list[Jet], coeffs: list[np.ndarray]) -> Jet:
    """sum_k coeffs[k] h^k, elementwise, from per-point coefficients and one
    table of powers h^0..h^K of h = u - u(x) (h^0 = 1, the rest _powers(u)):
    exact to the jet's order because h^(K+1) = 0. Each term scales its power
    and makes no product, so every function of one argument shares that
    argument's K - 1 products (Griewank and Walther, Evaluating Derivatives,
    SIAM 2008, ch. 13)."""
    c = np.zeros_like(u.c)
    c[..., 0] = coeffs[0]
    for coeff, power in zip(coeffs[1:], powers):
        c += coeff[..., None] * power.c
    return Jet(c, u.n, u.order)


def sincos(u: Jet) -> tuple[Jet, Jet]:
    """(sin u, cos u) from one table of powers: the k-th derivative of sin
    at u(x) is cycle[k % 4] and that of cos cycle[(k + 1) % 4], the cycle
    sin, cos, -sin, -cos."""
    s, c = np.sin(u.value), np.cos(u.value)
    cycle = [s, c, -s, -c]
    powers = _powers(u)
    return (_series(u, powers, [cycle[k % 4] / math.factorial(k) for k in range(u.order + 1)]),
            _series(u, powers, [cycle[(k + 1) % 4] / math.factorial(k)
                                for k in range(u.order + 1)]))


def sin(u: Jet) -> Jet:
    return sincos(u)[0]


def cos(u: Jet) -> Jet:
    return sincos(u)[1]


def exp(u: Jet) -> Jet:
    e = np.exp(u.value)
    return _series(u, _powers(u), [e / math.factorial(k) for k in range(u.order + 1)])


def reciprocal(u: Jet) -> Jet:
    r = 1.0 / u.value
    return _series(u, _powers(u), [(-r) ** k * r for k in range(u.order + 1)])


def points_first(a: np.ndarray) -> np.ndarray:
    """The view of a with its last (point) axis first, as np.moveaxis(a, -1,
    0) gives it, by an axes list: moveaxis normalizes its axes through
    tuples built from a generator, which fill CPython's free list of
    one-element tuples on every call."""
    return a.transpose([a.ndim - 1, *range(a.ndim - 1)])


def points_last(a: np.ndarray) -> np.ndarray:
    """The view of a with its first (point) axis last: points_first undone."""
    return a.transpose([*range(1, a.ndim), 0])


def stacked(fn, a: np.ndarray) -> np.ndarray:
    """A numpy.linalg function of matrices over per-point matrices a, shape
    (d, d, P), in one stacked call."""
    return points_last(fn(points_first(a)))


def inv(a: Jet) -> Jet:
    """Inverse of a jet of square matrices (value shape (d, d)): with
    A = A0 + H and X = -A0^-1 H, whose powers past the jet's order K vanish,
    A^-1 = (sum_{k<=K} X^k) A0^-1, and that sum is the product of the
    factors I + X^(2^j) for 2^j <= K: one squaring and one product per
    factor past the first, 2 Cauchy products at K = 3 where the Neumann
    series takes 3 (Griewank and Walther, Evaluating Derivatives, SIAM 2008,
    ch. 13)."""
    a0inv = stacked(np.linalg.inv, a.value)
    eye = np.eye(len(a0inv))
    x = -einsum("ij,jk->ik", a0inv, _nilpotent(a))
    out, power, span = x + eye, x, 2  # out = sum_{k<span} X^k, power = X^(span/2)
    while span <= a.order:
        power = einsum("ij,jk->ik", power, power)
        out = out + einsum("ij,jk->ik", out, power)
        span *= 2
    return einsum("ij,jk->ik", out, a0inv)
