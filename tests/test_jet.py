"""Tests for the truncated Taylor jets: every coefficient against sympy
derivatives, the matrix inverse and Cholesky factor against their defining
identities and numpy, and the shift, einsum and order bookkeeping."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from ambrose import jet
from ambrose.fixtures import instantiate
from oracles import cholesky, degrees, inv_neumann, product_table_sorted, series_horner

X0 = np.array([0.7, -0.4])


def coefficient_table(expr, symbols, x, order):
    """d^a expr(x) / a! for every multi-index of order <= ``order``, in the
    jet's coefficient order."""
    subs = dict(zip(symbols, x))
    out = []
    for d in range(order + 1):
        for k in range(d, -1, -1):  # a = (k, d - k): the graded order for n = 2
            deriv = sp.diff(expr, symbols[0], k, symbols[1], d - k)
            out.append(float(deriv.subs(subs)) / (math.factorial(k) * math.factorial(d - k)))
    return np.array(out)


@pytest.mark.parametrize("order", [0, 1, 4])
def test_elementary_functions_match_sympy(order):
    a, b = sp.symbols("a b")
    expr = sp.sin(a * b) * sp.exp(b) / (2 + sp.cos(a)) - (a + 2 * b) ** 3
    X = jet.variables(X0, order)
    f = jet.sin(X[0] * X[1]) * jet.exp(X[1]) / (2.0 + jet.cos(X[0])) - (X[0] + 2 * X[1]) ** 3
    assert f.order == order and f.shape == ()
    ref = coefficient_table(expr, (a, b), X0, order)
    assert np.abs(f.c - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def test_shift_lowers_the_order():
    X = jet.variables(X0, 3)
    f = X[0] ** 2 * X[1]
    d = jet.shift(f)
    assert d.shape == (2,) and d.order == 2
    np.testing.assert_allclose(d.value[..., 0], [2 * X0[0] * X0[1], X0[0] ** 2])
    dd = jet.shift(d)
    np.testing.assert_allclose(dd.value[..., 0], [[2 * X0[1], 2 * X0[0]], [2 * X0[0], 0.0]])
    np.testing.assert_array_equal(jet.shift(X).value[..., 0], np.eye(2))


def test_mixed_orders_truncate_to_the_lower():
    X4, X2 = jet.variables(X0, 4), jet.variables(X0, 2)
    s = jet.sin(X4[0]) + X2[1]
    assert s.order == 2
    np.testing.assert_array_equal(s.c, (jet.sin(X2[0]) + X2[1]).c)


def test_einsum_matches_elementwise_products():
    X = jet.variables(X0, 3)
    a = jet.array([[jet.sin(X[0]), X[1]], [1.0, jet.cos(X[1])]])
    b = jet.array([X[0] * X[1], jet.exp(X[0])])
    m = np.array([[2.0, -1.0], [0.5, 3.0]])
    got = jet.einsum("ij,jk,k->i", a, m, b)
    for i in range(2):
        want = sum(a[i, j] * m[j, k] * b[k] for j in range(2) for k in range(2))
        np.testing.assert_allclose(got[i].c, want.c, rtol=1e-14, atol=1e-14)
    three = jet.einsum("i,j,k->ijk", b, b, b)
    np.testing.assert_allclose(three[0, 1, 1].c, (b[0] * b[1] * b[1]).c, rtol=1e-14)


def spd_jet(order):
    return spd(jet.variables(X0, order))


def spd(X):
    return jet.array([[2.0 + jet.sin(X[0]), 0.3 * X[1], X[0] * X[1]],
                      [0.3 * X[1], 3.0 + X[1] ** 2, 0.1 * jet.cos(X[0])],
                      [X[0] * X[1], 0.1 * jet.cos(X[0]), 4.0 + jet.exp(X[1])]])


def test_inverse_is_exact_to_the_order():
    g = spd_jet(4)
    ginv = jet.inv(g)
    ident = jet.einsum("ij,jk->ik", g, ginv)
    np.testing.assert_allclose(ident.c, g.lift(np.eye(3)).c, atol=1e-14)
    np.testing.assert_allclose(ginv.value[..., 0], np.linalg.inv(g.value[..., 0]), rtol=1e-14)


@pytest.mark.parametrize("order", range(9))
def test_inverse_matches_the_neumann_series(order):
    g = spd(jet.variables(POINTS, order))
    want = inv_neumann(g)
    assert np.abs(jet.inv(g).c - want.c).max() <= 1e-14 * np.abs(want.c).max()


def count_cauchy(monkeypatch) -> list[int]:
    """One entry per Cauchy product of two jets, by any jet.einsum."""
    calls = []
    cauchy = jet._cauchy

    def counted(terms, a, b):
        calls.append(1)
        return cauchy(terms, a, b)

    monkeypatch.setattr(jet, "_cauchy", counted)
    return calls


@pytest.mark.parametrize("order", range(9))
def test_inverse_takes_no_more_products_than_the_neumann_series(order, monkeypatch):
    """The factors I + X^(2^j) make 2 * (ceil(log2(K + 1)) - 1) Cauchy
    products where the Neumann series makes K: 2 at K = 3."""
    g = spd(jet.variables(POINTS, order))
    calls = count_cauchy(monkeypatch)
    jet.inv(g)
    ours = len(calls)
    calls.clear()
    inv_neumann(g)
    assert ours <= len(calls) == order
    assert ours == [0, 0, 2, 2, 4, 4, 4, 4, 6][order]


@pytest.mark.parametrize("order", [0, 1, 4])
def test_sincos_matches_sympy(order):
    a, b = sp.symbols("a b")
    arg = a * b + 2 * a - b ** 2
    X = jet.variables(X0, order)
    u = X[0] * X[1] + 2 * X[0] - X[1] ** 2
    s, c = jet.sincos(u)
    for got, expr in ((s, sp.sin(arg)), (c, sp.cos(arg))):
        ref = coefficient_table(expr, (a, b), X0, order)
        assert np.abs(got.c - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
    # sin and cos are sincos's halves, bit for bit
    np.testing.assert_array_equal(jet.sin(u).c, s.c)
    np.testing.assert_array_equal(jet.cos(u).c, c.c)


@pytest.mark.parametrize("order", range(7))
def test_series_match_horner(order):
    """Each function read off one table of powers is its Horner series
    within rounding."""
    X = jet.variables(POINTS, order)
    u = 0.3 * X[0] * X[1] + X[1] + 1.5
    v = u.value
    k = range(order + 1)
    cases = [
        (jet.sin(u), [np.sin(v + 0.5 * i * np.pi) / math.factorial(i) for i in k]),
        (jet.cos(u), [np.cos(v + 0.5 * i * np.pi) / math.factorial(i) for i in k]),
        (jet.exp(u), [np.exp(v) / math.factorial(i) for i in k]),
        (jet.reciprocal(u), [(-1.0 / v) ** i / v for i in k]),
    ]
    for got, coeffs in cases:
        want = series_horner(u, coeffs)
        assert np.abs(got.c - want.c).max() <= 1e-14 * np.abs(want.c).max()


def test_sincos_shares_its_powers(monkeypatch):
    """sincos at order K takes K - 1 products of jets, the powers of its
    argument's nonconstant part, for both functions: a berger_sphere metric
    evaluation at order 4 takes 5, 3 for one sincos of the two stacked
    Euler angles and 2 for the coframe's products of sines and cosines."""
    calls = []
    mul = jet.Jet.__mul__

    def counted(self, other):
        if isinstance(other, jet.Jet):
            calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(jet.Jet, "__mul__", counted)
    jet.sincos(jet.variables(X0, 4)[0])
    assert len(calls) == 3
    calls.clear()
    instantiate("berger_sphere", {}).g.evaluator(jet.variables(np.array([1.0, 1.2, 0.4]), 4))
    assert len(calls) == 5


@pytest.mark.parametrize("order", range(5))
def test_sincos_of_a_stack_is_elementwise(order):
    """sincos of a stacked argument is the sincos of each element, bit for
    bit, at a batch of points."""
    x = jet.variables(np.random.default_rng(order).uniform(-3.0, 3.0, size=(5, 3)), order)
    u = jet.array([[x[0] * x[1], x[2]], [x[1] + 0.5, x[0] * x[2] * x[1]]])
    sines, cosines = jet.sincos(u)
    for i, j in np.ndindex(2, 2):
        s, c = jet.sincos(u[i, j])
        np.testing.assert_array_equal(sines[i, j].c, s.c)
        np.testing.assert_array_equal(cosines[i, j].c, c.c)


def test_cholesky_factor():
    g = spd_jet(4)
    low = cholesky(g)
    np.testing.assert_allclose(jet.einsum("ij,kj->ik", low, low).c, g.c, atol=1e-14)
    np.testing.assert_allclose(low.value[..., 0], np.linalg.cholesky(g.value[..., 0]), rtol=1e-14)
    # lower triangular in every coefficient
    assert not np.triu(np.moveaxis(low.c, (-2, -1), (0, 1)), 1).any()


POINTS = np.array([X0, [0.1, 0.9], [-0.5, 0.3]])


@pytest.mark.parametrize("order", [0, 1, 3])
def test_a_batch_is_its_points_side_by_side(order):
    """A formula over a batch of points runs point by point along the point
    axis: it equals the formula at each point alone. Not always bit for
    bit: numpy's einsum may take another inner loop (with fused
    multiply-adds) for another number of points, so a sum of products can
    differ in its last bit, 1e-15 of the largest coefficient."""

    def formula(X):
        g = spd(X)
        return (jet.einsum("ij,jk->ik", jet.inv(g), cholesky(g))
                * jet.exp(X[1]) / (2.0 + jet.cos(X[0])))

    batch = formula(jet.variables(POINTS, order))
    assert batch.shape == (3, 3) and batch.c.shape == (3, 3, len(POINTS), jet.size(2, order))
    for p, x in enumerate(POINTS):
        single = formula(jet.variables(x, order)).c[..., 0, :]
        assert np.abs(batch.c[..., p, :] - single).max() <= 1e-15 * np.abs(single).max()


def test_einsum_takes_per_point_arrays():
    """An array with one axis more than its subscripts holds one value per
    point; an array with as many axes is the same at every point."""
    X = jet.variables(POINTS, 2)
    per_point = np.random.default_rng(0).normal(size=(2, 2, len(POINTS)))
    const = per_point[..., 0]
    got = jet.einsum("ij,jk,k->i", per_point, const, X)
    for p, x in enumerate(POINTS):
        want = jet.einsum("ij,jk,k->i", per_point[..., p], const, jet.variables(x, 2))
        np.testing.assert_allclose(got.c[..., p, :], want.c[..., 0, :], rtol=1e-15)


def test_truncation_reads_a_lower_order():
    """The jets are graded: truncating a jet gives the coefficients of the
    lower-order jet of the same formula."""
    g4, g2 = spd(jet.variables(POINTS, 4)), spd(jet.variables(POINTS, 2))
    np.testing.assert_allclose(jet.inv(g4).truncate(2).c, jet.inv(g2).c, rtol=1e-13, atol=1e-15)


def test_products_in_blocks_are_the_same(monkeypatch):
    """A Cauchy product too large for one temporary is taken in blocks of
    output coefficients, each summed over its pairs in the same order: bit
    for bit the same jet."""
    g = spd(jet.variables(POINTS, 3))
    whole = jet.einsum("ij,kl->ijkl", g, g)
    monkeypatch.setattr(jet, "PRODUCT_BLOCK", 500)
    np.testing.assert_array_equal(jet.einsum("ij,kl->ijkl", g, g).c, whole.c)


def test_degrees_are_graded():
    assert jet.size(3, 4) == 35
    deg = degrees(3, 4)
    assert len(deg) == 35 and list(deg) == sorted(deg)
    assert list(deg[:4]) == [0, 1, 1, 1]


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_product_table_equals_the_sorted_pairs(n):
    """The table from each sum's sub-multi-indices is the one from sorting
    every pair of multi-indices, orders 0 to 6."""
    for order in range(7):
        got, want = jet._product_table(n, order), product_table_sorted(n, order)
        for a, b in zip(got[:3], want[:3], strict=True):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype
        assert got[3] == want[3]


def test_tables_are_built_on_first_use():
    """Importing the CLI builds no product or shift table."""
    src = str(Path(jet.__file__).resolve().parents[1])
    code = ("import ambrose.cli\nfrom ambrose import jet\n"
            "print(*(t.cache_info().currsize for t in (jet._product_table, jet._shift_table)))")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0"]
