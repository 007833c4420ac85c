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
    np.testing.assert_allclose(d.value, [2 * X0[0] * X0[1], X0[0] ** 2])
    dd = jet.shift(d)
    np.testing.assert_allclose(dd.value, [[2 * X0[1], 2 * X0[0]], [2 * X0[0], 0.0]])
    np.testing.assert_array_equal(jet.shift(X).value, np.eye(2))


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
    X = jet.variables(X0, order)
    return jet.array([[2.0 + jet.sin(X[0]), 0.3 * X[1], X[0] * X[1]],
                      [0.3 * X[1], 3.0 + X[1] ** 2, 0.1 * jet.cos(X[0])],
                      [X[0] * X[1], 0.1 * jet.cos(X[0]), 4.0 + jet.exp(X[1])]])


def test_inverse_is_exact_to_the_order():
    g = spd_jet(4)
    ginv = jet.inv(g)
    ident = jet.einsum("ij,jk->ik", g, ginv)
    np.testing.assert_allclose(ident.c, g.lift(np.eye(3)).c, atol=1e-14)
    np.testing.assert_allclose(ginv.value, np.linalg.inv(g.value), rtol=1e-14)


def test_cholesky_factor():
    g = spd_jet(4)
    low = jet.cholesky(g)
    np.testing.assert_allclose(jet.einsum("ij,kj->ik", low, low).c, g.c, atol=1e-14)
    np.testing.assert_allclose(low.value, np.linalg.cholesky(g.value), rtol=1e-14)
    # lower triangular in every coefficient
    assert not np.triu(np.moveaxis(low.c, -1, 0), 1).any()


def test_degrees_are_graded():
    assert jet.size(3, 4) == 35
    deg = jet.degrees(3, 4)
    assert len(deg) == 35 and list(deg) == sorted(deg)
    assert list(deg[:4]) == [0, 1, 1, 1]


def test_tables_are_built_on_first_use():
    """Importing the CLI builds no product or shift table."""
    src = str(Path(jet.__file__).resolve().parents[1])
    code = ("import ambrose.cli\nfrom ambrose import jet\n"
            "print(*(t.cache_info().currsize for t in (jet._product_table, jet._shift_table)))")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0"]
