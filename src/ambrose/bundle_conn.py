"""Principal connections in a fixed local trivialization.

A connection form holds one structure-algebra element per coordinate
direction.  Adjoint-valued tensors use the lie axis marker; the algebra acts
on those axes through ad, while manifold axes receive the usual linear
connection corrections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chart_calculus import (
    Chart,
    ConnectionCoeffs,
    TensorFieldSpec,
    covariant_derivative,
    covariant_derivative_field,
    fd_partials,
    nan_max,
)
from .errors import RepMismatch
from .lie_core import LieAlgebra
from .tensor_core import DOWN, LIE, DenseTensor, axis_action


@dataclass(frozen=True)
class LocalConnectionForm:
    """Algebra-valued local connection form: evaluator(x)[mu] over directions;
    optional analytic partials return out[nu, mu] = d_nu of the mu-th row."""

    chart: Chart
    algebra: LieAlgebra
    evaluator: Callable[[np.ndarray], np.ndarray]
    partial_evaluator: Callable[[np.ndarray], np.ndarray] | None = None

    def at(self, x: np.ndarray) -> np.ndarray:
        a = np.asarray(self.evaluator(np.asarray(x, float)), float)
        if a.shape != (self.chart.dim, self.algebra.dim):
            raise RepMismatch(
                f"form evaluator returned shape {a.shape}, "
                f"expected {(self.chart.dim, self.algebra.dim)}"
            )
        return a

    def partial_at(self, x: np.ndarray) -> np.ndarray:
        if self.partial_evaluator is not None:
            return np.asarray(self.partial_evaluator(np.asarray(x, float)), float)
        return fd_partials(self.evaluator, self.chart, x)

    def ad_at(self, x: np.ndarray) -> np.ndarray:
        """ad(a_mu) for each direction mu: the form's action on lie axes."""
        return np.stack([self.algebra.ad(v) for v in self.at(x)])

    def shifted(self, alpha: TensorFieldSpec) -> "LocalConnectionForm":
        """The connection form plus an adjoint-valued 1-form."""
        if alpha.markers != (DOWN, LIE):
            raise RepMismatch("shift must be an adjoint-valued 1-form")
        partial = None
        if self.partial_evaluator is not None and alpha.partial_evaluator is not None:
            partial = lambda x: self.partial_at(x) + alpha.partial_at(x)
        return LocalConnectionForm(
            chart=self.chart,
            algebra=self.algebra,
            evaluator=lambda x: self.at(x) + alpha.at(x).data,
            partial_evaluator=partial,
        )


def form_difference(a1: LocalConnectionForm,
                    a0: LocalConnectionForm) -> TensorFieldSpec:
    """a1 - a0 as an adjoint-valued 1-form field."""
    if a1.algebra is not a0.algebra and a1.algebra.labels != a0.algebra.labels:
        raise RepMismatch("connection forms live over different algebras")
    partial = None
    if a1.partial_evaluator is not None and a0.partial_evaluator is not None:
        partial = lambda x: a1.partial_at(x) - a0.partial_at(x)
    return TensorFieldSpec(
        chart=a1.chart,
        markers=(DOWN, LIE),
        evaluator=lambda x: DenseTensor((DOWN, LIE), a1.at(x) - a0.at(x)),
        partial_evaluator=partial,
    )


@dataclass(frozen=True)
class SectionSpec:
    """Tuple of tensor fields sharing a chart."""

    chart: Chart
    fields: tuple[TensorFieldSpec, ...]


def assoc_covariant_field(a: LocalConnectionForm, gamma: ConnectionCoeffs,
                          t: TensorFieldSpec) -> TensorFieldSpec:
    """Field wrapper for nesting mixed covariant derivatives."""
    return covariant_derivative_field(gamma, t, a.ad_at)


def curvature_form(a: LocalConnectionForm, x: np.ndarray) -> DenseTensor:
    """F[mu, nu] = d_mu a_nu - d_nu a_mu + [a_mu, a_nu], adjoint-valued."""
    x = np.asarray(x, float)
    da = a.partial_at(x)
    av = a.at(x)
    br = np.einsum("kij,mi,nj->mnk", a.algebra.structure, av, av)
    f = da - da.transpose(1, 0, 2) + br
    return DenseTensor((DOWN, DOWN, LIE), f)


def curvature_form_field(a: LocalConnectionForm) -> TensorFieldSpec:
    return TensorFieldSpec(
        chart=a.chart,
        markers=(DOWN, DOWN, LIE),
        evaluator=lambda x: curvature_form(a, x),
    )


def exterior_cov_derivative(a: LocalConnectionForm, alpha: TensorFieldSpec,
                            x: np.ndarray) -> DenseTensor:
    """d^A alpha for an adjoint-valued 1-form; coordinate brackets vanish."""
    if alpha.markers != (DOWN, LIE):
        raise RepMismatch("exterior_cov_derivative expects an adjoint-valued 1-form")
    x = np.asarray(x, float)
    dal = alpha.partial_at(x)
    av = a.at(x)
    alv = alpha.at(x).data
    br = np.einsum("kij,mi,nj->mnk", a.algebra.structure, av, alv)
    d = dal - dal.transpose(1, 0, 2) + br - br.transpose(1, 0, 2)
    return DenseTensor((DOWN, DOWN, LIE), d)


def bianchi_residual(a: LocalConnectionForm, x: np.ndarray) -> float:
    """Cyclic-sum norm of the covariant exterior derivative of F at x."""
    x = np.asarray(x, float)
    av = a.at(x)
    fv = curvature_form(a, x).data
    df = fd_partials(lambda p: curvature_form(a, p).data, a.chart, x)
    cov = df + np.einsum("kij,mi,nlj->mnlk", a.algebra.structure, av, fv)
    cyc = cov + cov.transpose(1, 2, 0, 3) + cov.transpose(2, 0, 1, 3)
    return float(np.linalg.norm(cyc))


def curvature_variation_check(a: LocalConnectionForm, alpha: TensorFieldSpec,
                              x: np.ndarray) -> float:
    """Residual of F^{a+alpha} = F^a + d^a alpha + [alpha wedge alpha]/2."""
    x = np.asarray(x, float)
    shifted = a.shifted(alpha)
    f1 = curvature_form(shifted, x).data
    f0 = curvature_form(a, x).data
    d = exterior_cov_derivative(a, alpha, x).data
    alv = alpha.at(x).data
    quad = np.einsum("kij,mi,nj->mnk", a.algebra.structure, alv, alv)
    return float(np.linalg.norm(f1 - f0 - d - quad))


def connection_variation_check(eta: SectionSpec, a: LocalConnectionForm,
                               a_prime: LocalConnectionForm,
                               gamma: ConnectionCoeffs, x: np.ndarray) -> float:
    """Residual of the variation formula: del' eta = del eta + beta . eta."""
    x = np.asarray(x, float)
    beta = a_prime.at(x) - a.at(x)
    worst = []
    for f in eta.fields:
        d1 = covariant_derivative(gamma, f, x, a_prime.ad_at)
        d0 = covariant_derivative(gamma, f, x, a.ad_at)
        fx = f.at(x)
        action = np.stack([axis_action(fx, None, a.algebra.ad(b)) for b in beta])
        worst.append(float(np.linalg.norm(d1.data - d0.data - action)))
    return nan_max(worst)


def leibniz_check(beta: TensorFieldSpec, eta: SectionSpec,
                  a: LocalConnectionForm, gamma: ConnectionCoeffs,
                  x: np.ndarray) -> float:
    """Residual of del(beta.eta) = (del beta).eta + beta.(del eta)."""
    if beta.markers != (DOWN, LIE):
        raise RepMismatch("leibniz_check expects an adjoint-valued 1-form")
    x = np.asarray(x, float)
    ad = a.algebra.ad
    worst = []
    for f in eta.fields:

        def product_eval(p: np.ndarray, field: TensorFieldSpec = f) -> DenseTensor:
            fv = field.at(p)
            rows = [axis_action(fv, None, ad(b)) for b in beta.at(p).data]
            return DenseTensor((DOWN,) + tuple(field.markers), np.stack(rows))

        product = TensorFieldSpec(
            chart=eta.chart,
            markers=(DOWN,) + tuple(f.markers),
            evaluator=product_eval,
        )
        lhs = covariant_derivative(gamma, product, x, a.ad_at).data
        dbeta = covariant_derivative(gamma, beta, x, a.ad_at).data
        fx = f.at(x)
        term1 = np.stack(
            [np.stack([axis_action(fx, None, ad(b)) for b in row]) for row in dbeta]
        )
        deta = covariant_derivative(gamma, f, x, a.ad_at)
        bv = beta.at(x).data
        term2 = np.stack([
            np.stack([axis_action(DenseTensor(f.markers, d), None, ad(b)) for b in bv])
            for d in deta.data
        ])
        worst.append(float(np.linalg.norm(lhs - term1 - term2)))
    return nan_max(worst)
