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

from . import jet
from .chart_calculus import (
    Chart,
    ConnectionCoeffs,
    TensorFieldSpec,
    covariant_derivative,
    nabla,
    nan_max,
)
from .errors import RepMismatch
from .jet import Jet, shift, variables
from .lie_core import LieAlgebra
from .tensor_core import DOWN, LIE, DenseTensor, axis_action


@dataclass(frozen=True)
class LocalConnectionForm:
    """Algebra-valued local connection form: the evaluator maps the
    coordinate jet to the jet of the rows a[mu], one per direction."""

    chart: Chart
    algebra: LieAlgebra
    evaluator: Callable[[Jet], Jet]

    def jet_at(self, x: np.ndarray, order: int) -> Jet:
        a = self.evaluator(variables(x, order))
        if a.shape != (self.chart.dim, self.algebra.dim):
            raise RepMismatch(
                f"form evaluator returned shape {a.shape}, "
                f"expected {(self.chart.dim, self.algebra.dim)}"
            )
        return a

    def at(self, x: np.ndarray) -> np.ndarray:
        return self.jet_at(x, 0).value

    def ad_jet(self, x: np.ndarray, order: int) -> Jet:
        """ad(a_mu) for each direction mu, as a jet: the action on lie axes."""
        return jet.einsum("kij,mi->mkj", self.algebra.structure, self.jet_at(x, order))

    def ad_at(self, x: np.ndarray) -> np.ndarray:
        return self.ad_jet(x, 0).value

    def shifted(self, alpha: TensorFieldSpec) -> "LocalConnectionForm":
        """The connection form plus an adjoint-valued 1-form."""
        if alpha.markers != (DOWN, LIE):
            raise RepMismatch("shift must be an adjoint-valued 1-form")
        return LocalConnectionForm(
            chart=self.chart,
            algebra=self.algebra,
            evaluator=lambda X: self.evaluator(X) + alpha.evaluator(X),
        )


def form_difference(a1: LocalConnectionForm,
                    a0: LocalConnectionForm) -> TensorFieldSpec:
    """a1 - a0 as an adjoint-valued 1-form field."""
    if a1.algebra is not a0.algebra and a1.algebra.labels != a0.algebra.labels:
        raise RepMismatch("connection forms live over different algebras")
    return TensorFieldSpec(
        chart=a1.chart,
        markers=(DOWN, LIE),
        evaluator=lambda X: a1.evaluator(X) - a0.evaluator(X),
    )


@dataclass(frozen=True)
class SectionSpec:
    """Tuple of tensor fields sharing a chart."""

    chart: Chart
    fields: tuple[TensorFieldSpec, ...]


def _curvature_form_jet(a: LocalConnectionForm, x: np.ndarray, order: int) -> Jet:
    av = a.jet_at(x, order + 1)
    da = shift(av)
    br = jet.einsum("kij,mi,nj->mnk", a.algebra.structure, av, av)
    return da - da.transpose(1, 0, 2) + br


def curvature_form(a: LocalConnectionForm, x: np.ndarray) -> DenseTensor:
    """F[mu, nu] = d_mu a_nu - d_nu a_mu + [a_mu, a_nu], adjoint-valued."""
    return DenseTensor((DOWN, DOWN, LIE), _curvature_form_jet(a, x, 0).value)


def curvature_form_field(a: LocalConnectionForm) -> TensorFieldSpec:
    return TensorFieldSpec(
        chart=a.chart,
        markers=(DOWN, DOWN, LIE),
        evaluator=lambda X: _curvature_form_jet(a, X.value, X.order),
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
    f = _curvature_form_jet(a, x, 1)
    cov = shift(f).value + np.einsum("kij,mi,nlj->mnlk", a.algebra.structure, a.at(x), f.value)
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
    beta_ad = a_prime.ad_at(x) - a.ad_at(x)
    worst = []
    for f in eta.fields:
        d1 = covariant_derivative(gamma, f, x, a_prime.ad_at)
        d0 = covariant_derivative(gamma, f, x, a.ad_at)
        action = axis_action(f.markers, f.at(x).data, None, beta_ad)
        worst.append(float(np.linalg.norm(d1.data - d0.data - action)))
    return nan_max(worst)


def leibniz_check(beta: TensorFieldSpec, eta: SectionSpec,
                  a: LocalConnectionForm, gamma: ConnectionCoeffs,
                  x: np.ndarray) -> float:
    """Residual of del(beta.eta) = (del beta).eta + beta.(del eta)."""
    if beta.markers != (DOWN, LIE):
        raise RepMismatch("leibniz_check expects an adjoint-valued 1-form")
    x = np.asarray(x, float)
    s = a.algebra.structure
    G, ad_a = gamma.at(x), a.ad_at(x)
    b = beta.jet_at(x, 1)
    ad_b = jet.einsum("kij,mi->mkj", s, b)
    db = nabla(b, beta.markers, G, ad_a).value
    worst = []
    for f in eta.fields:
        eta_j = f.jet_at(x, 1)
        lhs = nabla(axis_action(f.markers, eta_j, None, ad_b),
                    (DOWN,) + tuple(f.markers), G, ad_a).value
        # (del beta).eta, with the derivative direction leading, and beta.(del eta)
        term1 = np.stack([axis_action(f.markers, eta_j.value, None, np.einsum("kij,ni->nkj", s, r))
                          for r in db])
        deta = nabla(eta_j, f.markers, G, ad_a).value
        term2 = np.stack([axis_action(f.markers, d, None, ad_b.value) for d in deta])
        worst.append(float(np.linalg.norm(lhs - term1 - term2)))
    return nan_max(worst)
