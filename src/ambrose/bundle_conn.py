"""Principal connections in a fixed local trivialization.

A connection form holds one structure-algebra element per coordinate
direction.  Adjoint-valued tensors use the lie axis marker; the algebra acts
on those axes through ad, while manifold axes receive the usual linear
connection corrections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import jet
from .chart_calculus import (
    Chart,
    ConnectionCoeffs,
    LastJet,
    TensorFieldSpec,
    nabla,
    nan_max,
)
from .errors import RepMismatch
from .jet import Jet, shift
from .lie_core import LieAlgebra
from .tensor_core import DOWN, LIE, DenseTensor, axis_action, point_norms


@dataclass(frozen=True)
class LocalConnectionForm:
    """Algebra-valued local connection form: the evaluator maps the
    coordinate jet to the jet of the rows a[mu], one per direction."""

    chart: Chart
    algebra: LieAlgebra
    evaluator: Callable[[Jet], Jet]
    memo: LastJet = field(default_factory=LastJet, init=False, repr=False, compare=False)

    def jet_at(self, x: np.ndarray, order: int) -> Jet:
        return self.memo.jet_at(x, order, self._checked)

    def _checked(self, X: Jet) -> Jet:
        a = self.evaluator(X)
        if a.shape != (self.chart.dim, self.algebra.dim):
            raise RepMismatch(
                f"form evaluator returned shape {a.shape}, "
                f"expected {(self.chart.dim, self.algebra.dim)}"
            )
        return a

    def at(self, x: np.ndarray) -> np.ndarray:
        return self.jet_at(x, 0).value[..., 0]

    def ad_jet(self, x: np.ndarray, order: int) -> Jet:
        """ad(a_mu) for each direction mu, as a jet: the action on lie axes."""
        return jet.einsum("kij,mi->mkj", self.algebra.structure, self.jet_at(x, order))

    def ad_at(self, x: np.ndarray) -> np.ndarray:
        return self.ad_jet(x, 0).value[..., 0]

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
    """a1 - a0 as an adjoint-valued 1-form field, read off the forms' memos,
    so a batch evaluates each form once."""
    if a1.algebra is not a0.algebra and a1.algebra.labels != a0.algebra.labels:
        raise RepMismatch("connection forms live over different algebras")
    return TensorFieldSpec(
        chart=a1.chart,
        markers=(DOWN, LIE),
        evaluator=lambda X: a1.jet_at(X.value.T, X.order) - a0.jet_at(X.value.T, X.order),
    )


@dataclass(frozen=True)
class SectionSpec:
    """Tuple of tensor fields sharing a chart."""

    chart: Chart
    fields: tuple[TensorFieldSpec, ...]


def _curvature_form_jet(a: LocalConnectionForm, x: np.ndarray, order: int) -> Jet:
    """F of the form at a batch of points, from its jet one order higher."""
    av = a.jet_at(x, order + 1)
    da = shift(av)
    low = av.truncate(order)
    br = jet.einsum("kij,mi,nj->mnk", a.algebra.structure, low, low)
    return da - da.transpose(1, 0, 2) + br


def curvature_form(a: LocalConnectionForm, x: np.ndarray) -> DenseTensor:
    """F[mu, nu] = d_mu a_nu - d_nu a_mu + [a_mu, a_nu], adjoint-valued."""
    return DenseTensor((DOWN, DOWN, LIE), _curvature_form_jet(a, x, 0).value[..., 0])


def curvature_form_field(a: LocalConnectionForm) -> TensorFieldSpec:
    return TensorFieldSpec(
        chart=a.chart,
        markers=(DOWN, DOWN, LIE),
        evaluator=lambda X: _curvature_form_jet(a, X.value.T, X.order),
    )


def bianchi_residual(a: LocalConnectionForm, points: np.ndarray) -> float:
    """Largest norm over the points of the cyclic sum of the covariant
    exterior derivative of F."""
    f = _curvature_form_jet(a, points, 1)
    cov = shift(f).value + np.einsum("kij,miP,nljP->mnlkP", a.algebra.structure,
                                     a.jet_at(points, 0).value, f.value)
    cyc = cov + cov.transpose(1, 2, 0, 3, 4) + cov.transpose(2, 0, 1, 3, 4)
    return nan_max(point_norms(cyc))


def curvature_variation_check(a: LocalConnectionForm, alpha: TensorFieldSpec,
                              points: np.ndarray) -> float:
    """Largest residual over the points of F^{a+alpha} = F^a + d^a alpha +
    [alpha wedge alpha]/2, with d^a alpha = d alpha + [a wedge alpha] (the
    coordinate brackets vanish)."""
    f1 = _curvature_form_jet(a.shifted(alpha), points, 0).value
    f0 = _curvature_form_jet(a, points, 0).value
    al = alpha.jet_at(points, 1)
    dal, alv = shift(al).value, al.value
    s = a.algebra.structure
    br = np.einsum("kij,miP,njP->mnkP", s, a.jet_at(points, 0).value, alv)
    d = dal - dal.transpose(1, 0, 2, 3) + br - br.transpose(1, 0, 2, 3)
    quad = np.einsum("kij,miP,njP->mnkP", s, alv, alv)
    return nan_max(point_norms(f1 - f0 - d - quad))


def connection_variation_check(eta: SectionSpec, a: LocalConnectionForm,
                               a_prime: LocalConnectionForm,
                               gamma: ConnectionCoeffs, points: np.ndarray) -> float:
    """Largest residual over the points and the fields of the variation
    formula del' eta = del eta + beta . eta, beta = a' - a."""
    G = gamma.jet_at(points, 0)
    ad0, ad1 = a.ad_jet(points, 0), a_prime.ad_jet(points, 0)
    worst = []
    for f in eta.fields:
        t = f.jet_at(points, 1)
        d = (nabla(t, f.markers, G, ad1) - nabla(t, f.markers, G, ad0)
             - axis_action(f.markers, t.truncate(0), None, ad1 - ad0))
        worst.append(nan_max(point_norms(d.value)))
    return nan_max(worst)


def leibniz_check(beta: TensorFieldSpec, eta: SectionSpec,
                  a: LocalConnectionForm, gamma: ConnectionCoeffs,
                  points: np.ndarray) -> float:
    """Largest residual over the points and the fields of
    del(beta.eta) = (del beta).eta + beta.(del eta)."""
    if beta.markers != (DOWN, LIE):
        raise RepMismatch("leibniz_check expects an adjoint-valued 1-form")
    s = a.algebra.structure
    G, ad_a = gamma.jet_at(points, 0), a.ad_jet(points, 0)
    b = beta.jet_at(points, 1)
    ad_b = jet.einsum("kij,mi->mkj", s, b)
    db = nabla(b, beta.markers, G, ad_a)
    # ad((del beta)_u) and ad(beta), the actions on eta along each direction u
    ad_db = [jet.einsum("kij,ni->nkj", s, db[u]) for u in range(a.chart.dim)]
    ad_b0 = ad_b.truncate(0)
    worst = []
    for f in eta.fields:
        eta_j = f.jet_at(points, 1)
        lhs = nabla(axis_action(f.markers, eta_j, None, ad_b),
                    (DOWN,) + tuple(f.markers), G, ad_a).value
        # (del beta).eta and beta.(del eta), each along every direction u
        eta_0, deta = eta_j.truncate(0), nabla(eta_j, f.markers, G, ad_a)
        term1 = np.stack([axis_action(f.markers, eta_0, None, ad).value for ad in ad_db])
        term2 = np.stack([axis_action(f.markers, deta[u], None, ad_b0).value
                          for u in range(a.chart.dim)])
        worst.append(nan_max(point_norms(lhs - term1 - term2)))
    return nan_max(worst)
