"""Batches of sample points: towers built for many points in one jet pass
agree bit for bit with towers built one point at a time, the singer and
adapt scenarios evaluate the metric and its connection once per batch, and
a metric spoiled at one point of a batch fails the run as it does point by
point."""

import dataclasses
import json

import numpy as np
import pytest
from scipy.linalg import expm

from ambrose import chart_calculus, cli, homogeneity, jet
from ambrose.bundle_conn import SectionSpec, curvature_form_field
from ambrose.chart_calculus import (
    TensorFieldSpec,
    curvature_field,
    levi_civita,
    ortho_frame,
    sample_interior,
)
from ambrose.fixtures import fixture_names, instantiate
from ambrose.homogeneity import (
    CHUNK,
    build_tower,
    build_towers,
    opozda_section_spec,
    tower_and_chain,
    towers_and_chains,
)
from ambrose.lie_core import frame_structure_rep, principal_angles
from test_homogeneity import TRIPLE_CASES
from test_total_space import count_calls


def close(a, b):
    """Within 1e-15 of the larger entry. The batch runs the same numpy
    calls as a batch of one, over more points, and on the catalog the towers
    come out bit for bit the same; but numpy's einsum may take another inner
    loop (with fused multiply-adds) for another number of points, so a sum
    of products may differ in its last bit."""
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    return np.abs(a - b).max(initial=0.0) <= 1e-15 * scale


def assert_same_tower(batched, single):
    assert batched.kmax == single.kmax
    np.testing.assert_array_equal(batched.point, single.point)
    assert close(batched.frame.frame, single.frame.frame)
    assert close(batched.frame.coframe, single.frame.coframe)
    assert len(batched.entries) == len(single.entries)
    for lb, ls in zip(batched.entries, single.entries):
        assert [t.markers for t in lb] == [t.markers for t in ls]
        for a, b in zip(lb, ls):
            assert close(a.data, b.data)


def assert_same_chain(batched, single):
    assert (batched.dims, batched.singer_k, batched.flags) == (
        single.dims, single.singer_k, single.flags)
    for a, b in zip(batched.bases, single.bases, strict=True):
        if a.shape[1]:
            assert principal_angles(a, b).max() < 1e-12


def connections(fx):
    yield "metric", fx.gamma
    if fx.gamma_canonical is not None:
        yield "canonical", fx.gamma_canonical


CATALOG = [(name, kind) for name in fixture_names()
           for kind, _ in connections(instantiate(name, {}))]


class TestBatchParity:
    @pytest.mark.parametrize("name,kind", CATALOG)
    def test_catalog_towers(self, name, kind):
        fx = instantiate(name, {})
        gamma = dict(connections(fx))[kind]
        sigma = opozda_section_spec(gamma)
        points = sample_interior(fx.chart, 8)
        for kmax in (2, 3):
            towers = build_towers(sigma, None, gamma, fx.g, points, kmax)
            assert len(towers) == len(points)
            for x, tower in zip(points, towers):
                assert_same_tower(tower, build_tower(sigma, None, gamma, fx.g, x, kmax))

    @pytest.mark.parametrize("name,params,dims", TRIPLE_CASES)
    def test_triple_towers(self, name, params, dims):
        """The b0 branch: ad(b0) on the LIE axes of (R, F)."""
        fx = instantiate(name, params)
        sigma = SectionSpec(fx.chart, (curvature_field(fx.gamma), curvature_form_field(fx.a0)))
        points = sample_interior(fx.chart, 5)
        for x, tower in zip(points, build_towers(sigma, fx.a0, fx.gamma, fx.g, points, 2)):
            assert_same_tower(tower, build_tower(sigma, fx.a0, fx.gamma, fx.g, x, 2))

    def test_given_frames(self):
        """The frames= branch: each point's tower in its own rotated frame."""
        fx = instantiate("berger_sphere", {})
        sigma = opozda_section_spec(fx.gamma)
        rep = frame_structure_rep(3)
        points = sample_interior(fx.chart, 4, seed=6)
        frames = [ortho_frame(fx.g, x).rotated(expm(rep.vector.matrix([0.3 * i, -0.7, 0.5])))
                  for i, x in enumerate(points)]
        towers = build_towers(sigma, None, fx.gamma, fx.g, points, 2, frames)
        for x, fr, tower in zip(points, frames, towers):
            assert tower.frame is fr
            assert_same_tower(tower, build_tower(sigma, None, fx.gamma, fx.g, x, 2, frame=fr))

    def test_chunk_boundary(self):
        """More points than one batch holds: towers_and_chains goes batch by
        batch and keeps the point order."""
        fx = instantiate("berger_sphere", {})
        sigma = opozda_section_spec(fx.gamma)
        rep = frame_structure_rep(3)
        points = sample_interior(fx.chart, 2 * CHUNK + 3)
        pairs = list(towers_and_chains(sigma, None, fx.gamma, fx.g, points, rep))
        assert len(pairs) == len(points)
        for x, (tower, chain) in zip(points, pairs):
            single, single_chain = tower_and_chain(sigma, None, fx.gamma, fx.g, x, rep)
            assert_same_tower(tower, single)
            assert_same_chain(chain, single_chain)

    def test_only_truncated_points_grow(self):
        """f = |x|^2 + (x_0 - a)^3 on euclidean 3-space: where x_0 = a its
        jet is that of |x|^2 to order 2, whose chain (3, 1, 1) stabilizes at
        depth 2; elsewhere the Hessian breaks the rotations about the
        gradient, the chain (3, 1, 0) is truncated, and only those points
        are built again at depth 3, where it reads (3, 1, 0, 0)."""
        fx = instantiate("euclidean", {"n": 3})
        a = 0.25

        def ev(X):
            return X[0] ** 2 + X[1] ** 2 + X[2] ** 2 + (X[0] - a) ** 3

        sigma = SectionSpec(fx.chart, (TensorFieldSpec(fx.chart, (), ev),))
        rep = frame_structure_rep(3)
        points = np.array([[a, 0.3, -0.4], [0.6, 0.2, 0.1], [a, -0.5, 0.35], [-0.3, 0.45, -0.2]])
        depths = []

        def recorded(sigma, b0, gamma0, g, points, kmax, frames=None):
            depths.append((kmax, len(points)))
            return build_towers(sigma, b0, gamma0, g, points, kmax, frames)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homogeneity, "build_towers", recorded)
            pairs = list(towers_and_chains(sigma, None, fx.gamma, fx.g, points, rep))
        assert depths == [(2, 4), (3, 2)]
        assert [chain.dims for _, chain in pairs] == [(3, 1, 1), (3, 1, 0, 0)] * 2
        assert [chain.singer_k for _, chain in pairs] == [1, 2, 1, 2]
        for x, (tower, chain) in zip(points, pairs):
            single, single_chain = tower_and_chain(sigma, None, fx.gamma, fx.g, x, rep)
            assert_same_tower(tower, single)
            assert_same_chain(chain, single_chain)


def counted_metric(calls):
    """berger_sphere with its metric evaluator counted, and its Levi-Civita
    connection built on the counted metric."""
    fx = instantiate("berger_sphere", {})
    ev = fx.g.evaluator

    def counted(X):
        calls.append(X.value.shape[-1])
        return ev(X)

    g = dataclasses.replace(fx.g, evaluator=counted)
    return dataclasses.replace(fx, g=g, gamma=levi_civita(g))


class TestEvaluationCounts:
    @pytest.mark.parametrize("points", [8, CHUNK + 1])
    def test_singer_metric_once_per_batch(self, points, monkeypatch, capsys):
        """Point by point, eight points took 32 metric and 24 Christoffel
        evaluations: the frame, the tower's Gamma, the torsion and the
        curvature each evaluated their own."""
        metric = []
        christoffel = count_calls(monkeypatch, chart_calculus._christoffel_jet)
        monkeypatch.setattr(cli, "instantiate", lambda name, params: counted_metric(metric))
        code = cli.main(["--scenario", "singer", "--fixture", "berger_sphere",
                         "--param", "connection=metric", "--points", str(points)])
        capsys.readouterr()
        assert code == 0
        batches = -(-points // CHUNK)
        assert len(metric) <= batches
        assert len(christoffel) <= batches
        assert sum(metric) == points


def spoil_value(kind, bad, pts):
    """berger_sphere with the metric's value spoiled at pts[bad] alone."""
    fx = instantiate("berger_sphere", {})
    ev = fx.g.evaluator

    def spoiled(X):
        g = ev(X)
        near = np.linalg.norm(X.value.T - pts[bad], axis=1) < 1e-9
        c = g.c.copy()
        if kind == "non-symmetric":
            c[0, 1, near, 0] += 1e-3
        elif kind == "indefinite":
            c[2, 2, near, 0] = -1.0
        else:
            c[0, 0, near, 0] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
        return jet.Jet(c, g.n, g.order)

    g = dataclasses.replace(fx.g, evaluator=spoiled)
    return dataclasses.replace(fx, g=g, gamma=levi_civita(g))


# the error each spoiled metric value gives, point by point and in a batch
SPOILED_VALUES = {
    "non-symmetric": "metric evaluator returned a non-symmetric matrix",
    "nan": "metric evaluator returned a non-symmetric matrix",
    "inf": "metric evaluator returned a non-symmetric matrix",
    "-inf": "metric evaluator returned a non-symmetric matrix",
    "indefinite": "metric not positive definite: Matrix is not positive definite",
}


class TestSpoiledPointOfABatch:
    @pytest.mark.parametrize("bad", [1, 2])
    @pytest.mark.parametrize("kind", list(SPOILED_VALUES))
    @pytest.mark.parametrize("argv", [
        pytest.param(["--scenario", "singer", "--param", "connection=metric"], id="singer-metric"),
        pytest.param(["--scenario", "singer"], id="singer-canonical"),
        pytest.param(["--scenario", "adapt"], id="adapt"),
    ])
    def test_one_bad_point_fails_the_run(self, argv, kind, bad, monkeypatch, capsys):
        """The metric's symmetry and definiteness are checked at every point
        of a three-point batch: exit 3 with the error that point-by-point
        evaluation gave."""
        pts = sample_interior(instantiate("berger_sphere", {}).chart, 3, seed=19)
        monkeypatch.setattr(cli, "instantiate", lambda name, params: spoil_value(kind, bad, pts))
        code = cli.main([*argv, "--fixture", "berger_sphere", "--points", "3", "--seed", "19"])
        data = json.loads(capsys.readouterr().out)
        assert code == 3
        assert data["pass"] is False
        assert data["residuals"] == {}
        assert data["flags"] == ["numerical-failure", f"error: {SPOILED_VALUES[kind]}"]
