"""Batches of sample points: towers built for many points in one jet pass
agree bit for bit with towers built one point at a time, and each residual
check over a batch is the largest of its one-point calls; the scenarios
evaluate the metric, its connection and each connection form once per
batch; and a metric, form or section spoiled at one point of a batch fails
the run as it does point by point."""

import dataclasses
import json
import weakref

import numpy as np
import pytest
from scipy.linalg import expm, subspace_angles

from ambrose import bundle_conn, chart_calculus, cli, fixtures, homogeneity, jet
from ambrose.bundle_conn import (
    LocalConnectionForm,
    bianchi_residual,
    connection_variation_check,
    curvature_form_field,
    curvature_variation_check,
    leibniz_check,
)
from ambrose.chart_calculus import (
    TensorFieldSpec,
    curvature_field,
    frame_levels,
    frame_stacks,
    levi_civita,
    max_nabla_norms,
    ortho_frame,
    sample_interior,
    torsion_field,
)
from ambrose.errors import NumericalFailure
from ambrose.fixtures import (
    fixture_names,
    instantiate,
    smooth_connection_form,
    smooth_tensor_field,
)
from ambrose.homogeneity import (
    CHUNK,
    _adapted_shifts,
    adapted_residuals,
    build_tower,
    gauge_residual,
    opozda_section_spec,
    stabilizer_chain,
    stabilizer_chains,
    tower_and_chain,
    towers_and_chains,
    with_adjoint_rep,
)
from ambrose.lie_core import (
    algebra_by_name,
    default_inner,
    frame_structure_rep,
)
from ambrose.tensor_core import DOWN, LIE
from ambrose.total_space import TotalSpaceModel, bar_parallelism_check, total_space_check
from oracles import (
    adapted_shifts_loop,
    bumped,
    point_towers,
    rotated,
    stacked_levels,
    warped_surface,
)
from test_homogeneity import ADAPT_CASES, CHAIN_CASES, REP3, TRIPLE_CASES, flat_tower3, lc_tower
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
    """Two towers, each a batch of one: the same levels, markers and
    entries."""
    assert len(batched) == len(single)
    for lb, ls in zip(batched, single):
        assert [m for m, _ in lb] == [m for m, _ in ls]
        for (_, a), (_, b) in zip(lb, ls):
            assert a.shape == b.shape and close(a, b)


def assert_same_chain(batched, single):
    assert (batched.dims, batched.singer_k, batched.flags) == (
        single.dims, single.singer_k, single.flags)
    for a, b in zip(batched.bases, single.bases, strict=True):
        if a.shape[1]:
            assert subspace_angles(a, b).max() < 1e-12


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
            towers = point_towers(frame_levels(sigma, None, gamma, fx.g, points, kmax))
            assert len(towers) == len(points)
            for x, tower, *frame in zip(points, towers, *frame_stacks(fx.g, points)):
                assert_same_tower(tower, build_tower(sigma, None, gamma, fx.g, x, kmax))
                assert all(close(a, b) for a, b in zip(frame, ortho_frame(fx.g, x)))

    @pytest.mark.parametrize("name,params,dims", TRIPLE_CASES)
    def test_triple_towers(self, name, params, dims):
        """The b0 branch: ad(b0) on the LIE axes of (R, F)."""
        fx = instantiate(name, params)
        sigma = (curvature_field(fx.gamma), curvature_form_field(fx.a0))
        points = sample_interior(fx.chart, 5)
        towers = point_towers(frame_levels(sigma, fx.a0, fx.gamma, fx.g, points, 2))
        for x, tower in zip(points, towers):
            assert_same_tower(tower, build_tower(sigma, fx.a0, fx.gamma, fx.g, x, 2))

    def test_given_frames(self):
        """The frames= branch: each point's tower in its own rotated frame."""
        fx = instantiate("berger_sphere", {})
        sigma = opozda_section_spec(fx.gamma)
        rep = frame_structure_rep(3)
        points = sample_interior(fx.chart, 4, seed=6)
        frames = [rotated(ortho_frame(fx.g, x), expm(rep.vector.matrix([0.3 * i, -0.7, 0.5])))
                  for i, x in enumerate(points)]
        stacks = tuple(np.stack(f) for f in zip(*frames))
        towers = point_towers(frame_levels(sigma, None, fx.gamma, fx.g, points, 2, stacks))
        for x, fr, tower in zip(points, frames, towers):
            assert_same_tower(tower, lc_tower(fx, x, 2, frame=fr))

    def test_chunk_boundary(self):
        """More points than one batch holds: towers_and_chains yields batch
        by batch, CHUNK points each but the last, and keeps the point order."""
        fx = instantiate("berger_sphere", {})
        sigma = opozda_section_spec(fx.gamma)
        rep = frame_structure_rep(3)
        points = sample_interior(fx.chart, 2 * CHUNK + 3)
        batches = list(towers_and_chains(sigma, None, fx.gamma, fx.g, points, rep))
        assert [len(todo) for todo, _, _ in batches] == [CHUNK, CHUNK, 3]
        pairs = [pair for todo, levels, chains in batches
                 for pair in zip(point_towers(levels), chains)]
        assert len(pairs) == len(points)
        for x, (tower, chain) in zip(points, pairs):
            single, single_chain = tower_and_chain(sigma, None, fx.gamma, fx.g, x, rep)
            assert_same_tower(tower, single)
            assert_same_chain(chain, single_chain)

    def test_only_truncated_points_grow(self):
        """f = |x|^2 + (x_0 - a)^3 on euclidean 3-space: where x_0 = a its
        jet is that of |x|^2 to order 2, whose chain (3, 1, 1) stabilizes at
        k = 1 at depth 2, one level short of k + 2; elsewhere the Hessian
        breaks the rotations about the gradient and the chain (3, 1, 0) is
        truncated. All four are built again at depth 3: where x_0 = a the
        third derivative 6 e_0^3 leaves no stabilizer, (3, 1, 1, 0), final
        and flagged ambiguous; elsewhere (3, 1, 0, 0) stabilizes at k = 2,
        and only those points are built at depth 4, (3, 1, 0, 0, 0). Each
        point is yielded once, with its last build."""
        fx = instantiate("euclidean", {"n": 3})
        a = 0.25

        def ev(X):
            return X[0] ** 2 + X[1] ** 2 + X[2] ** 2 + (X[0] - a) ** 3

        sigma = (TensorFieldSpec((), ev),)
        rep = frame_structure_rep(3)
        points = np.array([[a, 0.3, -0.4], [0.6, 0.2, 0.1], [a, -0.5, 0.35], [-0.3, 0.45, -0.2]])
        depths = []
        chained = []

        def recorded(sigma, b0, gamma0, g, points, kmax, frames=None):
            depths.append((kmax, len(points)))
            return frame_levels(sigma, b0, gamma0, g, points, kmax, frames)

        def chains(levels, rep):
            chained.append((len(levels) - 1, len(levels[0][0][1])))
            return stabilizer_chains(levels, rep)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homogeneity, "frame_levels", recorded)
            mp.setattr(homogeneity, "stabilizer_chains", chains)
            builds = list(towers_and_chains(sigma, None, fx.gamma, fx.g, points, rep))
        assert depths == [(2, 4), (3, 4), (4, 2)]
        # each built batch gets its chains from one batched call
        assert chained == depths
        # one batch of points, built three times: each point yielded once, at
        # its final depth, the depth-3 build sliced to its final points
        assert [todo for todo, _, _ in builds] == [[0, 2], [1, 3]]
        assert [len(levels) - 1 for _, levels, _ in builds] == [3, 4]
        assert [len(levels[0][0][1]) for _, levels, _ in builds] == [2, 2]
        last = {}
        for todo, levels, built in builds:
            last.update(zip(todo, zip(point_towers(levels), built)))
        pairs = [last[i] for i in range(len(points))]
        assert [chain.dims for _, chain in pairs] == [(3, 1, 1, 0), (3, 1, 0, 0, 0)] * 2
        assert [chain.singer_k for _, chain in pairs] == [1, 2, 1, 2]
        assert [chain.flags for _, chain in pairs] == [("ambiguous",), ()] * 2
        for x, (tower, chain) in zip(points, pairs):
            single, single_chain = tower_and_chain(sigma, None, fx.gamma, fx.g, x, rep)
            assert_same_tower(tower, single)
            assert_same_chain(chain, single_chain)


def assert_close_chain(chain, ref):
    """Dims, Singer stage and flags equal, kernel spans within a principal
    angle of 1e-12, and nesting angles within 1e-14: the R factors of
    differently blocked rows agree to rounding, not bit for bit."""
    assert_same_chain(chain, ref)
    assert np.abs(np.subtract(chain.nesting, ref.nesting)).max(initial=0.0) <= 1e-14


class TestBatchedChains:
    """stabilizer_chains folds each entry's action rows, built for the
    batch's points together, into one R factor per point."""

    @pytest.mark.parametrize("name,params,conn,dims", CHAIN_CASES)
    def test_batch_equals_one_point_chains(self, name, params, conn, dims):
        fx = instantiate(name, params)
        gamma = fx.gamma if conn == "metric" else fx.gamma_canonical
        rep = frame_structure_rep(fx.chart.dim)
        points = sample_interior(fx.chart, 2 * CHUNK + 3, seed=11)
        levels = frame_levels(opozda_section_spec(gamma), None, gamma, fx.g, points, 2)
        chains = stabilizer_chains(levels, rep)
        assert [chain.dims for chain in chains] == [dims] * len(points)
        for tower, chain in zip(point_towers(levels), chains):
            assert_close_chain(chain, stabilizer_chain(tower, rep))

    @pytest.mark.parametrize("block", [1, 40, 700])
    @pytest.mark.parametrize("case", ["berger", "triple"])
    def test_sliced_blocks_equal_unsliced(self, case, block, monkeypatch):
        """With the block bound tiny, the rows come in slices of points and
        then of leading tensor axes (down to single rows at a bound of 1),
        and the chains are those of the unsliced rows."""
        if case == "berger":
            fx = instantiate("berger_sphere", {})
            sigma, b0, rep = opozda_section_spec(fx.gamma), None, frame_structure_rep(3)
        else:
            fx = instantiate("hopf_monopole", {})
            sigma = (curvature_field(fx.gamma), curvature_form_field(fx.a0))
            b0, rep = fx.a0, frame_structure_rep(2, fx.algebra)
        levels = frame_levels(sigma, b0, fx.gamma, fx.g, sample_interior(fx.chart, 5, seed=2), 2)
        whole = stabilizer_chains(levels, rep)
        monkeypatch.setattr(jet, "PRODUCT_BLOCK", block)
        for chain, ref in zip(stabilizer_chains(levels, rep), whole, strict=True):
            assert_close_chain(chain, ref)

    def test_nan_at_one_point_raises(self):
        fx = instantiate("berger_sphere", {})
        levels = frame_levels(opozda_section_spec(fx.gamma), None, fx.gamma, fx.g,
                              sample_interior(fx.chart, 4, seed=3), 2)
        markers, data = levels[1][0]
        data = data.copy()
        data[2].flat[7] = np.nan
        levels[1][0] = markers, data
        with pytest.raises(NumericalFailure, match="tower level 1: its entries"):
            stabilizer_chains(levels, frame_structure_rep(3))

    def test_ambiguous_flag_on_its_own_point(self):
        """A kernel dimension within a decade of the cutoff at the second
        point of three flags that point's chain alone."""
        clean = (DOWN, DOWN), np.diag([1.0, 2.0, 3.0])
        # the identity perturbed across the cutoff within a decade, as in
        # test_homogeneity's test_spectral_gap_ambiguity
        murky = np.eye(3)
        murky[2, 2] += 3e-8
        murky[0, 1] = murky[1, 0] = 5e-9
        murky = (DOWN, DOWN), murky
        towers = [flat_tower3([(t,), (t,)]) for t in (clean, murky, clean)]
        chains = stabilizer_chains(stacked_levels(towers), frame_structure_rep(3))
        assert [chain.flags for chain in chains] == [(), ("ambiguous",), ()]


def identity_inputs(name):
    """The fixture and the forms and sections of the identities scenario on
    it, drawn as run_identities draws them from seed 1."""
    fx = instantiate(name, {})
    algebra = fx.algebra if fx.algebra is not None else algebra_by_name("su(2)")
    a = smooth_connection_form(fx.chart, algebra, seed=1)
    alpha = smooth_tensor_field(fx.chart, (DOWN, LIE), 2, algebra)
    eta = (smooth_tensor_field(fx.chart, (LIE,), 3, algebra),
           smooth_tensor_field(fx.chart, (DOWN, LIE), 4, algebra))
    beta = smooth_tensor_field(fx.chart, (DOWN, LIE), 5, algebra)
    return fx, a, alpha, eta, beta


class TestChecksOnABatch:
    """Each residual check over 2 CHUNK + 3 points, more than two chunks of
    a check that goes in chunks, equals the largest of its one-point calls
    bit for bit: each point's values come from the same numpy calls, and
    each point's norm is one dot product of its components, as at a single
    point."""

    POINTS = 2 * CHUNK + 3

    @pytest.mark.parametrize("with_form", [False, True], ids=["tangent", "form"])
    def test_max_nabla_norms(self, with_form):
        fx = instantiate("hopf_monopole", {})
        fields = ({"F": curvature_form_field(fx.a0), "alpha": fx.alpha_bump}
                  if with_form else
                  {"R": curvature_field(fx.gamma), "T": torsion_field(fx.gamma)})
        form = fx.a0 if with_form else None
        points = sample_interior(fx.chart, self.POINTS, seed=7)
        batch = max_nabla_norms(fx.gamma, fields, form, fx.g, points)
        singles = [max_nabla_norms(fx.gamma, fields, form, fx.g, x) for x in points]
        assert batch == {name: max(s[name] for s in singles) for name in fields}
        assert batch["alpha" if with_form else "R"] > 0.0

    @pytest.mark.parametrize("name", ["berger_sphere", "hopf_monopole", "flat_torus"])
    def test_bundle_identity_checks(self, name):
        fx, a, alpha, eta, beta = identity_inputs(name)
        a_prime = a.shifted(alpha)
        points = sample_interior(fx.chart, self.POINTS, seed=7)
        for check, args in [(bianchi_residual, (a,)),
                            (curvature_variation_check, (a, a_prime, alpha)),
                            (connection_variation_check, (eta, a, a_prime, fx.gamma)),
                            (leibniz_check, (beta, eta, a, fx.gamma))]:
            assert check(*args, points) == max(check(*args, x) for x in points), check.__name__

    @pytest.mark.parametrize("shift", [None, "parallel", "bump"])
    def test_total_space_check(self, shift):
        fx = instantiate("hopf_monopole", {})
        model = TotalSpaceModel(g=fx.g, gamma=fx.gamma, a=fx.a0)
        a0 = None if shift is None else fx.a0.shifted(getattr(fx, f"alpha_{shift}"))
        points = sample_interior(fx.chart, self.POINTS, seed=7)
        def check(pts):
            return (bar_parallelism_check(model, pts) if a0 is None
                    else total_space_check(model, a0, pts))

        batch = check(points)
        singles = [check(x) for x in points]
        assert batch == {name: max(s[name] for s in singles) for name in batch}
        assert batch["nabla_bar_R"] > 0.0


class TestAdaptOnABatch:
    """adapted_residuals on each batch of towers and chains that
    towers_and_chains builds equals the largest of its one-point batches
    bit for bit: the system is solved on the stack of the batch's points,
    and each stacked product and SVD takes the points one by one."""

    @pytest.mark.parametrize("metric", ["homogeneous", "bumped"])
    @pytest.mark.parametrize("name,params", ADAPT_CASES,
                             ids=["berger", "berger-lam=0.5", "round_sphere3"])
    def test_batch_is_largest_of_one_point_batches(self, name, params, metric):
        fx = instantiate(name, params)
        # a bumped metric puts the residuals far from rounding, so that
        # every point's value counts
        fx = bumped(fx) if metric == "bumped" else fx
        rep = frame_structure_rep(3)
        inner = default_inner(rep.algebra)
        sigma = opozda_section_spec(fx.gamma)
        points = sample_interior(fx.chart, 2 * CHUNK + 3, seed=7)
        batches = list(towers_and_chains(sigma, None, fx.gamma, fx.g, points, rep))
        assert [len(todo) for todo, _, _ in batches] == [CHUNK, CHUNK, 3]
        for _, levels, chains in batches:
            got = adapted_residuals(levels, chains, rep, inner)
            singles = [adapted_residuals([[(m, data[p:p + 1]) for m, data in lv] for lv in levels],
                                         [chain], rep, inner) for p, chain in enumerate(chains)]
            assert got == {key: max(s[key] for s in singles) for key in got}
            if metric == "bumped":
                assert min(s["nabla_beta"] for s in singles) > 1e-3

    def test_one_svd_per_batch(self, monkeypatch, capsys):
        """adapt --points 8 on berger_sphere takes one SVD per batch in its
        adapted systems: the eight points are one batch."""
        svd = np.linalg.svd
        adapted = cli.adapted_residuals
        stacks, inside = [], []

        def counted(a, *args, **kwargs):
            if inside:
                stacks.append(len(a) if np.ndim(a) == 3 else None)
            return svd(a, *args, **kwargs)

        def traced(*args):
            inside.append(1)
            try:
                return adapted(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(cli, "adapted_residuals", traced)
        code = cli.main(["--scenario", "adapt", "--fixture", "berger_sphere", "--points", "8"])
        capsys.readouterr()
        assert code == 0
        assert stacks == [8]


def adapt_batch(fx, count):
    """fx's Levi-Civita towers at count sample points, grown in one batch
    to the depth singer_k + 2 of their chains: their levels, chains, and
    (tower, chain) pairs."""
    rep = frame_structure_rep(fx.chart.dim)
    sigma = opozda_section_spec(fx.gamma)
    points = sample_interior(fx.chart, count, seed=7)
    (_, levels, chains), = towers_and_chains(sigma, None, fx.gamma, fx.g, points, rep)
    assert all(len(levels) == chain.singer_k + 3 for chain in chains)
    return levels, chains, list(zip(point_towers(levels), chains))


STACKED_CASES = [*[lambda name=name, params=params: instantiate(name, params)
                   for name, params in ADAPT_CASES], warped_surface]


class TestStackedAdaptSystem:
    """The adapted system solved on the stack of a batch's points agrees
    with oracles.adapted_shifts_loop, one solve per point, at each point
    to 1e-12 of the largest entry norm of its tower: beta_k, nabla beta_k,
    nabla_tower, and nabla_beta against gauge_residual."""

    @staticmethod
    def assert_matches_loop(levels, chains, pairs, rep):
        inner = default_inner(rep.algebra)
        adjoint = with_adjoint_rep(rep)
        beta_k, nabla_beta_k, nabla_tower = _adapted_shifts(levels, chains, rep, inner)
        want = list(adapted_shifts_loop(pairs, rep, inner))
        shifts = []
        for p, ((tower, chain), (beta_o, nabla_beta_o, tower_o)) in enumerate(
                zip(pairs, want, strict=True)):
            scale = max(np.linalg.norm(t) for level in tower for _, t in level)
            assert np.abs(beta_k[p] - beta_o).max() <= 1e-12 * scale
            assert np.abs(nabla_beta_k[p] - nabla_beta_o).max() <= 1e-12 * scale
            assert abs(nabla_tower[p] - tower_o) <= 1e-12 * scale
            shifts.append(gauge_residual(beta_o, adjoint, (DOWN, LIE), beta_o, nabla_beta_o))
            one = adapted_residuals([[(m, data[p:p + 1]) for m, data in lv] for lv in levels],
                                    [chain], rep, inner)
            assert abs(one["nabla_beta"] - shifts[-1]) <= 1e-12 * scale
        got = adapted_residuals(levels, chains, rep, inner)
        assert got["nabla_tower"] == nabla_tower.max()
        assert abs(got["nabla_beta"] - max(shifts)) <= 1e-12 * max(
            np.linalg.norm(t) for tower, _ in pairs for level in tower for _, t in level)

    @pytest.mark.parametrize("count", [1, 3, 8])
    @pytest.mark.parametrize("make", STACKED_CASES,
                             ids=["berger", "berger-lam=0.5", "round_sphere3", "warped-surface"])
    def test_stack_matches_the_loop(self, make, count):
        fx = make()
        levels, chains, pairs = adapt_batch(fx, count)
        assert len(chains) == count
        self.assert_matches_loop(levels, chains, pairs, frame_structure_rep(fx.chart.dim))

    def test_chains_of_two_stabilizer_dimensions(self):
        """berger_sphere's towers (a stabilizer of dimension 1) interleaved
        with the bumped metric's (dimension 0), both with k_S = 0: each
        dimension is its own stacked system, and each point's values come
        back in its place."""
        fx = instantiate("berger_sphere", {})
        parts = [adapt_batch(f, 3) for f in (fx, bumped(fx))]
        assert [{ch.bases[ch.singer_k].shape[1] for ch in chains}
                for _, chains, _ in parts] == [{1}, {0}]
        order = [0, 3, 1, 4, 2, 5]
        levels = [[(m, np.concatenate([a, b])[order]) for (m, a), (_, b) in zip(la, lb)]
                  for la, lb in zip(parts[0][0], parts[1][0])]
        chains = [(parts[0][1] + parts[1][1])[i] for i in order]
        pairs = [(parts[0][2] + parts[1][2])[i] for i in order]
        self.assert_matches_loop(levels, chains, pairs, REP3)


def counted_metric(calls):
    """berger_sphere with its metric evaluator counted, and its Levi-Civita
    connection built on the counted metric."""
    fx = instantiate("berger_sphere", {})
    ev = fx.g.evaluator

    def counted(X):
        calls.append(X.value.shape[-1])
        return ev(X)

    g = dataclasses.replace(fx.g, evaluator=counted)
    return dataclasses.replace(fx, g=g)


class TestEvaluationCounts:
    @pytest.mark.parametrize("points", [8, CHUNK + 1])
    def test_singer_metric_once_per_batch(self, points, monkeypatch, capsys):
        """Point by point, eight points took 32 metric and 24 Christoffel
        evaluations: the frame, the tower's Gamma, the torsion and the
        curvature each evaluated their own. Each batch's metric values are
        factored once, for the frames and the Christoffel symbols' check,
        which each factored them."""
        metric, factored = [], []
        christoffel = count_calls(monkeypatch, chart_calculus._christoffel_jet)
        cholesky = np.linalg.cholesky

        def counted(a):
            factored.append(np.shape(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        monkeypatch.setattr(cli, "instantiate", lambda name, params: counted_metric(metric))
        code = cli.main(["--scenario", "singer", "--fixture", "berger_sphere",
                         "--param", "connection=metric", "--points", str(points)])
        capsys.readouterr()
        assert code == 0
        batches = -(-points // CHUNK)
        assert len(metric) <= batches
        assert len(christoffel) <= batches
        assert sum(metric) == points
        assert [shape[0] for shape in factored] == [min(CHUNK, points - start)
                                                    for start in range(0, points, CHUNK)]

    @pytest.mark.parametrize("points,batches", [(1, 1), (CHUNK, 1), (2 * CHUNK + 3, 3)])
    def test_adapt_connection_once_per_batch(self, points, batches, monkeypatch, capsys):
        """adapt builds its points in batches of CHUNK, the first point's
        among them, each once. It never evaluates the canonical connection, and
        evaluates the Levi-Civita one once per batch, at its points; the
        metric and the Christoffel symbols no more often. Through the
        difference tensor, each batch evaluated the canonical connection
        too. The fixture derives both connections, so the builders it calls
        are the ones recorded."""
        metric, connection, canonical = [], [], []
        christoffel = count_calls(monkeypatch, chart_calculus._christoffel_jet)

        def recorded(build, calls):
            def built(source):
                conn = build(source)
                ev = conn.evaluator

                def counted(X):
                    calls.append(X.value.shape[-1])
                    return ev(X)

                return dataclasses.replace(conn, evaluator=counted)

            return built

        monkeypatch.setattr(fixtures, "levi_civita", recorded(fixtures.levi_civita, connection))
        monkeypatch.setattr(fixtures, "frame_connection_field",
                            recorded(fixtures.frame_connection_field, canonical))
        monkeypatch.setattr(cli, "instantiate", lambda name, params: counted_metric(metric))
        code = cli.main(["--scenario", "adapt", "--fixture", "berger_sphere",
                         "--points", str(points)])
        capsys.readouterr()
        assert code == 0
        assert canonical == []
        assert len(connection) == batches
        assert sum(connection) == points
        assert len(metric) <= batches
        assert len(christoffel) <= batches

    @pytest.mark.parametrize("points", [1, 8, 2 * CHUNK + 3])
    def test_adapt_takes_no_cholesky_jet(self, points, monkeypatch, capsys):
        """adapt factors each point's metric value once, in stacks over a
        batch, for its frame and for the Christoffel symbols' check. The two
        factored it once each, and the gauge forms' Cholesky frame jet a
        third time. A single matrix is the inner product's check, made once
        per process."""
        factored = []
        cholesky = np.linalg.cholesky

        def counted(a):
            factored.append(np.shape(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        code = cli.main(["--scenario", "adapt", "--fixture", "berger_sphere",
                         "--points", str(points)])
        capsys.readouterr()
        assert code == 0
        stacks = [shape for shape in factored if len(shape) == 3]
        assert all(shape[1:] == (3, 3) for shape in stacks)
        assert sum(shape[0] for shape in stacks) == points

    def test_adapt_holds_one_batch_of_towers(self, monkeypatch, capsys):
        """Whatever the number of points, adapt holds one batch of towers
        at a time."""
        towers = []
        live = []

        def recorded(*args):
            levels = frame_levels(*args)
            # one reference per batch, to its level-0 data, with its point count
            towers.append((weakref.ref(levels[0][0][1]), len(args[4])))
            return levels

        def checked(levels, chains, *args):
            live.append(sum(count for ref, count in towers if ref() is not None))
            return adapted_residuals(levels, chains, *args)

        monkeypatch.setattr(homogeneity, "frame_levels", recorded)
        monkeypatch.setattr(cli, "adapted_residuals", checked)
        code = cli.main(["--scenario", "adapt", "--fixture", "berger_sphere",
                         "--points", str(3 * CHUNK + 1)])
        capsys.readouterr()
        assert code == 0
        assert live == [CHUNK, CHUNK, CHUNK, 1]

    @pytest.mark.parametrize("scenario", ["singer", "adapt"])
    def test_chains_are_not_held(self, scenario, monkeypatch, capsys):
        """singer and adapt keep each point's dims and Singer stage, not its
        chain and kernel bases: when the report is made, only the last
        build's chains, of one point here, are alive."""
        chains, live = [], []

        def recorded(levels, rep):
            built = stabilizer_chains(levels, rep)
            chains.extend(weakref.ref(chain) for chain in built)
            return built

        def reported(*args, **kwargs):
            live.append(sum(ref() is not None for ref in chains))
            return make_report(*args, **kwargs)

        make_report = cli.make_report
        monkeypatch.setattr(homogeneity, "stabilizer_chains", recorded)
        monkeypatch.setattr(cli, "make_report", reported)
        code = cli.main(["--scenario", scenario, "--fixture", "berger_sphere",
                         "--points", str(3 * CHUNK + 1)])
        capsys.readouterr()
        assert code == 0
        assert len(chains) == 3 * CHUNK + 1
        assert live == [1]

    @pytest.mark.parametrize("argv,forms", [
        ("--scenario total-space --fixture hopf_monopole --param alpha=parallel", 2),
        ("--scenario check-lh-triple --fixture hopf_monopole", 1),
        ("--scenario check-lh-triple --fixture hopf_monopole --param perturb=parallel", 2),
        ("--scenario check-ls-triple --fixture hopf_monopole", 1),
        ("--scenario identities --fixture berger_sphere", 2),
    ])
    def test_checks_evaluate_once_per_batch(self, argv, forms, monkeypatch, capsys):
        """One Christoffel and one metric evaluation for eight points, and
        one evaluation of each form the checks read: total-space reads a0
        and the reference a0 + alpha, check-lh-triple a0 and its reference
        form (a0 itself unless perturbed), check-ls-triple a0, identities
        a and a + alpha, which the curvature variation shares. Point by
        point, eight points took 8 Christoffel and 16 metric evaluations,
        and 8 form evaluations, 24 in identities."""
        christoffel = count_calls(monkeypatch, chart_calculus._christoffel_jet)
        metric = count_method(monkeypatch, chart_calculus.MetricField, "_symmetrized")
        form = count_method(monkeypatch, bundle_conn.LocalConnectionForm, "_checked")
        code = cli.main([*argv.split(), "--points", "8"])
        capsys.readouterr()
        assert code == 0
        assert len(christoffel) == 1
        assert len(metric) == 1
        assert len(form) == forms


    def test_identities_reads_g_off_the_memo(self, monkeypatch, capsys):
        """identities differentiates g as a field read off the metric's
        memo, so the metric's evaluator runs once for eight points, where
        the field g called it once more, outside the memo."""
        metric = []
        monkeypatch.setattr(cli, "instantiate", lambda name, params: counted_metric(metric))
        code = cli.main(["--scenario", "identities", "--fixture", "berger_sphere",
                         "--points", "8"])
        capsys.readouterr()
        assert code == 0
        assert metric == [8]


def count_method(monkeypatch, cls, name):
    """Count the calls of the method cls.name."""
    calls = []
    fn = getattr(cls, name)

    def counted(self, *args):
        calls.append(1)
        return fn(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


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
    return dataclasses.replace(fx, g=g)


# the error each spoiled metric value gives, point by point and in a batch
SPOILED_VALUES = {
    "non-symmetric": "metric evaluator returned a non-symmetric matrix",
    "nan": "metric evaluator returned non-finite values: nan",
    "inf": "metric evaluator returned non-finite values: inf",
    "-inf": "metric evaluator returned non-finite values: -inf",
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


def spoiled_near(ev, pts, bad, value):
    """The evaluator ev with the given value, and zero partials, at the
    points of a batch near pts[bad]."""

    def spoiled(X):
        f = ev(X)
        near = np.linalg.norm(X.value.T - pts[bad], axis=1) < 0.05
        c = f.c.copy()
        c[..., near, :] = 0.0
        c[..., near, 0] = value
        return jet.Jet(c, f.n, f.order)

    return spoiled


# the residuals that are NaN when a connection form or a section is NaN,
# inf or -inf near one of three points: point by point and in a batch alike,
# every such run exits 1 with these residuals NaN
SPOILED_INPUTS = {
    ("check-lh-triple", "form"): ["nabla_F", "nabla_alpha"],
    ("check-ls-triple", "form"): ["nabla_F0"],
    ("identities", "form"): ["bianchi_second", "connection_variation",
                             "curvature_variation", "leibniz"],
    ("identities", "section"): ["connection_variation", "leibniz"],
}


class TestSpoiledFormOfABatch:
    @pytest.mark.parametrize("bad", [0, 1, 2])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("scenario,spoiled", list(SPOILED_INPUTS))
    def test_one_bad_point_fails_closed(self, scenario, spoiled, value, bad, monkeypatch, capsys):
        """The triple checks spoil the fixture's connection form; identities
        its random form a, or its adjoint section."""
        fixture = "berger_sphere" if scenario == "identities" else "hopf_monopole"
        pts = sample_interior(instantiate(fixture, {}).chart, 3, seed=19)
        if scenario != "identities":
            def inst(name, params):
                fx = instantiate(name, params)
                a0 = LocalConnectionForm(fx.algebra, spoiled_near(fx.a0.evaluator, pts, bad, value))
                return dataclasses.replace(fx, a0=a0)

            monkeypatch.setattr(cli, "instantiate", inst)
        elif spoiled == "form":
            def form(chart, algebra, seed):
                ev = smooth_connection_form(chart, algebra, seed).evaluator
                return LocalConnectionForm(algebra, spoiled_near(ev, pts, bad, value))

            monkeypatch.setattr(cli, "smooth_connection_form", form)
        else:
            def section(chart, markers, seed, algebra=None):
                f = smooth_tensor_field(chart, markers, seed, algebra)
                if markers != (LIE,):
                    return f
                return TensorFieldSpec(markers, spoiled_near(f.evaluator, pts, bad, value))

            monkeypatch.setattr(cli, "smooth_tensor_field", section)
        code = cli.main(["--scenario", scenario, "--fixture", fixture,
                         "--points", "3", "--seed", "19"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["pass"] is False
        assert sorted(k for k, v in data["residuals"].items() if v == "nan") == \
            SPOILED_INPUTS[scenario, spoiled]
