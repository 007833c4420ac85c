"""Orbit matching on the structure group: properties on hand-built so(3)
towers, the group action against its axis-by-axis oracle and the count of
exponentials and residual evaluations per match, a non-homogeneous surface
as a negative control, and the closed-form exp Jacobian against its power
series."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambrose import homogeneity
from ambrose.chart_calculus import sample_interior
from ambrose.errors import BadParameters, RepMismatch
from ambrose.fixtures import instantiate
from ambrose.homogeneity import (
    group_action,
    opozda_section_spec,
    orbit_match,
    stabilizer_chain,
    tower_and_chain,
)
from ambrose.lie_core import algebra_by_name, frame_structure_rep, skew_exp
from ambrose.tensor_core import DOWN, LIE, UP
from oracles import apply_axis, entries, exp_jacobian_series, warped_surface
from test_homogeneity import flat_tower3
from test_total_space import count_calls

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REP3 = frame_structure_rep(3)
# frame dim 2, lie dim 3: an axis cycle over unequal dims
REP_SU2 = frame_structure_rep(2, algebra_by_name("su(2)"))
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
# a failing search runs all MATCH_STARTS starts, so fewer examples
PROPERTY_SLOW = settings(max_examples=10, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)
angles = st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3)

# generic entries: a rank-3 (UP, DOWN, DOWN) entry and a rank-2 one at
# level 0, their first derivatives at level 1
MARKERS = (((UP, DOWN, DOWN), (DOWN, DOWN)),
           ((DOWN, UP, DOWN, DOWN), (DOWN, DOWN, DOWN)))


def generic_tower(seed):
    rng = np.random.default_rng(seed)
    return flat_tower3([[(m, rng.standard_normal((3,) * len(m))) for m in level]
                        for level in MARKERS])


def transformed(tower, act):
    """The tower with act(markers, data) applied to each entry."""
    return flat_tower3([[(m, act(m, data[0])) for m, data in level] for level in tower])


def mirrored(markers, data):
    """Every axis reflected by diag(1, 1, -1), which is not in SO(3)."""
    for ax in range(data.ndim):
        data = apply_axis(np.diag([1.0, 1.0, -1.0]), data, ax)
    return data


class TestOrbitMatchProperties:
    @PROPERTY
    @given(seed=seeds, theta=angles)
    def test_rotated_tower_matches(self, seed, theta):
        tower = generic_tower(seed)
        rotated = transformed(tower, lambda m, t: group_action(np.array(theta), REP3, [(m, t)])[0])
        match = orbit_match(tower, rotated, REP3, depth=1)
        assert match.matched, match.reason
        assert match.residual < 1e-9
        for a, (_, b) in zip(entries(tower, 1), entries(rotated, 1)):
            moved = group_action(match.theta, REP3, [a])[0]
            assert np.linalg.norm(moved - b) < 1e-9 * np.linalg.norm(b)

    @PROPERTY_SLOW
    @given(seed=seeds)
    def test_mirror_image_fails_on_residual(self, seed):
        """Norms and even-rank spectra are O(3)-invariant, so both
        prescreens pass; no rotation reaches the reflected rank-3 entries."""
        tower = generic_tower(seed)
        thetas = []
        action = homogeneity.group_action

        def counted_action(theta, rep, tensors):
            thetas.append(np.array(theta))
            return action(theta, rep, tensors)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homogeneity, "group_action", counted_action)
            match = orbit_match(tower, transformed(tower, mirrored), REP3, depth=1)
        assert not match.matched
        assert match.reason == "residual"
        assert match.residual >= 1e-6
        # a failing search runs every start: theta = 0, then the seeded
        # draws, each descent's first residual evaluation at -theta0
        rng = np.random.default_rng(0)
        starts = [np.zeros(3)] + [rng.uniform(-np.pi, np.pi, size=3)
                                  for _ in range(homogeneity.MATCH_STARTS - 1)]
        firsts = [i for i, t in enumerate(thetas) if any(np.array_equal(t, -s) for s in starts)]
        assert len(firsts) == homogeneity.MATCH_STARTS

    @PROPERTY
    @given(seed=seeds, level=st.integers(0, 1), entry=st.integers(0, 1),
           flat=st.integers(0, 80), second=st.booleans())
    def test_nan_entry_never_matches(self, seed, level, entry, flat, second):
        tower = generic_tower(seed)
        markers, data = tower[level][entry]
        data = data.copy()
        data.flat[flat % data.size] = np.nan
        poisoned = [list(lv) for lv in tower]
        poisoned[level][entry] = markers, data
        pair = (tower, poisoned) if second else (poisoned, tower)
        # orbit_match rejects a non-finite entry before any search
        with pytest.raises(BadParameters):
            orbit_match(*pair, REP3, depth=1)


def invariant_tower(level2):
    """Levels 0 and 1 are delta_ij and eps_ijk, which all of so(3) fixes;
    level 2 is the given rank-4 entry."""
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[j, i, k] = 1.0, -1.0
    return flat_tower3([[((DOWN, DOWN), np.eye(3))], [((DOWN,) * 3, eps)],
                        [((DOWN,) * 4, level2)]])


class TestMatchDepth:
    def test_entries_above_depth_are_not_compared(self):
        """Singer's condition reads the entries up to the match depth only:
        towers whose chains differ above it still match there."""
        generic = invariant_tower(np.random.default_rng(0).standard_normal((3,) * 4))
        flat = invariant_tower(np.zeros((3,) * 4))
        chains = stabilizer_chain(generic, REP3), stabilizer_chain(flat, REP3)
        assert [c.dims for c in chains] == [(3, 3, 0), (3, 3, 3)]
        # h(2) is empty in the generic chain
        assert chains[0].nesting[1] == 0.0
        match = orbit_match(generic, flat, REP3, depth=1)
        assert match.matched, match.reason
        assert match.residual == 0.0
        assert not orbit_match(generic, flat, REP3, depth=2).matched

    def test_no_chain_and_no_angle_per_match(self, monkeypatch):
        """The orbit-match workload's operation at seed 3 builds no
        stabilizer chain and takes no principal angle."""
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        chains = count_calls(monkeypatch, homogeneity.stabilizer_chains)
        angles = count_calls(monkeypatch, homogeneity._nesting)
        workload = workloads.WORKLOADS["orbit-match"]
        assert workload.oracle(json.loads(workload.run(3))) is not None
        assert chains == []
        assert angles == []


def matches_at_singer_depth(fx, seed):
    """orbit_match of the first sample point against each other one, at
    depth singer_k + 1."""
    rep = frame_structure_rep(fx.chart.dim)
    sigma = opozda_section_spec(fx.gamma)
    towers = [tower_and_chain(sigma, None, fx.gamma, fx.g, x, rep)
              for x in sample_interior(fx.chart, 4, seed=seed)]
    (t0, c0), rest = towers[0], towers[1:]
    assert c0.singer_k is not None
    return [orbit_match(t0, t, rep, depth=c0.singer_k + 1) for t, _ in rest]


class TestNegativeControl:
    def test_warped_surface_never_matches(self):
        for seed in (3, 11):
            for match in matches_at_singer_depth(warped_surface(), seed):
                assert not match.matched, match

    @pytest.mark.parametrize("name", ["round_sphere2", "berger_sphere"])
    def test_homogeneous_fixtures_match(self, name):
        for match in matches_at_singer_depth(instantiate(name, {}), 3):
            assert match.matched, match.reason
            assert match.residual <= 1e-8


def random_tensors(rng, count):
    """Tensors of rank 0 to 5 with random UP, DOWN and LIE axes under REP_SU2."""
    out = []
    for _ in range(count):
        markers = tuple(rng.choice([UP, DOWN, LIE], size=rng.integers(0, 6)))
        dims = tuple(3 if m == LIE else 2 for m in markers)
        out.append((markers, rng.standard_normal(dims)))
    return out


class TestGroupAction:
    @PROPERTY
    @given(seed=seeds)
    def test_matches_axis_by_axis_oracle(self, seed):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-np.pi, np.pi, REP_SU2.algebra.dim)
        # the same exponentials (test_lie_core checks them against scipy's
        # expm), so that the bound judges the axis cycle alone
        gv = skew_exp(REP_SU2.vector.matrix(theta))
        gl = skew_exp(REP_SU2.lie.matrix(theta))
        tensors = random_tensors(rng, 12)
        moved = group_action(theta, REP_SU2, tensors)
        assert len(moved) == len(tensors)
        for (markers, t), out in zip(tensors, moved):
            data = t
            for ax, m in enumerate(markers):
                data = apply_axis(gl if m == LIE else gv, data, ax)
            assert out.shape == np.shape(t)
            assert np.linalg.norm(out - data) <= 1e-14 * np.linalg.norm(t)
            # one call on many tensors is one call per tensor
            assert np.array_equal(group_action(theta, REP_SU2, [(markers, t)])[0], out)

    def test_lie_axis_without_lie_rep_raises(self):
        with pytest.raises(RepMismatch):
            group_action(np.zeros(3), REP3, [((DOWN, LIE), np.zeros((3, 3)))])

    def test_wrong_axis_dim_raises_even_when_it_reshapes(self):
        # 12 components reshape to (3, 4), but the first axis has dim 2
        with pytest.raises(RepMismatch):
            group_action(np.zeros(3), REP3, [((DOWN, DOWN), np.ones((2, 6)))])
        with pytest.raises(RepMismatch):
            group_action(np.zeros(4), REP_SU2, [((LIE,), np.ones(2))])

    def test_one_exponential_per_residual_evaluation(self, monkeypatch):
        """The orbit-match workload's berger_sphere pair at seed 3: each
        residual evaluation is one group_action call on every entry of the
        second tower, with one exponential (the rep has no lie part)."""
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        seconds, acted, exps = [], [], []
        match, action, exp = homogeneity.orbit_match, homogeneity.group_action, homogeneity.skew_exp

        def counted_match(t1, t2, rep, depth):
            assert rep.lie is None
            seconds.append([data for _, data in entries(t2, depth)])
            return match(t1, t2, rep, depth)

        def counted_action(theta, rep, tensors):
            acted.append([data for _, data in tensors])
            return action(theta, rep, tensors)

        def counted_exp(x):
            exps.append(1)
            return exp(x)

        monkeypatch.setattr(homogeneity, "orbit_match", counted_match)
        monkeypatch.setattr(homogeneity, "group_action", counted_action)
        monkeypatch.setattr(homogeneity, "skew_exp", counted_exp)
        workload = workloads.WORKLOADS["orbit-match"]
        assert workload.fixture == "berger_sphere"
        assert workload.oracle(json.loads(workload.run(3))) is not None
        assert len(seconds) == 1 and len(seconds[0]) == 2
        # every call acts on the entries of the second tower themselves
        assert acted and all(len(data) == 2 and all(map(np.shares_memory, data, seconds[0]))
                             for data in acted)
        assert len(exps) == len(acted)
        # a start that reaches the rounding floor ends there
        assert len(acted) <= 12


# the algebras of every catalog structure group
JACOBIAN_ALGEBRAS = {
    "so(2)": frame_structure_rep(2).algebra,
    "so(3)": REP3.algebra,
    "so(4)": frame_structure_rep(4).algebra,
    "so(2)+su(2)": REP_SU2.algebra,
    "so(3)+su(2)+u(1)": frame_structure_rep(3, algebra_by_name("su(2)+u(1)")).algebra,
}


def jacobian_thetas(m, rng):
    """theta = 0, |theta| about 1e-9, uniform draws in [-pi, pi]^m, and
    draws with |theta| within 1e-3 of 2 pi, where phi(ad) of so(3) has a
    zero eigenvalue."""
    yield np.zeros(m)
    for radius in (1e-9, *(2 * np.pi + rng.uniform(-1e-3, 1e-3, 10))):
        u = rng.standard_normal(m)
        yield radius * u / np.linalg.norm(u)
    for _ in range(20):
        yield rng.uniform(-np.pi, np.pi, m)


class TestExpJacobian:
    @pytest.mark.parametrize("name", sorted(JACOBIAN_ALGEBRAS))
    def test_closed_form_matches_series(self, name):
        """The gap is the series' cancellation: it reaches 4.4e-13 on
        so(2)+su(2), whose su(2) eigenvalues reach 4 pi on the 2 pi shell,
        where the closed form agrees with scipy's expm of the block matrix
        [[ad, 1], [0, 0]] to 1e-14."""
        algebra = JACOBIAN_ALGEBRAS[name]
        for theta in jacobian_thetas(algebra.dim, np.random.default_rng(5)):
            ad = algebra.ad(theta)
            got = homogeneity._exp_jacobian(ad)
            assert np.abs(got - exp_jacobian_series(ad)).max() <= 1e-12, theta

    def test_zero_eigenvalue_near_two_pi(self):
        """exp(2 pi L) = 1 on so(3), so phi(ad) is singular there."""
        ad = REP3.algebra.ad(np.array([0.0, 0.0, 2 * np.pi]))
        assert np.linalg.svd(homogeneity._exp_jacobian(ad), compute_uv=False).min() <= 1e-15

    def test_non_skew_raises(self):
        with pytest.raises(BadParameters):
            homogeneity._exp_jacobian(np.array([[0.0, 1.0], [0.0, 0.0]]))
