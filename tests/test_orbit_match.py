"""Orbit matching on the structure group: properties on hand-built so(3)
towers, and a non-homogeneous surface as a negative control."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambrose import jet
from ambrose.chart_calculus import Chart, MetricField, levi_civita, sample_interior
from ambrose.errors import BadParameters
from ambrose.fixtures import Fixture, instantiate
from ambrose.homogeneity import (
    DerivativeTower,
    group_action,
    opozda_section_spec,
    orbit_match,
    tower_and_chain,
)
from ambrose.lie_core import frame_structure_rep
from ambrose.tensor_core import DOWN, UP, DenseTensor, OrthoFrame, apply_axis

REP3 = frame_structure_rep(3)
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
    entries = tuple(
        tuple(DenseTensor(m, rng.standard_normal((3,) * len(m))) for m in level)
        for level in MARKERS
    )
    fr = OrthoFrame(point=np.zeros(3), frame=np.eye(3), coframe=np.eye(3))
    return DerivativeTower(point=np.zeros(3), frame=fr, kmax=1, entries=entries)


def transformed(tower, act):
    return DerivativeTower(
        point=tower.point, frame=tower.frame, kmax=tower.kmax,
        entries=tuple(tuple(act(t) for t in level) for level in tower.entries),
    )


def mirrored(t):
    """Every axis reflected by diag(1, 1, -1), which is not in SO(3)."""
    data = t.data
    for ax in range(data.ndim):
        data = apply_axis(np.diag([1.0, 1.0, -1.0]), data, ax)
    return DenseTensor(t.markers, data)


class TestOrbitMatchProperties:
    @PROPERTY
    @given(seed=seeds, theta=angles)
    def test_rotated_tower_matches(self, seed, theta):
        tower = generic_tower(seed)
        rotated = transformed(tower, lambda t: group_action(np.array(theta), REP3, t))
        match = orbit_match(tower, rotated, REP3, depth=1)
        assert match.matched, match.reason
        assert match.residual < 1e-9
        for a, b in zip(tower.up_to(1), rotated.up_to(1)):
            assert np.linalg.norm(group_action(match.theta, REP3, a).data - b.data) < 1e-9 * b.norm()

    @PROPERTY_SLOW
    @given(seed=seeds)
    def test_mirror_image_fails_on_residual(self, seed):
        """Norms and even-rank spectra are O(3)-invariant, so both
        prescreens pass; no rotation reaches the reflected rank-3 entries."""
        tower = generic_tower(seed)
        match = orbit_match(tower, transformed(tower, mirrored), REP3, depth=1)
        assert not match.matched
        assert match.reason == "residual"
        assert match.residual >= 1e-6

    @PROPERTY
    @given(seed=seeds, level=st.integers(0, 1), entry=st.integers(0, 1),
           flat=st.integers(0, 80), second=st.booleans())
    def test_nan_entry_never_matches(self, seed, level, entry, flat, second):
        tower = generic_tower(seed)
        t = tower.entries[level][entry]
        data = t.data.copy()
        data.flat[flat % data.size] = np.nan
        levels = [list(lv) for lv in tower.entries]
        levels[level][entry] = DenseTensor(t.markers, data)
        poisoned = DerivativeTower(point=tower.point, frame=tower.frame, kmax=1,
                                   entries=tuple(tuple(lv) for lv in levels))
        pair = (tower, poisoned) if second else (poisoned, tower)
        # the stabilizer chains reject the NaN before any search
        with pytest.raises(BadParameters):
            orbit_match(*pair, REP3, depth=1)


def warped_surface() -> Fixture:
    """dr^2 + (r + r^3)^2 dtheta^2: Gauss curvature -6 / (1 + r^2) varies
    with r, so towers at points of different r lie in different orbits."""
    chart = Chart(dim=2, box=np.array([[0.5, 1.5], [0.0, 2 * np.pi]]), margin=0.05)

    def ev(X):
        r = X[0]
        return jet.array([[1.0, 0.0], [0.0, (r + r**3) ** 2]])

    g = MetricField(chart=chart, evaluator=ev)
    return Fixture("warped_surface", {}, chart, g, levi_civita(g))


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
