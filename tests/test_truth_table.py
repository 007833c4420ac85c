"""The verdict truth table: for each scenario that decides local
homogeneity, the exit code that the geometry says it must give on a fixture
whose answer is known.

Each row runs through ``cli.main`` with its fixture injected, as a test
injects a transformed fixture anywhere else. The transforms live in
``oracles``: the warped surface and the bump give metrics that are not
locally homogeneous, a homothety g -> c^2 g keeps a locally homogeneous one
so, and the Euler chart of the Berger sphere at small lambda is a locally
homogeneous metric on a badly conditioned chart. The flat bundle's bump
shift, centred in its chart, moves the reference form of check-lh-triple
and the reference distribution of total-space off parallel.

A row that the program gets wrong is a strict xfail whose reason names the
ROADMAP item that mends it: when that item lands the row XPASSes, which
fails the suite, and the marker goes. An expected exit code is never
changed to match the program.
"""

import pytest

from ambrose import cli
from ambrose.fixtures import instantiate
from oracles import bumped, homothety, warped_surface

SINGER = ("--scenario", "singer")
SINGER_METRIC = ("--scenario", "singer", "--param", "connection=metric")
SINGER_CANONICAL = ("--scenario", "singer", "--param", "connection=canonical")
ADAPT = ("--scenario", "adapt")
LH_BUMP = ("--scenario", "check-lh-triple", "--param", "perturb=bump")
TOTAL_SPACE_BUMP = ("--scenario", "total-space", "--param", "alpha=bump", "--points", "2")

ITEM_2 = "ROADMAP item 2: singer does not check Singer's condition"
ITEM_3 = "ROADMAP item 3: the coordinate Christoffel jets lose the deep levels' digits"
ITEM_4 = "ROADMAP item 4: fixed tolerances on residuals that scale with the metric"


def catalog(name, params=None):
    return lambda: instantiate(name, params or {})


def row(argv, make, code, ident, xfail=None):
    marks = () if xfail is None else pytest.mark.xfail(reason=xfail, strict=True)
    words = [a for a in argv if not a.startswith("--")]
    return pytest.param(argv, make, code, id="-".join([ident, *words]), marks=marks)


NEGATIVES = [
    ("warped-surface", warped_surface),
    ("bumped-berger", lambda: bumped(instantiate("berger_sphere", {}))),
    ("bumped-round-sphere", lambda: bumped(instantiate("round_sphere2", {}))),
]
# the fixtures that carry a bundle form, which adapt refuses
BUNDLES = ("hopf_monopole", "trivial_bundle_flat")


def homothety_xfail(name, c, argv):
    """At c = 1e-2 adapt's residuals exceed their fixed tolerances, and
    round_sphere3's chain is flagged ambiguous."""
    return ITEM_4 if c < 1 and (argv == ADAPT or name == "round_sphere3") else None


ROWS = [
    *(row(argv, make, 1, ident, ITEM_2 if argv == SINGER else None)
      for ident, make in NEGATIVES for argv in (SINGER, ADAPT)),
    *(row(argv, lambda name=name, c=c: homothety(instantiate(name, {}), c), 0,
          f"{name}-c={c:g}", homothety_xfail(name, c, argv))
      for name in ("round_sphere2", "hyperbolic_plane", "berger_sphere", "round_sphere3")
      for c in (1e-2, 1e3) for argv in (SINGER_METRIC, ADAPT)),
    *(row(argv, catalog("berger_sphere", {"lam": lam}), 0, f"berger_sphere-lam={lam}", ITEM_3)
      for lam in (0.1, 0.15, 0.2) for argv in (SINGER_METRIC, ADAPT)),
    # a radius far from 1: singer at 1e150 passes; adapt's pseudo-inverse
    # overflows at 1e150, and the deep levels overflow at 1e-100
    *(row(argv, catalog("round_sphere2", {"radius": r}), 0, f"round_sphere2-radius={r:g}",
          None if r > 1 and argv == SINGER_METRIC else ITEM_4)
      for r in (1e150, 1e-100) for argv in (SINGER_METRIC, ADAPT)),
    *(row(argv, catalog(name), 0, name)
      for name in ("euclidean", "flat_torus", "round_sphere2", "hyperbolic_plane",
                   "round_sphere3", "berger_sphere", *BUNDLES)
      for argv in (SINGER_METRIC,
                   *((SINGER_CANONICAL,) if instantiate(name, {}).frame_conn else ()),
                   *(() if name in BUNDLES else (ADAPT,)))),
    # the flat bundle's bump shift is not parallel, so neither is the
    # reference form it moves, nor the reference distribution
    *(row(argv, catalog("trivial_bundle_flat", {"algebra": algebra}), 1,
          f"trivial_bundle_flat-{algebra}")
      for algebra in ("su(2)", "so(3)", "su(2)+u(1)") for argv in (LH_BUMP, TOTAL_SPACE_BUMP)),
]


@pytest.mark.parametrize("argv, make, code", ROWS)
def test_verdict(argv, make, code, monkeypatch, capsys):
    # the injected fixture replaces whichever catalog fixture is named
    monkeypatch.setattr(cli, "instantiate", lambda name, params: make())
    exit_code = cli.main([*argv, "--fixture", "round_sphere2"])
    capsys.readouterr()
    assert exit_code == code
