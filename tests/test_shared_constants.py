"""The constants a run reads are built once per process and shared: the
parser, so(n) and its rep, the catalog algebras, their default inner
products and adjoint reps. A second run in a process builds and checks none
of them again and prints the same report; every shared array is read-only;
and each construction check still runs on every new object."""

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ambrose import cli, lie_core
from ambrose.errors import BadParameters, NotInvariant, RepMismatch
from ambrose.homogeneity import with_adjoint_rep
from ambrose.lie_core import (
    AdInvariantInner,
    LieAlgebra,
    LinearRep,
    TensorRep,
    action_rows,
    algebra_by_name,
    default_inner,
    frame_structure_rep,
)
from ambrose.tensor_core import DOWN, LIE, UP
from test_reachable import CACHES, RUNS

GOLDEN = {run["argv"]: run
          for run in json.loads(Path(__file__).with_name("golden_reports.json").read_text())}

# the code of each constructor or construction check of a shared constant
CONSTRUCTORS = {
    "build_parser": cli.build_parser.__wrapped__.__code__,
    "so_generators": lie_core.so_generators.__code__,
    "algebra_from_matrices": lie_core.algebra_from_matrices.__code__,
    "algebra_by_name": algebra_by_name.__wrapped__.__code__,
    "default_inner": default_inner.__wrapped__.__code__,
    "LieAlgebra.__post_init__": LieAlgebra.__post_init__.__code__,
    "LinearRep.__post_init__": LinearRep.__post_init__.__code__,
    "AdInvariantInner.__post_init__": AdInvariantInner.__post_init__.__code__,
}


def counted_run(argv: str, capsys) -> tuple[int, str, Counter]:
    """cli.main(argv)'s exit code and stdout, and how many times it called
    each constructor."""
    names = {code: name for name, code in CONSTRUCTORS.items()}
    calls = Counter()

    def record(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]] += 1

    sys.setprofile(record)
    try:
        code = cli.main(argv.split())
    finally:
        sys.setprofile(None)
    return code, capsys.readouterr().out, calls


@pytest.mark.parametrize("argv, first", [
    ("--scenario total-space --fixture hopf_monopole",
     {"build_parser", "algebra_by_name", "default_inner", "LieAlgebra.__post_init__",
      "AdInvariantInner.__post_init__"}),
    ("--scenario adapt --fixture berger_sphere",
     {"build_parser", "so_generators", "algebra_from_matrices", "algebra_by_name",
      "default_inner", "LieAlgebra.__post_init__", "LinearRep.__post_init__",
      "AdInvariantInner.__post_init__"}),
])
def test_second_run_builds_no_constant(argv, first, capsys):
    """From empty caches, the first run builds its constants and the second
    builds none; both print the golden report."""
    for built_once in CACHES:
        built_once.cache_clear()
    runs = [counted_run(argv, capsys) for _ in range(2)]
    assert first <= set(runs[0][2])
    assert runs[1][2] == Counter()
    golden = GOLDEN[argv]
    assert [(code, out) for code, out, _ in runs] == [(golden["exit"], golden["stdout"])] * 2


@pytest.mark.parametrize("argv", [argv for argv, _ in RUNS])
def test_no_scenario_rebuilds_a_constant(argv, capsys):
    """Every scenario and variant, at one point: a run after the first in a
    process builds and checks no constant."""
    counted_run(f"{argv} --points 1", capsys)
    assert counted_run(f"{argv} --points 1", capsys)[2] == Counter()


def test_each_constant_is_one_object():
    su2 = algebra_by_name("su(2)")
    assert algebra_by_name("su(2)") is su2
    assert default_inner(su2) is default_inner(su2)
    assert su2.adjoint_rep() is su2.adjoint_rep()
    rep = frame_structure_rep(3)
    assert frame_structure_rep(3) is rep
    assert rep.axis_stacks() is rep.axis_stacks()
    assert rep.vector.axis_stacks() is rep.vector.axis_stacks()
    assert with_adjoint_rep(rep) is with_adjoint_rep(rep)
    # the sum with k is built on each call, around the shared so(n) rep
    summed = frame_structure_rep(3, su2)
    assert summed.algebra is not frame_structure_rep(3, su2).algebra
    assert np.array_equal(summed.vector.matrices[:3], rep.vector.matrices)


def test_shared_arrays_are_read_only():
    su2 = algebra_by_name("su(2)")
    rep = frame_structure_rep(3)
    for arr in (rep.vector.matrices, rep.algebra.structure, su2.structure,
                su2.adjoint_rep().matrices, default_inner(su2).matrix,
                frame_structure_rep(2, su2).lie.matrices):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


@pytest.mark.parametrize("make", [lambda: frame_structure_rep(3),
                                  lambda: frame_structure_rep(2, algebra_by_name("su(2)")),
                                  lambda: with_adjoint_rep(frame_structure_rep(3))],
                         ids=["so(3)", "so(2)+su(2)", "so(3)-adjoint"])
def test_generator_stacks_are_held_read_only(make, monkeypatch):
    """A rep builds the generator stacks _leibniz reads once, on first use,
    and holds them read-only: +X on UP axes, -X^T on DOWN axes and the lie
    rep's matrices on LIE axes, each (B n, n)."""
    built = []
    stacks_of = lie_core.axis_stacks
    monkeypatch.setattr(lie_core, "axis_stacks", lambda *a: built.append(1) or stacks_of(*a))
    rep = make()
    # a fresh rep of the same matrices, so that nothing is held yet
    rep = TensorRep(rep.algebra, LinearRep(rep.algebra, rep.vector.matrices),
                    None if rep.lie is None else LinearRep(rep.algebra, rep.lie.matrices))
    data = np.random.default_rng(3).normal(size=(2,) + rep.vector.matrices.shape[1:])
    first = action_rows((UP, DOWN), data, rep)
    for _ in range(3):
        np.testing.assert_array_equal(action_rows((UP, DOWN), data, rep), first)
    assert len(built) == (1 if rep.lie is None else 2)
    stacks = rep.axis_stacks()
    assert set(stacks) == ({UP, DOWN} if rep.lie is None else {UP, DOWN, LIE})
    mats = rep.vector.matrices
    n = mats.shape[-1]
    np.testing.assert_array_equal(stacks[UP], mats.reshape(-1, n))
    np.testing.assert_array_equal(stacks[DOWN], -mats.transpose(0, 2, 1).reshape(-1, n))
    if rep.lie is not None:
        lie = rep.lie.matrices
        np.testing.assert_array_equal(stacks[LIE], lie.reshape(-1, lie.shape[-1]))
    for stack in stacks.values():
        with pytest.raises(ValueError):
            stack[0, 0] = 1.0


def test_a_constant_keeps_no_alias_of_its_input():
    """Each array is copied before its check, so a change to the caller's
    array reaches neither the checked constant nor the caller's flags."""
    c = np.zeros((1, 1, 1))
    alg = LieAlgebra(("a",), c)
    c[0, 0, 0] = 1.0
    assert alg.structure[0, 0, 0] == 0.0
    mats = lie_core.so_generators(2)
    rep = LinearRep(alg, mats)
    mats[0] = 0.0
    assert rep.matrices[0, 1, 0] == 1.0


def test_checks_run_on_every_new_object():
    """Sharing the constants skips no check: a spoiled copy of a shared
    constant's array is refused on construction."""
    su2 = algebra_by_name("su(2)")
    c = su2.structure.copy()
    c[0, 0, 1] += 1e-13  # within the Jacobi check's tolerance, not antisymmetric
    with pytest.raises(BadParameters):
        LieAlgebra(su2.labels, c)
    with pytest.raises(NotInvariant):
        AdInvariantInner(su2, default_inner(su2).matrix @ np.diag([1.0, 2.0, 3.0]))
    rep = frame_structure_rep(3)
    with pytest.raises(RepMismatch):
        LinearRep(rep.algebra, rep.vector.matrices[[1, 0, 2]])
