"""One tensor layout in src: a tensor is (markers, data), a frame is
(coframe, frame), and a batch of towers, one tower being a batch of one, is
the levels of chart_calculus.frame_levels, from the section to the verdict.
The scan reads each module's syntax tree (ast), as test_imports does: it
fails if a module defines a class of a second layout, DerivativeTower,
DenseTensor or OrthoFrame, or defines build_towers. And the scenarios that
read towers, singer and adapt, share one pass: cli calls towers_and_chains
at one site. No src function differentiates by finite differences:
fd_array, the tests' reference, has no caller there. And cli alone judges:
no other module defines or binds TOLERANCES, BAD_FLAGS, verdict or
make_report, or defines a class VerificationReport; the criteria return
residuals."""

import ast
from pathlib import Path

import pytest

import ambrose

SRC = Path(ambrose.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))
SECOND_LAYOUT = {"DerivativeTower", "DenseTensor", "OrthoFrame"}


def violations(source: str) -> list[str]:
    """Each definition of a class of a second layout, at any depth, and
    each definition or binding of build_towers."""
    found = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.ClassDef) and node.name in SECOND_LAYOUT:
            found.append(f"defines class {node.name}")
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name == "build_towers"
              or isinstance(node, ast.Name) and node.id == "build_towers"
              and isinstance(node.ctx, ast.Store)):
            found.append("defines build_towers")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_towers_stay_stacked(path):
    assert violations(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_a_second_layout():
    source = ("class DenseTensor:\n    pass\n\n"
              "def build_towers(xs):\n    class OrthoFrame:\n        pass\n    return xs\n\n"
              "build_towers = None\n\n"
              "class Tower:\n    class DerivativeTower:\n        pass\n\n"
              "def build_tower(x):\n    return DerivativeTower(x)\n")
    assert violations(source) == ["defines class DenseTensor", "defines build_towers",
                                  "defines class OrthoFrame", "defines build_towers",
                                  "defines class DerivativeTower"]


def call_sites(source: str, name: str) -> int:
    """The calls of the function name in source, by name or attribute."""
    return sum(isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                        getattr(node.func, "attr", None))
               for node in ast.walk(ast.parse(source)))


def test_one_tower_pass_in_cli():
    assert call_sites((SRC / "cli.py").read_text(encoding="utf-8"), "towers_and_chains") == 1


def test_the_scan_counts_every_call_site():
    source = ("def run_singer():\n    for build in towers_and_chains(p):\n        pass\n\n"
              "def run_adapt():\n    *_, probe = homogeneity.towers_and_chains(p[:1])\n"
              "    return list(towers_and_chains(p[1:])), towers_and_chains\n")
    assert call_sites(source, "towers_and_chains") == 3


def fd_callers(source: str) -> list[str]:
    """The functions (or the module) that call fd_array, by name or
    attribute."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call) and "fd_array" in (getattr(node.func, "id", None),
                                                         getattr(node.func, "attr", None)):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_finite_differences_in_src(path):
    assert fd_callers(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_fd_call():
    source = ("def fd_array(f, chart, x, mu):\n    return f(x)\n\n"
              "def partials(f, chart, x):\n    return [fd_array(f, chart, x, mu) for mu in (0, 1)]\n\n"
              "D = chart_calculus.fd_array(f, chart, x, 0)\n")
    assert fd_callers(source) == ["partials", "<module>"]


JUDGE = {"TOLERANCES", "BAD_FLAGS", "verdict", "make_report", "VerificationReport"}


def judge_bindings(source: str) -> list[str]:
    """Each name of JUDGE that the source defines (a function or a class) or
    binds (an assignment or an import), sorted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        else:
            continue
        if name in JUDGE:
            found.append(name)
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=[p.name for p in MODULES if p.name != "cli.py"])
def test_only_cli_judges(path):
    assert judge_bindings(path.read_text(encoding="utf-8")) == []


def test_cli_holds_the_judgement():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert judge_bindings(source) == ["BAD_FLAGS", "TOLERANCES", "make_report", "verdict"]


# the judgement homogeneity held, and total_space imported, before cli owned
# it (bodies abridged)
JUDGING_HOMOGENEITY = """
from dataclasses import dataclass

BAD_FLAGS = ("ambiguous", "truncated", "dims-vary", "singer-varies", "hypotheses-failed",
             "numerical-failure")
TOLERANCES = {"singer": {"nesting_angle": 1e-6, "subalgebra": 1e-7}}


@dataclass(frozen=True)
class VerificationReport:
    scenario: str
    residuals: dict[str, float]
    passed: bool


def verdict(residuals, tolerances, flags=()):
    return (all(residuals[k] < tolerances[k] for k in tolerances)
            and not any(f in BAD_FLAGS for f in flags))


def make_report(scenario, fixture, points, residuals, flags=()):
    tolerances = {k: TOLERANCES[scenario][k] for k in residuals}
    return VerificationReport(scenario, residuals, verdict(residuals, tolerances, flags))
"""
JUDGING_TOTAL_SPACE = "from .homogeneity import TOLERANCES, VerificationReport, lh_fields, make_report\n"


def test_the_scan_finds_a_second_judge():
    assert judge_bindings(JUDGING_HOMOGENEITY) == [
        "BAD_FLAGS", "TOLERANCES", "VerificationReport", "make_report", "verdict"]
    assert judge_bindings(JUDGING_TOTAL_SPACE) == [
        "TOLERANCES", "VerificationReport", "make_report"]
