"""A batch of towers keeps one representation, the levels of
chart_calculus.frame_levels, from the section to the verdict. The scan
reads each module's syntax tree (ast), as test_imports does: it fails if a
DerivativeTower is constructed anywhere but in the one-point API,
build_tower and tower_and_chain, or if a module defines build_towers."""

import ast
from pathlib import Path

import pytest

import ambrose

SRC = Path(ambrose.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))
ONE_POINT_API = {"build_tower", "tower_and_chain"}


def violations(source: str) -> list[str]:
    """Each DerivativeTower construction outside the one-point API, by the
    innermost function around it (or the module), and each definition or
    binding of build_towers."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == "build_towers":
                found.append("defines build_towers")
            function = node.name if not isinstance(node, ast.ClassDef) else function
        elif isinstance(node, ast.Name) and node.id == "build_towers" and isinstance(
                node.ctx, ast.Store):
            found.append("defines build_towers")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "DerivativeTower" and function not in ONE_POINT_API):
            found.append(f"{function} constructs DerivativeTower")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_towers_stay_stacked(path):
    assert violations(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_a_per_point_tower():
    source = ("def build_tower(x):\n    return DerivativeTower(x)\n\n"
              "def build_towers(xs):\n    return [DerivativeTower(x) for x in xs]\n\n"
              "def tower_and_chain(x):\n    def wrap(y):\n        return DerivativeTower(y)\n"
              "    return wrap(x)\n\nTOWER = DerivativeTower(0)\n")
    assert violations(source) == ["defines build_towers", "build_towers constructs DerivativeTower",
                                  "wrap constructs DerivativeTower",
                                  "<module> constructs DerivativeTower"]
