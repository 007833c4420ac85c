"""Every name a module of ambrose imports is used in it, so that a deletion
cannot leave its imports behind. The scan reads each module's syntax tree
(ast), as no linter is a dependency: a name bound by an import, other than
a __future__ feature, must be read somewhere in the module, an annotation
included."""

import ast
from pathlib import Path

import pytest

import ambrose

SRC = Path(ambrose.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that the module's imports bind and that it never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport numpy as np\nimport os.path\n"
              "from .jet import Jet, shift\n\ndef f(x: Jet):\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["np", "shift"]
