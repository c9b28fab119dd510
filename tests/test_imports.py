"""Module boundaries: no module reaches into a sibling module's private names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wearsim"


def private_uses(source: str) -> list[str]:
    """Underscore names a module takes from its siblings, as 'line N: module.name'.

    Covers `from .mod import _name`, `from wearsim.mod import _name` and
    `mod._name` on a module bound by `from . import mod`.
    """
    tree = ast.parse(source)
    found: list[str] = []
    modules: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("wearsim"):
            continue
        for alias in node.names:
            if node.module is None:
                modules.add(alias.asname or alias.name)
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"line {node.lineno}: {node.module or '.'}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_from_siblings(path):
    assert private_uses(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_each_form():
    source = ("from . import radio as r\n"
              "from .pipeline import _cell, write_csv\n"
              "from wearsim.runner import _slug\n"
              "r._derived_seed(1, 2)\n"
              "r.build_field([], 1.0)\n")
    assert private_uses(source) == ["line 2: pipeline._cell", "line 3: wearsim.runner._slug",
                                    "line 4: r._derived_seed"]
