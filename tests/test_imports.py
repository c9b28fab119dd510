"""Module boundaries: no module reaches into a sibling module's private names,
no public name or instance attribute of the library is there only for the
tests, no module imports a name it does not use, no module takes a
matrix product, and the protocol loops and the runner call no TraceRow.
Every library and test file parses as Python 3.10."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wearsim"
SPANS = ROOT / "perfbench" / "spans.py"


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


def code_names(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of each name and attribute that code refers to. Docstrings
    and other strings are not code."""
    return [(node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]


def span_targets(source: str) -> tuple[tuple[str, str, str], ...]:
    """A span table, TARGETS = ((span, module, dotted path in module), ...)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    return ()


def span_target_names(source: str) -> set[str]:
    """Each dotted part of the strings in a span table."""
    return {part for entry in span_targets(source) for text in entry
            for part in text.split(".")}


def span_target_pairs(source: str) -> set[tuple[str, str]]:
    """(module, name) of each name a span table looks up in a module."""
    return {(module, path.split(".")[0]) for _, module, path in span_targets(source)}


def attribute_loads(tree: ast.AST) -> set[str]:
    """The attributes that code reads, as in `x.attr`; not those it sets."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def orphans(library: dict[str, str], outside: set[str], outside_loads: set[str]) -> list[str]:
    """The public functions, classes and methods of library (file name: source)
    that no code refers to outside their own definition, neither in library
    nor by a name in outside, and the public attributes a class sets on self
    that no code loads, neither in library nor by a name in outside_loads.
    Given as 'file: name', 'file: Class.method' or 'file: Class.attribute'."""
    trees = {name: ast.parse(source) for name, source in library.items()}
    uses = {(name, line, used) for name, tree in trees.items()
            for line, used in code_names(tree)}
    loads = outside_loads.union(*map(attribute_loads, trees.values()))
    found = []
    for name, tree in trees.items():
        defs = [(node, node.name) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [(m, f"{c.name}.{m.name}") for c in tree.body if isinstance(c, ast.ClassDef)
                 for m in c.body if isinstance(m, ast.FunctionDef)]
        for node, label in defs:
            if node.name.startswith("_") or node.name in outside:
                continue
            if not any(used == node.name and not (where == name and
                                                  node.lineno <= line <= node.end_lineno)
                       for where, line, used in uses):
                found.append(f"{name}: {label}")
        for c in tree.body:
            if isinstance(c, ast.ClassDef):
                stored = {node.attr for node in ast.walk(c) if isinstance(node, ast.Attribute)
                          and isinstance(node.ctx, ast.Store)
                          and isinstance(node.value, ast.Name) and node.value.id == "self"}
                found += [f"{name}: {c.name}.{attr}" for attr in sorted(stored)
                          if not attr.startswith("_") and attr not in loads]
    return found


def test_no_public_helper_only_tests_call():
    # Besides the library itself, perfbench and the acceptance suite may call it.
    outside = span_target_names(SPANS.read_text(encoding="utf-8"))
    outside_loads = set()
    callers = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    for path in callers:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        outside.update(used for _, used in code_names(tree))
        outside_loads |= attribute_loads(tree)
    library = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert orphans(library, outside, outside_loads) == []


def test_the_orphan_check_sees_a_lone_method():
    library = {"skeleton.py": ("class Placement:\n"
                               "    def joint_sensors(self):\n"
                               "        return self.joint_sensors()\n"
                               "    def sensor_on(self):\n"
                               "        \"\"\"Unlike joint_sensors, one bone.\"\"\"\n"
                               "        return self.joint_sensors()\n"
                               "    def _private(self):\n"
                               "        pass\n"),
               "pipeline.py": ("from .skeleton import Placement\n"
                               "def analyze(placement: Placement):\n"
                               "    \"\"\"Calls sensor_on.\"\"\"\n")}
    assert orphans(library, set(), set()) == ["skeleton.py: Placement.sensor_on",
                                              "pipeline.py: analyze"]
    assert orphans(library, {"analyze"}, set()) == ["skeleton.py: Placement.sensor_on"]


def test_the_orphan_check_sees_an_unread_attribute():
    library = {"motion.py": ("class Body:\n"
                             "    def __init__(self, skel, spec):\n"
                             "        self.skel = skel\n"
                             "        self.spec = spec\n"
                             "        self.rate: float = 1.0\n"
                             "        self._plan = skel\n"
                             "        self.count = 0\n"
                             "    def step(self):\n"
                             "        self.count += 1\n"
                             "        return self.spec\n"),
               "runner.py": ("from .motion import Body\n"
                             "def run(skel, spec):\n"
                             "    \"\"\"Reads body.rate.\"\"\"\n"
                             "    return Body(skel, spec).step()\n")}
    # A name or a store does not count as a load: skel is a parameter too,
    # and count is only incremented.
    assert orphans(library, {"run", "skel", "rate", "count"}, set()) == [
        "motion.py: Body.count", "motion.py: Body.rate", "motion.py: Body.skel"]
    assert orphans(library, {"run"}, {"rate"}) == ["motion.py: Body.count",
                                                   "motion.py: Body.skel"]


def unused_imports(source: str, module: str, resolved: set[tuple[str, str]]) -> list[str]:
    """The names source imports and its code never uses, as 'line N: name',
    except a (module, name) pair in resolved. Docstrings and other strings
    are not code; `from __future__` imports bind no name."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name not in used and (module, name) not in resolved]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    # perfbench's span table looks some names up in a module that does not
    # call them (pipeline.animate_frame, protocol.rate_series,
    # runner.session_metrics and runner.write_recording).
    resolved = span_target_pairs(SPANS.read_text(encoding="utf-8"))
    assert unused_imports(path.read_text(encoding="utf-8"), path.stem, resolved) == []


def test_the_unused_import_check_sees_each_form():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import numpy as np\n"
              "import os.path\n"
              "from array import array\n"
              "from bisect import bisect_left\n"
              "from . import radio, runner\n"
              "from .pipeline import RATE_STEP_US, RATE_WINDOW_US, rate_series\n"
              "from .radio import Burst, InterferenceField as Field\n"
              "def run(field: Field) -> str:\n"
              "    \"\"\"Names Burst and array only in a docstring.\"\"\"\n"
              "    return radio.arbitrate(np.zeros(RATE_WINDOW_US), math.pi, os.sep)\n")
    resolved = {("protocol", "rate_series")}
    assert unused_imports(source, "protocol", resolved) == [
        "line 5: array", "line 6: bisect_left", "line 7: runner", "line 8: RATE_STEP_US",
        "line 9: Burst"]
    assert unused_imports(source, "cli", resolved)[-2:] == ["line 8: rate_series",
                                                            "line 9: Burst"]


BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "einsum", "tensordot", "linalg"}


def matrix_products(source: str) -> list[str]:
    """The matrix products in source, as 'line N: name': the @ operator and
    numpy's dot, matmul, inner, vdot, einsum, tensordot and linalg, as an
    attribute (np.dot, v.dot) or imported from numpy. numpy hands these to
    BLAS, whose bits depend on its build and on the CPU it runs on."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names
                      if node.module == "numpy.linalg" or alias.name in BLAS_NAMES]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("numpy.linalg")]
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_matrix_products(path):
    # Byte identity rests on libm and numpy's generators; a BLAS kernel may
    # fuse multiply-adds, so its bits vary with the build and the CPU.
    assert matrix_products(path.read_text(encoding="utf-8")) == []


def test_the_matrix_product_check_sees_each_form():
    source = ("import numpy as np\n"
              "import numpy.linalg\n"
              "from numpy import dot, sqrt\n"
              "from numpy.linalg import norm\n"
              "def norm2(v, m):\n"
              "    \"\"\"Not v @ v, nor np.dot in a docstring.\"\"\"\n"
              "    m @= m\n"
              "    a = v @ v + v.dot(v) + np.matmul(m, v) + np.inner(v, v) + np.vdot(v, v)\n"
              "    b = np.einsum('i,i', v, v) + np.tensordot(v, v, 1) + np.linalg.norm(v)\n"
              "    return sqrt(a * b), 'np.dot'\n")
    assert matrix_products(source) == [
        "line 2: numpy.linalg", "line 3: numpy.dot", "line 4: numpy.linalg.norm", "line 7: @",
        "line 8: @", "line 8: dot", "line 8: inner", "line 8: matmul", "line 8: vdot",
        "line 9: einsum", "line 9: linalg", "line 9: tensordot"]


def row_type_calls(source: str, name: str) -> list[str]:
    """The calls of the type name in source, as 'line N'; its methods, such
    as TraceRow._make, and passing it, as to starmap, are not calls of it."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None))]


@pytest.mark.parametrize("module", ["protocol.py", "runner.py"])
def test_loops_build_no_trace_row(module):
    # The loops hand over plain tuples: TraceRow's generated __new__ costs a
    # Python call per row, and the collector keeps tracking its instances.
    # TraceRow._make builds the list API's rows once at the end of a run.
    assert row_type_calls((PACKAGE / module).read_text(encoding="utf-8"), "TraceRow") == []


@pytest.mark.parametrize("module", ["protocol.py", "runner.py"])
def test_loops_build_no_recording_frame(module):
    # Frames too are plain tuples until the fold checks their batch:
    # RecordingFrame's checked __new__ is a Python call per frame.
    # starmap(RecordingFrame, frames) builds the list API's frames, through
    # the checked constructor, once at the end of a run.
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert row_type_calls(source, "RecordingFrame") == []


def test_the_row_type_check_sees_each_form():
    source = ("from . import protocol as pr\n"
              "from .protocol import TraceRow\n"
              "rows = [TraceRow(0.0, 1.0, 'master', 3, 'cw', 'poll', 1, 'delivered')]\n"
              "rows += map(TraceRow._make, rows)\n"
              "rows.append(pr.TraceRow(*rows[0]))\n"
              "\"\"\"Not TraceRow(...) in a string.\"\"\"\n"
              "frames = list(starmap(RecordingFrame, rows))\n"
              "frames.append(pl.RecordingFrame(*frames[0]))\n")
    assert row_type_calls(source, "TraceRow") == ["line 3", "line 5"]
    assert row_type_calls(source, "RecordingFrame") == ["line 8"]


@pytest.mark.parametrize("path", sorted(path for part in ("src", "tests")
                                         for path in (ROOT / part).rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10. This checks grammar
    # only: a call that 3.10's library lacks still passes.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
