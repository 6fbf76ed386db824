import ast
import functools
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_benchmark_tracer_targets_resolve():
    # the benchmark times these names from outside the package; a rename or
    # removal in dropfresh would otherwise break it without failing a test here
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, names in tracer.TARGETS.items():
        module = importlib.import_module(f"dropfresh.{module_name}")
        for name in names:
            target = functools.reduce(getattr, name.split("."), module)
            assert callable(target), f"dropfresh.{module_name}.{name}"


def test_every_dropfresh_name_the_benchmark_reaches_resolves():
    # the benchmark calls names such as harness.metrics_lines on the modules it binds with
    # ``from dropfresh import ...``; a refactor that drops one would otherwise fail only there
    reached = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "dropfresh"
                 for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in bound:
                name = f"{bound[node.value.id]}.{node.attr}"
                module = importlib.import_module(f"dropfresh.{bound[node.value.id]}")
                assert hasattr(module, node.attr), f"{path.name}:{node.lineno}: {name}"
                reached.add(name)
    assert {"harness.metrics_lines", "harness.gen_gaussian", "datasets.load_idx"} <= reached


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    imported = set()
    for path in (ROOT / "src" / "dropfresh").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"dropfresh"}
    assert {"numpy", "orjson"} <= third_party  # the walk sees top-level and local imports
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0].lower().replace("-", "_")
                for dep in project["dependencies"]}
    assert third_party <= declared, sorted(third_party - declared)


def test_importing_dropfresh_does_not_import_orjson():
    # only export_features uses it, and its import takes about 11 ms that train, cost and
    # compare would pay for nothing
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, dropfresh, dropfresh.cli; print('orjson' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.stdout.strip() == "False", done.stderr


def _defined_names(tree: ast.Module):
    """Module-level functions, classes and assigned names, and the methods of module classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        yield from (t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_every_module_level_name_and_method_is_used_somewhere():
    # a helper that a refactor left behind is named only where it is defined; the benchmark
    # names its targets in dotted strings, so those count as uses too
    used = set()
    for path in [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.fullmatch(r"[\w.]+", node.value):
                used.update(node.value.split("."))
    unused = [f"{path.name}:{name}" for path in sorted((ROOT / "src" / "dropfresh").glob("*.py"))
              for name in _defined_names(ast.parse(path.read_text()))
              if name not in used and not (name.startswith("__") and name.endswith("__"))]
    assert unused == []
