import ast
import functools
import importlib
import importlib.util
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from dropfresh import config, harness
from dropfresh.cli import main
from dropfresh.config import build_experiment_config
from dropfresh.scheduler import trace
from helpers import lane_steps
from test_harness import small_dar_values, small_values

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



def test_every_dotted_dropfresh_name_in_the_readme_resolves():
    # README names API such as `harness.load_dataset`; a rename or removal in dropfresh would
    # otherwise leave it describing what is gone. Config keys and file names are not API.
    readme = (ROOT / "README.md").read_text()
    names = set(re.findall(
        r"`((?:datasets|harness|scheduler|model|config|baselines|cli)\.[A-Za-z_][\w.]*)", readme))
    checked = sorted(name for name in names if name not in config._KEYS
                     and Path(name).suffix not in (".bin", ".json", ".jsonl", ".py", ".csv"))
    for name in checked:
        module, *attrs = name.split(".")
        target = importlib.import_module(f"dropfresh.{module}")
        for attr in attrs:
            assert hasattr(target, attr), f"README names {name}, which does not resolve"
            target = getattr(target, attr)
    assert {"harness.load_dataset", "model.ParamSet", "scheduler.trace"} <= set(checked)

def test_compare_makes_one_run_experiment_call_per_config_and_keeps_no_state(
        tmp_path, monkeypatch):
    # the benchmark collects compare's reports by wrapping harness.run_experiment, and its
    # idx-augment rounds train one config over and over: trained lanes must not outlive compare
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    steps = lane_steps(monkeypatch)

    def trains_every_batch(cfg):
        steps.clear()
        harness.run_experiment(cfg)
        population = harness.training_population(cfg)
        return len(steps) == sum(math.ceil(row.size / cfg.batch_size)
                                 for row in trace(cfg.dar, population))

    cfgs = [build_experiment_config(values) for values in (
        small_values(policy="uniform"), small_dar_values(), small_values(policy="reweight"))]
    with workloads.captured_reports() as reports:
        rows = harness.compare(cfgs)
    assert [report.config["policy"] for report in reports] == ["uniform", "dar", "reweight"]
    assert [(row.cost_ratio, row.final_accuracy) for row in rows] == [
        (report.realized_cost_ratio, report.final_validation_accuracy) for report in reports]
    assert all(trains_every_batch(cfg) for cfg in cfgs)

    # on two contradictory 1e100 rows and 30 easy ones, loss-proportional weights overflow an
    # update in epoch 4 while uniform and dar training stay finite for all 20 epochs
    path = tmp_path / "diverges.csv"
    path.write_text("0,1e100\n1,1e100\n" + "0,0\n" * 30)
    values = {"data.source": "csv", "data.csv": str(path), "train.total_epochs": "20",
              "train.base_lr": "1e108", "train.batch_size": "32"}
    uniform, rew, dar = (build_experiment_config({**values, **extra}) for extra in (
        {"policy": "uniform"}, {"policy": "reweight"},
        {"policy": "dar", "dar.keep_rate": "0.75", "dar.warmup_epochs": "1"}))
    diverged = "^epoch 4, examples .*overflow"
    with workloads.captured_reports() as reports, pytest.raises(harness.HarnessError,
                                                                match=diverged) as compared:
        harness.compare([uniform, rew])
    assert len(reports) == 1 and trains_every_batch(uniform)
    steps.clear()
    with pytest.raises(harness.HarnessError, match=diverged) as alone:
        harness.run_experiment(rew)
    assert len(steps) == 4  # epochs 1-3 and the batch that overflowed, nothing left from compare
    assert str(compared.value) == str(alone.value)  # the lane failed as the run alone does
    steps.clear()
    with workloads.captured_reports() as reports, pytest.raises(harness.HarnessError) as first:
        harness.compare([rew, uniform])
    assert reports == [] and str(first.value) == str(alone.value)  # the first call raises
    # no lane trains past the epoch the first failing config fails in: (epoch, lanes) per step,
    # epoch None where the step raised before its update (the stacked pair, then reweight alone)
    assert [(step.epoch, step) for step in steps] == [
        (1, 1), (2, 2), (3, 2), (None, 2), (4, 1), (None, 1)]
    steps.clear()
    with pytest.raises(harness.HarnessError) as later:
        harness.compare([uniform, rew, dar])
    assert str(later.value) == str(alone.value)
    # dar's lane, after the failing reweight, stops with it: only uniform's trains on
    assert [step for step in steps if (step.epoch or 0) > 4] == [1] * 16


def test_every_benchmark_workload_passes_its_own_check_at_its_tiny_size(tmp_path, monkeypatch):
    # the benchmark refuses a change whose outputs fail a workload's check, and this suite does
    # not collect perfbench/: run one whole cycle of each workload's rounds here
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    bench = importlib.import_module("test_perfbench")  # its TINY sizes, run and workloads
    assert set(bench.workloads.WORKLOADS) == set(bench.TINY)
    for name, make in bench.workloads.WORKLOADS.items():
        workload = make(tmp_path / name, 3, **bench.TINY[name])
        workload.dir.mkdir()
        workload.prepare()
        _, _, outputs = bench.run.timed_rounds(workload, 0.0, warmup=False)
        assert len(outputs) == workload.cycle and workload.failed == 0, name
        assert workload.check(outputs)[0] == [], name


def test_the_desk_check_passes_at_ten_epochs_where_dar_trains_shrunk_epochs(tmp_path,
                                                                          monkeypatch):
    # desk-default's drops start at 10 epochs (at perfbench's tiny 8 none is trained), so here
    # the benchmark's own checks judge a shrunk dar lane stacked with uniform's and reweight's
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    desk = workloads.Desk(tmp_path, 0, epochs=10)
    desk.prepare()
    outputs = [desk.run_round() for _ in range(desk.cycle)]
    dar = [report for _, _, reports in outputs for report in reports
           if report.config["policy"] == "dar"]
    assert all(sum(r.active_count < desk.population for r in report.records) == 2
               for report in dar)
    assert desk.check(outputs)[0] == []


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


def test_readme_python_api_example_runs():
    # the README's API example is prose a test would otherwise never read: run it as written,
    # one statement at a time, and hold each `expr  # value` line's comment to what expr gives
    section = (ROOT / "README.md").read_text().split("\n## Python API\n", 1)[1].split("\n## ")[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 1, blocks
    lines, namespace, checked = blocks[0].splitlines(), {}, []
    for stmt in ast.parse(blocks[0]).body:
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if isinstance(stmt, ast.Expr) and comment.startswith("#"):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert comment[1:].lstrip().startswith((repr(value), str(value))), (
                ast.unparse(stmt), comment, value)
            checked.append(ast.unparse(stmt))
        else:
            exec(compile(ast.Module([stmt], []), "README.md (Python API)", "exec"), namespace)
    assert len(checked) >= 3, checked
    assert namespace["action"].value == "drop"


def test_readme_quick_start_cost_prints_what_train_runs(tmp_path, monkeypatch, capsys):
    # the quick start previews a schedule with cost, then trains it and compares it with
    # uniform training: run all three as written
    section = (ROOT / "README.md").read_text().split("\n## Quick start\n", 1)[1].split("\n## ")[0]
    ini, sh = (re.findall(rf"^```{kind}\n(.*?)^```$", section, flags=re.M | re.S)
               for kind in ("ini", "sh"))
    assert len(ini) == 2 and len(sh) == 1, (ini, sh)
    (tmp_path / "desk.txt").write_text(ini[0])
    (tmp_path / "dar.txt").write_text(ini[0] + ini[1])  # desk.txt's lines, then its own
    monkeypatch.chdir(tmp_path)
    printed = {}
    for command in ("cost", "train", "compare"):
        line, = (line for line in sh[0].splitlines() if line.startswith(f"dropfresh {command} "))
        assert main(shlex.split(line)[1:]) == 0
        printed[command] = capsys.readouterr().out.splitlines()
    summary = dict(field.split("=", 1) for field in printed["train"][-1].split())
    assert summary["realized_cost"] == printed["cost"][-1]
    assert float(printed["cost"][-1]) < 1.0  # the preview is of a drop-and-refresh schedule
    rows = {line.split(",")[0]: line.split(",")[1] for line in printed["compare"][1:]}
    assert rows == {"uniform": "1.0", "dar": printed["cost"][-1]}
