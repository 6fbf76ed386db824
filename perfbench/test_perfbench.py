"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

The schedule simulation and the self-time arithmetic are checked on cases
worked by hand; every workload runs once at a tiny size through the same
round, set-up and trace code the benchmark uses.
"""
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402


def test_simulation_of_the_readme_schedule():
    # 8 epochs, warm-up 2, drop every epoch to half inside a 4-epoch window,
    # refresh at 5: pools 8,8 | 8->4 | 4->2 | 2 (drop, then refresh) | 8->4 | 4->2 | 2->1
    rows = reference.simulate(8, warmup=2, interval=1, keep=Fraction(1, 2), window=4,
                              refreshes=[5], population=8)
    assert rows == [(1, 8, "keep"), (2, 8, "keep"), (3, 8, "drop"), (4, 4, "drop"),
                    (5, 2, "refresh"), (6, 8, "drop"), (7, 4, "drop"), (8, 2, "drop")]
    assert reference.cost_ratio(rows, 8) == 44 / 64 == 0.6875


def test_desk_default_preset_at_criterion_six():
    # warm-up 4, refreshes 5,10,15; drops land on 7, 12, 17 (window closes
    # before 9, 14, 19): 11 epochs at 4160 and 9 at ceil(0.7 * 4160) = 2912
    assert reference.preset_schedule("desk-default", 20) == {
        "warmup": 4, "interval": 2, "keep": Fraction(7, 10), "window": 4,
        "refreshes": [5, 10, 15]}
    rows = reference.preset_rows("desk-default", 20, 4160)
    assert [e for e, _, action in rows if action == "drop"] == [7, 12, 17]
    assert sorted(size for _, size, _ in rows) == [2912] * 9 + [4160] * 11
    assert reference.cost_ratio(rows, 4160) == 71968 / 83200 == 0.865


def test_imagenet_default_preset_arithmetic():
    assert reference.preset_schedule("imagenet-default", 120)["warmup"] == 10
    assert reference.preset_schedule("imagenet-default", 120)["refreshes"] == [30, 60, 90]
    # E/12 = 0.5 rounds half up; the first quarter point (1) is not after it
    assert reference.preset_schedule("imagenet-default", 6)["warmup"] == 1
    assert reference.preset_schedule("imagenet-default", 6)["refreshes"] == [2, 3]
    assert reference.train_population(5200, "0.2") == 4160


def fake_clock(*ticks):
    values = iter(ticks)
    return lambda: next(values)


def test_self_time_is_span_minus_children():
    # A [0, 10] holds B [1, 4] and C [5, 7]; C holds D [5.5, 6]; E [12, 13] is a second root
    tracer = Tracer(clock=fake_clock(0, 1, 4, 5, 5.5, 6, 7, 10, 12, 13))
    tracer.enter("A")
    tracer.enter("B")
    tracer.exit()
    tracer.enter("C")
    tracer.enter("D")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    tracer.enter("E")
    tracer.exit()
    assert {k: tracer.self_s[k] for k in "ABCDE"} == {
        "A": 10 - 3 - 2, "B": 3, "C": 2 - 0.5, "D": 0.5, "E": 1}
    assert tracer.covered_s == 11
    assert tracer.spans() == [(0, "A", 0, 10, -1), (1, "B", 1, 4, 0), (2, "C", 5, 7, 0),
                              (3, "D", 5.5, 6, 2), (4, "E", 12, 13, -1)]


def test_span_cap_keeps_counts_and_parents():
    tracer = Tracer(clock=fake_clock(0, 1, 2, 3, 4, 5), max_spans=2)
    for _ in range(3):
        tracer.enter("A")
        tracer.exit()
    assert tracer.calls["A"] == 3 and tracer.self_s["A"] == 3
    assert [span[0] for span in tracer.spans()] == [0, 1]


def test_install_wraps_where_callers_look_and_uninstall_restores():
    from dropfresh import datasets, harness
    originals = (harness.gen_gaussian, datasets.gen_gaussian, harness.load_dataset)
    cfg = workloads.config.build_experiment_config(
        {"data.source": "synthetic", "train.total_epochs": "1", "train.base_lr": "0.1"})
    tracer = Tracer()
    tracer.install()
    try:
        assert harness.gen_gaussian is not originals[0]
        harness.load_dataset(cfg.data, 0)
    finally:
        tracer.uninstall()
    assert (harness.gen_gaussian, datasets.gen_gaussian, harness.load_dataset) == originals
    assert tracer.calls["harness.load_dataset"] == 1
    assert tracer.calls["datasets.gen_gaussian"] == 1
    (_, outer, *_), (_, inner, _, _, parent) = tracer.spans()
    assert (outer, inner, parent) == ("harness.load_dataset", "datasets.gen_gaussian", 0)


class Counting(workloads.Workload):
    cycle = 3

    def play(self, index):
        return index


def test_rounds_skip_the_warm_up_and_end_on_a_whole_cycle(tmp_path):
    workload = Counting(tmp_path, 0)
    walls, cpus, outputs = run.timed_rounds(workload, 0.0)
    assert outputs == [0, 1, 2] and len(walls) == len(cpus) == 2
    walls, _, outputs = run.timed_rounds(workload, 0.0, warmup=False)
    assert outputs == [3, 4, 5] and len(walls) == 3


TINY = {
    "desk": dict(per_class=60, epochs=8),
    "idx-augment": dict(count=600, epochs=8),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_and_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path, 3, **TINY[name])
    config, preset = workload.prepare()
    metrics, outputs, _ = run.end_to_end(workload, 0.0, config, preset)
    assert set(metrics) == {"setup_s", "run_s", "cpu_s", "examples_per_s", "peak_rss_mb"}
    assert all(value > 0 for value, _ in metrics.values())
    layers, traced, _ = run.per_layer(workload, 0.0, tmp_path)
    assert set(layers) == ({f"{n}.{m}" for n in SPAN_NAMES for m in ("self_s", "calls")}
                           | {"trace.overhead_s", "trace.unaccounted_s"})
    assert layers["config.build_experiment_config.calls"][0] >= 1
    assert (tmp_path / "spans.tsv").read_text().startswith("# spans stored")
    problems, _ = workload.check(outputs + traced)
    assert problems == []
    assert workload.attempted > 0 and workload.failed == 0


def test_without_sources_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
