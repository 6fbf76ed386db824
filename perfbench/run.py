"""Benchmark entry point: one workload, timed end to end or traced per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload desk --seed 0 --seconds 25 --trace 0

The workload's inputs are made from ``--seed`` (seed 0 reproduces the
criterion-6 run seeds 1-3). After one untimed warm-up round, whole rounds of
the workload run in this process, one after another, for about ``--seconds``;
set-up is timed in fresh interpreters before and after them. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` times untraced rounds and then
traced ones, and reports self time and calls per listed function, per round.
The last line of standard output is the result as one JSON object; the line
before it records the software and machine the figures came from. Outputs go to ``perfbench/out/<workload>/``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import SPAN_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("desk", "idx-augment")
SETUP_REPEATS = 4  # fresh interpreters before the timed rounds, and as many after
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a shared host a second thread's time depends on whether
# another tenant holds the other core, and it buys no wall time here.
BLAS_THREADS = "1"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if an OpenBLAS is loaded."""
    maps = Path("/proc/self/maps").read_text().splitlines()
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "nproc": cpu_count()}


def setup_times(config: Path, preset: str | None) -> list[float]:
    """Wall times from process start to data loaded, one per fresh interpreter."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), str(config)]
    argv += [preset] if preset else []
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def timed_rounds(workload, seconds: float, warmup: bool = True):
    """Whole rounds, back to back, while the next one should end within ``seconds``.

    With ``warmup`` one round runs first and is not timed: a fresh process's
    first round pays for growing its heap. At least one timed round runs, and
    rounds go on until ``workload.cycle`` divides the number run so far.
    Returns wall and CPU seconds of each timed round, and the output of every
    round. A round whose operation raised is reported on stderr and not timed.
    """
    walls, cpus, outputs = [], [], []

    def one_round(timed: bool) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            output = workload.run_round()
        except Exception:  # counted in workload.failed; keep measuring
            traceback.print_exc(file=sys.stderr)
            return
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        if timed:
            walls.append(wall)
            cpus.append(cpu)
        outputs.append(output)

    start = time.perf_counter()
    if warmup:
        one_round(timed=False)
    one_round(timed=True)
    while (time.perf_counter() - start + (walls[-1] if walls else 0.0) <= seconds
           or workload.rounds % workload.cycle):
        one_round(timed=True)
    return walls, cpus, outputs


def end_to_end(workload, seconds: float, config: Path, preset: str | None):
    # Set-ups are split around the rounds so that their median spans the run.
    setups = setup_times(config, preset)
    walls, cpus, outputs = timed_rounds(workload, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups += setup_times(config, preset)
    metrics = {"setup_s": (statistics.median(setups), "s")}
    if walls:
        run_s = statistics.median(walls)
        metrics.update({
            "run_s": (run_s, "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "examples_per_s": (workload.visits(outputs[0]) / run_s, "1/s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        })
    return metrics, outputs, {"setup_s": setups, "round_s": walls, "round_cpu_s": cpus}


def per_layer(workload, seconds: float, out_dir: Path):
    start = time.perf_counter()
    reference_walls, _, outputs = timed_rounds(workload, seconds / 4)
    tracer = Tracer()
    tracer.install()
    try:
        walls, _, traced = timed_rounds(workload, seconds - (time.perf_counter() - start),
                                        warmup=False)
    finally:
        tracer.uninstall()
    tracer.write_spans(out_dir / "spans.tsv")
    metrics = {}
    if reference_walls and walls:
        rounds = len(walls)
        for name in SPAN_NAMES:
            metrics[f"{name}.self_s"] = (tracer.self_s[name] / rounds, "s")
            metrics[f"{name}.calls"] = (tracer.calls[name] / rounds, "count")
        metrics["trace.overhead_s"] = (statistics.median(walls)
                                       - statistics.median(reference_walls), "s")
        metrics["trace.unaccounted_s"] = ((sum(walls) - tracer.covered_s) / rounds, "s")
    return metrics, outputs + traced, {"round_s": reference_walls, "traced_round_s": walls}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dropfresh" / "__init__.py").is_file():
        print(f"no dropfresh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads; set-up probes inherit it
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    out_dir = HERE / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](out_dir, args.seed)
    config, preset = workload.prepare()
    if args.trace:
        metrics, outputs, timings = per_layer(workload, args.seconds, out_dir)
    else:
        metrics, outputs, timings = end_to_end(workload, args.seconds, config, preset)

    problems, figures = workload.check(outputs) if outputs else (["no round completed"], {})
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "figures": figures, **timings}
    result = {"correct": not problems, "attempted": workload.attempted,
              "failed": workload.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (out_dir / "result.json").write_text(json.dumps({**record, **result}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
