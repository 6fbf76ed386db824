"""The two benchmark workloads: their inputs, timed rounds and checks.

A workload writes its inputs (configs, IDX files) from the benchmark seed,
then runs identical rounds of operations through the package's public API.
Each round resolves its configs the way the CLI does (read the file, overlay
the preset, build the typed config), so config resolution is part of every
round. Checks compare the outputs with :mod:`reference`, never with a stored
copy of earlier output.
"""
from __future__ import annotations

import contextlib
import io
import struct
from pathlib import Path

import numpy as np

from dropfresh import cli, config, datasets, harness

import reference

MIN_ACCURACY = 0.3  # "well above chance": three times a 1-in-10 guess


def write_config(path: Path, values: dict) -> Path:
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    return path


def resolve(path: Path, preset: str | None = None):
    values = config.read_config_file(path)
    if preset is not None:
        values = config.apply_preset(values, preset)
    return config.build_experiment_config(values)


def schedule(report) -> list[tuple[int, int, str]]:
    return [(r.epoch, r.active_count, r.action) for r in report.records]


def metrics_lines(reports) -> list[list[str]]:
    return [harness.metrics_lines(report.records) for report in reports]


@contextlib.contextmanager
def captured_reports():
    """Collects the RunReport of every ``harness.run_experiment`` call."""
    reports = []
    inner = harness.run_experiment

    def capture(cfg):
        reports.append(inner(cfg))
        return reports[-1]

    harness.run_experiment = capture
    try:
        yield reports
    finally:
        harness.run_experiment = inner


class Workload:
    """One named workload. ``run_round`` is the timed part; the rest is not.

    Rounds are numbered from 0. A workload whose rounds take turns over
    ``cycle`` variants (desk's run seeds) is run a whole number of cycles.
    """

    name = ""
    cycle = 1

    def __init__(self, work_dir: Path, seed: int) -> None:
        self.dir = work_dir
        self.seed = seed
        self.rounds = 0
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args):
        """One counted operation; a raised error counts as a failed one."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            raise

    def prepare(self) -> tuple[Path, str | None]:
        """Write the inputs; return the config (and preset) set-up resolves."""
        raise NotImplementedError

    def run_round(self):
        self.rounds += 1
        return self.play(self.rounds - 1)

    def play(self, index: int):
        """The operations of round ``index``."""
        raise NotImplementedError

    def visits(self, output) -> int:
        """Example-visits one round trains (or, without training, plans)."""
        raise NotImplementedError

    def check(self, outputs: list) -> tuple[list[str], dict]:
        """Failed checks over every completed round, plus figures to report."""
        raise NotImplementedError


def _training_checks(label: str, report, population: int,
                     loss_falls: bool = True) -> list[str]:
    problems = []
    last = report.records[-1]
    if last.validation_accuracy is None or last.validation_accuracy < MIN_ACCURACY:
        problems.append(f"{label}: final accuracy {last.validation_accuracy} not above chance")
    if loss_falls and not last.mean_train_loss < report.records[0].mean_train_loss:
        problems.append(f"{label}: mean training loss did not fall")
    expected = reference.cost_ratio(schedule(report), population)
    if report.realized_cost_ratio != expected:
        problems.append(f"{label}: realized cost {report.realized_cost_ratio!r} != "
                        f"exact {expected!r}")
    return problems


def _full_pool_checks(label: str, report, population: int,
                      loss_falls: bool = True) -> list[str]:
    epochs = len(report.records)
    expected = [(e, population, "keep") for e in range(1, epochs + 1)]
    problems = _training_checks(label, report, population, loss_falls)
    if schedule(report) != expected:
        problems.append(f"{label}: pool left the full {population} examples")
    if report.realized_cost_ratio != 1.0:
        problems.append(f"{label}: cost {report.realized_cost_ratio!r} != 1.0")
    return problems


def _dar_checks(label: str, report, epochs: int, population: int) -> list[str]:
    problems = _training_checks(label, report, population)
    if schedule(report) != reference.preset_rows("desk-default", epochs, population):
        problems.append(f"{label}: pool sizes/actions differ from the simulation")
    return problems


def _rounds_identical(outputs_lines: list) -> list[str]:
    if any(lines != outputs_lines[0] for lines in outputs_lines[1:]):
        return ["rounds in one process gave different metrics lines"]
    return []


class Desk(Workload):
    """Criterion-6 runs: uniform, desk-default dar and reweight, three run seeds.

    Round ``k`` compares the three policies on run seed ``k mod 3``.
    """

    name = "desk"
    policies = ("uniform", "dar", "reweight")
    cycle = 3

    def __init__(self, work_dir: Path, seed: int, per_class: int = 520,
                 epochs: int = 20) -> None:
        super().__init__(work_dir, seed)
        self.per_class = per_class
        self.epochs = epochs
        self.run_seeds = [3 * seed + k for k in (1, 2, 3)]
        self.population = reference.train_population(10 * per_class, "0.2")

    def _path(self, policy: str, run_seed: int) -> Path:
        return self.dir / f"{policy}-{run_seed}.txt"

    def prepare(self):
        marks = reference.preset_schedule("desk-default", self.epochs)["refreshes"]
        for run_seed in self.run_seeds:
            for policy in self.policies:
                write_config(self._path(policy, run_seed), {
                    "data.source": "synthetic",
                    "synthetic.classes": 10, "synthetic.dim": 16,
                    "synthetic.per_class": self.per_class, "synthetic.std": 1.0,
                    "synthetic.mean_scale": 1.1, "synthetic.seed": 7 + self.seed,
                    "data.val_fraction": 0.2,
                    "model.hidden": 32,
                    "train.total_epochs": self.epochs, "train.base_lr": 0.1,
                    "train.momentum": 0.9, "train.weight_decay": 0.0001,
                    "train.lr_milestones": ",".join(map(str, marks)),
                    "train.batch_size": 64,
                    "policy": policy, "run.seed": run_seed,
                })
        return self._path("uniform", self.run_seeds[0]), None

    def _configs(self, run_seed: int):
        return [resolve(self._path(policy, run_seed),
                        "desk-default" if policy == "dar" else None)
                for policy in self.policies]

    def play(self, index):
        run_seed = self.run_seeds[index % self.cycle]
        with captured_reports() as reports:
            rows = self.call(harness.compare, self._configs(run_seed))
        return run_seed, rows, reports

    def visits(self, output) -> int:
        return sum(report.records[-1].cumulative_examples_used for report in output[2])

    def check(self, outputs):
        first = {}  # run seed -> (rows, reports) of its first round
        for run_seed, rows, reports in outputs:
            first.setdefault(run_seed, (rows, reports))
        if sorted(first) != self.run_seeds:
            return [f"rounds ran for run seeds {sorted(first)}, not {self.run_seeds}"], {}
        problems = []
        acc = {policy: [] for policy in self.policies}
        for run_seed in self.run_seeds:
            rows, reports = first[run_seed]
            if [row.label for row in rows] != list(self.policies) or len(reports) != 3:
                return [f"seed {run_seed}: compare rows {rows}"], {}
            for policy, row, report in zip(self.policies, rows, reports):
                label = f"{policy} seed {run_seed}"
                if policy == "dar":
                    problems += _dar_checks(label, report, self.epochs, self.population)
                else:
                    # reweight's training loss rises on desk (see CHANGES.md),
                    # so only its accuracy, pool and cost are checked
                    problems += _full_pool_checks(label, report, self.population,
                                                  loss_falls=policy == "uniform")
                if (row.cost_ratio, row.final_accuracy) != (
                        report.realized_cost_ratio, report.final_validation_accuracy):
                    problems.append(f"{label}: compare row disagrees with its run")
                acc[policy].append(report.final_validation_accuracy)
        mean = {policy: sum(values) / len(values) for policy, values in acc.items()}
        if mean["dar"] < mean["uniform"] - 0.01:
            problems.append(f"mean dar accuracy {mean['dar']} < mean uniform "
                            f"{mean['uniform']} - 0.01")
        if any(metrics_lines(reports) != metrics_lines(first[run_seed][1])
               for run_seed, _, reports in outputs):
            problems.append("rounds of one run seed gave different metrics lines")
        again = harness.run_experiment(self._configs(self.run_seeds[0])[1])
        if metrics_lines([again]) != metrics_lines([first[self.run_seeds[0]][1][1]]):
            problems.append("rerun of a dar config gave different metrics lines")
        return problems, {"val_acc": mean["dar"], "val_acc_uniform": mean["uniform"],
                          "val_acc_reweight": mean["reweight"]}


def digit_images(rng: np.random.Generator, count: int,
                 side: int = 28) -> tuple[np.ndarray, np.ndarray]:
    """Digits-like 8-bit images: ten stroke templates, shifted and noised."""
    yy, xx = np.mgrid[0:side, 0:side]
    templates = []
    for _ in range(10):
        img = np.zeros((side, side))
        for (y0, x0), (y1, x1) in rng.uniform(5, side - 5, size=(3, 2, 2)):
            for t in np.linspace(0.0, 1.0, 16):
                cy, cx = y0 + t * (y1 - y0), x0 + t * (x1 - x0)
                img = np.maximum(img, np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 2.0))
        templates.append(img)
    labels = rng.permutation(np.arange(count) % 10).astype(np.uint8)
    shifts = rng.integers(-3, 4, size=(count, 2))
    gains = rng.uniform(0.4, 1.0, size=count)
    noise = rng.uniform(0.0, 160.0, size=(count, side, side))
    images = np.empty((count, side, side), dtype=np.uint8)
    for i, label in enumerate(labels):
        shifted = np.roll(templates[label], tuple(shifts[i]), axis=(0, 1))
        images[i] = np.clip(255.0 * gains[i] * shifted + noise[i], 0, 255)
    return images, labels


def write_idx(images: np.ndarray, labels: np.ndarray, image_path: Path,
              label_path: Path) -> None:
    count, height, width = images.shape
    image_path.write_bytes(struct.pack(">IIII", 0x803, count, height, width)
                           + images.tobytes())
    label_path.write_bytes(struct.pack(">II", 0x801, count) + labels.tobytes())


class IdxAugment(Workload):
    """IDX digits: plan the cost, train under desk-default dar with flips, then
    save, load and export."""

    name = "idx-augment"

    def __init__(self, work_dir: Path, seed: int, count: int = 2000,
                 epochs: int = 10) -> None:
        super().__init__(work_dir, seed)
        self.count = count
        self.epochs = epochs
        self.population = reference.train_population(count, "0.2")
        self.images_path = work_dir / "images.idx3-ubyte"
        self.labels_path = work_dir / "labels.idx1-ubyte"
        self.path = work_dir / "idx-augment.txt"
        self.run_dir = work_dir / "run"

    def prepare(self):
        self.images, self.labels = digit_images(np.random.default_rng([self.seed, 28]),
                                                self.count)
        write_idx(self.images, self.labels, self.images_path, self.labels_path)
        write_config(self.path, {
            "data.source": "idx",
            "data.idx_images": self.images_path, "data.idx_labels": self.labels_path,
            "data.val_fraction": 0.2,
            "data.augment": "horizontal_flip", "data.augment_prob": 0.5,
            "model.hidden": 128,
            "train.total_epochs": self.epochs, "train.base_lr": 0.05,
            "train.momentum": 0.9, "train.weight_decay": 0.0001,
            "train.batch_size": 64,
            "policy": "dar", "run.seed": 1 + self.seed,
        })
        return self.path, "desk-default"

    def play(self, index):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.call(cli.main, ["cost", "--config", str(self.path),
                                        "--preset", "desk-default"])
        report, params = self.call(harness.run_experiment_with_params,
                                   resolve(self.path, "desk-default"))
        self.call(harness.write_run_outputs, self.run_dir, report, params)
        loaded = self.call(harness.load_params, self.run_dir / "model.bin")
        data = self.call(datasets.load_idx, self.images_path, self.labels_path)
        self.call(harness.export_features, loaded, data, self.run_dir / "features.csv")
        return (code, buf.getvalue()), report

    def visits(self, output) -> int:
        return output[1].records[-1].cumulative_examples_used

    def check(self, outputs):
        rows = reference.preset_rows("desk-default", self.epochs, self.population)
        expected = (["epoch,size,action"] + [f"{e},{size},{action}" for e, size, action in rows]
                    + [repr(reference.cost_ratio(rows, self.population))])
        problems = []
        if any(code != 0 or text.splitlines() != expected for (code, text), _ in outputs):
            problems.append("cost printed an exit code, rows or ratio other than the "
                            "simulation's")
        reports = [report for _, report in outputs]
        problems += _dar_checks("dar", reports[0], self.epochs, self.population)
        problems += _rounds_identical([metrics_lines([report]) for report in reports])
        pixels = self.images.reshape(self.count, -1).astype(np.float64) / 255.0
        loaded = datasets.load_idx(self.images_path, self.labels_path)
        if not (np.array_equal(loaded.features, pixels)
                and np.array_equal(loaded.labels, self.labels)):
            problems.append("load_idx output differs from the written pixels / 255")
        table = np.loadtxt(self.run_dir / "features.csv", delimiter=",", skiprows=1)
        expected = reference.hidden_features(self.run_dir / "model.bin", pixels)
        if not (np.array_equal(table[:, 0], np.arange(self.count))
                and np.array_equal(table[:, 1], self.labels)):
            problems.append("exported ids/labels differ from the written ones")
        if table.shape[1] - 2 != expected.shape[1] or not np.allclose(
                table[:, 2:], expected, rtol=1e-12, atol=1e-12):
            problems.append("exported features differ from ReLU(x W1^T + b1)")
        return problems, {"val_acc": reports[0].final_validation_accuracy}


WORKLOADS = {cls.name: cls for cls in (Desk, IdxAugment)}
