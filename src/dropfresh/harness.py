"""Deterministic training runs wired to a sampling policy.

Given one :class:`~dropfresh.config.ExperimentConfig`, a run loads (or
generates) its dataset, splits off validation data, trains the classifier
epoch by epoch, and applies the config's schedule (``cfg.dar``) to the active
example pool between epochs. Metrics are written as one JSON line per epoch;
repeating a run with the same config yields byte-identical metrics.
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from . import datasets, model, scheduler
from .baselines import reweight
from .config import DataConfig, ExperimentConfig
from .datasets import Dataset, IdxPair, SyntheticSpec, gen_gaussian, load_csv
from .model import ParamSet, init_params, lr_at

_SPLIT_STREAM = 1
# Evaluation and the export run on blocks of this many rows, the last up to twice as many: on
# OpenBLAS 0.3.31 each row then gets the bits of the whole product (fewer rows can change them)
_ROW_BLOCK = 256


class HarnessError(RuntimeError):
    pass


def _open(paths: tuple[str, ...], class_count: int | None) -> Dataset | IdxPair:
    """One path is a CSV file, two an IDX image/label pair."""
    if len(paths) == 1:
        return load_csv(paths[0], class_count)
    return IdxPair(*paths, class_count)


def _plan(data: DataConfig, seed: int) -> tuple[Dataset | IdxPair | SyntheticSpec, list,
                                                 Dataset | IdxPair | None]:
    """Training source, its row sets (training ids, then validation ids from the split stream)
    and the explicit validation source, if any; no data is generated, nor IDX pixels read."""
    base = _open(data.paths, data.class_count) if data.paths else data.synthetic
    if data.val_paths:
        val = _open(data.val_paths, base.class_count)
        if val.dim != base.dim:
            raise HarnessError(
                f"validation feature dim {val.dim} != training feature dim {base.dim}")
        return base, [slice(None)], val
    n_val = math.floor(data.val_fraction * base.n)
    if n_val == 0:
        return base, [slice(None)], None
    order = np.random.default_rng([int(seed), _SPLIT_STREAM]).permutation(base.n)
    return base, [np.sort(order[n_val:]), np.sort(order[:n_val])], None


def load_dataset(data: DataConfig, run_seed: int) -> tuple[Dataset, Dataset | None]:
    """Training set plus optional validation set, re-indexed from zero."""
    base, row_sets, val = _plan(data, run_seed)
    sets = (base if data.paths else gen_gaussian(base)).take(*row_sets) + (
        [] if val is None else val.take(slice(None)))
    return sets[0], sets[1] if len(sets) > 1 else None


def _row_blocks(n: int) -> list[slice]:
    """Consecutive row slices covering ``n`` rows: ``_ROW_BLOCK`` rows each, the last taking
    the rest (so one block when ``n`` is below twice that)."""
    starts = range(0, max(n - _ROW_BLOCK, 0) + 1, _ROW_BLOCK)
    return [slice(lo, hi) for lo, hi in zip(starts, [*starts[1:], n])]


def evaluate(params: ParamSet, dataset: Dataset) -> float:
    """Plain accuracy; no augmentation is applied at evaluation time; overflow raises.
    Rows are converted and predicted one row block at a time."""
    with np.errstate(over="raise", invalid="raise"):
        correct = sum(np.count_nonzero(model.predict(params, dataset.rows(block))
                                       == dataset.labels[block])
                      for block in _row_blocks(dataset.n))
    return int(correct) / dataset.n  # the correctly rounded ratio, as np.mean gives it


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    active_count: int
    mean_train_loss: float
    validation_accuracy: float | None
    learning_rate: float
    cumulative_examples_used: int
    action: str


@dataclass(frozen=True)
class RunReport:
    config: dict
    records: tuple[EpochRecord, ...]
    final_validation_accuracy: float | None
    realized_cost_ratio: float
    wall_clock_seconds: float


def metrics_lines(records: Sequence[EpochRecord]) -> list[str]:
    """One sorted-key JSON object per epoch; stable across identical runs."""
    return [json.dumps(asdict(r), sort_keys=True) for r in records]


def run_experiment_with_params(cfg: ExperimentConfig) -> tuple[RunReport, ParamSet]:
    start = time.perf_counter()
    train_set, val_set = load_dataset(cfg.data, cfg.run_seed)
    layers = [train_set.dim, *cfg.hidden_layers, train_set.class_count]
    params = init_params(layers, cfg.run_seed)
    velocity, grads = ParamSet.zeros_like(params), ParamSet.zeros_like(params)
    state = scheduler.init(train_set.n)
    weights = None  # reweight policy only
    records: list[EpochRecord] = []
    cumulative = 0
    loss_by_id = np.empty(train_set.n)  # each epoch writes every active id's loss

    for _ in range(cfg.total_epochs):
        state = state.next_epoch()
        epoch = state.epoch
        epoch_key = datasets.epoch_seed(cfg.run_seed, epoch)
        plan = datasets.epoch_batches(state.active_ids, cfg.batch_size, cfg.run_seed, epoch)
        # an overflow anywhere in a batch, its loss, gradients or update raises here
        with np.errstate(over="raise", invalid="raise"):
            for batch_ids in plan:
                try:
                    batch = datasets.make_batch(train_set, batch_ids, cfg.data.augment, epoch_key)
                    sample_weights = weights.values[batch.ids] if weights is not None else None
                    loss_by_id[batch_ids] = model.loss_and_gradients(
                        params, batch.features, batch.labels, cfg.train.weight_decay,
                        sample_weights, out=grads)[0]
                    model.sgd_step(params, grads, cfg.train, epoch, velocity)
                except (ValueError, FloatingPointError) as exc:
                    raise HarnessError(
                        f"epoch {epoch}, examples {batch_ids[:3].tolist()}...: {exc}") from exc
        losses = loss_by_id[state.active_ids]  # the plan is a permutation of the pool

        active_count = len(state.active_ids)
        cumulative += active_count
        mean_loss = math.fsum(losses.tolist()) / losses.size  # exactly rounded, in any order
        try:
            val_acc = evaluate(params, val_set) if val_set is not None else None
        except FloatingPointError as exc:
            raise HarnessError(f"epoch {epoch}, validation: {exc}") from exc

        if cfg.policy == "reweight":
            weights = reweight(losses)  # the pool is the whole population: id order
        state, action = scheduler.end_of_epoch(state, cfg.dar, losses)

        records.append(EpochRecord(
            epoch=epoch, active_count=active_count, mean_train_loss=mean_loss,
            validation_accuracy=val_acc, learning_rate=lr_at(cfg.train, epoch),
            cumulative_examples_used=cumulative, action=action.value))

    report = RunReport(
        config=dict(cfg.echo),
        records=tuple(records),
        final_validation_accuracy=records[-1].validation_accuracy,
        realized_cost_ratio=cumulative / (cfg.total_epochs * train_set.n),
        wall_clock_seconds=time.perf_counter() - start)
    return report, params


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    return run_experiment_with_params(cfg)[0]


def _atomic_write(path: Path, data: Union[str, bytes], more: Iterable[str] = ()) -> None:
    """Writes ``data``, then text chunks of ``more``, to ``<path>.tmp``; renames or deletes it."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
            fh.writelines(more)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)  # ``path`` keeps what it held
        raise


def save_params(params: ParamSet, path: Union[str, Path]) -> None:
    """Flat little-endian doubles plus a JSON sidecar describing the shapes."""
    path = Path(path)
    blob = params.flat.astype("<f8", copy=False).tobytes()
    meta = {"dtype": "<f8", "layer_sizes": params.layer_sizes,
            "value_count": len(blob) // 8}
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(path, blob)
    _atomic_write(path.with_suffix(".json"), json.dumps(meta, sort_keys=True) + "\n")


def load_params(path: Union[str, Path]) -> ParamSet:
    path = Path(path)
    sidecar = path.with_suffix(".json")
    try:
        meta = json.loads(sidecar.read_text())
    except FileNotFoundError:
        raise HarnessError(f"{sidecar}: shape sidecar not found") from None
    if not isinstance(meta, dict) or not isinstance(meta.get("layer_sizes"), list):
        raise HarnessError(f"{sidecar}: no layer_sizes list in the shape sidecar")
    sizes = meta["layer_sizes"]
    if len(sizes) < 2 or any(type(s) is not int or s < 1 for s in sizes):
        raise HarnessError(f"{sidecar}: layer_sizes {sizes!r} are not two or more positive ints")
    expected = sum(fi * fo + fo for fi, fo in zip(sizes, sizes[1:]))
    if meta.get("dtype") != "<f8" or meta.get("value_count") != expected:
        raise HarnessError(f"{sidecar}: dtype {meta.get('dtype')!r} and value_count "
                           f"{meta.get('value_count')!r} are not '<f8' and {expected}")
    size = path.stat().st_size  # checked first: np.frombuffer refuses a size not 8 * k
    if size != 8 * expected:
        raise HarnessError(f"{path}: expected {expected} doubles ({8 * expected} bytes) for "
                           f"layer sizes {sizes}, found {size} bytes")
    return ParamSet.from_flat(np.frombuffer(path.read_bytes(), dtype="<f8"), sizes)


def write_run_outputs(out_dir: Union[str, Path], report: RunReport,
                      params: ParamSet | None = None) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"metrics": out_dir / "metrics.jsonl", "report": out_dir / "report.json"}
    _atomic_write(paths["metrics"], "\n".join(metrics_lines(report.records)) + "\n")
    _atomic_write(paths["report"], json.dumps(asdict(report), sort_keys=True, indent=2) + "\n")
    if params is not None:
        paths["model"] = out_dir / "model.bin"
        save_params(params, paths["model"])
    return paths


@dataclass(frozen=True)
class CompareRow:
    label: str
    cost_ratio: float
    final_accuracy: float | None
    delta_accuracy: float | None


_SHARED_FIELDS = ("data", "hidden_layers", "train", "batch_size", "run_seed", "total_epochs")


def compare(cfgs: Sequence[ExperimentConfig]) -> list[CompareRow]:
    """Run shared-seed configs sequentially and tabulate cost and accuracy.

    Configs must agree on everything except the policy and its drop/refresh
    parameters; the delta column is against the first config's accuracy.
    """
    if len(cfgs) < 2:
        raise HarnessError("compare needs at least two configs")
    base = cfgs[0]
    for i, cfg in enumerate(cfgs[1:], start=2):
        for name in _SHARED_FIELDS:
            if getattr(cfg, name) != getattr(base, name):
                raise HarnessError(
                    f"config {i} differs from config 1 in {name}; compare runs must "
                    f"differ only in policy and drop/refresh settings")
    labels = [cfg.policy for cfg in cfgs]
    for label in set(labels):
        if labels.count(label) > 1:
            labels = [f"{lab}-{i}" if lab == label else lab
                      for i, lab in enumerate(labels, start=1)]
    rows: list[CompareRow] = []
    reference: float | None = None
    for label, cfg in zip(labels, cfgs):
        report = run_experiment(cfg)
        acc = report.final_validation_accuracy
        if reference is None:
            reference = acc
        delta = None if acc is None or reference is None else acc - reference
        rows.append(CompareRow(label=label, cost_ratio=report.realized_cost_ratio,
                               final_accuracy=acc, delta_accuracy=delta))
    return rows


def export_features(params: ParamSet, dataset: Dataset, path: Union[str, Path]) -> None:
    """CSV of per-example embeddings: last hidden activations, else logits; overflow raises.
    Every value is written as Python's ``repr`` writes it. Rows are converted, run through the
    model and written one row block at a time."""
    import orjson  # here, not at the top: ``train`` and ``cost`` need not pay for its import

    def text() -> Iterator[str]:  # the header, then one string per row block
        for block in _row_blocks(dataset.n):
            with np.errstate(over="raise", invalid="raise"):
                feats = model.penultimate_features(params, dataset.rows(block))
            if block.start == 0:
                yield "id,label," + ",".join(f"f{j}" for j in range(feats.shape[1])) + "\n"
            # orjson's shortest round-trip text is repr's for 0 and 1e-4 <= |x| < 1e16; outside
            # that it writes 1e-5 and 1e16 (repr: 1e-05, 1e+16), so a row holding such a value
            # (or a NaN, which fails both tests) goes through repr
            mag = np.abs(feats)
            plain = ((mag == 0) | ((mag >= 1e-4) & (mag < 1e16))).all(axis=1).tolist()
            yield "".join(f"{i},{label}," + (
                orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode() if fast
                else ",".join(map(repr, row.tolist()))) + "\n"
                for i, label, row, fast in zip(range(block.start, block.stop),
                                               dataset.labels[block].tolist(), feats, plain))

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(path, "", text())


def training_population(cfg: ExperimentConfig) -> int:
    """Size of the training split the schedule will see; synthetic rows are counted, not made."""
    base, row_sets, _ = _plan(cfg.data, cfg.run_seed)
    return base.n if isinstance(row_sets[0], slice) else row_sets[0].size
