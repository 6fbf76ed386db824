"""Flat key=value experiment configs, presets, and typed assembly.

Precedence is file values, then preset values, then command-line overrides;
the resolved mapping is echoed into the run report so a run can be replayed
from its own output.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from .datasets import (AugmentPolicy, GaussianNoise, HorizontalFlip, NoAugment,
                       SyntheticSpec)
from .model import TrainHyper
from .scheduler import DarConfig

_MEANS_STREAM = 5

POLICIES = ("dar", "uniform", "reweight")

_KNOWN_KEYS = frozenset({
    "data.source", "data.csv", "data.idx_images", "data.idx_labels",
    "data.class_count", "data.val_fraction", "data.val_csv",
    "data.val_idx_images", "data.val_idx_labels",
    "data.augment", "data.augment_sigma", "data.augment_prob",
    "synthetic.classes", "synthetic.dim", "synthetic.per_class",
    "synthetic.std", "synthetic.mean_scale", "synthetic.seed",
    "model.hidden",
    "train.total_epochs", "train.base_lr", "train.momentum", "train.weight_decay",
    "train.lr_milestones", "train.lr_gamma", "train.batch_size",
    "policy",
    "dar.warmup_epochs", "dar.interval_epochs", "dar.keep_rate",
    "dar.active_epochs", "dar.refresh_epochs",
    "run.seed", "run.out_dir",
})

_SOURCE_KEYS = {
    "csv": {"data.csv"},
    "idx": {"data.idx_images", "data.idx_labels"},
    "synthetic": {"synthetic.classes", "synthetic.dim", "synthetic.per_class",
                  "synthetic.std", "synthetic.mean_scale", "synthetic.seed"},
}


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict[str, str]:
    """``key = value`` lines; ``#`` starts a comment; later keys win."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def read_config_file(path: Union[str, Path]) -> dict[str, str]:
    return parse_config_text(Path(path).read_text())


def _get(values: Mapping[str, str], key: str, default: str | None = None) -> str | None:
    raw = values.get(key)
    if raw is None or raw == "":
        return default
    return raw


def _get_int(values: Mapping[str, str], key: str, default: int | None = None) -> int | None:
    raw = _get(values, key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _get_float(values: Mapping[str, str], key: str,
               default: float | None = None) -> float | None:
    raw = _get(values, key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _get_int_list(values: Mapping[str, str], key: str) -> tuple[int, ...]:
    raw = _get(values, key)
    if raw is None or raw.lower() == "none":
        return ()
    try:
        return tuple(int(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got {raw!r}") from None


def _get_float_list(values: Mapping[str, str], key: str) -> tuple[float, ...] | None:
    raw = _get(values, key)
    if raw is None:
        return None
    try:
        return tuple(float(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated numbers, got {raw!r}") from None


@dataclass(frozen=True)
class DataConfig:
    source: str
    csv_path: str | None = None
    idx_images: str | None = None
    idx_labels: str | None = None
    synthetic: SyntheticSpec | None = None
    class_count: int | None = None
    val_fraction: float = 0.0
    val_csv_path: str | None = None
    val_idx_images: str | None = None
    val_idx_labels: str | None = None
    augment: AugmentPolicy = NoAugment()


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig
    hidden_layers: tuple[int, ...]
    train: TrainHyper
    dar: DarConfig
    policy: str
    batch_size: int
    run_seed: int
    out_dir: str | None = None
    echo: Mapping[str, str] = field(default_factory=dict, compare=False)

    @property
    def total_epochs(self) -> int:
        return self.dar.total_epochs


def _synthetic_from(values: Mapping[str, str]) -> SyntheticSpec:
    classes = _get_int(values, "synthetic.classes", 2)
    dim = _get_int(values, "synthetic.dim", 2)
    if classes < 2 or dim < 1:
        raise ConfigError(f"synthetic.classes >= 2 and synthetic.dim >= 1 required, "
                          f"got {classes}, {dim}")
    per_class = _get_int_list(values, "synthetic.per_class") or (100,)
    counts = per_class * classes if len(per_class) == 1 else per_class
    if len(counts) != classes:
        raise ConfigError(f"synthetic.per_class: expected 1 or {classes} entries, "
                          f"got {len(per_class)}")
    stds = _get_float_list(values, "synthetic.std")
    stds = (1.0,) if stds is None else stds
    scale = _get_float(values, "synthetic.mean_scale", 1.0)
    seed = _get_int(values, "synthetic.seed", 0)
    rng = np.random.default_rng([seed, _MEANS_STREAM])
    means_arr = rng.normal(0.0, scale, size=(classes, dim))
    means = tuple(tuple(float(x) for x in row) for row in means_arr)
    return SyntheticSpec(means=means, stds=stds, counts=tuple(counts), seed=seed)


def _augment_from(values: Mapping[str, str]) -> AugmentPolicy:
    name = _get(values, "data.augment", "none")
    if name == "none":
        return NoAugment()
    if name == "gaussian_noise":
        return GaussianNoise(sigma=_get_float(values, "data.augment_sigma", 0.1))
    if name == "horizontal_flip":
        return HorizontalFlip(prob=_get_float(values, "data.augment_prob", 0.5))
    raise ConfigError(f"data.augment: unknown policy {name!r}")


def _data_from(values: Mapping[str, str]) -> DataConfig:
    source = _get(values, "data.source")
    if source not in _SOURCE_KEYS:
        raise ConfigError(f"data.source must be one of {sorted(_SOURCE_KEYS)}, got {source!r}")
    for other, keys in _SOURCE_KEYS.items():
        if other != source:
            stray = sorted(k for k in keys if _get(values, k) is not None)
            if stray:
                raise ConfigError(
                    f"data.source={source} but {stray[0]} is set; configs use exactly "
                    f"one dataset source")
    val_fraction = _get_float(values, "data.val_fraction", 0.0)
    if not 0.0 <= val_fraction <= 0.5:
        raise ConfigError(f"data.val_fraction must be in [0, 0.5], got {val_fraction}")
    explicit_val = any(_get(values, k) is not None for k in
                       ("data.val_csv", "data.val_idx_images", "data.val_idx_labels"))
    if explicit_val and val_fraction > 0.0:
        raise ConfigError("set data.val_fraction or an explicit validation file, not both")
    cfg = DataConfig(
        source=source,
        csv_path=_get(values, "data.csv"),
        idx_images=_get(values, "data.idx_images"),
        idx_labels=_get(values, "data.idx_labels"),
        synthetic=_synthetic_from(values) if source == "synthetic" else None,
        class_count=_get_int(values, "data.class_count"),
        val_fraction=val_fraction,
        val_csv_path=_get(values, "data.val_csv"),
        val_idx_images=_get(values, "data.val_idx_images"),
        val_idx_labels=_get(values, "data.val_idx_labels"),
        augment=_augment_from(values),
    )
    if source == "csv" and cfg.csv_path is None:
        raise ConfigError("data.source=csv requires data.csv")
    if source == "idx" and (cfg.idx_images is None or cfg.idx_labels is None):
        raise ConfigError("data.source=idx requires data.idx_images and data.idx_labels")
    if (cfg.val_idx_images is None) != (cfg.val_idx_labels is None):
        raise ConfigError("data.val_idx_images and data.val_idx_labels go together")
    return cfg


def build_experiment_config(values: Mapping[str, str]) -> ExperimentConfig:
    unknown = sorted(set(values) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")

    epochs = _get_int(values, "train.total_epochs")
    if epochs is None:
        raise ConfigError("train.total_epochs is required")
    base_lr = _get_float(values, "train.base_lr")
    if base_lr is None:
        raise ConfigError("train.base_lr is required")

    milestones = _get_int_list(values, "train.lr_milestones")
    if any(not 0 < m <= epochs for m in milestones):
        raise ConfigError(f"train.lr_milestones must lie in (0, {epochs}], got {milestones}")
    try:
        train = TrainHyper(
            base_lr=base_lr,
            momentum=_get_float(values, "train.momentum", 0.0),
            weight_decay=_get_float(values, "train.weight_decay", 0.0),
            lr_milestones=milestones,
            lr_gamma=_get_float(values, "train.lr_gamma", 0.1),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    policy = _get(values, "policy", "uniform")
    if policy not in POLICIES:
        raise ConfigError(f"policy must be one of {POLICIES}, got {policy!r}")

    active_raw = _get(values, "dar.active_epochs")
    if active_raw is None or active_raw.lower() in ("unbounded", "none"):
        active: int | None = None
    else:
        active = _get_int(values, "dar.active_epochs")
    try:
        dar = DarConfig(
            total_epochs=epochs,
            warmup_epochs=_get_int(values, "dar.warmup_epochs", 0),
            interval_epochs=_get_int(values, "dar.interval_epochs", 1),
            keep_rate=_get_float(values, "dar.keep_rate", 1.0),
            active_epochs=active,
            refresh_epochs=_get_int_list(values, "dar.refresh_epochs"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    batch_size = _get_int(values, "train.batch_size", 32)
    if batch_size < 1:
        raise ConfigError(f"train.batch_size must be >= 1, got {batch_size}")

    hidden = _get_int_list(values, "model.hidden")
    if any(h < 1 for h in hidden):
        raise ConfigError(f"model.hidden sizes must be >= 1, got {hidden}")

    return ExperimentConfig(
        data=_data_from(values),
        hidden_layers=hidden,
        train=train,
        dar=dar,
        policy=policy,
        batch_size=batch_size,
        run_seed=_get_int(values, "run.seed", 0),
        out_dir=_get(values, "run.out_dir"),
        echo=dict(sorted(values.items())),
    )


PRESET_NAMES = ("imagenet-default", "desk-default")


def apply_preset(values: Mapping[str, str], name: str) -> dict[str, str]:
    """Overlay a named drop/refresh schedule onto the raw mapping.

    Both presets drop every 2 epochs inside a bounded window and refresh
    (and decay the learning rate) at the quarter points of the run.
    """
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    epochs = _get_int(values, "train.total_epochs")
    if epochs is None:
        raise ConfigError("presets need train.total_epochs in the config")
    if epochs < 4:
        raise ConfigError(f"presets need train.total_epochs >= 4, got {epochs}")
    if name == "imagenet-default":
        warmup = int(epochs * 10 / 120 + 0.5)
        keep_rate, active = "0.9", "10"
    else:
        warmup = max(1, int(epochs / 5 + 0.5))
        keep_rate, active = "0.7", "4"
    quarters = [epochs // 4 * k for k in (1, 2, 3)]
    marks = ",".join(str(m) for m in quarters if m > warmup)
    out = dict(values)
    out.update({
        "dar.warmup_epochs": str(warmup),
        "dar.interval_epochs": "2",
        "dar.keep_rate": keep_rate,
        "dar.active_epochs": active,
        "dar.refresh_epochs": marks,
        "train.lr_milestones": marks,
    })
    return out
