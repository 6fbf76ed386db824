"""Flat key=value experiment configs, presets, and typed assembly.

Precedence is file values, then preset values, then command-line overrides;
the resolved mapping is echoed into the run report so a run can be replayed
from its own output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Union

import numpy as np

from .datasets import (AugmentPolicy, GaussianNoise, HorizontalFlip, NoAugment,
                       SyntheticSpec)
from .model import TrainHyper
from .scheduler import DarConfig

_MEANS_STREAM = 5

POLICIES = ("dar", "uniform", "reweight")

# Each key's kind and default. "ints" and "floats" are comma-separated lists. An unset or
# empty key takes its default, as does an "ints" value of "none" or with no entries.
_KEYS: dict[str, tuple[str, Any]] = {
    "data.source": ("text", None), "data.csv": ("text", None),
    "data.idx_images": ("text", None), "data.idx_labels": ("text", None),
    "data.class_count": ("int", None), "data.val_fraction": ("float", 0.0),
    "data.val_csv": ("text", None), "data.val_idx_images": ("text", None),
    "data.val_idx_labels": ("text", None), "data.augment": ("text", "none"),
    "data.augment_sigma": ("float", 0.1), "data.augment_prob": ("float", 0.5),
    "synthetic.classes": ("int", 2), "synthetic.dim": ("int", 2),
    "synthetic.per_class": ("ints", (100,)), "synthetic.std": ("floats", (1.0,)),
    "synthetic.mean_scale": ("float", 1.0), "synthetic.seed": ("int", 0),
    "model.hidden": ("ints", ()), "policy": ("text", "uniform"),
    "train.total_epochs": ("int", None), "train.base_lr": ("float", None),
    "train.momentum": ("float", 0.0), "train.weight_decay": ("float", 0.0),
    "train.lr_milestones": ("ints", ()), "train.lr_gamma": ("float", 0.1),
    "train.batch_size": ("int", 32),
    "dar.warmup_epochs": ("int", 0), "dar.interval_epochs": ("int", 1),
    "dar.keep_rate": ("float", 1.0), "dar.refresh_epochs": ("ints", ()),
    "dar.active_epochs": ("int", None),  # "unbounded" or "none" also give None
    "run.seed": ("int", 0), "run.out_dir": ("text", None),
}

_KINDS = {"int": (int, "an integer"), "float": (float, "a number"),
          "ints": (int, "comma-separated integers"), "floats": (float, "comma-separated numbers")}

# the keys that name each source's data; a config sets only its own source's keys
_SOURCE_KEYS = {"csv": ("data.csv",), "idx": ("data.idx_images", "data.idx_labels"),
                "synthetic": tuple(key for key in _KEYS if key.startswith("synthetic."))}


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


def _get(values: Mapping[str, str], key: str) -> Any:
    """``key``'s value parsed as its ``_KEYS`` kind, or its default."""
    kind, default = _KEYS[key]
    raw = values.get(key)
    if not raw or kind == "text":
        return raw or default
    parse, expected = _KINDS[kind]
    try:
        if kind in ("int", "float"):
            return parse(raw)
        if kind == "ints" and raw.lower() == "none":
            return default
        parts = tuple(parse(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from None
    return default if kind == "ints" and not parts else parts


def _get_in(values: Mapping[str, str], key: str, low: float, high: float = math.inf) -> Any:
    """``_get``, then a ConfigError naming ``key`` unless the value, or each entry of a list,
    is finite and in [low, high]; NaN never is."""
    value = _get(values, key)
    if not all(low <= v <= high and math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
        raise ConfigError(f"{key} must be finite and in [{low}, {high}], got {value}")
    return value


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
    classes = _get(values, "synthetic.classes")
    dim = _get(values, "synthetic.dim")
    if classes < 2 or dim < 1:
        raise ConfigError(f"synthetic.classes >= 2 and synthetic.dim >= 1 required, "
                          f"got {classes}, {dim}")
    per_class = _get_in(values, "synthetic.per_class", 1)
    counts = per_class * classes if len(per_class) == 1 else per_class
    if len(counts) != classes:
        raise ConfigError(f"synthetic.per_class: expected 1 or {classes} entries, "
                          f"got {len(per_class)}")
    stds = _get_in(values, "synthetic.std", 0.0)
    if len(stds) not in (1, classes):
        raise ConfigError(f"synthetic.std: expected 1 or {classes} entries, got {len(stds)}")
    scale = _get_in(values, "synthetic.mean_scale", 0.0)
    seed = _get(values, "synthetic.seed")
    if seed < 0:
        raise ConfigError(f"synthetic.seed must be >= 0, got {seed}")
    rng = np.random.default_rng([seed, _MEANS_STREAM])
    means_arr = rng.normal(0.0, scale, size=(classes, dim))
    means = tuple(tuple(float(x) for x in row) for row in means_arr)
    return SyntheticSpec(means=means, stds=stds, counts=tuple(counts), seed=seed)


def _augment_from(values: Mapping[str, str]) -> AugmentPolicy:
    name = _get(values, "data.augment")
    if name == "none":
        return NoAugment()
    if name == "gaussian_noise":
        return GaussianNoise(sigma=_get_in(values, "data.augment_sigma", 0.0))
    if name == "horizontal_flip":
        return HorizontalFlip(prob=_get_in(values, "data.augment_prob", 0.0, 1.0))
    raise ConfigError(f"data.augment: unknown policy {name!r}")


def _data_from(values: Mapping[str, str]) -> DataConfig:
    source = _get(values, "data.source")
    if source not in _SOURCE_KEYS:
        raise ConfigError(f"data.source must be one of {sorted(_SOURCE_KEYS)}, got {source!r}")
    # whether a key is set is read from its raw value, never its default
    stray = sorted(key for other, keys in _SOURCE_KEYS.items() if other != source
                   for key in keys if values.get(key))
    if stray:
        raise ConfigError(f"data.source={source} but {stray[0]} is set; configs use exactly "
                          f"one dataset source")
    val_fraction = _get(values, "data.val_fraction")
    if not 0.0 <= val_fraction <= 0.5:
        raise ConfigError(f"data.val_fraction must be in [0, 0.5], got {val_fraction}")
    explicit_val = ("data.val_csv", "data.val_idx_images", "data.val_idx_labels")
    if val_fraction > 0.0 and any(values.get(k) for k in explicit_val):
        raise ConfigError("set data.val_fraction or an explicit validation file, not both")
    cfg = DataConfig(
        source=source,
        csv_path=_get(values, "data.csv"),
        idx_images=_get(values, "data.idx_images"),
        idx_labels=_get(values, "data.idx_labels"),
        synthetic=_synthetic_from(values) if source == "synthetic" else None,
        class_count=_get(values, "data.class_count"),
        val_fraction=val_fraction,
        val_csv_path=_get(values, "data.val_csv"),
        val_idx_images=_get(values, "data.val_idx_images"),
        val_idx_labels=_get(values, "data.val_idx_labels"),
        augment=_augment_from(values),
    )
    if source != "synthetic" and not all(values.get(k) for k in _SOURCE_KEYS[source]):
        raise ConfigError(f"data.source={source} requires {' and '.join(_SOURCE_KEYS[source])}")
    if (cfg.val_idx_images is None) != (cfg.val_idx_labels is None):
        raise ConfigError("data.val_idx_images and data.val_idx_labels go together")
    return cfg


def build_experiment_config(values: Mapping[str, str]) -> ExperimentConfig:
    unknown = sorted(set(values) - _KEYS.keys())
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")

    epochs = _get(values, "train.total_epochs")
    if epochs is None:
        raise ConfigError("train.total_epochs is required")
    base_lr = _get(values, "train.base_lr")
    if base_lr is None:
        raise ConfigError("train.base_lr is required")

    milestones = _get(values, "train.lr_milestones")
    if any(not 0 < m <= epochs for m in milestones):
        raise ConfigError(f"train.lr_milestones must lie in (0, {epochs}], got {milestones}")
    try:  # the dataclasses' own ValueErrors are reported as ConfigErrors
        train = TrainHyper(base_lr=base_lr, momentum=_get(values, "train.momentum"),
                           weight_decay=_get_in(values, "train.weight_decay", 0.0),
                           lr_milestones=milestones, lr_gamma=_get(values, "train.lr_gamma"))
        policy = _get(values, "policy")
        if policy not in POLICIES:
            raise ConfigError(f"policy must be one of {POLICIES}, got {policy!r}")
        unbounded = values.get("dar.active_epochs", "").lower() in ("unbounded", "none")
        active = None if unbounded else _get(values, "dar.active_epochs")
        dar = DarConfig(
            total_epochs=epochs,
            warmup_epochs=_get(values, "dar.warmup_epochs"),
            interval_epochs=_get(values, "dar.interval_epochs"),
            keep_rate=_get(values, "dar.keep_rate"),
            active_epochs=active,
            refresh_epochs=_get(values, "dar.refresh_epochs"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    batch_size = _get(values, "train.batch_size")
    if batch_size < 1:
        raise ConfigError(f"train.batch_size must be >= 1, got {batch_size}")

    hidden = _get(values, "model.hidden")
    if any(h < 1 for h in hidden):
        raise ConfigError(f"model.hidden sizes must be >= 1, got {hidden}")

    data = _data_from(values)
    run_seed = _get(values, "run.seed")
    if run_seed < 0:
        raise ConfigError(f"run.seed must be >= 0, got {run_seed}")
    return ExperimentConfig(
        data=data,
        hidden_layers=hidden,
        train=train,
        dar=dar,
        policy=policy,
        batch_size=batch_size,
        run_seed=run_seed,
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
    epochs = _get(values, "train.total_epochs")
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
