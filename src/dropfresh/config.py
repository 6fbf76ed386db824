"""Flat key=value experiment configs, presets, and typed assembly.

Precedence is file values, then preset values, then command-line overrides;
the resolved mapping is echoed into the run report so a run can be replayed
from its own output.
"""
from __future__ import annotations

import math
import sys
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

REQUIRED = object()  # the default of a key that every config sets

# Each key's kind and default, then what a set value may be: a number, or each entry of a list,
# in [low, high] (high defaults to inf), or a text key one of its names. Every float is finite;
# ranges are the dataclasses', but for synthetic keys read before one is built. "ints"/"floats"
# are comma-separated lists; an unset or empty key, or an "ints" value of "none" or no entries,
# is the default. Sizes stop at sys.maxsize, as numpy axes do.
_KEYS: dict[str, tuple] = {
    "data.source": ("text", REQUIRED, ("csv", "idx", "synthetic")), "data.csv": ("text", None),
    "data.idx_images": ("text", None), "data.idx_labels": ("text", None),
    "data.class_count": ("int", None), "data.val_csv": ("text", None),
    "data.val_fraction": ("float", 0.0), "data.val_idx_images": ("text", None),
    "data.val_idx_labels": ("text", None),
    "data.augment": ("text", "none", ("none", "gaussian_noise", "horizontal_flip")),
    "data.augment_sigma": ("float", 0.1), "data.augment_prob": ("float", 0.5),
    "synthetic.classes": ("int", 2, 2, sys.maxsize), "synthetic.dim": ("int", 2, 1, sys.maxsize),
    "synthetic.per_class": ("ints", (100,)), "synthetic.seed": ("int", 0, 0),
    "synthetic.std": ("floats", (1.0,)), "synthetic.mean_scale": ("float", 1.0, 0.0),
    "model.hidden": ("ints", ()), "policy": ("text", "uniform"),
    "train.total_epochs": ("int", REQUIRED), "train.base_lr": ("float", REQUIRED),
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
_VAL_SOURCE_KEYS = (("data.val_csv",), ("data.val_idx_images", "data.val_idx_labels"))
_FIELD_KEYS = {k.split(".")[1]: k for k in _KEYS if k.startswith(("train.", "dar.", "data."))} | {
    "stds": "synthetic.std", "counts": "synthetic.per_class", "sigma": "data.augment_sigma",
    "prob": "data.augment_prob", "run_seed": "run.seed", "hidden_layers": "model.hidden"}


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
    """``key``'s value parsed as its ``_KEYS`` kind and checked against what it accepts."""
    kind, default, *accepts = _KEYS[key]
    raw = values.get(key)
    if not raw:
        if default is REQUIRED:
            raise ConfigError(f"{key} is required")
        return default
    if kind == "text":
        if accepts and raw not in accepts[0]:
            raise ConfigError(f"{key} must be one of {accepts[0]}, got {raw!r}")
        return raw
    parse, expected = _KINDS[kind]
    try:
        if kind in ("int", "float"):
            value = parse(raw)
        else:
            value = () if kind == "ints" and raw.lower() == "none" else tuple(
                parse(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from None
    if kind == "ints" and not value:
        return default
    entries = value if isinstance(value, tuple) else (value,)
    low, high = (*accepts, math.inf)[:2] if accepts else (-math.inf, math.inf)
    if kind in ("float", "floats") and not all(map(math.isfinite, entries)):
        raise ConfigError(f"{key} must be finite, got {value}")
    if not all(low <= v <= high for v in entries):
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ConfigError(f"{key} must be {bound}, got {value}")
    return value


@dataclass(frozen=True)
class DataConfig:
    """``paths`` and ``val_paths`` each name a CSV file ``(csv,)``, an IDX pair ``(images,
    labels)`` or nothing: synthetic training data, a split or no validation set."""
    paths: tuple[str, ...] = ()
    synthetic: SyntheticSpec | None = None
    class_count: int | None = None
    val_fraction: float = 0.0
    val_paths: tuple[str, ...] = ()
    augment: AugmentPolicy = NoAugment()

    def __post_init__(self) -> None:
        if len(self.paths) > 2 or bool(self.paths) == (self.synthetic is not None):
            raise ValueError(f"paths must be 1 or 2 files, or () with synthetic, got {self.paths}")
        if len(self.val_paths) > 2:
            raise ValueError(f"val_paths must hold 0, 1 or 2 files, got {self.val_paths!r}")
        if not 0.0 <= self.val_fraction <= (0.0 if self.val_paths else 0.5):  # NaN fails both
            raise ValueError(f"val_fraction must be in [0, 0.5], and 0 with val_paths set (a split "
                             f"or a validation set, not both), got {self.val_fraction}")
        count = self.class_count
        if count is not None and not (self.paths and isinstance(count, (int, np.integer))
                                      and 2 <= count <= sys.maxsize):
            raise ValueError(f"class_count must be None on synthetic data, else an integer in "
                             f"[2, {sys.maxsize}], got {count!r}")
        if isinstance(self.augment, HorizontalFlip) and len(self.paths) != 2:
            raise ValueError(f"augment HorizontalFlip needs an IDX pair in paths, got {self.paths}")


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

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        for name, low in (("run_seed", 0), ("batch_size", 1)):
            if not isinstance(value := getattr(self, name), (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not all(isinstance(h, (int, np.integer)) and 1 <= h <= sys.maxsize
                   for h in self.hidden_layers):
            raise ValueError(f"hidden_layers must be integers in [1, {sys.maxsize}], got "
                             f"{self.hidden_layers!r}")
        if any(m > self.dar.total_epochs for m in self.train.lr_milestones):
            raise ValueError(f"lr_milestones must be <= {self.dar.total_epochs}, got "
                             f"{self.train.lr_milestones}")
        if self.policy != "dar":  # ``dar`` is the schedule the run trains, for any policy
            object.__setattr__(self, "dar", DarConfig(total_epochs=self.dar.total_epochs))

    @property
    def total_epochs(self) -> int:
        return self.dar.total_epochs


def _synthetic_from(values: Mapping[str, str]) -> SyntheticSpec:
    classes = _get(values, "synthetic.classes")
    dim = _get(values, "synthetic.dim")
    per_class = _get(values, "synthetic.per_class")
    counts = per_class * classes if len(per_class) == 1 else per_class
    stds = _get(values, "synthetic.std")
    scale = _get(values, "synthetic.mean_scale")
    seed = _get(values, "synthetic.seed")
    rng = np.random.default_rng([seed, _MEANS_STREAM])
    means_arr = rng.normal(0.0, scale, size=(classes, dim))
    means = tuple(tuple(float(x) for x in row) for row in means_arr)
    return SyntheticSpec(means=means, stds=stds, counts=tuple(counts), seed=seed)


def _augment_from(values: Mapping[str, str]) -> AugmentPolicy:
    name = _get(values, "data.augment")
    if name == "gaussian_noise":
        return GaussianNoise(sigma=_get(values, "data.augment_sigma"))
    if name == "horizontal_flip":
        return HorizontalFlip(prob=_get(values, "data.augment_prob"))
    return NoAugment()


def _data_from(values: Mapping[str, str]) -> DataConfig:
    source = _get(values, "data.source")
    # whether a key is set is read from its raw value, never its default
    stray = sorted(key for other, keys in _SOURCE_KEYS.items() if other != source
                   for key in keys if values.get(key))
    if stray:
        raise ConfigError(f"data.source={source} but {stray[0]} is set; configs use exactly "
                          f"one dataset source")
    val_keys = [keys for keys in _VAL_SOURCE_KEYS if any(values.get(k) for k in keys)]
    if len(val_keys) > 1:
        raise ConfigError("set data.val_csv or data.val_idx_images and data.val_idx_labels, "
                          "not both")
    paths = tuple(values.get(k) for k in _SOURCE_KEYS[source] if source != "synthetic")
    val_paths = tuple(values.get(k) for keys in val_keys for k in keys)
    if not all(paths):
        raise ConfigError(f"data.source={source} requires {' and '.join(_SOURCE_KEYS[source])}")
    if not all(val_paths):
        raise ConfigError("data.val_idx_images and data.val_idx_labels go together")
    synthetic = _synthetic_from(values) if source == "synthetic" else None
    return DataConfig(paths=paths, synthetic=synthetic, val_paths=val_paths,
                      class_count=_get(values, "data.class_count"),
                      val_fraction=_get(values, "data.val_fraction"), augment=_augment_from(values))


def build_experiment_config(values: Mapping[str, str]) -> ExperimentConfig:
    unknown = sorted(set(values) - _KEYS.keys())
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")

    try:
        train = TrainHyper(**{name: _get(values, f"train.{name}") for name in (
            "base_lr", "momentum", "weight_decay", "lr_milestones", "lr_gamma")})
        unbounded = values.get("dar.active_epochs", "").lower() in ("unbounded", "none")
        active = None if unbounded else _get(values, "dar.active_epochs")
        dar = DarConfig(
            total_epochs=_get(values, "train.total_epochs"),
            warmup_epochs=_get(values, "dar.warmup_epochs"),
            interval_epochs=_get(values, "dar.interval_epochs"),
            keep_rate=_get(values, "dar.keep_rate"),
            active_epochs=active,
            refresh_epochs=_get(values, "dar.refresh_epochs"),
        )
        return ExperimentConfig(
            batch_size=_get(values, "train.batch_size"),
            hidden_layers=_get(values, "model.hidden"),
            data=_data_from(values),
            train=train,
            dar=dar,
            policy=_get(values, "policy"),
            run_seed=_get(values, "run.seed"),
            out_dir=_get(values, "run.out_dir"),
            echo=dict(sorted(values.items())),
        )
    except ValueError as exc:  # a dataclass's message starts with its field: name the key
        field_name, space, rest = str(exc).partition(" ")
        raise ConfigError(_FIELD_KEYS.get(field_name, field_name) + space + rest) from None


PRESET_NAMES = ("imagenet-default", "desk-default")


def apply_preset(values: Mapping[str, str], name: str) -> dict[str, str]:
    """Overlay a named drop/refresh schedule onto the raw mapping.

    Both presets drop every 2 epochs inside a bounded window and refresh
    (and decay the learning rate) at the quarter points of the run.
    """
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    epochs = _get(values, "train.total_epochs")
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
