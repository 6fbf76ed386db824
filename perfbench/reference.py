"""Reference computations the benchmark checks the package's outputs against.

Nothing here imports ``dropfresh``. The schedule is re-derived from the preset
table in the README with exact rational arithmetic and replayed with plain
counters; embeddings are recomputed from the raw bytes of a saved model.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np


def _half_up(value: Fraction) -> int:
    return math.floor(value + Fraction(1, 2))


def preset_schedule(preset: str, total_epochs: int) -> dict:
    """Warm-up, interval, keep rate, drop window and refreshes of a preset.

    ``imagenet-default`` warms up for E/12 epochs and keeps 90% in a 10-epoch
    window; ``desk-default`` warms up for E/5 (at least one) and keeps 70% in a
    4-epoch window. Both drop every 2 epochs and refresh at the quarter points
    that lie after the warm-up.
    """
    if preset == "imagenet-default":
        warmup, keep, window = _half_up(Fraction(total_epochs, 12)), Fraction(9, 10), 10
    elif preset == "desk-default":
        warmup, keep, window = max(1, _half_up(Fraction(total_epochs, 5))), Fraction(7, 10), 4
    else:
        raise ValueError(f"unknown preset {preset!r}")
    quarters = [total_epochs // 4 * k for k in (1, 2, 3)]
    return {"warmup": warmup, "interval": 2, "keep": keep, "window": window,
            "refreshes": [q for q in quarters if q > warmup]}


def simulate(total_epochs: int, warmup: int, interval: int, keep: Fraction,
             window: int | None, refreshes: list[int],
             population: int) -> list[tuple[int, int, str]]:
    """``(epoch, pool size trained on, action)`` per epoch, straight-line."""
    size = population
    anchor = last = warmup
    rows = []
    for epoch in range(1, total_epochs + 1):
        trained, action = size, "keep"
        if (epoch > warmup and epoch - last == interval
                and (window is None or epoch - anchor < window)):
            last = epoch
            kept = max(1, math.ceil(keep * size))
            if kept < size:
                size, action = kept, "drop"
        if epoch in refreshes:
            anchor = last = epoch
            size, action = population, "refresh"
        rows.append((epoch, trained, action))
    return rows


def preset_rows(preset: str, total_epochs: int, population: int) -> list[tuple[int, int, str]]:
    return simulate(total_epochs, population=population,
                    **preset_schedule(preset, total_epochs))


def cost_ratio(rows: list[tuple[int, int, str]], population: int) -> float:
    """Example-visits over ``E * N``, rounded once from the exact fraction."""
    return float(Fraction(sum(size for _, size, _ in rows), len(rows) * population))


def train_population(total: int, val_fraction: str) -> int:
    """Examples left for training after a ``floor(fraction * n)`` split."""
    return total - math.floor(Fraction(val_fraction) * total)


def hidden_features(model_bin: Path, images: np.ndarray) -> np.ndarray:
    """ReLU(x W1^T + b1) from the flat ``<f8`` layout ``W1, b1, W2, b2, ...``."""
    sizes = json.loads(model_bin.with_suffix(".json").read_text())["layer_sizes"]
    flat = np.frombuffer(model_bin.read_bytes(), dtype="<f8")
    fan_in, fan_out = sizes[0], sizes[1]
    w1 = flat[:fan_in * fan_out].reshape(fan_out, fan_in)
    b1 = flat[fan_in * fan_out:fan_in * fan_out + fan_out]
    return np.maximum(images @ w1.T + b1, 0.0)
