"""Reference policies the scheduler is compared against.

``reweight`` keeps every example but scales its contribution to the next epoch's objective by
its previous loss (clamped away from zero, renormalized to mean one). A ``uniform`` or
``reweight`` run trains the keep-everything schedule through ``scheduler.end_of_epoch``.
``uniform_policy`` is no transition (the epoch stays); it is kept for the benchmark's tracer.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .scheduler import ActionKind, SchedulerState, check_losses

WEIGHT_FLOOR = 1e-3
_MEAN_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Positive per-example weights with mean one (within 1e-12), kept as a read-only copy."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError(f"weights must be a non-empty vector, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("non-finite weight values")
        if (values <= 0).any():
            raise ValueError("weights must be strictly positive")
        mean = float(values.mean())
        if abs(mean - 1.0) > _MEAN_TOL:
            raise ValueError(f"weights must average to 1, got mean {mean!r}")


def uniform_policy(state: SchedulerState) -> tuple[SchedulerState, ActionKind]:
    """The full pool (a full state as is) at the same epoch; no run calls it."""
    if state.active_ids.size < state.population:
        state = replace(state, active_ids=np.arange(state.population))
    return state, ActionKind.KEEP


def reweight(prev_epoch_losses: np.ndarray) -> WeightVector:
    """Loss-proportional weights for the next epoch.

    Zero-loss examples are floored at ``WEIGHT_FLOOR`` (relative to the mean), not silenced;
    an all-zero epoch falls back to uniform weights. ``scheduler.check_losses`` checks the
    losses with positions as ids; the harness's pool is the population, so a position is an id.
    """
    losses = np.asarray(prev_epoch_losses, dtype=np.float64)
    if losses.ndim != 1 or losses.size == 0:
        raise ValueError(f"losses must be a non-empty vector, got shape {losses.shape}")
    check_losses(range(losses.size), losses)
    if losses.mean() == 0.0:
        return WeightVector(np.ones_like(losses))
    # Rescaling by a power of two so the largest loss lies in [0.5, 1) is
    # exact; it keeps subnormal losses from losing bits in the mean.
    losses = np.ldexp(losses, -np.frexp(losses.max())[1])
    scaled = np.maximum(losses / losses.mean(), WEIGHT_FLOOR)
    return WeightVector(scaled / scaled.mean())
