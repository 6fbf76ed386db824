"""Drop-and-refresh sampling schedule as a pure end-of-epoch state machine.

Training proceeds in cycles. Every cycle starts from the full example pool.
After a warm-up phase, the pool is periodically cut down to the examples
with the largest recorded losses (a *drop*), until the cycle's drop window
closes. At each scheduled refresh epoch the pool is restored to the full
dataset and a new cycle begins.

The rules are one pure function of the schedule's counters, :func:`_decide`;
losses only choose *which* examples survive a drop. The training loop owns a
:class:`SchedulerState`, hands :func:`end_of_epoch` the epoch's losses in pool
order, and applies what it returns. :func:`trace` and :func:`planned_cost` run
the rules on the counters alone, with no losses.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Iterator, Mapping

import numpy as np


class ActionKind(Enum):
    KEEP = "keep"
    DROP = "drop"
    REFRESH = "refresh"


@dataclass(frozen=True)
class DarConfig:
    """Static schedule parameters for one run.

    ``active_epochs`` bounds how long after a cycle start drops may happen;
    ``None`` means the drop window never closes. ``refresh_epochs`` are the
    epochs whose end restores the full pool.
    """

    total_epochs: int
    warmup_epochs: int = 0
    interval_epochs: int = 1
    keep_rate: float = 1.0
    active_epochs: int | None = None
    refresh_epochs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "refresh_epochs", tuple(int(e) for e in self.refresh_epochs))
        if self.total_epochs < 1:
            raise ValueError(f"total_epochs must be >= 1, got {self.total_epochs}")
        if self.warmup_epochs < 0:
            raise ValueError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        if self.warmup_epochs >= self.total_epochs:
            raise ValueError(
                f"warmup_epochs must be < total_epochs, got "
                f"{self.warmup_epochs} >= {self.total_epochs}")
        if self.interval_epochs < 1:
            raise ValueError(f"interval_epochs must be >= 1, got {self.interval_epochs}")
        if not 0.0 < self.keep_rate <= 1.0:
            raise ValueError(f"keep_rate must be in (0, 1], got {self.keep_rate}")
        if self.active_epochs is not None and self.active_epochs < 0:
            raise ValueError(f"active_epochs must be >= 0 or None, got {self.active_epochs}")
        for prev, cur in zip((None,) + self.refresh_epochs, self.refresh_epochs):
            if prev is not None and cur <= prev:
                raise ValueError(
                    f"refresh_epochs must be strictly increasing, got {self.refresh_epochs}")
            if not self.warmup_epochs < cur <= self.total_epochs:
                raise ValueError(
                    f"refresh epoch {cur} outside (warmup_epochs, total_epochs] = "
                    f"({self.warmup_epochs}, {self.total_epochs}]")

    def keep_count(self, pool_size: int) -> int:
        """Examples a drop retains: ``ceil(keep_rate * size)``, never below one."""
        return max(1, math.ceil(self.keep_rate * pool_size))


@dataclass(frozen=True)
class SchedulerState:
    """Position of the schedule between epochs.

    ``cycle_start`` is the epoch the current cycle was anchored at (warm-up
    end, or the latest refresh); ``last_drop`` is the most recent epoch a
    drop was attempted, which paces the drop interval. ``active_ids`` is
    stored as a strictly ascending, read-only int64 copy of what was passed.
    """

    epoch: int
    cycle_start: int
    last_drop: int
    active_ids: np.ndarray
    population: int

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ValueError(f"population must be >= 1, got {self.population}")
        ids = np.array(self.active_ids, dtype=np.int64)
        if ids.size == 0:
            raise ValueError("active_ids must not be empty")
        outside = (ids < 0) | (ids >= self.population)
        if outside.any():
            raise ValueError(
                f"active id {ids[outside.argmax()]} outside [0, {self.population})")
        if (np.diff(ids) <= 0).any():
            raise ValueError("active_ids must be strictly ascending")
        ids.flags.writeable = False
        object.__setattr__(self, "active_ids", ids)

    def next_epoch(self) -> "SchedulerState":
        """Advance the epoch counter; nothing else changes, so nothing is re-checked."""
        state = copy.copy(self)
        object.__setattr__(state, "epoch", self.epoch + 1)
        return state


class LossLedger:
    """Per-example losses by id: the table :func:`select_hardest` reads.

    ``losses`` is a float64 array indexed by example id, NaN where nothing
    was recorded; it grows to the largest id recorded. Re-recording an id
    overwrites its entry.
    """

    def __init__(self, entries: Mapping[int, float] | None = None) -> None:
        self.losses = np.empty(0)
        if entries:
            self.record(list(entries), list(entries.values()))

    def record(self, example_ids, losses) -> None:
        """Record one loss per id: a scalar pair, or an id array and a loss array."""
        ids = np.asarray(example_ids, dtype=np.int64).reshape(-1)
        values = np.asarray(losses, dtype=np.float64).reshape(-1)
        if ids.shape != values.shape:
            raise ValueError(f"{ids.size} example ids but {values.size} losses")
        if ids.size == 0:
            return
        bad = ~np.isfinite(values) | (values < 0.0)
        if bad.any():
            at = int(bad.argmax())
            loss = float(values[at])
            kind = "non-finite" if not math.isfinite(loss) else "negative"
            raise ValueError(f"{kind} loss {loss!r} for example {ids[at]}")
        if ids.min() < 0:
            raise ValueError(f"negative example id {ids.min()}")
        top = int(ids.max()) + 1
        if top > self.losses.size:
            grown = np.full(top, np.nan)
            grown[:self.losses.size] = self.losses
            self.losses = grown
        self.losses[ids] = values


def init(config: DarConfig, population: int) -> SchedulerState:
    """State before epoch 1: full pool, cycle anchored at the warm-up end."""
    return SchedulerState(
        epoch=0,
        cycle_start=config.warmup_epochs,
        last_drop=config.warmup_epochs,
        active_ids=np.arange(population),
        population=population,
    )


def select_hardest(ledger: LossLedger, active_ids: Iterable[int],
                   keep_rate: float) -> tuple[int, ...]:
    """Ids of the ``keep_rate`` share of ``active_ids`` with the largest losses.

    Ties on loss are broken toward the smaller id, so the result is a
    deterministic function of the ledger alone. Returned ids are ascending.
    """
    if not 0.0 < keep_rate <= 1.0:
        raise ValueError(f"keep_rate must be in (0, 1], got {keep_rate}")
    ids = np.fromiter(active_ids, dtype=np.int64)
    losses = np.full(ids.size, np.nan)
    inside = (ids >= 0) & (ids < ledger.losses.size)
    losses[inside] = ledger.losses[ids[inside]]
    missing = np.isnan(losses)
    if missing.any():
        raise ValueError(f"ledger has no entry for active example {ids[missing.argmax()]}")
    if ids.size == 0:
        raise ValueError("active_ids must not be empty")
    return tuple(_hardest(ids, losses, max(1, math.ceil(keep_rate * ids.size))).tolist())


def _hardest(ids: np.ndarray, losses: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` ids with the largest ``losses``, ties toward the smaller id, ascending."""
    return np.sort(ids[np.lexsort((ids, -losses))[:count]])


def _decide(config: DarConfig, epoch: int, cycle_start: int, last_drop: int,
            pool_size: int, population: int) -> tuple[ActionKind, int, int, int]:
    """The end-of-epoch rules: ``(action, new_size, cycle_start, last_drop)``.

    Order matters: the drop rule is evaluated first, then a scheduled
    refresh, which supersedes a drop landing on the same epoch. A drop that
    would retain the whole pool (keep_rate 1.0 on an already-minimal pool,
    say) is reported as a keep; it still advances ``last_drop``.
    """
    action, size = ActionKind.KEEP, pool_size
    if epoch > config.warmup_epochs:
        window_open = (config.active_epochs is None
                       or epoch - cycle_start < config.active_epochs)
        if epoch - last_drop == config.interval_epochs and window_open:
            last_drop = epoch
            kept = config.keep_count(pool_size)
            if kept < pool_size:
                action, size = ActionKind.DROP, kept
    if epoch in config.refresh_epochs:
        action, size, cycle_start, last_drop = ActionKind.REFRESH, population, epoch, epoch
    return action, size, cycle_start, last_drop


def end_of_epoch(state: SchedulerState, config: DarConfig,
                 losses: np.ndarray) -> tuple[SchedulerState, ActionKind]:
    """Apply the end-of-epoch transition for ``state.epoch``.

    :func:`_decide` sets the action and the counters; a drop then keeps the
    examples with the largest ``losses``, one finite loss >= 0 per active id,
    in ``state.active_ids`` order.
    """
    epoch = state.epoch
    if epoch < 1:
        raise ValueError("end_of_epoch before any epoch ran; call next_epoch first")
    if epoch > config.total_epochs:
        raise ValueError(f"epoch {epoch} exceeds total_epochs {config.total_epochs}")
    active = state.active_ids
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape != active.shape:
        raise ValueError(f"{losses.size} losses for {active.size} active examples")
    if not ((losses >= 0.0) & (losses < math.inf)).all():  # NaN fails both
        raise ValueError("losses must be finite and >= 0")
    kind, size, cycle_start, last_drop = _decide(
        config, epoch, state.cycle_start, state.last_drop, active.size, state.population)
    if kind is ActionKind.KEEP:  # the pool is unchanged, so it is neither copied nor re-checked
        new_state = copy.copy(state)
    else:
        new_state = replace(state, active_ids=_hardest(active, losses, size)
                            if kind is ActionKind.DROP else np.arange(state.population))
    object.__setattr__(new_state, "cycle_start", cycle_start)
    object.__setattr__(new_state, "last_drop", last_drop)
    return new_state, kind


@dataclass(frozen=True)
class TraceEntry:
    """Pool size an epoch trained on and the action taken at its end."""

    epoch: int
    size: int
    action: ActionKind


def trace(config: DarConfig, population: int) -> list[TraceEntry]:
    """Dry-run the schedule on its counters alone; no ledger, no model."""
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    cycle_start = last_drop = config.warmup_epochs
    size = population
    rows: list[TraceEntry] = []
    for epoch in range(1, config.total_epochs + 1):
        action, next_size, cycle_start, last_drop = _decide(
            config, epoch, cycle_start, last_drop, size, population)
        rows.append(TraceEntry(epoch=epoch, size=size, action=action))
        size = next_size
    return rows


def planned_cost(config: DarConfig, population: int) -> float:
    """Examples the schedule will touch, as a fraction of full-data training."""
    rows = trace(config, population)
    return sum(row.size for row in rows) / (config.total_epochs * population)


def trace_csv_lines(rows: Iterable[TraceEntry]) -> Iterator[str]:
    yield "epoch,size,action"
    for row in rows:
        yield f"{row.epoch},{row.size},{row.action.value}"
