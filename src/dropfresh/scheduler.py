"""Drop-and-refresh sampling schedule as a pure end-of-epoch state machine.

Training proceeds in cycles. Every cycle starts from the full example pool.
After a warm-up phase, the pool is periodically cut down to the examples
with the largest recorded losses (a *drop*), until the cycle's drop window
closes. At each scheduled refresh epoch the pool is restored to the full
dataset and a new cycle begins.

:func:`trace`'s loop holds the rules: it plans each epoch's pool size and action from the
config and population alone, and losses only choose *which* examples survive a drop. The
training loop owns a :class:`SchedulerState` (epochs ended, and the pool), and
:func:`end_of_epoch`, its one transition, applies the plan's action for the epoch just trained,
given its losses in pool order. ``baselines.uniform_policy`` is no transition: it is kept only
for the benchmark's tracer.
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
        refresh = tuple(self.refresh_epochs)
        optional = () if self.active_epochs is None else ("active_epochs",)
        for name in ("total_epochs", "warmup_epochs", "interval_epochs") + optional:
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
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
        for prev, cur in zip((None,) + refresh, refresh):
            if not isinstance(cur, (int, np.integer)) or prev is not None and cur <= prev:
                raise ValueError(
                    f"refresh_epochs must be strictly increasing integers, got {refresh}")
            if not self.warmup_epochs < cur <= self.total_epochs:
                raise ValueError(
                    f"refresh_epochs entry {cur} outside (warmup_epochs, total_epochs] = "
                    f"({self.warmup_epochs}, {self.total_epochs}]")
        object.__setattr__(self, "refresh_epochs", tuple(map(int, refresh)))

    def keep_count(self, pool_size: int) -> int:
        """Examples a drop retains: ``ceil(keep_rate * size)``, never below one."""
        return max(1, math.ceil(self.keep_rate * pool_size))


def _int_ids(values) -> np.ndarray:
    """``values`` as a new int64 array; an id not of an integer type (even ``2.0``) raises."""
    given = np.asarray(values)
    if given.size and given.dtype.kind not in "iu":
        raise ValueError(f"example ids must be integers, got {given.ravel()[0]}")
    return given.astype(np.int64)


def check_losses(ids, losses: np.ndarray) -> None:
    """Raise ``ValueError`` for the first of ``losses`` not finite and >= 0, naming its id."""
    bad = ~((losses >= 0.0) & (losses < math.inf))  # NaN fails both
    if bad.any():
        loss = float(losses[bad.argmax()])
        kind = "non-finite" if not math.isfinite(loss) else "negative"
        raise ValueError(f"{kind} loss {loss!r} for example {ids[bad.argmax()]}")


@dataclass(frozen=True, eq=False)
class SchedulerState:
    """Epochs ended and the next epoch's pool, ``active_ids``: a strictly ascending, read-only
    int64 copy of what was passed. The counters that pace drops belong to :func:`trace`."""

    epoch: int
    active_ids: np.ndarray
    population: int

    def __post_init__(self) -> None:
        for name, low in (("epoch", 0), ("population", 1)):
            if not isinstance(value := getattr(self, name), (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value}")
        ids = _int_ids(self.active_ids)
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


class LossLedger(dict):
    """The id -> loss ``dict`` :func:`select_hardest` reads, filled from a mapping or by
    :meth:`record`, which checks every entry; re-recording an id overwrites its entry."""

    def __init__(self, entries: Mapping[int, float] | None = None) -> None:
        if entries:
            self.record(list(entries), list(entries.values()))

    def record(self, example_ids, losses) -> None:
        """Record one loss per id: a scalar pair, or an id array and a loss array."""
        ids = _int_ids(example_ids).reshape(-1)
        values = np.asarray(losses, dtype=np.float64).reshape(-1)
        if ids.shape != values.shape:
            raise ValueError(f"{ids.size} example ids but {values.size} losses")
        check_losses(ids, values)
        if (ids < 0).any():
            raise ValueError(f"negative example id {ids.min()}")
        self.update(zip(ids.tolist(), values.tolist()))


def init(population: int) -> SchedulerState:
    """State before epoch 1 (no epoch ended): the full pool."""
    return SchedulerState(epoch=0, active_ids=np.arange(population), population=population)


def select_hardest(ledger: LossLedger, active_ids: Iterable[int],
                   keep_rate: float) -> tuple[int, ...]:
    """Ids of the ``keep_rate`` share of ``active_ids`` (each id once) with the largest losses,
    as a drop keeps them (ties toward the smaller id, ascending). ``ledger[i] = x`` fills a
    ``LossLedger`` without ``record``, so the losses read are checked here: the first not
    finite and >= 0 raises :func:`check_losses`' ``ValueError``, naming its example."""
    keep = DarConfig(total_epochs=1, keep_rate=keep_rate)  # checks keep_rate first
    ids = _int_ids(list(active_ids))
    try:
        losses = np.array([ledger[i] for i in ids.tolist()], dtype=np.float64)
    except KeyError as missing:
        raise ValueError(f"ledger has no entry for active example {missing.args[0]}") from None
    if ids.size == 0:
        raise ValueError("active_ids must not be empty")
    unique, counts = np.unique(ids, return_counts=True)
    if (counts > 1).any():
        raise ValueError(f"active id {unique[(counts > 1).argmax()]} is repeated")
    check_losses(ids, losses)
    return tuple(_hardest(ids, losses, keep.keep_count(ids.size)).tolist())


def _hardest(ids: np.ndarray, losses: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` ids with the largest ``losses``, ties toward the smaller id, ascending."""
    return np.sort(ids[np.lexsort((ids, -losses))[:count]])


def end_of_epoch(state: SchedulerState, config: DarConfig,
                 losses: np.ndarray) -> tuple[SchedulerState, ActionKind]:
    """End epoch ``state.epoch + 1``, which trained on ``state``'s pool of the plan's size:
    apply :func:`trace`'s action for it and return the state after it and that action.

    A keep shares ``state``'s ``active_ids``, a refresh restores the full pool and a drop keeps
    the examples with the largest ``losses``: one per active id in pool order, checked by
    :func:`check_losses`. A state already at ``total_epochs`` is refused.
    """
    epoch = state.epoch + 1
    if epoch > config.total_epochs:
        raise ValueError(f"epoch {epoch} exceeds total_epochs {config.total_epochs}")
    active = state.active_ids
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape != active.shape:
        raise ValueError(f"{losses.size} losses for {active.size} active examples")
    check_losses(active, losses)
    planned = trace(config, state.population)[epoch - 1]
    if planned.size != active.size:
        raise ValueError(f"epoch {epoch} pool of {active.size}, not the plan's {planned.size}")
    if planned.action is ActionKind.KEEP:  # the same checked pool: nothing to copy or check
        ended = copy.copy(state)
        object.__setattr__(ended, "epoch", epoch)
        return ended, planned.action
    pool = (_hardest(active, losses, config.keep_count(active.size))
            if planned.action is ActionKind.DROP else np.arange(state.population))
    return replace(state, epoch=epoch, active_ids=pool), planned.action


@dataclass(frozen=True)
class TraceEntry:
    """Pool size an epoch trained on and the action taken at its end."""

    epoch: int
    size: int
    action: ActionKind


def trace(config: DarConfig, population: int) -> list[TraceEntry]:
    """The plan: each epoch's pool size and end-of-epoch action, from the counters alone
    (no losses, no model). This loop is the only place the end-of-epoch rules run.

    Order matters: the drop rule is evaluated first, then a scheduled
    refresh, which supersedes a drop landing on the same epoch. A drop that
    would retain the whole pool (keep_rate 1.0 on an already-minimal pool,
    say) is reported as a keep; it still advances ``last_drop``.
    """
    if not isinstance(population, (int, np.integer)) or population < 1:
        raise ValueError(f"population must be an integer >= 1, got {population}")
    cycle_start = last_drop = config.warmup_epochs  # so no drop lands in the warm-up
    size = population
    rows: list[TraceEntry] = []
    for epoch in range(1, config.total_epochs + 1):
        action, next_size = ActionKind.KEEP, size
        window_open = config.active_epochs is None or epoch - cycle_start < config.active_epochs
        if epoch - last_drop == config.interval_epochs and window_open:
            last_drop = epoch
            if (kept := config.keep_count(size)) < size:
                action, next_size = ActionKind.DROP, kept
        if epoch in config.refresh_epochs:
            action, next_size, cycle_start, last_drop = ActionKind.REFRESH, population, epoch, epoch
        rows.append(TraceEntry(epoch=epoch, size=size, action=action))
        size = next_size
    return rows


def planned_cost(config: DarConfig, population: int) -> float:
    """Examples the schedule will touch, as a fraction of full-data training."""
    return cost_ratio(trace(config, population), population)


def cost_ratio(rows: list[TraceEntry], population: int) -> float:
    """Example-visits of ``rows``' epochs over as many full-pool epochs of ``population``."""
    return sum(row.size for row in rows) / (len(rows) * population)


def trace_csv_lines(rows: Iterable[TraceEntry]) -> Iterator[str]:
    yield "epoch,size,action"
    for row in rows:
        yield f"{row.epoch},{row.size},{row.action.value}"
