import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropfresh.baselines import reweight, uniform_policy
from dropfresh.scheduler import (ActionKind, DarConfig, LossLedger, SchedulerState,
                                 end_of_epoch, init, planned_cost, select_hardest,
                                 trace, trace_csv_lines)

from oracles import brute_force_hardest, simulate_schedule

TOY = DarConfig(total_epochs=8, warmup_epochs=2, interval_epochs=1,
                keep_rate=0.5, active_epochs=4, refresh_epochs=(5,))


def drive(config, population, losses_for):
    """Run the state machine across all epochs, recording (size, action)."""
    state = init(population)
    rows = []
    for _ in range(config.total_epochs):
        size = len(state.active_ids)
        losses = np.array([losses_for(state.epoch + 1, i) for i in state.active_ids.tolist()])
        state, action = end_of_epoch(state, config, losses)
        rows.append((size, action))
    return rows


def reach(config, population, epoch):
    """The state epoch ``epoch`` trains on (``epoch - 1`` epochs ended), reached from ``init``
    with each example's loss equal to its id (a drop keeps the largest ids)."""
    state = init(population)
    while state.epoch < epoch - 1:
        state = end_of_epoch(state, config, state.active_ids * 1.0)[0]
    return state


def test_init_state():
    state = init(8)
    assert state.epoch == 0
    assert state.active_ids.tolist() == list(range(8))
    assert state.population == 8


def test_state_has_only_the_epoch_and_the_pool():
    assert [f.name for f in dataclasses.fields(SchedulerState)] == [
        "epoch", "active_ids", "population"]


def test_init_rejects_bad_population():
    with pytest.raises(ValueError, match="population"):
        init(0)


def test_state_refuses_a_fractional_population():
    # unchecked, init(10.5) builds a pool of 11 ids for a population of 10.5
    with pytest.raises(ValueError, match=r"^population must be an integer >= 1, got 10\.5$"):
        init(10.5)
    with pytest.raises(ValueError, match="^population must be an integer"):
        SchedulerState(epoch=0, active_ids=[0, 1], population=2.0)
    assert init(np.int64(3)).active_ids.tolist() == [0, 1, 2]


@pytest.mark.parametrize("epoch", [2.0, 0.5, -1, "2"])
def test_state_refuses_an_epoch_that_is_not_an_integer_from_zero(epoch):
    # unchecked, epoch=2.0 builds and end_of_epoch fails on indexing the plan with it
    with pytest.raises(ValueError, match=rf"^epoch must be an integer >= 0, got {epoch}$"):
        SchedulerState(epoch=epoch, active_ids=np.arange(8), population=8)
    state = SchedulerState(epoch=np.int64(1), active_ids=np.arange(8), population=8)
    assert end_of_epoch(state, TOY, np.ones(8))[1] is ActionKind.KEEP  # epoch 2: warm-up


def test_state_refuses_fractional_ids_rather_than_truncating_them():
    # unchecked, [0.5, 1.7] is stored as [0, 1]
    with pytest.raises(ValueError, match=r"^example ids must be integers, got 0\.5$"):
        SchedulerState(epoch=0, active_ids=[0.5, 1.7], population=3)
    for dtype in (np.int8, np.uint16, np.int32, np.uint64):
        state = SchedulerState(epoch=0, active_ids=np.array([0, 2], dtype=dtype), population=3)
        assert state.active_ids.dtype == np.int64 and state.active_ids.tolist() == [0, 2]


def test_select_hardest_refuses_a_repeated_id():
    # unchecked, [1, 1, 0] at keep_rate 0.5 keeps (1, 1): one example twice
    with pytest.raises(ValueError, match=r"^active id 1 is repeated$"):
        select_hardest(LossLedger({0: 1.0, 1: 2.0}), [1, 1, 0], 0.5)
    with pytest.raises(ValueError, match=r"^active id 2 is repeated$"):
        select_hardest(LossLedger({0: 1.0, 2: 2.0, 5: 0.5}), [5, 2, 0, 2, 5], 0.5)


def test_select_hardest_refuses_fractional_ids_rather_than_truncating_them():
    # unchecked, [0.5, 1.7] is read as ids 0 and 1 and (1,) comes back
    with pytest.raises(ValueError, match=r"^example ids must be integers, got 0\.5$"):
        select_hardest(LossLedger({0: 1.0, 1: 2.0}), [0.5, 1.7], 0.5)
    ledger = LossLedger({0: 1.0, 1: 2.0})
    assert select_hardest(ledger, np.array([0, 1], dtype=np.uint8), 0.5) == (1,)
    assert select_hardest(ledger, iter([np.int16(0), 1]), 0.5) == (1,)


def test_ledger_refuses_a_fractional_id_rather_than_truncating_it():
    # unchecked, record([2.9], [1.0]) stores {2: 1.0}
    ledger = LossLedger()
    with pytest.raises(ValueError, match=r"^example ids must be integers, got 2\.9$"):
        ledger.record([2.9], [1.0])
    with pytest.raises(ValueError, match=r"^example ids must be integers, got 2\.0$"):
        LossLedger({2.0: 1.0})
    assert ledger == {}
    ledger.record(np.array([3, 1], dtype=np.int32), [0.5, 1.5])
    ledger.record(np.uint8(7), 2.5)
    assert ledger == {1: 1.5, 3: 0.5, 7: 2.5}


@pytest.mark.parametrize("kwargs, fragment", [
    (dict(total_epochs=0), "total_epochs"),
    (dict(total_epochs=5, warmup_epochs=5), "warmup_epochs"),
    (dict(total_epochs=5, warmup_epochs=-1), "warmup_epochs"),
    (dict(total_epochs=5, interval_epochs=0), "interval_epochs"),
    (dict(total_epochs=5, keep_rate=0.0), "keep_rate"),
    (dict(total_epochs=5, keep_rate=1.5), "keep_rate"),
    (dict(total_epochs=5, active_epochs=-1), "active_epochs"),
    (dict(total_epochs=5, refresh_epochs=(3, 3)), "refresh_epochs"),
    (dict(total_epochs=5, warmup_epochs=2, refresh_epochs=(2,)), "refresh"),
    (dict(total_epochs=5, refresh_epochs=(6,)), "refresh"),
])
def test_config_validation(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        DarConfig(**kwargs)


@pytest.mark.parametrize("name, value", [
    ("total_epochs", 8.5), ("warmup_epochs", 1.0), ("interval_epochs", 1.5),
    ("active_epochs", 2.5),
])
def test_config_refuses_a_fractional_epoch_count(name, value):
    # unchecked, total_epochs=8.5 fails only in trace's range() and interval_epochs=1.5 never drops
    kwargs = dict(total_epochs=8, warmup_epochs=2, keep_rate=0.5)
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value}$"):
        DarConfig(**{**kwargs, name: value})
    cfg = DarConfig(**{**kwargs, name: np.int64(int(value) + 1)})
    assert len(trace(cfg, 10)) == cfg.total_epochs


def test_config_refuses_a_fractional_refresh_epoch_rather_than_truncating_it():
    # int(4.5) would refresh at epoch 4
    with pytest.raises(ValueError, match=r"^refresh_epochs .*integers, got \(4\.5,\)$"):
        DarConfig(total_epochs=8, warmup_epochs=2, keep_rate=0.5, refresh_epochs=(4.5,))
    cfg = DarConfig(total_epochs=8, warmup_epochs=2, refresh_epochs=[np.int64(4), 6])
    assert cfg.refresh_epochs == (4, 6) and all(type(e) is int for e in cfg.refresh_epochs)


def test_keep_count():
    cfg = DarConfig(total_epochs=4, keep_rate=0.5)
    assert cfg.keep_count(8) == 4
    assert cfg.keep_count(1) == 1
    assert DarConfig(total_epochs=4, keep_rate=0.34).keep_count(3) == 2
    assert DarConfig(total_epochs=4, keep_rate=0.01).keep_count(5) == 1
    assert DarConfig(total_epochs=4, keep_rate=1.0).keep_count(7) == 7


def test_select_hardest_worked_example():
    ledger = LossLedger({0: 0.5, 1: 2.0, 2: 1.0, 3: 0.1})
    assert select_hardest(ledger, (0, 1, 2, 3), 0.5) == (1, 2)


def test_select_hardest_tie_breaks_toward_smaller_id():
    ledger = LossLedger({0: 1.0, 1: 1.0, 2: 0.2})
    assert select_hardest(ledger, (0, 1, 2), 0.34) == (0, 1)


def test_select_hardest_all_tied():
    ledger = LossLedger({5: 0.7, 9: 0.7, 11: 0.7, 30: 0.7})
    assert select_hardest(ledger, (5, 9, 11, 30), 0.5) == (5, 9)


def test_select_hardest_missing_id():
    ledger = LossLedger({0: 1.0})
    with pytest.raises(ValueError, match="no entry for active example 1"):
        select_hardest(ledger, (0, 1), 0.5)


def test_select_hardest_keep_rate_bounds():
    ledger = LossLedger({0: 1.0})
    for bad in (0.0, -0.5, 1.01):
        with pytest.raises(ValueError, match="keep_rate"):
            select_hardest(ledger, (0,), bad)


BAD_LOSSES = [(float("nan"), "non-finite"), (float("inf"), "non-finite"),
              (float("-inf"), "non-finite"), (-0.5, "negative")]


@pytest.mark.parametrize("store", ["setitem", "update"])
@pytest.mark.parametrize("bad, kind", BAD_LOSSES)
def test_select_hardest_checks_the_losses_it_reads(bad, kind, store):
    # a LossLedger is a dict: both stores skip record, so only the read can refuse the loss
    ledger = LossLedger({0: 1.0, 1: 2.0, 2: 3.0, 3: 0.5})
    if store == "setitem":
        ledger[2] = bad
    else:
        ledger.update({2: bad})
    with pytest.raises(ValueError, match=f"^{kind} loss {bad!r} for example 2$"):
        select_hardest(ledger, (0, 1, 2, 3), 0.5)


def _record(losses):
    LossLedger().record(np.arange(losses.size), losses)


def _select_hardest(losses):
    ledger = LossLedger()
    ledger.update(enumerate(losses.tolist()))
    select_hardest(ledger, range(losses.size), 0.5)


def _end_of_epoch(losses):
    state = SchedulerState(epoch=0, active_ids=np.arange(losses.size), population=losses.size)
    end_of_epoch(state, DarConfig(total_epochs=1, keep_rate=0.5), losses)


@pytest.mark.parametrize("entry", [_record, _select_hardest, _end_of_epoch, reweight])
@pytest.mark.parametrize("bad, kind", BAD_LOSSES)
def test_every_entry_point_refuses_a_bad_loss_with_one_message(entry, bad, kind):
    with pytest.raises(ValueError, match=f"^{kind} loss {bad!r} for example 1$"):
        entry(np.array([0.5, bad, -1.0, 2.0]))  # the first bad loss is named


def test_end_of_epoch_names_a_bad_loss_by_example_id_not_position():
    state = reach(TOY, 8, 4)  # epoch 3 dropped to ids 4..7
    with pytest.raises(ValueError, match="^negative loss -1.0 for example 5$"):
        end_of_epoch(state, TOY, np.array([1.0, -1.0, 1.0, 1.0]))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=60).flatmap(
           lambda n: st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n)),
       st.integers(min_value=1, max_value=100))
def test_a_drop_keeps_what_select_hardest_and_brute_force_keep(eighths, keep_cents):
    # one drop rule: end_of_epoch's drop, select_hardest and the exhaustive oracle agree;
    # losses in eighths from a small range tie often and add exactly
    rate, ids = keep_cents / 100.0, list(range(len(eighths)))
    losses = {i: e / 8.0 for i, e in zip(ids, eighths)}
    state = SchedulerState(epoch=0, active_ids=ids, population=len(ids))
    kept = tuple(end_of_epoch(state, DarConfig(total_epochs=1, keep_rate=rate),
                              np.array(list(losses.values())))[0].active_ids.tolist())
    assert kept == select_hardest(LossLedger(losses), ids, rate)
    if math.comb(len(ids), len(kept)) <= 5000:  # the oracle tries every subset
        assert kept == brute_force_hardest(losses, rate)


def test_ledger_records_latest_value():
    ledger = LossLedger()
    ledger.record(3, 1.0)
    ledger.record(3, 0.25)
    assert ledger == {3: 0.25}


def test_ledger_rejects_bad_losses():
    ledger = LossLedger()
    with pytest.raises(ValueError, match="negative"):
        ledger.record(0, -0.1)
    with pytest.raises(ValueError, match="non-finite"):
        ledger.record(0, float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        ledger.record(0, float("inf"))


def test_ledger_batch_record_latest_value_wins():
    ledger = LossLedger()
    ledger.record(np.array([4, 1, 7]), np.array([0.5, 1.5, 2.5]))
    ledger.record(np.array([7, 2]), np.array([0.25, 3.0]))
    assert ledger == {1: 1.5, 2: 3.0, 4: 0.5, 7: 0.25}


@pytest.mark.parametrize("bad, fragment", [
    (-0.5, "negative"), (float("nan"), "non-finite"),
    (float("inf"), "non-finite"), (float("-inf"), "non-finite"),
])
def test_ledger_batch_record_names_the_bad_example(bad, fragment):
    ledger = LossLedger()
    with pytest.raises(ValueError, match=f"^{fragment} loss .* for example 12$"):
        ledger.record(np.array([3, 12, 5]), np.array([0.1, bad, 0.2]))
    assert len(ledger) == 0


def test_end_of_epoch_keep_during_warmup():
    state = init(8)
    new_state, action = end_of_epoch(state, TOY, np.arange(8.0))
    assert action is ActionKind.KEEP
    assert new_state.epoch == 1 and new_state.active_ids is state.active_ids


def test_end_of_epoch_drop_keeps_hardest():
    state = reach(TOY, 8, 3)
    assert state.active_ids.tolist() == list(range(8))
    new_state, action = end_of_epoch(state, TOY, np.arange(8.0))
    assert action is ActionKind.DROP
    assert new_state.active_ids.tolist() == [4, 5, 6, 7]
    assert (new_state.epoch, new_state.population) == (3, 8)


def test_end_of_epoch_refresh_supersedes_drop():
    # epoch 4 is one interval after epoch 3's drop, inside an unbounded window
    cfg = DarConfig(total_epochs=8, warmup_epochs=2, interval_epochs=1,
                    keep_rate=0.5, refresh_epochs=(4,))
    state = reach(cfg, 8, 4)
    assert state.active_ids.tolist() == [4, 5, 6, 7]
    new_state, action = end_of_epoch(state, cfg, np.ones(4))
    assert action is ActionKind.REFRESH
    assert new_state.active_ids.tolist() == list(range(8))
    # the refresh starts a new cycle, whose drops resume one interval later
    assert [row.action for row in trace(cfg, 8)][4:6] == [ActionKind.DROP, ActionKind.DROP]


def test_end_of_epoch_closed_window_blocks_drop():
    # the cycle starts at warm-up end (2) with a 4-epoch window: epochs 3-5 drop, 6 may not
    closing = DarConfig(total_epochs=8, warmup_epochs=2, interval_epochs=1,
                        keep_rate=0.5, active_epochs=4)
    state = reach(closing, 16, 6)
    assert state.active_ids.tolist() == [14, 15]
    new_state, action = end_of_epoch(state, closing, np.array([1.0, 2.0]))
    assert action is ActionKind.KEEP
    assert new_state.active_ids is state.active_ids
    unbounded = dataclasses.replace(closing, active_epochs=None)
    new_state, action = end_of_epoch(reach(unbounded, 16, 6), unbounded, np.array([1.0, 2.0]))
    assert action is ActionKind.DROP and new_state.active_ids.tolist() == [15]


def test_noop_drop_reports_keep_but_advances_interval():
    cfg = DarConfig(total_epochs=6, warmup_epochs=1, interval_epochs=2, keep_rate=1.0)
    state = reach(cfg, 3, 3)
    new_state, action = end_of_epoch(state, cfg, np.array([0.1, 0.2, 0.3]))
    assert action is ActionKind.KEEP
    assert new_state.active_ids is state.active_ids
    # epoch 3 attempts a drop and becomes the last drop, so epoch 5 attempts the next one; as
    # a no-op drop leaves the pool as it is, every later attempt is a keep too
    assert [row.action.value for row in trace(cfg, 3)] == ["keep"] * 6


def test_end_of_epoch_rejects_a_pool_the_plan_does_not_have():
    # TOY trains epoch 3 on all 4 examples; a hand-made pool of 3 is not the plan's
    state = SchedulerState(epoch=2, active_ids=(0, 1, 2), population=4)
    with pytest.raises(ValueError,
                       match="^epoch 3 pool of 3, not the plan's 4$"):
        end_of_epoch(state, TOY, np.ones(3))
    with pytest.raises(ValueError, match="^2 losses for 3 active examples$"):
        end_of_epoch(state, TOY, np.ones(2))  # the losses are checked first


def test_end_of_epoch_rejects_anything_but_one_good_loss_per_active_id():
    state = reach(TOY, 3, 3)
    for losses, fragment in (([1.0, 1.0], "2 losses for 3 active examples"),
                             ([1.0, 1.0, 1.0, 1.0], "4 losses for 3 active examples"),
                             ([1.0, float("nan"), 1.0], "^non-finite loss nan for example 1$"),
                             ([1.0, -0.5, 1.0], "^negative loss -0.5 for example 1$"),
                             ([1.0, 1.0, float("inf")], "^non-finite loss inf for example 2$")):
        with pytest.raises(ValueError, match=fragment):
            end_of_epoch(state, TOY, np.array(losses))


def test_end_of_epoch_epoch_bounds():
    losses = np.zeros(8)
    assert end_of_epoch(init(8), TOY, losses)[0].epoch == 1  # init ends epoch 1
    done = reach(TOY, 8, 9)  # all of TOY's 8 epochs ended
    assert done.epoch == 8 and done.active_ids.tolist() == [7]
    with pytest.raises(ValueError, match="^epoch 9 exceeds total_epochs 8$"):
        end_of_epoch(done, TOY, np.zeros(1))
    with pytest.raises(ValueError, match="^epoch 21 exceeds total_epochs 8$"):
        end_of_epoch(SchedulerState(epoch=20, active_ids=np.arange(8), population=8), TOY,
                     losses)


def test_a_keep_advances_only_the_epoch():
    state = init(8)
    after, action = end_of_epoch(state, TOY, np.ones(8))
    assert action is ActionKind.KEEP
    assert after.epoch == state.epoch + 1
    assert after.active_ids is state.active_ids
    assert after.population == state.population
    assert state.epoch == 0


def test_active_ids_are_a_frozen_copy():
    ids = np.array([1, 3, 5])
    state = SchedulerState(epoch=0, active_ids=ids, population=8)
    with pytest.raises(ValueError, match="read-only"):
        state.active_ids[0] = 0
    ids[0] = 0
    assert state.active_ids.tolist() == [1, 3, 5]


def test_full_pools_are_int64_aranges():
    cfg = DarConfig(total_epochs=4, warmup_epochs=1, keep_rate=0.5, refresh_epochs=(3,))
    partial = reach(cfg, 8, 3)
    assert partial.active_ids.tolist() == [4, 5, 6, 7]
    refreshed, action = end_of_epoch(partial, cfg, np.array([1.0, 0.5, 2.0, 0.0]))
    assert action is ActionKind.REFRESH
    for state in (init(8), refreshed, uniform_policy(partial)[0]):
        assert state.active_ids.dtype == np.int64
        assert np.array_equal(state.active_ids, np.arange(8))
        assert not state.active_ids.flags.writeable


def test_state_validation():
    with pytest.raises(ValueError, match="ascending"):
        SchedulerState(epoch=0, active_ids=(1, 0), population=2)
    with pytest.raises(ValueError, match="outside"):
        SchedulerState(epoch=0, active_ids=(2,), population=2)


def test_toy_trace_matches_hand_computation():
    rows = trace(TOY, 8)
    assert [r.size for r in rows] == [8, 8, 8, 4, 2, 8, 4, 2]
    assert [r.action for r in rows] == [
        ActionKind.KEEP, ActionKind.KEEP, ActionKind.DROP, ActionKind.DROP,
        ActionKind.REFRESH, ActionKind.DROP, ActionKind.DROP, ActionKind.DROP,
    ]
    assert [r.epoch for r in rows] == list(range(1, 9))


def test_toy_planned_cost_exact():
    assert planned_cost(TOY, 8) == 0.6875


def test_imagenet_style_planned_cost_frozen():
    cfg = DarConfig(total_epochs=120, warmup_epochs=10, interval_epochs=2,
                    keep_rate=0.9, active_epochs=10, refresh_epochs=(30, 60, 90))
    assert planned_cost(cfg, 5000) == 0.73913


def test_trace_imagenet_default_at_full_scale_matches_oracle():
    cfg = DarConfig(total_epochs=120, warmup_epochs=10, interval_epochs=2,
                    keep_rate=0.9, active_epochs=10, refresh_epochs=(30, 60, 90))
    population = 1_281_167
    expected = simulate_schedule(120, 10, 2, 0.9, 10, {30, 60, 90}, population)
    assert [(r.size, r.action.value) for r in trace(cfg, population)] == expected


def test_trace_rejects_bad_population():
    with pytest.raises(ValueError, match="population"):
        trace(TOY, 0)


def test_trace_refuses_a_fractional_population():
    # unchecked, trace(TOY, 10.5) reports pools of 10.5 examples
    with pytest.raises(ValueError, match=r"^population must be an integer >= 1, got 10\.5$"):
        trace(TOY, 10.5)
    assert trace(TOY, np.int64(10))[0].size == 10


def test_trace_zero_window_never_drops():
    cfg = DarConfig(total_epochs=6, warmup_epochs=1, interval_epochs=1,
                    keep_rate=0.5, active_epochs=0)
    rows = trace(cfg, 5)
    assert all(r.size == 5 and r.action is ActionKind.KEEP for r in rows)


def test_trace_warmup_covering_run_never_drops():
    cfg = DarConfig(total_epochs=6, warmup_epochs=5, interval_epochs=3, keep_rate=0.5)
    rows = trace(cfg, 5)
    assert all(r.size == 5 and r.action is ActionKind.KEEP for r in rows)


def test_keep_rate_one_costs_full_price():
    cfg = DarConfig(total_epochs=10, warmup_epochs=1, interval_epochs=1,
                    keep_rate=1.0, refresh_epochs=(4, 8))
    rows = trace(cfg, 7)
    assert planned_cost(cfg, 7) == 1.0
    assert all(r.action in (ActionKind.KEEP, ActionKind.REFRESH) for r in rows)


def test_trace_csv_lines():
    lines = list(trace_csv_lines(trace(TOY, 8)))
    assert lines[0] == "epoch,size,action"
    assert lines[1] == "1,8,keep"
    assert lines[3] == "3,8,drop"
    assert lines[5] == "5,2,refresh"
    assert len(lines) == 9


def test_trace_sizes_ignore_loss_values():
    # sizes and actions are a function of the config alone, not the losses
    dummy = trace(TOY, 8)
    driven = drive(TOY, 8, lambda epoch, i: float((i * 7 + epoch * 3) % 5))
    assert [(r.size, r.action.value) for r in dummy] == \
        [(size, action.value) for size, action in driven]


@st.composite
def schedule_configs(draw):
    total = draw(st.integers(min_value=1, max_value=40))
    warmup = draw(st.integers(min_value=0, max_value=total - 1))
    interval = draw(st.integers(min_value=1, max_value=6))
    keep_cents = draw(st.integers(min_value=1, max_value=100))
    active = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=12)))
    candidates = list(range(warmup + 1, total + 1))
    refreshes = tuple(sorted(draw(st.sets(st.sampled_from(candidates), max_size=3))
                             )) if candidates else ()
    cfg = DarConfig(total_epochs=total, warmup_epochs=warmup, interval_epochs=interval,
                    keep_rate=keep_cents / 100.0, active_epochs=active,
                    refresh_epochs=refreshes)
    population = draw(st.integers(min_value=1, max_value=50))
    return cfg, population


@settings(max_examples=150, deadline=None)
@given(schedule_configs())
def test_trace_matches_straight_line_oracle(case):
    cfg, population = case
    expected = simulate_schedule(cfg.total_epochs, cfg.warmup_epochs,
                                 cfg.interval_epochs, cfg.keep_rate,
                                 cfg.active_epochs, set(cfg.refresh_epochs),
                                 population)
    assert [(r.size, r.action.value) for r in trace(cfg, population)] == expected


@settings(max_examples=150, deadline=None)
@given(schedule_configs())
def test_schedule_invariants(case):
    cfg, population = case
    rows = trace(cfg, population)
    cost = planned_cost(cfg, population)
    assert 0.0 < cost <= 1.0
    for row in rows:
        if row.epoch <= cfg.warmup_epochs:
            assert row.action is ActionKind.KEEP
        if row.action is ActionKind.REFRESH:
            assert row.epoch in cfg.refresh_epochs
    # sizes never grow except across a refresh boundary
    for prev, cur in zip(rows, rows[1:]):
        if prev.action is ActionKind.REFRESH:
            assert cur.size == population
        else:
            assert cur.size <= prev.size
    if cfg.keep_rate == 1.0:
        assert cost == 1.0


@settings(max_examples=80, deadline=None)
@given(schedule_configs(), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_driven_run_preserves_membership_invariants(case, loss_seed):
    cfg, population = case
    state = init(population)
    full = list(range(population))
    for epoch in range(1, cfg.total_epochs + 1):
        old = state
        ledger = LossLedger({
            i: float((i * 2654435761 + epoch * loss_seed) % 97) / 7.0
            for i in old.active_ids.tolist()})
        losses = np.array([ledger[i] for i in old.active_ids.tolist()])
        state, action = end_of_epoch(old, cfg, losses)
        ids = state.active_ids.tolist()
        if action is ActionKind.REFRESH:
            assert ids == full
        elif action is ActionKind.DROP:
            assert ids == list(select_hardest(ledger, old.active_ids, cfg.keep_rate))
            assert 0 < len(ids) < population + 1
        assert ids == sorted(set(ids))
        assert math.ceil(cfg.keep_rate * 1) >= 1  # pool can never empty
        assert len(state.active_ids) >= 1


def _ended(state, config):
    """Each ``(state, action)`` from ending ``state``'s epoch to the run's last, with losses a
    small hash of id and epoch (so they tie often)."""
    while state.epoch < config.total_epochs:
        losses = ((state.active_ids * 7 + state.epoch * 3) % 5) * 1.0
        state, action = end_of_epoch(state, config, losses)
        yield state, action


@settings(max_examples=60, deadline=None)
@given(schedule_configs())
def test_a_state_rebuilt_from_its_fields_at_any_epoch_boundary_continues_the_run(case):
    # a checkpoint of (epoch, active_ids, population) is enough: trace replans the counters
    cfg, population = case
    run = [(init(population), None), *_ended(init(population), cfg)]

    def rows(states):
        return [(state.epoch, state.active_ids.tolist(), action) for state, action in states]
    for boundary, (state, _) in enumerate(run):
        rebuilt = SchedulerState(state.epoch, state.active_ids.tolist(), state.population)
        assert rows(_ended(rebuilt, cfg)) == rows(run[boundary + 1:])


def test_each_epoch_applies_its_trace_row_and_a_keep_shares_its_pool():
    # on two examples TOY keeps in warm-up (epochs 1-2) and where a drop
    # would keep the one example left (epochs 4, 7, 8)
    state = init(2)
    kinds = []
    for row in trace(TOY, 2):
        old = state
        state, kind = end_of_epoch(old, TOY, old.active_ids % 3.0)
        assert (state.epoch, old.active_ids.size, kind) == (row.epoch, row.size, row.action)
        assert state.epoch == old.epoch + 1 and state.population == old.population
        assert (state.active_ids is old.active_ids) == (kind is ActionKind.KEEP)
        kinds.append(kind)
    assert [kind.value for kind in kinds] == ["keep", "keep", "drop", "keep", "refresh",
                                              "drop", "keep", "keep"]
