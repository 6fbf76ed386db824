"""The training loop against the straight-line reference in ``reference_run.py``.

Pool sizes and validation accuracies must match exactly; per-epoch mean losses and the final
``params.flat`` to a relative 1e-12, far above rounding and far below any change to what the
loop computes. Nothing here reads ``golden.json``, so it judges the loop on any machine; the
mutated loops at the end show that it bites.
"""
from __future__ import annotations

import numpy as np
import pytest

from dropfresh import harness, model
from dropfresh.config import apply_preset, build_experiment_config
from dropfresh.harness import run_experiment_with_params
from reference_run import reference_run
from test_golden import idx_flip_values

RTOL = 1e-12


def synthetic_values(policy: str) -> dict:
    """3 classes in 4-d, 72 training examples of 90, 5 hidden units, 8 epochs."""
    values = {
        "data.source": "synthetic", "synthetic.classes": "3", "synthetic.dim": "4",
        "synthetic.per_class": "30", "synthetic.mean_scale": "2.0", "synthetic.seed": "5",
        "data.val_fraction": "0.2", "model.hidden": "5", "train.total_epochs": "8",
        "train.base_lr": "0.2", "train.momentum": "0.9", "train.weight_decay": "0.001",
        "train.lr_milestones": "4,6", "train.batch_size": "16", "run.seed": "3",
        "policy": policy}
    if policy == "dar":
        values.update({"dar.warmup_epochs": "2", "dar.interval_epochs": "2",
                       "dar.keep_rate": "0.7", "dar.active_epochs": "4",
                       "dar.refresh_epochs": "6"})
    return values


def idx_flip_dropped(work) -> dict:
    """The golden IDX flip run at 10 epochs, where desk-default dar trains epochs 9-10 on a
    dropped pool (at the golden 8 it never drops)."""
    values = apply_preset({**idx_flip_values(work), "train.total_epochs": "10"}, "desk-default")
    return {key: str(value) for key, value in values.items()}


CASES = {  # config values, and the pool sizes they train
    "uniform": (lambda work: synthetic_values("uniform"), [72] * 8),
    "reweight": (lambda work: synthetic_values("reweight"), [72] * 8),
    "dar": (lambda work: synthetic_values("dar"), [72, 72, 72, 72, 51, 51, 72, 72]),
    "idx flips, dropped pool": (idx_flip_dropped, [240] * 8 + [168] * 2),
}


def relative_error(got, want) -> float:
    """The largest difference, relative to the largest magnitude in ``want``."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return float(np.abs(got - want).max() / np.abs(want).max())


def assert_matches_reference(cfg) -> None:
    report, params = run_experiment_with_params(cfg)
    ref = reference_run(cfg)
    assert [r.active_count for r in report.records] == ref.sizes
    assert [r.validation_accuracy for r in report.records] == ref.accuracies
    assert relative_error([r.mean_train_loss for r in report.records], ref.mean_losses) <= RTOL
    assert relative_error(params.flat, ref.flat) <= RTOL


@pytest.mark.parametrize("case", CASES)
def test_the_loop_matches_the_straight_line_reference(tmp_path, case):
    values, sizes = CASES[case]
    cfg = build_experiment_config(values(tmp_path))
    assert reference_run(cfg).sizes == sizes
    assert_matches_reference(cfg)


def _bias_decay(patch):  # weight decay also on the biases
    loss_and_gradients = model.loss_and_gradients

    def decayed(params, features, labels, weight_decay, sample_weights, out):
        losses = loss_and_gradients(params, features, labels, weight_decay, sample_weights, out)
        for grad, bias in zip(out.biases, params.biases):
            grad += weight_decay * bias
        return losses
    patch.setattr(model, "loss_and_gradients", decayed)


def _milestone_early(patch):  # a milestone's decay counted from its own epoch
    patch.setattr(model, "lr_at", lambda hyper, epoch: hyper.base_lr * hyper.lr_gamma ** sum(
        1 for m in hyper.lr_milestones if m <= epoch))


def _losses_reversed(patch):  # the drop fed the epoch's losses back to front
    end_of_epoch = harness.scheduler.end_of_epoch
    patch.setattr(harness.scheduler, "end_of_epoch",
                  lambda state, config, losses: end_of_epoch(state, config, losses[::-1]))


@pytest.mark.parametrize("mutate", [_milestone_early, _bias_decay, _losses_reversed])
def test_a_mutated_loop_fails_the_reference(monkeypatch, mutate):
    cfg = build_experiment_config(synthetic_values("dar"))
    mutate(monkeypatch)
    with pytest.raises(AssertionError):
        assert_matches_reference(cfg)
