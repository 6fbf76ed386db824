"""A straight-line reference for one training run, checked against ``run_experiment_with_params``.

It takes from the package only what fixes a run's inputs: the data split (``load_dataset``),
the initial weights (``init_params``), the batch plan (``epoch_batches``), each batch's rows
with their augmentation (``make_batch`` keyed by ``epoch_seed``) and the schedule's plan of
actions (``trace``). The rest is written out here one example at a time: the forward pass,
softmax cross-entropy, backprop, weight decay, the learning-rate steps, momentum SGD, the
exactly rounded mean loss, the drop as a sort and reweight's weights from their formula. So the
package's batched loop is judged to rounding on any machine, without the golden hashes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dropfresh.config import ExperimentConfig
from dropfresh.datasets import epoch_batches, epoch_seed, make_batch
from dropfresh.harness import load_dataset
from dropfresh.model import init_params
from dropfresh.scheduler import ActionKind, trace

WEIGHT_FLOOR = 1e-3  # reweight's smallest weight, relative to the mean loss


@dataclass
class ReferenceRun:
    sizes: list[int]  # each epoch's pool size
    mean_losses: list[float]
    accuracies: list[float | None]
    flat: np.ndarray  # the final parameters, laid out as ``ParamSet.flat``


def _activations(weights: list, biases: list, x: np.ndarray) -> list[np.ndarray]:
    """One example's activations at each layer boundary: x, then ReLU layers, then the logits."""
    acts = [x]
    for layer, (w, b) in enumerate(zip(weights, biases)):
        z = w @ acts[-1] + b
        acts.append(z if layer == len(weights) - 1 else np.maximum(z, 0.0))
    return acts


def reference_run(cfg: ExperimentConfig) -> ReferenceRun:
    train, val = load_dataset(cfg.data, cfg.run_seed)
    init = init_params([train.dim, *cfg.hidden_layers, train.class_count], cfg.run_seed)
    weights, biases = [w.copy() for w in init.weights], [b.copy() for b in init.biases]
    params, hyper, depth = weights + biases, cfg.train, len(weights)
    velocity = [np.zeros_like(p) for p in params]
    pool, sample_weight = list(range(train.n)), [1.0] * train.n
    sizes, mean_losses, accuracies = [], [], []
    for row in trace(cfg.dar, train.n):
        passed = sum(1 for m in hyper.lr_milestones if m < row.epoch)
        lr = hyper.base_lr * hyper.lr_gamma ** passed
        key, loss_by_id = epoch_seed(cfg.run_seed, row.epoch), {}
        for ids in epoch_batches(pool, cfg.batch_size, cfg.run_seed, row.epoch):
            batch = make_batch(train, ids, cfg.data.augment, key)
            grads = [np.zeros_like(p) for p in params]
            for i, x, y in zip(ids.tolist(), batch.features, batch.labels.tolist()):
                acts = _activations(weights, biases, x)
                shifted = acts[-1] - acts[-1].max()
                exp = np.exp(shifted)
                total = exp.sum()
                loss_by_id[i] = max(math.log(total) - shifted[y], 0.0)
                delta = exp / total
                delta[y] -= 1.0
                delta *= sample_weight[i] / len(ids)
                for layer in reversed(range(depth)):
                    grads[layer] += np.outer(delta, acts[layer])
                    grads[depth + layer] += delta
                    delta = (weights[layer].T @ delta) * (acts[layer] > 0.0)
            for layer in range(depth):  # L2 on the weights, not the biases
                grads[layer] += hyper.weight_decay * weights[layer]
            for p, v, g in zip(params, velocity, grads):
                v *= hyper.momentum
                v += g
                p -= lr * v
        losses = [loss_by_id[i] for i in pool]
        sizes.append(len(pool))
        mean_losses.append(math.fsum(losses) / len(losses))
        accuracies.append(None if val is None else sum(
            int(np.argmax(_activations(weights, biases, x)[-1]) == y)
            for x, y in zip(val.features, val.labels.tolist())) / val.n)
        if row.action is ActionKind.DROP:  # the hardest, ties toward the smaller id
            keep = max(1, math.ceil(cfg.dar.keep_rate * len(pool)))
            pool = sorted(sorted(pool, key=lambda i: (-loss_by_id[i], i))[:keep])
        elif row.action is ActionKind.REFRESH:
            pool = list(range(train.n))
        if cfg.policy == "reweight":  # the pool is every id, in id order
            mean = math.fsum(losses) / len(losses)
            scaled = [max(x / mean, WEIGHT_FLOOR) if mean else 1.0 for x in losses]
            scaled_mean = math.fsum(scaled) / len(scaled)
            sample_weight = [s / scaled_mean for s in scaled]
    flat = np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])
    return ReferenceRun(sizes, mean_losses, accuracies, flat)
