"""Small dense classifier with analytic gradients and momentum SGD.

Everything is float64 and deterministic: initialization draws from a
seeded generator, and the loss/gradient reductions use numpy's fixed
pairwise summation, so identical inputs give bit-identical outputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

_INIT_STREAM = 0  # keeps init draws disjoint from the data-side streams


def _layer_views(flat: np.ndarray, layer_sizes: Sequence[int]) -> tuple[list, list]:
    """Per-layer weight and bias views of ``flat``, laid out W1, b1, W2, b2, ... (per run)."""
    weights, biases, offset, lead = [], [], 0, flat.shape[:-1]
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        weights.append(flat[..., offset:offset + fan_in * fan_out].reshape(*lead, fan_out, fan_in))
        offset += fan_in * fan_out
        biases.append(flat[..., offset:offset + fan_out])
        offset += fan_out
    return weights, biases


@dataclass(eq=False)
class ParamSet:
    """Per-layer weight matrices (fan_out, fan_in) and bias vectors (fan_out,), all views
    into one float64 vector ``flat`` laid out as ``model.bin`` is: W1 (row-major), b1, W2,
    b2, ... Building a ParamSet copies the arrays passed in, so it never aliases them; a
    ``view`` does not, and its ``flat`` may be ``(K, P)``: K runs stacked on a leading axis."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases):
            raise ValueError(
                f"{len(self.weights)} weight matrices vs {len(self.biases)} bias vectors")
        if not self.weights:
            raise ValueError("ParamSet needs at least one layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} incompatible with bias {b.shape}")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(
                    f"layer {i}: fan_in {w.shape[1]} != previous fan_out "
                    f"{self.weights[i - 1].shape[0]}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: non-finite parameter values")
        self.flat = np.concatenate([a.ravel() for pair in zip(self.weights, self.biases)
                                    for a in pair], dtype=np.float64)
        self.weights, self.biases = _layer_views(self.flat, self.layer_sizes)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[-1]] + [w.shape[-2] for w in self.weights]

    @classmethod
    def from_flat(cls, flat: np.ndarray, layer_sizes: list[int]) -> "ParamSet":
        """Checked copy of a vector laid out as ``flat`` is."""
        return cls(*_layer_views(np.asarray(flat), layer_sizes))

    def copy(self) -> "ParamSet":
        return ParamSet(self.weights, self.biases)

    @staticmethod
    def view(flat: np.ndarray, layer_sizes: list[int]) -> "ParamSet":
        """Unchecked layer views of ``flat`` itself, ``(P,)`` or ``(K, P)``; nothing is copied."""
        params = object.__new__(ParamSet)
        params.flat, (params.weights, params.biases) = flat, _layer_views(flat, layer_sizes)
        return params

    @staticmethod
    def zeros_like(other: "ParamSet") -> "ParamSet":
        return ParamSet.view(np.zeros(other.flat.shape), other.layer_sizes)  # zeros need no checks


def init_params(layer_sizes: list[int], seed: int) -> ParamSet:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)); zero biases."""
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise ValueError(f"layer_sizes needs >= 2 positive entries, got {layer_sizes}")
    rng = np.random.default_rng([int(seed), _INIT_STREAM])
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ParamSet(weights, biases)


@dataclass(frozen=True)
class TrainHyper:
    base_lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    lr_milestones: tuple[int, ...] = ()
    lr_gamma: float = 0.1

    def __post_init__(self) -> None:
        if self.base_lr <= 0.0:
            raise ValueError(f"base_lr must be > 0, got {self.base_lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < math.inf:  # NaN fails both
            kind = "finite" if self.weight_decay > 0 else ">= 0"
            raise ValueError(f"weight_decay must be {kind}, got {self.weight_decay}")
        if self.lr_gamma <= 0.0:
            raise ValueError(f"lr_gamma must be > 0, got {self.lr_gamma}")
        milestones = tuple(self.lr_milestones)
        if not all(isinstance(m, (int, np.integer)) and m > prev
                   for prev, m in zip((0,) + milestones, milestones)):
            raise ValueError(f"lr_milestones must be positive, strictly increasing integers, "
                             f"got {milestones}")
        object.__setattr__(self, "lr_milestones", tuple(map(int, milestones)))
        try:  # every rate lr_at can return
            rates = [self.base_lr * self.lr_gamma ** k for k in range(len(self.lr_milestones) + 1)]
        except OverflowError:
            rates = [math.inf]
        if not all(0.0 < rate < math.inf for rate in rates):
            raise ValueError("base_lr * lr_gamma**k must be finite and > 0 after every milestone")


def lr_at(hyper: TrainHyper, epoch: int) -> float:
    """Step decay: gamma applied once per milestone strictly before ``epoch``."""
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1, got {epoch}")
    passed = sum(1 for m in hyper.lr_milestones if m < epoch)
    return hyper.base_lr * hyper.lr_gamma ** passed


def _check_features(params: ParamSet, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D (batch, dim), got shape {features.shape}")
    fan_in = params.weights[0].shape[1]
    if features.shape[1] != fan_in:
        raise ValueError(f"feature dim {features.shape[1]} != model input dim {fan_in}")
    if features.shape[0] == 0:
        raise ValueError("empty batch")
    if not np.isfinite(features).all():
        raise ValueError("non-finite feature values")
    return features


def _forward_pass(params: ParamSet, features: np.ndarray,
                  stop: int | None = None) -> list[np.ndarray]:
    """Activations per layer boundary, of all layers or the first ``stop``; entry 0 is the input."""
    acts = [features]
    last = len(params.weights) - 1
    for i in range(last + 1)[:stop]:
        z = acts[-1] @ params.weights[i].swapaxes(-1, -2)
        z += params.biases[i][..., None, :]  # in place: ``x @ w.T + b``'s rounding, one array fewer
        acts.append(z if i == last else np.maximum(z, 0.0, out=z))
    return acts


def forward(params: ParamSet, features: np.ndarray) -> np.ndarray:
    """Logits for a batch; hidden layers are ReLU, the output layer is linear."""
    return _forward_pass(params, _check_features(params, features))[-1]


@dataclass(eq=False)
class BatchOutput:
    probabilities: np.ndarray
    per_example_loss: np.ndarray


def _check_labels(labels: np.ndarray, batch: int, classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise ValueError(f"labels shape {labels.shape} != ({batch},)")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError(f"labels must lie in [0, {classes})")
    return labels.astype(np.int64)


def _xent_core(logits: np.ndarray, pick: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Softmax and per-example cross-entropy from one max-shifted exponential; unchecked."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1)
    losses = np.log(total) - shifted[pick]
    e /= total[..., None]
    # log-sum-exp >= the picked logit, so clamp only absorbs rounding dust
    return e, np.maximum(losses, 0.0)


def softmax_xent(logits: np.ndarray, labels: np.ndarray) -> BatchOutput:
    """Checked cross-entropy and softmax; large logits stay finite."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    if not np.isfinite(logits).all():
        raise ValueError("non-finite logits")
    labels = _check_labels(labels, logits.shape[0], logits.shape[1])
    probabilities, losses = _xent_core(logits, (np.arange(len(labels)), labels))
    return BatchOutput(probabilities, losses)


def loss_and_gradients(params: ParamSet, features: np.ndarray, labels: np.ndarray,
                       weight_decay: float, sample_weights: np.ndarray | None,
                       out: ParamSet) -> np.ndarray:
    """Per-example losses, with ``backward``'s gradients written into ``out``, from one forward
    pass; K stacked runs (``flat`` and every argument lead with K) each get the bits of their
    own call. Arguments are not re-checked: ``backward`` checks them, and the harness takes them
    from a dataset and a weight vector that were checked when built."""
    acts = _forward_pass(params, features)
    if not np.isfinite(acts[-1]).all():
        raise ValueError("non-finite logits")
    *lead, batch = labels.shape  # lead: [] for one run, [K] for K stacked runs
    pick = (*[np.arange(k)[:, None] for k in lead], np.arange(batch), labels)  # label logits
    delta, losses = _xent_core(acts[-1], pick)
    delta[pick] -= 1.0
    if sample_weights is not None:
        delta *= sample_weights[..., None]
    delta /= batch
    for layer in range(len(params.weights) - 1, -1, -1):
        grad_w = np.matmul(delta.swapaxes(-1, -2), acts[layer], out=out.weights[layer])
        weights = params.weights[layer]
        if weights.ndim > 2:  # (K, fan_out * fan_in) row views: a 3-D view is far slower
            grad_w, weights = grad_w.reshape(len(grad_w), -1), weights.reshape(len(weights), -1)
        grad_w += weight_decay * weights
        np.add.reduce(delta, axis=-2, out=out.biases[layer])
        if layer > 0:
            delta = (delta @ params.weights[layer]) * (acts[layer] > 0.0)
    return losses


def backward(params: ParamSet, features: np.ndarray, labels: np.ndarray,
             weight_decay: float = 0.0,
             sample_weights: np.ndarray | None = None) -> ParamSet:
    """Gradients of mean (optionally weighted) cross-entropy plus L2 on weights, in a new ParamSet.

    The objective is ``(1/B) sum_i w_i * loss_i + (decay/2) * sum ||W||^2``;
    biases are not decayed.
    """
    features = _check_features(params, features)
    labels = _check_labels(labels, features.shape[0], params.weights[-1].shape[0])
    if not 0.0 <= weight_decay < math.inf:  # NaN fails both
        kind = "finite" if weight_decay > 0 else ">= 0"
        raise ValueError(f"weight_decay must be {kind}, got {weight_decay}")
    if sample_weights is not None:
        sample_weights = np.asarray(sample_weights, dtype=np.float64)
        if sample_weights.shape != features.shape[:1]:
            raise ValueError(f"sample_weights shape {sample_weights.shape} != ({len(features)},)")
        if not np.isfinite(sample_weights).all() or (sample_weights < 0).any():
            raise ValueError("sample_weights must be finite and >= 0")
    grads = ParamSet.zeros_like(params)
    loss_and_gradients(params, features, labels, weight_decay, sample_weights, grads)
    return grads


def sgd_step(params: ParamSet, grads: ParamSet, hyper: TrainHyper, epoch: int,
             velocity: ParamSet) -> None:
    """v <- m*v + g, then w <- w - lr(epoch)*v, both in place on ``flat``."""
    if [w.shape for w in grads.weights] != [w.shape for w in params.weights]:
        raise ValueError("gradient shapes do not match parameters")
    v = velocity.flat
    v *= hyper.momentum
    v += grads.flat
    params.flat -= lr_at(hyper, epoch) * v


def predict(params: ParamSet, features: np.ndarray) -> np.ndarray:
    """Argmax labels; ties resolve to the smallest class index."""
    return np.argmax(forward(params, features), axis=1)


def penultimate_features(params: ParamSet, features: np.ndarray) -> np.ndarray:
    """Last hidden activations, or the logits when there is no hidden layer."""
    stop = max(len(params.weights) - 1, 1)
    return _forward_pass(params, _check_features(params, features), stop)[-1]
