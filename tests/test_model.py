import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dropfresh.model import (BatchOutput, ParamSet, TrainHyper, backward, forward,
                             init_params, lr_at, penultimate_features, predict,
                             sgd_step, softmax_xent)
from dropfresh.model import loss_and_gradients
from dropfresh.baselines import WeightVector
from dropfresh.datasets import Batch, GaussianNoise, SyntheticSpec
from dropfresh.scheduler import init

import oracles


def single_layer(weights, biases):
    return ParamSet([np.asarray(weights, dtype=np.float64)],
                    [np.asarray(biases, dtype=np.float64)])


def test_init_params_shapes_and_range():
    params = init_params([4, 5, 3], seed=0)
    assert [w.shape for w in params.weights] == [(5, 4), (3, 5)]
    assert [b.shape for b in params.biases] == [(5,), (3,)]
    assert params.layer_sizes == [4, 5, 3]
    for w in params.weights:
        limit = math.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        assert np.abs(w).max() <= limit
    assert all(not b.any() for b in params.biases)


def test_init_params_seeded():
    a = init_params([3, 2], seed=7)
    b = init_params([3, 2], seed=7)
    c = init_params([3, 2], seed=8)
    assert np.array_equal(a.weights[0], b.weights[0])
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_params_validation():
    with pytest.raises(ValueError, match="layer_sizes"):
        init_params([4], seed=0)
    with pytest.raises(ValueError, match="layer_sizes"):
        init_params([4, 0], seed=0)


def test_param_set_validation():
    with pytest.raises(ValueError, match="incompatible"):
        ParamSet([np.zeros((2, 3))], [np.zeros(3)])
    with pytest.raises(ValueError, match="fan_in"):
        ParamSet([np.zeros((2, 3)), np.zeros((4, 3))], [np.zeros(2), np.zeros(4)])
    with pytest.raises(ValueError, match="non-finite"):
        ParamSet([np.full((1, 1), np.nan)], [np.zeros(1)])


def test_param_set_is_views_into_one_flat_copy():
    w1, b1 = np.arange(6.0).reshape(2, 3), np.array([10.0, 11.0])
    w2, b2 = np.arange(4.0).reshape(2, 2) + 20.0, np.array([30.0, 31.0])
    params = ParamSet([w1, w2], [b1, b2])
    assert params.flat.dtype == np.float64
    assert params.flat.tolist() == [*w1.ravel(), *b1, *w2.ravel(), *b2]
    for arr in params.weights + params.biases:
        assert np.shares_memory(arr, params.flat)
    for arr in (w1, b1, w2, b2):
        arr += 100.0
    assert params.flat.tolist() == [*(w1 - 100.0).ravel(), *(b1 - 100.0),
                                    *(w2 - 100.0).ravel(), *(b2 - 100.0)]
    params.flat[0] = -1.0
    assert params.weights[0][0, 0] == -1.0


def test_zeros_like_and_copy_own_their_flat():
    params = init_params([3, 4, 2], seed=0)
    for other in (ParamSet.zeros_like(params), params.copy()):
        assert other.layer_sizes == params.layer_sizes
        assert not np.shares_memory(other.flat, params.flat)
        for arr in other.weights + other.biases:
            assert np.shares_memory(arr, other.flat)
    assert not ParamSet.zeros_like(params).flat.any()
    assert params.copy().flat.tobytes() == params.flat.tobytes()


def test_forward_worked_example():
    params = single_layer([[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0])
    logits = forward(params, np.array([[1.0, 1.0]]))
    assert np.array_equal(logits, np.array([[3.0, 7.0]]))


def test_forward_with_bias_and_relu():
    params = ParamSet(
        [np.array([[1.0, -1.0]]), np.array([[2.0]])],
        [np.array([0.0]), np.array([1.0])])
    assert forward(params, np.array([[3.0, 1.0]]))[0, 0] == 5.0
    assert forward(params, np.array([[1.0, 3.0]]))[0, 0] == 1.0  # ReLU clamps


def test_forward_validation():
    params = single_layer([[1.0, 2.0]], [0.0])
    with pytest.raises(ValueError, match="2-D"):
        forward(params, np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="dim"):
        forward(params, np.zeros((1, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        forward(params, np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError, match="empty"):
        forward(params, np.zeros((0, 2)))


def test_softmax_xent_uniform_logits():
    out = softmax_xent(np.zeros((1, 2)), np.array([0]))
    assert out.per_example_loss[0] == pytest.approx(math.log(2.0), rel=1e-15)
    three_way = softmax_xent(np.full((1, 3), 4.2), np.array([2]))
    assert three_way.per_example_loss[0] == pytest.approx(math.log(3.0), rel=1e-15)


def test_softmax_xent_frozen_value():
    out = softmax_xent(np.array([[1.0, 0.0, 0.0]]), np.array([0]))
    expected = math.log(1.0 + 2.0 / math.e)  # 0.5514447139320511
    assert out.per_example_loss[0] == pytest.approx(expected, rel=1e-14)


def test_softmax_xent_shift_invariance():
    logits = np.array([[0.3, -1.2, 2.0], [5.0, 5.0, -5.0]])
    labels = np.array([2, 0])
    base = softmax_xent(logits, labels).per_example_loss
    shifted = softmax_xent(logits + 1000.0, labels).per_example_loss
    assert shifted == pytest.approx(base, rel=1e-9)


def test_softmax_xent_extreme_logits_stay_finite():
    out = softmax_xent(np.array([[1000.0, 0.0]]), np.array([1]))
    assert np.isfinite(out.per_example_loss).all()
    assert out.per_example_loss[0] == pytest.approx(1000.0)
    easy = softmax_xent(np.array([[1000.0, 0.0]]), np.array([0]))
    assert easy.per_example_loss[0] == 0.0


def test_softmax_xent_mean_is_mean():
    logits = np.array([[0.1, 0.9], [2.0, -2.0], [0.0, 0.0]])
    labels = [0, 1, 0]
    out = softmax_xent(logits, np.array(labels))
    expected = [math.log(sum(math.exp(v) for v in row)) - row[y]
                for row, y in zip(logits.tolist(), labels)]
    assert float(np.mean(out.per_example_loss)) == pytest.approx(math.fsum(expected) / 3,
                                                                 rel=1e-12)
    assert isinstance(out, BatchOutput)


def test_softmax_xent_label_validation():
    logits = np.zeros((2, 3))
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        softmax_xent(logits, np.array([0, 3]))
    with pytest.raises(ValueError, match="integers"):
        softmax_xent(logits, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="shape"):
        softmax_xent(logits, np.array([0]))


@settings(max_examples=80, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 5)),
                  elements=st.floats(-50, 50)),
       st.randoms(use_true_random=False))
def test_softmax_and_loss_properties(logits, rnd):
    labels = np.array([rnd.randrange(logits.shape[1]) for _ in range(logits.shape[0])])
    probs = softmax_xent(logits, labels).probabilities
    assert probs.sum(axis=1) == pytest.approx(np.ones(len(logits)), rel=1e-12)
    losses = softmax_xent(logits, labels).per_example_loss
    assert (losses >= 0.0).all()
    assert np.isfinite(losses).all()


def test_backward_matches_finite_differences_plain():
    rng = np.random.default_rng(11)
    params = ParamSet([rng.normal(size=(4, 3)), rng.normal(size=(2, 4))],
                      [rng.normal(size=4), rng.normal(size=2)])
    features = rng.normal(size=(5, 3))
    labels = rng.integers(0, 2, size=5)
    analytic = backward(params, features, labels)
    numeric = oracles.numeric_gradients(params, features, labels)
    assert oracles.max_relative_error(analytic, numeric) < 1e-6


def test_backward_matches_finite_differences_decay_and_weights():
    rng = np.random.default_rng(12)
    params = ParamSet([rng.normal(size=(3, 2))], [rng.normal(size=3)])
    features = rng.normal(size=(4, 2))
    labels = rng.integers(0, 3, size=4)
    sample_weights = rng.uniform(0.1, 2.0, size=4)
    analytic = backward(params, features, labels, weight_decay=0.05,
                        sample_weights=sample_weights)
    numeric = oracles.numeric_gradients(params, features, labels, weight_decay=0.05,
                                        sample_weights=sample_weights)
    assert oracles.max_relative_error(analytic, numeric) < 1e-6


def test_backward_duplicate_example_matches_single():
    rng = np.random.default_rng(13)
    params = ParamSet([rng.normal(size=(3, 4))], [rng.normal(size=3)])
    x = rng.normal(size=(1, 4))
    doubled = backward(params, np.vstack([x, x]), np.array([1, 1]))
    single = backward(params, x, np.array([1]))
    assert np.allclose(doubled.weights[0], single.weights[0], rtol=1e-12, atol=1e-15)
    assert np.allclose(doubled.biases[0], single.biases[0], rtol=1e-12, atol=1e-15)


def test_backward_weight_decay_skips_biases():
    rng = np.random.default_rng(14)
    params = ParamSet([rng.normal(size=(3, 2))], [rng.normal(size=3)])
    features = rng.normal(size=(4, 2))
    labels = rng.integers(0, 3, size=4)
    plain = backward(params, features, labels, weight_decay=0.0)
    decayed = backward(params, features, labels, weight_decay=0.5)
    assert np.array_equal(plain.biases[0], decayed.biases[0])
    assert np.allclose(decayed.weights[0] - plain.weights[0], 0.5 * params.weights[0])


def test_backward_sample_weight_validation():
    params = single_layer([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    features = np.ones((2, 2))
    labels = np.array([0, 1])
    with pytest.raises(ValueError, match="sample_weights"):
        backward(params, features, labels, sample_weights=np.ones(3))
    with pytest.raises(ValueError, match="sample_weights"):
        backward(params, features, labels, sample_weights=np.array([1.0, -1.0]))



def test_backward_label_validation():
    params = single_layer([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    features = np.ones((2, 2))
    with pytest.raises(ValueError, match="labels must lie"):
        backward(params, features, np.array([0, 2]))
    with pytest.raises(ValueError, match="labels must lie"):
        backward(params, features, np.array([-1, 0]))
    with pytest.raises(ValueError, match="integers"):
        backward(params, features, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="shape"):
        backward(params, features, np.array([0]))

def test_sgd_two_steps_frozen():
    # constant unit gradient, lr 1, momentum 0.9: positions 0 -> -1 -> -2.9
    params = single_layer([[0.0]], [0.0])
    grads = single_layer([[1.0]], [1.0])
    hyper = TrainHyper(base_lr=1.0, momentum=0.9)
    params, velocity = sgd_step(params, grads, hyper, epoch=1)
    assert params.weights[0][0, 0] == -1.0
    params, velocity = sgd_step(params, grads, hyper, epoch=1, velocity=velocity)
    assert params.weights[0][0, 0] == pytest.approx(-2.9, rel=1e-15)
    assert velocity.weights[0][0, 0] == pytest.approx(1.9, rel=1e-15)


def test_sgd_uses_epoch_lr():
    hyper = TrainHyper(base_lr=0.5, momentum=0.0, lr_milestones=(1,), lr_gamma=0.1)
    params = single_layer([[0.0]], [0.0])
    grads = single_layer([[1.0]], [0.0])
    after, _ = sgd_step(params, grads, hyper, epoch=2)
    assert after.weights[0][0, 0] == pytest.approx(-0.05, rel=1e-15)


def test_sgd_shape_mismatch():
    params = single_layer([[0.0]], [0.0])
    bad = single_layer([[0.0, 0.0]], [0.0])
    with pytest.raises(ValueError, match="shapes"):
        sgd_step(params, bad, TrainHyper(base_lr=1.0), epoch=1)


def test_train_hyper_validation():
    with pytest.raises(ValueError, match="base_lr"):
        TrainHyper(base_lr=0.0)
    with pytest.raises(ValueError, match="momentum"):
        TrainHyper(base_lr=0.1, momentum=1.0)
    with pytest.raises(ValueError, match="weight_decay"):
        TrainHyper(base_lr=0.1, weight_decay=-1e-4)
    with pytest.raises(ValueError, match="lr_milestones"):
        TrainHyper(base_lr=0.1, lr_milestones=(5, 5))
    with pytest.raises(ValueError, match="lr_gamma"):
        TrainHyper(base_lr=0.1, lr_gamma=0.0)


def test_train_hyper_refuses_a_fractional_milestone_rather_than_truncating_it():
    with pytest.raises(ValueError, match=r"^lr_milestones .*integers, got \(2\.9,\)$"):
        TrainHyper(0.1, lr_milestones=(2.9,))
    hyper = TrainHyper(0.1, lr_milestones=[np.int64(2), 3])  # numpy integers are integers
    assert hyper.lr_milestones == (2, 3) and all(type(m) is int for m in hyper.lr_milestones)


@pytest.mark.parametrize("build, message", [
    (lambda: GaussianNoise(math.nan), "sigma must be >= 0, got nan"),
    (lambda: SyntheticSpec(means=((0.0,), (1.0,)), stds=(1.0, math.nan), counts=(2, 2),
                           seed=0), r"stds must be >= 0, got \(1.0, nan\)"),
    (lambda: TrainHyper(base_lr=0.1, weight_decay=math.nan), "weight_decay must be >= 0, got nan"),
    (lambda: backward(init_params([2, 3, 2], seed=0), np.ones((2, 2)), np.array([0, 1]),
                      weight_decay=math.nan), "weight_decay must be >= 0, got nan"),
    (lambda: GaussianNoise(math.inf), "sigma must be finite, got inf"),
    (lambda: TrainHyper(0.1, weight_decay=math.inf), "weight_decay must be finite, got inf"),
    (lambda: backward(init_params([2, 3, 2], seed=0), np.ones((2, 2)), np.array([0, 1]),
                      weight_decay=math.inf), "weight_decay must be finite, got inf"),
], ids=["GaussianNoise", "SyntheticSpec", "TrainHyper", "backward", "GaussianNoise-inf",
        "TrainHyper-inf", "backward-inf"])
def test_api_range_checks_reject_nan(build, message):
    # NaN fails every comparison, so a `< 0` check would let it through; inf would train, then
    # give NaN updates at the first step
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("base_lr, gamma, milestones", [
    (1e-300, 1e200, (1, 2)),   # gamma**2 overflows although base_lr * gamma**2 is 1e100
    (1e300, 1e10, (4,)),       # the decayed rate overflows
    (1e-300, 1e-30, (2, 3)),   # the decayed rate underflows to zero
    (math.inf, 0.1, ()),
])
def test_train_hyper_rejects_rates_that_leave_the_floats(base_lr, gamma, milestones):
    with pytest.raises(ValueError, match="finite and > 0"):
        TrainHyper(base_lr=base_lr, lr_milestones=milestones, lr_gamma=gamma)


def test_lr_schedule():
    hyper = TrainHyper(base_lr=0.1, lr_milestones=(30, 60), lr_gamma=0.1)
    assert lr_at(hyper, 1) == 0.1
    assert lr_at(hyper, 30) == 0.1            # decays after the milestone epoch
    assert lr_at(hyper, 31) == pytest.approx(0.01, rel=1e-15)
    assert lr_at(hyper, 60) == pytest.approx(0.01, rel=1e-15)
    assert lr_at(hyper, 61) == pytest.approx(0.001, rel=1e-15)
    tiny = TrainHyper(base_lr=1e-300, lr_milestones=(1, 2), lr_gamma=1e100)  # in range
    assert lr_at(tiny, 3) == pytest.approx(1e-100, rel=1e-15)
    with pytest.raises(ValueError, match="epoch"):
        lr_at(hyper, 0)


def test_predict_breaks_ties_toward_first_class():
    params = single_layer([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0])
    assert predict(params, np.ones((3, 2))).tolist() == [0, 0, 0]


def test_penultimate_features():
    rng = np.random.default_rng(15)
    params = ParamSet([rng.normal(size=(4, 3)), rng.normal(size=(2, 4))],
                      [np.zeros(4), np.zeros(2)])
    feats = rng.normal(size=(6, 3))
    embedded = penultimate_features(params, feats)
    assert embedded.shape == (6, 4)
    assert (embedded >= 0.0).all()  # ReLU output
    shallow = single_layer(rng.normal(size=(2, 3)), np.zeros(2))
    assert np.array_equal(penultimate_features(shallow, feats), forward(shallow, feats))


@pytest.mark.parametrize("hidden", [(), (5,), (5, 4)])
def test_forward_and_penultimate_match_a_straight_line_chain_bit_for_bit(hidden):
    # the forward pass adds the bias and applies ReLU in place; the bits must not move
    rng = np.random.default_rng(len(hidden))
    sizes = [6, *hidden, 3]
    params = ParamSet([rng.normal(size=(fo, fi)) for fi, fo in zip(sizes, sizes[1:])],
                      [rng.normal(size=fo) for fo in sizes[1:]])
    feats = rng.normal(size=(9, 6))
    acts = [feats]
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w.T + b
        acts.append(z if i == len(hidden) else np.maximum(z, 0.0))
    assert forward(params, feats).tobytes() == acts[-1].tobytes()
    assert penultimate_features(params, feats).tobytes() == acts[-2 if hidden else -1].tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_fused_step_matches_separate_calls_bit_for_bit(seed):
    rng = np.random.default_rng([seed, 77])
    depth = 1 + seed % 3  # 1 is no hidden layer
    sizes = [int(rng.integers(1, 9)) for _ in range(depth)] + [int(rng.integers(2, 6))]
    params = ParamSet([rng.normal(size=(fan_out, fan_in))
                       for fan_in, fan_out in zip(sizes, sizes[1:])],
                      [rng.normal(size=fan_out) for fan_out in sizes[1:]])
    batch = int(rng.integers(1, 10))
    features = rng.normal(size=(batch, sizes[0]))
    labels = rng.integers(0, sizes[-1], size=batch)
    decay = 0.0 if seed % 2 else 0.01
    sample_weights = rng.uniform(0.1, 3.0, size=batch) if seed % 4 < 2 else None

    losses, grads = loss_and_gradients(params, features, labels, decay, sample_weights)
    expected = softmax_xent(forward(params, features), labels).per_example_loss
    assert losses.tobytes() == expected.tobytes()
    separate = backward(params, features, labels, weight_decay=decay,
                        sample_weights=sample_weights)
    for got, want in zip(grads.weights + grads.biases, separate.weights + separate.biases):
        assert got.tobytes() == want.tobytes()

    hyper = TrainHyper(base_lr=0.3, momentum=0.9)
    velocity = ParamSet([rng.normal(size=w.shape) for w in params.weights],
                        [rng.normal(size=b.shape) for b in params.biases])
    before_p, before_v = params.copy(), velocity.copy()
    new_p, new_v = sgd_step(params, grads, hyper, epoch=1, velocity=velocity)
    assert new_p is params and new_v is velocity
    for w, v, w0, v0, g in zip(params.weights + params.biases,
                               velocity.weights + velocity.biases,
                               before_p.weights + before_p.biases,
                               before_v.weights + before_v.biases,
                               grads.weights + grads.biases):
        assert v.tobytes() == (0.9 * v0 + g).tobytes()
        assert w.tobytes() == (w0 - 0.3 * (0.9 * v0 + g)).tobytes()


@pytest.mark.parametrize("decay, weighted", [(0.0, False), (0.01, True)])
def test_loss_and_gradients_writes_into_out(decay, weighted):
    rng = np.random.default_rng(5)
    params = init_params([4, 6, 3], seed=2)
    features = rng.normal(size=(7, 4))
    labels = rng.integers(0, 3, size=7)
    sample_weights = rng.uniform(0.5, 2.0, size=7) if weighted else None
    fresh_losses, fresh = loss_and_gradients(params, features, labels, decay, sample_weights)
    out = ParamSet.zeros_like(params)
    out.flat[:] = np.nan  # every entry must be overwritten
    losses, grads = loss_and_gradients(params, features, labels, decay, sample_weights,
                                       out=out)
    assert grads is out
    assert losses.tobytes() == fresh_losses.tobytes()
    assert grads.flat.tobytes() == fresh.flat.tobytes()


@pytest.mark.parametrize("make, twin", [
    (lambda: init_params([3, 2], seed=0), lambda p: p.copy()),
    (lambda: Batch(np.arange(2), np.zeros((2, 3)), np.zeros(2, dtype=np.int64)),
     lambda b: Batch(b.ids.copy(), b.features.copy(), b.labels.copy())),
    (lambda: softmax_xent(np.zeros((2, 3)), np.array([0, 1])),
     lambda o: BatchOutput(o.probabilities.copy(), o.per_example_loss.copy())),
    (lambda: init(4), lambda s: init(4)),
    (lambda: WeightVector(np.ones(3)), lambda w: WeightVector(w.values.copy())),
], ids=["ParamSet", "Batch", "BatchOutput", "SchedulerState", "WeightVector"])
def test_array_holders_compare_by_identity(make, twin):
    # a generated field-wise == would ask numpy arrays for one truth value and raise
    x = make()
    hash(x)
    assert x == x
    assert not x == twin(x) and x != twin(x)
