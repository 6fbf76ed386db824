import json
import math
import tracemalloc
import warnings

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dropfresh import datasets, harness
from dropfresh.config import build_experiment_config
from dropfresh.datasets import Dataset, load_idx
from dropfresh.harness import (CompareRow, HarnessError, compare, evaluate,
                               export_features, load_dataset, load_params,
                               metrics_lines, run_experiment,
                               run_experiment_with_params, save_params,
                               training_population, write_run_outputs)
from dropfresh.model import ParamSet, forward, init_params, penultimate_features
from dropfresh.scheduler import ActionKind, LossLedger, planned_cost, select_hardest
from helpers import bit_equal, example_ids, save_csv, subset


def small_values(**overrides):
    values = {
        "data.source": "synthetic",
        "synthetic.classes": "3",
        "synthetic.dim": "4",
        "synthetic.per_class": "40",
        "synthetic.mean_scale": "2.0",
        "synthetic.seed": "5",
        "data.val_fraction": "0.25",
        "train.total_epochs": "6",
        "train.base_lr": "0.2",
        "train.momentum": "0.9",
        "train.batch_size": "16",
        "run.seed": "3",
    }
    values.update(overrides)
    return values


def small_dar_values(**overrides):
    values = small_values(**{
        "policy": "dar",
        "dar.warmup_epochs": "1",
        "dar.interval_epochs": "1",
        "dar.keep_rate": "0.5",
        "dar.active_epochs": "3",
        "dar.refresh_epochs": "4",
    })
    values.update(overrides)
    return values


def test_load_dataset_split_is_disjoint_and_reindexed():
    cfg = build_experiment_config(small_values())
    train_set, val_set = load_dataset(cfg.data, cfg.run_seed)
    assert train_set.n == 90 and val_set.n == 30
    assert np.array_equal(example_ids(train_set), np.arange(90))
    train_rows = {tuple(row) for row in train_set.features}
    val_rows = {tuple(row) for row in val_set.features}
    assert not train_rows & val_rows
    # the split is keyed by the run seed
    other_train, _ = load_dataset(cfg.data, run_seed=99)
    assert not np.array_equal(train_set.features, other_train.features)


def test_load_dataset_no_validation():
    cfg = build_experiment_config(small_values(**{"data.val_fraction": "0"}))
    train_set, val_set = load_dataset(cfg.data, cfg.run_seed)
    assert val_set is None and train_set.n == 120


def test_load_dataset_explicit_val_csv(tmp_path):
    val = Dataset(np.ones((4, 4)), np.array([0, 1, 2, 0]), class_count=3)
    val_path = tmp_path / "val.csv"
    save_csv(val, val_path)
    cfg = build_experiment_config(small_values(**{
        "data.val_fraction": "0", "data.val_csv": str(val_path)}))
    train_set, val_set = load_dataset(cfg.data, cfg.run_seed)
    assert train_set.n == 120
    assert val_set.n == 4 and val_set.class_count == 3


def test_run_report_structure_and_cost():
    cfg = build_experiment_config(small_dar_values())
    report = run_experiment(cfg)
    assert [r.epoch for r in report.records] == [1, 2, 3, 4, 5, 6]
    assert report.final_validation_accuracy == report.records[-1].validation_accuracy
    used = [r.cumulative_examples_used for r in report.records]
    assert all(b > a for a, b in zip(used, used[1:]))
    assert report.realized_cost_ratio == used[-1] / (6 * 90)
    assert report.realized_cost_ratio == planned_cost(cfg.dar, 90)
    assert report.wall_clock_seconds > 0.0
    assert report.config["policy"] == "dar"


def test_dar_active_counts_follow_planned_trace():
    from dropfresh.scheduler import trace
    cfg = build_experiment_config(small_dar_values())
    report = run_experiment(cfg)
    planned = trace(cfg.dar, 90)
    assert [r.active_count for r in report.records] == [row.size for row in planned]
    assert [r.action for r in report.records] == [row.action.value for row in planned]


def test_mean_train_loss_matches_ledger_mean():
    # epoch records are self-consistent: each mean is over that epoch's pool
    cfg = build_experiment_config(small_dar_values())
    report = run_experiment(cfg)
    for record in report.records:
        assert record.mean_train_loss >= 0.0
        assert np.isfinite(record.mean_train_loss)


def test_rerun_is_byte_identical():
    cfg = build_experiment_config(small_dar_values())
    first = metrics_lines(run_experiment(cfg).records)
    second = metrics_lines(run_experiment(cfg).records)
    assert first == second


def test_seed_changes_the_run():
    base = run_experiment(build_experiment_config(small_dar_values()))
    moved = run_experiment(build_experiment_config(small_dar_values(**{"run.seed": "4"})))
    assert metrics_lines(base.records) != metrics_lines(moved.records)


def test_keep_rate_one_reduces_to_uniform_baseline():
    dar_cfg = build_experiment_config(small_dar_values(**{
        "dar.keep_rate": "1.0", "dar.refresh_epochs": ""}))
    uni_cfg = build_experiment_config(small_values(policy="uniform"))
    dar_lines = metrics_lines(run_experiment(dar_cfg).records)
    uni_lines = metrics_lines(run_experiment(uni_cfg).records)
    assert dar_lines == uni_lines
    assert all(json.loads(line)["action"] == "keep" for line in dar_lines)


def test_reweight_policy_touches_everything_but_trains_differently():
    uni = run_experiment(build_experiment_config(small_values(policy="uniform")))
    rew = run_experiment(build_experiment_config(small_values(policy="reweight")))
    assert rew.realized_cost_ratio == 1.0
    assert all(r.active_count == 90 for r in rew.records)
    # same first epoch (weights arrive afterwards), different later epochs
    assert rew.records[0].mean_train_loss == uni.records[0].mean_train_loss
    assert any(a.mean_train_loss != b.mean_train_loss
               for a, b in zip(rew.records[1:], uni.records[1:]))


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_loss_aborts_with_context(tmp_path):
    # two contradictory labels on one gigantic feature vector force the
    # weights (and then the logits) past the float64 range within two epochs
    path = tmp_path / "explosive.csv"
    rows = ["0,1e200,1.0", "1,1e200,1.0"] + [f"{i % 2},0.5,1.0" for i in range(6)]
    path.write_text("\n".join(rows) + "\n")
    cfg = build_experiment_config({
        "data.source": "csv", "data.csv": str(path),
        "train.total_epochs": "4", "train.base_lr": "0.5",
        "train.batch_size": "8",
    })
    with pytest.raises(HarnessError, match="epoch"):
        run_experiment(cfg)


def overflow_values(tmp_path):
    """One epoch, one batch: features of 1e200 and a learning rate of 1e300
    overflow on the only update, while the loss and gradients stay finite."""
    path = tmp_path / "overflow.csv"
    path.write_text("".join(f"{i % 2},1e200,1.0\n" for i in range(4)))
    return {"data.source": "csv", "data.csv": str(path), "train.total_epochs": "1",
            "train.base_lr": "1e300", "train.batch_size": "4"}


def test_overflowing_update_raises_harness_error(tmp_path):
    with pytest.raises(HarnessError, match="epoch 1, examples .*overflow"):
        run_experiment(build_experiment_config(overflow_values(tmp_path)))


def test_evaluate_accuracy():
    params = ParamSet([np.array([[1.0, 0.0], [0.0, 1.0]])], [np.zeros(2)])
    ds = Dataset(np.array([[2.0, 0.0], [0.0, 2.0], [3.0, 0.0], [0.0, 1.0]]),
                 np.array([0, 1, 1, 1]), class_count=2)
    assert evaluate(params, ds) == 0.75


def test_the_drop_gets_the_epochs_losses_in_pool_order(monkeypatch):
    batches, trained = [], {}  # the latest loss each id's batch returned
    calls = []  # (state, losses, the latest losses of its ids, new state, action)
    make_batch = harness.datasets.make_batch
    loss_and_gradients = harness.model.loss_and_gradients
    end_of_epoch = harness.scheduler.end_of_epoch

    def batch_spy(*args):
        batches.append(make_batch(*args))
        return batches[-1]

    def loss_spy(*args, **kwargs):
        out = loss_and_gradients(*args, **kwargs)
        trained.update(zip(batches[-1].ids.tolist(), out[0].tolist()))
        return out

    def spy(state, config, losses):
        latest = [trained[i] for i in state.active_ids.tolist()]
        calls.append((state, losses, latest, *end_of_epoch(state, config, losses)))
        return calls[-1][3:]

    monkeypatch.setattr(harness.datasets, "make_batch", batch_spy)
    monkeypatch.setattr(harness.model, "loss_and_gradients", loss_spy)
    monkeypatch.setattr(harness.scheduler, "end_of_epoch", spy)
    cfg = build_experiment_config(small_dar_values())
    report = run_experiment(cfg)
    assert len(calls) == len(report.records)
    for (state, losses, latest, new_state, action), record in zip(calls, report.records):
        active = state.active_ids
        assert losses.shape == active.shape and losses.tolist() == latest
        assert math.fsum(losses.tolist()) / losses.size == record.mean_train_loss
        if action is ActionKind.DROP:  # criterion 2's judged selection picks the same pool
            ledger = LossLedger(dict(zip(active.tolist(), losses.tolist())))
            assert tuple(new_state.active_ids.tolist()) == select_hardest(
                ledger, active, cfg.dar.keep_rate)
    assert any(action is ActionKind.DROP for *_, action in calls)


def test_save_params_writes_the_flat_vector(tmp_path):
    params = init_params([4, 6, 3], seed=1)
    path = tmp_path / "model.bin"
    save_params(params, path)
    assert path.read_bytes() == params.flat.astype("<f8").tobytes()
    loaded = load_params(path)
    assert loaded.flat.tobytes() == params.flat.tobytes()
    for arr in loaded.weights + loaded.biases:
        assert np.shares_memory(arr, loaded.flat)


def test_save_load_params_round_trip(tmp_path):
    params = init_params([4, 6, 3], seed=1)
    path = tmp_path / "model.bin"
    save_params(params, path)
    assert path.exists() and path.with_suffix(".json").exists()
    loaded = load_params(path)
    assert loaded.layer_sizes == [4, 6, 3]
    for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
        assert np.array_equal(a, b)
    meta = json.loads(path.with_suffix(".json").read_text())
    assert meta["value_count"] == 4 * 6 + 6 + 6 * 3 + 3


def test_load_params_errors(tmp_path):
    params = init_params([2, 2], seed=0)
    path = tmp_path / "model.bin"
    save_params(params, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(HarnessError, match="expected 6 doubles"):
        load_params(path)
    orphan = tmp_path / "orphan.bin"
    orphan.write_bytes(b"")
    with pytest.raises(HarnessError, match="sidecar"):
        load_params(orphan)


def test_load_params_names_a_model_file_that_is_not_whole_doubles(tmp_path):
    path = tmp_path / "model.bin"
    save_params(init_params([2, 2], seed=0), path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(HarnessError, match=r"model\.bin: expected 6 doubles \(48 bytes\) for "
                                           r"layer sizes \[2, 2\], found 47 bytes"):
        load_params(path)


def test_write_run_outputs(tmp_path):
    cfg = build_experiment_config(small_dar_values())
    report, params = run_experiment_with_params(cfg)
    paths = write_run_outputs(tmp_path / "run", report, params)
    lines = paths["metrics"].read_text().splitlines()
    assert len(lines) == 6
    first = json.loads(lines[0])
    assert first["epoch"] == 1 and first["active_count"] == 90
    payload = json.loads(paths["report"].read_text())
    assert payload["config"]["policy"] == "dar"
    assert payload["realized_cost_ratio"] == report.realized_cost_ratio
    assert load_params(paths["model"]).layer_sizes == [4, 3]


def test_compare_rows_and_validation():
    uni = build_experiment_config(small_values(policy="uniform"))
    dar = build_experiment_config(small_dar_values())
    rows = compare([uni, dar])
    assert [r.label for r in rows] == ["uniform", "dar"]
    assert rows[0].cost_ratio == 1.0
    assert rows[0].delta_accuracy == 0.0
    assert rows[1].cost_ratio < 1.0
    assert rows[1].delta_accuracy == pytest.approx(
        rows[1].final_accuracy - rows[0].final_accuracy)
    assert all(isinstance(r, CompareRow) for r in rows)


def test_compare_rejects_mismatched_runs():
    uni = build_experiment_config(small_values(policy="uniform"))
    other_seed = build_experiment_config(small_dar_values(**{"run.seed": "8"}))
    with pytest.raises(HarnessError, match="run_seed"):
        compare([uni, other_seed])
    with pytest.raises(HarnessError, match="at least two"):
        compare([uni])


def test_compare_rejects_runs_of_different_length():
    short = build_experiment_config(small_values(policy="uniform"))
    long = build_experiment_config(small_values(policy="uniform", **{"train.total_epochs": "9"}))
    assert long.total_epochs != short.total_epochs and long.train == short.train
    with pytest.raises(HarnessError, match="^config 2 differs from config 1 in total_epochs; "):
        compare([short, long])


def test_compare_disambiguates_duplicate_labels():
    a = build_experiment_config(small_dar_values())
    b = build_experiment_config(small_dar_values(**{"dar.keep_rate": "0.8"}))
    rows = compare([a, b])
    assert [r.label for r in rows] == ["dar-1", "dar-2"]


def test_export_features_csv(tmp_path):
    cfg = build_experiment_config(small_values(**{"model.hidden": "5"}))
    report, params = run_experiment_with_params(cfg)
    train_set, _ = load_dataset(cfg.data, cfg.run_seed)
    out = tmp_path / "features.csv"
    export_features(params, train_set, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "id,label," + ",".join(f"f{j}" for j in range(5))
    assert len(lines) == train_set.n + 1
    assert lines[1].split(",")[0] == "0"
    before = out.read_bytes()
    export_features(params, train_set, out)
    assert out.read_bytes() == before


def test_training_population_counts_post_split():
    cfg = build_experiment_config(small_values())
    assert training_population(cfg) == 90


def write_idx_pair(directory, name, count, height, width, seed):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(count, height, width), dtype=np.uint8)
    labels = rng.integers(0, 10, size=count, dtype=np.uint8)
    image_path, label_path = directory / f"{name}-images", directory / f"{name}-labels"
    image_path.write_bytes(b"".join(x.to_bytes(4, "big") for x in (0x803, count, height, width))
                           + images.tobytes())
    label_path.write_bytes(b"".join(x.to_bytes(4, "big") for x in (0x801, count))
                           + labels.tobytes())
    return image_path, label_path


def file_values(**overrides):
    """``small_values`` with a file source in place of the synthetic one."""
    kept = {k: v for k, v in small_values().items() if not k.startswith("synthetic.")}
    return {**kept, **overrides}


def idx_values(tmp_path, layout):
    image_path, label_path = write_idx_pair(tmp_path, "train", 25, 3, 4, seed=1)
    values = file_values(**{"data.source": "idx", "data.idx_images": str(image_path),
                            "data.idx_labels": str(label_path), "run.seed": "5"})
    values["data.val_fraction"] = "0.2" if layout == "val_fraction 0.2" else "0"
    if layout == "explicit validation":
        val_images, val_labels = write_idx_pair(tmp_path, "val", 7, 3, 4, seed=2)
        values.update({"data.val_idx_images": str(val_images),
                       "data.val_idx_labels": str(val_labels)})
    return values


def same_bytes(a, b):
    return ((a.features.tobytes(), a.labels.tobytes(), a.class_count, a.image_shape)
            == (b.features.tobytes(), b.labels.tobytes(), b.class_count, b.image_shape))


@pytest.mark.parametrize("layout", ["val_fraction 0.2", "val_fraction 0", "explicit validation"])
def test_load_dataset_idx_equals_subsets_of_load_idx(tmp_path, layout):
    cfg = build_experiment_config(idx_values(tmp_path, layout))
    train_set, val_set = load_dataset(cfg.data, cfg.run_seed)
    whole = load_idx(*cfg.data.paths)
    for split in (train_set, val_set, whole):  # uint8 pixels, no float64 matrix
        assert split is None or (split.pixels and split.stored.dtype == np.uint8)
    if layout == "val_fraction 0.2":
        order = np.random.default_rng([5, harness._SPLIT_STREAM]).permutation(25)
        assert same_bytes(train_set, subset(whole, np.sort(order[5:])))
        assert same_bytes(val_set, subset(whole, np.sort(order[:5])))
    else:
        assert same_bytes(train_set, subset(whole, np.arange(25)))
    if layout == "val_fraction 0":
        assert val_set is None
    if layout == "explicit validation":
        assert same_bytes(val_set, load_idx(*cfg.data.val_paths))


def csv_values(tmp_path):
    path = tmp_path / "data.csv"
    save_csv(Dataset(np.arange(66.0).reshape(22, 3), np.arange(22) % 3, class_count=3), path)
    return file_values(**{"data.source": "csv", "data.csv": str(path)})


@pytest.mark.parametrize("source", ["synthetic", "csv", "idx", "idx, explicit validation"])
def test_training_population_is_the_loaded_training_set_size(tmp_path, monkeypatch, source):
    if source == "synthetic":
        values = small_values()
    elif source == "csv":
        values = csv_values(tmp_path)
    else:
        values = idx_values(tmp_path, "explicit validation" if "explicit" in source
                            else "val_fraction 0.2")
    cfg = build_experiment_config(values)
    expected = load_dataset(cfg.data, cfg.run_seed)[0].n
    if source.startswith("idx"):  # counted from the headers: no pixel is read
        monkeypatch.setattr(datasets.IdxPair, "take", lambda *a: pytest.fail("pixels read"))
    assert training_population(cfg) == expected


def test_export_features_format_and_a_failed_export_keeps_the_old_file(tmp_path, monkeypatch):
    params = init_params([2, 3, 2], seed=4)
    ds = Dataset(np.array([[0.5, -1.0], [2.0, 0.25], [1.0, 1.0]]), np.array([1, 0, 1]),
                 class_count=2)
    out = tmp_path / "features.csv"
    export_features(params, ds, out)
    feats = penultimate_features(params, ds.features)
    expected = "id,label,f0,f1,f2\n" + "".join(
        f"{i},{label}," + ",".join(repr(float(x)) for x in row) + "\n"
        for i, (label, row) in enumerate(zip([1, 0, 1], feats)))
    assert out.read_text() == expected
    before = out.read_bytes()
    dumps, formatted = orjson.dumps, []

    def failing_dumps(row, **options):  # orjson formats each of these rows; fail on the second
        formatted.append(row)
        if len(formatted) > 1:
            raise RuntimeError("formatting failed")
        return dumps(row, **options)

    monkeypatch.setattr(orjson, "dumps", failing_dumps)
    with pytest.raises(RuntimeError, match="formatting failed"):
        export_features(params, ds, out)
    assert len(formatted) == 2 and out.read_bytes() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["features.csv"]  # no .tmp left


def test_evaluate_overflow_raises_instead_of_warning(tmp_path):
    # first-layer weights of 1e308 overflow in its matmul, which both evaluate and the
    # export (it stops at the hidden layer) run
    huge = ParamSet([np.full((3, 2), 1e308), np.full((2, 3), 1e300)],
                    [np.zeros(3), np.zeros(2)])
    ds = Dataset(np.ones((2, 2)), np.array([0, 1]), class_count=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="overflow"):
            evaluate(huge, ds)
        with pytest.raises(FloatingPointError, match="overflow"):
            export_features(huge, ds, tmp_path / "f.csv")


def test_validation_overflow_names_the_epoch(monkeypatch):
    def overflowing(params, dataset):
        raise FloatingPointError("overflow encountered in matmul")

    monkeypatch.setattr(harness, "evaluate", overflowing)
    with pytest.raises(HarnessError, match="epoch 1, validation: overflow"):
        run_experiment(build_experiment_config(small_values()))


def test_load_params_checks_dtype_and_value_count(tmp_path):
    path = tmp_path / "model.bin"
    save_params(init_params([2, 3, 2], seed=0), path)
    sidecar = path.with_suffix(".json")
    good = json.loads(sidecar.read_text())
    assert good["dtype"] == "<f8" and good["value_count"] == 17
    for change in ({"dtype": ">i4"}, {"value_count": 16}, {"value_count": 17.5},
                   {"value_count": [17]}):
        sidecar.write_text(json.dumps({**good, **change}))
        with pytest.raises(HarnessError, match="model.json.*dtype"):
            load_params(path)
    sidecar.write_text(json.dumps({"layer_sizes": [2, 3, 2]}))
    with pytest.raises(HarnessError, match="model.json"):
        load_params(path)


def pixel_and_float_sets(n, dim=784, seed=5):
    """The same uint8 images as a pixel dataset and as float64 ``u8 / 255.0``."""
    rng = np.random.default_rng(seed)
    u8 = rng.integers(0, 256, size=(n, dim), dtype=np.uint8)
    u8.flat[:256] = np.arange(256)  # every byte value occurs
    labels = rng.integers(0, 10, size=n)
    return Dataset(u8, labels, 10, pixels=True), Dataset(u8 / 255.0, labels, 10)


def test_evaluate_on_pixels_matches_float_data_bit_for_bit(monkeypatch):
    pixels, floats = pixel_and_float_sets(300)
    params = init_params([784, 32, 10], seed=2)
    predict, inputs = harness.model.predict, []

    def spy(params, features):  # the matrix evaluate predicts from
        inputs.append(features)
        return predict(params, features)

    monkeypatch.setattr(harness.model, "predict", spy)
    assert evaluate(params, pixels) == evaluate(params, floats)
    assert inputs[0].dtype == np.float64 and bit_equal(inputs[0], inputs[1])


@pytest.mark.parametrize("hidden", [[], [32], [32, 16]])
@pytest.mark.parametrize("n", [1, 255, 256, 257, 511, 512, 700, 1040])
def test_evaluate_in_row_blocks_matches_the_whole_matrix(monkeypatch, n, hidden):
    pixels, floats = pixel_and_float_sets(n)
    params = init_params([784, *hidden, 10], seed=n)
    whole = forward(params, floats.features)
    expected = float(np.mean(harness.model.predict(params, floats.features) == floats.labels))
    full = max(n // 256 - 1, 0)  # blocks of 256 rows before the last, which takes the rest
    predict, blocks = harness.model.predict, []

    def spy(params, features):  # the row blocks evaluate predicts from, in order
        blocks.append(features)
        return predict(params, features)

    monkeypatch.setattr(harness.model, "predict", spy)
    for ds in (pixels, floats):
        blocks.clear()
        assert evaluate(params, ds) == expected
        assert [len(b) for b in blocks] == [256] * full + [n - 256 * full]
        lo = 0
        for block in blocks:
            hi = lo + len(block)
            assert bit_equal(block, floats.features[lo:hi])
            assert forward(params, block).tobytes() == whole[lo:hi].tobytes()
            lo = hi


def test_evaluate_and_export_memory_is_set_by_the_row_block(tmp_path):
    # 12,000 images: their float64 rows alone are 75 MB, one 511-row block's 3.2 MB
    rng = np.random.default_rng(0)
    ds = Dataset(rng.integers(0, 256, size=(12_000, 784), dtype=np.uint8),
                 rng.integers(0, 10, size=12_000), 10, pixels=True)
    params = init_params([784, 128, 10], seed=0)
    for run in (lambda: evaluate(params, ds),
                lambda: export_features(params, ds, tmp_path / "features.csv")):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, peak


@pytest.mark.parametrize("hidden", [[], [32], [32, 16]])
@pytest.mark.parametrize("n", [1, 255, 256, 257, 511, 512, 700, 1040])
def test_export_features_in_row_blocks_matches_the_whole_matrix_product(tmp_path, n, hidden):
    # OpenBLAS takes another kernel for 784 -> 32 and 784 -> 10 products of a few dozen rows
    # than for the whole matrix, so 16-row blocks would change the bits; 256-row ones do not
    pixels, floats = pixel_and_float_sets(n)
    params = init_params([784, *hidden, 10], seed=n)
    feats = penultimate_features(params, floats.features)  # one whole-matrix product
    expected = "id,label," + ",".join(f"f{j}" for j in range(feats.shape[1])) + "\n" + "".join(
        f"{i},{label}," + ",".join(map(repr, row.tolist())) + "\n"
        for i, (label, row) in enumerate(zip(floats.labels.tolist(), feats)))
    for name, ds in (("pixels.csv", pixels), ("floats.csv", floats)):
        export_features(params, ds, tmp_path / name)
        matches = (tmp_path / name).read_text() == expected  # no diff of long texts on failure
        assert matches, name


def orjson_text(x):
    """How the export writes one value of an ordinary row."""
    return orjson.dumps(np.array([x]), option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.just(0.0), st.floats(1e-4, 1e16, exclude_max=True)), st.booleans())
@example(1e-4, False)
@example(float(np.nextafter(1e16, 0)), True)
@example(2.0 ** 53, False)
@example(0.1, False)
@example(0.0, True)  # -0.0
def test_orjson_writes_repr_text_for_zero_and_magnitudes_from_1e_4_below_1e16(size, negative):
    x = -size if negative else size
    assert orjson_text(x) == repr(x)


def test_export_features_sends_rows_with_other_magnitudes_through_repr(tmp_path, monkeypatch):
    # a one-layer identity model exports its input; each of the first four rows holds a value
    # that is not 0 and lies outside [1e-4, 1e16), and orjson writes three of them as 9.9e-5,
    # 1e16 and -2e16 where repr writes 9.9e-05, 1e+16 and -2e+16
    x = np.array([[0.5, 9.9e-5, 3.0], [5e-324, 1.0, 2.0], [1e16, 0.25, -1.5],
                  [-2e16, 1e-4, 7.0], [0.1, 2.0 ** 53, -0.0], [1.5, 0.0, 1e-4]])
    ds = Dataset(x, np.arange(6) % 2, class_count=2)
    params = ParamSet([np.eye(3)], [np.zeros(3)])
    feats = penultimate_features(params, x)
    expected = "id,label,f0,f1,f2\n" + "".join(
        f"{i},{label}," + ",".join(map(repr, row.tolist())) + "\n"
        for i, (label, row) in enumerate(zip(ds.labels.tolist(), feats)))
    assert sum(repr(v) != orjson_text(v) for v in feats[:4].ravel().tolist()) == 3
    dumps, dumped = orjson.dumps, []

    def spy(row, **options):
        dumped.append(row.tolist())
        return dumps(row, **options)

    monkeypatch.setattr(orjson, "dumps", spy)
    export_features(params, ds, tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_text() == expected
    assert dumped == feats[4:].tolist()  # only the rows of 0 and 1e-4 <= |x| < 1e16
