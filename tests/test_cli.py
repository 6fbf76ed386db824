import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dropfresh
from dropfresh import config, datasets, harness, scheduler
from dropfresh.cli import main
from dropfresh.datasets import load_csv, load_idx
from dropfresh.harness import export_features, save_params
from dropfresh.model import ParamSet, init_params
from dropfresh.scheduler import DarConfig, planned_cost, trace, trace_csv_lines

TOY_VALUES = {
    "data.source": "synthetic",
    "synthetic.classes": "2",
    "synthetic.dim": "2",
    "synthetic.per_class": "4",
    "synthetic.seed": "3",
    "train.total_epochs": "8",
    "train.base_lr": "0.1",
    "train.batch_size": "4",
    "policy": "dar",
    "dar.warmup_epochs": "2",
    "dar.interval_epochs": "1",
    "dar.keep_rate": "0.5",
    "dar.active_epochs": "4",
    "dar.refresh_epochs": "5",
    "run.seed": "1",
}


def run_values(**overrides):
    values = {
        "data.source": "synthetic",
        "synthetic.classes": "3",
        "synthetic.dim": "4",
        "synthetic.per_class": "30",
        "synthetic.mean_scale": "2.0",
        "data.val_fraction": "0.2",
        "train.total_epochs": "5",
        "train.base_lr": "0.2",
        "train.batch_size": "16",
        "policy": "uniform",
        "run.seed": "2",
    }
    values.update(overrides)
    return values


def test_cost_toy_schedule(write_config, capsys):
    path = write_config(TOY_VALUES)
    assert main(["cost", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "epoch,size,action"
    assert lines[1:9] == ["1,8,keep", "2,8,keep", "3,8,drop", "4,4,drop",
                          "5,2,refresh", "6,8,drop", "7,4,drop", "8,2,drop"]
    assert lines[-1] == "0.6875"


@pytest.mark.parametrize("preset,epochs,policy", [  # ids name the policy unless it is dar
    pytest.param(preset, epochs, policy,
                 id=f"{preset}-{epochs}" + ("" if policy == "dar" else f"-{policy}"))
    for policy in ("dar", "uniform", "reweight") for preset in ("desk-default", "imagenet-default")
    for epochs in (4, 10, 20)])
def test_cost_prints_the_rows_train_runs(write_config, capsys, tmp_path, preset, epochs,
                                         policy):
    path = write_config({**run_values(**{"train.total_epochs": str(epochs)}),
                         "synthetic.classes": "2", "synthetic.dim": "2",
                         "synthetic.per_class": "10", "policy": policy})
    assert main(["cost", "--config", str(path), "--preset", preset]) == 0
    *planned, ratio = capsys.readouterr().out.splitlines()[1:]
    assert main(["train", "--config", str(path), "--preset", preset,
                 "--out", str(tmp_path / "run")]) == 0
    records = map(json.loads, (tmp_path / "run" / "metrics.jsonl").read_text().splitlines())
    assert planned == [f"{r['epoch']},{r['active_count']},{r['action']}" for r in records]
    assert len(planned) == epochs
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert ratio == repr(report["realized_cost_ratio"])


def test_cost_counts_synthetic_rows_without_generating_them(write_config, capsys,
                                                            monkeypatch):
    values = config.apply_preset(run_values(**{"synthetic.per_class": "30,31,29",
                                               "train.total_epochs": "12", "policy": "dar"}),
                                 "imagenet-default")
    cfg = config.build_experiment_config(values)
    population = harness.load_dataset(cfg.data, cfg.run_seed)[0].n  # generated and split
    assert population == 90 - math.floor(0.2 * 90)
    expected = [*trace_csv_lines(trace(cfg.dar, population)),
                repr(planned_cost(cfg.dar, population))]

    def refuse(spec):
        raise AssertionError("cost generated the synthetic data")
    monkeypatch.setattr(harness, "gen_gaussian", refuse)
    monkeypatch.setattr(datasets, "gen_gaussian", refuse)
    assert main(["cost", "--config", str(write_config(values))]) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_cost_plans_the_schedule_once(write_config, capsys, monkeypatch):
    values = config.apply_preset(run_values(**{"train.total_epochs": "12", "policy": "dar"}),
                                 "imagenet-default")
    cfg = config.build_experiment_config(values)
    population = harness.training_population(cfg)
    expected = [*trace_csv_lines(trace(cfg.dar, population)),
                repr(planned_cost(cfg.dar, population))]
    calls = []

    def counted(*args):
        calls.append(args)
        return trace(*args)
    monkeypatch.setattr(scheduler, "trace", counted)
    assert main(["cost", "--config", str(write_config(values))]) == 0
    assert capsys.readouterr().out.splitlines() == expected
    assert len(calls) == 1


def test_cost_respects_preset_and_overrides(write_config, capsys):
    path = write_config(run_values(**{"train.total_epochs": "20", "policy": "dar"}))
    assert main(["cost", "--config", str(path), "--preset", "desk-default",
                 "--set", "dar.keep_rate=0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    expected = planned_cost(DarConfig(
        total_epochs=20, warmup_epochs=4, interval_epochs=2, keep_rate=0.5,
        active_epochs=4, refresh_epochs=(5, 10, 15)), 72)
    assert lines[-1] == repr(expected)


@pytest.mark.parametrize("epochs", [40, 8])
def test_a_preset_is_scaled_to_the_epochs_set_on_the_command_line(write_config, capsys,
                                                                 epochs):
    # scaled to the file's 20 epochs, a 40-epoch run refreshed at 5, 10, 15 and then idled
    # for 23 epochs, and an 8-epoch one failed on a refresh at 10 the user never set
    values = run_values(**{"train.total_epochs": "20", "policy": "dar"})
    assert main(["cost", "--config", str(write_config(values)), "--preset", "desk-default",
                 "--set", f"train.total_epochs={epochs}"]) == 0
    overridden = capsys.readouterr().out
    values["train.total_epochs"] = str(epochs)
    assert main(["cost", "--config", str(write_config(values)),
                 "--preset", "desk-default"]) == 0
    assert overridden == capsys.readouterr().out
    assert overridden.count("\n") == epochs + 2 and "refresh" in overridden


def idx_bytes(magic, dims, payload):
    return (b"".join(x.to_bytes(4, "big") for x in (magic, *dims))
            + np.asarray(payload, dtype=np.uint8).tobytes())


IDX_FAULTS = [("bad magic", "BadMagicError", "magic 0x00000801"),
              ("short header", "TruncatedPayloadError", "16-byte header"),
              ("truncated payload", "TruncatedPayloadError", "expected 120 payload bytes"),
              ("count mismatch", "CountMismatchError", "holds 9 labels"),
              ("label out of range", "DatasetError", "labels must lie in [0, 3)"),
              ("validation image size", "HarnessError", "validation feature dim 16")]


@pytest.mark.parametrize("fault, error, words", IDX_FAULTS, ids=[f[0] for f in IDX_FAULTS])
def test_cost_rejects_broken_idx_data_with_one_json_line(write_config, tmp_path, capsys,
                                                         fault, error, words):
    images, labels = tmp_path / "images", tmp_path / "labels"
    pixels, classes = np.arange(120) % 256, np.arange(10) % 3
    images.write_bytes(idx_bytes(0x803, (10, 3, 4), pixels))
    labels.write_bytes(idx_bytes(0x801, (10,), classes))
    values = {"data.source": "idx", "data.idx_images": images, "data.idx_labels": labels,
              "data.class_count": "3", "data.val_fraction": "0.2",
              "train.total_epochs": "8", "train.base_lr": "0.1", "policy": "dar"}
    assert main(["cost", "--config", str(write_config(values)),
                 "--preset", "desk-default"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == repr(planned_cost(
        DarConfig(8, 2, 2, 0.7, 4, (4, 6)), 8))  # 10 images, 2 held out
    if fault == "bad magic":
        images.write_bytes(labels.read_bytes())
    elif fault == "short header":
        images.write_bytes(images.read_bytes()[:10])
    elif fault == "truncated payload":
        images.write_bytes(images.read_bytes()[:-1])
    elif fault == "count mismatch":
        labels.write_bytes(idx_bytes(0x801, (9,), classes[:9]))
    elif fault == "label out of range":
        labels.write_bytes(idx_bytes(0x801, (10,), [0, 1, 2, 3, 0, 1, 2, 0, 1, 2]))
    else:
        val_images, val_labels = tmp_path / "val-images", tmp_path / "val-labels"
        val_images.write_bytes(idx_bytes(0x803, (2, 4, 4), range(32)))
        val_labels.write_bytes(idx_bytes(0x801, (2,), [0, 1]))
        values.update({"data.val_fraction": "0", "data.val_idx_images": val_images,
                       "data.val_idx_labels": val_labels})
    assert main(["cost", "--config", str(write_config(values)),
                 "--preset", "desk-default"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == error and words in payload["message"]


def test_train_writes_run_directory(write_config, tmp_path, capsys):
    path = write_config(run_values())
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "final_val_acc=" in stdout and "realized_cost=1.0" in stdout
    assert (out_dir / "metrics.jsonl").exists()
    assert (out_dir / "report.json").exists()
    assert (out_dir / "model.bin").exists()
    assert (out_dir / "model.json").exists()
    record = json.loads((out_dir / "metrics.jsonl").read_text().splitlines()[0])
    assert record["epoch"] == 1


@pytest.mark.parametrize("out", ["file", "file/run"])
def test_train_refuses_an_out_path_that_cannot_be_a_directory_before_any_run(
        write_config, tmp_path, capsys, monkeypatch, out):
    def no_run(cfg):
        raise AssertionError("trained before the output directory was made")
    monkeypatch.setattr("dropfresh.cli.run_experiment_with_params", no_run)
    (tmp_path / "file").write_text("")
    path = write_config(run_values())
    assert main(["train", "--config", str(path), "--out", str(tmp_path / out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1, captured.err
    payload = json.loads(captured.err)
    assert payload["error"] in ("FileExistsError", "NotADirectoryError"), payload
    assert str(tmp_path / "file") in payload["message"], payload


def test_train_rerun_is_byte_identical(write_config, tmp_path):
    path = write_config(run_values())
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(path), "--out", str(first)]) == 0
    assert main(["train", "--config", str(path), "--out", str(second)]) == 0
    assert (first / "metrics.jsonl").read_bytes() == \
        (second / "metrics.jsonl").read_bytes()


def test_train_seed_flag_overrides_config(write_config, tmp_path):
    path = write_config(run_values())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(path), "--seed", "2", "--out", str(a)]) == 0
    assert main(["train", "--config", str(path), "--seed", "7", "--out", str(b)]) == 0
    assert (a / "metrics.jsonl").read_bytes() != (b / "metrics.jsonl").read_bytes()


def test_cost_rejects_an_idx_pair_of_no_images_with_one_json_line(write_config, tmp_path,
                                                                  capsys):
    images, labels = tmp_path / "images", tmp_path / "labels"
    images.write_bytes(idx_bytes(0x803, (0, 3, 4), []))
    labels.write_bytes(idx_bytes(0x801, (0,), []))
    values = {"data.source": "idx", "data.idx_images": images, "data.idx_labels": labels,
              "data.class_count": "3", "train.total_epochs": "8", "train.base_lr": "0.1"}
    assert main(["cost", "--config", str(write_config(values))]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert json.loads(err[0]) == {"error": "DatasetError",
                                  "message": f"{images}: empty dataset"}


def test_train_rejects_idx_images_without_pixels_with_one_json_line(write_config, tmp_path,
                                                                   capsys):
    images, labels = tmp_path / "images", tmp_path / "labels"
    images.write_bytes(idx_bytes(0x803, (20, 0, 5), []))
    labels.write_bytes(idx_bytes(0x801, (20,), np.arange(20) % 3))
    values = {"data.source": "idx", "data.idx_images": images, "data.idx_labels": labels,
              "data.class_count": "3", "train.total_epochs": "8", "train.base_lr": "0.1"}
    out = tmp_path / "run"
    assert main(["train", "--config", str(write_config(values)), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert json.loads(err[0]) == {"error": "DatasetError",
                                  "message": f"{images}: images of 0 x 5 pixels hold no pixel"}
    assert not (out / "metrics.jsonl").exists()


def test_set_without_an_equals_sign_is_one_json_line(write_config, capsys):
    assert main(["cost", "--config", str(write_config(TOY_VALUES)), "--set", "foo"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert json.loads(err[0]) == {"error": "ConfigError",
                                  "message": "--set expects KEY=VALUE, got 'foo'"}


def test_missing_config_file_reports_machine_readable_error(capsys):
    assert main(["train", "--config", "/nonexistent/conf.txt"]) == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    payload = json.loads(err)
    assert payload["error"] == "FileNotFoundError"
    assert "conf.txt" in payload["message"]


def test_bad_config_key_reports_machine_readable_error(write_config, capsys):
    path = write_config(run_values(**{"dar.keeprate": "0.5"}))
    assert main(["train", "--config", str(path)]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"
    assert "dar.keeprate" in payload["message"]


def test_compare_prints_table(write_config, tmp_path, capsys):
    uni = write_config(run_values(), name="uniform.txt")
    dar = write_config(run_values(**{
        "policy": "dar", "dar.warmup_epochs": "1", "dar.keep_rate": "0.5",
        "dar.active_epochs": "2", "dar.refresh_epochs": "3",
    }), name="dar.txt")
    table_path = tmp_path / "table.json"
    assert main(["compare", "--configs", f"{uni},{dar}",
                 "--out", str(table_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "label,cost_ratio,final_accuracy,delta_accuracy"
    assert lines[1].startswith("uniform,1.0,")
    assert lines[1].endswith("+0.000000")
    assert lines[2].startswith("dar,0.")
    rows = json.loads(table_path.read_text())
    assert [row["label"] for row in rows] == ["uniform", "dar"]
    assert rows[0]["delta_accuracy"] == 0.0


def test_compare_mismatched_configs_fail(write_config, capsys):
    a = write_config(run_values(), name="a.txt")
    b = write_config(run_values(**{"run.seed": "9"}), name="b.txt")
    assert main(["compare", "--configs", f"{a},{b}"]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "HarnessError"


def test_export_features_from_saved_model(write_config, tmp_path, capsys):
    path = write_config(run_values(**{"model.hidden": "6"}))
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out_dir)]) == 0
    features_path = tmp_path / "features.csv"
    assert main(["export-features", "--model", str(out_dir / "model.bin"),
                 "--data", f"config:{path}", "--out", str(features_path)]) == 0
    lines = features_path.read_text().splitlines()
    assert lines[0] == "id,label," + ",".join(f"f{j}" for j in range(6))
    assert len(lines) == 72 + 1  # training split of 90 examples minus 20% val


@pytest.mark.parametrize("layer_sizes", [None, 7])
def test_export_features_rejects_sidecar_without_layer_sizes(write_config, tmp_path,
                                                             capsys, layer_sizes):
    path = write_config(run_values())
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out_dir)]) == 0
    sidecar = out_dir / "model.json"
    meta = json.loads(sidecar.read_text())
    if layer_sizes is None:
        del meta["layer_sizes"]
    else:
        meta["layer_sizes"] = layer_sizes
    sidecar.write_text(json.dumps(meta))
    capsys.readouterr()
    assert main(["export-features", "--model", str(out_dir / "model.bin"),
                 "--data", f"config:{path}", "--out", str(tmp_path / "f.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "HarnessError"
    assert "model.json" in payload["message"]



@pytest.mark.parametrize("layer_sizes", [[None, 3, 2], [[4], 3, 2], [4, 3, -2],
                                         [True, 3, 2], [4.0, 3, 2], [4]])
def test_export_features_rejects_bad_layer_sizes(write_config, tmp_path, capsys,
                                                 layer_sizes):
    path = write_config(run_values())
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out_dir)]) == 0
    sidecar = out_dir / "model.json"
    meta = json.loads(sidecar.read_text())
    meta["layer_sizes"] = layer_sizes
    sidecar.write_text(json.dumps(meta))
    capsys.readouterr()
    assert main(["export-features", "--model", str(out_dir / "model.bin"),
                 "--data", f"config:{path}", "--out", str(tmp_path / "f.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "HarnessError"
    assert "model.json" in payload["message"] and "layer_sizes" in payload["message"]

def test_train_overflow_is_one_json_line_on_stderr(write_config, tmp_path):
    data = tmp_path / "overflow.csv"
    data.write_text("".join(f"{i % 2},1e200,1.0\n" for i in range(4)))
    path = write_config({"data.source": "csv", "data.csv": str(data),
                         "train.total_epochs": "1", "train.base_lr": "1e300",
                         "train.batch_size": "4"})
    src = str(Path(dropfresh.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run([sys.executable, "-m", "dropfresh.cli", "train", "--config",
                           str(path)], capture_output=True, text=True, env=env)
    assert done.returncode == 1
    err = done.stderr.splitlines()
    assert len(err) == 1, done.stderr
    payload = json.loads(err[0])
    assert payload["error"] == "HarnessError"
    assert "epoch 1" in payload["message"]


def test_export_features_rejects_bad_data_spec(capsys, tmp_path):
    model = tmp_path / "missing.bin"
    assert main(["export-features", "--model", str(model),
                 "--data", "parquet:x", "--out", str(tmp_path / "o.csv")]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] in ("ConfigError", "HarnessError")


@pytest.mark.parametrize("source", ["csv", "idx"])
def test_export_features_data_specs_read_every_row_as_the_loaders_do(write_config, tmp_path,
                                                                     source):
    # csv:<file> and idx:<images>,<labels> export the rows and labels load_csv and load_idx
    # read, and so does a config: file naming the same data with no validation split
    csv, images, labels = tmp_path / "data.csv", tmp_path / "images", tmp_path / "labels"
    csv.write_text("".join(f"{i % 3},{i}.25,{-i}.5\n" for i in range(9)))
    images.write_bytes(idx_bytes(0x803, (9, 1, 2), np.arange(18) * 13))
    labels.write_bytes(idx_bytes(0x801, (9,), np.arange(9) % 3))
    if source == "csv":
        dataset, spec, keys = load_csv(csv), f"csv:{csv}", {"data.csv": str(csv)}
    else:
        dataset, spec = load_idx(images, labels), f"idx:{images},{labels}"
        keys = {"data.idx_images": str(images), "data.idx_labels": str(labels)}
    params, model = init_params([2, 3, 3], 0), tmp_path / "model.bin"
    save_params(params, model)
    export_features(params, dataset, tmp_path / "expected.csv")
    config_path = write_config({**FUZZ_BASE, "data.source": source, **keys})
    for data in (spec, f"config:{config_path}"):
        out = tmp_path / "out.csv"
        assert main(["export-features", "--model", str(model), "--data", data,
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes(), data


@pytest.mark.parametrize("spec", ["idx:", "idx:images", "idx:images,", "idx:,labels"])
def test_export_features_rejects_an_idx_spec_without_two_files(tmp_path, capsys, spec):
    save_params(init_params([2, 3, 2], 0), tmp_path / "model.bin")
    assert main(["export-features", "--model", str(tmp_path / "model.bin"), "--data", spec,
                 "--out", str(tmp_path / "out.csv")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigError", "message": "idx data spec is idx:<image-file>,<label-file>"}


def test_export_features_names_the_line_of_a_label_too_large_for_int64(tmp_path, capsys):
    save_params(init_params([2, 3, 2], 0), tmp_path / "model.bin")
    data = tmp_path / "data.csv"
    data.write_text(f"0,1.0,2.0\n{'9' * 401},3.0,4.0\n")
    assert main(["export-features", "--model", str(tmp_path / "model.bin"),
                 "--data", f"csv:{data}", "--out", str(tmp_path / "out.csv")]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "DatasetError"
    assert payload["message"] == f"{data}:2: label above {sys.maxsize - 1}"


@pytest.mark.parametrize("change", [{"dtype": ">i4", "value_count": 999}, {"dtype": ">i4"},
                                    {"value_count": 999}, {"value_count": "39"},
                                    {"dtype": None}, {"value_count": None}])
def test_export_features_rejects_bad_dtype_or_value_count(write_config, tmp_path, capsys,
                                                          change):
    path = write_config(run_values())
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out_dir)]) == 0
    sidecar = out_dir / "model.json"
    meta = json.loads(sidecar.read_text())
    meta.update(change)  # a None value drops the key
    sidecar.write_text(json.dumps({k: v for k, v in meta.items() if v is not None}))
    capsys.readouterr()
    assert main(["export-features", "--model", str(out_dir / "model.bin"),
                 "--data", f"config:{path}", "--out", str(tmp_path / "f.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "HarnessError"
    assert "model.json" in payload["message"]
    assert not (tmp_path / "f.csv").exists()


def test_export_features_overflow_is_one_json_line_on_stderr(tmp_path):
    # finite first-layer weights of 1e308 overflow in its matmul (the export stops at the
    # hidden layer, so an overflow in the logits alone would not be reached)
    huge = ParamSet([np.full((3, 4), 1e308), np.full((2, 3), 1e300)],
                    [np.full(3, 1e300), np.full(2, 1e300)])
    model = tmp_path / "model.bin"
    save_params(huge, model)
    data = tmp_path / "data.csv"
    data.write_text("0,1,1,1,1\n1,1,1,1,1\n")
    src = str(Path(dropfresh.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run([sys.executable, "-m", "dropfresh.cli", "export-features",
                           "--model", str(model), "--data", f"csv:{data}",
                           "--out", str(tmp_path / "f.csv")],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 1
    err = done.stderr.splitlines()
    assert len(err) == 1, done.stderr
    assert "RuntimeWarning" not in done.stderr
    payload = json.loads(err[0])
    assert payload["error"] == "HarnessError"
    assert "model.bin" in payload["message"] and "overflow" in payload["message"]
    assert not (tmp_path / "f.csv").exists()


def test_train_rejects_an_overflowing_lr_schedule_with_one_json_line(write_config):
    # base_lr * lr_gamma**2 is 1e100, but lr_gamma**2 alone overflows a float
    path = write_config(run_values(**{"train.base_lr": "1e-300", "train.lr_milestones": "1,2",
                                      "train.lr_gamma": "1e200", "train.total_epochs": "3"}))
    src = str(Path(dropfresh.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "dropfresh.cli", "train", "--config",
                           str(path)], capture_output=True, text=True, env=env)
    assert done.returncode == 1 and done.stdout == ""
    err = done.stderr.splitlines()
    assert len(err) == 1, done.stderr
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError"
    assert "lr_gamma" in payload["message"]


def test_compare_checks_its_out_directory_before_any_run(write_config, tmp_path, capsys):
    # a run of either config would fail on its missing data file
    values = {"data.source": "csv", "data.csv": str(tmp_path / "missing.csv"),
              "train.total_epochs": "2", "train.base_lr": "0.1"}
    a = write_config(values, name="a.txt")
    b = write_config({**values, "policy": "dar"}, name="b.txt")
    out = tmp_path / "no-such-dir" / "table.json"
    assert main(["compare", "--configs", f"{a},{b}", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError"
    assert str(out) in payload["message"] and "missing.csv" not in payload["message"]


def test_compare_rejects_an_out_directory_before_any_run(write_config, tmp_path, capsys,
                                                         monkeypatch):
    runs = []
    monkeypatch.setattr("dropfresh.cli.compare", lambda cfgs: runs.append(cfgs) or [])
    a = write_config(TOY_VALUES, name="a.txt")
    b = write_config({**TOY_VALUES, "policy": "dar"}, name="b.txt")
    assert main(["compare", "--configs", f"{a},{b}", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and runs == []
    err = captured.err.splitlines()
    assert len(err) == 1, captured.err
    payload = json.loads(err[0])
    assert payload["error"] == "ConfigError" and str(tmp_path) in payload["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]


@pytest.mark.parametrize("argv", [[], ["train"], ["cost", "--config"],
                                  ["train", "--config", "c.txt", "--seed", "abc"],
                                  ["train", "--config", "c.txt", "--epochs", "3"]])
def test_usage_errors_are_one_json_line_and_exit_1(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    payload = json.loads(err)
    assert payload["error"] == "UsageError" and payload["message"].startswith("dropfresh")


def test_usage_error_exits_1_from_the_command_line_and_help_exits_0(capsys):
    src = str(Path(dropfresh.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "dropfresh.cli", "train", "--seed", "abc"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 1 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert "--seed" in json.loads(done.stderr)["message"]
    for argv in (["--help"], ["train", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dropfresh")


@pytest.mark.parametrize("command, key", [("cost", "synthetic.dim"), ("train", "model.hidden")])
def test_an_unallocatable_size_is_one_json_line(write_config, capsys, command, key):
    # 10**15 float64 values exceed any address space, so the allocation fails at once
    path = write_config({**TOY_VALUES, key: "1000000000000000"})
    assert main([command, "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    payload = json.loads(err)
    assert payload["error"] == "MemoryError" and "Unable to allocate" in payload["message"]


def test_a_memory_error_without_text_is_a_line_that_says_so(write_config, capsys):
    # repeating synthetic.per_class sys.maxsize times fails before anything is allocated, and
    # that MemoryError carries no text of its own
    path = write_config({**TOY_VALUES, "synthetic.classes": str(sys.maxsize)})
    assert main(["cost", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {"error": "MemoryError", "message": "out of memory"}


@pytest.mark.parametrize("command", ["cost", "train"])
@pytest.mark.parametrize("key", ["model.hidden", "synthetic.classes", "synthetic.per_class",
                                 "synthetic.dim"])
def test_a_401_digit_size_is_one_json_line(write_config, capsys, command, key):
    # no numpy axis is longer than sys.maxsize, so a larger size is refused before any work
    path = write_config({**TOY_VALUES, key: "9" * 401})
    assert main([command, "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    payload = json.loads(err)
    assert payload["error"] == "ConfigError" and payload["message"].startswith(f"{key} ")


@pytest.mark.parametrize("command", ["cost", "train"])
@pytest.mark.parametrize("source, value", [("synthetic", "7"), ("synthetic", "-3"), ("csv", "1"),
                                           ("csv", "-3"),
                                           pytest.param("csv", "9" * 401, id="csv-401-digits")])
def test_a_class_count_that_cannot_apply_is_a_config_error(write_config, tmp_path, capsys,
                                                           command, source, value):
    # a synthetic source counts its classes with synthetic.classes; a set count is never raised
    values = dict(TOY_VALUES)
    if source == "csv":
        data = tmp_path / "data.csv"
        data.write_text("".join(f"{i % 2},{i}.0,{-i}.0\n" for i in range(8)))
        values = {"data.source": "csv", "data.csv": str(data),
                  "train.total_epochs": "2", "train.base_lr": "0.1"}
    path = write_config({**values, "data.class_count": value})
    assert main([command, "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    payload = json.loads(err)
    assert payload["error"] == "ConfigError", payload
    assert payload["message"].startswith("data.class_count "), payload


def test_synthetic_overflow_is_one_json_line_without_a_warning(write_config):
    # train generates the data (cost only counts its rows)
    path = write_config({**TOY_VALUES, "synthetic.per_class": "400", "synthetic.std": "1e308"})
    src = str(Path(dropfresh.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run([sys.executable, "-m", "dropfresh.cli", "train", "--config",
                           str(path)], capture_output=True, text=True, env=env)
    assert done.returncode == 1 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert json.loads(done.stderr) == {"error": "DatasetError",
                                       "message": "non-finite feature values"}


def test_seed_flag_rejects_a_negative_seed_naming_the_key(write_config, capsys):
    path = write_config(TOY_VALUES)
    assert main(["train", "--config", str(path), "--seed", "-1"]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload == {"error": "ConfigError",
                       "message": "run.seed must be an integer >= 0, got -1"}


@pytest.mark.parametrize("key, value, extra", [
    ("synthetic.mean_scale", "-1", {}),
    ("synthetic.mean_scale", "inf", {}),
    ("synthetic.mean_scale", "nan", {}),
    ("synthetic.std", ",", {}),
    ("synthetic.std", "1,2,3", {}),
    ("synthetic.std", "-1", {}),
    ("synthetic.std", "1,inf", {}),
    ("synthetic.std", "nan", {}),
    ("synthetic.per_class", "0", {}),
    ("synthetic.per_class", "4,0", {}),
    ("data.augment_sigma", "-0.5", {"data.augment": "gaussian_noise"}),
    ("data.augment_sigma", "nan", {"data.augment": "gaussian_noise"}),
    ("data.augment_prob", "nan", {"data.augment": "horizontal_flip"}),
    ("train.weight_decay", "nan", {}),
    ("train.weight_decay", "inf", {}),
])
def test_an_out_of_range_value_is_a_config_error_naming_its_key(write_config, capsys, key,
                                                                value, extra):
    path = write_config({**TOY_VALUES, **extra, key: value})
    assert main(["train", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    payload = json.loads(err)
    assert payload["error"] == "ConfigError" and key in payload["message"], payload


@pytest.mark.parametrize("command", ["cost", "train"])
@pytest.mark.parametrize("source", ["synthetic", "csv", "idx"])
def test_flips_need_idx_data(write_config, tmp_path, capsys, command, source):
    if source == "synthetic":
        values = dict(TOY_VALUES)
    elif source == "csv":
        data = tmp_path / "data.csv"
        data.write_text("".join(f"{i % 2},{i}.0,{-i}.0\n" for i in range(8)))
        values = {"data.source": "csv", "data.csv": str(data),
                  "train.total_epochs": "2", "train.base_lr": "0.1"}
    else:
        images, labels = tmp_path / "images", tmp_path / "labels"
        images.write_bytes(idx_bytes(0x803, (10, 3, 4), np.arange(120) % 256))
        labels.write_bytes(idx_bytes(0x801, (10,), np.arange(10) % 3))
        values = {"data.source": "idx", "data.idx_images": images, "data.idx_labels": labels,
                  "data.class_count": "3", "train.total_epochs": "2", "train.base_lr": "0.1"}
    path = write_config({**values, "data.augment": "horizontal_flip"})
    code = main([command, "--config", str(path)])
    out, err = capsys.readouterr()
    if source == "idx":  # the one source with an image shape to flip
        assert code == 0 and err == "", err
        return
    assert code == 1 and out == "" and len(err.splitlines()) == 1, err
    payload = json.loads(err)
    assert payload["error"] == "ConfigError" and "data.augment" in payload["message"], payload


# Fuzzing the CLI's error contract: a command exits 0 with nothing on stderr, or exits 1 with
# nothing on stdout and one JSON line on stderr.

def assert_one_json_line_or_clean_exit(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == "", err
    else:
        assert code == 1 and out == "" and len(err.splitlines()) == 1, (code, out, err)
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}, err
        assert isinstance(payload["message"], str) and payload["message"], err


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Valid data of every source (2 features each) and a saved [2, 3, 2] model."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {"dir": root, "csv": root / "data.csv", "images": root / "images",
             "labels": root / "labels", "model": root / "model.bin"}
    files["csv"].write_text("".join(f"{i % 2},{i}.0,{-i}.5\n" for i in range(8)))
    files["images"].write_bytes(idx_bytes(0x803, (8, 1, 2), np.arange(16) * 9))
    files["labels"].write_bytes(idx_bytes(0x801, (8,), np.arange(8) % 2))
    save_params(init_params([2, 3, 2], 0), files["model"])
    return files


FUZZ_BASE = {"train.total_epochs": "3", "train.base_lr": "0.1", "train.batch_size": "4",
             "policy": "dar", "dar.keep_rate": "0.5", "run.seed": "1"}
GARBAGE = ["", " ", "abc", ",", "1,,2", "0x10", "1e3", "nan", "inf", "-inf", "none", "1 2"]
HUGE = [sys.maxsize + 1, int("9" * 401), -int("9" * 401)]


def key_values(key: str, paths: list[str]) -> st.SearchStrategy[str]:
    """Values for one ``_KEYS`` entry: its bounds +-1, sizes past sys.maxsize, 401 digits, NaN,
    inf, empty values and garbage. No size lies in [10**6, sys.maxsize], which may allocate
    rather than fail, and no run is longer than 3 epochs, as ``cost`` traces each one."""
    kind, default, *accepts = config._KEYS[key]
    if kind == "text":
        return st.sampled_from([*GARBAGE, *(accepts[0] if accepts else paths)])
    bounds = [b for b in (*accepts, math.inf)[:2] if abs(b) < math.inf]
    numbers = {-1, 0, 1, 2, 3, *HUGE, *(b + d for b in bounds for d in (-1, 0, 1))}
    numbers = sorted(v for v in numbers if not 10**6 <= v <= sys.maxsize
                     and (key != "train.total_epochs" or v <= 3))
    texts = [str(float(v) if kind in ("float", "floats") and abs(v) < 1e300 else v)
             for v in numbers]
    if kind in ("ints", "floats"):  # half the draws are numbers, half garbage
        numeric = st.lists(st.sampled_from(texts), min_size=1, max_size=3).map(",".join)
    else:
        numeric = st.sampled_from(texts)
    return numeric | st.sampled_from(GARBAGE)


@st.composite
def fuzz_configs(draw, files) -> dict[str, str]:
    """A valid config of one source with one or two keys set to drawn values."""
    paths = [str(files[k]) for k in ("csv", "images", "labels", "model")]
    paths += [str(files["dir"] / "runs"), str(files["dir"] / "missing" / "out")]
    source = draw(st.sampled_from(["synthetic", "csv", "idx"]))
    values = {**FUZZ_BASE, "data.source": source, **{
        "synthetic": {"synthetic.classes": "2", "synthetic.dim": "2", "synthetic.per_class": "4"},
        "csv": {"data.csv": str(files["csv"])},
        "idx": {"data.idx_images": str(files["images"]), "data.idx_labels": str(files["labels"]),
                "data.class_count": "2"}}[source]}
    keys = draw(st.lists(st.sampled_from(sorted(config._KEYS)), min_size=1, max_size=2,
                         unique=True))
    return {**values, **{key: draw(key_values(key, paths)) for key in keys}}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data(), command=st.sampled_from(["cost", "train"]))
def test_fuzzed_config_values_give_one_json_line_or_a_clean_exit(fuzz_files, data, command):
    path = fuzz_files["dir"] / "fuzz.txt"
    values = data.draw(fuzz_configs(fuzz_files))
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    assert_one_json_line_or_clean_exit([command, "--config", str(path)])


def corrupt(draw, blob: bytes) -> bytes:
    """``blob`` unchanged, cut short, with bytes appended or overwritten, or replaced whole."""
    how = draw(st.sampled_from(["keep", "cut", "append", "overwrite", "replace"]))
    if how == "keep":
        return blob
    if how == "cut":
        return blob[:draw(st.integers(0, max(len(blob) - 1, 0)))]
    extra = draw(st.binary(min_size=1, max_size=24))
    if how == "append":
        return blob + extra
    if how == "overwrite":
        at = draw(st.integers(0, len(blob)))
        return blob[:at] + extra + blob[at + len(extra):]
    return extra


SIDECARS = st.one_of(
    st.sampled_from(["", "null", "[]", "{}", "{", "not json", '{"layer_sizes": "2,3,2"}']),
    st.fixed_dictionaries({
        "dtype": st.sampled_from(["<f8", ">f8", "f4", 8]),
        "layer_sizes": st.lists(st.sampled_from([-1, 0, 1, 2, 3, 2.0, True, None, *HUGE]),
                                max_size=4),
        "value_count": st.sampled_from([17, 16, 0, -1, 17.0, None, *HUGE]),
    }).map(json.dumps))
CSV_CELLS = st.sampled_from(["0", "1", "2", "-1", "1.5", "-0.0", "x", "", "nan", "inf", "1e400",
                             "9" * 401])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_export_inputs_give_one_json_line_or_a_clean_exit(fuzz_files, data):
    # one input at a time is broken, or none, so the others reach the deeper checks
    root, model = fuzz_files["dir"], fuzz_files["model"]
    fault = data.draw(st.sampled_from(["none", "model.bin", "model.json", "csv", "idx", "spec"]))
    bin_path, json_path = root / "fuzz-model.bin", root / "fuzz-model.json"
    blob = model.read_bytes()
    bin_path.write_bytes(corrupt(data.draw, blob) if fault == "model.bin" else blob)
    sidecar = model.with_suffix(".json").read_text()
    json_path.write_text(data.draw(SIDECARS) if fault == "model.json" else sidecar)
    spec = data.draw(st.sampled_from([f"csv:{fuzz_files['csv']}",
                                      f"idx:{fuzz_files['images']},{fuzz_files['labels']}"]))
    if fault == "csv":
        rows = data.draw(st.lists(st.lists(CSV_CELLS, min_size=1, max_size=4).map(",".join),
                                  max_size=5))
        (root / "fuzz.csv").write_text("\n".join(rows))
        spec = f"csv:{root / 'fuzz.csv'}"
    elif fault == "idx":
        images, labels = root / "fuzz-images", root / "fuzz-labels"
        images.write_bytes(corrupt(data.draw, fuzz_files["images"].read_bytes()))
        labels.write_bytes(corrupt(data.draw, fuzz_files["labels"].read_bytes()))
        spec = f"idx:{images},{labels}"
    elif fault == "spec":
        spec = data.draw(st.sampled_from(["csv:", "idx:", f"idx:{root}", "config:", "x:y",
                                          f"config:{fuzz_files['csv']}", f"csv:{root}"]))
    assert_one_json_line_or_clean_exit(["export-features", "--model", str(bin_path),
                                        "--data", spec, "--out", str(root / "features.csv")])
