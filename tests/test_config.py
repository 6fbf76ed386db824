import math
import operator
import re
from pathlib import Path

import pytest

from dropfresh import config
from dropfresh.config import (ConfigError, ExperimentConfig, apply_preset,
                              build_experiment_config, parse_config_text, read_config_file)
from dropfresh.datasets import GaussianNoise, NoAugment
from dropfresh.scheduler import DarConfig


def minimal_values(**overrides):
    values = {
        "data.source": "synthetic",
        "synthetic.classes": "3",
        "synthetic.dim": "4",
        "synthetic.per_class": "10",
        "train.total_epochs": "6",
        "train.base_lr": "0.1",
    }
    values.update(overrides)
    return values


def test_parse_config_text():
    text = """
    # a comment
    train.total_epochs = 6   # trailing comment
    train.base_lr = 0.1

    train.base_lr = 0.2
    """
    values = parse_config_text(text)
    assert values["train.total_epochs"] == "6"
    assert values["train.base_lr"] == "0.2"  # later assignment wins


def test_parse_config_text_rejects_bare_words():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("a = 1\nnot-a-setting\n")


def test_read_config_file(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("policy = uniform\n")
    assert read_config_file(path) == {"policy": "uniform"}


def test_build_minimal_defaults():
    cfg = build_experiment_config(minimal_values())
    assert cfg.policy == "uniform"
    assert cfg.batch_size == 32
    assert cfg.run_seed == 0
    assert cfg.hidden_layers == ()
    assert cfg.total_epochs == 6
    assert cfg.dar.keep_rate == 1.0
    assert cfg.dar.refresh_epochs == ()
    assert cfg.data.val_fraction == 0.0
    assert isinstance(cfg.data.augment, NoAugment)
    assert cfg.data.synthetic.counts == (10, 10, 10)
    assert cfg.echo["train.base_lr"] == "0.1"


def test_build_full_dar_config():
    cfg = build_experiment_config(minimal_values(**{
        "policy": "dar",
        "dar.warmup_epochs": "2",
        "dar.interval_epochs": "1",
        "dar.keep_rate": "0.5",
        "dar.active_epochs": "4",
        "dar.refresh_epochs": "5",
        "model.hidden": "8,4",
        "train.batch_size": "16",
        "train.lr_milestones": "3,5",
        "data.augment": "gaussian_noise",
        "data.augment_sigma": "0.25",
        "run.seed": "9",
        "run.out_dir": "runs/x",
    }))
    assert cfg.policy == "dar"
    assert cfg.dar.warmup_epochs == 2
    assert cfg.dar.refresh_epochs == (5,)
    assert cfg.hidden_layers == (8, 4)
    assert cfg.train.lr_milestones == (3, 5)
    assert cfg.data.augment == GaussianNoise(sigma=0.25)
    assert cfg.run_seed == 9
    assert cfg.out_dir == "runs/x"


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="dar.keeprate"):
        build_experiment_config(minimal_values(**{"dar.keeprate": "0.5"}))


def test_exactly_one_data_source():
    with pytest.raises(ConfigError, match="exactly one dataset source"):
        build_experiment_config(minimal_values(**{"data.csv": "x.csv"}))
    with pytest.raises(ConfigError, match="data.source"):
        build_experiment_config({"train.total_epochs": "4", "train.base_lr": "0.1"})
    with pytest.raises(ConfigError, match="requires data.csv"):
        build_experiment_config({"data.source": "csv", "train.total_epochs": "4",
                                 "train.base_lr": "0.1"})
    with pytest.raises(ConfigError, match="idx_images"):
        build_experiment_config({"data.source": "idx", "train.total_epochs": "4",
                                 "train.base_lr": "0.1"})


def test_validation_source_is_single():
    with pytest.raises(ConfigError, match="not both"):
        build_experiment_config(minimal_values(**{
            "data.val_fraction": "0.2", "data.val_csv": "v.csv"}))
    with pytest.raises(ConfigError, match="val_fraction"):
        build_experiment_config(minimal_values(**{"data.val_fraction": "0.6"}))


@pytest.mark.parametrize("overrides, match", [
    ({"data.val_csv": "v.csv", "data.val_idx_images": "vi", "data.val_idx_labels": "vl"},
     "not both"),
    ({"data.val_csv": "v.csv", "data.val_idx_labels": "vl"}, "not both"),
    ({"data.val_idx_images": "vi"}, "go together"),
    ({"data.val_idx_labels": "vl"}, "go together"),
])
def test_validation_data_is_one_csv_file_or_one_idx_pair(overrides, match):
    with pytest.raises(ConfigError, match=match):
        build_experiment_config(minimal_values(**overrides))


def file_values(**overrides):
    """``minimal_values`` with a file source in place of the synthetic one."""
    kept = {k: v for k, v in minimal_values().items() if not k.startswith("synthetic.")}
    return {**kept, **overrides}


@pytest.mark.parametrize("values, paths, val_paths", [
    (minimal_values(), (), ()),
    (minimal_values(**{"data.val_csv": "v.csv"}), (), ("v.csv",)),
    (file_values(**{"data.source": "csv", "data.csv": "t.csv", "data.val_idx_images": "vi",
                    "data.val_idx_labels": "vl"}), ("t.csv",), ("vi", "vl")),
    (file_values(**{"data.source": "idx", "data.idx_images": "ti", "data.idx_labels": "tl",
                    "data.val_fraction": "0.2"}), ("ti", "tl"), ()),
])
def test_data_paths_hold_the_source_files_in_key_order(values, paths, val_paths):
    data = build_experiment_config(values).data
    assert (data.paths, data.val_paths) == (paths, val_paths)


def test_required_keys():
    values = minimal_values()
    del values["train.total_epochs"]
    with pytest.raises(ConfigError, match="train.total_epochs"):
        build_experiment_config(values)
    values = minimal_values()
    del values["train.base_lr"]
    with pytest.raises(ConfigError, match="train.base_lr"):
        build_experiment_config(values)


def test_milestones_must_fit_run():
    with pytest.raises(ConfigError, match="lr_milestones"):
        build_experiment_config(minimal_values(**{"train.lr_milestones": "7"}))


def test_active_epochs_sentinel():
    cfg = build_experiment_config(minimal_values(policy="dar",
                                                 **{"dar.active_epochs": "unbounded"}))
    assert cfg.dar.active_epochs is None
    cfg = build_experiment_config(minimal_values(policy="dar", **{"dar.active_epochs": "3"}))
    assert cfg.dar.active_epochs == 3


@pytest.mark.parametrize("policy", ["uniform", "reweight"])
def test_a_policy_other_than_dar_trains_the_keep_everything_schedule(policy):
    # cost, train and compare all read cfg.dar, so it is the schedule the run trains
    schedule = {"dar.warmup_epochs": "1", "dar.interval_epochs": "2", "dar.keep_rate": "0.5",
                "dar.active_epochs": "3", "dar.refresh_epochs": "4"}
    cfg = build_experiment_config(minimal_values(policy=policy, **schedule))
    assert cfg.dar == DarConfig(total_epochs=6)
    with pytest.raises(ConfigError, match=r"^dar\.keep_rate must be in \(0, 1\]"):
        build_experiment_config(minimal_values(policy=policy, **{"dar.keep_rate": "1.5"}))
    built = ExperimentConfig(data=cfg.data, hidden_layers=(), train=cfg.train,
                             dar=DarConfig(total_epochs=6, keep_rate=0.5), policy=policy,
                             batch_size=32, run_seed=0)
    assert built.dar == DarConfig(total_epochs=6)


def test_policy_name_checked():
    with pytest.raises(ConfigError, match="policy"):
        build_experiment_config(minimal_values(policy="ohem"))


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="train.base_lr"):
        build_experiment_config(minimal_values(**{"train.base_lr": "fast"}))
    with pytest.raises(ConfigError, match="synthetic.per_class"):
        build_experiment_config(minimal_values(**{"synthetic.per_class": "a,b"}))


def test_per_class_broadcast_and_mismatch():
    cfg = build_experiment_config(minimal_values(**{"synthetic.per_class": "5,6,7"}))
    assert cfg.data.synthetic.counts == (5, 6, 7)
    with pytest.raises(ConfigError, match="per_class"):
        build_experiment_config(minimal_values(**{"synthetic.per_class": "5,6"}))


def test_synthetic_spec_is_reproducible():
    a = build_experiment_config(minimal_values()).data.synthetic
    b = build_experiment_config(minimal_values()).data.synthetic
    assert a == b
    c = build_experiment_config(minimal_values(**{"synthetic.seed": "1"})).data.synthetic
    assert a != c


def test_preset_imagenet_default():
    values = apply_preset(minimal_values(policy="dar", **{"train.total_epochs": "120"}),
                          "imagenet-default")
    cfg = build_experiment_config(values)
    assert cfg.dar.warmup_epochs == 10
    assert cfg.dar.interval_epochs == 2
    assert cfg.dar.keep_rate == 0.9
    assert cfg.dar.active_epochs == 10
    assert cfg.dar.refresh_epochs == (30, 60, 90)
    assert cfg.train.lr_milestones == (30, 60, 90)


def test_preset_desk_default():
    values = apply_preset(minimal_values(policy="dar", **{"train.total_epochs": "20"}),
                          "desk-default")
    cfg = build_experiment_config(values)
    assert cfg.dar.warmup_epochs == 4
    assert cfg.dar.keep_rate == 0.7
    assert cfg.dar.active_epochs == 4
    assert cfg.dar.refresh_epochs == (5, 10, 15)
    assert cfg.train.lr_milestones == (5, 10, 15)


def test_preset_drops_marks_inside_warmup():
    values = apply_preset(minimal_values(policy="dar", **{"train.total_epochs": "8"}),
                          "desk-default")
    cfg = build_experiment_config(values)
    assert cfg.dar.warmup_epochs == 2
    assert cfg.dar.refresh_epochs == (4, 6)


def test_preset_overrides_file_values():
    values = minimal_values(**{"train.total_epochs": "20", "dar.keep_rate": "0.123"})
    merged = apply_preset(values, "desk-default")
    assert merged["dar.keep_rate"] == "0.7"


def test_preset_errors():
    with pytest.raises(ConfigError, match="unknown preset"):
        apply_preset(minimal_values(), "cifar")
    with pytest.raises(ConfigError, match="total_epochs"):
        apply_preset({"train.base_lr": "0.1"}, "desk-default")
    with pytest.raises(ConfigError, match=">= 4"):
        apply_preset(minimal_values(**{"train.total_epochs": "3"}), "desk-default")


@pytest.mark.parametrize("overrides, field, expected", [
    ({"train.batch_size": ""}, "batch_size", 32),  # an empty value means the default
    ({"synthetic.per_class": "none"}, "data.synthetic.counts", (100, 100, 100)),
    ({"synthetic.per_class": "NONE"}, "data.synthetic.counts", (100, 100, 100)),
    ({"synthetic.per_class": ","}, "data.synthetic.counts", (100, 100, 100)),
    ({"model.hidden": "none"}, "hidden_layers", ()),
    ({"synthetic.std": "none"}, None, r"^synthetic\.std: expected comma-separated numbers"),
    ({"dar.active_epochs": "None"}, "dar.active_epochs", None),
    ({"data.augment_sigma": "abc"}, "data.augment", NoAugment()),  # read only when used
    ({"dar.active_epochs": "x", "dar.warmup_epochs": "y"}, None, r"^dar\.active_epochs: "),
])
def test_parsing_quirks(overrides, field, expected):
    if field is None:  # the first error found is the one reported
        with pytest.raises(ConfigError, match=expected):
            build_experiment_config(minimal_values(**overrides))
    else:
        cfg = build_experiment_config(minimal_values(**overrides))
        assert operator.attrgetter(field)(cfg) == expected


@pytest.mark.parametrize("key", ["run.seed", "synthetic.seed"])
def test_negative_seeds_are_rejected_naming_the_key(key):
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be >= 0, got -1$"):
        build_experiment_config(minimal_values(**{key: "-1"}))


# Values that ranges the dataclasses own reject; minimal_values has train.total_epochs = 6.
DATACLASS_REJECTS = [
    ("train.weight_decay", "-0.5"), ("synthetic.std", "-0.5"), ("data.augment_sigma", "-0.5"),
    ("data.augment_prob", "-0.5"), ("data.augment_prob", "1.5"), ("train.base_lr", "0"),
    ("train.momentum", "1"), ("train.lr_gamma", "0"), ("train.lr_milestones", "3,2"),
    ("train.total_epochs", "0"), ("dar.keep_rate", "0"), ("dar.keep_rate", "1.5"),
    ("dar.warmup_epochs", "6"), ("dar.interval_epochs", "0"), ("dar.active_epochs", "-1"),
    ("dar.refresh_epochs", "7"),
]


def rejected_values():
    """For each ``_KEYS`` entry, values it rejects: below low and above a finite high; NaN
    and inf for every number key; an unknown name for a text key with names; unset (None)
    if required. Then ``DATACLASS_REJECTS``."""
    for key, (kind, default, *accepts) in config._KEYS.items():
        if default is config.REQUIRED:
            yield key, None
        if kind == "text" and accepts:
            yield key, "no-such-name"
        elif accepts:
            low, high = (*accepts, math.inf)[:2]
            step = 0.5 if kind in ("float", "floats") else 1
            yield key, str(low - step)
            if high < math.inf:
                yield key, str(high + step)
        if kind in ("float", "floats"):
            yield from ((key, bad) for bad in ("nan", "inf"))
    yield from DATACLASS_REJECTS


# data.augment_sigma and data.augment_prob are read only when their policy is chosen
POLICY_FOR = {"data.augment_sigma": "gaussian_noise", "data.augment_prob": "horizontal_flip"}


@pytest.mark.parametrize("key, value", list(rejected_values()),
                         ids=[f"{k}={v}" for k, v in rejected_values()])
def test_every_key_rejects_what_its_table_entry_does_not_accept(key, value):
    values = minimal_values(**{"data.augment": POLICY_FOR.get(key, "none")})
    if value is None:
        del values[key]
    else:
        values[key] = value
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} "):
        build_experiment_config(values)


def test_key_table_defaults_and_names():
    assert config._KEYS["data.source"][2] == tuple(config._SOURCE_KEYS)
    assert config._KEYS["policy"][2] == config.POLICIES
    for key, (kind, default, *accepts) in config._KEYS.items():
        if kind != "text" and accepts and default is not None:  # a default is in range
            low, high = (*accepts, math.inf)[:2]
            assert all(low <= v <= high for v in (default if kind in ("ints", "floats")
                                                  else (default,))), key


def test_readme_config_table_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Config reference", 1)[1].split("\n\n", 2)[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    keys = {key for row in rows for key in re.findall(r"`([^`]+)`", row.split(" | ")[0])}
    assert keys == set(config._KEYS)
