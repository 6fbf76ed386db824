import math
import operator
import re
import sys
from pathlib import Path

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropfresh import config, datasets, harness
from dropfresh.config import (ConfigError, DataConfig, ExperimentConfig, apply_preset,
                              build_experiment_config, parse_config_text, read_config_file)
from dropfresh.datasets import GaussianNoise, HorizontalFlip, NoAugment, SyntheticSpec
from dropfresh.harness import run_experiment
from dropfresh.model import TrainHyper
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


# run.seed is ExperimentConfig's run_seed; synthetic.seed is read before any dataclass exists
@pytest.mark.parametrize("key", ["run.seed", "synthetic.seed"])
def test_negative_seeds_are_rejected_naming_the_key(key):
    rule = {"run.seed": "an integer >= 0", "synthetic.seed": ">= 0"}[key]
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be {rule}, got -1$"):
        build_experiment_config(minimal_values(**{key: "-1"}))


# Values that ranges the dataclasses own reject; minimal_values has train.total_epochs = 6.
TOO_BIG = str(sys.maxsize + 1)
DATACLASS_REJECTS = [
    ("train.weight_decay", "-0.5"), ("synthetic.std", "-0.5"), ("data.augment_sigma", "-0.5"),
    ("data.augment_prob", "-0.5"), ("data.augment_prob", "1.5"), ("train.base_lr", "0"),
    ("train.momentum", "1"), ("train.lr_gamma", "0"), ("train.lr_milestones", "3,2"),
    ("train.total_epochs", "0"), ("dar.keep_rate", "0"), ("dar.keep_rate", "1.5"),
    ("dar.warmup_epochs", "6"), ("dar.interval_epochs", "0"), ("dar.active_epochs", "-1"),
    ("dar.refresh_epochs", "7"), ("policy", "no-such-name"), ("run.seed", "-1"),
    ("train.batch_size", "0"), ("model.hidden", "0"), ("model.hidden", TOO_BIG),
    ("data.val_fraction", "-0.5"), ("data.val_fraction", "1.0"), ("data.class_count", "1"),
    ("data.class_count", TOO_BIG), ("synthetic.per_class", "0"), ("synthetic.per_class", TOO_BIG),
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
    if key == "data.class_count":  # a count is for file data, so test its range there
        values = file_values(**{"data.source": "csv", "data.csv": "t.csv"})
    if value is None:
        del values[key]
    else:
        values[key] = value
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} "):
        build_experiment_config(values)


def test_key_table_defaults_and_names():
    assert config._KEYS["data.source"][2] == tuple(config._SOURCE_KEYS)
    assert config._KEYS["policy"][1] in config.POLICIES  # ExperimentConfig checks the name
    for key, (kind, default, *accepts) in config._KEYS.items():
        if kind != "text" and accepts and default is not None:  # a default is in range
            low, high = (*accepts, math.inf)[:2]
            assert all(low <= v <= high for v in (default if kind in ("ints", "floats")
                                                  else (default,))), key


def test_a_range_has_one_owner():
    # a key that names a dataclass field leaves its range to that dataclass; a range stays in
    # _KEYS only for the synthetic keys config.py reads before any dataclass exists
    ranged = {key for key, (kind, _, *accepts) in config._KEYS.items()
              if kind != "text" and accepts}
    assert not ranged & set(config._FIELD_KEYS.values())
    assert ranged == {"synthetic.classes", "synthetic.dim", "synthetic.mean_scale",
                      "synthetic.seed"}


def test_readme_config_table_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Config reference", 1)[1].split("\n\n", 2)[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    keys = {key for row in rows for key in re.findall(r"`([^`]+)`", row.split(" | ")[0])}
    assert keys == set(config._KEYS)


# The Python API: a directly built config checks its own fields when built, before any data is
# read, and names the field it refuses, as build_experiment_config names the key.

API_SPEC = SyntheticSpec(means=((0.0, 0.0, 0.0, 0.0), (3.0, 0.0, 0.0, 0.0), (0.0, 3.0, 0.0, 0.0)),
                         stds=(1.0,), counts=(20, 20, 20), seed=0)
API_DATA = DataConfig(synthetic=API_SPEC)


def api_config(data=API_DATA, milestones=(), **fields):
    """A valid 3-epoch config for 3 classes of 4 features, with ``fields`` replaced."""
    return ExperimentConfig(**{
        "data": data, "hidden_layers": (4,), "train": TrainHyper(0.1, lr_milestones=milestones),
        "dar": DarConfig(total_epochs=3, warmup_epochs=1, keep_rate=0.5), "policy": "dar",
        "batch_size": 16, "run_seed": 0, **fields})


def refuse_data_reads(patch):
    def read(*args):
        raise AssertionError("data was read while a config was built")
    for module in (datasets, harness):
        for name in ("gen_gaussian", "load_csv"):
            patch.setattr(module, name, read)


@pytest.mark.parametrize("field, build", [
    ("policy", lambda: api_config(policy="DAR")),
    ("run_seed", lambda: api_config(run_seed=1.5)),
    ("run_seed", lambda: api_config(run_seed=-1)),
    ("batch_size", lambda: api_config(batch_size=2.5)),
    ("batch_size", lambda: api_config(batch_size=0)),
    ("hidden_layers", lambda: api_config(hidden_layers=(2.5,))),
    ("hidden_layers", lambda: api_config(hidden_layers=(0,))),
    ("hidden_layers", lambda: api_config(hidden_layers=(-3,))),
    ("lr_milestones", lambda: api_config(milestones=(7,))),
    ("val_fraction", lambda: replace(API_DATA, val_fraction=0.9)),
    ("val_fraction", lambda: replace(API_DATA, val_fraction=-0.1)),
    ("val_fraction", lambda: replace(API_DATA, val_fraction=math.nan)),
    ("val_fraction", lambda: replace(API_DATA, val_fraction=0.2, val_paths=("val.csv",))),
    ("class_count", lambda: replace(API_DATA, class_count=1)),
    ("paths", lambda: replace(API_DATA, paths=("train.csv",))),
    ("paths", lambda: DataConfig(paths=("a.csv", "b.csv", "c.csv"))),
    ("paths", lambda: DataConfig()),
    ("augment", lambda: replace(API_DATA, augment=HorizontalFlip(0.5))),
], ids=["policy-DAR", "run_seed-1.5", "run_seed--1", "batch_size-2.5", "batch_size-0",
        "hidden_layers-2.5", "hidden_layers-0", "hidden_layers--3", "lr_milestones-7",
        "val_fraction-0.9", "val_fraction--0.1", "val_fraction-nan", "val_fraction-and-val_paths",
        "class_count-synthetic", "paths-and-synthetic", "paths-three", "paths-none",
        "augment-flip-synthetic"])
def test_a_directly_built_config_refuses_a_bad_field_naming_it(monkeypatch, field, build):
    refuse_data_reads(monkeypatch)
    with pytest.raises(ValueError, match=rf"^{field} "):
        build()


@pytest.fixture(scope="module")
def api_files(tmp_path_factory):
    """A CSV file, a validation CSV file and an IDX pair of 2x2 images: 4 features, 3 classes."""
    root = tmp_path_factory.mktemp("api")
    rows = [f"{i % 3},{i}.0,{-i}.0,{i % 5}.0,1.0\n" for i in range(30)]
    (root / "train.csv").write_text("".join(rows))
    (root / "val.csv").write_text("".join(rows[:12]))
    header = lambda magic, *dims: b"".join(x.to_bytes(4, "big") for x in (magic, *dims))
    (root / "images").write_bytes(header(0x803, 30, 2, 2) + bytes(range(120)))
    (root / "labels").write_bytes(header(0x801, 30) + bytes(i % 3 for i in range(30)))
    return {"csv": (str(root / "train.csv"),), "val": (str(root / "val.csv"),),
            "idx": (str(root / "images"), str(root / "labels"))}


API_RULES = ("paths", "val_paths", "val_fraction", "class_count", "lr_milestones", "policy",
             "run_seed", "batch_size", "hidden_layers")


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_directly_built_config_trains_or_names_a_bad_field_before_reading_data(api_files, data):
    # up to two fields get a value their rule refuses; a combination can break three more
    bad = data.draw(st.sets(st.sampled_from(API_RULES), max_size=2), label="broken fields")

    def pick(name, valid, invalid=()):
        return data.draw(st.sampled_from(invalid if name in bad else valid), label=name)

    csv, idx, val = api_files["csv"], api_files["idx"], api_files["val"]
    paths, synthetic = pick("paths", [((), API_SPEC), (csv, None), (idx, None)],
                            [((), None), (csv, API_SPEC), (idx + csv, None)])
    val_paths = pick("val_paths", [(), val], [val * 3])
    val_fraction = pick("val_fraction", [0.0, 0.25, 0.5], [0.9, -0.1, math.nan, math.inf])
    class_count = pick("class_count", [None, 3, 4], [1, 2.5, sys.maxsize + 1])
    augment = pick("augment", [NoAugment(), GaussianNoise(0.1), HorizontalFlip(0.5)])
    milestones = pick("lr_milestones", [(), (2,), (3,)], [(4,), (7,)])
    fields = {"policy": pick("policy", config.POLICIES, ["DAR", "ohem"]),
              "run_seed": pick("run_seed", [0, 3, 2 ** 70], [-1, 1.5]),
              "batch_size": pick("batch_size", [1, 16, 64], [0, -2, 2.5]),
              "hidden_layers": pick("hidden_layers", [(), (4,), (3, 2)],
                                    [(0,), (-3,), (2.5,), (4, sys.maxsize + 1)])}
    if val_fraction and val_paths:
        bad.add("val_fraction")
    if class_count is not None and not paths:
        bad.add("class_count")
    if isinstance(augment, HorizontalFlip) and len(paths) != 2:
        bad.add("augment")
    with pytest.MonkeyPatch.context() as patch:
        refuse_data_reads(patch)
        try:
            cfg = api_config(DataConfig(paths, synthetic, class_count, val_fraction, val_paths,
                                        augment), milestones, **fields)
        except ValueError as exc:
            assert str(exc).split(" ", 1)[0] in bad, (str(exc), bad)
            return
    assert not bad, bad
    report = run_experiment(cfg)
    assert len(report.records) == 3
