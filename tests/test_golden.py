"""Output bytes pinned by sha256: a change that moves one bit of a run's outputs fails here.

``golden.json`` holds the hashes and the fingerprint of the environment they were taken in.
The bytes depend on Python, numpy, the BLAS build and the CPU features numpy dispatches on, so
under any other fingerprint the test skips and names both. A change that alters output bytes on
purpose rewrites the file with ``PYTHONPATH=src python tests/test_golden.py`` and says so in
CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dropfresh.cli import main
from test_acceptance import desk_dar_values, desk_values  # criterion 6's desk runs

GOLDEN = Path(__file__).with_name("golden.json")

LONG = {  # criterion 3's long run, planned under the imagenet-default preset
    "data.source": "synthetic",
    "synthetic.classes": "10", "synthetic.dim": "4", "synthetic.per_class": "600",
    "train.total_epochs": "120", "train.base_lr": "0.1",
    "policy": "dar",
}


def fingerprint() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "machine": platform.machine(),
            "cpu_features": sorted(name for name, on in __cpu_features__.items() if on)}


def _config(path: Path, values: dict) -> str:
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    return str(path)


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def idx_flip_values(work: Path) -> dict:
    """Config values of 300 random 12 x 12 images, written to ``work`` as an IDX pair, with
    flips; the golden run trains them under desk-default dar."""
    rng = np.random.default_rng(11)
    images = rng.integers(0, 256, size=(300, 12, 12), dtype=np.uint8)
    labels = rng.integers(0, 10, size=300, dtype=np.uint8)
    image_path, label_path = work / "images", work / "labels"
    image_path.write_bytes(struct.pack(">IIII", 0x803, 300, 12, 12) + images.tobytes())
    label_path.write_bytes(struct.pack(">II", 0x801, 300) + labels.tobytes())
    return {
        "data.source": "idx", "data.idx_images": image_path, "data.idx_labels": label_path,
        "data.val_fraction": "0.2", "data.augment": "horizontal_flip",
        "data.augment_prob": "0.5", "model.hidden": "16", "train.total_epochs": "8",
        "train.base_lr": "0.05", "train.momentum": "0.9", "train.weight_decay": "0.0001",
        "train.batch_size": "32", "policy": "dar", "run.seed": "2"}


def _idx_flip_run(work: Path) -> dict[str, bytes]:
    """The IDX images of ``idx_flip_values`` trained under desk-default dar, then exported."""
    values = idx_flip_values(work)
    image_path, label_path = values["data.idx_images"], values["data.idx_labels"]
    config = _config(work / "idx.txt", values)
    run = work / "run"
    _run(["train", "--config", config, "--preset", "desk-default", "--out", str(run)])
    _run(["export-features", "--model", str(run / "model.bin"),
          "--data", f"idx:{image_path},{label_path}", "--out", str(run / "features.csv")])
    return {f"idx-flip/{name}": (run / name).read_bytes()
            for name in ("metrics.jsonl", "model.bin", "model.json", "features.csv")}


def outputs(work: Path) -> dict[str, bytes]:
    """Every pinned output, by name."""
    made = {}
    for seed in (1, 2):
        for policy, values in (("uniform", desk_values(seed)), ("dar", desk_dar_values(seed)),
                               ("reweight", {**desk_values(seed), "policy": "reweight"})):
            run = work / f"desk-{policy}-{seed}"
            _run(["train", "--config", _config(work / f"{policy}-{seed}.txt", values),
                  "--out", str(run)])
            made[f"desk/seed{seed}/{policy}/metrics.jsonl"] = (run / "metrics.jsonl").read_bytes()
    made.update(_idx_flip_run(work))
    made["cost/imagenet-default.stdout"] = _run(
        ["cost", "--config", _config(work / "long.txt", LONG),
         "--preset", "imagenet-default"]).encode()
    return made


def hashes(work: Path) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs(work).items()}


def test_output_bytes_match_the_recorded_hashes(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = fingerprint()
    if golden["fingerprint"] != here:
        pytest.skip(f"hashes were taken under {golden['fingerprint']}; this is {here}")
    now = hashes(tmp_path)
    changed = sorted(name for name in golden["sha256"].keys() | now.keys()
                     if golden["sha256"].get(name) != now.get(name))
    assert not changed, changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        record = {"fingerprint": fingerprint(), "sha256": hashes(Path(work))}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(record['sha256'])} hashes to {GOLDEN}", file=sys.stderr)
