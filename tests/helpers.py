"""Helpers that only the tests need: datasets, bit equality and a lane-step counter."""
from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from dropfresh import model
from dropfresh.datasets import Dataset


def save_csv(dataset: Dataset, path: Union[str, Path]) -> None:
    """Writes rows ``load_csv`` reads back exactly (repr round-trips floats)."""
    lines = [",".join([str(int(label))] + [repr(float(x)) for x in row])
             for label, row in zip(dataset.labels, dataset.features)]
    Path(path).write_text("\n".join(lines) + "\n")


def subset(dataset: Dataset, ids) -> Dataset:
    """A new dataset of rows ``ids``, re-indexed from zero; fancy indexing copies them."""
    return dataset.take(np.asarray(ids, dtype=np.int64))[0]


def example_ids(dataset: Dataset) -> np.ndarray:
    """The dataset's example ids: its row indices."""
    return np.arange(dataset.n)


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and bytes; a plain bool keeps a failing assert's report short."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class LaneStep(int):
    """One ``model.loss_and_gradients`` call, as the lanes it trains: the leading run axis of its
    parameters, or 1 for a solo step. ``epoch`` is that of the ``sgd_step`` that follows it (None
    if the call raised first) and ``raised`` whether the call raised."""
    epoch: int | None = None
    raised: bool = True  # until the call returns


def lane_steps(patch) -> list[LaneStep]:
    """Records every training step taken while ``patch`` (a pytest monkeypatch) is in effect."""
    steps, loss_and_gradients, sgd_step = [], model.loss_and_gradients, model.sgd_step

    def counted(params, *args, **kwargs):
        steps.append(LaneStep(params.flat.shape[0] if params.flat.ndim == 2 else 1))
        losses = loss_and_gradients(params, *args, **kwargs)
        steps[-1].raised = False
        return losses

    def stepped(params, grads, hyper, epoch, velocity):
        steps[-1].epoch = epoch
        sgd_step(params, grads, hyper, epoch, velocity)

    patch.setattr(model, "loss_and_gradients", counted)
    patch.setattr(model, "sgd_step", stepped)
    return steps
