"""Dataset helpers that only the tests need."""
from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

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
