import itertools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from dropfresh.datasets import (BadMagicError, Batch, CountMismatchError, Dataset,
                                DatasetError, GaussianNoise, HorizontalFlip, IdxPair,
                                NoAugment, SyntheticSpec, TruncatedPayloadError,
                                epoch_batches, epoch_seed, gen_gaussian, load_csv, load_idx,
                                make_batch)
from dropfresh.datasets import _mix, _uniforms
from helpers import bit_equal, example_ids, save_csv, subset


def idx_image_bytes(images: np.ndarray) -> bytes:
    n, h, w = images.shape
    header = (0x00000803).to_bytes(4, "big") + n.to_bytes(4, "big") \
        + h.to_bytes(4, "big") + w.to_bytes(4, "big")
    return header + images.astype(np.uint8).tobytes()


def idx_label_bytes(labels: np.ndarray) -> bytes:
    return (0x00000801).to_bytes(4, "big") + len(labels).to_bytes(4, "big") \
        + labels.astype(np.uint8).tobytes()


@pytest.fixture
def idx_pair(tmp_path):
    images = np.array([[[0, 51], [102, 255]],
                       [[255, 204], [153, 0]],
                       [[10, 20], [30, 40]]], dtype=np.uint8)
    labels = np.array([3, 0, 9], dtype=np.uint8)
    image_path = tmp_path / "images-idx3-ubyte"
    label_path = tmp_path / "labels-idx1-ubyte"
    image_path.write_bytes(idx_image_bytes(images))
    label_path.write_bytes(idx_label_bytes(labels))
    return image_path, label_path, images, labels


def test_load_idx_round_trip(idx_pair):
    image_path, label_path, images, labels = idx_pair
    ds = load_idx(image_path, label_path)
    assert ds.n == 3 and ds.dim == 4
    assert ds.class_count == 10
    assert ds.image_shape == (2, 2, 1)
    assert np.array_equal(ds.features, images.reshape(3, 4) / 255.0)
    assert np.array_equal(ds.labels, labels.astype(np.int64))
    assert ds.features.dtype == np.float64


def test_load_idx_bad_magic(idx_pair):
    image_path, label_path, _, _ = idx_pair
    # a label file offered as the image file, and vice versa
    with pytest.raises(BadMagicError) as err:
        load_idx(label_path, label_path)
    message = str(err.value)
    assert str(label_path) in message
    assert "0x00000801" in message and "0x00000803" in message
    with pytest.raises(BadMagicError, match="0x00000803"):
        load_idx(image_path, image_path)


def test_load_idx_truncated(idx_pair, tmp_path):
    image_path, label_path, _, _ = idx_pair
    clipped = tmp_path / "clipped-images"
    clipped.write_bytes(image_path.read_bytes()[:-1])
    with pytest.raises(TruncatedPayloadError, match="clipped-images"):
        load_idx(clipped, label_path)
    stub = tmp_path / "stub"
    stub.write_bytes(b"\x00\x00\x08\x03\x00\x00")  # valid magic, header cut short
    with pytest.raises(TruncatedPayloadError, match="header"):
        load_idx(stub, label_path)


def test_load_idx_count_mismatch(idx_pair, tmp_path):
    image_path, label_path, _, _ = idx_pair
    short_labels = tmp_path / "short-labels"
    short_labels.write_bytes(idx_label_bytes(np.array([1, 2], dtype=np.uint8)))
    with pytest.raises(CountMismatchError) as err:
        load_idx(image_path, short_labels)
    assert str(image_path) in str(err.value) and "short-labels" in str(err.value)


def test_load_idx_class_count_override(idx_pair):
    image_path, label_path, _, _ = idx_pair
    assert load_idx(image_path, label_path, class_count=12).class_count == 12
    with pytest.raises(DatasetError, match="labels must lie"):
        load_idx(image_path, label_path, class_count=5)  # label 9 out of range


def test_load_idx_pixels_are_bytes_over_255_bit_for_bit(tmp_path):
    # u * (1/255) differs from u / 255 on 24 of the 256 byte values
    images = np.arange(256, dtype=np.uint8).reshape(16, 4, 4)
    labels = np.arange(16, dtype=np.uint8) % 10
    image_path, label_path = tmp_path / "images", tmp_path / "labels"
    image_path.write_bytes(idx_image_bytes(images))
    label_path.write_bytes(idx_label_bytes(labels))
    expected = np.array([u / 255.0 for u in range(256)]).reshape(16, 16)
    assert load_idx(image_path, label_path).features.tobytes() == expected.tobytes()
    ids = np.array([3, 0, 15, 7])
    rows, pair = IdxPair(image_path, label_path).take(ids, [1, 2])
    assert rows.features.tobytes() == expected[ids].tobytes()
    assert rows.labels.tolist() == labels[ids].tolist() and rows.image_shape == (4, 4, 1)
    assert pair.features.tobytes() == expected[[1, 2]].tobytes()


def test_idx_pair_reads_no_pixels_until_take(idx_pair, monkeypatch):
    image_path, label_path, _, _ = idx_pair
    pixels_read = []
    real_fromfile = np.fromfile
    monkeypatch.setattr(np, "fromfile", lambda *a, **k: pixels_read.append(a) or
                        real_fromfile(*a, **k))
    pair = IdxPair(image_path, label_path, class_count=10)
    assert (pair.n, pair.dim, pair.image_shape) == (3, 4, (2, 2, 1))
    assert pair.labels.tolist() == [3, 0, 9] and not pixels_read
    pair.take(slice(None), [0], [2, 1])
    assert len(pixels_read) == 1  # one read for every row set


def test_csv_round_trip(tmp_path):
    ds = Dataset(np.array([[math.pi, -1.5e-8], [2.0 / 3.0, 1e300]]),
                 np.array([1, 0]), class_count=2)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.class_count == 2


def test_load_csv_infers_class_count(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0,1.0\n3,2.0\n")
    assert load_csv(path).class_count == 4
    assert load_csv(path, class_count=7).class_count == 7
    path.write_text("0,1.0\n0,2.0\n")
    assert load_csv(path).class_count == 2  # an inferred count is at least 2
    for explicit in (1, 0, -3):  # a set count is used as given, so the dataset check sees it
        with pytest.raises(DatasetError, match=rf"class_count must be >= 2, got {explicit}$"):
            load_csv(path, class_count=explicit)


def test_load_csv_errors_name_line(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2.0\n2,3.0,4.0\n")
    with pytest.raises(DatasetError, match="ragged.csv:2"):
        load_csv(ragged)
    bad_feature = tmp_path / "badf.csv"
    bad_feature.write_text("1,2.0\n0,oops\n")
    with pytest.raises(DatasetError, match="badf.csv:2: non-numeric"):
        load_csv(bad_feature)
    bad_label = tmp_path / "badl.csv"
    bad_label.write_text("1.5,2.0\n")
    with pytest.raises(DatasetError, match="non-integer label"):
        load_csv(bad_label)
    negative = tmp_path / "neg.csv"
    negative.write_text("-1,2.0\n")
    with pytest.raises(DatasetError, match="negative label"):
        load_csv(negative)
    empty = tmp_path / "empty.csv"
    empty.write_text("\n\n")
    with pytest.raises(DatasetError, match="no data rows"):
        load_csv(empty)


def test_load_csv_names_the_line_of_a_label_too_large_for_int64(tmp_path):
    path = tmp_path / "big.csv"
    for label in (sys.maxsize, "9" * 401):
        path.write_text(f"0,1.0\n{label},2.0\n")
        with pytest.raises(DatasetError, match=f"big.csv:2: label above {sys.maxsize - 1}$"):
            load_csv(path)
    path.write_text(f"0,1.0\n{sys.maxsize - 1},2.0\n")  # the largest label loads
    assert load_csv(path).class_count == sys.maxsize


def test_dataset_validation():
    with pytest.raises(DatasetError, match="labels must lie"):
        Dataset(np.ones((2, 2)), np.array([0, 5]), class_count=3)
    with pytest.raises(DatasetError, match="non-finite"):
        Dataset(np.array([[np.nan]]), np.array([0]), class_count=2)
    with pytest.raises(DatasetError, match="image_shape"):
        Dataset(np.ones((1, 4)), np.array([0]), class_count=2, image_shape=(3, 3, 1))
    with pytest.raises(DatasetError, match="n >= 1"):
        Dataset(np.ones((0, 4)), np.zeros(0, dtype=np.int64), class_count=2)


def test_dataset_subset_reindexes():
    ds = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]), class_count=2)
    sub = subset(ds, [2, 3])
    assert sub.n == 2
    assert np.array_equal(example_ids(sub), [0, 1])
    assert np.array_equal(sub.features, ds.features[2:])
    sub.features[0, 0] = -99.0
    assert ds.features[2, 0] == 4.0  # subset owns its memory


@pytest.mark.parametrize("ids", [[3, 1], np.array([3, 1]), np.array([3, 1], dtype=np.int32)])
def test_dataset_subset_accepts_lists_and_arrays_and_shares_no_memory(ids):
    ds = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]), class_count=2,
                 image_shape=(1, 2, 1))
    sub = subset(ds, ids)
    assert sub.features.tolist() == [[6.0, 7.0], [2.0, 3.0]]
    assert sub.labels.tolist() == [1, 1]
    assert (sub.class_count, sub.image_shape) == (2, (1, 2, 1))
    assert not np.shares_memory(sub.features, ds.features)
    assert not np.shares_memory(sub.labels, ds.labels)
    with pytest.raises(DatasetError, match="n >= 1"):
        subset(ds, [])


def test_gen_gaussian_layout_and_determinism():
    spec = SyntheticSpec(means=((0.0, 0.0), (10.0, 10.0)), stds=(1.0,),
                         counts=(3, 5), seed=42)
    a, b = gen_gaussian(spec), gen_gaussian(spec)
    assert a.n == 8 and a.class_count == 2
    assert a.labels.tolist() == [0, 0, 0, 1, 1, 1, 1, 1]
    assert np.array_equal(a.features, b.features)
    assert abs(a.features[:3].mean() - 0.0) < 3.0
    assert abs(a.features[3:].mean() - 10.0) < 3.0


def test_gen_gaussian_zero_std_hits_means():
    spec = SyntheticSpec(means=((1.0, 2.0), (3.0, 4.0)), stds=(0.0, 0.0),
                         counts=(2, 2), seed=0)
    ds = gen_gaussian(spec)
    assert np.array_equal(ds.features, [[1, 2], [1, 2], [3, 4], [3, 4]])


def test_synthetic_spec_validation():
    with pytest.raises(DatasetError, match="counts"):
        SyntheticSpec(means=((0.0,),), stds=(1.0,), counts=(0,), seed=0)
    with pytest.raises(DatasetError, match="stds"):
        SyntheticSpec(means=((0.0,), (1.0,)), stds=(-1.0,), counts=(1, 1), seed=0)
    with pytest.raises(DatasetError, match="dimension"):
        SyntheticSpec(means=((0.0,), (1.0, 2.0)), stds=(1.0,), counts=(1, 1), seed=0)
    with pytest.raises(DatasetError, match="stds"):
        SyntheticSpec(means=((0.0,), (1.0,)), stds=(1.0, 1.0, 1.0), counts=(1, 1), seed=0)


def one_row(dataset: Dataset, policy, epoch_key: int, example_id: int) -> np.ndarray:
    """Example ``example_id`` as a batch of one transforms it."""
    return make_batch(dataset, [example_id], policy, epoch_key).features[0]


def test_augment_none_is_identity():
    ds = Dataset(np.array([[1.0, -0.0, 3.0], [4.0, 5.0, -6.5]]), np.array([0, 1]), class_count=2)
    for policy in (NoAugment(), GaussianNoise(0.0)):  # zero noise adds nothing, not even -0.0
        batch = make_batch(ds, [1, 0, 1], policy, epoch_key=5)
        assert bit_equal(batch.features, ds.features[[1, 0, 1]])


def test_gaussian_noise_keyed_by_epoch_and_example():
    ds = Dataset(np.zeros((5, 4)), np.arange(5) % 2, class_count=2)
    policy = GaussianNoise(sigma=0.5)
    a = one_row(ds, policy, epoch_key=10, example_id=3)
    again = one_row(ds, policy, epoch_key=10, example_id=3)
    other_example = one_row(ds, policy, epoch_key=10, example_id=4)
    other_epoch = one_row(ds, policy, epoch_key=11, example_id=3)
    assert np.array_equal(a, again)
    assert not np.array_equal(a, other_example)
    assert not np.array_equal(a, other_epoch)


def test_gaussian_noise_validation():
    with pytest.raises(DatasetError, match="sigma"):
        GaussianNoise(sigma=-0.1)


def test_horizontal_flip_involution():
    x = np.arange(12.0).reshape(2, 6)  # two 2x3 images, asymmetric
    ds = Dataset(x, np.array([0, 1]), class_count=2, image_shape=(2, 3, 1))
    policy = HorizontalFlip(prob=1.0)
    flipped = make_batch(ds, [0, 1], policy, 1).features
    assert flipped.tolist() == [[2, 1, 0, 5, 4, 3], [8, 7, 6, 11, 10, 9]]
    again = Dataset(flipped, ds.labels, class_count=2, image_shape=(2, 3, 1))
    assert np.array_equal(make_batch(again, [0, 1], policy, 1).features, x)
    assert np.array_equal(make_batch(ds, [0, 1], HorizontalFlip(prob=0.0), 1).features, x)


def test_horizontal_flip_needs_image_shape():
    ds = Dataset(np.arange(4.0).reshape(1, 4), np.array([0]), class_count=2)
    with pytest.raises(DatasetError, match="image-shaped"):
        make_batch(ds, [0], HorizontalFlip(prob=1.0), 1)


def test_make_batch_refuses_an_unknown_policy():
    ds = Dataset(np.arange(4.0).reshape(1, 4), np.array([0]), class_count=2)
    with pytest.raises(DatasetError, match="unknown augmentation policy"):
        make_batch(ds, [0], "horizontal_flip", 1)


def test_epoch_seed_distinct():
    keys = {epoch_seed(run_seed=1, epoch=e) for e in range(1, 50)}
    assert len(keys) == 49
    assert epoch_seed(1, 3) == epoch_seed(1, 3)
    assert epoch_seed(1, 3) != epoch_seed(2, 3)


def test_epoch_batches_partition():
    ids = (3, 5, 8, 9, 12, 20, 21)
    batches = epoch_batches(ids, batch_size=3, run_seed=0, epoch=1)
    assert [len(b) for b in batches] == [3, 3, 1]
    flat = list(itertools.chain.from_iterable(batches))
    assert sorted(flat) == sorted(ids)
    assert len(set(flat)) == len(ids)


def test_epoch_batches_deterministic_per_epoch():
    ids = tuple(range(40))

    def plan(run_seed, epoch):
        return [b.tolist() for b in epoch_batches(ids, 7, run_seed=run_seed, epoch=epoch)]

    assert plan(4, 2) == plan(4, 2)
    assert plan(4, 2) != plan(4, 3)
    assert plan(5, 2) != plan(4, 2)


def test_epoch_batches_edge_sizes():
    assert [b.tolist() for b in epoch_batches((4,), 10, 0, 1)] == [[4]]
    singles = epoch_batches((1, 2, 3), 1, 0, 1)
    assert [len(b) for b in singles] == [1, 1, 1]


def test_epoch_batches_validation():
    with pytest.raises(DatasetError, match="batch_size"):
        epoch_batches((1, 2), 0, 0, 1)
    with pytest.raises(DatasetError, match="empty"):
        epoch_batches((), 4, 0, 1)


def test_shuffle_visits_all_orders():
    # 4 ids have 24 orderings; over 10000 epochs each should land well inside
    # a 5-sigma band around 10000/24.
    ids = (0, 1, 2, 3)
    counts: dict[tuple[int, ...], int] = {}
    for epoch in range(1, 10001):
        (order,) = [tuple(itertools.chain.from_iterable(
            epoch_batches(ids, 4, run_seed=9, epoch=epoch)))]
        counts[order] = counts.get(order, 0) + 1
    assert len(counts) == 24
    assert min(counts.values()) > 317
    assert max(counts.values()) < 516


def test_make_batch_gathers_and_copies():
    ds = Dataset(np.arange(12.0).reshape(6, 2), np.array([0, 1, 2, 0, 1, 2]),
                 class_count=3)
    batch = make_batch(ds, (5, 0, 2), NoAugment(), epoch_key=0)
    assert isinstance(batch, Batch)
    assert batch.ids.tolist() == [5, 0, 2]
    assert np.array_equal(batch.features, ds.features[[5, 0, 2]])
    assert np.array_equal(batch.labels, [2, 0, 2])
    batch.features[0, 0] = -1.0
    assert ds.features[5, 0] == 10.0


def test_epoch_batches_are_int64_slices():
    batches = epoch_batches(range(10), 4, run_seed=0, epoch=1)
    assert all(b.dtype == np.int64 for b in batches)
    assert all(b.base is batches[0].base is not None for b in batches)  # one permutation


def test_make_batch_applies_augmentation_per_example():
    # batch membership does not change the transform an example receives
    key = epoch_seed(0, 1)
    for policy in (GaussianNoise(1.0), HorizontalFlip(0.5)):
        for ds in pixel_pair():  # uint8 pixels, then float64 rows
            stored, shuffled = ds.stored.copy(), np.random.default_rng(5).permutation(ds.n)
            batch = make_batch(ds, np.arange(ds.n), policy, key).features
            for i in range(ds.n):
                assert bit_equal(one_row(ds, policy, key, i), batch[i])
            assert bit_equal(make_batch(ds, shuffled, policy, key).features, batch[shuffled])
            changed = (batch != ds.features).any(axis=1)
            assert changed.any() and (isinstance(policy, GaussianNoise) or not changed.all())
            assert bit_equal(ds.stored, stored)  # the transform works on a gathered copy


def test_make_batch_applies_flip_per_example():
    ds = Dataset(np.arange(48.0).reshape(8, 6), np.arange(8) % 2, class_count=2,
                 image_shape=(2, 3, 1))
    policy = HorizontalFlip(prob=0.5)
    key = epoch_seed(0, 1)
    ids = list(range(8))
    batch = make_batch(ds, ids, policy, key)
    # example i is mirrored along the width iff its first draw falls below prob
    draws = _uniforms(key, np.array(ids, dtype=np.int64), 1)[:, 0]
    images = ds.features.reshape(8, 2, 3, 1)
    rows = [(images[i, :, ::-1] if draws[i] < 0.5 else images[i]).reshape(6) for i in ids]
    assert np.array_equal(batch.features, np.stack(rows))
    flipped = [i for i in ids if not np.array_equal(rows[i], ds.features[i])]
    assert 0 < len(flipped) < len(ids)  # both branches are exercised
    # batch membership does not change the transform an example receives
    for i in ids:
        assert np.array_equal(one_row(ds, policy, key, i), batch.features[i])
    assert np.array_equal(ds.features, np.arange(48.0).reshape(8, 6))


def test_mix_matches_published_splitmix64_outputs():
    # SplitMix64 seeded with 0 emits mix(k * golden) for k = 1, 2, 3, ...
    golden = np.uint64(0x9E3779B97F4A7C15)
    outputs = _mix(np.arange(1, 4, dtype=np.uint64) * golden)
    assert outputs.tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_uniforms_depend_on_key_id_and_index_only():
    ids = np.array([7, 0, 2**40, 7], dtype=np.int64)
    u = _uniforms(12345, ids, 5)
    assert u.shape == (4, 5) and u.dtype == np.float64
    assert ((u >= 0.0) & (u < 1.0)).all()
    assert np.array_equal(u[0], u[3])  # same id, same draws, wherever it sits
    assert np.array_equal(u[:, :2], _uniforms(12345, ids, 2))  # a prefix of longer streams
    assert np.array_equal(u[1:3], _uniforms(12345, ids[1:3], 5))
    assert not np.array_equal(u, _uniforms(12346, ids, 5))
    assert np.array_equal(u * 2.0 ** 53, np.floor(u * 2.0 ** 53))  # 53-bit grid


def mix_reference(z: int) -> int:
    """SplitMix64's finalizer on Python ints, wrapped to 64 bits by hand."""
    mask = 2**64 - 1
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_uniforms_match_a_python_integer_reference():
    golden, mask = 0x9E3779B97F4A7C15, 2**64 - 1
    ids = [0, 1, 12345, 2**62, 2**63 - 1]
    for key in (0, 7, 2**32 - 1):
        u = _uniforms(key, np.array(ids, dtype=np.int64), 3)
        for r, example_id in enumerate(ids):
            stream = mix_reference((mix_reference(key) + example_id * golden) & mask)
            for j in range(3):
                draw = mix_reference((stream + (j + 1) * golden) & mask)
                assert u[r, j] == (draw >> 11) / 2**53


def test_gaussian_noise_is_box_muller_of_the_uniforms():
    ds = Dataset(np.zeros((5, 5)), np.arange(5) % 2, class_count=2)
    u = _uniforms(99, np.array([4], dtype=np.int64), 6)[0]
    # pair k is (u[k], u[3 + k]); the three cosine draws come first, then the sines
    radius = [math.sqrt(-2.0 * math.log1p(-u[k])) for k in range(3)]
    angle = [2.0 * math.pi * u[3 + k] for k in range(3)]
    normals = ([r * math.cos(a) for r, a in zip(radius, angle)]
               + [r * math.sin(a) for r, a in zip(radius, angle)])
    assert np.allclose(one_row(ds, GaussianNoise(2.0), 99, 4), 2.0 * np.array(normals[:5]),
                       rtol=1e-12, atol=1e-12)


def flip_rate(prob: float, n: int = 100_000) -> float:
    # each row is a 1x2 image [0, 1]; a flip turns it into [1, 0]
    ds = Dataset(np.tile([0.0, 1.0], (n, 1)), np.arange(n) % 2, class_count=2,
                 image_shape=(1, 2, 1))
    batch = make_batch(ds, np.arange(n), HorizontalFlip(prob), epoch_seed(0, 1))
    return float(batch.features[:, 0].mean())


@pytest.mark.parametrize("prob", [0.5, 0.1])
def test_flip_rate_matches_prob(prob):
    n = 100_000
    assert abs(flip_rate(prob, n) - prob) < 4 * math.sqrt(prob * (1 - prob) / n)


def test_flip_prob_zero_never_and_one_always():
    assert flip_rate(0.0) == 0.0
    assert flip_rate(1.0) == 1.0


@pytest.mark.parametrize("dim", [4, 3])
def test_gaussian_noise_moments(dim):
    n = 100_000
    ds = Dataset(np.zeros((n, dim)), np.arange(n) % 2, class_count=2)
    noise = make_batch(ds, np.arange(n), GaussianNoise(1.0), epoch_seed(0, 1)).features
    # per column: mean 0 (sd 1/sqrt(n)) and variance 1 (sd sqrt(2/n)), 4 sigma
    assert np.abs(noise.mean(axis=0)).max() < 4 / math.sqrt(n)
    assert np.abs(noise.var(axis=0) - 1.0).max() < 4 * math.sqrt(2 / n)
    # pooled fourth moment 3 (x**4 has variance 105 - 9 = 96)
    assert abs((noise ** 4).mean() - 3.0) < 4 * math.sqrt(96 / noise.size)
    # columns are uncorrelated, the cos/sin pair of one draw included
    corr = np.corrcoef(noise, rowvar=False)
    assert np.abs(corr - np.eye(dim)).max() < 4 / math.sqrt(n)


def test_extreme_ids_and_keys_augment_without_warnings():
    ds = Dataset(np.arange(12.0).reshape(2, 6), np.array([0, 1]), class_count=2,
                 image_shape=(2, 3, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for key in (0, 2**32 - 1, 2**64 - 1):
            flipped = make_batch(ds, [1, 0], HorizontalFlip(1.0), key).features
            assert flipped.tolist() == [[8, 7, 6, 11, 10, 9], [2, 1, 0, 5, 4, 3]]
            noisy = make_batch(ds, [1, 0], GaussianNoise(1.0), key).features
            assert np.isfinite(noisy).all() and not np.array_equal(noisy, ds.features[[1, 0]])
        # ids of 2**62 and above index no dataset, but their draws are still well defined
        ids = np.array([0, 2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1], dtype=np.int64)
        for key in (0, 2**32 - 1):
            assert np.isfinite(_uniforms(key, ids, 3)).all()


def pixel_pair(n: int = 40, side: int = 8, seed: int = 3) -> tuple[Dataset, Dataset]:
    """The same images as uint8 pixels and as float64 ``u8 / 255.0``; every byte value occurs."""
    rng = np.random.default_rng(seed)
    u8 = rng.permutation(np.resize(np.arange(256, dtype=np.uint8), n * side * side))
    u8 = u8.reshape(n, side * side)
    labels = rng.integers(0, 10, size=n)
    return (Dataset(u8, labels, 10, (side, side, 1), pixels=True),
            Dataset(u8 / 255.0, labels, 10, (side, side, 1)))


@pytest.mark.parametrize("policy", [NoAugment(), HorizontalFlip(0.5), GaussianNoise(0.3)])
def test_make_batch_on_pixels_matches_float_data_bit_for_bit(policy):
    pixels, floats = pixel_pair()
    ids = np.array([5, 0, 39, 12, 7, 7, 21, 33, 2, 18, 30, 11])
    key = epoch_seed(4, 2)
    got, want = make_batch(pixels, ids, policy, key), make_batch(floats, ids, policy, key)
    assert got.features.dtype == np.float64
    assert bit_equal(got.features, want.features)
    assert got.labels.tolist() == want.labels.tolist()
    if isinstance(policy, HorizontalFlip):  # both branches occur in this batch
        flipped = [not np.array_equal(row, floats.features[i]) for i, row in zip(ids, got.features)]
        assert any(flipped) and not all(flipped)


def test_make_batch_flips_pixels_before_converting_them():
    pixels, floats = pixel_pair()
    seen = []

    def spy(rows):  # what make_batch hands the conversion
        seen.append(rows.copy())
        return Dataset.as_float(pixels, rows)

    pixels.as_float = spy
    ids = np.arange(40)
    batch = make_batch(pixels, ids, HorizontalFlip(0.5), epoch_seed(1, 1))
    assert len(seen) == 1 and seen[0].dtype == np.uint8
    assert bit_equal(seen[0] / 255.0, batch.features)  # already flipped
    assert not np.array_equal(batch.features, floats.features)


def test_pixel_dataset_keeps_uint8_storage_and_converts_rows_on_read():
    pixels, floats = pixel_pair()
    assert pixels.stored.dtype == np.uint8 and pixels.n == 40 and pixels.dim == 64
    assert bit_equal(pixels.features, floats.features)
    assert bit_equal(pixels.rows([3, 1]), floats.features[[3, 1]])
    assert bit_equal(pixels.rows(slice(2, 5)), floats.rows(slice(2, 5)))
    sub = subset(pixels, [4, 9])
    assert sub.stored.dtype == np.uint8 and sub.pixels
    assert bit_equal(sub.features, floats.features[[4, 9]])
    with pytest.raises(DatasetError, match="uint8"):
        Dataset(floats.features, floats.labels, 10, pixels=True)


def test_idx_data_is_held_as_uint8_and_never_as_a_float64_matrix(tmp_path):
    n, side = 300, 28
    images = np.resize(np.arange(256, dtype=np.uint8), n * side * side).reshape(n, side, side)
    image_path, label_path = tmp_path / "images", tmp_path / "labels"
    image_path.write_bytes(idx_image_bytes(images))
    label_path.write_bytes(idx_label_bytes(np.arange(n) % 10))
    tracemalloc.start()
    try:
        ds = load_idx(image_path, label_path)
        train, val = IdxPair(image_path, label_path).take(np.arange(0, n, 2), np.arange(1, n, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * side * side * 8 / 2  # a float64 copy of either half would not fit
    for split in (ds, train, val):
        assert split.stored.dtype == np.uint8 and split.pixels
        assert not [name for name, value in vars(split).items()
                    if isinstance(value, np.ndarray) and value.dtype == np.float64]
    assert bit_equal(train.features, images[::2].reshape(-1, side * side) / 255.0)
