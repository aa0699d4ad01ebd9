import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clta.data import (IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, SIGMA_LADDER,
                       CorruptionSpec, Dataset, Task, TaskStream,
                       corrupt_every_other, corrupt_gaussian, load_cifar_binary,
                       load_idx, split_classes, stream_from_datasets,
                       synthetic_stream)
from clta.errors import (CltaError, ConsistencyError, DataError, FormatError,
                         NumericError, ParameterError, TruncatedFileError)


class TestDataset:
    def test_count_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), 4)

    def test_label_range(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 2)), np.array([0, 4]), 4)
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 2)), np.array([-1, 0]), 4)

    def test_inputs_must_live_in_unit_interval(self):
        with pytest.raises(DataError):
            Dataset(np.full((2, 2), 1.5), np.array([0, 1]), 4)


class TestTaskAndStream:
    def _dataset(self, labels, num_classes=6):
        labels = np.asarray(labels)
        return Dataset(np.full((len(labels), 2), 0.5), labels, num_classes)

    def test_task_rejects_foreign_labels(self):
        with pytest.raises(DataError):
            Task(classes=[0, 1], train=self._dataset([0, 2]),
                 test=self._dataset([1]))

    def test_local_labels_reindex_to_task_range(self):
        task = Task(classes=[4, 2], train=self._dataset([4, 2, 4]),
                    test=self._dataset([2]))
        np.testing.assert_array_equal(task.local_labels(task.train), [0, 1, 0])

    def test_stream_rejects_overlap(self):
        t1 = Task(classes=[0, 1], train=self._dataset([0]), test=self._dataset([1]))
        t2 = Task(classes=[1, 2], train=self._dataset([1]), test=self._dataset([2]))
        with pytest.raises(DataError):
            TaskStream([t1, t2])

    def test_stream_must_not_be_empty(self):
        with pytest.raises(DataError):
            TaskStream([])

    def test_class_order_concatenates_task_classes(self):
        t1 = Task(classes=[3, 0], train=self._dataset([3]), test=self._dataset([0]))
        t2 = Task(classes=[5, 1], train=self._dataset([5]), test=self._dataset([1]))
        stream = TaskStream([t1, t2])
        np.testing.assert_array_equal(stream.class_order, [3, 0, 5, 1])
        assert stream.class_counts == [2, 2]


class TestSplitClasses:
    def test_equal_identity_order(self):
        groups = split_classes(4, "equal", 2)
        np.testing.assert_array_equal(groups[0], [0, 1])
        np.testing.assert_array_equal(groups[1], [2, 3])

    def test_half_first_layout(self):
        groups = split_classes(100, "half_first", 10)
        assert len(groups) == 11
        assert len(groups[0]) == 50
        assert all(len(g) == 5 for g in groups[1:])
        np.testing.assert_array_equal(np.sort(np.concatenate(groups)), np.arange(100))

    def test_order_seed_permutes_deterministically(self):
        a = split_classes(8, "equal", 2, order_seed=5)
        b = split_classes(8, "equal", 2, order_seed=5)
        c = split_classes(8, "equal", 2, order_seed=6)
        np.testing.assert_array_equal(a[0], b[0])
        assert not np.array_equal(a[0], c[0]) or not np.array_equal(a[1], c[1])

    def test_indivisible_split_rejected(self):
        with pytest.raises(ParameterError):
            split_classes(10, "equal", 3)
        with pytest.raises(ParameterError):
            split_classes(10, "half_first", 4)

    def test_unknown_scheme(self):
        with pytest.raises(ParameterError):
            split_classes(4, "fibonacci", 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=1000))
def test_equal_split_partitions_everything(parts, group_size, order_seed):
    num_classes = parts * group_size
    groups = split_classes(num_classes, "equal", parts, order_seed=order_seed)
    assert len(groups) == parts
    merged = np.sort(np.concatenate(groups))
    np.testing.assert_array_equal(merged, np.arange(num_classes))


class TestSyntheticStream:
    def test_shapes_and_split_sizes(self):
        stream = synthetic_stream(3, 2, 20, dim=5, seed=0)
        assert len(stream) == 3
        for t, task in enumerate(stream.tasks):
            assert task.train.inputs.shape == (32, 5)
            assert task.test.inputs.shape == (8, 5)
            np.testing.assert_array_equal(np.unique(task.classes), [2 * t, 2 * t + 1])

    def test_deterministic_per_seed(self):
        a = synthetic_stream(2, 2, 10, dim=4, seed=3)
        b = synthetic_stream(2, 2, 10, dim=4, seed=3)
        c = synthetic_stream(2, 2, 10, dim=4, seed=4)
        np.testing.assert_array_equal(a.tasks[0].train.inputs, b.tasks[0].train.inputs)
        assert not np.array_equal(a.tasks[0].train.inputs, c.tasks[0].train.inputs)

    def test_inputs_stay_in_unit_interval(self):
        stream = synthetic_stream(4, 2, 15, dim=6, shift=0.4, seed=1)
        for task in stream.tasks:
            assert task.train.inputs.min() >= 0.0
            assert task.train.inputs.max() <= 1.0

    def test_shift_brightens_later_tasks(self):
        stream = synthetic_stream(3, 2, 40, dim=8, shift=0.15, seed=2)
        means = [task.train.inputs.mean() for task in stream.tasks]
        assert means[0] < means[1] < means[2]

    def test_a_sum_that_overflows_clips_without_a_warning(self):
        """Samples and an offset near the float maximum overflow to inf, which
        clips to 1 as the exact sum would."""
        inputs = synthetic_stream(1, 2, 20, dim=4, shift=1e308, blob_std=1e308,
                                  seed=0).tasks[0].train.inputs
        assert set(np.unique(inputs)) == {0.0, 1.0}

    @pytest.mark.parametrize("shift", [1.7e308, -1.7e308])
    def test_an_infinite_sample_against_an_infinite_offset_raises_numeric_error(self, shift):
        """A spread near the float maximum draws infinite samples; against an
        infinite offset of the other sign their sum has no value."""
        with pytest.raises(NumericError,
                           match=r"^task 2: shift .*, blob_std 1\.7e\+308 give inf - inf$"):
            synthetic_stream(2, 2, 5, dim=4, shift=shift, blob_std=1.7e308, seed=0)

    def test_image_mode_renders_channel_grids(self):
        stream = synthetic_stream(2, 2, 8, image_shape=(1, 8, 8), seed=0)
        assert stream.tasks[0].train.inputs.shape == (12, 1, 8, 8)

    def test_requires_exactly_one_geometry(self):
        with pytest.raises(ParameterError):
            synthetic_stream(2, 2, 8, seed=0)
        with pytest.raises(ParameterError):
            synthetic_stream(2, 2, 8, dim=4, image_shape=(1, 4, 4), seed=0)

    def test_counts_must_be_positive(self):
        with pytest.raises(ParameterError):
            synthetic_stream(0, 2, 8, dim=4, seed=0)


class TestStreamFromDatasets:
    def test_slices_along_class_groups(self):
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(4), 6)
        train = Dataset(rng.uniform(size=(24, 3)), labels, 4)
        test = Dataset(rng.uniform(size=(24, 3)), labels, 4)
        stream = stream_from_datasets(train, test, [np.array([1, 3]), np.array([0, 2])])
        assert len(stream) == 2
        np.testing.assert_array_equal(np.unique(stream.tasks[0].train.labels), [1, 3])
        assert len(stream.tasks[0].train) == 12
        np.testing.assert_array_equal(stream.tasks[1].classes, [0, 2])


def idx_image_bytes(pixels, rows=1, cols=1, magic=IDX_IMAGE_MAGIC):
    n = len(pixels) // (rows * cols)
    return struct.pack(">IIII", magic, n, rows, cols) + bytes(pixels)


def idx_label_bytes(labels, magic=IDX_LABEL_MAGIC):
    return struct.pack(">II", magic, len(labels)) + bytes(labels)


class TestIdxLoading:
    def test_two_pixel_fixture(self, tmp_path):
        """Two 1x1 images with bytes 0 and 255 load as exactly 0.0 and 1.0."""
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(idx_image_bytes([0, 255]))
        lab.write_bytes(idx_label_bytes([1, 0]))
        ds = load_idx(img, lab, num_classes=2)
        assert ds.inputs.shape == (2, 1, 1, 1)
        np.testing.assert_array_equal(ds.inputs.ravel(), [0.0, 1.0])
        np.testing.assert_array_equal(ds.labels, [1, 0])

    def test_bad_image_magic(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(idx_image_bytes([0], magic=0x00000999))
        lab.write_bytes(idx_label_bytes([0]))
        with pytest.raises(FormatError):
            load_idx(img, lab)

    def test_bad_label_magic(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(idx_image_bytes([0]))
        lab.write_bytes(idx_label_bytes([0], magic=IDX_IMAGE_MAGIC))
        with pytest.raises(FormatError):
            load_idx(img, lab)

    def test_truncated_pixels(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 2, 2, 2) + b"\x00" * 3)
        lab.write_bytes(idx_label_bytes([0, 1]))
        with pytest.raises(TruncatedFileError):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(idx_image_bytes([0, 255]))
        lab.write_bytes(idx_label_bytes([1]))
        with pytest.raises(ConsistencyError):
            load_idx(img, lab)


class TestCifarLoading:
    def test_record_layout(self, tmp_path):
        record1 = bytes([3]) + bytes([10] * 3072)
        record2 = bytes([7]) + bytes([255] * 3072)
        path = tmp_path / "batch.bin"
        path.write_bytes(record1 + record2)
        ds = load_cifar_binary(path)
        assert ds.inputs.shape == (2, 3, 32, 32)
        np.testing.assert_array_equal(ds.labels, [3, 7])
        np.testing.assert_allclose(ds.inputs[0], 10.0 / 255.0)
        np.testing.assert_allclose(ds.inputs[1], 1.0)

    def test_misaligned_file_rejected(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(FormatError):
            load_cifar_binary(path)


IDX_PAIR = (idx_image_bytes(range(12), rows=2, cols=2), idx_label_bytes([0, 1, 2]))
IDX_HEADERS = (16, 8)
CIFAR_FILE = b"".join(bytes([label]) + bytes(range(256)) * 12 for label in (3, 7))


def mutated(data, blob, header_size):
    """``blob`` with up to four bytes overwritten, biased toward the header,
    and perhaps truncated."""
    offset = st.integers(0, header_size - 1) | st.integers(0, len(blob) - 1)
    out = bytearray(blob)
    for pos, value in data.draw(st.lists(st.tuples(offset, st.integers(0, 255)), max_size=4)):
        out[pos] = value
    cut = data.draw(st.none() | st.integers(0, len(blob)))
    return bytes(out if cut is None else out[:cut])


class TestCorruptFiles:
    def write_pair(self, root, images, labels):
        (root / "img.idx").write_bytes(images)
        (root / "lab.idx").write_bytes(labels)
        return root / "img.idx", root / "lab.idx"

    def test_huge_image_header_allocates_nothing(self, tmp_path):
        header = struct.pack(">IIII", IDX_IMAGE_MAGIC, 1048576, 1024, 16)
        pair = self.write_pair(tmp_path, header + bytes(8), IDX_PAIR[1])
        with pytest.raises(TruncatedFileError, match="byte 16"):
            load_idx(*pair)

    def test_sizes_past_the_index_range(self, tmp_path):
        header = struct.pack(">IIII", IDX_IMAGE_MAGIC, 2 ** 31, 2 ** 31, 2 ** 31)
        pair = self.write_pair(tmp_path, header + bytes(8), IDX_PAIR[1])
        with pytest.raises(TruncatedFileError, match="byte 16"):
            load_idx(*pair)
        labels = struct.pack(">II", IDX_LABEL_MAGIC, 2 ** 31) + bytes(3)
        pair = self.write_pair(tmp_path, IDX_PAIR[0], labels)
        with pytest.raises(TruncatedFileError, match="byte 8"):
            load_idx(*pair)

    def test_empty_file_with_oversized_images(self, tmp_path):
        header = struct.pack(">IIII", IDX_IMAGE_MAGIC, 0, 0x2A000002, 0x62000002)
        pair = self.write_pair(tmp_path, header, IDX_PAIR[1])
        with pytest.raises(FormatError, match="too large"):
            load_idx(*pair)

    def test_empty_file_loads(self, tmp_path):
        header = struct.pack(">IIII", IDX_IMAGE_MAGIC, 0, 28, 28)
        labels = struct.pack(">II", IDX_LABEL_MAGIC, 0)
        ds = load_idx(*self.write_pair(tmp_path, header, labels))
        assert ds.inputs.shape == (0, 1, 28, 28)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), which=st.sampled_from([0, 1]))
    def test_only_clta_errors_escape_idx(self, tmp_path_factory, data, which):
        pair = list(IDX_PAIR)
        pair[which] = mutated(data, pair[which], IDX_HEADERS[which])
        paths = self.write_pair(tmp_path_factory.mktemp("idx"), *pair)
        try:
            load_idx(*paths)
        except CltaError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_only_clta_errors_escape_cifar(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("cifar") / "batch.bin"
        path.write_bytes(mutated(data, CIFAR_FILE, 1))
        try:
            load_cifar_binary(path)
        except CltaError:
            pass


class TestCorruption:
    def _dataset(self, seed=0, n=50):
        rng = np.random.default_rng(seed)
        return Dataset(rng.uniform(0.2, 0.8, size=(n, 6)),
                       rng.integers(0, 4, size=n), 4)

    def test_severity_ladder(self):
        assert CorruptionSpec(0).sigma == 0.0
        assert CorruptionSpec(1).sigma == SIGMA_LADDER[0] == 0.04
        assert CorruptionSpec(5).sigma == SIGMA_LADDER[-1] == 0.26
        with pytest.raises(ParameterError):
            CorruptionSpec(6)
        with pytest.raises(ParameterError):
            CorruptionSpec(-1)

    def test_severity_zero_is_identity(self):
        ds = self._dataset()
        assert corrupt_gaussian(ds, CorruptionSpec(0), seed=0) is ds

    def test_noise_is_seeded_and_bounded(self):
        ds = self._dataset()
        a = corrupt_gaussian(ds, CorruptionSpec(3), seed=11)
        b = corrupt_gaussian(ds, CorruptionSpec(3), seed=11)
        c = corrupt_gaussian(ds, CorruptionSpec(3), seed=12)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        assert not np.array_equal(a.inputs, c.inputs)
        assert a.inputs.min() >= 0.0 and a.inputs.max() <= 1.0
        np.testing.assert_array_equal(a.labels, ds.labels)

    def test_higher_severity_means_larger_perturbation(self):
        ds = self._dataset(n=400)
        low = corrupt_gaussian(ds, CorruptionSpec(1), seed=0)
        high = corrupt_gaussian(ds, CorruptionSpec(5), seed=0)
        assert np.abs(high.inputs - ds.inputs).mean() \
            > 2.0 * np.abs(low.inputs - ds.inputs).mean()

    def test_every_other_corrupts_even_tasks_only(self):
        stream = synthetic_stream(4, 2, 10, dim=5, seed=0)
        noisy = corrupt_every_other(stream, CorruptionSpec(4), seed=3)
        for i in (0, 2):
            np.testing.assert_array_equal(noisy.tasks[i].train.inputs,
                                          stream.tasks[i].train.inputs)
        for i in (1, 3):
            assert not np.array_equal(noisy.tasks[i].train.inputs,
                                      stream.tasks[i].train.inputs)
            assert not np.array_equal(noisy.tasks[i].test.inputs,
                                      stream.tasks[i].test.inputs)
            np.testing.assert_array_equal(noisy.tasks[i].train.labels,
                                          stream.tasks[i].train.labels)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=100))
def test_corruption_never_leaves_unit_interval(severity, seed):
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.uniform(size=(20, 3)), rng.integers(0, 2, size=20), 2)
    noisy = corrupt_gaussian(ds, CorruptionSpec(severity), seed=seed)
    assert noisy.inputs.min() >= 0.0
    assert noisy.inputs.max() <= 1.0
