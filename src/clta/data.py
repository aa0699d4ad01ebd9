"""Datasets, task streams, file ingestion, and corruption.

A task stream is an ordered list of tasks over pairwise-disjoint class
sets; each task carries its own train and test datasets labeled with
global class ids.  Synthetic streams draw one Gaussian blob per class
(vectors) or one rendered bump per class (images), with an optional
additive brightness offset that grows with the task index to create a
controllable input-distribution drift.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConsistencyError,
    DataError,
    FormatError,
    NumericError,
    ParameterError,
    TruncatedFileError,
)

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

SIGMA_LADDER = (0.04, 0.08, 0.12, 0.18, 0.26)


@dataclass
class Dataset:
    """One split of inputs in [0,1] with global integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"{self.inputs.shape[0]} inputs but {self.labels.shape[0]} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DataError(
                f"labels outside [0, {self.num_classes}): "
                f"range [{self.labels.min()}, {self.labels.max()}]"
            )
        # written so that a NaN, which fails every comparison, is rejected too
        if self.inputs.size and not (self.inputs.min() >= 0.0 and self.inputs.max() <= 1.0):
            raise DataError("inputs fall outside [0, 1]")

    def __len__(self) -> int:
        return int(self.inputs.shape[0])


@dataclass
class Task:
    """One stage of the stream: its class set and both data splits."""

    classes: np.ndarray
    train: Dataset
    test: Dataset

    def __post_init__(self):
        self.classes = np.asarray(self.classes, dtype=np.int64)
        for ds in (self.train, self.test):
            present = set(int(l) for l in ds.labels)
            allowed = set(int(c) for c in self.classes)
            if not present <= allowed:
                raise DataError(f"split contains labels {sorted(present - allowed)} outside the task's classes")

    def local_labels(self, ds: Dataset) -> np.ndarray:
        """Labels re-indexed to the task's own class list (0..k-1)."""
        mapping = {int(c): i for i, c in enumerate(self.classes)}
        return np.array([mapping[int(l)] for l in ds.labels], dtype=np.int64)


@dataclass
class TaskStream:
    tasks: list[Task] = field(default_factory=list)

    def __post_init__(self):
        if not self.tasks:
            raise DataError("a task stream needs at least one task")
        seen: set[int] = set()
        for i, task in enumerate(self.tasks):
            cs = set(int(c) for c in task.classes)
            overlap = seen & cs
            if overlap:
                raise DataError(f"task {i + 1} reuses classes {sorted(overlap)}")
            seen |= cs

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def class_order(self) -> np.ndarray:
        """Global class ids in head-column order (task by task)."""
        return np.concatenate([t.classes for t in self.tasks])

    @property
    def class_counts(self) -> list[int]:
        return [len(t.classes) for t in self.tasks]


# ----------------------------------------------------------------------
# class splitting
# ----------------------------------------------------------------------


def split_classes(num_classes: int, scheme: str, parts: int,
                  order_seed: int | None = None) -> list[np.ndarray]:
    """Partition class ids into ordered task groups.

    ``equal`` makes ``parts`` groups of the same size; ``half_first``
    reserves half the classes for a large first group and splits the rest
    into ``parts`` equal groups.  ``order_seed`` of None keeps the natural
    class order, otherwise a seeded shuffle is applied first.
    """
    if num_classes < 1 or parts < 1:
        raise ParameterError("num_classes and parts must be >= 1")
    if order_seed is None:
        order = np.arange(num_classes)
    else:
        order = np.random.default_rng(order_seed).permutation(num_classes)
    if scheme == "equal":
        if num_classes % parts != 0:
            raise ParameterError(f"{num_classes} classes do not divide into {parts} equal tasks")
        return [g.copy() for g in np.split(order, parts)]
    if scheme == "half_first":
        half = num_classes // 2
        if num_classes % 2 != 0 or half % parts != 0:
            raise ParameterError(
                f"half-first split needs an even class count whose half divides by {parts}"
            )
        rest = np.split(order[half:], parts)
        return [order[:half].copy()] + [g.copy() for g in rest]
    raise ParameterError(f"unknown split scheme '{scheme}'")


# ----------------------------------------------------------------------
# synthetic generators
# ----------------------------------------------------------------------


def _render_bumps(centers: np.ndarray, shape: tuple[int, int, int],
                  rng: np.random.Generator, count: int, noise: float) -> np.ndarray:
    """Images of one soft 2-D bump each, jittered around a class center."""
    c, h, w = shape
    ys, xs = np.mgrid[0:h, 0:w]
    out = np.empty((count, c, h, w))
    for i in range(count):
        cy = centers[0] * (h - 1) + rng.normal(0.0, 0.5)
        cx = centers[1] * (w - 1) + rng.normal(0.0, 0.5)
        radius = max(h, w) / 4.0
        bump = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * radius ** 2))
        img = 0.6 * bump[None, :, :] + rng.normal(0.0, noise, size=(c, h, w))
        out[i] = img
    return out


def synthetic_stream(n_tasks: int, classes_per_task: int, samples_per_class: int,
                     dim: int | None = None, image_shape: tuple[int, int, int] | None = None,
                     shift: float = 0.0, seed: int = 0,
                     blob_std: float = 0.06) -> TaskStream:
    """Deterministic stream of Gaussian-blob classes with per-task drift.

    Task t's inputs get an additive offset of t * shift (1-based t) before
    clipping to [0,1], so later tasks sit in a brighter input regime.  Each
    class's first round(0.8 * samples_per_class) samples train, the rest test.
    """
    if n_tasks < 1 or classes_per_task < 1 or samples_per_class < 1:
        raise ParameterError("all synthetic stream counts must be >= 1")
    if (dim is None) == (image_shape is None):
        raise ParameterError("exactly one of dim or image_shape must be given")
    rng = np.random.default_rng(seed)
    num_classes = n_tasks * classes_per_task
    n_train = int(round(0.8 * samples_per_class))
    tasks = []
    for t in range(1, n_tasks + 1):
        offset = t * shift
        classes = np.arange((t - 1) * classes_per_task, t * classes_per_task)
        train_parts, test_parts = [], []
        for cls in classes:
            if dim is not None:
                center = rng.uniform(0.05, 0.35, size=dim)
                samples = center + rng.normal(0.0, blob_std, size=(samples_per_class, dim))
            else:
                center = rng.uniform(0.2, 0.8, size=2)
                samples = _render_bumps(center, image_shape, rng, samples_per_class, blob_std)
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow clips as if exact
                samples = np.clip(samples + offset, 0.0, 1.0)
            if np.isnan(samples).any():  # an infinite sample met an opposite infinite offset
                raise NumericError(f"task {t}: shift {shift}, blob_std {blob_std} give inf - inf")
            train_parts.append(samples[:n_train])
            test_parts.append(samples[n_train:])
        tasks.append(Task(
            classes=classes,
            train=Dataset(np.concatenate(train_parts), np.repeat(classes, n_train), num_classes),
            test=Dataset(np.concatenate(test_parts),
                         np.repeat(classes, samples_per_class - n_train), num_classes),
        ))
    return TaskStream(tasks)


def stream_from_datasets(train: Dataset, test: Dataset,
                         class_groups: list[np.ndarray]) -> TaskStream:
    """Slice one train/test dataset pair into a stream along class groups."""
    tasks = []
    for group in class_groups:
        group = np.asarray(group)
        tr_mask = np.isin(train.labels, group)
        te_mask = np.isin(test.labels, group)
        tasks.append(Task(
            classes=group,
            train=Dataset(train.inputs[tr_mask], train.labels[tr_mask], train.num_classes),
            test=Dataset(test.inputs[te_mask], test.labels[te_mask], test.num_classes),
        ))
    return TaskStream(tasks)


# ----------------------------------------------------------------------
# file ingestion
# ----------------------------------------------------------------------


def _check_left(fh, n: int, what: str) -> None:
    """Raise unless the seekable stream still holds ``n`` bytes past its
    position, so a corrupt size never reaches a read or an allocation."""
    offset = fh.tell()
    left = fh.seek(0, os.SEEK_END) - offset
    fh.seek(offset)
    if n > left:
        raise TruncatedFileError(f"{what} at byte {offset}: wanted {n} bytes, {left} left")


def _read_exact(fh, n: int, what: str) -> bytes:
    _check_left(fh, n, what)
    return fh.read(n)


def read_idx_header(fh, what: str) -> tuple[int, ...]:
    """Check an IDX header and return the sizes it declares: (count, rows,
    cols) for ``what = "image"``, (count,) for ``"label"``.

    The magic must match, a rank byte other than the expected one is named
    as such, and the file must hold the body the sizes declare.  Reads no
    body bytes.
    """
    magic = IDX_IMAGE_MAGIC if what == "image" else IDX_LABEL_MAGIC
    (found,) = struct.unpack(">I", _read_exact(fh, 4, f"{what} header"))
    if found >> 8 == magic >> 8 and found != magic:
        raise FormatError(f"{what} file has rank {found & 0xFF}, expected {magic & 0xFF}")
    if found != magic:
        raise FormatError(f"bad {what} magic 0x{found:08x}, expected 0x{magic:08x}")
    sizes = struct.unpack(f">{magic & 0xFF}I", _read_exact(fh, 4 * (magic & 0xFF),
                                                           f"{what} dimensions"))
    _check_left(fh, math.prod(sizes), f"{what} body")
    # numpy sizes an array by its nonzero dimensions, so even a file of
    # zero images must name an image whose float64 pixels are addressable
    if math.prod(sizes[1:]) > np.iinfo(np.intp).max // np.dtype(np.float64).itemsize:
        raise FormatError(f"{what} dimensions {'x'.join(map(str, sizes[1:]))} are too large")
    return sizes


def load_idx(images_path, labels_path, num_classes: int = 10) -> Dataset:
    """Read an images/labels file pair in the big-endian IDX format.

    Pixel bytes are scaled to [0,1]; image and label counts must agree.
    """
    with open(images_path, "rb") as fh:
        n, rows, cols = read_idx_header(fh, "image")
        raw = fh.read(n * rows * cols)
        images = np.frombuffer(raw, dtype=np.uint8).reshape(n, 1, rows, cols) / 255.0
    with open(labels_path, "rb") as fh:
        (n_labels,) = read_idx_header(fh, "label")
        labels = np.frombuffer(fh.read(n_labels), dtype=np.uint8)
    if n != n_labels:
        raise ConsistencyError(f"{n} images but {n_labels} labels")
    return Dataset(images, labels.astype(np.int64), num_classes)


CIFAR_RECORD = 1 + 3 * 32 * 32


def cifar_record_count(size: int) -> int:
    """Records in a CIFAR binary file of ``size`` bytes: one label byte and
    3072 pixel bytes (3x32x32) each, and at least one."""
    if size == 0 or size % CIFAR_RECORD != 0:
        raise FormatError(f"file size {size} is not a nonzero multiple of {CIFAR_RECORD}")
    return size // CIFAR_RECORD


def load_cifar_binary(path, num_classes: int = 10) -> Dataset:
    """Read records of 1 label byte + 3072 pixel bytes (3x32x32)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    cifar_record_count(len(raw))
    data = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    labels = data[:, 0].astype(np.int64)
    images = data[:, 1:].reshape(-1, 3, 32, 32) / 255.0
    return Dataset(images, labels, num_classes)


# ----------------------------------------------------------------------
# corruption
# ----------------------------------------------------------------------


@dataclass
class CorruptionSpec:
    """Gaussian-noise severity on a fixed ladder; severity 0 is identity."""

    severity: int

    def __post_init__(self):
        if not 0 <= self.severity <= len(SIGMA_LADDER):
            raise ParameterError(
                f"severity must be in 0..{len(SIGMA_LADDER)}, got {self.severity}"
            )

    @property
    def sigma(self) -> float:
        return 0.0 if self.severity == 0 else SIGMA_LADDER[self.severity - 1]


def corrupt_gaussian(dataset: Dataset, spec: CorruptionSpec, seed: int) -> Dataset:
    """Additive seeded Gaussian noise clipped back into [0,1]."""
    if spec.severity == 0:
        return dataset
    rng = np.random.default_rng(seed)
    noisy = np.clip(dataset.inputs + rng.normal(0.0, spec.sigma, size=dataset.inputs.shape),
                    0.0, 1.0)
    return Dataset(noisy, dataset.labels, dataset.num_classes)


def corrupt_every_other(stream: TaskStream, spec: CorruptionSpec, seed: int) -> TaskStream:
    """Apply the noise to tasks 2, 4, ... so the stream alternates clean/noisy."""
    tasks = []
    for i, task in enumerate(stream.tasks):
        if (i + 1) % 2 == 0:
            tasks.append(Task(
                classes=task.classes,
                train=corrupt_gaussian(task.train, spec, seed=(seed * 1000 + 2 * i)),
                test=corrupt_gaussian(task.test, spec, seed=(seed * 1000 + 2 * i + 1)),
            ))
        else:
            tasks.append(task)
    return TaskStream(tasks)
