"""Synthetic transfer tasks and CSV ingestion.

All generation runs on an explicitly constructed ``numpy.random.Generator``
over PCG64 so datasets are reproducible across platforms; the platform-global
numpy RNG is never touched. A transfer pair is a source distribution for
pretraining plus a target drawn from the same family with rotated/shifted
class structure, standing in for a related downstream task.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GENERATORS = ("blobs", "two-spirals", "xor", "csv")
# a generated feature's size stays below 2 (1 + |separation| + 40 |std|) + |shift|,
# std being class_std or noise_std, so these bounds keep every feature finite
SCALE_MAX = 1e300


@dataclass(frozen=True)
class DatasetSpec:
    generator: str
    n: int = 0
    seed: int = 0
    # blobs
    classes: int = 2
    dim: int = 2
    separation: float = 4.0
    class_std: float = 1.0
    # two-spirals / xor
    noise_std: float = 0.0
    # distribution transforms (target tasks)
    rotation_degrees: float = 0.0
    shift: float = 0.0
    # csv
    path: str = ""
    label_column: str = "label"

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator '{self.generator}'")
        if self.generator != "csv":
            if self.n < 1:
                raise ValueError("n must be >= 1")
            if self.dim < 1:
                raise ValueError("dim must be >= 1")
            if self.generator == "blobs" and self.classes < 2:
                raise ValueError("blobs needs at least 2 classes")
            if not all(abs(v) <= SCALE_MAX for v in (self.separation, self.class_std,
                                                     self.noise_std, self.shift)):
                raise ValueError(f"separation, class_std, noise_std and shift must be "
                                 f"at most {SCALE_MAX:g} in size")

    @property
    def n_classes(self) -> int:
        return self.classes if self.generator == "blobs" else 2


@dataclass
class Dataset:
    x: np.ndarray  # (n, d) float64
    y: np.ndarray  # (n,) int64, labels >= 0; both checked here, once

    def __post_init__(self):
        self.x, y = np.asarray(self.x, dtype=np.float64), np.asarray(self.y)
        if self.x.ndim != 2 or y.shape != self.x.shape[:1] or y.dtype.kind not in "iu" \
                or (y.size and y.min() < 0):
            raise ValueError(f"dataset: x {self.x.shape} and y {y.shape} {y.dtype} need "
                             "shapes (n, d) and (n,), and integer labels >= 0")
        self.y = y.astype(np.int64, copy=False)

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1 if len(self) else 0


@dataclass(frozen=True)
class TransferPair:
    source: DatasetSpec
    target: DatasetSpec

    def __post_init__(self):
        if self.source.generator != "csv" and self.target.generator != "csv" \
                and self.source.dim != self.target.dim:
            raise ValueError("source and target must share the feature dimension")


def _balanced_counts(n: int, k: int) -> np.ndarray:
    counts = np.full(k, n // k, dtype=np.int64)
    counts[: n % k] += 1
    return counts


def _blob_means(k: int, d: int, separation: float) -> np.ndarray:
    means = np.zeros((k, d))
    if d == 1:
        means[:, 0] = (np.arange(k) - (k - 1) / 2.0) * separation
    else:
        angles = 2.0 * np.pi * np.arange(k) / k
        means[:, 0] = separation * np.cos(angles)
        means[:, 1] = separation * np.sin(angles)
    return means


def _apply_transform(x: np.ndarray, spec: DatasetSpec) -> np.ndarray:
    if spec.rotation_degrees != 0.0 and x.shape[1] >= 2:
        a = np.deg2rad(spec.rotation_degrees)
        rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        x = x.copy()
        x[:, :2] = x[:, :2] @ rot.T
    if spec.shift != 0.0:
        x = x + spec.shift
    return x


def generate(spec: DatasetSpec) -> Dataset:
    """Draw a dataset from ``spec.seed``; class counts are balanced to within one sample."""
    if spec.generator == "csv":
        return load_csv(spec.path, spec.label_column)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    k = spec.n_classes
    counts = _balanced_counts(spec.n, k)
    y = np.repeat(np.arange(k, dtype=np.int64), counts)

    if spec.generator == "blobs":
        means = _blob_means(k, spec.dim, spec.separation)
        x = means[y] + spec.class_std * rng.standard_normal((spec.n, spec.dim))
    elif spec.generator == "two-spirals":
        t = np.sqrt(rng.uniform(size=spec.n)) * 3.0 * np.pi + 0.5
        r = t / (3.0 * np.pi + 0.5)
        x = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
        x[y == 1] *= -1.0  # second spiral is the point reflection of the first
        x = x + spec.noise_std * rng.standard_normal((spec.n, 2))
    else:  # xor: label is the parity of the number of negative coordinates
        x = rng.uniform(-1.0, 1.0, size=(spec.n, spec.dim))
        parity = (np.sum(x < 0.0, axis=1) % 2).astype(np.int64)
        flip = parity != y
        if np.any(flip):
            cols = rng.integers(spec.dim, size=int(flip.sum()))
            x[np.flatnonzero(flip), cols] *= -1.0
        x = x + spec.noise_std * rng.standard_normal((spec.n, spec.dim))

    x = _apply_transform(x, spec)
    order = rng.permutation(spec.n)
    return Dataset(x=x[order], y=y[order])


def few_shot_sample(dataset: Dataset, n_shot: int, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified sample without replacement; the remainder becomes the dev set.

    Per-class takes are proportional with largest-remainder rounding, so exact
    class-balance holds whenever the split divides evenly.
    """
    n = len(dataset)
    if n_shot >= n:
        raise ValueError(f"few_shot_sample: n_shot {n_shot} must be below the dataset "
                         f"size {n}, leaving a nonempty dev set")
    rng = np.random.Generator(np.random.PCG64(seed))
    classes, counts = np.unique(dataset.y, return_counts=True)
    exact = n_shot * counts / n
    takes = np.floor(exact).astype(np.int64)
    remainder = n_shot - takes.sum()
    if remainder > 0:
        order = np.argsort(-(exact - takes), kind="stable")
        takes[order[:remainder]] += 1

    train_idx = []
    for cls, take in zip(classes, takes):
        members = np.flatnonzero(dataset.y == cls)
        chosen = rng.permutation(members.size)[:take]
        train_idx.append(members[chosen])
    train_idx = np.sort(np.concatenate(train_idx))
    mask = np.zeros(n, dtype=bool)
    mask[train_idx] = True
    train = Dataset(x=dataset.x[mask].copy(), y=dataset.y[mask].copy())
    dev = Dataset(x=dataset.x[~mask].copy(), y=dataset.y[~mask].copy())
    return train, dev


STD_FLOOR = 1e-12


def load_csv(path, label_column: str = "label") -> Dataset:
    """Read a feature table, at least one feature column and the label column;
    features are z-scored. An error names the row and column of a non-numeric
    or non-finite cell, the row of a bad label (integers >= 0, below the number
    of data rows, as n rows cannot populate more classes), or a column too
    large to z-score; the caller names the file."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty file")
        if label_column not in header:
            raise ValueError(f"missing label column '{label_column}'")
        if len(header) < 2:
            raise ValueError("no feature columns")
        label_idx = header.index(label_column)
        records = list(enumerate(reader, start=2))
        rows, labels = [], []
        for row_no, row in records:
            row += [""] * (len(header) - len(row))
            values = []
            for name, cell in zip(header, row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ValueError(f"row {row_no}: non-numeric cell in "
                                     f"column '{name}': {cell!r}") from None
                if not np.isfinite(values[-1]):
                    raise ValueError(f"row {row_no}: non-finite cell in "
                                     f"column '{name}': {cell!r}")
            label = values.pop(label_idx)
            if not (label.is_integer() and label >= 0):
                raise ValueError(f"row {row_no}: the label must be an "
                                 f"integer >= 0, got {row[label_idx]!r}")
            if label >= len(records):
                raise ValueError(f"row {row_no}: the label must be below the "
                                 f"row count, {len(records)}, got {row[label_idx]!r}")
            rows.append(values)
            labels.append(int(label))
    if not rows:
        raise ValueError("no data rows")
    x = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # finite cells can overflow a sum
        mean, std = x.mean(axis=0), x.std(axis=0)
    too_large = ~(np.isfinite(mean) & np.isfinite(std))
    if too_large.any():
        name = [h for i, h in enumerate(header) if i != label_idx][np.argmax(too_large)]
        raise ValueError(f"column '{name}': its mean or standard deviation overflows")
    x = (x - mean) / np.maximum(std, STD_FLOOR)
    return Dataset(x=x, y=y)


def export_csv(dataset: Dataset, path) -> None:
    """Write features plus a final ``label`` column; header row included."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dataset.dim)] + ["label"])
        for row, label in zip(dataset.x, dataset.y):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


# The benchmark suite's built-in transfer tasks. Sizes are chosen so that a
# 100-shot sample leaves a 1000-row dev set. The spiral tasks sit away from
# the origin: zero-bias initialization makes origin-centered radial structure
# disproportionately hard to pretrain.
BUILTIN_TASKS = {
    "blobs-rotate": TransferPair(
        source=DatasetSpec("blobs", n=4000, seed=11, classes=3, dim=6,
                           separation=3.0, class_std=1.6),
        target=DatasetSpec("blobs", n=1100, seed=12, classes=3, dim=6,
                           separation=3.0, class_std=1.6,
                           rotation_degrees=35.0, shift=0.25),
    ),
    "spirals-shift": TransferPair(
        source=DatasetSpec("two-spirals", n=4000, seed=21, dim=2, noise_std=0.08,
                           shift=1.0),
        target=DatasetSpec("two-spirals", n=1100, seed=22, dim=2, noise_std=0.22,
                           shift=1.05),
    ),
    "xor-noise": TransferPair(
        source=DatasetSpec("xor", n=4000, seed=31, dim=4, noise_std=0.15),
        target=DatasetSpec("xor", n=1100, seed=32, dim=4, noise_std=0.35),
    ),
}


def builtin_task(name: str) -> TransferPair:
    if name not in BUILTIN_TASKS:
        raise ValueError(
            f"unknown task '{name}'; built-ins: {', '.join(sorted(BUILTIN_TASKS))}")
    return BUILTIN_TASKS[name]

