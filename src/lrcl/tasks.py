"""Deterministic class-incremental task streams.

A stream is an ordered list of tasks with pairwise-disjoint class sets,
each carrying its own train/test split, plus an optional pretraining
dataset on yet another disjoint class set. Streams come either from a
seeded Gaussian-mixture generator or from a CSV file.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, ParseError, ProtocolError, ShapeError
from .tensor import RngState, _check_finite


@dataclass
class Dataset:
    """Feature rows (a finite 2-D float64 array) plus global integer class labels."""

    X: np.ndarray
    y: list[int]

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise ShapeError(f"expected 2-D array, got ndim={self.X.ndim}")
        _check_finite(self.X)
        if self.n != len(self.y):
            raise DataError(f"{self.n} rows but {len(self.y)} labels")
        if self.n < 1:
            raise DataError("dataset must hold at least one sample")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def subset(self, indices: list[int]) -> "Dataset":
        return Dataset(self.X[indices], [self.y[i] for i in indices])


def concat_datasets(datasets: list[Dataset]) -> Dataset:
    if not datasets:
        raise DataError("nothing to concatenate")
    X = np.vstack([d.X for d in datasets])
    y: list[int] = []
    for d in datasets:
        y.extend(d.y)
    return Dataset(X, y)


def stratified_split(data: Dataset, frac: float, rng: RngState, classes: list[int]) -> tuple[Dataset, Dataset]:
    """Shuffle each class's rows, in the order of classes, and put round(frac n) of them in train.

    A class of two or more rows keeps at least one on each side; a one-row
    class goes to train whole. Rows of classes not listed are left out.
    """
    by_class: dict[int, list[int]] = {c: [] for c in classes}
    for i, label in enumerate(data.y):
        if label in by_class:
            by_class[label].append(i)
    train_idx, test_idx = [], []
    for cid in classes:
        members = by_class[cid]
        rng.shuffle(members)
        cut = max(1, min(len(members) - 1, int(round(len(members) * frac))))
        train_idx.extend(members[:cut])
        test_idx.extend(members[cut:])
    return data.subset(train_idx), data.subset(test_idx)


@dataclass
class Task:
    id: int
    class_ids: list[int]
    train: Dataset
    test: Dataset

    def __post_init__(self):
        allowed = set(self.class_ids)
        for split_name, split in (("train", self.train), ("test", self.test)):
            bad = set(split.y) - allowed
            if bad:
                raise ProtocolError(f"task {self.id} {split_name} has foreign labels {sorted(bad)}")


@dataclass
class TaskStream:
    tasks: list[Task]
    pretrain: Dataset | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not self.tasks:
            raise DataError("stream has no tasks")
        seen: set[int] = set()
        for ids in [t.class_ids for t in self.tasks] + [self.pretrain_class_ids]:
            overlap = seen & set(ids)
            if overlap:
                raise ProtocolError(f"class ids reused across tasks: {sorted(overlap)}")
            seen.update(ids)

    @property
    def pretrain_class_ids(self) -> list[int]:
        """The classes of the pretraining data, sorted; none without it."""
        return [] if self.pretrain is None else sorted(set(self.pretrain.y))

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def dim(self) -> int:
        return self.tasks[0].train.dim

    def all_train(self) -> list[Dataset]:
        return [t.train for t in self.tasks]


def _sphere_point(rng: RngState, dim: int, radius: float) -> np.ndarray:
    """Uniform point on the radius sphere (normalized Gaussian direction)."""
    while True:
        v = rng.normals(dim)
        norm = float(np.sqrt((v * v).sum()))
        if norm > 1e-12:
            return v * (radius / norm)


def _class_blob(rng: RngState, mean: np.ndarray, sigma: float, n: int) -> np.ndarray:
    """n samples of N(mean, sigma^2 I), drawn in row-major order."""
    return mean + sigma * rng.normals(n * mean.size).reshape(n, mean.size)


def gen_gaussian_stream(shape: StreamConfig, seed: int) -> TaskStream:
    """Spherical Gaussian blobs, one per class, all means on one sphere.

    Class c of task t gets global id t*classes_per_task + c; pretraining
    classes follow after the stream's ids. Everything is a pure function
    of the shape and the seed; ``csv_path`` is not read.
    """
    dim, n_train, n_test = shape.dim, shape.n_train, shape.n_test
    pretrain_classes, pretrain_n = shape.pretrain_classes, shape.pretrain_n
    if dim < 2:
        raise ParameterError("dim must be >= 2")
    for name in ("radius", "sigma"):
        if not 0.0 < getattr(shape, name) <= 1e6:  # a larger one overflows the data or the first Fisher
            raise ParameterError(f"{name} must lie in (0, 1e6], got {getattr(shape, name)}")
    for name in ("num_tasks", "classes_per_task", "n_train", "n_test"):
        if getattr(shape, name) < 1:
            raise ParameterError(f"{name} must be >= 1, got {getattr(shape, name)}")
    if pretrain_classes < 0:
        raise ParameterError(f"pretrain_classes must be >= 0, got {pretrain_classes}")
    if pretrain_classes > 0 and pretrain_n < 1:
        raise ParameterError(f"pretrain_n must be >= 1 when pretrain_classes > 0, got {pretrain_n}")

    rng_means = RngState(seed).derive("class-means")
    rng_samples = RngState(seed).derive("class-samples")

    total_stream = shape.num_tasks * shape.classes_per_task
    means = [_sphere_point(rng_means, dim, shape.radius) for _ in range(total_stream + pretrain_classes)]

    tasks = []
    for t in range(shape.num_tasks):
        ids = list(range(t * shape.classes_per_task, (t + 1) * shape.classes_per_task))
        # (sample, class, feature): rows taken in order go round-robin over
        # the classes, so sequential mini-batches stay class-balanced
        blobs = np.stack([_class_blob(rng_samples, means[cid], shape.sigma, n_train + n_test) for cid in ids], axis=1)
        train = Dataset(blobs[:n_train].reshape(-1, dim), ids * n_train)
        tasks.append(Task(id=t, class_ids=ids, train=train, test=Dataset(blobs[n_train:].reshape(-1, dim), ids * n_test)))

    pretrain = None
    if pretrain_classes > 0:
        xs, ys = [], []
        for cid in range(total_stream, total_stream + pretrain_classes):
            xs.append(_class_blob(rng_samples, means[cid], shape.sigma, pretrain_n))
            ys.extend([cid] * pretrain_n)
        pretrain = Dataset(np.vstack(xs), ys)

    return TaskStream(tasks=tasks, pretrain=pretrain)


def read_dataset_csv(path) -> Dataset:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is not part of the header
            lines = fh.read().split("\n")
    except OSError as exc:
        raise DataError(f"cannot read dataset csv: {exc}")
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read dataset csv {str(path)!r}: {exc}")
    header = lines[0].strip()
    if not header:
        raise ParseError("empty csv", line=1)
    cols = header.split(",")
    if cols[-1] != "label" or any(c != f"f{j}" for j, c in enumerate(cols[:-1])):
        raise ParseError("expected header f0,...,f{d-1},label", line=1)
    dim = len(cols) - 1
    xs, ys = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        toks = line.split(",")
        if len(toks) != dim + 1:
            raise ParseError(f"expected {dim + 1} fields, got {len(toks)}", line=lineno)
        try:
            xs.append([float(t) for t in toks[:-1]])
            ys.append(int(toks[-1]))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno)
    if not xs:
        raise ParseError("csv has a header but no samples")
    return Dataset(np.array(xs), ys)


def load_csv_stream(path, num_tasks: int, seed: int) -> TaskStream:
    """Partition a labelled CSV into a class-incremental stream.

    Classes are shuffled with the seed, split into num_tasks contiguous
    groups, and each class gets a stratified 80/20 train/test split.
    """
    if num_tasks < 1:
        raise ParameterError(f"num_tasks must be >= 1, got {num_tasks}")
    data = read_dataset_csv(path)
    classes = sorted(set(data.y))
    if len(classes) < num_tasks:
        raise ProtocolError(f"{len(classes)} classes cannot fill {num_tasks} tasks")

    rng = RngState(seed).derive("csv-split")
    order = list(classes)
    rng.shuffle(order)

    per_task = len(order) // num_tasks
    groups = [order[t * per_task:(t + 1) * per_task] for t in range(num_tasks)]
    for leftover_idx, cid in enumerate(order[num_tasks * per_task:]):
        groups[leftover_idx % num_tasks].append(cid)

    counts = Counter(data.y)
    short = [cid for ids in groups for cid in ids if counts[cid] < 2]
    if short:
        raise DataError(f"class {short[0]} has too few samples to split")
    tasks = []
    for t, ids in enumerate(groups):
        train, test = stratified_split(data, 0.8, rng, ids)
        tasks.append(Task(id=t, class_ids=sorted(ids), train=train, test=test))
    return TaskStream(tasks=tasks)


@dataclass
class StreamConfig:
    """Shape of a task stream: a seeded Gaussian mixture, or a labelled CSV.

    The defaults are the benchmark fixture (see ``standard_stream``). With
    ``csv_path`` set, only ``num_tasks`` applies.
    """

    num_tasks: int = 5
    classes_per_task: int = 4
    dim: int = 16
    radius: float = 3.0
    sigma: float = 1.0
    n_train: int = 200
    n_test: int = 100
    pretrain_classes: int = 8
    pretrain_n: int = 200
    csv_path: str | None = None

    def build_stream(self, seed: int) -> TaskStream:
        if self.csv_path:
            return load_csv_stream(self.csv_path, self.num_tasks, seed)
        return gen_gaussian_stream(self, seed)


def standard_stream(seed: int) -> TaskStream:
    """The benchmark fixture: the Gaussian stream of ``StreamConfig``'s defaults.

    Hard enough that an unregularized run visibly forgets, small enough for
    minutes-scale runs.
    """
    return StreamConfig().build_stream(seed)
