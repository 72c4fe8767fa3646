"""Deterministic class-incremental task streams.

A stream is an ordered list of tasks with pairwise-disjoint class sets,
each carrying its own train/test split, plus an optional pretraining
dataset on yet another disjoint class set. Streams come either from a
seeded Gaussian-mixture generator or from a CSV file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError, ParameterError, ParseError, ProtocolError, ShapeError
from .tensor import RngState, _check_finite, atomic_write, format_float


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
    pretrain_class_ids: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        seen: set[int] = set()
        groups = [t.class_ids for t in self.tasks]
        if self.pretrain is not None:
            groups = groups + [self.pretrain_class_ids]
        for ids in groups:
            overlap = seen & set(ids)
            if overlap:
                raise ProtocolError(f"class ids reused across tasks: {sorted(overlap)}")
            seen.update(ids)

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


def gen_gaussian_stream(
    num_tasks: int,
    classes_per_task: int,
    dim: int,
    radius: float,
    sigma: float,
    n_train: int,
    n_test: int,
    seed: int,
    pretrain_classes: int = 0,
    pretrain_n: int = 200,
) -> TaskStream:
    """Spherical Gaussian blobs, one per class, all means on one sphere.

    Class c of task t gets global id t*classes_per_task + c; pretraining
    classes follow after the stream's ids. Everything is a pure function
    of the arguments and the seed.
    """
    if dim < 2:
        raise ParameterError("dim must be >= 2")
    if radius <= 0 or sigma <= 0:
        raise ParameterError("radius and sigma must be positive")
    if num_tasks < 1 or classes_per_task < 1 or n_train < 1 or n_test < 1:
        raise ParameterError("counts must be positive")
    if pretrain_classes < 0:
        raise ParameterError(f"pretrain_classes must be >= 0, got {pretrain_classes}")
    if pretrain_classes > 0 and pretrain_n < 1:
        raise ParameterError(f"pretrain_n must be >= 1 when pretrain_classes > 0, got {pretrain_n}")

    rng_means = RngState(seed).derive("class-means")
    rng_samples = RngState(seed).derive("class-samples")

    total_stream = num_tasks * classes_per_task
    means = [_sphere_point(rng_means, dim, radius) for _ in range(total_stream + pretrain_classes)]

    tasks = []
    for t in range(num_tasks):
        ids = list(range(t * classes_per_task, (t + 1) * classes_per_task))
        blobs = {cid: _class_blob(rng_samples, means[cid], sigma, n_train + n_test) for cid in ids}
        # round-robin over classes so sequential mini-batches stay class-balanced
        xs_train = [blobs[cid][i] for i in range(n_train) for cid in ids]
        ys_train = [cid for _ in range(n_train) for cid in ids]
        xs_test = [blobs[cid][n_train + i] for i in range(n_test) for cid in ids]
        ys_test = [cid for _ in range(n_test) for cid in ids]
        tasks.append(
            Task(
                id=t,
                class_ids=ids,
                train=Dataset(np.vstack(xs_train), ys_train),
                test=Dataset(np.vstack(xs_test), ys_test),
            )
        )

    pretrain = None
    pre_ids: list[int] = []
    if pretrain_classes > 0:
        pre_ids = list(range(total_stream, total_stream + pretrain_classes))
        xs, ys = [], []
        for cid in pre_ids:
            xs.append(_class_blob(rng_samples, means[cid], sigma, pretrain_n))
            ys.extend([cid] * pretrain_n)
        pretrain = Dataset(np.vstack(xs), ys)

    return TaskStream(tasks=tasks, pretrain=pretrain, pretrain_class_ids=pre_ids)


def write_dataset_csv(path, dataset: Dataset) -> None:
    """Header f0..f{d-1},label; full-precision decimals."""
    lines = [",".join([f"f{j}" for j in range(dataset.dim)] + ["label"])]
    for i in range(dataset.n):
        lines.append(",".join([format_float(v) for v in dataset.X[i]] + [str(dataset.y[i])]))
    atomic_write(path, "\n".join(lines) + "\n")


def read_dataset_csv(path) -> Dataset:
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read dataset csv: {exc}")
    with fh:
        header = fh.readline().strip()
        if not header:
            raise ParseError("empty csv", line=1)
        cols = header.split(",")
        if cols[-1] != "label" or any(c != f"f{j}" for j, c in enumerate(cols[:-1])):
            raise ParseError("expected header f0,...,f{d-1},label", line=1)
        dim = len(cols) - 1
        xs, ys = [], []
        for lineno, line in enumerate(fh, start=2):
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

    by_class: dict[int, list[int]] = {c: [] for c in classes}
    for i, label in enumerate(data.y):
        by_class[label].append(i)

    tasks = []
    for t, ids in enumerate(groups):
        train_idx, test_idx = [], []
        for cid in ids:
            members = list(by_class[cid])
            rng.shuffle(members)
            cut = max(1, int(round(len(members) * 0.8)))
            if cut >= len(members):
                cut = len(members) - 1
            if cut < 1:
                raise DataError(f"class {cid} has too few samples to split")
            train_idx.extend(members[:cut])
            test_idx.extend(members[cut:])
        tasks.append(
            Task(
                id=t,
                class_ids=sorted(ids),
                train=data.subset(train_idx),
                test=data.subset(test_idx),
            )
        )
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
        shape = asdict(self)
        del shape["csv_path"]
        return gen_gaussian_stream(seed=seed, **shape)


def standard_stream(seed: int) -> TaskStream:
    """The benchmark fixture: five 4-class tasks in 16 dimensions.

    Class means sit on the radius-3 sphere with unit within-class noise,
    200 train and 100 test samples per class, plus eight extra pretraining
    classes. Hard enough that an unregularized run visibly forgets, small
    enough for minutes-scale runs.
    """
    return StreamConfig().build_stream(seed)
