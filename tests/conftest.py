"""Shared helpers: small random networks and batches for oracle tests."""

import os

# Threaded BLAS only slows these tiny matrices down; OpenBLAS reads the
# setting when numpy loads it, so it must be set before the import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from lrcl.metrics import AccuracyMatrix
from lrcl.model import Network, expand_head, new_network, reset_adapter
from lrcl.tasks import Dataset
from lrcl.tensor import RngState, atomic_write, format_float


def mat(rows, cols, values):
    """rows x cols float64 array from a flat row-major list."""
    return np.array(values, dtype=np.float64).reshape(rows, cols)


def uniform(rng: RngState, lo, hi):
    """One uniform draw on [lo, hi) from the scalar stream: the oracle of uniform_matrix."""
    return lo + (hi - lo) * rng.next_float()


def acc_matrix(rows):
    """A complete AccuracyMatrix with the given rows."""
    m = AccuracyMatrix(len(rows))
    for row in rows:
        m.add_row(row)
    return m


def write_dataset_csv(path, dataset: Dataset):
    """The CSV format read_dataset_csv reads: header f0..f{d-1},label, full-precision decimals."""
    lines = [",".join([f"f{j}" for j in range(dataset.dim)] + ["label"])]
    for i in range(dataset.n):
        lines.append(",".join([format_float(v) for v in dataset.X[i]] + [str(dataset.y[i])]))
    atomic_write(path, "\n".join(lines) + "\n")


def make_net(dims, rank, seed, class_ids=None, nonzero_adapter=False):
    """Small network with an expanded head; adapter optionally perturbed."""
    rng = RngState(seed)
    net = new_network(list(dims), rank, rng)
    reset_adapter(net, rng)
    if class_ids is None:
        class_ids = list(range(3))
    expand_head(net, list(class_ids), rng)
    if nonzero_adapter:
        for layer in net.layers:
            layer.A[:] = np.array(
                [[uniform(rng, -0.5, 0.5) for _ in range(layer.rank)] for _ in range(layer.d_out)]
            )
            layer.B[:] = np.array(
                [[uniform(rng, -0.5, 0.5) for _ in range(layer.d_in)] for _ in range(layer.rank)]
            )
    return net


def make_batch(net: Network, n, seed, scale=1.0):
    rng = RngState(seed)
    dim = net.input_dim
    x = mat(n, dim, [scale * uniform(rng, -1, 1) for _ in range(n * dim)])
    labels = [net.head.class_ids[rng.randint(len(net.head.class_ids))] for _ in range(n)]
    return x, labels


@pytest.fixture
def rng():
    return RngState(20240817)
