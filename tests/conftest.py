"""Shared helpers: small random networks and batches for oracle tests."""

import os

# Threaded BLAS only slows these tiny matrices down; OpenBLAS reads the
# setting when numpy loads it, so it must be set before the import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from lrcl.model import Network, expand_head, new_network, reset_adapter
from lrcl.tensor import RngState


def mat(rows, cols, values):
    """rows x cols float64 array from a flat row-major list."""
    return np.array(values, dtype=np.float64).reshape(rows, cols)


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
                [[rng.uniform(-0.5, 0.5) for _ in range(layer.rank)] for _ in range(layer.d_out)]
            )
            layer.B[:] = np.array(
                [[rng.uniform(-0.5, 0.5) for _ in range(layer.d_in)] for _ in range(layer.rank)]
            )
    return net


def make_batch(net: Network, n, seed, scale=1.0):
    rng = RngState(seed)
    dim = net.input_dim
    x = mat(n, dim, [scale * rng.uniform(-1, 1) for _ in range(n * dim)])
    labels = [net.head.class_ids[rng.randint(len(net.head.class_ids))] for _ in range(n)]
    return x, labels


@pytest.fixture
def rng():
    return RngState(20240817)
