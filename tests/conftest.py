"""Shared helpers: small random networks and batches for oracle tests, and the
projection and divergence witness that compare the two penalty placements."""

import os
import types

# Threaded BLAS only slows these tiny matrices down; OpenBLAS reads the
# setting when numpy loads it, so it must be set before the import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from lrcl.errors import ParameterError
from lrcl.fisher import FactorFisher, UpdateFisher
from lrcl.model import Network, backward, expand_head, new_network, reset_adapter
from lrcl.regularize import penalty_deltaw, penalty_separate
from lrcl.tasks import Dataset
from lrcl.tensor import RngState, atomic_write, format_float, uniform_matrix


def mat(rows, cols, values):
    """rows x cols float64 array from a flat row-major list."""
    return np.array(values, dtype=np.float64).reshape(rows, cols)


def uniform(rng: RngState, lo, hi):
    """One uniform draw on [lo, hi) from the scalar stream: the oracle of uniform_matrix."""
    return lo + (hi - lo) * rng.next_float()


def write_dataset_csv(path, dataset: Dataset):
    """The CSV format read_dataset_csv reads: header f0..f{d-1},label, full-precision decimals."""
    lines = [",".join([f"f{j}" for j in range(dataset.dim)] + ["label"])]
    for i in range(dataset.n):
        lines.append(",".join([format_float(v) for v in dataset.X[i]] + [str(dataset.y[i])]))
    atomic_write(path, "\n".join(lines) + "\n")


def make_net(dims, rank, seed, class_ids=None, nonzero_adapter=False):
    """Small network with an expanded head; adapter optionally perturbed."""
    rng = RngState(seed)
    net = new_network(list(dims), rank, rng, 0.5, 0.1, 8.0)
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


def backprop(net: Network, cache, rows, factors=True):
    """backward into new arrays: (loss, gradients) with d_w, d_v, d_bias, and d_a, d_b (None without factors)."""
    grads = types.SimpleNamespace(
        d_w=[np.empty((l.d_out, l.d_in)) for l in net.layers],
        d_v=np.empty(net.head.V.shape),
        d_bias=np.empty(net.head.b.shape),
        d_a=[np.empty(l.A.shape) for l in net.layers] if factors else None,
        d_b=[np.empty(l.B.shape) for l in net.layers] if factors else None,
    )
    loss = backward(net, cache, rows, grads.d_w, grads.d_v, grads.d_bias, grads.d_a, grads.d_b)
    return loss, grads


def penalty(kind, As, Bs, B_inits, f, lam):
    """The kernel of penalty strategy kind ("deltaw" or "separate") after its checks, into zero-filled arrays: (value, grad_a, grad_b).

    The checks are f.bind's; the separate kernel then runs from the anchors B_inits,
    where the bound one would take Bs.
    """
    grad_a, grad_b = [np.zeros(A.shape) for A in As], [np.zeros(B.shape) for B in Bs]
    f.bind(As, Bs, lam, grad_a, grad_b)
    if kind == "deltaw":
        value = penalty_deltaw(As, Bs, f, lam, grad_a, grad_b)
    else:
        value = penalty_separate(As, Bs, B_inits, f, lam, grad_a, grad_b)
    return value, grad_a, grad_b


def make_batch(net: Network, n, seed, scale=1.0):
    rng = RngState(seed)
    dim = net.input_dim
    x = mat(n, dim, [scale * uniform(rng, -1, 1) for _ in range(n * dim)])
    labels = [net.head.class_ids[rng.randint(len(net.head.class_ids))] for _ in range(n)]
    return x, labels


def project_update_fisher(f: UpdateFisher, A0s: list[np.ndarray], B0s: list[np.ndarray]) -> FactorFisher:
    """Factor-space diagonals induced by an update-space diagonal.

    Squared-Jacobian projection at the anchor point: FA = F (B0 o B0)^T and
    FB = (A0 o A0)^T F, i.e. the diagonal of J^T diag(F) J for each factor.
    """
    fa, fb = [], []
    for F, A0, B0 in zip(f.fdw, A0s, B0s):
        fa.append(F @ (B0 * B0).T)
        fb.append((A0 * A0).T @ F)
    return FactorFisher(fdw=[m.copy() for m in f.fdw], fa=fa, fb=fb)


def divergence_witness(rng: RngState, dims: tuple[int, int, int], trials: int) -> float:
    """Fraction of random instances where the two penalties disagree.

    Each trial draws an anchor pair (A0, B0), a perturbed pair (A, B), and
    a nonnegative update-space diagonal F. The update-space value uses the
    deviation AB - A0B0; the factor-space value uses the projected
    diagonals at the anchor and the factor deviations. Disagreement means
    |R_dw - R_ab| > 1e-9 * max(1, R_dw).
    """
    d_o, d_i, r = dims
    if r >= min(d_o, d_i):
        raise ParameterError(f"need r < min(d_o, d_i), got r={r} for {d_o}x{d_i}")
    if trials < 1:
        raise ParameterError("trials must be >= 1")

    hits = 0
    for _ in range(trials):
        A0 = uniform_matrix(rng, d_o, r, -1.0, 1.0)
        B0 = uniform_matrix(rng, r, d_i, -1.0, 1.0)
        A = A0 + uniform_matrix(rng, d_o, r, -1.0, 1.0)
        B = B0 + uniform_matrix(rng, r, d_i, -1.0, 1.0)
        F = rng.floats(d_o * d_i).reshape(d_o, d_i)

        dev = A @ B - A0 @ B0
        r_dw = 0.5 * float(np.sum(F * dev * dev))

        projected = project_update_fisher(UpdateFisher([F]), [A0], [B0])
        FA, FB = projected.fa[0], projected.fb[0]
        da = A - A0
        db = B - B0
        r_ab = 0.5 * float(np.sum(FA * da * da) + np.sum(FB * db * db))

        if abs(r_dw - r_ab) > 1e-9 * max(1.0, r_dw):
            hits += 1
    return hits / trials


@pytest.fixture
def rng():
    return RngState(20240817)
