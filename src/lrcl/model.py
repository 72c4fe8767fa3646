"""Micro feed-forward classifier with a shared low-rank adapter per layer.

Each linear layer holds a frozen base matrix W plus trainable factors
A (d_out x r) and B (r x d_in); the layer map is x -> Wx + A(Bx), so with
A = 0 the layer is exactly the frozen map. tanh sits between consecutive
layers; the last layer's output feeds a linear head over every class seen
so far. Gradients are derived analytically layer by layer; there is no
autodiff graph. Batches use the row convention (one sample per row), so
the math below works with transposed products.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import LabelError, ProtocolError, ShapeError, StateError
from .tensor import (
    RngState,
    _check_finite,
    atomic_write,
    read_matrix_csv,
    uniform_matrix,
    write_matrix_csv,
)


class LoRALinear:
    """One adapted layer: frozen W (d_out x d_in), trainable A, B of rank r."""

    __slots__ = ("W", "A", "B", "rank")

    def __init__(self, W: np.ndarray, A: np.ndarray, B: np.ndarray, rank: int):
        d_out, d_in = W.shape
        if rank < 1 or rank > min(d_out, d_in):
            raise ShapeError(f"rank {rank} invalid for {d_out}x{d_in} layer")
        if A.shape != (d_out, rank):
            raise ShapeError("A shape mismatch", A.shape, (d_out, rank))
        if B.shape != (rank, d_in):
            raise ShapeError("B shape mismatch", B.shape, (rank, d_in))
        self.W = W
        self.A = A
        self.B = B
        self.rank = rank

    @property
    def d_out(self) -> int:
        return self.W.shape[0]

    @property
    def d_in(self) -> int:
        return self.W.shape[1]

    def apply_rows(self, h: np.ndarray) -> np.ndarray:
        """Row-batched layer map: h W^T + (h B^T) A^T, the adapter never folded."""
        return h @ self.W.T + (h @ self.B.T) @ self.A.T

    def copy(self) -> "LoRALinear":
        return LoRALinear(self.W.copy(), self.A.copy(), self.B.copy(), self.rank)


@dataclass
class Head:
    """Linear classifier over all classes seen so far; rows track class_ids."""

    V: np.ndarray | None
    b: np.ndarray | None
    class_ids: list[int] = field(default_factory=list)

    @property
    def num_classes(self) -> int:
        return len(self.class_ids)

    def row_of(self, class_id: int) -> int:
        try:
            return self.class_ids.index(class_id)
        except ValueError:
            raise LabelError(f"class {class_id} unknown to the head")

    def copy(self) -> "Head":
        return Head(
            V=self.V.copy() if self.V is not None else None,
            b=self.b.copy() if self.b is not None else None,
            class_ids=list(self.class_ids),
        )


class Network:
    """Stack of adapted layers plus the incremental head."""

    def __init__(self, layers: list[LoRALinear], head: Head):
        for k in range(len(layers) - 1):
            if layers[k].d_out != layers[k + 1].d_in:
                raise ShapeError(
                    "layer dims do not chain",
                    (layers[k].d_out,),
                    (layers[k + 1].d_in,),
                )
        self.layers = layers
        self.head = head

    @property
    def input_dim(self) -> int:
        return self.layers[0].d_in

    @property
    def feature_dim(self) -> int:
        return self.layers[-1].d_out

    def copy(self) -> "Network":
        return Network([l.copy() for l in self.layers], self.head.copy())

    def trainable_adapters(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.extend([layer.A, layer.B])
        return out


def new_network(
    layer_dims: list[int],
    rank: int,
    rng: RngState,
    identity_scale: float = 0.5,
    noise_scale: float = 0.1,
    feature_gain: float = 8.0,
) -> Network:
    """Fresh network with near-isometric base weights and a reset adapter.

    Base matrices start as identity_scale times a (truncated) identity plus
    uniform noise of magnitude noise_scale/sqrt(d_in); the last layer's
    identity part is multiplied by feature_gain. Keeping the initial map
    close to a scaled isometry preserves input geometry through the stack
    (the tanh between layers stays in its linear zone), which is what makes
    the frozen backbone transferable to classes it was never trained on,
    and the output gain gives the head large-norm features so trained rows
    stay small. layer_dims = [d_in, h1, ..., d_feat]; the head starts empty
    and grows with expand_head.
    """
    if len(layer_dims) < 2:
        raise ShapeError("need at least one layer")
    layers = []
    n_layers = len(layer_dims) - 1
    for k, (d_in, d_out) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
        bound = noise_scale / np.sqrt(d_in)
        W = uniform_matrix(rng, d_out, d_in, -bound, bound)
        seed_scale = identity_scale * (feature_gain if k == n_layers - 1 and n_layers > 1 else 1.0)
        for i in range(min(d_out, d_in)):
            W[i, i] += seed_scale
        A = np.zeros((d_out, rank))
        B = uniform_matrix(rng, rank, d_in, -1.0 / np.sqrt(d_in), 1.0 / np.sqrt(d_in))
        layers.append(LoRALinear(W, A, B, rank))
    return Network(layers, Head(V=None, b=None, class_ids=[]))


def reset_adapter(net: Network, rng: RngState, b_scale: float = 1.0) -> None:
    """A <- 0, B <- uniform on [-s/sqrt(d_in), +s/sqrt(d_in)), per layer."""
    for layer in net.layers:
        layer.A[:] = 0.0
        bound = b_scale / np.sqrt(layer.d_in)
        layer.B[:] = uniform_matrix(rng, layer.rank, layer.d_in, -bound, bound)


@dataclass
class ForwardCache:
    """Per-layer inputs, the pre-head feature, and the raw logits."""

    inputs: list[np.ndarray]
    feature: np.ndarray
    logits: np.ndarray


def forward(net: Network, x: np.ndarray) -> ForwardCache:
    """Run a batch of rows through the network; the cache holds the logits."""
    if x.shape[1] != net.input_dim:
        raise ShapeError("input dim mismatch", x.shape, (x.shape[0], net.input_dim))
    if net.head.V is None:
        raise StateError("head is empty; expand_head before forward")
    h = x
    inputs = []
    last = len(net.layers) - 1
    for k, layer in enumerate(net.layers):
        inputs.append(h)
        z = layer.apply_rows(h)
        h = np.tanh(z) if k < last else z
    feature = h
    logits = feature @ net.head.V.T + net.head.b.T
    return ForwardCache(inputs, feature, logits)


@dataclass
class GradientBundle:
    """Analytic gradients of the mean cross-entropy for one batch.

    d_delta_w[k] is the gradient with respect to layer k's full weight
    matrix; d_a and d_b follow from it by the chain rule through AB.
    """

    d_a: list[np.ndarray]
    d_b: list[np.ndarray]
    d_delta_w: list[np.ndarray]
    d_v: np.ndarray
    d_bias: np.ndarray


def label_rows(head: Head, labels: list[int]) -> np.ndarray:
    """Head row of each label; LabelError for a class the head does not know.

    The head does not change while a task trains, so callers map a task's
    labels once and slice the result per batch.
    """
    return np.array([head.row_of(y) for y in labels], dtype=np.int64)


def _loss_and_dlogits(logits: np.ndarray, rows: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its logit gradient (softmax - onehot)/m."""
    m = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(z[:, 0]) - shifted[np.arange(m), rows]))
    g = e / z
    g[np.arange(m), rows] -= 1.0
    g /= m
    return loss, g


def dz_per_layer(net: Network, cache: ForwardCache, g_logits: np.ndarray) -> list[np.ndarray]:
    """Backpropagate logit gradients to each layer's pre-activation gradient d_z.

    Nothing is summed over the batch: row i of every returned matrix comes
    from row i of g_logits alone. Layer k's weight gradient is then
    d_z[k]^T h[k], summed over the rows for training and squared row by row
    for the Fisher.
    """
    d_h = g_logits @ net.head.V
    n_layers = len(net.layers)
    dzs: list = [None] * n_layers
    for k in range(n_layers - 1, -1, -1):
        layer = net.layers[k]
        if k == n_layers - 1:
            d_z = d_h
        else:
            h_out = cache.inputs[k + 1]  # tanh(z_k)
            d_z = d_h * (1.0 - h_out * h_out)
        dzs[k] = d_z
        if k > 0:
            d_h = d_z @ layer.W + (d_z @ layer.A) @ layer.B
    return dzs


def _weight_grads(net: Network, cache: ForwardCache, rows: np.ndarray) -> tuple[float, list[np.ndarray], np.ndarray, np.ndarray]:
    """Mean loss, d_w per layer (gradient of the full weight matrix), d_v, d_bias."""
    loss, g = _loss_and_dlogits(cache.logits, rows)
    d_w = [d_z.T @ h_in for d_z, h_in in zip(dz_per_layer(net, cache, g), cache.inputs)]
    return loss, d_w, g.T @ cache.feature, g.sum(axis=0)[:, None]


def backward(net: Network, cache: ForwardCache, rows: np.ndarray) -> tuple[float, GradientBundle]:
    """Loss plus gradients for the adapters and the head (base W held fixed).

    rows holds the head row of each sample's label, from label_rows.
    """
    loss, d_dw, d_v, d_bias = _weight_grads(net, cache, rows)
    d_a = [dw @ layer.B.T for dw, layer in zip(d_dw, net.layers)]
    d_b = [layer.A.T @ dw for dw, layer in zip(d_dw, net.layers)]
    return loss, GradientBundle(d_a, d_b, d_dw, d_v, d_bias)


def backward_wrt_base(net: Network, cache: ForwardCache, rows: np.ndarray) -> tuple[float, list[np.ndarray], np.ndarray, np.ndarray]:
    """Loss plus gradients with each layer's base matrix W as the free variable.

    Used for pretraining the backbone; the adapters are held fixed. rows
    are head rows, as for backward. Returns (loss, d_w per layer, d_v, d_bias).
    """
    return _weight_grads(net, cache, rows)


def merge_and_reset(net: Network, rng: RngState, b_scale: float = 1.0) -> None:
    """Fold each adapter into the base (W += AB) and re-initialize it."""
    for layer in net.layers:
        layer.W += layer.A @ layer.B
        _check_finite(layer.W)
    reset_adapter(net, rng, b_scale=b_scale)


def expand_head(net: Network, new_class_ids: list[int], rng: RngState) -> None:
    """Grow V and b by one uniformly initialized row per new class."""
    if len(set(new_class_ids)) != len(new_class_ids):
        raise ProtocolError(f"duplicate ids in expansion: {new_class_ids}")
    clash = set(new_class_ids) & set(net.head.class_ids)
    if clash:
        raise ProtocolError(f"classes already known: {sorted(clash)}")
    if not new_class_ids:
        return
    d = net.feature_dim
    bound = 1.0 / np.sqrt(d)
    new_v = uniform_matrix(rng, len(new_class_ids), d, -bound, bound)
    new_b = uniform_matrix(rng, len(new_class_ids), 1, -bound, bound)
    if net.head.V is None:
        net.head.V = new_v
        net.head.b = new_b
    else:
        net.head.V = np.vstack([net.head.V, new_v])
        net.head.b = np.vstack([net.head.b, new_b])
    net.head.class_ids.extend(new_class_ids)


def predict_labels(net: Network, x: np.ndarray) -> list[int]:
    """Global class id per row, argmax over every class seen so far.

    NumericalError when a logit is NaN or Inf: no prediction is made from one.
    """
    logits = forward(net, x).logits
    _check_finite(logits)
    ids = net.head.class_ids
    return [ids[j] for j in logits.argmax(axis=1)]


def accuracy(net: Network, x: np.ndarray, labels: list[int]) -> float:
    pred = predict_labels(net, x)
    hits = sum(1 for p, y in zip(pred, labels) if p == y)
    return hits / len(labels)


def save_checkpoint(net: Network, directory, seed: int | None = None) -> None:
    """Directory of per-layer CSV matrices plus a JSON manifest."""
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "layer_dims": [net.layers[0].d_in] + [l.d_out for l in net.layers],
        "rank": net.layers[0].rank,
        "class_ids": list(net.head.class_ids),
        "seed": seed,
    }
    for k, layer in enumerate(net.layers):
        write_matrix_csv(os.path.join(directory, f"layer{k}_W.csv"), layer.W)
        write_matrix_csv(os.path.join(directory, f"layer{k}_A.csv"), layer.A)
        write_matrix_csv(os.path.join(directory, f"layer{k}_B.csv"), layer.B)
    if net.head.V is not None:
        write_matrix_csv(os.path.join(directory, "head_V.csv"), net.head.V)
        write_matrix_csv(os.path.join(directory, "head_b.csv"), net.head.b)
    atomic_write(os.path.join(directory, "manifest.json"), json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_checkpoint(directory) -> Network:
    with open(os.path.join(directory, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    dims = manifest["layer_dims"]
    rank = manifest["rank"]
    layers = []
    for k in range(len(dims) - 1):
        W = read_matrix_csv(os.path.join(directory, f"layer{k}_W.csv"))
        A = read_matrix_csv(os.path.join(directory, f"layer{k}_A.csv"))
        B = read_matrix_csv(os.path.join(directory, f"layer{k}_B.csv"))
        layers.append(LoRALinear(W, A, B, rank))
    head = Head(V=None, b=None, class_ids=list(manifest["class_ids"]))
    v_path = os.path.join(directory, "head_V.csv")
    if os.path.exists(v_path):
        head.V = read_matrix_csv(v_path)
        head.b = read_matrix_csv(os.path.join(directory, "head_b.csv"))
    return Network(layers, head)
