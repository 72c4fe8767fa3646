"""Micro feed-forward classifier with a shared low-rank adapter per layer.

Each linear layer holds a frozen base matrix W plus trainable factors
A (d_out x r) and B (r x d_in); the layer map is x -> Wx + A(Bx), so with
A = 0 the layer is exactly the frozen map. tanh sits between consecutive
layers; the last layer's output feeds a linear head over every class seen
so far. Gradients are derived analytically layer by layer; there is no
autodiff graph. backward is the one gradient function of every training
step: it writes into arrays the caller owns and allocates none. Batches
use the row convention (one sample per row), so the math below works
with transposed products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import LabelError, ProtocolError, ShapeError, StateError
from .tensor import RngState, _check_finite, load_state, save_state, uniform_matrix


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
        z = h @ self.W.T
        z += (h @ self.B.T) @ self.A.T
        return z

    def copy(self) -> "LoRALinear":
        return LoRALinear(self.W.copy(), self.A.copy(), self.B.copy(), self.rank)


@dataclass
class Head:
    """Linear classifier over all classes seen so far; rows track class_ids."""

    V: np.ndarray | None
    b: np.ndarray | None
    class_ids: list[int] = field(default_factory=list)

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


def new_network(
    layer_dims: list[int],
    rank: int,
    rng: RngState,
    identity_scale: float,
    noise_scale: float,
    feature_gain: float,
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
    """Per-layer inputs, the pre-head feature, and the raw logits.

    slopes, the tanh derivatives 1 - h^2 of the hidden layers, is filled by
    the first dz_per_layer on the cache and reused by later ones.
    """

    inputs: list[np.ndarray]
    feature: np.ndarray
    logits: np.ndarray
    slopes: list[np.ndarray] | None = None


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
        h = layer.apply_rows(h)
        if k < last:
            np.tanh(h, out=h)
    return ForwardCache(inputs, h, h @ net.head.V.T + net.head.b.T)


def label_rows(head: Head, labels: list[int]) -> np.ndarray:
    """Head row of each label; LabelError for a class the head does not know.

    The head does not change while a task trains, so callers map a task's
    labels once and slice the result per batch.
    """
    return np.array([head.row_of(y) for y in labels], dtype=np.int64)


@lru_cache(maxsize=16)  # 0..m-1, made once per batch size and shared, so read-only
def _positions(m: int) -> np.ndarray:
    p = np.arange(m)
    p.flags.writeable = False
    return p


def _loss_and_dlogits(logits: np.ndarray, rows: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its logit gradient (softmax - onehot)/m."""
    m = logits.shape[0]
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    g = np.exp(shifted)
    z = np.add.reduce(g, axis=1, keepdims=True)
    picked = (_positions(m), rows)
    loss = float(np.add.reduce(np.log(z[:, 0]) - shifted[picked]) / m)  # np.mean's bits
    g /= z
    g[picked] -= 1.0
    g /= m
    return loss, g


def dz_per_layer(net: Network, cache: ForwardCache, g_logits: np.ndarray) -> list[np.ndarray]:
    """Backpropagate logit gradients to each layer's pre-activation gradient d_z.

    Nothing is summed over the batch: row i of every returned matrix comes
    from row i of g_logits alone. Layer k's weight gradient is then
    d_z[k]^T h[k], summed over the rows for training and squared row by row
    for the Fisher.
    """
    n_layers = len(net.layers)
    slopes = cache.slopes
    if slopes is None:
        slopes = cache.slopes = [None] * (n_layers - 1)
    d_h = g_logits @ net.head.V
    dzs: list = [None] * n_layers
    for k in range(n_layers - 1, -1, -1):
        layer = net.layers[k]
        d_z = d_h
        if k < n_layers - 1:
            # made where first used: at 256-wide layers, making them all
            # before the loop slowed this function by ~15%
            if slopes[k] is None:
                sq = cache.inputs[k + 1] * cache.inputs[k + 1]  # h = tanh(z_k)
                slopes[k] = np.subtract(1.0, sq, out=sq)
            np.multiply(d_z, slopes[k], out=d_z)
        dzs[k] = d_z
        if k > 0:
            d_h = d_z @ layer.W
            d_h += (d_z @ layer.A) @ layer.B
    return dzs


def backward(net: Network, cache: ForwardCache, rows: np.ndarray, d_w: list, d_v: np.ndarray, d_bias: np.ndarray, d_a: list | None = None, d_b: list | None = None) -> float:
    """Mean cross-entropy of the batch; its gradients go into the caller's arrays.

    rows holds label_rows' head rows. d_w[k] gets the gradient of layer k's
    full weight matrix W + AB, which pretraining trains W on; d_v and d_bias
    get the head's. Given d_a and d_b, the chain rule through AB fills them
    too: d_a[k] = d_w[k] B^T and d_b[k] = A^T d_w[k].
    """
    loss, g = _loss_and_dlogits(cache.logits, rows)
    for d_z, h_in, dw in zip(dz_per_layer(net, cache, g), cache.inputs, d_w):
        np.matmul(d_z.T, h_in, out=dw)
    np.matmul(g.T, cache.feature, out=d_v)
    np.add.reduce(g, axis=0, out=d_bias[:, 0])
    if d_a is not None:
        for dw, layer, da, db in zip(d_w, net.layers, d_a, d_b):
            np.matmul(dw, layer.B.T, out=da)
            np.matmul(layer.A.T, dw, out=db)
    return loss


def merge_and_reset(net: Network, rng: RngState, b_scale: float = 1.0) -> float:
    """Fold each adapter into the base (W += AB) and re-initialize it; returns the Frobenius norm of the folded update."""
    norm_sq = 0.0
    for layer in net.layers:
        delta = layer.A @ layer.B
        norm_sq += float(np.sum(delta * delta))
        layer.W += delta
        _check_finite(layer.W)
    reset_adapter(net, rng, b_scale=b_scale)
    return math.sqrt(norm_sq)


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


def accuracy(net: Network, x: np.ndarray, labels: list[int]) -> float:
    """Share of rows whose argmax over every class seen so far is their label.

    NumericalError when a logit is NaN or Inf: no prediction is made from one.
    """
    logits = forward(net, x).logits
    _check_finite(logits)
    ids = net.head.class_ids
    hits = sum(1 for j, y in zip(logits.argmax(axis=1), labels) if ids[j] == y)
    return hits / len(labels)


def checkpoint_names(layers: int, head: bool = False) -> list[str]:
    """The arrays save_checkpoint writes for a network of that many layers, with head rows or without, in its order."""
    return [f"layer{k}_{name}" for k in range(layers) for name in "WAB"] + ["head_V", "head_b"] * head


def save_checkpoint(net: Network, directory, seed: int | None = None) -> None:
    """The network as a state directory: each layer's W, A and B, and the head's V and b if it has rows."""
    head = [net.head.V, net.head.b] if net.head.V is not None else []
    blocks = [getattr(layer, name) for layer in net.layers for name in "WAB"] + head
    arrays = dict(zip(checkpoint_names(len(net.layers), bool(head)), blocks))
    meta = {
        "layer_dims": [net.layers[0].d_in] + [l.d_out for l in net.layers],
        "rank": net.layers[0].rank,
        "class_ids": list(net.head.class_ids),
        "seed": seed,
    }
    save_state(directory, arrays, meta)


def load_checkpoint(directory) -> Network:
    arrays, meta = load_state(directory)
    layers = [LoRALinear(*(arrays[f"layer{k}_{name}"] for name in "WAB"), meta["rank"]) for k in range(len(meta["layer_dims"]) - 1)]
    return Network(layers, Head(V=arrays.get("head_V"), b=arrays.get("head_b"), class_ids=list(meta["class_ids"])))
