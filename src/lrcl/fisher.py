"""Diagonal Fisher information in update space, with decayed accumulation.

The diagonal is stored per layer in the shape of the full update AB, so
entries line up one-to-one with base weights. Because the base is frozen,
the gradient of log p(y|x) with respect to a layer's weight matrix equals
the gradient with respect to its update, and for a single sample it is the
outer product dz^T h of the backpropagated logit error and the layer
input. Its elementwise square therefore factorizes as outer(dz*dz, h*h),
and summing over samples is one matmul of squared matrices; that identity
is what makes whole-dataset estimation cheap here.

Four inner-expectation variants are supported: the empirical Fisher (true
label), the exact Fisher (full class sum weighted by the predictive
distribution), the exact Fisher on a sampled subset, and a single class
draw per sample.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .model import ForwardCache, Network, dz_per_layer, forward, label_rows
from .tasks import Dataset
from .tensor import RngState, _check_finite, _softmax_rows, atomic_write, read_matrix_csv, write_matrix_csv


@dataclass(frozen=True)
class EstimatorKind:
    """One of empirical | exact | exact_subset(n) | sampled."""

    name: str
    subset: int | None = None

    _VALID = ("empirical", "exact", "exact_subset", "sampled")

    def __post_init__(self):
        if self.name not in self._VALID:
            raise ParameterError(f"unknown estimator {self.name!r}")
        if self.name == "exact_subset":
            if self.subset is None or self.subset < 1:
                raise ParameterError("exact_subset needs n >= 1")
        elif self.subset is not None:
            raise ParameterError(f"{self.name} takes no subset size")

    @classmethod
    def empirical(cls) -> "EstimatorKind":
        return cls("empirical")

    @classmethod
    def exact(cls) -> "EstimatorKind":
        return cls("exact")

    @classmethod
    def exact_subset(cls, n: int) -> "EstimatorKind":
        return cls("exact_subset", n)

    @classmethod
    def sampled(cls) -> "EstimatorKind":
        return cls("sampled")

    @classmethod
    def parse(cls, text: str) -> "EstimatorKind":
        text = text.strip().lower()
        if text.startswith("exact_subset"):
            inner = text[len("exact_subset"):].strip("() ")
            try:
                return cls.exact_subset(int(inner))
            except ValueError:
                raise ParameterError(f"exact_subset needs an integer size, got {text!r}")
        return cls(text)

    @property
    def draws(self) -> bool:
        """Whether an estimate consumes the rng: a subset draw or a class draw."""
        return self.name in ("exact_subset", "sampled")

    def label(self) -> str:
        if self.name == "exact_subset":
            return f"exact_subset({self.subset})"
        return self.name


@dataclass
class FisherDiag:
    """Per-layer finite, nonnegative diagonals; factor-space blocks are optional."""

    fdw: list[np.ndarray]
    fa: list[np.ndarray] | None = None
    fb: list[np.ndarray] | None = None

    def __post_init__(self):
        for group in (self.fdw, self.fa, self.fb):
            if group is None:
                continue
            for m in group:
                _check_finite(m)
                if (m < 0).any():
                    raise ParameterError("Fisher entries must be nonnegative")

    @property
    def has_factor_space(self) -> bool:
        return self.fa is not None and self.fb is not None


def zeros_like(net: Network, factor_space: bool = False) -> FisherDiag:
    fdw = [np.zeros((l.d_out, l.d_in)) for l in net.layers]
    fa = fb = None
    if factor_space:
        fa = [np.zeros((l.d_out, l.rank)) for l in net.layers]
        fb = [np.zeros((l.rank, l.d_in)) for l in net.layers]
    return FisherDiag(fdw, fa, fb)


def uniform_fisher(net: Network) -> FisherDiag:
    """Uniform parameter importance: every diagonal entry exactly 1."""
    return FisherDiag([np.ones((l.d_out, l.d_in)) for l in net.layers])


def flatten(f: FisherDiag) -> np.ndarray:
    """All layers' update-space entries, layer order then row-major."""
    return np.concatenate([m.ravel() for m in f.fdw])


def fisher_norm(f: FisherDiag) -> float:
    flat = flatten(f)
    return float(np.sqrt(np.dot(flat, flat)))


class _Accumulator:
    """Running sums of squared per-sample gradients, update and factor space."""

    def __init__(self, net: Network, factor_space: bool):
        self.net = net
        self.factor_space = factor_space
        self.sdw = [np.zeros((l.d_out, l.d_in)) for l in net.layers]
        if factor_space:
            self.sa = [np.zeros((l.d_out, l.rank)) for l in net.layers]
            self.sb = [np.zeros((l.rank, l.d_in)) for l in net.layers]

    def add(self, cache: ForwardCache, g_logits: np.ndarray) -> None:
        dzs = dz_per_layer(self.net, cache, g_logits)
        for k, layer in enumerate(self.net.layers):
            dz2 = dzs[k] * dzs[k]
            h = cache.inputs[k]
            self.sdw[k] += dz2.T @ (h * h)
            if self.factor_space:
                bh = h @ layer.B.T
                self.sa[k] += dz2.T @ (bh * bh)
                dza = dzs[k] @ layer.A
                self.sb[k] += (dza * dza).T @ (h * h)

    def finish(self, n_samples: int) -> FisherDiag:
        fdw = [s / n_samples for s in self.sdw]
        fa = fb = None
        if self.factor_space:
            fa = [s / n_samples for s in self.sa]
            fb = [s / n_samples for s in self.sb]
        return FisherDiag(fdw, fa, fb)


def _onehot_minus_probs(probs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    g = -probs
    g[np.arange(len(rows)), rows] += 1.0
    return g


def _sample_classes(probs: np.ndarray, rng: RngState) -> np.ndarray:
    """One class index per row, inverse-CDF on the given stream.

    Each row's cumulative sum runs left to right; a draw that no sum
    exceeds falls to the last class.
    """
    hits = rng.floats(probs.shape[0])[:, None] < np.cumsum(probs, axis=1)
    return np.where(hits.any(axis=1), hits.argmax(axis=1), probs.shape[1] - 1)


def _estimate(net: Network, data: Dataset, kind: EstimatorKind, rng: RngState | None, factor_space: bool) -> FisherDiag:
    if data.n < 1:
        raise DataError("cannot estimate Fisher on an empty dataset")
    if kind.draws and rng is None:
        raise ParameterError(f"the {kind.label()} estimator needs an rng for its draws")

    if kind.name == "exact_subset":
        take = min(kind.subset, data.n)
        idx = sorted(rng.sample_indices(data.n, take))  # set draw; fixed order keeps sums stable
        data = data.subset(idx)
        kind = EstimatorKind.exact()

    cache = forward(net, data.X)
    probs = _softmax_rows(cache.logits)
    acc = _Accumulator(net, factor_space)

    if kind.name == "empirical":
        rows = label_rows(net.head, data.y)
        acc.add(cache, _onehot_minus_probs(probs, rows))
    elif kind.name == "sampled":
        rows = _sample_classes(probs, rng)
        acc.add(cache, _onehot_minus_probs(probs, rows))
    else:  # exact: full class sum, each class weighted by its probability
        n_classes = probs.shape[1]
        for c in range(n_classes):
            g = -probs.copy()
            g[:, c] += 1.0
            g *= np.sqrt(probs[:, c])[:, None]  # sqrt, squared later
            acc.add(cache, g)

    return acc.finish(data.n)


def estimate(net: Network, data: Dataset, kind: EstimatorKind, rng: RngState | None = None) -> FisherDiag:
    """Update-space diagonal Fisher at the network's current parameters.

    The outer expectation runs over the dataset; the inner one follows the
    estimator kind. Head parameters are never included.
    """
    return _estimate(net, data, kind, rng, factor_space=False)


def estimate_factor_space(net: Network, data: Dataset, kind: EstimatorKind, rng: RngState | None = None) -> FisherDiag:
    """As estimate, but also squares the gradients in A- and B-space."""
    return _estimate(net, data, kind, rng, factor_space=True)


def accumulate(f_cum: FisherDiag, f_t: FisherDiag, gamma: float) -> FisherDiag:
    """Decayed running combination gamma * f_cum + f_t, elementwise."""
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma}")

    def comb(cum: list[np.ndarray], new: list[np.ndarray]) -> list[np.ndarray]:
        if len(cum) != len(new):
            raise ShapeError("layer count mismatch", (len(cum),), (len(new),))
        out = []
        for mc, mn in zip(cum, new):
            if mc.shape != mn.shape:
                raise ShapeError("fisher shape mismatch", mc.shape, mn.shape)
            out.append(gamma * mc + mn)
        return out

    fdw = comb(f_cum.fdw, f_t.fdw)
    fa = fb = None
    if f_cum.has_factor_space and f_t.has_factor_space:
        fa = comb(f_cum.fa, f_t.fa)
        fb = comb(f_cum.fb, f_t.fb)
    return FisherDiag(fdw, fa, fb)


def precompute_dataset_fisher(net_at_w0: Network, all_task_data: list[Dataset], kind: EstimatorKind, rng: RngState | None = None) -> FisherDiag:
    """One fixed Fisher over the union of every task's data, never updated.

    The caller supplies the network at its pretrained weights with a head
    that already covers every class the union mentions.
    """
    from .tasks import concat_datasets

    return estimate(net_at_w0, concat_datasets(all_task_data), kind, rng)


def save_fisher(f: FisherDiag, directory, kind_label: str = "", gamma_history: list[float] | None = None, task_index: int | None = None) -> None:
    """Per-layer CSVs plus a manifest describing how the estimate was made."""
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "estimator": kind_label,
        "gamma_history": gamma_history or [],
        "task_index": task_index,
        "layers": len(f.fdw),
        "factor_space": f.has_factor_space,
    }
    for k, m in enumerate(f.fdw):
        write_matrix_csv(os.path.join(directory, f"layer{k}_fdw.csv"), m)
    if f.has_factor_space:
        for k, (ma, mb) in enumerate(zip(f.fa, f.fb)):
            write_matrix_csv(os.path.join(directory, f"layer{k}_fa.csv"), ma)
            write_matrix_csv(os.path.join(directory, f"layer{k}_fb.csv"), mb)
    atomic_write(os.path.join(directory, "manifest.json"), json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_fisher(directory) -> FisherDiag:
    with open(os.path.join(directory, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    n = manifest["layers"]
    fdw = [read_matrix_csv(os.path.join(directory, f"layer{k}_fdw.csv")) for k in range(n)]
    fa = fb = None
    if manifest.get("factor_space"):
        fa = [read_matrix_csv(os.path.join(directory, f"layer{k}_fa.csv")) for k in range(n)]
        fb = [read_matrix_csv(os.path.join(directory, f"layer{k}_fb.csv")) for k in range(n)]
    return FisherDiag(fdw, fa, fb)
