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

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .model import ForwardCache, Network, dz_per_layer, forward, label_rows
from .tasks import Dataset
from .tensor import RngState, _check_finite, _softmax_rows, load_state, save_state


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
    def parse(cls, text: str) -> "EstimatorKind":
        text = text.strip().lower()
        if text.startswith("exact_subset"):
            inner = text[len("exact_subset"):].strip("() ")
            try:
                return cls("exact_subset", int(inner))
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
    """Squared per-sample gradients of one pass, update and factor space, summed over its rows.

    The squared layer inputs h*h (and, for the factor space, (h B^T)^2) do
    not depend on the logit gradient, so they are made once per cache and
    every term reuses them.
    """

    def __init__(self, net: Network, cache: ForwardCache, factor_space: bool):
        self.net = net
        self.cache = cache
        self.h2 = [h * h for h in cache.inputs]
        self.bh2 = [bh * bh for bh in (h @ l.B.T for h, l in zip(cache.inputs, net.layers))] if factor_space else None

    def term(self, g_logits: np.ndarray) -> list[np.ndarray]:
        """One logit gradient's sums: fdw per layer, then, in the factor space, fa and fb per layer."""
        dzs = dz_per_layer(self.net, self.cache, g_logits)
        sdw, sa, sb = [], [], []
        for k, layer in enumerate(self.net.layers):
            dza = dzs[k] @ layer.A if self.bh2 is not None else None
            dz2 = np.square(dzs[k], out=dzs[k])  # squared in place: nothing reads d_z after this
            sdw.append(dz2.T @ self.h2[k])
            if self.bh2 is not None:
                sa.append(dz2.T @ self.bh2[k])
                sb.append(np.square(dza, out=dza).T @ self.h2[k])
        return sdw + sa + sb


def _onehot_minus_probs(probs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    g = -probs
    g[np.arange(len(rows)), rows] += 1.0
    return g


def _sample_classes(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One class index per row, inverse-CDF on one uniform draw per row.

    Each row's cumulative sum runs left to right; a draw that no sum
    exceeds falls to the last class.
    """
    hits = uniforms[:, None] < np.cumsum(probs, axis=1)
    return np.where(hits.any(axis=1), hits.argmax(axis=1), probs.shape[1] - 1)


def draw(kind: EstimatorKind, n: int, rng: RngState | None) -> np.ndarray | None:
    """The draws of one pass over n rows, made on rng: exact_subset's rows or sampled's uniform per row."""
    if kind.name == "exact_subset":
        return np.array(sorted(rng.sample_indices(n, min(kind.subset, n))), dtype=np.intp)  # set draw; fixed order keeps sums stable
    if kind.name == "sampled":
        return rng.floats(n)
    return None


def pass_means(net: Network, data: Dataset, kind: EstimatorKind, draws: np.ndarray | None, factor_space: bool = False) -> tuple:
    """One estimate's pass on its draws (see draw): the row means of its squared gradients, as FisherDiag's fdw, fa and fb.

    The one-term estimators take each row's class (its label, or its draw);
    exact sums head class c weighted by its probability, in class order.
    """
    if kind.name == "exact_subset":
        data = data.subset(draws)
    cache = forward(net, data.X)
    probs = _softmax_rows(cache.logits)
    acc = _Accumulator(net, cache, factor_space)
    if kind.name.startswith("exact"):
        roots = np.sqrt(probs)  # sqrt, squared later
        for c in range(probs.shape[1]):
            g = np.negative(probs)
            g[:, c] += 1.0
            g *= roots[:, c, None]
            term = acc.term(g)
            sums = term if c == 0 else [np.add(total, part, out=total) for total, part in zip(sums, term)]
    else:
        rows = label_rows(net.head, data.y) if kind.name == "empirical" else _sample_classes(probs, draws)
        sums = acc.term(_onehot_minus_probs(probs, rows))
    n = len(net.layers)
    means = [s / data.n for s in sums]
    return means[:n], means[n : 2 * n] or None, means[2 * n :] or None


def estimate(net: Network, data: Dataset, kind: EstimatorKind, rng: RngState | None = None, factor_space: bool = False) -> FisherDiag:
    """Update-space diagonal Fisher at the network's current parameters; with factor_space, also in A- and B-space.

    The outer expectation runs over the dataset; the inner one follows the
    estimator kind. Head parameters are never included.
    """
    if data.n < 1:
        raise DataError("cannot estimate Fisher on an empty dataset")
    if kind.draws and rng is None:
        raise ParameterError(f"the {kind.label()} estimator needs an rng for its draws")
    return FisherDiag(*pass_means(net, data, kind, draw(kind, data.n, rng), factor_space))


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


def fisher_names(layers: int, factor_space: bool = False) -> list[str]:
    """The arrays save_fisher writes for a Fisher of that many layers, in its order."""
    return [f"layer{k}_{name}" for name in ("fdw", "fa", "fb")[: 3 if factor_space else 1] for k in range(layers)]


def save_fisher(f: FisherDiag, directory, kind_label: str = "", task_index: int | None = None) -> None:
    """The Fisher as a state directory: each layer's fdw (and fa, fb), and how it was estimated."""
    arrays = dict(zip(fisher_names(len(f.fdw), f.has_factor_space), f.fdw + f.fa + f.fb if f.has_factor_space else f.fdw))
    # gamma_history has no writer; it stays, empty, so that saved manifests keep their bytes
    meta = {"estimator": kind_label, "gamma_history": [], "task_index": task_index, "layers": len(f.fdw), "factor_space": f.has_factor_space}
    save_state(directory, arrays, meta)


def load_fisher(directory) -> FisherDiag:
    arrays, meta = load_state(directory)
    names = ("fdw", "fa", "fb") if meta["factor_space"] else ("fdw",)
    return FisherDiag(*([arrays[f"layer{k}_{name}"] for k in range(meta["layers"])] for name in names))
