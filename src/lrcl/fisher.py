"""Diagonal Fisher information, one importance type per penalty space, with decayed accumulation.

The update-space diagonal is stored per layer in the shape of the full update AB, so
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

An estimate is an UpdateFisher (the diagonal on each layer's AB) or a
FactorFisher (those on A and B, beside the AB one), and each binds its
own penalty: no code outside the two types branches on the space.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .model import ForwardCache, Network, dz_per_layer, forward, label_rows
from .tasks import Dataset
from .tensor import RngState, _check_finite, _softmax_rows, save_state


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


class _Accumulator:
    """Squared per-sample gradients of one pass on each layer's update AB, summed over its rows.

    The squared layer inputs h*h do not depend on the logit gradient, so
    they are made once per cache and every term reuses them.
    """

    def __init__(self, net: Network, cache: ForwardCache):
        self.net = net
        self.cache = cache
        self.h2 = [h * h for h in cache.inputs]

    def term(self, g_logits: np.ndarray) -> list[np.ndarray]:
        """One logit gradient's sums, in the order of the importance type's blocks."""
        return self.sums(dz_per_layer(self.net, self.cache, g_logits))

    def sums(self, dzs: list[np.ndarray]) -> list[np.ndarray]:
        return [np.square(dz, out=dz).T @ h2 for dz, h2 in zip(dzs, self.h2)]  # squared in place: nothing reads d_z after this


class _FactorAccumulator(_Accumulator):
    """Also the sums on each layer's factors A and B; (h B^T)^2 is made once per cache too."""

    def __init__(self, net: Network, cache: ForwardCache):
        super().__init__(net, cache)
        self.bh2 = [bh * bh for bh in (h @ l.B.T for h, l in zip(cache.inputs, net.layers))]

    def sums(self, dzs: list[np.ndarray]) -> list[np.ndarray]:
        dzas = [dz @ layer.A for dz, layer in zip(dzs, self.net.layers)]
        sdw = super().sums(dzs)  # which leaves each d_z squared
        return sdw + [dz2.T @ bh2 for dz2, bh2 in zip(dzs, self.bh2)] + [np.square(dza, out=dza).T @ h2 for dza, h2 in zip(dzas, self.h2)]


class _Importance:
    """What the two importance types share. Their dataclass fields are their blocks,
    each a list of finite, nonnegative arrays, one per layer; fdw comes first."""

    def __post_init__(self):
        for block in self.blocks():
            for m in block:
                _check_finite(m)
                if (m < 0).any():
                    raise ParameterError("Fisher entries must be nonnegative")

    def blocks(self) -> list[list[np.ndarray]]:
        return [getattr(self, f.name) for f in fields(self)]

    def shapes(self) -> list[list[tuple[int, int]]]:
        return [[m.shape for m in block] for block in self.blocks()]

    @classmethod
    def full(cls, net: Network, value: float) -> "_Importance":
        """This type with every entry value, in the shapes that net's adapters bind."""
        return cls(*([np.full(shape, value) for shape in block] for block in cls.expected([l.A for l in net.layers], [l.B for l in net.layers])))

    def bind(self, As: list[np.ndarray], Bs: list[np.ndarray], lam: float, grad_a: list[np.ndarray], grad_b: list[np.ndarray]) -> Callable[[], float] | None:
        """The type's penalty kernel on these adapters, after the checks that the kernel leaves out: a call of
        no arguments that adds its gradients into grad_a and grad_b and returns its value; None at lam = 0."""
        if lam < 0:
            raise ParameterError(f"lambda must be nonnegative, got {lam}")
        if len(As) != len(Bs) or any(A.shape[1] != B.shape[0] for A, B in zip(As, Bs)) or self.shapes() != self.expected(As, Bs):
            raise ShapeError("penalty shape mismatch", [(A.shape, B.shape) for A, B in zip(As, Bs)], self.shapes())
        from . import regularize  # not at the top: regularize imports this module for its table
        return None if lam == 0 else functools.partial(getattr(regularize, self.kernel), As, Bs, *self.anchors(Bs), self, lam, grad_a, grad_b)

    def decayed(self, new: "_Importance", gamma: float) -> "_Importance":
        """gamma * self + new, elementwise, block by block; new must be of this type and these shapes."""
        if type(new) is not type(self):
            raise ParameterError(f"cannot add a {type(new).__name__} to a {type(self).__name__}")
        if new.shapes() != self.shapes():
            raise ShapeError("fisher shape mismatch", self.shapes(), new.shapes())
        return type(self)(*([gamma * mc + mn for mc, mn in zip(cum, add)] for cum, add in zip(self.blocks(), new.blocks())))

    @classmethod
    def names(cls, layers: int) -> list[str]:
        """The names of arrays() for that many layers, in its order."""
        return [f"layer{k}_{f.name}" for f in fields(cls) for k in range(layers)]

    def arrays(self) -> dict[str, np.ndarray]:
        """Every block's layers by name, for save_state."""
        return dict(zip(self.names(len(self.fdw)), (m for block in self.blocks() for m in block)))

    def flat(self) -> np.ndarray:
        """All layers' update-space entries, layer order then row-major: the vector diagnose compares."""
        return np.concatenate([m.ravel() for m in self.fdw])


@dataclass
class UpdateFisher(_Importance):
    """Update-space importance: each layer's diagonal Fisher on its full update AB, which weighs penalty_deltaw."""

    fdw: list[np.ndarray]
    fa = fb = ()  # no factor blocks, for readers of every block name, as a learner's saved state is written
    accumulator = _Accumulator
    kernel = "penalty_deltaw"
    expected = staticmethod(lambda As, Bs: [[(A.shape[0], B.shape[1]) for A, B in zip(As, Bs)]])  # the blocks' shapes on these adapters
    anchors = staticmethod(lambda Bs: ())  # the kernel's arguments between Bs and the Fisher, taken at bind


@dataclass
class FactorFisher(_Importance):
    """Factor-space importance: each layer's diagonals on A (fa) and on B (fb), which weigh penalty_separate
    with each B anchored where it is at bind, the task's start; and the update-space fdw that the same
    passes give, which diagnose compares."""

    fdw: list[np.ndarray]
    fa: list[np.ndarray]
    fb: list[np.ndarray]
    accumulator = _FactorAccumulator
    kernel = "penalty_separate"
    expected = staticmethod(lambda As, Bs: UpdateFisher.expected(As, Bs) + [[A.shape for A in As], [B.shape for B in Bs]])
    anchors = staticmethod(lambda Bs: ([B.copy() for B in Bs],))


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


def pass_means(net: Network, data: Dataset, kind: EstimatorKind, draws: np.ndarray | None, importance: type = UpdateFisher) -> tuple:
    """One estimate's pass on its draws (see draw): the row means of its squared gradients, as importance's blocks.

    The one-term estimators take each row's class (its label, or its draw);
    exact sums head class c weighted by its probability, in class order.
    """
    if kind.name == "exact_subset":
        data = data.subset(draws)
    cache = forward(net, data.X)
    probs = _softmax_rows(cache.logits)
    acc = importance.accumulator(net, cache)
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
    return tuple([s / data.n for s in sums[i : i + n]] for i in range(0, len(sums), n))


def estimate(net: Network, data: Dataset, kind: EstimatorKind, rng: RngState | None = None, importance: type = UpdateFisher) -> _Importance:
    """The importance type's diagonal Fisher at the network's current parameters.

    The outer expectation runs over the dataset; the inner one follows the
    estimator kind. Head parameters are never included.
    """
    if data.n < 1:
        raise DataError("cannot estimate Fisher on an empty dataset")
    if kind.draws and rng is None:
        raise ParameterError(f"the {kind.label()} estimator needs an rng for its draws")
    return importance(*pass_means(net, data, kind, draw(kind, data.n, rng), importance))


def accumulate(f_cum: _Importance, f_t: _Importance, gamma: float) -> _Importance:
    """Decayed running combination gamma * f_cum + f_t, elementwise; both of one importance type."""
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma}")
    return f_cum.decayed(f_t, gamma)


def save_fisher(f: _Importance, directory, kind_label: str = "", task_index: int | None = None) -> None:
    """The Fisher as a state directory: its arrays, and how it was estimated."""
    arrays = f.arrays()
    # gamma_history has no writer, and the flag of the factor blocks no reader;
    # both stay so that saved manifests keep their bytes
    meta = {"estimator": kind_label, "gamma_history": [], "task_index": task_index, "layers": len(f.fdw), "factor_space": len(arrays) > len(f.fdw)}
    save_state(directory, arrays, meta)
