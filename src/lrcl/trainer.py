"""Adam optimization, per-task training, and the sequential continual loop.

One task step is: reset the shared adapter, grow the head for the new
classes, minimize cross-entropy plus the configured importance penalty
over the task's batches, estimate a learned Fisher at the task optimum,
fold it into the decayed accumulator, merge the adapter into the base
weights, and evaluate on every task seen so far. Between steps the
learner keeps exactly two pieces of training state: the merged weights
and the accumulated Fisher. Task data and the per-task Fisher estimate
are dropped when the step returns.
"""

from __future__ import annotations

import copy
import functools
import math
import os
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import fisher as fisher_mod
from .errors import ConfigError, DataError, NumericalError, ParameterError, ProtocolError
from .fisher import EstimatorKind
from .model import (
    Head,
    Network,
    accuracy,
    backward,
    expand_head,
    forward,
    label_rows,
    merge_and_reset,
    new_network,
    reset_adapter,
)
from .regularize import STRATEGIES, parse_strategy
from .tasks import Dataset, Task, TaskStream, concat_datasets, stratified_split
from .tensor import RngState


@dataclass
class TrainConfig:
    """Hyperparameters for one continual run."""

    epochs: int = 30
    batch_size: int = 64
    lr: float = 0.05
    head_lr: float = 1e-6
    lam: float = 1e7
    gamma: float = 0.9
    rank: int = 4
    strategy: str = "deltaw"
    estimator: EstimatorKind = field(default_factory=lambda: EstimatorKind("empirical"))
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    lr_schedule: str = "cosine"
    shuffle: bool = False
    hidden_dims: tuple[int, ...] = (48, 48)
    b_init_scale: float = 1.0
    w0_identity_scale: float = 0.5
    w0_noise_scale: float = 0.3
    w0_feature_gain: float = 8.0
    pretrain_mode: str = "train"
    pretrain_epochs: int = 20
    pretrain_lr: float = 0.005

    def __post_init__(self):
        self.strategy = parse_strategy(self.strategy)
        if isinstance(self.estimator, str):
            self.estimator = EstimatorKind.parse(self.estimator)
        for name in ("epochs", "batch_size", "rank"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr", "head_lr", "pretrain_lr"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.lam >= 0:
            raise ConfigError(f"lambda must be nonnegative, got {self.lam}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}")
        for name in ("b_init_scale", "w0_noise_scale"):
            if not 0.0 < getattr(self, name) <= 1e6:
                raise ConfigError(f"{name} must lie in (0, 1e6], got {getattr(self, name)}")
        for name in ("w0_identity_scale", "w0_feature_gain"):
            if not abs(getattr(self, name)) <= 1e6:
                raise ConfigError(f"{name} must lie in [-1e6, 1e6], got {getattr(self, name)}")
        if self.lr_schedule not in ("constant", "cosine"):
            raise ConfigError(f"lr_schedule must be constant or cosine, got {self.lr_schedule!r}")
        if self.pretrain_epochs < 0:
            raise ConfigError(f"pretrain_epochs must be >= 0, got {self.pretrain_epochs}")
        if self.pretrain_mode not in ("train", "random"):
            raise ConfigError(f"pretrain_mode must be train or random, got {self.pretrain_mode!r}")
        self.hidden_dims = tuple(int(d) for d in self.hidden_dims)
        if not self.hidden_dims:
            raise ConfigError("hidden_dims needs at least one layer dimension")
        if min(self.hidden_dims) < 1:
            raise ConfigError(f"hidden_dims entries must be >= 1, got {self.hidden_dims}")
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= beta < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {beta}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")


class AdamState:
    """Flat first/second moment buffers, a shared step counter and the Adam constants."""

    def __init__(self, params: np.ndarray, beta1: float, beta2: float, epsilon: float):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray, lr: list[tuple[slice, float]]) -> None:
    """One bias-corrected Adam update, in place on a flat parameter buffer.

    lr is (slice, rate) pairs covering params. Each element sees the per-array
    update's operations in its order, so the bits match it. grads is overwritten (scratch).
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    m, v, g = state.m, state.v, grads
    step = np.multiply(g, 1.0 - b1)
    m *= b1
    m += step  # b1 m + (1 - b1) g
    v *= b2
    np.multiply(g, g, out=g)
    g *= 1.0 - b2
    v += g  # b2 v + (1 - b2) g^2
    np.divide(v, bc2, out=g)
    np.sqrt(g, out=g)
    g += state.epsilon
    np.divide(m, bc1, out=step)
    for part, rate in lr:
        step[part] *= rate
    step /= g  # lr (m / bc1) / (sqrt(v / bc2) + eps)
    params -= step
    if not np.isfinite(params).all():
        raise NumericalError("parameters left the finite range during Adam update")
    if not v.max() < math.inf:  # an overflowed g^2 would make those coordinates' steps 0
        raise NumericalError("Adam's second moment left the finite range: the squared gradient overflowed")


class _Arena:
    """The adapters (or, for pretraining, the base W) and the head, in one flat buffer.

    Each array is rebound to its view into params, and backward writes into the
    matching grads views, so a step is one adam_step, at one rate per part.
    """

    def __init__(self, net: Network, body: str, config: TrainConfig):
        slots = [(layer, name) for name in body for layer in net.layers] + [(net.head, "V"), (net.head, "b")]
        arrays = [getattr(owner, name) for owner, name in slots]
        self.shapes = [a.shape for a in arrays]
        self.cuts = np.cumsum([a.size for a in arrays])[:-1]
        self.n_body = int(self.cuts[-2])
        self.params = np.concatenate([a.ravel() for a in arrays])
        for (owner, name), view in zip(slots, self.views(self.params)):
            setattr(owner, name, view)
        self.grad = np.empty_like(self.params)
        self.grads = self.views(self.grad)
        self.state = AdamState(self.params, config.beta1, config.beta2, config.epsilon)

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [part.reshape(shape) for part, shape in zip(np.split(flat, self.cuts), self.shapes)]


def _epoch_lr(base: float, epoch: int, total: int, schedule: str) -> float:
    if schedule == "constant":
        return base
    return base * 0.5 * (1.0 + math.cos(math.pi * epoch / total))


def _fit(net: Network, arena: _Arena, data: Dataset, gradient, config: TrainConfig, epochs: int, lr: float, rng: RngState | None, failure: str) -> list[float]:
    """The loop of task training and of pretraining; returns each epoch's mean loss.

    gradient(x, rows) writes a batch's gradient into arena.grad and returns its loss.
    """
    X, rows = data.X, label_rows(net.head, data.y)
    order = list(range(len(X)))
    starts = range(0, len(X), config.batch_size)
    trace = []
    for epoch in range(epochs):
        body_lr, head_lr = (_epoch_lr(rate, epoch, epochs, config.lr_schedule) for rate in (lr, config.head_lr))
        rates = [(slice(arena.n_body), body_lr), (slice(arena.n_body, None), head_lr)]
        epoch_X, epoch_rows = X, rows
        if rng is not None:
            rng.shuffle(order)
            epoch_X, epoch_rows = X[order], rows[order]
        epoch_loss = 0.0
        for s in starts:
            loss = gradient(epoch_X[s : s + config.batch_size], epoch_rows[s : s + config.batch_size])
            if not math.isfinite(loss):
                raise NumericalError(failure.format(epoch=epoch))
            adam_step(arena.state, arena.params, arena.grad, rates)
            epoch_loss += loss
        trace.append(epoch_loss / len(starts))
    return trace


def train_task(
    net: Network,
    task_data: Dataset,
    f_cum: fisher_mod.UpdateFisher | fisher_mod.FactorFisher | None,
    config: TrainConfig,
    rng: RngState,
) -> list[float]:
    """Minimize task loss plus the strategy's penalty; returns per-epoch loss.

    Expects a freshly reset adapter and a head that already covers the
    task's classes. Only the adapters and the head move; base weights stay
    untouched. Each layer's A and B and the head's V and b are rebound to
    views into one flat buffer, so arrays held from before go stale.
    """
    if task_data.n < 1:
        raise DataError("cannot train on an empty task")

    importance = STRATEGIES[config.strategy].importance
    if importance is not None and not isinstance(f_cum, importance):
        raise ParameterError(f"strategy {config.strategy!r} needs a Fisher to weight its penalty: a {importance.__name__}, not {type(f_cum).__name__}")
    arena = _Arena(net, "AB", config)
    d_w = [np.empty((l.d_out, l.d_in)) for l in net.layers]  # the full-weight gradient, from which the factors' follow
    grad_ab = (arena.grads[: len(net.layers)], arena.grads[len(net.layers) : -2])
    out = (d_w, *arena.grads[-2:], *grad_ab)
    # at lam = 0 there is none: the value and the gradients weigh exactly zero wherever the weighted terms are finite
    penalty = None if importance is None else f_cum.bind([layer.A for layer in net.layers], [layer.B for layer in net.layers], config.lam, *grad_ab)

    def gradient(x: np.ndarray, rows: np.ndarray) -> float:
        loss = backward(net, forward(net, x), rows, *out)  # fills the gradients the penalty then adds into
        return loss if penalty is None else loss + penalty()

    shuffle = rng if config.shuffle else None
    return _fit(net, arena, task_data, gradient, config, config.epochs, config.lr, shuffle, "loss became non-finite at epoch {epoch}")


class ContinualLearner:
    """Sequential learner that persists only the model and the Fisher.

    step() consumes one task, as train() then finish(); everything
    task-specific (data references, the freshly estimated Fisher) leaves
    scope when it returns. f_cum is a learned Fisher's decayed sum, from
    zero; or a precomputed strategy's fixed Fisher, which step() never
    updates; or None, without an importance type.
    """

    def __init__(self, net: Network, config: TrainConfig, f_fixed: fisher_mod.UpdateFisher | fisher_mod.FactorFisher | None = None):
        self.net = net
        self.config = config
        self.strategy = STRATEGIES[config.strategy]
        if (f_fixed is None) == self.strategy.precomputed:
            raise ConfigError(f"strategy {config.strategy!r} {'needs a' if f_fixed is None else 'takes no'} fixed Fisher: the precomputed strategies, and only they, read one")
        self.f_cum = self.strategy.importance.full(net, 0.0) if self.strategy.learns else f_fixed
        root = RngState(config.seed)
        self._rng_init = root.derive("adapter-init")
        self._rng_train = root.derive("train")
        self._rng_fisher = root.derive("fisher")

    def step(self, task: Task) -> tuple[list[float], float]:
        """Learn one task; returns its per-epoch loss and the norm of its merged update."""
        return self.train(task), self.finish(task)

    def train(self, task: Task) -> list[float]:
        """Reset the adapter, grow the head by task's classes and train on task; returns the per-epoch loss."""
        reset_adapter(self.net, self._rng_init, b_scale=self.config.b_init_scale)
        expand_head(self.net, task.class_ids, self._rng_init)
        return train_task(self.net, task.train, self.f_cum, self.config, self._rng_train)

    def finish(self, task: Task) -> float:
        """Fold task's Fisher into the accumulator and merge the adapter; returns the norm of the merged update."""
        if self.strategy.learns:
            try:
                fisher_t = fisher_mod.estimate(self.net, task.train, self.config.estimator, self._rng_fisher, self.strategy.importance)
            except NumericalError as exc:
                raise NumericalError(f"Fisher estimate of task {task.id}: {exc}") from exc
            self.f_cum = fisher_mod.accumulate(self.f_cum, fisher_t, self.config.gamma)
        return merge_and_reset(self.net, self._rng_init, b_scale=self.config.b_init_scale)


@dataclass
class RunRecord:
    """Everything a single continual run produced: one log per task, whose row is the accuracy on tasks 0..t after task t."""

    task_logs: list[dict]

    @property
    def rows(self) -> list[list[float]]:  # the lower-triangular accuracy matrix, read from the logs
        return [log["row"] for log in self.task_logs]


def pretrain(config: TrainConfig, stream: TaskStream) -> tuple[Network, float | None]:
    """The base network of every run on the stream, and its pretraining accuracy.

    With pretrain_mode = train, every base weight is trained directly on the
    stream's pretraining classes, and the accuracy is on the held-out fifth
    of that data. With pretrain_mode = random, the base stays as drawn, and
    the accuracy is chance level, 1/classes (None without pretraining data).
    The network comes back with an empty head, ready for the stream's classes.
    """
    rng = RngState(config.seed).derive("pretrain")
    dims = [stream.dim] + list(config.hidden_dims)
    net = new_network(dims, config.rank, rng, config.w0_identity_scale, config.w0_noise_scale, config.w0_feature_gain)
    data = stream.pretrain
    classes = stream.pretrain_class_ids
    if config.pretrain_mode == "random":
        return net, None if data is None else 1.0 / len(classes)
    if data is None:
        raise ProtocolError("pretrain_mode=train needs a stream with pretraining data")
    expand_head(net, classes, rng)
    train_ds, test_ds = stratified_split(data, 0.8, rng, classes)
    arena = _Arena(net, "W", config)
    out = (arena.grads[:-2], *arena.grads[-2:])

    def gradient(x: np.ndarray, rows: np.ndarray) -> float:
        return backward(net, forward(net, x), rows, *out)  # frees forward's cache before Adam

    _fit(net, arena, train_ds, gradient, config, config.pretrain_epochs, config.pretrain_lr, None, "pretraining loss became non-finite")
    acc = accuracy(net, test_ds.X, test_ds.y)
    net.head = Head(V=np.zeros((0, net.feature_dim)), b=np.zeros((0, 1)))
    return net, acc


# the fields in which run_many's configs may differ from its base_cfg: pretraining reads none of
# them, and without a precomputed Fisher, task 0 trains to the same bytes whatever their values
VARIED = ("strategy", "lam", "gamma")


def _first_task(config: TrainConfig, stream: TaskStream, base: Network | None) -> tuple[ContinualLearner, list[float]]:
    """A learner for config on a copy of base (by default, pretrain's network) that has trained task 0, not finished it; and the loss trace."""
    stream.validate()
    net = copy.deepcopy(base) if base is not None else pretrain(config, stream)[0]
    strategy = STRATEGIES[config.strategy]
    f_fixed = strategy.importance.full(net, 1.0) if strategy.source == "uniform" else None
    if strategy.source == "dataset":  # one estimate on every task's training data, at the base with a head over every class
        probe = copy.deepcopy(net)
        rng = RngState(config.seed).derive("precompute")
        expand_head(probe, [cid for task in stream.tasks for cid in task.class_ids], rng)
        f_fixed = fisher_mod.estimate(probe, concat_datasets(stream.all_train()), config.estimator, rng, strategy.importance)
    learner = ContinualLearner(net, config, f_fixed) if strategy.precomputed else ContinualLearner(net, replace(config, lam=0.0))  # a zero Fisher, no penalty
    return learner, learner.train(stream.tasks[0])


def _continue(config: TrainConfig, stream: TaskStream, shared: ContinualLearner, trace: list[float], after_task: Callable | None = None) -> RunRecord:
    """config's run on from (shared, trace), the _first_task of config or of a config it shares task 0 with in run_many; shared stays unchanged."""
    learner = ContinualLearner(copy.deepcopy(shared.net), config, f_fixed=shared.f_cum if shared.strategy.precomputed else None)
    learner._rng_init, learner._rng_train, learner._rng_fisher = (copy.copy(r) for r in (shared._rng_init, shared._rng_train, shared._rng_fisher))
    logs: list[dict] = []
    for t, task in enumerate(stream.tasks):
        trace, norm = learner.step(task) if t else (trace, learner.finish(task))
        row = [accuracy(learner.net, stream.tasks[i].test.X, stream.tasks[i].test.y) for i in range(t + 1)]
        logs.append({"task": t, "class_ids": list(task.class_ids), "loss_trace": trace, "adapter_norm": norm, "row": row})
        if after_task is not None:
            after_task(t, learner)
    return RunRecord(logs)


def run_continual(config: TrainConfig, stream: TaskStream, base: Network | None = None, after_task: Callable | None = None) -> RunRecord:
    """Full sequential run over the stream, scoring every task seen after each task.

    The learner starts on a copy of base (by default, pretrain's network),
    with the fixed Fisher its strategy needs; a given base must come from
    pretrain with a config equal to config outside VARIED; it stays untouched.
    after_task(t, learner), when given, runs after task t is scored.
    """
    return _continue(config, stream, *_first_task(config, stream, base), after_task)


def run_reference(net_w0: Network, config: TrainConfig, task: Task) -> float:
    """Single-task fine-tune from the pretrained base, no penalty.

    The returned accuracy is over this task's classes only; it is the
    denominator of the plasticity score.
    """
    net = copy.deepcopy(net_w0)
    root = RngState(config.seed)
    rng_init = root.derive(f"ref-init-{task.id}")
    rng_train = root.derive(f"ref-train-{task.id}")
    reset_adapter(net, rng_init, b_scale=config.b_init_scale)
    expand_head(net, task.class_ids, rng_init)
    ref_cfg = replace(config, strategy="none")
    train_task(net, task.train, None, ref_cfg, rng_train)
    return accuracy(net, task.test.X, task.test.y)


_WORKER_NICENESS = 10  # how far a forked worker lowers its priority: beside a training process it takes the CPU time left

# the work of the fork_pool with workers in progress; they inherit it through
# fork, so what it reaches (streams, base networks, the drift tracker) is never pickled
_WORK: Callable | None = None


def _call_work(*args):
    return _WORK(*args)


class _InProcess:
    """Stands in for a future: work(*args) runs in this process when the result is first read."""

    def __init__(self, work: Callable, args: tuple):
        self.result = functools.cache(lambda: work(*args))


@contextmanager
def fork_pool(workers: int, work: Callable):
    """Yields submit(*args), which returns a future of work(*args).

    With two workers or more the calls run on that many forked workers, which
    fork at the first submit, lower their priority by _WORKER_NICENESS and
    inherit work through the module slot _WORK, so only the arguments and the
    results are pickled; leaving the pool cancels the calls that have not
    started. With fewer nothing forks, and each call runs here when read.
    """
    if workers < 2:
        yield lambda *args: _InProcess(work, args)
        return
    # imported here, not with lrcl: together they take ~20 ms
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # unlike multiprocessing.Pool, the executor raises when a worker
    # dies (say, killed for memory) instead of waiting forever
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"), initializer=os.nice, initargs=(_WORKER_NICENESS,))
    global _WORK
    _WORK = work
    try:
        yield lambda *args: pool.submit(_call_work, *args)
    finally:
        pool.shutdown(cancel_futures=True)
        _WORK = None


def run_many(
    stream: TaskStream, base_cfg: TrainConfig, configs: list[TrainConfig], jobs: int = 1
) -> tuple[list[float], list[RunRecord]]:
    """base_cfg's reference accuracy on every task, and one continual run per config.

    A config that differs from base_cfg outside VARIED raises ParameterError
    before any training. base_cfg is pretrained once, here, and every unit
    trains a copy. The configs without a precomputed Fisher (zero until task
    0 is finished) share one training of task 0, on the first of them,
    which this process does right after pretraining, for any jobs: its
    failure ends the call before any unit runs, and forked workers inherit
    it. Each continues from its Fisher estimate on in a unit of its own. The
    units depend on nothing and go to fork_pool(min(jobs, units)), runs
    first, then references. The results are read in serial order, so a
    failure raises the error the serial loop would raise first; in process
    each unit runs as it is read, and none runs after a failure.
    """
    for config in configs:
        for name in (f.name for f in fields(TrainConfig) if f.name not in VARIED):
            if getattr(config, name) != getattr(base_cfg, name):
                raise ParameterError(f"run_many's configs may differ from base_cfg only in {', '.join(VARIED)}, not in {name}")
    base = pretrain(base_cfg, stream)[0]
    sharing = [i for i, config in enumerate(configs) if not STRATEGIES[config.strategy].precomputed]
    first = _first_task(configs[sharing[0]], stream, base) if len(sharing) > 1 else None

    def run(i: int) -> RunRecord:
        if first is not None and i in sharing:
            return _continue(configs[i], stream, *first)
        return run_continual(configs[i], stream, base)

    units = [functools.partial(run, i) for i in range(len(configs))]
    units += [functools.partial(run_reference, base, base_cfg, task) for task in stream.tasks]
    with fork_pool(min(jobs, len(units)), lambda i: units[i]()) as submit:
        futures = [submit(i) for i in range(len(units))]
        refs = [f.result() for f in futures[len(configs):]]
        return refs, [f.result() for f in futures[: len(configs)]]


def desk_profile(seed: int, **overrides) -> TrainConfig:
    """Calibrated desk-scale configuration for the standard synthetic stream.

    Differs from the bare defaults in one respect: Adam runs with a large
    epsilon, which makes small-gradient updates proportional to the
    gradient instead of rate-normalized. At this scale that is what keeps
    classifier drift on old classes proportional to their (tiny) gradients;
    with the textbook epsilon the per-coordinate normalization erases that
    asymmetry and old tasks decay regardless of strategy.
    """
    cfg = TrainConfig(seed=seed, epsilon=0.1)
    return replace(cfg, **overrides) if overrides else cfg
