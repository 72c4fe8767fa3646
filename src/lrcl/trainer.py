"""Adam optimization, per-task training, and the sequential continual loop.

One task step is: reset the shared adapter, grow the head for the new
classes, minimize cross-entropy plus the configured importance penalty
over the task's batches, estimate the update-space Fisher at the task
optimum, fold it into the decayed accumulator, merge the adapter into the
base weights, and evaluate on every task seen so far. Between steps the
learner keeps exactly two pieces of training state: the merged weights
and the accumulated Fisher. Task data and the per-task Fisher estimate
are dropped when the step returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import fisher as fisher_mod
from .errors import ConfigError, DataError, NumericalError, ProtocolError
from .fisher import EstimatorKind, FisherDiag, accumulate, precompute_dataset_fisher, uniform_fisher, zeros_like
from .metrics import AccuracyMatrix
from .model import (
    Head,
    Network,
    accuracy,
    backward,
    backward_wrt_base,
    expand_head,
    forward,
    label_rows,
    merge_and_reset,
    new_network,
    reset_adapter,
)
from .regularize import STRATEGIES, parse_strategy
from .tasks import Dataset, Task, TaskStream
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
    estimator: EstimatorKind = field(default_factory=EstimatorKind.empirical)
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
        if self.epochs < 1 or self.batch_size < 1 or self.rank < 1:
            raise ConfigError("epochs, batch_size and rank must be positive")
        if self.lr <= 0 or self.head_lr <= 0:
            raise ConfigError("learning rates must be positive")
        if self.lam < 0:
            raise ConfigError("lambda must be nonnegative")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must lie in [0, 1]")
        if self.lr_schedule not in ("constant", "cosine"):
            raise ConfigError(f"unknown lr schedule {self.lr_schedule!r}")
        if self.pretrain_lr <= 0:
            raise ConfigError("pretrain_lr must be positive")
        if self.pretrain_epochs < 0:
            raise ConfigError(f"pretrain_epochs must be >= 0, got {self.pretrain_epochs}")
        if self.pretrain_mode not in ("train", "random"):
            raise ConfigError(f"unknown pretrain mode {self.pretrain_mode!r}")
        self.hidden_dims = tuple(int(d) for d in self.hidden_dims)
        if not self.hidden_dims:
            raise ConfigError("need at least one layer dimension")


class AdamState:
    """First/second moment buffers and a shared step counter."""

    def __init__(self, params: list[np.ndarray]):
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def configure(self, beta1: float, beta2: float, epsilon: float) -> "AdamState":
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        return self


def adam_step(state: AdamState, params: list[np.ndarray], grads: list[np.ndarray], lr: float) -> None:
    """One bias-corrected Adam update, in place on the parameter arrays."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * (g * g)
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p -= lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
        if not np.isfinite(p).all():
            raise NumericalError("parameters left the finite range during Adam update")


def _epoch_lr(base: float, epoch: int, total: int, schedule: str) -> float:
    if schedule == "constant":
        return base
    return base * 0.5 * (1.0 + math.cos(math.pi * epoch / total))


def _batch_slices(n: int, batch_size: int) -> list[tuple[int, int]]:
    return [(s, min(s + batch_size, n)) for s in range(0, n, batch_size)]


def train_task(
    net: Network,
    task_data: Dataset,
    f_cum: FisherDiag | None,
    config: TrainConfig,
    rng: RngState,
) -> list[float]:
    """Minimize task loss plus the strategy's penalty; returns per-epoch loss.

    Expects a freshly reset adapter and a head that already covers the
    task's classes. Only the adapters and the head move; base weights stay
    untouched.
    """
    if task_data.n < 1:
        raise DataError("cannot train on an empty task")

    strategy = STRATEGIES[config.strategy]
    As = [layer.A for layer in net.layers]
    Bs = [layer.B for layer in net.layers]
    b_inits = [layer.B.copy() for layer in net.layers] if strategy.penalty == "factor" else None

    adapter_params = net.trainable_adapters()
    head_params = [net.head.V, net.head.b]
    adapter_state = AdamState(adapter_params).configure(config.beta1, config.beta2, config.epsilon)
    head_state = AdamState(head_params).configure(config.beta1, config.beta2, config.epsilon)

    order = list(range(task_data.n))
    rows = label_rows(net.head, task_data.y)
    trace = []
    for epoch in range(config.epochs):
        lr = _epoch_lr(config.lr, epoch, config.epochs, config.lr_schedule)
        head_lr = _epoch_lr(config.head_lr, epoch, config.epochs, config.lr_schedule)
        if config.shuffle:
            rng.shuffle(order)
        epoch_loss = 0.0
        slices = _batch_slices(task_data.n, config.batch_size)
        for start, stop in slices:
            idx = order[start:stop]
            cache = forward(net, task_data.X[idx])
            ce, grads = backward(net, cache, rows[idx])

            total = ce
            pen = strategy.penalty_term(As, Bs, b_inits, f_cum, config.lam)
            if pen is not None:
                total += pen.value
                for k in range(len(net.layers)):
                    grads.d_a[k] = grads.d_a[k] + pen.grad_a[k]
                    grads.d_b[k] = grads.d_b[k] + pen.grad_b[k]

            if not math.isfinite(total):
                raise NumericalError(f"loss became non-finite at epoch {epoch}")

            flat_adapter_grads = []
            for k in range(len(net.layers)):
                flat_adapter_grads.extend([grads.d_a[k], grads.d_b[k]])
            adam_step(adapter_state, adapter_params, flat_adapter_grads, lr)
            adam_step(head_state, head_params, [grads.d_v, grads.d_bias], head_lr)
            epoch_loss += total
        trace.append(epoch_loss / len(slices))
    return trace


@dataclass
class StepResult:
    loss_trace: list[float]
    fisher_t: FisherDiag | None
    adapter_norm: float


class ContinualLearner:
    """Sequential learner that persists only the model and the Fisher.

    step() consumes one task; everything task-specific (data references,
    the freshly estimated Fisher) leaves scope when it returns.
    """

    def __init__(self, net: Network, config: TrainConfig, f_fixed: FisherDiag | None = None):
        self.net = net
        self.config = config
        self.strategy = STRATEGIES[config.strategy]
        self.f_cum = zeros_like(net, factor_space=(self.strategy.learned == "factor"))
        self.f_fixed = f_fixed
        root = RngState(config.seed)
        self._rng_init = root.derive("adapter-init")
        self._rng_train = root.derive("train")
        self._rng_fisher = root.derive("fisher")
        if self.strategy.fixed and f_fixed is None:
            raise ConfigError("precomputed strategies need a fixed Fisher")

    def step(self, task: Task) -> StepResult:
        cfg = self.config
        reset_adapter(self.net, self._rng_init, b_scale=cfg.b_init_scale)
        expand_head(self.net, task.class_ids, self._rng_init)

        f_pen = self.f_fixed if self.strategy.fixed else self.f_cum
        trace = train_task(self.net, task.train, f_pen, cfg, self._rng_train)

        fisher_t = None
        if self.strategy.learned:
            estimate = fisher_mod.estimate_factor_space if self.strategy.learned == "factor" else fisher_mod.estimate
            fisher_t = estimate(self.net, task.train, cfg.estimator, self._rng_fisher)
            self.f_cum = accumulate(self.f_cum, fisher_t, cfg.gamma)

        norm_sq = 0.0
        for layer in self.net.layers:
            delta = layer.A @ layer.B
            norm_sq += float(np.sum(delta * delta))
        merge_and_reset(self.net, self._rng_init, b_scale=cfg.b_init_scale)

        return StepResult(loss_trace=trace, fisher_t=fisher_t, adapter_norm=math.sqrt(norm_sq))


@dataclass
class RunRecord:
    """Everything a single continual run produced."""

    acc_matrix: AccuracyMatrix
    loss_traces: list[list[float]]
    adapter_norms: list[float]
    task_logs: list[dict]


def _stratified_split(data: Dataset, train_frac: float, rng: RngState) -> tuple[Dataset, Dataset]:
    by_class: dict[int, list[int]] = {}
    for i, y in enumerate(data.y):
        by_class.setdefault(y, []).append(i)
    train_idx, test_idx = [], []
    for cid in sorted(by_class):
        members = list(by_class[cid])
        rng.shuffle(members)
        cut = max(1, min(len(members) - 1, int(round(len(members) * train_frac))))
        train_idx.extend(members[:cut])
        test_idx.extend(members[cut:])
    return data.subset(train_idx), data.subset(test_idx)


def pretrain_report(config: TrainConfig, pretrain_set: Dataset) -> tuple[Network, float]:
    """Train every base weight directly on the pretraining classes.

    Returns the trained network and its accuracy on the held-out fifth of
    the pretraining data (chance level, 1/classes, for pretrain_mode =
    random). The head is scored, then dropped: the network comes back with
    an empty head, ready for the stream's classes.
    """
    rng = RngState(config.seed).derive("pretrain")
    dims = [pretrain_set.dim] + list(config.hidden_dims)
    net = new_network(dims, config.rank, rng, config.w0_identity_scale, config.w0_noise_scale, config.w0_feature_gain)
    classes = sorted(set(pretrain_set.y))
    expand_head(net, classes, rng)

    acc = 1.0 / len(classes)
    if config.pretrain_mode == "train":
        train_ds, test_ds = _stratified_split(pretrain_set, 0.8, rng)
        base_params = [layer.W for layer in net.layers]
        head_params = [net.head.V, net.head.b]
        base_state = AdamState(base_params).configure(config.beta1, config.beta2, config.epsilon)
        head_state = AdamState(head_params).configure(config.beta1, config.beta2, config.epsilon)
        rows = label_rows(net.head, train_ds.y)

        for epoch in range(config.pretrain_epochs):
            lr = _epoch_lr(config.pretrain_lr, epoch, config.pretrain_epochs, config.lr_schedule)
            head_lr = _epoch_lr(config.head_lr, epoch, config.pretrain_epochs, config.lr_schedule)
            for start, stop in _batch_slices(train_ds.n, config.batch_size):
                cache = forward(net, train_ds.X[start:stop])
                loss, d_w, d_v, d_bias = backward_wrt_base(net, cache, rows[start:stop])
                if not math.isfinite(loss):
                    raise NumericalError("pretraining loss became non-finite")
                adam_step(base_state, base_params, d_w, lr)
                adam_step(head_state, head_params, [d_v, d_bias], head_lr)
        acc = accuracy(net, test_ds.X, test_ds.y)

    net.head = Head(V=None, b=None)
    return net, acc


def pretrain(config: TrainConfig, pretrain_set: Dataset) -> Network:
    """Pretrained backbone with a fresh, empty head."""
    return pretrain_report(config, pretrain_set)[0]


def prepare_base_network(config: TrainConfig, stream: TaskStream) -> Network:
    if config.pretrain_mode == "train":
        if stream.pretrain is None:
            raise ProtocolError("pretrain_mode=train needs a stream with pretraining data")
        return pretrain(config, stream.pretrain)
    rng = RngState(config.seed).derive("pretrain")
    dims = [stream.dim] + list(config.hidden_dims)
    return new_network(dims, config.rank, rng, config.w0_identity_scale, config.w0_noise_scale, config.w0_feature_gain)


# every TrainConfig field that pretrain_report or prepare_base_network reads;
# rank counts because new_network draws B from the pretraining stream
_PRETRAIN_FIELDS = (
    "seed", "pretrain_mode", "hidden_dims", "rank", "w0_identity_scale", "w0_noise_scale",
    "w0_feature_gain", "pretrain_epochs", "pretrain_lr", "head_lr", "lr_schedule",
    "batch_size", "beta1", "beta2", "epsilon",
)


def pretrain_key(config: TrainConfig) -> tuple:
    """Configs with equal keys get the same base network from one stream."""
    return tuple(getattr(config, name) for name in _PRETRAIN_FIELDS)


def start_learner(config: TrainConfig, stream: TaskStream, base: Network | None = None) -> ContinualLearner:
    """A learner on the base network, with the fixed Fisher its strategy needs.

    A given base must come from prepare_base_network with a config of the
    same pretrain_key; the learner trains a copy and leaves it untouched.
    """
    stream.validate()
    net = base.copy() if base is not None else prepare_base_network(config, stream)
    fixed = STRATEGIES[config.strategy].fixed
    f_fixed = None
    if fixed == "uniform":
        f_fixed = uniform_fisher(net)
    elif fixed == "dataset":
        probe = net.copy()
        rng = RngState(config.seed).derive("precompute")
        expand_head(probe, [cid for task in stream.tasks for cid in task.class_ids], rng)
        f_fixed = precompute_dataset_fisher(probe, stream.all_train(), config.estimator, rng)
    return ContinualLearner(net, config, f_fixed=f_fixed)


def run_continual(config: TrainConfig, stream: TaskStream, base: Network | None = None) -> RunRecord:
    """Full sequential run over the stream, filling the accuracy matrix.

    base, when given, is used as start_learner uses it.
    """
    if stream.num_tasks < 1:
        raise DataError("stream has no tasks")
    learner = start_learner(config, stream, base)
    net = learner.net

    acc = AccuracyMatrix(stream.num_tasks)
    traces: list[list[float]] = []
    norms: list[float] = []
    logs: list[dict] = []

    for t, task in enumerate(stream.tasks):
        result = learner.step(task)
        row = [accuracy(net, stream.tasks[i].test.X, stream.tasks[i].test.y) for i in range(t + 1)]
        acc.add_row(row)
        traces.append(result.loss_trace)
        norms.append(result.adapter_norm)
        logs.append(
            {
                "task": t,
                "class_ids": list(task.class_ids),
                "loss_trace": result.loss_trace,
                "adapter_norm": result.adapter_norm,
                "row": row,
            }
        )

    return RunRecord(acc_matrix=acc, loss_traces=traces, adapter_norms=norms, task_logs=logs)


def run_reference(net_w0: Network, config: TrainConfig, task: Task) -> float:
    """Single-task fine-tune from the pretrained base, no penalty.

    The returned accuracy is over this task's classes only; it is the
    denominator of the plasticity score.
    """
    net = net_w0.copy()
    root = RngState(config.seed)
    rng_init = root.derive(f"ref-init-{task.id}")
    rng_train = root.derive(f"ref-train-{task.id}")
    reset_adapter(net, rng_init, b_scale=config.b_init_scale)
    expand_head(net, task.class_ids, rng_init)
    ref_cfg = replace(config, strategy="none")
    train_task(net, task.train, None, ref_cfg, rng_train)
    return accuracy(net, task.test.X, task.test.y)


# the work list of the run_many call in progress; forked pool workers
# inherit it, so the stream and the base networks are never pickled
_UNITS: list[tuple] = []


def _run_unit(index: int):
    fn, args = _UNITS[index]
    return fn(*args)


def run_many(
    stream: TaskStream, base_cfg: TrainConfig, configs: list[TrainConfig], jobs: int = 1
) -> tuple[list[float], list[RunRecord]]:
    """base_cfg's reference accuracy on every task, and one continual run per config.

    One base network is pretrained per pretrain_key, in this process, and
    every unit (a reference or a run) trains a copy of it. The units are
    independent and seed-exact, so with jobs > 1 they run on a pool of
    forked workers and return exactly what the serial loop returns; the
    results are read in serial order, so a failure raises the error the
    serial loop would raise first.
    """
    bases: dict[tuple, Network] = {}
    for config in [base_cfg, *configs]:
        if pretrain_key(config) not in bases:
            bases[pretrain_key(config)] = prepare_base_network(config, stream)
    units = [(run_reference, (bases[pretrain_key(base_cfg)], base_cfg, task)) for task in stream.tasks]
    units += [(run_continual, (config, stream, bases[pretrain_key(config)])) for config in configs]
    n_refs = stream.num_tasks
    jobs = min(jobs, len(units))
    global _UNITS
    _UNITS = units
    try:
        if jobs > 1:
            # imported here, not with lrcl: together they take ~20 ms
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # unlike multiprocessing.Pool, the executor raises when a worker
            # dies (say, killed for memory) instead of waiting forever
            pool = ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork"))
            try:
                longest_first = [*range(n_refs, len(units)), *range(n_refs)]
                pending = {i: pool.submit(_run_unit, i) for i in longest_first}
                results = [pending[i].result() for i in range(len(units))]
            finally:
                pool.shutdown(cancel_futures=True)
        else:
            results = [fn(*args) for fn, args in units]
    finally:
        _UNITS = []
    return results[:n_refs], results[n_refs:]


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
