"""Fisher drift tracking across the task sequence.

After each new task, the Fisher of an old task is recomputed on that
task's retained data and compared against the snapshot taken when the
task was learned: the norm ratio measures inflation or degradation of the
overall scale, Spearman rank correlation measures whether the ordering of
parameter importance survives, and cosine similarity measures directional
alignment. The rehearsal-free regime compares the decayed accumulator
against the snapshot; the rehearsal-based regime recomputes a pooled
Fisher over all data seen so far. Retaining old task data here is
deliberate: this module is analysis-only and exempt from the training
loop's discard rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fisher as fisher_mod
from .errors import MetricError, NumericalError, ParameterError
from .fisher import FisherDiag, fisher_norm, flatten
from .metrics import AccuracyMatrix
from .model import Network, accuracy  # accuracy is unused here: bench/test_bench.py checks that its tracer rebinds it
from .regularize import STRATEGIES
from .tasks import TaskStream, concat_datasets
from .tensor import RngState
from .trainer import ContinualLearner, TrainConfig, fork_pool, run_continual

REGIMES = ("rehearsal_free", "rehearsal_based")


def norm_ratio(f_now: FisherDiag, f_orig: FisherDiag) -> float:
    """||f_now|| / ||f_orig||, Frobenius over all layers concatenated."""
    denom = fisher_norm(f_orig)
    if denom == 0.0:
        raise MetricError("norm ratio undefined for a zero baseline Fisher")
    return fisher_norm(f_now) / denom


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks; runs of equal values share their mean rank."""
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(v)] - 1
    ranks = np.empty(len(v))
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def spearman(v1, v2) -> float:
    """Rank correlation with average ranks for ties.

    Computed as the Pearson correlation of the rank vectors, which reduces
    to the classic 1 - 6*sum(d^2)/(n(n^2-1)) form when no ties occur.
    """
    x = np.asarray(v1, dtype=np.float64)
    y = np.asarray(v2, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
        raise MetricError("spearman needs two equal-length vectors")
    n = len(x)
    if n < 2:
        raise MetricError("spearman needs at least two entries")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise MetricError("spearman undefined for a constant vector")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    return float(np.dot(dx, dy) / np.sqrt(np.dot(dx, dx) * np.dot(dy, dy)))


def cosine_sim(v1, v2) -> float:
    """Cosine of the angle between two vectors.

    Identical inputs short-circuit to exactly 1.0; the sqrt/divide route
    would otherwise lose the last ulp on a mathematically exact case.
    """
    x = np.asarray(v1, dtype=np.float64)
    y = np.asarray(v2, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
        raise MetricError("cosine needs two equal-length vectors")
    nx = float(np.sqrt(np.dot(x, x)))
    ny = float(np.sqrt(np.dot(y, y)))
    if nx == 0.0 or ny == 0.0:
        raise MetricError("cosine undefined for a zero vector")
    if np.array_equal(x, y):
        return 1.0
    return float(np.dot(x, y) / (nx * ny))


@dataclass
class DriftRow:
    task_trained: int
    task_data: int
    regime: str
    norm_ratio: float
    spearman: float
    cosine: float


class _Tracker:
    """The measuring state of one track_fisher_drift: per-regime rngs and snapshots."""

    def __init__(self, config: TrainConfig, stream: TaskStream, tracked: list[int]):
        self.config = config
        self.stream = stream
        self.tracked = tracked
        self.rngs = {regime: RngState(config.seed).derive("drift-estimates") for regime in REGIMES}
        self.snapshots: dict[str, dict[int, FisherDiag]] = {regime: {} for regime in REGIMES}

    def measure(self, t: int, net: Network, f_cum: FisherDiag) -> tuple[list[DriftRow], FisherDiag | None]:
        """Every regime's rows after task t, and task t's rehearsal-free snapshot if t is tracked."""
        config, stream = self.config, self.stream
        shared: dict[int, FisherDiag] = {}
        rows = []
        for regime in REGIMES:
            rng = self.rngs[regime]
            pooled = None
            for i in self.tracked:
                if i > t:
                    continue
                try:
                    f_now = shared.get(i)
                    if f_now is None:
                        f_now = fisher_mod.estimate(net, stream.tasks[i].train, config.estimator, rng)
                        if not config.estimator.draws:
                            shared[i] = f_now
                    if i == t:
                        self.snapshots[regime][i] = f_now
                        rows.append(DriftRow(t, i, regime, 1.0, 1.0, 1.0))
                        continue
                    base = self.snapshots[regime][i]
                    if regime == "rehearsal_free":
                        comparator = f_cum
                    else:
                        if pooled is None:
                            joined = concat_datasets([stream.tasks[j].train for j in range(t + 1)])
                            pooled = fisher_mod.estimate(net, joined, config.estimator, rng)
                        comparator = pooled
                    rows.append(DriftRow(
                        task_trained=t,
                        task_data=i,
                        regime=regime,
                        norm_ratio=norm_ratio(f_now, base),
                        spearman=spearman(flatten(comparator), flatten(base)),
                        cosine=cosine_sim(flatten(comparator), flatten(base)),
                    ))
                except (MetricError, NumericalError) as exc:
                    # the config passed every check; training made a Fisher degenerate or overflow
                    raise NumericalError(f"drift of task {i} after task {t}: {exc}") from exc
        return rows, self.snapshots["rehearsal_free"].get(t)


def track_fisher_drift(
    config: TrainConfig,
    stream: TaskStream,
    tracked_tasks: list[int],
    jobs: int = 1,
) -> tuple[list[DriftRow], dict[int, FisherDiag], AccuracyMatrix]:
    """Run run_continual once and report Fisher drift for the tracked tasks.

    Drift is measured from run_continual's after_task hook; measuring
    leaves the learner untouched, so one trajectory serves both regimes,
    and the accuracy matrix is the run's own. Returns the rows (every
    rehearsal_free row in task order, then every rehearsal_based one),
    each tracked task's rehearsal-free Fisher snapshot from when it was
    learned, and the accuracy matrix. A row compares a regime's Fisher,
    recomputed on the post-merge model with the config's estimator, with
    a snapshot; at task_trained == task_data it is exactly (1, 1, 1). Each
    regime draws from its own stream, both seeded alike, and estimates
    that draw nothing are shared between regimes: the recorded sampled
    and exact_subset outputs depend on both. The strategy must learn a
    Fisher (deltaw or separate): the rehearsal-free regime compares
    against its accumulator.

    The hook hands each task's measurement to fork_pool. With jobs > 1, one
    forked worker measures while this process trains the next task; with
    jobs = 1, this process measures every task after training them all.
    Either way the tasks are measured in order, so every regime draws what
    it draws serially, and the results are read in task order, so the first
    error is the serial loop's. More workers would not help: each
    measurement depends on the ones before it through the draws and the
    snapshots.
    """
    if not STRATEGIES[config.strategy].learned:
        raise ParameterError(f"drift tracking needs a strategy that accumulates a Fisher (deltaw or separate), not {config.strategy!r}")
    for i in tracked_tasks:
        if not 0 <= i < stream.num_tasks:
            raise ParameterError(f"tracked task {i} outside the stream")

    tracker = _Tracker(config, stream, sorted(tracked_tasks))
    futures = []
    with fork_pool(min(jobs - 1, 1), tracker.measure) as submit:  # no worker for jobs = 1, else one

        def measure_later(t: int, learner: ContinualLearner) -> None:
            # a copy: the net is measured later, while this process trains on in place
            futures.append(submit(t, learner.net.copy(), learner.f_cum))

        try:
            acc = run_continual(config, stream, after_task=measure_later).acc_matrix
        finally:
            # one per task, in task order, so a drift failure at an earlier
            # task wins, over a later training failure too, as in the serial loop
            measured = [future.result() for future in futures]
    rows = sorted((r for task_rows, _ in measured for r in task_rows), key=lambda r: REGIMES.index(r.regime))
    return rows, {t: snap for t, (_, snap) in enumerate(measured) if snap is not None}, acc
