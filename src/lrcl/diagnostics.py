"""Fisher drift tracking across the task sequence.

After each new task, the Fisher of an old task is recomputed on that
task's retained data and compared against the snapshot taken when the
task was learned: the norm ratio measures inflation or degradation of the
overall scale, Spearman rank correlation measures whether the ordering of
parameter importance survives, and cosine similarity measures directional
alignment. The regimes share the recomputed Fisher and the snapshot and
differ only in the comparator: the rehearsal-free regime takes the decayed
accumulator, the rehearsal-based regime a pooled Fisher recomputed over
all data seen so far. Retaining old task data here is deliberate: this
module is analysis-only and exempt from the training loop's discard rule.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from .errors import MetricError, NumericalError, ParameterError
from .fisher import EstimatorKind, FactorFisher, UpdateFisher, draw, pass_means
from .model import Network, accuracy  # accuracy is unused here: bench/test_bench.py checks that its tracer rebinds it
from .regularize import STRATEGIES
from .tasks import TaskStream, concat_datasets
from .tensor import RngState
from .trainer import ContinualLearner, TrainConfig, fork_pool, run_continual

REGIMES = ("rehearsal_free", "rehearsal_based")


def norm_ratio(f_now: UpdateFisher, f_orig: UpdateFisher) -> float:
    """||f_now|| / ||f_orig||, Frobenius over all layers concatenated."""
    now, orig = (float(np.sqrt(np.dot(v, v))) for v in (f_now.flat(), f_orig.flat()))
    if orig == 0.0:
        raise MetricError("norm ratio undefined for a zero baseline Fisher")
    return now / orig


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


def _measure(stream: TaskStream, kind: EstimatorKind, net: Network, tasks: tuple, draws) -> list:
    """A unit: the pass_means of one pass over the tasks' training rows (run through fork_pool's slot)."""
    return pass_means(net, concat_datasets([stream.tasks[i].train for i in tasks]), kind, draws)


def _rows_of(t: int, tracked: list[int], f_cum: UpdateFisher | FactorFisher, futures: dict, snapshots: dict[int, UpdateFisher]) -> list[DriftRow]:
    """Task t's rows of the tracked tasks in both regimes, each Fisher read in the serial loop's order; records task t's snapshot if tracked."""
    fisher = functools.cache(lambda tasks: UpdateFisher(*futures[tasks].result()))  # made when first read, as the serial loop made them
    rows = []
    for regime in REGIMES:
        for i in tracked:
            try:
                f_now = fisher((i,))
                if i == t:
                    snapshots[i] = f_now
                    rows.append(DriftRow(t, i, regime, 1.0, 1.0, 1.0))
                    continue
                base = snapshots[i]
                comparator = f_cum if regime == "rehearsal_free" else fisher(tuple(range(t + 1)))
                pair = (comparator.flat(), base.flat())
                rows.append(DriftRow(t, i, regime, norm_ratio(f_now, base), spearman(*pair), cosine_sim(*pair)))
            except (MetricError, NumericalError) as exc:
                # the config passed every check; training made a Fisher degenerate or overflow
                raise NumericalError(f"drift of task {i} after task {t}: {exc}") from exc
    return rows


def check_drift_strategy(strategy: str) -> None:
    """Drift compares snapshots of a learned Fisher, so the strategy must learn one (its source in STRATEGIES)."""
    learned = [s.name for s in STRATEGIES.values() if s.learns]
    if strategy not in learned:
        raise ParameterError(f"drift tracking needs a strategy that learns its Fisher ({' or '.join(learned)}), not {strategy!r}")


def track_fisher_drift(
    config: TrainConfig,
    stream: TaskStream,
    tracked_tasks: list[int],
    jobs: int = 1,
) -> tuple[list[DriftRow], dict[int, UpdateFisher], list[list[float]]]:
    """Run run_continual once and report Fisher drift for the tracked tasks.

    Drift is measured from run_continual's after_task hook; measuring
    leaves the learner untouched, so one trajectory serves both regimes,
    and the accuracy rows are the run's own. Returns the drift rows (every
    rehearsal_free row in task order, then every rehearsal_based one),
    each tracked task's Fisher snapshot from when it was learned, and the
    run's RunRecord.rows. A drift row's norm ratio, the same in both
    regimes, is the task's Fisher, recomputed on the post-merge model with
    the config's estimator, over its snapshot; its Spearman and cosine
    compare the regime's comparator with the snapshot. At task_trained ==
    task_data it is exactly (1, 1, 1). A task listed twice is measured
    once. The tracked tasks' passes draw from one stream, the pooled
    passes from another. The strategy's Fisher must be learned (its
    source in STRATEGIES).

    Every pass is planned and drawn here, in task order, before training
    starts; the after_task hook then submits task t's passes, the pooled
    one first, each one a unit, on a copy of the network, and up to jobs
    forked workers (none for jobs = 1, and never more than there are
    passes) run them at a lower priority while this process trains on.
    The snapshots and rows are made here too, in task order, once the
    trajectory ends or fails, so the bits and the first failure are the
    serial loop's for any jobs: a drift failure replaces a later training
    failure.
    """
    check_drift_strategy(config.strategy)
    for i in tracked_tasks:
        if not 0 <= i < stream.num_tasks:
            raise ParameterError(f"tracked task {i} outside the stream")
    kind, tracked = config.estimator, sorted(set(tracked_tasks))
    rng = RngState(config.seed).derive("drift-estimates")  # the tracked tasks' passes
    pool_rng = RngState(config.seed).derive("drift-pool")  # the pooled passes, which only rehearsal_based reads
    plan = []  # each task's (tasks, draws): the pool of every task so far, then every tracked task so far
    for t in range(stream.num_tasks):
        passes = [((i,), rng) for i in tracked if i <= t]
        if tracked and tracked[0] < t:  # the longest pass starts first; each stream draws in task order either way
            passes.insert(0, (tuple(range(t + 1)), pool_rng))
        plan.append([(tasks, draw(kind, sum(stream.tasks[j].train.n for j in tasks), r)) for tasks, r in passes])
    measured: list[tuple] = []  # (t, tracked tasks up to t, f_cum, {tasks: future}) of each finished task

    def after_task(t: int, learner: ContinualLearner) -> None:
        net = copy.deepcopy(learner.net)  # the learner trains on in place
        measured.append((t, [i for i in tracked if i <= t], learner.f_cum, {tasks: submit(net, tasks, draws) for tasks, draws in plan[t]}))

    rows: list[DriftRow] = []
    snapshots: dict[int, UpdateFisher] = {}
    with fork_pool(min(jobs, sum(map(len, plan))), functools.partial(_measure, stream, kind)) as submit:
        try:
            acc = run_continual(config, stream, after_task=after_task).rows
        finally:
            for task in measured:
                rows += _rows_of(*task, snapshots)
    return sorted(rows, key=lambda r: REGIMES.index(r.regime)), snapshots, acc
