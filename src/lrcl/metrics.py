"""Evaluation metrics over the lower-triangular accuracy matrix.

A[t][i] is accuracy on task i's test data after finishing task t, with
predictions over every class seen through task t. All aggregate metrics
(anytime average, stability, plasticity, their harmonic trade-off) derive
from this matrix plus single-task reference accuracies.
"""

from __future__ import annotations

from .errors import MetricError, ParameterError, StateError


class AccuracyMatrix:
    """Lower-triangular record of per-task accuracies, filled row by row."""

    def __init__(self, num_tasks: int):
        if num_tasks < 1:
            raise ParameterError("need at least one task")
        self.num_tasks = num_tasks
        self.rows: list[list[float]] = []

    def add_row(self, values: list[float]) -> None:
        t = len(self.rows)
        if t >= self.num_tasks:
            raise StateError("accuracy matrix already full")
        if len(values) != t + 1:
            raise StateError(f"row {t} needs {t + 1} entries, got {len(values)}")
        for v in values:
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"accuracy {v} outside [0, 1]")
        self.rows.append([float(v) for v in values])

    @property
    def complete(self) -> bool:
        return len(self.rows) == self.num_tasks

    def _require_complete(self) -> None:
        if not self.complete:
            raise StateError(f"matrix has {len(self.rows)} of {self.num_tasks} rows")


def avg_anytime(m: AccuracyMatrix) -> tuple[list[float], float]:
    """Per-step averages abar_t = mean(row t) and their overall mean."""
    m._require_complete()
    abar = [sum(row) / len(row) for row in m.rows]
    return abar, sum(abar) / len(abar)


def stability(m: AccuracyMatrix) -> float:
    """One minus the mean normalized drop from each task's peak to the end.

    The peak is taken over rows before the final one; a task whose peak is
    zero was never learned, so it contributes no forgetting.
    """
    m._require_complete()
    T = m.num_tasks
    if T < 2:
        raise MetricError("stability is undefined for a single task")
    total = 0.0
    for i in range(T - 1):
        peak = max(m.rows[t][i] for t in range(i, T - 1))
        if peak <= 0.0:
            continue
        total += (peak - m.rows[T - 1][i]) / peak
    return 1.0 - total / (T - 1)


def plasticity(m: AccuracyMatrix, refs: list[float]) -> float:
    """Mean ratio of just-learned accuracy to the single-task reference.

    The diagonal is measured with the full seen-class head while each
    reference is a single-task run, so values above 1 are legitimate and
    are not clamped.
    """
    m._require_complete()
    if len(refs) != m.num_tasks:
        raise MetricError(f"need {m.num_tasks} references, got {len(refs)}")
    for i, r in enumerate(refs):
        if r <= 0:
            raise MetricError(f"reference accuracy for task {i} must be positive")
    return sum(m.rows[i][i] / r for i, r in enumerate(refs)) / m.num_tasks


def tradeoff(s: float, p: float) -> float:
    """Harmonic mean of stability and plasticity."""
    if s < 0 or p < 0:
        raise MetricError("stability and plasticity must be nonnegative")
    if s + p == 0:
        raise MetricError("trade-off undefined when both scores are zero")
    return 2.0 * s * p / (s + p)
