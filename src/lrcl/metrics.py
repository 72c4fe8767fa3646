"""Evaluation metrics over the lower-triangular accuracy matrix.

A[t][i] is accuracy on task i's test data after finishing task t, with
predictions over every class seen through task t. All aggregate metrics
(anytime average, stability, plasticity, their harmonic trade-off) derive
from this matrix, given as its rows, plus single-task reference accuracies.
"""

from __future__ import annotations

from .errors import MetricError, ParameterError, StateError


def _checked(rows: list[list[float]]) -> list[list[float]]:
    """rows, once each row t holds t + 1 accuracies in [0, 1]; the rows define the task count."""
    if not rows:
        raise ParameterError("need at least one task")
    for t, row in enumerate(rows):
        if len(row) != t + 1:
            raise StateError(f"row {t} needs {t + 1} entries, got {len(row)}")
        for v in row:
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"accuracy {v} outside [0, 1]")
    return rows


def avg_anytime(rows: list[list[float]]) -> tuple[list[float], float]:
    """Per-step averages abar_t = mean(row t) and their overall mean."""
    abar = [sum(row) / len(row) for row in _checked(rows)]
    return abar, sum(abar) / len(abar)


def stability(rows: list[list[float]]) -> float:
    """One minus the mean normalized drop from each task's peak to the end.

    The peak is taken over rows before the final one; a task whose peak is
    zero was never learned, so it contributes no forgetting.
    """
    T = len(_checked(rows))
    if T < 2:
        raise MetricError("stability is undefined for a single task")
    total = 0.0
    for i in range(T - 1):
        peak = max(rows[t][i] for t in range(i, T - 1))
        if peak <= 0.0:
            continue
        total += (peak - rows[T - 1][i]) / peak
    return 1.0 - total / (T - 1)


def plasticity(rows: list[list[float]], refs: list[float]) -> float:
    """Mean ratio of just-learned accuracy to the single-task reference.

    The diagonal is measured with the full seen-class head while each
    reference is a single-task run, so values above 1 are legitimate and
    are not clamped.
    """
    T = len(_checked(rows))
    if len(refs) != T:
        raise MetricError(f"need {T} references, got {len(refs)}")
    for i, r in enumerate(refs):
        if r <= 0:
            raise MetricError(f"reference accuracy for task {i} must be positive")
    return sum(rows[i][i] / r for i, r in enumerate(refs)) / T


def tradeoff(s: float, p: float) -> float:
    """Harmonic mean of stability and plasticity."""
    if s < 0 or p < 0:
        raise MetricError("stability and plasticity must be nonnegative")
    if s + p == 0:
        raise MetricError("trade-off undefined when both scores are zero")
    return 2.0 * s * p / (s + p)
