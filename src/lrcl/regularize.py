"""Quadratic importance penalties on the shared low-rank update.

Three placements of the same idea. The update-space penalty puts the
diagonal Fisher on the full product AB,

    value = (lam / 2) * sum_ij F_ij * (AB)_ij^2,

with gradients lam * (F o AB) B^T for A and lam * A^T (F o AB) for B; the
product AB is formed transiently per layer and never stored between
steps. The factor-space penalty instead anchors A at zero and B at its
per-task initialization with separate diagonals for each factor. The
precomputed strategies reuse the update-space formula with a Fisher that
never changes across tasks. Each row of STRATEGIES names the importance
type that weighs the penalty (fisher.UpdateFisher for penalty_deltaw,
fisher.FactorFisher for penalty_separate) and where its Fisher comes from.

Both kernels follow model.backward's convention: they return the value
and add their gradients into the caller's grad_a and grad_b. They check
nothing; the importance type's bind, run once per task, checks their inputs.

The two placements genuinely disagree: projecting a diagonal update-space
Fisher onto the factors keeps only the diagonal of J^T F J and drops the
factor cross terms, so apart from degenerate cases (rank-1 updates that
move a single factor) the two quadratic forms differ. The penalty
functions themselves expose the complementary invariance: the update-space
value depends on A and B only through AB, the factor-space value does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fisher import FactorFisher, UpdateFisher


@dataclass(frozen=True)
class Strategy:
    """A row of STRATEGIES: the importance type that weighs its penalty (None for no penalty), and its Fisher's source.

    source: "learned" (estimated after each task into the learner's decayed
    sum, from zero); "uniform" (all ones) or "dataset" (estimated once, at the
    base, on every task's training data), both made before the run; or "none".
    The type's bind looks its kernel up in this module, so a kernel patched here is the one that runs.
    """

    name: str
    importance: type | None
    source: str

    @property
    def learns(self) -> bool:
        return self.source == "learned"

    @property
    def precomputed(self) -> bool:
        """Whether its Fisher is made before the run, and then fixed: uniform and dataset."""
        return self.source in ("uniform", "dataset")


STRATEGIES = {s.name: s for s in (
    Strategy("none", None, "none"),
    Strategy("deltaw", UpdateFisher, "learned"),
    Strategy("separate", FactorFisher, "learned"),
    Strategy("precomputed_uniform", UpdateFisher, "uniform"),
    Strategy("precomputed_dataset", UpdateFisher, "dataset"),
)}


def parse_strategy(text: str) -> str:
    norm = text.strip().lower().replace("-", "_")
    if norm not in STRATEGIES:
        raise ParameterError(f"unknown strategy {text!r}; pick one of {tuple(STRATEGIES)}")
    return norm


def penalty_deltaw(As: list[np.ndarray], Bs: list[np.ndarray], f_cum: UpdateFisher, lam: float, grad_a: list[np.ndarray], grad_b: list[np.ndarray]) -> float:
    """Update-space penalty: quadratic form of the accumulated Fisher on AB; adds its gradients into grad_a and grad_b."""
    value = 0.0
    for A, B, F, ga, gb in zip(As, Bs, f_cum.fdw, grad_a, grad_b):
        delta = A @ B
        weighted = F * delta
        value += 0.5 * lam * float(np.add.reduce(weighted * delta, axis=None))  # np.sum's bits, minus its wrapper
        ga += np.multiply(weighted @ B.T, lam)
        gb += np.multiply(A.T @ weighted, lam)
    return value


def penalty_separate(
    As: list[np.ndarray],
    Bs: list[np.ndarray],
    B_inits: list[np.ndarray],
    f: FactorFisher,
    lam: float,
    grad_a: list[np.ndarray],
    grad_b: list[np.ndarray],
) -> float:
    """Factor-space penalty with A anchored at 0 and B at its task init; adds its gradients into grad_a and grad_b."""
    value = 0.0
    for A, B, B0, FA, FB, ga, gb in zip(As, Bs, B_inits, f.fa, f.fb, grad_a, grad_b, strict=True):  # strict: lists of unequal layer counts fail, not truncate
        db = B - B0
        value += 0.5 * lam * float(np.add.reduce(FA * A * A, axis=None) + np.add.reduce(FB * db * db, axis=None))
        ga += np.multiply(lam * FA, A)
        gb += np.multiply(lam * FB, db)
    return value
