"""Quadratic importance penalties on the shared low-rank update.

Three placements of the same idea. The update-space penalty puts the
diagonal Fisher on the full product AB,

    value = (lam / 2) * sum_ij F_ij * (AB)_ij^2,

with gradients lam * (F o AB) B^T for A and lam * A^T (F o AB) for B; the
product AB is formed transiently per layer and never stored between
steps. The factor-space penalty instead anchors A at zero and B at its
per-task initialization with separate diagonals for each factor. The
precomputed strategies reuse the update-space formula with a Fisher that
never changes across tasks; STRATEGIES says, per strategy, which penalty
and which Fisher a run uses.

Both kernels follow model.backward's convention: they return the value
and add their gradients into the caller's grad_a and grad_b. They check
nothing; Strategy.check, run once per task, checks their inputs.

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

from .errors import ParameterError, ShapeError
from .fisher import FisherDiag


@dataclass(frozen=True)
class Strategy:
    """Where a strategy puts its penalty and which Fisher weights it.

    name: the strategy's key in STRATEGIES. penalty: "update"
    (penalty_deltaw on AB), "factor" (penalty_separate on A and B) or None.
    learned: the space, "update" or "factor", of the Fisher the learner
    estimates after each task and folds into its decayed accumulator, or
    None. fixed: the Fisher held for the whole run instead, "uniform" (all
    ones) or "dataset" (estimated once on the union of every task's
    training data), or None.

    Entries are plain data, not functions: the code that reads an entry
    calls through the defining module, so a function patched there is the
    one that runs.
    """

    name: str
    penalty: str | None
    learned: str | None
    fixed: str | None

    def check(self, As: list[np.ndarray], Bs: list[np.ndarray], B_inits: list[np.ndarray] | None, f: FisherDiag | None, lam: float) -> None:
        """Raise unless the strategy's penalty kernel can run on these arrays: the kernels check nothing, so train_task runs this once per task."""
        if self.penalty is None:
            return
        if f is None:
            raise ParameterError(f"strategy {self.name!r} needs a Fisher to weight its penalty")
        if self.penalty == "factor" and not f.has_factor_space:
            raise ParameterError(f"strategy {self.name!r} needs factor-space Fisher blocks")
        if lam < 0:
            raise ParameterError(f"lambda must be nonnegative, got {lam}")
        blocks = f.fdw if self.penalty == "update" else f.fa
        if not (len(As) == len(Bs) == len(blocks)):
            raise ShapeError("layer count mismatch", (len(As), len(Bs)), (len(blocks),))
        for k, (A, B) in enumerate(zip(As, Bs)):
            if self.penalty == "update":
                if f.fdw[k].shape != (A.shape[0], B.shape[1]) or A.shape[1] != B.shape[0]:
                    raise ShapeError("penalty shape mismatch", (A.shape, B.shape), f.fdw[k].shape)
            elif f.fa[k].shape != A.shape or f.fb[k].shape != B.shape or B_inits[k].shape != B.shape:
                raise ShapeError("separate penalty shape mismatch", (A.shape, B.shape), (f.fa[k].shape, f.fb[k].shape))


STRATEGIES = {s.name: s for s in (
    Strategy("none", penalty=None, learned=None, fixed=None),
    Strategy("deltaw", penalty="update", learned="update", fixed=None),
    Strategy("separate", penalty="factor", learned="factor", fixed=None),
    Strategy("precomputed_uniform", penalty="update", learned=None, fixed="uniform"),
    Strategy("precomputed_dataset", penalty="update", learned=None, fixed="dataset"),
)}


def parse_strategy(text: str) -> str:
    norm = text.strip().lower().replace("-", "_")
    if norm not in STRATEGIES:
        raise ParameterError(f"unknown strategy {text!r}; pick one of {tuple(STRATEGIES)}")
    return norm


def penalty_deltaw(As: list[np.ndarray], Bs: list[np.ndarray], f_cum: FisherDiag, lam: float, grad_a: list[np.ndarray], grad_b: list[np.ndarray]) -> float:
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
    f: FisherDiag,
    lam: float,
    grad_a: list[np.ndarray],
    grad_b: list[np.ndarray],
) -> float:
    """Factor-space penalty with A anchored at 0 and B at its task init; adds its gradients into grad_a and grad_b."""
    value = 0.0
    for A, B, B0, FA, FB, ga, gb in zip(As, Bs, B_inits, f.fa, f.fb, grad_a, grad_b):
        db = B - B0
        value += 0.5 * lam * float(np.add.reduce(FA * A * A, axis=None) + np.add.reduce(FB * db * db, axis=None))
        ga += np.multiply(lam * FA, A)
        gb += np.multiply(lam * FB, db)
    return value
