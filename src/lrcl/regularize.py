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

    penalty: "update" (penalty_deltaw on AB), "factor" (penalty_separate
    on A and B) or None. learned: the space, "update" or "factor", of the
    Fisher the learner estimates after each task and folds into its decayed
    accumulator, or None. fixed: the Fisher held for the whole run instead,
    "uniform" (all ones) or "dataset" (estimated once on the union of every
    task's training data), or None.

    Entries are plain data, not functions: the code that reads an entry
    calls through the defining module, so a function patched there is the
    one that runs.
    """

    penalty: str | None
    learned: str | None
    fixed: str | None

    def penalty_term(self, As: list[np.ndarray], Bs: list[np.ndarray], B_inits: list[np.ndarray] | None, f: FisherDiag | None, lam: float, out: tuple | None = None) -> PenaltyTerm | None:
        """The penalty at (A, B), or None for a strategy without one and at lam = 0; out as for penalty_deltaw."""
        if lam == 0:  # weighs the value and the gradients to exactly zero wherever the weighted terms are finite
            return None
        if self.penalty == "update":
            return penalty_deltaw(As, Bs, f, lam, out)
        if self.penalty == "factor":
            return penalty_separate(As, Bs, B_inits, f, lam, out)
        return None

    def check(self, As: list[np.ndarray], Bs: list[np.ndarray], B_inits: list[np.ndarray] | None, f: FisherDiag | None, lam: float) -> None:
        """The checks penalty_term runs when it is given no out buffers."""
        if self.penalty == "update":
            _check_update(As, Bs, f, lam)
        elif self.penalty == "factor":
            _check_factor(As, Bs, B_inits, f, lam)


STRATEGIES = {
    "none": Strategy(penalty=None, learned=None, fixed=None),
    "deltaw": Strategy(penalty="update", learned="update", fixed=None),
    "separate": Strategy(penalty="factor", learned="factor", fixed=None),
    "precomputed_uniform": Strategy(penalty="update", learned=None, fixed="uniform"),
    "precomputed_dataset": Strategy(penalty="update", learned=None, fixed="dataset"),
}


def parse_strategy(text: str) -> str:
    norm = text.strip().lower().replace("-", "_")
    if norm not in STRATEGIES:
        raise ParameterError(f"unknown strategy {text!r}; pick one of {tuple(STRATEGIES)}")
    return norm


@dataclass
class PenaltyTerm:
    """Penalty value plus per-layer gradients for both factors."""

    value: float
    grad_a: list[np.ndarray]
    grad_b: list[np.ndarray]


def _check_layerwise(As: list[np.ndarray], Bs: list[np.ndarray], layers: list[np.ndarray], lam: float) -> None:
    if lam < 0:
        raise ParameterError(f"lambda must be nonnegative, got {lam}")
    if not (len(As) == len(Bs) == len(layers)):
        raise ShapeError("layer count mismatch", (len(As), len(Bs)), (len(layers),))


def _check_update(As: list[np.ndarray], Bs: list[np.ndarray], f_cum: FisherDiag, lam: float) -> None:
    _check_layerwise(As, Bs, f_cum.fdw, lam)
    for A, B, F in zip(As, Bs, f_cum.fdw):
        if F.shape != (A.shape[0], B.shape[1]) or A.shape[1] != B.shape[0]:
            raise ShapeError("penalty shape mismatch", (A.shape, B.shape), F.shape)


def _check_factor(As: list[np.ndarray], Bs: list[np.ndarray], B_inits: list[np.ndarray], f: FisherDiag, lam: float) -> None:
    if not f.has_factor_space:
        raise ParameterError("separate penalty needs factor-space Fisher blocks")
    _check_layerwise(As, Bs, f.fa, lam)
    for A, B, B0, FA, FB in zip(As, Bs, B_inits, f.fa, f.fb):
        if FA.shape != A.shape or FB.shape != B.shape or B0.shape != B.shape:
            raise ShapeError("separate penalty shape mismatch", (A.shape, B.shape), (FA.shape, FB.shape))


def penalty_deltaw(As: list[np.ndarray], Bs: list[np.ndarray], f_cum: FisherDiag, lam: float, out: tuple | None = None) -> PenaltyTerm:
    """Update-space penalty: quadratic form of the accumulated Fisher on AB.

    The gradients go into out = (grad_a, grad_b), whose shapes the caller
    checked with Strategy.check; without out, the checks run here.
    """
    if out is None:
        _check_update(As, Bs, f_cum, lam)
        out = [np.empty(A.shape) for A in As], [np.empty(B.shape) for B in Bs]
    value = 0.0
    for A, B, F, ga, gb in zip(As, Bs, f_cum.fdw, *out):
        delta = A @ B
        weighted = F * delta
        value += 0.5 * lam * float(np.add.reduce(weighted * delta, axis=None))  # np.sum's bits, minus its wrapper
        np.multiply(weighted @ B.T, lam, out=ga)
        np.multiply(A.T @ weighted, lam, out=gb)
    return PenaltyTerm(value, *out)


def penalty_separate(
    As: list[np.ndarray],
    Bs: list[np.ndarray],
    B_inits: list[np.ndarray],
    f: FisherDiag,
    lam: float,
    out: tuple | None = None,
) -> PenaltyTerm:
    """Factor-space penalty with A anchored at 0 and B at its task init; out as for penalty_deltaw."""
    if out is None:
        _check_factor(As, Bs, B_inits, f, lam)
        out = [np.empty(A.shape) for A in As], [np.empty(B.shape) for B in Bs]
    value = 0.0
    for A, B, B0, FA, FB, ga, gb in zip(As, Bs, B_inits, f.fa, f.fb, *out):
        db = B - B0
        value += 0.5 * lam * float(np.add.reduce(FA * A * A, axis=None) + np.add.reduce(FB * db * db, axis=None))
        np.multiply(lam * FA, A, out=ga)
        np.multiply(lam * FB, db, out=gb)
    return PenaltyTerm(value, *out)
