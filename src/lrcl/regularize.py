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
move a single factor) the two quadratic forms differ. divergence_witness
measures how often they differ on random instances, and the penalty
functions themselves expose the complementary invariance: the update-space
value depends on A and B only through AB, the factor-space value does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .fisher import FisherDiag
from .tensor import Matrix, RngState, uniform_matrix


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

    def penalty_term(self, As: list[Matrix], Bs: list[Matrix], B_inits: list[Matrix] | None, f: FisherDiag | None, lam: float) -> PenaltyTerm | None:
        """The penalty at (A, B), or None for a strategy without one."""
        if self.penalty == "update":
            return penalty_deltaw(As, Bs, f, lam)
        if self.penalty == "factor":
            return penalty_separate(As, Bs, B_inits, f, lam)
        return None


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


def _check_lambda(lam: float) -> None:
    if lam < 0:
        raise ParameterError(f"lambda must be nonnegative, got {lam}")


def _check_layerwise(As: list[Matrix], Bs: list[Matrix], layers: list[Matrix]) -> None:
    if not (len(As) == len(Bs) == len(layers)):
        raise ShapeError("layer count mismatch", (len(As), len(Bs)), (len(layers),))


def penalty_deltaw(As: list[Matrix], Bs: list[Matrix], f_cum: FisherDiag, lam: float) -> PenaltyTerm:
    """Update-space penalty: quadratic form of the accumulated Fisher on AB."""
    _check_lambda(lam)
    _check_layerwise(As, Bs, f_cum.fdw)
    value = 0.0
    grad_a, grad_b = [], []
    for A, B, F in zip(As, Bs, f_cum.fdw):
        if F.shape != (A.rows, B.cols) or A.cols != B.rows:
            raise ShapeError("penalty shape mismatch", (A.shape, B.shape), F.shape)
        delta = A.a @ B.a
        weighted = F.a * delta
        value += 0.5 * lam * float(np.sum(weighted * delta))
        grad_a.append(lam * (weighted @ B.a.T))
        grad_b.append(lam * (A.a.T @ weighted))
    return PenaltyTerm(value, grad_a, grad_b)


def penalty_separate(
    As: list[Matrix],
    Bs: list[Matrix],
    B_inits: list[Matrix],
    f: FisherDiag,
    lam: float,
) -> PenaltyTerm:
    """Factor-space penalty with A anchored at 0 and B at its task init."""
    _check_lambda(lam)
    if not f.has_factor_space:
        raise ParameterError("separate penalty needs factor-space Fisher blocks")
    _check_layerwise(As, Bs, f.fa)
    value = 0.0
    grad_a, grad_b = [], []
    for A, B, B0, FA, FB in zip(As, Bs, B_inits, f.fa, f.fb):
        if FA.shape != A.shape or FB.shape != B.shape or B0.shape != B.shape:
            raise ShapeError("separate penalty shape mismatch", (A.shape, B.shape), (FA.shape, FB.shape))
        db = B.a - B0.a
        value += 0.5 * lam * float(np.sum(FA.a * A.a * A.a) + np.sum(FB.a * db * db))
        grad_a.append(lam * FA.a * A.a)
        grad_b.append(lam * FB.a * db)
    return PenaltyTerm(value, grad_a, grad_b)


def project_update_fisher(f: FisherDiag, A0s: list[Matrix], B0s: list[Matrix]) -> FisherDiag:
    """Factor-space diagonals induced by an update-space diagonal.

    Squared-Jacobian projection at the anchor point: FA = F (B0 o B0)^T and
    FB = (A0 o A0)^T F, i.e. the diagonal of J^T diag(F) J for each factor.
    """
    fa, fb = [], []
    for F, A0, B0 in zip(f.fdw, A0s, B0s):
        fa.append(Matrix.from_array(F.a @ (B0.a * B0.a).T))
        fb.append(Matrix.from_array((A0.a * A0.a).T @ F.a))
    return FisherDiag(fdw=[m.copy() for m in f.fdw], fa=fa, fb=fb)


def divergence_witness(rng: RngState, dims: tuple[int, int, int], trials: int) -> float:
    """Fraction of random instances where the two penalties disagree.

    Each trial draws an anchor pair (A0, B0), a perturbed pair (A, B), and
    a nonnegative update-space diagonal F. The update-space value uses the
    deviation AB - A0B0; the factor-space value uses the projected
    diagonals at the anchor and the factor deviations. Disagreement means
    |R_dw - R_ab| > 1e-9 * max(1, R_dw).
    """
    d_o, d_i, r = dims
    if r >= min(d_o, d_i):
        raise ParameterError(f"need r < min(d_o, d_i), got r={r} for {d_o}x{d_i}")
    if trials < 1:
        raise ParameterError("trials must be >= 1")

    hits = 0
    for _ in range(trials):
        A0 = uniform_matrix(rng, d_o, r, -1.0, 1.0).a
        B0 = uniform_matrix(rng, r, d_i, -1.0, 1.0).a
        A = A0 + uniform_matrix(rng, d_o, r, -1.0, 1.0).a
        B = B0 + uniform_matrix(rng, r, d_i, -1.0, 1.0).a
        F = rng.floats(d_o * d_i).reshape(d_o, d_i)

        dev = A @ B - A0 @ B0
        r_dw = 0.5 * float(np.sum(F * dev * dev))

        FA = F @ (B0 * B0).T
        FB = (A0 * A0).T @ F
        da = A - A0
        db = B - B0
        r_ab = 0.5 * float(np.sum(FA * da * da) + np.sum(FB * db * db))

        if abs(r_dw - r_ab) > 1e-9 * max(1.0, r_dw):
            hits += 1
    return hits / trials
