"""Penalty values, gradients, and the divergence between the two placements."""

import numpy as np
import pytest

from lrcl.errors import ParameterError, ShapeError
from lrcl.fisher import FisherDiag
from lrcl.regularize import (
    divergence_witness,
    parse_strategy,
    penalty_deltaw,
    penalty_separate,
    project_update_fisher,
)
from lrcl.tensor import RngState

from conftest import mat


def rand_matrix(rng, rows, cols, lo=-1.0, hi=1.0):
    return mat(rows, cols, [rng.uniform(lo, hi) for _ in range(rows * cols)])


def rand_fisher(rng, rows, cols):
    return mat(rows, cols, [rng.next_float() for _ in range(rows * cols)])


def fd_penalty_grad(value_fn, matrix: np.ndarray, h=1e-5):
    out = np.zeros_like(matrix)
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            orig = matrix[i, j]
            matrix[i, j] = orig + h
            up = value_fn()
            matrix[i, j] = orig - h
            down = value_fn()
            matrix[i, j] = orig
            out[i, j] = (up - down) / (2.0 * h)
    return out


class TestPenaltyDeltaW:
    def test_anchor_is_exact_zero(self):
        rng = RngState(1)
        A = np.zeros((4, 2))
        B = rand_matrix(rng, 2, 4)
        f = FisherDiag([rand_fisher(rng, 4, 4)])
        pen = penalty_deltaw([A], [B], f, lam=3.0)
        assert pen.value == 0.0
        assert np.all(pen.grad_a[0] == 0.0)
        assert np.all(pen.grad_b[0] == 0.0)

    def test_hand_computed_value(self):
        # AB is the all-ones 2x2, F all-ones, lam 2: value = (2/2) * 4 = 4
        A = np.ones((2, 1))
        B = np.ones((1, 2))
        f = FisherDiag([np.ones((2, 2))])
        pen = penalty_deltaw([A], [B], f, lam=2.0)
        assert pen.value == 4.0

    def test_gradients_match_finite_differences(self):
        rng = RngState(2)
        for _ in range(10):
            A = rand_matrix(rng, 8, 2)
            B = rand_matrix(rng, 2, 8)
            f = FisherDiag([rand_fisher(rng, 8, 8)])
            lam = 1.7

            def value():
                return penalty_deltaw([A], [B], f, lam).value

            pen = penalty_deltaw([A], [B], f, lam)
            fd_a = fd_penalty_grad(value, A)
            fd_b = fd_penalty_grad(value, B)
            assert np.allclose(pen.grad_a[0], fd_a, rtol=1e-6, atol=1e-8)
            assert np.allclose(pen.grad_b[0], fd_b, rtol=1e-6, atol=1e-8)

    def test_invariant_to_factorization_of_same_product(self):
        # scaling A by c and B by 1/c keeps AB, so the value cannot move
        rng = RngState(3)
        A = rand_matrix(rng, 6, 2)
        B = rand_matrix(rng, 2, 6)
        f = FisherDiag([rand_fisher(rng, 6, 6)])
        v1 = penalty_deltaw([A], [B], f, 5.0).value
        A2 = 2.0 * A
        B2 = 0.5 * B
        v2 = penalty_deltaw([A2], [B2], f, 5.0).value
        assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))

    def test_lambda_homogeneity_exact(self):
        rng = RngState(4)
        A = rand_matrix(rng, 4, 2)
        B = rand_matrix(rng, 2, 4)
        f = FisherDiag([rand_fisher(rng, 4, 4)])
        p1 = penalty_deltaw([A], [B], f, 2.5)
        p2 = penalty_deltaw([A], [B], f, 5.0)
        assert p2.value == 2.0 * p1.value
        assert np.array_equal(p2.grad_a[0], 2.0 * p1.grad_a[0])
        assert np.array_equal(p2.grad_b[0], 2.0 * p1.grad_b[0])

    def test_value_nonnegative(self):
        rng = RngState(5)
        for _ in range(20):
            A = rand_matrix(rng, 5, 2)
            B = rand_matrix(rng, 2, 5)
            f = FisherDiag([rand_fisher(rng, 5, 5)])
            assert penalty_deltaw([A], [B], f, rng.next_float() * 10).value >= 0.0

    def test_negative_lambda_rejected(self):
        A = np.zeros((2, 1))
        B = np.zeros((1, 2))
        f = FisherDiag([np.zeros((2, 2))])
        with pytest.raises(ParameterError):
            penalty_deltaw([A], [B], f, -1.0)

    def test_shape_mismatch_rejected(self):
        A = np.zeros((2, 1))
        B = np.zeros((1, 2))
        f = FisherDiag([np.zeros((3, 3))])
        with pytest.raises(ShapeError):
            penalty_deltaw([A], [B], f, 1.0)

    def test_vectorized_value_matches_elementwise_loop(self):
        rng = RngState(6)
        A = rand_matrix(rng, 7, 2)
        B = rand_matrix(rng, 2, 7)
        f = FisherDiag([rand_fisher(rng, 7, 7)])
        lam = 3.3
        pen = penalty_deltaw([A], [B], f, lam)
        delta = A @ B
        slow = 0.0
        for i in range(7):
            for j in range(7):
                slow += f.fdw[0][i, j] * delta[i, j] ** 2
        slow *= 0.5 * lam
        assert abs(pen.value - slow) < 1e-12 * max(1.0, abs(slow))


class TestPenaltySeparate:
    def _instance(self, seed, d=6, r=2):
        rng = RngState(seed)
        A = rand_matrix(rng, d, r)
        B = rand_matrix(rng, r, d)
        B0 = rand_matrix(rng, r, d)
        f = FisherDiag(
            [rand_fisher(rng, d, d)],
            fa=[rand_fisher(rng, d, r)],
            fb=[rand_fisher(rng, r, d)],
        )
        return A, B, B0, f

    def test_anchor_is_exact_zero(self):
        A, B, B0, f = self._instance(10)
        zero_a = np.zeros(A.shape)
        pen = penalty_separate([zero_a], [B0], [B0], f, lam=4.0)
        assert pen.value == 0.0
        assert np.all(pen.grad_a[0] == 0.0)
        assert np.all(pen.grad_b[0] == 0.0)

    def test_hand_computed_value(self):
        A = np.ones((2, 1))
        B0 = np.zeros((1, 2))
        B = np.ones((1, 2))
        f = FisherDiag(
            [np.ones((2, 2))],
            fa=[np.ones((2, 1))],
            fb=[np.ones((1, 2))],
        )
        pen = penalty_separate([A], [B], [B0], f, lam=2.0)
        assert pen.value == 4.0

    def test_gradients_match_finite_differences(self):
        A, B, B0, f = self._instance(11)

        def value():
            return penalty_separate([A], [B], [B0], f, 2.2).value

        pen = penalty_separate([A], [B], [B0], f, 2.2)
        assert np.allclose(pen.grad_a[0], fd_penalty_grad(value, A), rtol=1e-6, atol=1e-8)
        assert np.allclose(pen.grad_b[0], fd_penalty_grad(value, B), rtol=1e-6, atol=1e-8)

    def test_not_factorization_invariant(self):
        # same product AB, different factors: the value must move
        A, B, B0, f = self._instance(12)
        v1 = penalty_separate([A], [B], [B0], f, 1.0).value
        A2 = 2.0 * A
        B2 = 0.5 * B
        v2 = penalty_separate([A2], [B2], [B0], f, 1.0).value
        assert abs(v1 - v2) > 1e-6 * max(1.0, abs(v1))

    def test_requires_factor_blocks(self):
        rng = RngState(13)
        A = rand_matrix(rng, 3, 1)
        B = rand_matrix(rng, 1, 3)
        f = FisherDiag([rand_fisher(rng, 3, 3)])
        with pytest.raises(ParameterError):
            penalty_separate([A], [B], [B], f, 1.0)


class TestProjection:
    def test_squared_jacobian_diagonals(self):
        rng = RngState(15)
        f = FisherDiag([rand_fisher(rng, 4, 5)])
        A0 = rand_matrix(rng, 4, 2)
        B0 = rand_matrix(rng, 2, 5)
        proj = project_update_fisher(f, [A0], [B0])
        # loop oracle: FA[i,k] = sum_j F[i,j] B0[k,j]^2, FB[k,j] = sum_i A0[i,k]^2 F[i,j]
        for i in range(4):
            for k in range(2):
                want = sum(f.fdw[0][i, j] * B0[k, j] ** 2 for j in range(5))
                assert abs(proj.fa[0][i, k] - want) < 1e-12
        for k in range(2):
            for j in range(5):
                want = sum(A0[i, k] ** 2 * f.fdw[0][i, j] for i in range(4))
                assert abs(proj.fb[0][k, j] - want) < 1e-12


class TestDivergenceWitness:
    def test_rank_zero_limit_no_divergence(self):
        # zero deviation on both sides: both penalties are exactly zero
        rng = RngState(16)
        A0 = rand_matrix(rng, 4, 2)
        B0 = rand_matrix(rng, 2, 4)
        F = rand_fisher(rng, 4, 4)
        dev = A0 @ B0 - A0 @ B0
        r_dw = 0.5 * float(np.sum(F * dev * dev))
        fa = F @ (B0 * B0).T
        fb = (A0 * A0).T @ F
        r_ab = 0.5 * float(np.sum(fa * 0.0) + np.sum(fb * 0.0))
        assert r_dw == 0.0 and r_ab == 0.0

    def test_rank_one_single_factor_update_is_the_equality_case(self):
        # with r = 1 and only A moving, the projected quadratic form is
        # exactly diagonal, so the two penalties coincide; from rank 2 the
        # diagonal projection drops cross-rank terms and they part ways
        rng = RngState(17)
        for _ in range(20):
            A0 = rand_matrix(rng, 2, 1)
            B0 = rand_matrix(rng, 1, 2)
            F = rand_fisher(rng, 2, 2)
            A = A0 + np.array([[rng.uniform(-1, 1)], [rng.uniform(-1, 1)]])
            dev = A @ B0 - A0 @ B0
            r_dw = 0.5 * float(np.sum(F * dev * dev))
            fa = F @ (B0 * B0).T
            da = A - A0
            r_ab = 0.5 * float(np.sum(fa * da * da))
            assert abs(r_dw - r_ab) < 1e-12 * max(1.0, r_dw)

    def test_rank_two_single_factor_update_diverges(self):
        rng = RngState(18)
        diverged = 0
        for _ in range(20):
            A0 = rand_matrix(rng, 3, 2)
            B0 = rand_matrix(rng, 2, 3)
            F = rand_fisher(rng, 3, 3)
            A = A0 + np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(3)])
            dev = A @ B0 - A0 @ B0
            r_dw = 0.5 * float(np.sum(F * dev * dev))
            fa = F @ (B0 * B0).T
            da = A - A0
            r_ab = 0.5 * float(np.sum(fa * da * da))
            if abs(r_dw - r_ab) > 1e-9 * max(1.0, r_dw):
                diverged += 1
        assert diverged >= 19

    def test_thousand_trials_diverge(self):
        frac = divergence_witness(RngState(19), (8, 8, 2), 1000)
        assert frac >= 0.99

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            divergence_witness(RngState(0), (4, 4, 4), 10)
        with pytest.raises(ParameterError):
            divergence_witness(RngState(0), (4, 4, 2), 0)


class TestStrategyParsing:
    def test_known_strategies(self):
        assert parse_strategy("DeltaW") == "deltaw"
        assert parse_strategy("precomputed-dataset") == "precomputed_dataset"
        with pytest.raises(ParameterError):
            parse_strategy("magic")
