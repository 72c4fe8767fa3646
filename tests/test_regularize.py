"""Penalty values, gradients, and the divergence between the two placements."""

import numpy as np
import pytest

from lrcl.errors import ParameterError, ShapeError
from lrcl.fisher import FactorFisher, UpdateFisher
from lrcl.regularize import parse_strategy, penalty_deltaw, penalty_separate
from lrcl.tensor import RngState

from conftest import divergence_witness, mat, penalty, project_update_fisher, uniform


def rand_matrix(rng, rows, cols, lo=-1.0, hi=1.0):
    return mat(rows, cols, [uniform(rng, lo, hi) for _ in range(rows * cols)])


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
        f = UpdateFisher([rand_fisher(rng, 4, 4)])
        value, grad_a, grad_b = penalty("deltaw", [A], [B], None, f, lam=3.0)
        assert value == 0.0
        assert np.all(grad_a[0] == 0.0)
        assert np.all(grad_b[0] == 0.0)

    def test_hand_computed_value(self):
        # AB is the all-ones 2x2, F all-ones, lam 2: value = (2/2) * 4 = 4
        A = np.ones((2, 1))
        B = np.ones((1, 2))
        f = UpdateFisher([np.ones((2, 2))])
        value, _, _ = penalty("deltaw", [A], [B], None, f, lam=2.0)
        assert value == 4.0

    def test_gradients_match_finite_differences(self):
        rng = RngState(2)
        for _ in range(10):
            A = rand_matrix(rng, 8, 2)
            B = rand_matrix(rng, 2, 8)
            f = UpdateFisher([rand_fisher(rng, 8, 8)])
            lam = 1.7

            def value():
                return penalty("deltaw", [A], [B], None, f, lam)[0]

            _, grad_a, grad_b = penalty("deltaw", [A], [B], None, f, lam)
            fd_a = fd_penalty_grad(value, A)
            fd_b = fd_penalty_grad(value, B)
            assert np.allclose(grad_a[0], fd_a, rtol=1e-6, atol=1e-8)
            assert np.allclose(grad_b[0], fd_b, rtol=1e-6, atol=1e-8)

    def test_invariant_to_factorization_of_same_product(self):
        # scaling A by c and B by 1/c keeps AB, so the value cannot move
        rng = RngState(3)
        A = rand_matrix(rng, 6, 2)
        B = rand_matrix(rng, 2, 6)
        f = UpdateFisher([rand_fisher(rng, 6, 6)])
        v1 = penalty("deltaw", [A], [B], None, f, 5.0)[0]
        A2 = 2.0 * A
        B2 = 0.5 * B
        v2 = penalty("deltaw", [A2], [B2], None, f, 5.0)[0]
        assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))

    def test_lambda_homogeneity_exact(self):
        rng = RngState(4)
        A = rand_matrix(rng, 4, 2)
        B = rand_matrix(rng, 2, 4)
        f = UpdateFisher([rand_fisher(rng, 4, 4)])
        v1, ga1, gb1 = penalty("deltaw", [A], [B], None, f, 2.5)
        v2, ga2, gb2 = penalty("deltaw", [A], [B], None, f, 5.0)
        assert v2 == 2.0 * v1
        assert np.array_equal(ga2[0], 2.0 * ga1[0])
        assert np.array_equal(gb2[0], 2.0 * gb1[0])

    def test_value_nonnegative(self):
        rng = RngState(5)
        for _ in range(20):
            A = rand_matrix(rng, 5, 2)
            B = rand_matrix(rng, 2, 5)
            f = UpdateFisher([rand_fisher(rng, 5, 5)])
            assert penalty("deltaw", [A], [B], None, f, rng.next_float() * 10)[0] >= 0.0

    def test_negative_lambda_rejected(self):
        A = np.zeros((2, 1))
        B = np.zeros((1, 2))
        f = UpdateFisher([np.zeros((2, 2))])
        with pytest.raises(ParameterError):
            penalty("deltaw", [A], [B], None, f, -1.0)

    def test_shape_mismatch_rejected(self):
        A = np.zeros((2, 1))
        B = np.zeros((1, 2))
        f = UpdateFisher([np.zeros((3, 3))])
        with pytest.raises(ShapeError):
            penalty("deltaw", [A], [B], None, f, 1.0)

    def test_vectorized_value_matches_elementwise_loop(self):
        rng = RngState(6)
        A = rand_matrix(rng, 7, 2)
        B = rand_matrix(rng, 2, 7)
        f = UpdateFisher([rand_fisher(rng, 7, 7)])
        lam = 3.3
        value, _, _ = penalty("deltaw", [A], [B], None, f, lam)
        delta = A @ B
        slow = 0.0
        for i in range(7):
            for j in range(7):
                slow += f.fdw[0][i, j] * delta[i, j] ** 2
        slow *= 0.5 * lam
        assert abs(value - slow) < 1e-12 * max(1.0, abs(slow))


class TestPenaltySeparate:
    def _instance(self, seed, d=6, r=2):
        rng = RngState(seed)
        A = rand_matrix(rng, d, r)
        B = rand_matrix(rng, r, d)
        B0 = rand_matrix(rng, r, d)
        f = FactorFisher(
            [rand_fisher(rng, d, d)],
            fa=[rand_fisher(rng, d, r)],
            fb=[rand_fisher(rng, r, d)],
        )
        return A, B, B0, f

    def test_anchor_is_exact_zero(self):
        A, B, B0, f = self._instance(10)
        zero_a = np.zeros(A.shape)
        value, grad_a, grad_b = penalty("separate", [zero_a], [B0], [B0], f, lam=4.0)
        assert value == 0.0
        assert np.all(grad_a[0] == 0.0)
        assert np.all(grad_b[0] == 0.0)

    def test_hand_computed_value(self):
        A = np.ones((2, 1))
        B0 = np.zeros((1, 2))
        B = np.ones((1, 2))
        f = FactorFisher(
            [np.ones((2, 2))],
            fa=[np.ones((2, 1))],
            fb=[np.ones((1, 2))],
        )
        value, _, _ = penalty("separate", [A], [B], [B0], f, lam=2.0)
        assert value == 4.0

    def test_gradients_match_finite_differences(self):
        A, B, B0, f = self._instance(11)

        def value():
            return penalty("separate", [A], [B], [B0], f, 2.2)[0]

        _, grad_a, grad_b = penalty("separate", [A], [B], [B0], f, 2.2)
        assert np.allclose(grad_a[0], fd_penalty_grad(value, A), rtol=1e-6, atol=1e-8)
        assert np.allclose(grad_b[0], fd_penalty_grad(value, B), rtol=1e-6, atol=1e-8)

    def test_not_factorization_invariant(self):
        # same product AB, different factors: the value must move
        A, B, B0, f = self._instance(12)
        v1 = penalty("separate", [A], [B], [B0], f, 1.0)[0]
        A2 = 2.0 * A
        B2 = 0.5 * B
        v2 = penalty("separate", [A2], [B2], [B0], f, 1.0)[0]
        assert abs(v1 - v2) > 1e-6 * max(1.0, abs(v1))

    def test_requires_factor_blocks(self):
        # an UpdateFisher has no fa or fb: the kernel fails on it rather than weighing nothing
        rng = RngState(13)
        A = rand_matrix(rng, 3, 1)
        B = rand_matrix(rng, 1, 3)
        f = UpdateFisher([rand_fisher(rng, 3, 3)])
        with pytest.raises(AttributeError, match="'fa'"):
            penalty_separate([A], [B], [B], f, 1.0, [np.zeros(A.shape)], [np.zeros(B.shape)])


class TestAddsIntoCallerArrays:
    def test_kernels_add_to_preloaded_gradients(self):
        # the kernels add into what backward left in the arrays: the sum is the preload plus the penalty's own gradients
        rng = RngState(14)
        d, r = 5, 2
        As = [rand_matrix(rng, d, r) for _ in range(2)]
        Bs = [rand_matrix(rng, r, d) for _ in range(2)]
        B0s = [rand_matrix(rng, r, d) for _ in range(2)]
        f = FactorFisher(
            [rand_fisher(rng, d, d) for _ in range(2)],
            fa=[rand_fisher(rng, d, r) for _ in range(2)],
            fb=[rand_fisher(rng, r, d) for _ in range(2)],
        )
        lam = 1.3
        for kind, kernel, anchors, weights in (("deltaw", penalty_deltaw, (), UpdateFisher(f.fdw)), ("separate", penalty_separate, (B0s,), f)):
            value, grad_a, grad_b = penalty(kind, As, Bs, B0s, weights, lam)
            pre_a = [rand_matrix(rng, d, r) for _ in range(2)]
            pre_b = [rand_matrix(rng, r, d) for _ in range(2)]
            got_a, got_b = [g.copy() for g in pre_a], [g.copy() for g in pre_b]
            assert kernel(As, Bs, *anchors, weights, lam, got_a, got_b) == value
            for got, pre, own in zip(got_a + got_b, pre_a + pre_b, grad_a + grad_b):
                assert np.array_equal(got, pre + own)


class TestProjection:
    def test_squared_jacobian_diagonals(self):
        rng = RngState(15)
        f = UpdateFisher([rand_fisher(rng, 4, 5)])
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
            A = A0 + np.array([[uniform(rng, -1, 1)], [uniform(rng, -1, 1)]])
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
            A = A0 + np.array([[uniform(rng, -1, 1) for _ in range(2)] for _ in range(3)])
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
