"""Network forward/backward against finite differences and algebraic identities."""

import math

import numpy as np
import pytest

from lrcl.errors import LabelError, ProtocolError, ShapeError
from lrcl.model import (
    Head,
    LoRALinear,
    Network,
    backward,
    backward_wrt_base,
    expand_head,
    forward,
    label_rows,
    load_checkpoint,
    merge_and_reset,
    new_network,
    reset_adapter,
    save_checkpoint,
)
from lrcl.tensor import RngState

from conftest import make_batch, make_net


def central_diff(f, matrix: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function over one matrix."""
    out = np.zeros_like(matrix)
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            orig = matrix[i, j]
            matrix[i, j] = orig + h
            up = f()
            matrix[i, j] = orig - h
            down = f()
            matrix[i, j] = orig
            out[i, j] = (up - down) / (2.0 * h)
    return out


def assert_grad_close(analytic: np.ndarray, fd: np.ndarray, rel=1e-5, tiny=1e-8):
    for a, b in zip(analytic.ravel(), fd.ravel()):
        if abs(b) < tiny:
            assert abs(a - b) < 1e-6, f"near-zero entry mismatch: {a} vs {b}"
        else:
            assert abs(a - b) <= rel * max(abs(a), abs(b)), f"{a} vs {b}"


class TestLayerMap:
    def test_single_layer_hand_example(self):
        layer = LoRALinear(
            W=np.eye(2),
            A=np.array([[1.0], [0.0]]),
            B=np.array([[0.0, 1.0]]),
            rank=1,
        )
        out = layer.apply_rows(np.array([[1.0, 2.0]]))
        assert np.allclose(out, [[3.0, 2.0]], atol=0)

    def test_rank_bound_enforced(self):
        with pytest.raises(ShapeError):
            LoRALinear(W=np.eye(2), A=np.zeros((2, 3)), B=np.zeros((3, 2)), rank=3)


class TestForward:
    def test_zero_adapter_is_frozen_map(self):
        net = make_net((5, 6, 4), rank=2, seed=3)
        x, _ = make_batch(net, 7, seed=4)
        logits = forward(net, x).logits

        h = x
        for k, layer in enumerate(net.layers):
            z = h @ layer.W.T
            h = np.tanh(z) if k < len(net.layers) - 1 else z
        frozen_logits = h @ net.head.V.T + net.head.b.T
        assert np.array_equal(logits, frozen_logits)

    def test_input_dim_checked(self):
        net = make_net((5, 4), rank=2, seed=1)
        with pytest.raises(ShapeError):
            forward(net, np.zeros((2, 3)))

    def test_merge_preserves_function(self):
        rng = RngState(1000)
        for trial in range(100):
            d = 2 + rng.randint(15)  # d <= 16
            r = 1 + rng.randint(max(1, min(d, 3)))
            net = make_net((d, d, d), rank=r, seed=trial, nonzero_adapter=True)
            x, _ = make_batch(net, 3, seed=trial + 500)
            before = forward(net, x).logits
            merge_and_reset(net, RngState(trial + 9000))
            after = forward(net, x).logits
            assert np.allclose(before, after, rtol=0, atol=1e-12)


class TestBackward:
    def test_uniform_logits_loss_is_log_c(self):
        net = make_net((4, 4), rank=1, seed=2, class_ids=[0, 1, 2, 3, 4])
        # zero head makes every logit equal, so the loss is ln C exactly
        net.head.V[:] = 0.0
        net.head.b[:] = 0.0
        x, labels = make_batch(net, 6, seed=5)
        cache = forward(net, x)
        loss, _ = backward(net, cache, label_rows(net.head, labels))
        assert abs(loss - math.log(5)) < 1e-12

    def test_unknown_label_raises(self):
        net = make_net((4, 4), rank=1, seed=2, class_ids=[0, 1])
        x, _ = make_batch(net, 2, seed=3)
        cache = forward(net, x)
        with pytest.raises(LabelError):
            backward(net, cache, label_rows(net.head, [0, 99]))

    def test_gradients_match_finite_differences(self):
        net = make_net((6, 6, 6), rank=2, seed=11, nonzero_adapter=True)
        x, labels = make_batch(net, 4, seed=12)

        def loss_fn():
            cache = forward(net, x)
            loss, _ = backward(net, cache, label_rows(net.head, labels))
            return loss

        cache = forward(net, x)
        _, grads = backward(net, cache, label_rows(net.head, labels))

        for k, layer in enumerate(net.layers):
            assert_grad_close(grads.d_a[k], central_diff(loss_fn, layer.A))
            assert_grad_close(grads.d_b[k], central_diff(loss_fn, layer.B))
        assert_grad_close(grads.d_v, central_diff(loss_fn, net.head.V))
        assert_grad_close(grads.d_bias, central_diff(loss_fn, net.head.b))

    def test_chain_rule_consistency(self):
        # dA and dB must equal the matmul of d_delta_w with the factors
        for seed in range(10):
            net = make_net((6, 5, 4), rank=2, seed=seed, nonzero_adapter=True)
            x, labels = make_batch(net, 5, seed=seed + 100)
            cache = forward(net, x)
            _, grads = backward(net, cache, label_rows(net.head, labels))
            for k, layer in enumerate(net.layers):
                assert np.allclose(grads.d_a[k], grads.d_delta_w[k] @ layer.B.T, atol=1e-10)
                assert np.allclose(grads.d_b[k], layer.A.T @ grads.d_delta_w[k], atol=1e-10)

    def test_update_gradient_equals_base_gradient(self):
        # Two derivations of the same gradient: one through the adapter
        # branch with the update as the free variable, one with the base
        # matrix as the free variable. They must coincide.
        for seed in range(10):
            net = make_net((6, 6, 6), rank=2, seed=seed, nonzero_adapter=True)
            x, labels = make_batch(net, 4, seed=seed + 77)
            cache = forward(net, x)
            loss_a, grads = backward(net, cache, label_rows(net.head, labels))
            loss_b, d_w, d_v, d_bias = backward_wrt_base(net, cache, label_rows(net.head, labels))
            assert loss_a == loss_b
            for k in range(len(net.layers)):
                assert np.allclose(grads.d_delta_w[k], d_w[k], rtol=0, atol=1e-12)
            assert np.allclose(grads.d_v, d_v, rtol=0, atol=1e-12)

    def test_update_gradient_matches_merged_network(self):
        # Third derivation: fold W + AB into a plain-weight network and
        # differentiate there; same function, so same gradient.
        net = make_net((6, 6, 6), rank=2, seed=21, nonzero_adapter=True)
        x, labels = make_batch(net, 4, seed=22)

        merged = net.copy()
        for layer in merged.layers:
            layer.W += layer.A @ layer.B
            layer.A[:] = 0.0

        cache = forward(net, x)
        _, grads = backward(net, cache, label_rows(net.head, labels))
        cache_m = forward(merged, x)
        _, d_w, _, _ = backward_wrt_base(merged, cache_m, label_rows(merged.head, labels))
        for k in range(len(net.layers)):
            assert np.allclose(grads.d_delta_w[k], d_w[k], rtol=1e-10, atol=1e-12)


class TestMergeAndReset:
    def test_zero_adapter_merge_keeps_w(self):
        net = make_net((5, 5), rank=2, seed=6)
        w_before = net.layers[0].W.copy()
        merge_and_reset(net, RngState(60))
        assert np.array_equal(net.layers[0].W, w_before)

    def test_merge_twice_with_zero_adapter_idempotent(self):
        net = make_net((5, 5), rank=2, seed=7, nonzero_adapter=True)
        merge_and_reset(net, RngState(70))
        w_after_first = net.layers[0].W.copy()
        merge_and_reset(net, RngState(71))
        assert np.array_equal(net.layers[0].W, w_after_first)

    def test_reset_state(self):
        net = make_net((5, 5), rank=2, seed=8, nonzero_adapter=True)
        merge_and_reset(net, RngState(80))
        layer = net.layers[0]
        assert np.all(layer.A == 0.0)
        bound = 1.0 / math.sqrt(layer.d_in)
        assert np.all(np.abs(layer.B) <= bound)
        assert np.any(layer.B != 0.0)


class TestExpandHead:
    def test_expand_by_zero_is_noop(self):
        net = make_net((4, 4), rank=1, seed=9, class_ids=[0, 1])
        v_before = net.head.V.copy()
        expand_head(net, [], RngState(90))
        assert np.array_equal(net.head.V, v_before)
        assert net.head.class_ids == [0, 1]

    def test_old_logits_preserved(self):
        net = make_net((4, 4), rank=1, seed=10, class_ids=[0, 1, 2, 3, 4])
        x, _ = make_batch(net, 6, seed=11)
        before = forward(net, x).logits
        expand_head(net, [5, 6, 7, 8, 9], RngState(101))
        after = forward(net, x).logits
        assert after.shape == (6, 10)
        assert np.allclose(before, after[:, :5], rtol=0, atol=1e-12)

    def test_duplicate_class_rejected(self):
        net = make_net((4, 4), rank=1, seed=12, class_ids=[0, 1])
        with pytest.raises(ProtocolError):
            expand_head(net, [1], RngState(1))
        with pytest.raises(ProtocolError):
            expand_head(net, [7, 7], RngState(1))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = make_net((6, 5, 4), rank=2, seed=13, class_ids=[3, 1, 4], nonzero_adapter=True)
        save_checkpoint(net, tmp_path / "ckpt", seed=13)
        back = load_checkpoint(tmp_path / "ckpt")
        assert back.head.class_ids == [3, 1, 4]
        for la, lb in zip(net.layers, back.layers):
            assert np.array_equal(la.W, lb.W)
            assert np.array_equal(la.A, lb.A)
            assert np.array_equal(la.B, lb.B)
        assert np.array_equal(net.head.V, back.head.V)
        assert np.array_equal(net.head.b, back.head.b)

    def test_headless_checkpoint(self, tmp_path):
        rng = RngState(14)
        net = new_network([4, 4], 2, rng)
        save_checkpoint(net, tmp_path / "ckpt")
        back = load_checkpoint(tmp_path / "ckpt")
        assert back.head.V is None
        assert back.head.class_ids == []
