"""Optimizer, per-task training, and the continual loop on a small stream."""

import gc
import math
import os
import signal
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

import lrcl.trainer as trainer_mod
from lrcl.errors import MetricError, NumericalError, ProtocolError
from lrcl.fisher import EstimatorKind
from lrcl.metrics import avg_anytime, plasticity, stability
from lrcl.tasks import Task, gen_gaussian_stream
from lrcl.tensor import RngState
from lrcl.trainer import (
    AdamState,
    ContinualLearner,
    TrainConfig,
    adam_step,
    desk_profile,
    prepare_base_network,
    pretrain,
    pretrain_report,
    run_continual,
    run_many,
    run_reference,
    train_task,
)


def tiny_stream(seed=0, num_tasks=3):
    return gen_gaussian_stream(
        num_tasks=num_tasks,
        classes_per_task=2,
        dim=6,
        radius=3.0,
        sigma=0.6,
        n_train=30,
        n_test=15,
        seed=seed,
        pretrain_classes=4,
        pretrain_n=30,
    )


def tiny_config(seed=0, **overrides):
    base = dict(
        epochs=4,
        batch_size=16,
        lr=0.05,
        head_lr=1e-6,
        epsilon=0.1,
        hidden_dims=(8, 8),
        rank=2,
        pretrain_epochs=6,
        pretrain_lr=0.005,
        lam=10.0,
        seed=seed,
    )
    base.update(overrides)
    return TrainConfig(**base)


def adam_step_per_array(state, params, grads, lr):
    """Reference Adam: one array at a time, the moments a list per array."""
    state["t"] += 1
    b1, b2, eps = state["b1"], state["b2"], state["eps"]
    bc1 = 1.0 - b1 ** state["t"]
    bc2 = 1.0 - b2 ** state["t"]
    for i, (p, g) in enumerate(zip(params, grads)):
        state["m"][i] = b1 * state["m"][i] + (1.0 - b1) * g
        state["v"][i] = b2 * state["v"][i] + (1.0 - b2) * (g * g)
        m_hat = state["m"][i] / bc1
        v_hat = state["v"][i] / bc2
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        if not np.isfinite(p).all():
            raise NumericalError("parameters left the finite range during Adam update")


class TestAdam:
    def _fresh(self, n=4):
        p = np.zeros(n)
        state = AdamState(p).configure(0.9, 0.999, 1e-8)
        return p, state

    def test_zero_gradient_is_fixed_point(self):
        p, state = self._fresh()
        before = p.copy()
        adam_step(state, p, np.zeros_like(p), lr=0.1)
        assert np.array_equal(p, before)

    def test_first_step_closed_form(self):
        # m_hat = v_hat = 1 after one unit-gradient step, so the update is
        # -lr / (1 + eps), within eps of -lr
        p, state = self._fresh(1)
        adam_step(state, p, np.array([1.0]), lr=0.1)
        assert abs(p[0] + 0.1) < 1e-8

    def test_two_steps_match_loop_oracle(self):
        p, state = self._fresh(6)
        rng = RngState(4)
        g1 = np.array([rng.uniform(-1, 1) for _ in range(6)])
        g2 = np.array([rng.uniform(-1, 1) for _ in range(6)])
        # adam_step uses its gradient buffer as scratch
        adam_step(state, p, g1.copy(), lr=0.01)
        adam_step(state, p, g2.copy(), lr=0.01)

        # scalar reference loop over each coordinate
        theta = np.zeros(6)
        m = np.zeros(6)
        v = np.zeros(6)
        for t, g in enumerate((g1, g2), start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * (g * g)
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            theta = theta - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(p, theta, rtol=0, atol=1e-14)

    # the adapter group (A and B of three layers) and the head group (V, b),
    # each at its own learning rate and Adam constants
    @pytest.mark.parametrize(
        "shapes,lr,eps",
        [
            ([(6, 2), (5, 2), (4, 2), (2, 3), (2, 6), (2, 5)], 0.05, 0.1),
            ([(5, 4), (5, 1)], 1e-6, 1e-8),
        ],
    )
    def test_flat_equals_per_array_oracle_bitwise(self, shapes, lr, eps):
        rng = RngState(11)

        def draw(shape, scale):
            return np.array([scale * rng.uniform(-1, 1) for _ in range(int(np.prod(shape)))]).reshape(shape)

        arrays = [draw(s, 0.5) for s in shapes]
        flat = np.concatenate([a.ravel() for a in arrays])
        state = AdamState(flat).configure(0.9, 0.999, eps)
        ref = {"t": 0, "b1": 0.9, "b2": 0.999, "eps": eps, "m": [np.zeros(s) for s in shapes], "v": [np.zeros(s) for s in shapes]}
        for step in range(6):
            grads = [draw(s, 10.0 ** (step - 3)) for s in shapes]
            adam_step(state, flat, np.concatenate([g.ravel() for g in grads]), lr * (1 + step))
            adam_step_per_array(ref, arrays, grads, lr * (1 + step))
            assert np.array_equal(flat, np.concatenate([a.ravel() for a in arrays]))
        assert np.array_equal(state.m, np.concatenate([m.ravel() for m in ref["m"]]))
        assert np.array_equal(state.v, np.concatenate([v.ravel() for v in ref["v"]]))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_blowup_raises(self):
        p, state = self._fresh(1)
        with pytest.raises(NumericalError, match="^parameters left the finite range during Adam update$"):
            adam_step(state, p, np.array([1e308]), lr=1e308)


class TestArena:
    def test_copies_share_no_memory_with_the_trained_net(self):
        # run_many hands one pretrained base to every unit, and each unit
        # trains base.copy(); the base's W and the trained adapters and head
        # are views into flat buffers, which a copy must not share
        stream = tiny_stream()
        cfg = tiny_config(strategy="separate", shuffle=True)
        base = prepare_base_network(cfg, stream)
        before = base.copy()
        run_continual(cfg, stream, base)
        learner = trainer_mod.start_learner(cfg, stream, base)
        learner.step(stream.tasks[0])

        def arrays(net):
            out = [getattr(layer, k) for layer in net.layers for k in ("W", "A", "B")]
            return out + ([net.head.V, net.head.b] if net.head.V is not None else [])

        for net in (base, learner.net):
            for x, y in zip(arrays(net), arrays(net.copy())):
                assert np.array_equal(x, y) and not np.shares_memory(x, y)
        assert all(np.array_equal(x, y) for x, y in zip(arrays(base), arrays(before)))

    def test_adam_steps_twice_per_optimizer_step(self, monkeypatch):
        calls = []
        real = trainer_mod.adam_step

        def spy(state, params, grads, lr):
            calls.append(params.size)
            return real(state, params, grads, lr)

        monkeypatch.setattr(trainer_mod, "adam_step", spy)
        stream = tiny_stream()
        cfg = tiny_config(shuffle=True)
        run_many(stream, cfg, [cfg], jobs=1)
        # pretraining: 4 classes x 30 samples, 24 per class kept for training
        # -> 96 / 16 = 6 batches x 6 epochs; each task: 2 x 30 = 60 samples
        # -> 4 batches x 4 epochs, trained once as a reference and once in
        # the continual run, for 3 tasks
        steps = 6 * 6 + 2 * 3 * (4 * 4)
        assert len(calls) == 2 * steps


class TestTrainTask:
    def test_base_weights_bit_identical(self):
        stream = tiny_stream()
        cfg = tiny_config()
        net = prepare_base_network(cfg, stream)
        learner = ContinualLearner(net, cfg)
        snapshots = [layer.W.copy() for layer in net.layers]
        # step performs reset/expand/train/estimate but merge changes W;
        # check the train phase alone instead
        from lrcl.model import expand_head, reset_adapter

        reset_adapter(net, RngState(1))
        expand_head(net, stream.tasks[0].class_ids, RngState(2))
        train_task(net, stream.tasks[0].train, None, tiny_config(strategy="none"), RngState(3))
        for layer, snap in zip(net.layers, snapshots):
            assert np.array_equal(layer.W, snap)

    def test_lambda_zero_equals_strategy_none_bitwise(self):
        stream = tiny_stream()
        results = {}
        for strategy, lam in (("deltaw", 0.0), ("none", 0.0)):
            cfg = tiny_config(strategy=strategy, lam=lam)
            net = prepare_base_network(cfg, stream)
            from lrcl.fisher import zeros_like
            from lrcl.model import expand_head, reset_adapter

            reset_adapter(net, RngState(5))
            expand_head(net, stream.tasks[0].class_ids, RngState(6))
            f = zeros_like(net) if strategy == "deltaw" else None
            trace = train_task(net, stream.tasks[0].train, f, cfg, RngState(7))
            results[strategy] = (trace, [l.A.copy() for l in net.layers], net.head.V.copy())
        assert results["deltaw"][0] == results["none"][0]
        for a, b in zip(results["deltaw"][1], results["none"][1]):
            assert np.array_equal(a, b)
        assert np.array_equal(results["deltaw"][2], results["none"][2])

    def test_loss_trace_finite_over_seeds(self):
        for seed in range(5):
            stream = tiny_stream(seed)
            cfg = tiny_config(seed=seed)
            record = run_continual(cfg, stream)
            for trace in record.loss_traces:
                assert all(math.isfinite(v) for v in trace)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_extreme_lambda_pins_adapter(self):
        # desk scale: the benchmark stream, where the anchoring statement holds
        from lrcl.tasks import standard_stream

        stream = standard_stream(0)
        free = run_continual(desk_profile(0, strategy="none", lam=0.0), stream)
        pinned = run_continual(desk_profile(0, strategy="deltaw", lam=1e12), stream)
        # from the second task on the update norm collapses by orders of magnitude
        assert pinned.adapter_norms[1] <= 1e-3 * free.adapter_norms[1]


class TestRunMany:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        parent = os.getpid()

        def killed_in_worker(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(trainer_mod, "run_reference", killed_in_worker)
        with pytest.raises(BrokenProcessPool):
            run_many(tiny_stream(), tiny_config(), [], jobs=2)
        assert trainer_mod._UNITS == []


class TestRunContinual:
    def test_single_task_stream(self):
        stream = tiny_stream(num_tasks=1)
        refs, (record,) = run_many(stream, tiny_config(), [tiny_config()])
        assert record.acc_matrix.T == 1
        assert 0.0 <= plasticity(record.acc_matrix, refs)
        with pytest.raises(MetricError):
            stability(record.acc_matrix)

    def test_matrix_shape_and_ranges(self):
        stream = tiny_stream()
        record = run_continual(tiny_config(), stream)
        for t, row in enumerate(record.acc_matrix.rows):
            assert len(row) == t + 1
            assert all(0.0 <= v <= 1.0 for v in row)

    def test_deterministic_bitwise(self):
        stream_a = tiny_stream(9)
        stream_b = tiny_stream(9)
        rec_a = run_continual(tiny_config(seed=9), stream_a)
        rec_b = run_continual(tiny_config(seed=9), stream_b)
        assert rec_a.acc_matrix.rows == rec_b.acc_matrix.rows
        assert rec_a.adapter_norms == rec_b.adapter_norms
        assert rec_a.loss_traces == rec_b.loss_traces

    def test_two_state_retention(self, monkeypatch):
        # after step() returns, the learner must hold no reference to the
        # per-task Fisher estimate or the task's data
        stream = tiny_stream()
        cfg = tiny_config()
        net = prepare_base_network(cfg, stream)
        learner = ContinualLearner(net, cfg)

        captured = []
        original = trainer_mod.fisher_mod.estimate

        def spy(*args, **kwargs):
            out = original(*args, **kwargs)
            captured.append(weakref.ref(out))
            return out

        monkeypatch.setattr(trainer_mod.fisher_mod, "estimate", spy)

        task = stream.tasks[0]
        data_ref = weakref.ref(task.train)
        result = learner.step(task)
        assert result.fisher_t is not None

        del result, task
        stream.tasks.pop(0)
        gc.collect()
        assert captured and captured[0]() is None, "per-task Fisher still referenced"
        assert data_ref() is None, "task data still referenced"
        # the two persistent states survive
        assert learner.net is net
        assert learner.f_cum is not None

    def test_lambda_monotone_anchoring(self):
        # update magnitude at the end of task 2 never grows with lambda
        stream = tiny_stream(3, num_tasks=2)
        norms = []
        for lam in (0.0, 1e2, 1e4, 1e6, 1e8):
            strategy = "none" if lam == 0.0 else "deltaw"
            rec = run_continual(tiny_config(seed=3, strategy=strategy, lam=lam), stream)
            norms.append(rec.adapter_norms[1])
        for lo, hi in zip(norms[1:], norms[:-1]):
            assert lo <= hi * (1 + 1e-9)

    def test_precomputed_strategies_run(self):
        stream = tiny_stream()
        for strategy in ("precomputed_uniform", "precomputed_dataset"):
            record = run_continual(tiny_config(strategy=strategy, lam=1.0), stream)
            assert record.acc_matrix.complete


class TestRunReference:
    def test_range_and_above_chance(self):
        for seed in range(3):
            stream = tiny_stream(seed)
            cfg = tiny_config(seed=seed)
            net = prepare_base_network(cfg, stream)
            for task in stream.tasks:
                ref = run_reference(net, cfg, task)
                assert 0.0 <= ref <= 1.0
                assert ref >= 1.0 / len(task.class_ids)

    def test_deterministic(self):
        stream = tiny_stream(4)
        cfg = tiny_config(seed=4)
        net = prepare_base_network(cfg, stream)
        a = run_reference(net, cfg, stream.tasks[1])
        b = run_reference(net, cfg, stream.tasks[1])
        assert a == b


class TestPretrain:
    def test_accuracy_above_chance(self):
        stream = tiny_stream(5)
        cfg = tiny_config(seed=5)
        _, acc = pretrain_report(cfg, stream.pretrain)
        assert acc > 1.0 / 4  # four pretraining classes

    def test_outputs_finite_and_head_stripped(self):
        stream = tiny_stream(6)
        net = pretrain(tiny_config(seed=6), stream.pretrain)
        assert all(np.isfinite(l.W).all() for l in net.layers)
        assert net.head.V is None
        assert net.head.class_ids == []

    def test_same_seed_bit_identical(self):
        stream = tiny_stream(7)
        net_a = pretrain(tiny_config(seed=7), stream.pretrain)
        net_b = pretrain(tiny_config(seed=7), stream.pretrain)
        for la, lb in zip(net_a.layers, net_b.layers):
            assert np.array_equal(la.W, lb.W)

    def test_random_mode_skips_training(self):
        stream = tiny_stream(8)
        cfg = tiny_config(seed=8, pretrain_mode="random")
        net = prepare_base_network(cfg, stream)
        assert all(np.isfinite(l.W).all() for l in net.layers)

    def test_train_mode_needs_pretrain_data(self):
        stream = tiny_stream(9)
        stream.pretrain = None
        with pytest.raises(ProtocolError):
            prepare_base_network(tiny_config(seed=9), stream)


def _weight_bytes(net):
    return [(m.shape, m.tobytes()) for l in net.layers for m in (l.W, l.A, l.B)]


class TestSharedBase:
    # one changed value per TrainConfig field; pretraining reads a field
    # exactly when the field is part of pretrain_key
    CHANGED = dict(
        epochs=5, batch_size=8, lr=0.1, head_lr=1e-2, lam=3.0, gamma=0.5, rank=3,
        strategy="separate", estimator=EstimatorKind.exact(), seed=1, beta1=0.8, beta2=0.99,
        epsilon=0.01, lr_schedule="constant", shuffle=True, hidden_dims=(8, 6), b_init_scale=2.0,
        w0_identity_scale=0.4, w0_noise_scale=0.2, w0_feature_gain=4.0, pretrain_mode="random",
        pretrain_epochs=3, pretrain_lr=0.01,
    )

    def test_key_changes_exactly_when_base_weights_change(self):
        assert set(self.CHANGED) == {f.name for f in fields(TrainConfig)}
        stream = tiny_stream(12)
        cfg = tiny_config(seed=0, pretrain_mode="train")
        weights = _weight_bytes(prepare_base_network(cfg, stream))
        for name, value in self.CHANGED.items():
            other = replace(cfg, **{name: value})
            assert getattr(other, name) != getattr(cfg, name), name
            key_moved = trainer_mod.pretrain_key(other) != trainer_mod.pretrain_key(cfg)
            weights_moved = _weight_bytes(prepare_base_network(other, stream)) != weights
            assert key_moved == weights_moved, name

    @pytest.mark.parametrize("strategy", ["deltaw", "separate", "precomputed_dataset"])
    def test_learner_leaves_shared_base_untouched(self, strategy):
        stream = tiny_stream(13)
        cfg = tiny_config(seed=13, strategy=strategy)
        base = prepare_base_network(cfg, stream)
        before = _weight_bytes(base)
        shared = run_continual(cfg, stream, base)
        assert _weight_bytes(base) == before
        assert base.head.class_ids == [] and base.head.V is None
        assert shared.acc_matrix.rows == run_continual(cfg, stream).acc_matrix.rows


class TestDeskProfile:
    def test_spec_defaults_preserved(self):
        cfg = TrainConfig()
        assert cfg.beta1 == 0.9
        assert cfg.beta2 == 0.999
        assert cfg.lam == 1e7
        assert cfg.gamma == 0.9
        assert cfg.epsilon == 1e-8

    def test_desk_profile_overrides(self):
        cfg = desk_profile(11, lam=10.0)
        assert cfg.seed == 11
        assert cfg.epsilon == 0.1
        assert cfg.lam == 10.0


class TestEstimatorsInLoop:
    @pytest.mark.parametrize("estimator", ["empirical", "exact", "exact_subset(20)", "sampled"])
    def test_all_estimators_complete(self, estimator):
        stream = tiny_stream(10, num_tasks=2)
        cfg = tiny_config(seed=10, estimator=EstimatorKind.parse(estimator), lam=1.0)
        record = run_continual(cfg, stream)
        assert record.acc_matrix.complete
