"""Optimizer, per-task training, and the continual loop on a small stream."""

import copy
import gc
import math
import os
import signal
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lrcl.trainer as trainer_mod
from lrcl.errors import ConfigError, MetricError, NumericalError, ParameterError, ProtocolError
from lrcl.fisher import EstimatorKind, FactorFisher, UpdateFisher
from lrcl.metrics import avg_anytime, plasticity, stability
from lrcl.model import accuracy, expand_head, forward, label_rows, new_network, reset_adapter
from lrcl.regularize import STRATEGIES
from lrcl.tasks import Dataset, StreamConfig, Task, TaskStream, gen_gaussian_stream, stratified_split
from lrcl.tensor import RngState, load_state, save_state
from lrcl.trainer import (
    AdamState,
    ContinualLearner,
    TrainConfig,
    adam_step,
    desk_profile,
    pretrain,
    run_continual,
    run_many,
    run_reference,
    train_task,
)

from conftest import backprop, uniform


def tiny_stream(seed=0, num_tasks=3):
    shape = StreamConfig(
        num_tasks=num_tasks,
        classes_per_task=2,
        dim=6,
        radius=3.0,
        sigma=0.6,
        n_train=30,
        n_test=15,
        pretrain_classes=4,
        pretrain_n=30,
    )
    return gen_gaussian_stream(shape, seed)


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
        state = AdamState(p, 0.9, 0.999, 1e-8)
        return p, state

    def test_zero_gradient_is_fixed_point(self):
        p, state = self._fresh()
        before = p.copy()
        adam_step(state, p, np.zeros_like(p), [(slice(None), 0.1)])
        assert np.array_equal(p, before)

    def test_first_step_closed_form(self):
        # m_hat = v_hat = 1 after one unit-gradient step, so the update is
        # -lr / (1 + eps), within eps of -lr
        p, state = self._fresh(1)
        adam_step(state, p, np.array([1.0]), [(slice(None), 0.1)])
        assert abs(p[0] + 0.1) < 1e-8

    def test_two_steps_match_loop_oracle(self):
        p, state = self._fresh(6)
        rng = RngState(4)
        g1 = np.array([uniform(rng, -1, 1) for _ in range(6)])
        g2 = np.array([uniform(rng, -1, 1) for _ in range(6)])
        # adam_step uses its gradient buffer as scratch
        adam_step(state, p, g1.copy(), [(slice(None), 0.01)])
        adam_step(state, p, g2.copy(), [(slice(None), 0.01)])

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
    # each at its own learning rate and Adam constants; the third case is
    # both groups in one buffer, one call with a (slice, rate) pair per
    # group against the oracle's scalar-rate calls, one per group
    @pytest.mark.parametrize(
        "shapes,lr,eps",
        [
            ([(6, 2), (5, 2), (4, 2), (2, 3), (2, 6), (2, 5)], 0.05, 0.1),
            ([(5, 4), (5, 1)], 1e-6, 1e-8),
            ([(6, 2), (5, 2), (4, 2), (2, 3), (2, 6), (2, 5), (5, 4), (5, 1)], (6, 0.05, 1e-6), 0.1),
        ],
    )
    def test_flat_equals_per_array_oracle_bitwise(self, shapes, lr, eps):
        rng = RngState(11)

        def draw(shape, scale):
            return np.array([scale * uniform(rng, -1, 1) for _ in range(int(np.prod(shape)))]).reshape(shape)

        # (first array, end, rate) of each group the oracle steps on its own
        cut, first_lr, rest_lr = lr if isinstance(lr, tuple) else (len(shapes), lr, None)
        groups = [(0, cut, first_lr), (cut, len(shapes), rest_lr)][: 2 if cut < len(shapes) else 1]
        ends = np.cumsum([0] + [int(np.prod(s)) for s in shapes])
        arrays = [draw(s, 0.5) for s in shapes]
        flat = np.concatenate([a.ravel() for a in arrays])
        state = AdamState(flat, 0.9, 0.999, eps)
        refs = [
            {"t": 0, "b1": 0.9, "b2": 0.999, "eps": eps, "m": [np.zeros(s) for s in shapes[lo:hi]], "v": [np.zeros(s) for s in shapes[lo:hi]]}
            for lo, hi, _ in groups
        ]
        for step in range(6):
            grads = [draw(s, 10.0 ** (step - 3)) for s in shapes]
            rates = [(slice(ends[lo], ends[hi]), rate * (1 + step)) for lo, hi, rate in groups]
            adam_step(state, flat, np.concatenate([g.ravel() for g in grads]), rates)
            for ref, (lo, hi, rate) in zip(refs, groups):
                adam_step_per_array(ref, arrays[lo:hi], grads[lo:hi], rate * (1 + step))
            assert np.array_equal(flat, np.concatenate([a.ravel() for a in arrays]))
        assert np.array_equal(state.m, np.concatenate([m.ravel() for ref in refs for m in ref["m"]]))
        assert np.array_equal(state.v, np.concatenate([v.ravel() for ref in refs for v in ref["v"]]))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_blowup_raises(self):
        p, state = self._fresh(1)
        with pytest.raises(NumericalError, match="^parameters left the finite range during Adam update$"):
            adam_step(state, p, np.array([1e308]), [(slice(None), 1e308)])


class TestArena:
    @staticmethod
    def arrays(net):
        return [getattr(layer, k) for layer in net.layers for k in "WAB"] + [net.head.V, net.head.b]

    def test_copies_share_no_memory_with_the_trained_net(self):
        # run_many hands one pretrained base to every unit, and each unit
        # trains copy.deepcopy(base); the base's W and the trained adapters
        # and head are views into flat buffers, which a copy must not share
        stream = tiny_stream()
        cfg = tiny_config(strategy="separate", shuffle=True)
        base = pretrain(cfg, stream)[0]
        before = copy.deepcopy(base)
        learners = []
        run_continual(cfg, stream, base, lambda t, learner: learners.append(learner))
        learner = learners[0]
        for net in (base, learner.net):
            for x, y in zip(self.arrays(net), self.arrays(copy.deepcopy(net))):
                assert np.array_equal(x, y) and not np.shares_memory(x, y)
        assert all(np.array_equal(x, y) for x, y in zip(self.arrays(base), self.arrays(before)))

    def test_a_copy_taken_after_a_task_owns_every_array(self):
        # diagnose copies the learner's network in after_task, while its
        # adapters and head are still views into the task's flat buffer: a
        # copy of only those views keeps no training buffer alive
        views, owned = [], []

        def after_task(t, learner):
            views.append(learner.net.head.V.base is not None and learner.net.layers[0].A.base is not None)
            owned.append(all(m.base is None for m in self.arrays(copy.deepcopy(learner.net))))

        run_continual(tiny_config(), tiny_stream(), after_task=after_task)
        assert owned == [True] * 3
        assert views == [False, True, True]  # task 0 is finished on a copy of the shared learner's network

    def test_adam_steps_once_per_optimizer_step(self, monkeypatch):
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
        assert len(calls) == steps
        # each call covers every trained array: pretraining's W (6x8, 8x8)
        # and its 4-class head, or the rank-2 adapters and the head so far
        assert calls[: 6 * 6] == [6 * 8 + 8 * 8 + 4 * 9] * (6 * 6)
        adapters = 8 * 2 + 2 * 6 + 8 * 2 + 2 * 8
        assert set(calls[6 * 6 :]) == {adapters + c * 9 for c in (2, 4, 6)}


class _Group:
    """One parameter group in its own flat buffer, stepped at its own rate.

    The training step before the single arena kept the adapters and the
    head apart like this: gradients copied in (plus the penalty's, added
    array by array), then one adam_step per group.
    """

    def __init__(self, slots, config):
        arrays = [getattr(owner, name) for owner, name in slots]
        self.params = np.concatenate([a.ravel() for a in arrays])
        self.grad = np.empty_like(self.params)
        cuts = np.cumsum([a.size for a in arrays])[:-1]
        self.grads = [g.reshape(a.shape) for g, a in zip(np.split(self.grad, cuts), arrays)]
        for (owner, name), p, a in zip(slots, np.split(self.params, cuts), arrays):
            setattr(owner, name, p.reshape(a.shape))
        self.state = AdamState(self.params, config.beta1, config.beta2, config.epsilon)

    def step(self, grads, extra, lr):
        for i, (view, g) in enumerate(zip(self.grads, grads)):
            if extra is None:
                view[...] = g
            else:
                np.add(g, extra[i], out=view)
        adam_step(self.state, self.params, self.grad, [(slice(None), lr)])


def reference_penalty(kind, As, Bs, B_inits, f, lam):
    """(value, grad_a + grad_b) of the update- or factor-space penalty, array by array."""
    value, grad_a, grad_b = 0.0, [], []
    for k, (A, B) in enumerate(zip(As, Bs)):
        if kind == "update":
            delta = A @ B
            weighted = f.fdw[k] * delta
            value += 0.5 * lam * float(np.sum(weighted * delta))
            grad_a.append(lam * (weighted @ B.T))
            grad_b.append(lam * (A.T @ weighted))
        else:
            db = B - B_inits[k]
            value += 0.5 * lam * float(np.sum(f.fa[k] * A * A) + np.sum(f.fb[k] * db * db))
            grad_a.append(lam * f.fa[k] * A)
            grad_b.append(lam * f.fb[k] * db)
    return value, grad_a + grad_b


def reference_loss(logits, rows):
    shifted = logits - logits.max(axis=1, keepdims=True)
    z = np.exp(shifted).sum(axis=1)
    return float(np.mean(np.log(z) - shifted[np.arange(len(rows)), rows]))


def reference_fit(net, body, X, rows, config, epochs, lr, rng=None, penalty=None):
    """The two-group training loop: forward, backward, penalty, two Adam calls per step.

    body is "AB" (task training; penalty() gives (value, gradients) or
    None) or "W" (pretraining). Returns each epoch's mean loss.
    """
    main = _Group([(layer, name) for name in body for layer in net.layers], config)
    head = _Group([(net.head, "V"), (net.head, "b")], config)
    order = list(range(len(X)))
    slices = [(s, min(s + config.batch_size, len(X))) for s in range(0, len(X), config.batch_size)]
    trace = []
    for epoch in range(epochs):
        body_lr = trainer_mod._epoch_lr(lr, epoch, epochs, config.lr_schedule)
        head_lr = trainer_mod._epoch_lr(config.head_lr, epoch, epochs, config.lr_schedule)
        epoch_X, epoch_rows = X, rows
        if rng is not None:
            rng.shuffle(order)
            epoch_X, epoch_rows = X[order], rows[order]
        epoch_loss = 0.0
        for start, stop in slices:
            cache = forward(net, epoch_X[start:stop])
            total = reference_loss(cache.logits, epoch_rows[start:stop])
            _, grads = backprop(net, cache, epoch_rows[start:stop], factors=body != "W")
            if body == "W":
                main.step(grads.d_w, None, body_lr)
            else:
                pen = penalty()
                if pen is not None:
                    total += pen[0]
                main.step(grads.d_a + grads.d_b, None if pen is None else pen[1], body_lr)
            head.step([grads.d_v, grads.d_bias], None, head_lr)
            epoch_loss += total
        trace.append(epoch_loss / len(slices))
    return trace


def _trained(net):
    return [getattr(layer, name) for layer in net.layers for name in ("W", "A", "B")] + [net.head.V, net.head.b]


def _case_config(strategy, shuffle, rank, dims, batch_size, lam, head_lr, schedule):
    return TrainConfig(
        epochs=2, batch_size=batch_size, lr=0.05, head_lr=head_lr, lam=lam, rank=rank, strategy=strategy,
        shuffle=shuffle, hidden_dims=tuple(dims[1:]), epsilon=0.1, lr_schedule=schedule, pretrain_epochs=2,
        pretrain_lr=0.01, seed=3,
    )


@st.composite
def step_cases(draw):
    n_layers = draw(st.integers(1, 3))
    dims = [draw(st.sampled_from((4, 6, 16, 64)))] + [draw(st.sampled_from((4, 8, 48, 256))) for _ in range(n_layers)]
    rank = draw(st.integers(1, min(4, *dims)))
    batch_size = draw(st.sampled_from((7, 16, 64, 256)))
    # one or two full batches, then a short one (or none)
    n = batch_size * draw(st.integers(1, 2)) + draw(st.integers(0, batch_size - 1))
    return dict(
        strategy=draw(st.sampled_from(sorted(STRATEGIES))), shuffle=draw(st.booleans()), rank=rank, dims=dims,
        batch_size=batch_size, lam=draw(st.sampled_from((0.0, 10.0, 1e4))), head_lr=draw(st.sampled_from((1e-6, 0.01))),
        schedule=draw(st.sampled_from(("cosine", "constant"))), n=n,
    )


# the wide workload's shapes: 64 -> 256 -> 256, rank 4, 300 samples in batches of 256
WIDE = dict(strategy="deltaw", shuffle=True, rank=4, dims=[64, 256, 256], batch_size=256, lam=10.0, head_lr=1e-6, schedule="cosine", n=300)


def _data(dims, n, class_ids, seed):
    rng = RngState(seed)
    X = rng.normals(n * dims[0]).reshape(n, dims[0])
    return Dataset(X, [class_ids[rng.randint(len(class_ids))] for _ in range(n)])


def _pretrain_stream(pretrain_set):
    # pretrain reads the input width from the stream's tasks: give it one placeholder task
    placeholder = Dataset(pretrain_set.X[:1], [-1])
    return TaskStream([Task(0, [-1], placeholder, placeholder)], pretrain_set)


class TestStepOracle:
    """train_task and pretrain equal the two-group loop bit for bit."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @example(case=WIDE)
    @given(case=step_cases())
    def test_train_task_equals_two_group_loop(self, case):
        cfg = _case_config(*(case[k] for k in ("strategy", "shuffle", "rank", "dims", "batch_size", "lam", "head_lr", "schedule")))
        rng = RngState(5)
        net = new_network(case["dims"], cfg.rank, rng, 0.5, 0.1, 8.0)
        expand_head(net, [0, 1, 2], rng)
        for layer in net.layers:  # a merged earlier task: nonzero base update
            layer.W += rng.normals(layer.W.size).reshape(layer.W.shape) * 0.01
        reset_adapter(net, rng)
        expand_head(net, [7, 8], rng)
        data = _data(case["dims"], case["n"], [7, 8, 0], seed=9)
        strategy = STRATEGIES[cfg.strategy]
        f = None
        if strategy.importance is not None:
            fdw = [rng.floats(l.W.size).reshape(l.W.shape) for l in net.layers]
            fa = [rng.floats(l.A.size).reshape(l.A.shape) for l in net.layers]
            fb = [rng.floats(l.B.size).reshape(l.B.shape) for l in net.layers]
            f = strategy.importance(fdw, *((fa, fb) if strategy.importance is FactorFisher else ()))

        ref_net = copy.deepcopy(net)
        trace = train_task(net, data, f, cfg, RngState(1))

        b_inits = [layer.B.copy() for layer in ref_net.layers]

        def penalty():
            if strategy.importance is None:
                return None
            # the adapters as the loop has rebound them: views into its buffer
            As, Bs = [layer.A for layer in ref_net.layers], [layer.B for layer in ref_net.layers]
            return reference_penalty("factor" if strategy.importance is FactorFisher else "update", As, Bs, b_inits, f, cfg.lam)

        rows = label_rows(ref_net.head, data.y)
        ref_trace = reference_fit(ref_net, "AB", data.X, rows, cfg, cfg.epochs, cfg.lr, RngState(1) if cfg.shuffle else None, penalty)

        assert trace == ref_trace
        for x, y in zip(_trained(net), _trained(ref_net)):
            assert np.array_equal(x, y)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @example(case=WIDE)
    @given(case=step_cases())
    def test_pretrain_equals_two_group_loop(self, case):
        cfg = _case_config(*(case[k] for k in ("strategy", "shuffle", "rank", "dims", "batch_size", "lam", "head_lr", "schedule")))
        # 4 classes; a fifth of each is held out, so 1.25 n samples give n to train on
        pretrain_set = _data(case["dims"], max(10, case["n"] * 5 // 4), [0, 1, 2, 3], seed=4)
        seen = {}
        real_fit, real_accuracy = trainer_mod._fit, trainer_mod.accuracy

        def fit_spy(*args):
            seen["trace"] = real_fit(*args)
            return seen["trace"]

        def accuracy_spy(net, X, y):
            seen["head"] = [net.head.V.copy(), net.head.b.copy()]
            return real_accuracy(net, X, y)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trainer_mod, "_fit", fit_spy)
            patch.setattr(trainer_mod, "accuracy", accuracy_spy)
            net, acc = pretrain(cfg, _pretrain_stream(pretrain_set))

        rng = RngState(cfg.seed).derive("pretrain")
        ref = new_network([pretrain_set.dim] + list(cfg.hidden_dims), cfg.rank, rng, cfg.w0_identity_scale, cfg.w0_noise_scale, cfg.w0_feature_gain)
        expand_head(ref, sorted(set(pretrain_set.y)), rng)
        train_ds, test_ds = stratified_split(pretrain_set, 0.8, rng, sorted(set(pretrain_set.y)))
        rows = label_rows(ref.head, train_ds.y)
        ref_trace = reference_fit(ref, "W", train_ds.X, rows, cfg, cfg.pretrain_epochs, cfg.pretrain_lr)

        assert seen["trace"] == ref_trace
        assert acc == accuracy(ref, test_ds.X, test_ds.y)
        for x, y in zip(_trained(net)[:-2] + seen["head"], _trained(ref)):
            assert np.array_equal(x, y)


class TestTrainTask:
    def test_base_weights_bit_identical(self):
        stream = tiny_stream()
        cfg = tiny_config()
        net = pretrain(cfg, stream)[0]
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

    @pytest.mark.parametrize("strategy", ["deltaw", "separate"])
    def test_penalty_strategy_given_no_fisher_names_itself(self, strategy):
        stream = tiny_stream()
        net = pretrain(tiny_config(), stream)[0]
        reset_adapter(net, RngState(1))
        expand_head(net, stream.tasks[0].class_ids, RngState(2))
        with pytest.raises(ParameterError, match=f"strategy '{strategy}' needs a Fisher"):
            train_task(net, stream.tasks[0].train, None, tiny_config(strategy=strategy), RngState(3))

    @pytest.mark.parametrize("strategy, other", [("deltaw", FactorFisher), ("separate", UpdateFisher)])
    def test_penalty_strategy_given_the_other_space_names_itself(self, strategy, other):
        # train_task's type check is what keeps separate off UpdateFisher.bind's kernel, and deltaw off FactorFisher's
        stream = tiny_stream()
        net = pretrain(tiny_config(), stream)[0]
        reset_adapter(net, RngState(1))
        expand_head(net, stream.tasks[0].class_ids, RngState(2))
        with pytest.raises(ParameterError, match=f"strategy '{strategy}' needs a Fisher to weight its penalty: a {STRATEGIES[strategy].importance.__name__}, not {other.__name__}"):
            train_task(net, stream.tasks[0].train, other.full(net, 1.0), tiny_config(strategy=strategy), RngState(3))

    def test_lambda_zero_equals_strategy_none_bitwise(self):
        stream = tiny_stream()
        results = {}
        for strategy, lam in (("deltaw", 0.0), ("none", 0.0)):
            cfg = tiny_config(strategy=strategy, lam=lam)
            net = pretrain(cfg, stream)[0]
            from lrcl.model import expand_head, reset_adapter

            reset_adapter(net, RngState(5))
            expand_head(net, stream.tasks[0].class_ids, RngState(6))
            f = UpdateFisher.full(net, 0.0) if strategy == "deltaw" else None
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
            for log in record.task_logs:
                assert all(math.isfinite(v) for v in log["loss_trace"])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_extreme_lambda_pins_adapter(self):
        # desk scale: the benchmark stream, where the anchoring statement holds
        from lrcl.tasks import standard_stream

        stream = standard_stream(0)
        free = run_continual(desk_profile(0, strategy="none", lam=0.0), stream)
        pinned = run_continual(desk_profile(0, strategy="deltaw", lam=1e12), stream)
        # from the second task on the update norm collapses by orders of magnitude
        assert pinned.task_logs[1]["adapter_norm"] <= 1e-3 * free.task_logs[1]["adapter_norm"]


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
        assert trainer_mod._WORK is None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_failure_in_serial_order(self, monkeypatch, jobs):
        # with jobs = 1 every unit runs in this process, in serial order, and
        # none runs after the first failure; pooled, the error is the same
        real = trainer_mod.run_reference
        references, runs = [], []

        def reference(net, config, task):
            references.append(task.id)
            if task.id == 1:
                raise NumericalError("stand-in failure of reference 1")
            return real(net, config, task)

        monkeypatch.setattr(trainer_mod, "run_reference", reference)
        monkeypatch.setattr(trainer_mod, "run_continual", lambda *args: runs.append(args))
        with pytest.raises(NumericalError, match="stand-in failure of reference 1"):
            run_many(tiny_stream(), tiny_config(), [tiny_config()], jobs=jobs)
        if jobs == 1:
            assert references == [0, 1] and runs == []
        assert trainer_mod._WORK is None


    # configs 1 and 2 share task 0; configs 0 and 3 train their own
    CONFIGS = (("precomputed_uniform", 1.0), ("deltaw", 1.0), ("none", 0.0), ("precomputed_dataset", 1.0))

    @staticmethod
    def _record(monkeypatch, failing=()):
        """Records each first task, continuation and reference run here, as (kind, strategy or task id); those in failing raise."""
        ran = []

        def spy(name, key):
            real = getattr(trainer_mod, name)

            def call(*args):
                ran.append(key(*args))
                if ran[-1] in failing:
                    raise NumericalError(f"stand-in failure of {ran[-1]}")
                return real(*args)

            monkeypatch.setattr(trainer_mod, name, call)

        spy("_first_task", lambda config, *_: ("first", config.strategy))
        spy("_continue", lambda config, *_: ("continue", config.strategy))
        spy("run_reference", lambda net, config, task: ("reference", task.id))
        return ran

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("reference_fails", [False, True])
    def test_shared_first_task_failure_in_serial_order(self, monkeypatch, jobs, reference_fails):
        # the shared task 0 fails, and config 3 (and reference 1) would fail
        # later: the shared task trains before any unit, so for any jobs its
        # error ends the call and nothing else runs
        failing = {("first", "deltaw"), ("continue", "precomputed_dataset")} | ({("reference", 1)} if reference_fails else set())
        ran = self._record(monkeypatch, failing)
        configs = [tiny_config(strategy=s, lam=lam) for s, lam in self.CONFIGS]
        with pytest.raises(NumericalError, match=r"stand-in failure of \('first', 'deltaw'\)"):
            run_many(tiny_stream(), tiny_config(), configs, jobs=jobs)
        assert ran == [("first", "deltaw")]
        assert trainer_mod._WORK is None

    def test_shared_first_task_trains_before_the_first_reference(self, monkeypatch):
        # jobs = 1 runs each unit as it is read, references first; the shared
        # task 0 trains before them all, as it does before a pool forks
        ran = self._record(monkeypatch)
        run_many(tiny_stream(), tiny_config(), [tiny_config(strategy=s, lam=lam) for s, lam in self.CONFIGS], jobs=1)
        assert ran == [("first", "deltaw"), ("reference", 0), ("reference", 1), ("reference", 2),
                       ("first", "precomputed_uniform"), ("continue", "precomputed_uniform"), ("continue", "deltaw"),
                       ("continue", "none"), ("first", "precomputed_dataset"), ("continue", "precomputed_dataset")]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_pool_trains_each_shared_first_task_once_before_forking(self, monkeypatch):
        # the workers inherit the shared task 0, so none trains it and no
        # learner is pickled; every config here shares it
        import multiprocessing

        parent, real = os.getpid(), trainer_mod._first_task
        ran = []

        def first_task(config, stream, base):
            if os.getpid() != parent:
                raise AssertionError("a worker trained a shared first task")
            ran.append((config.strategy, len(multiprocessing.active_children())))
            return real(config, stream, base)

        monkeypatch.setattr(trainer_mod, "_first_task", first_task)
        configs = [tiny_config(strategy="none"), tiny_config(strategy="deltaw", lam=1e8),
                   tiny_config(strategy="separate", gamma=0.5), tiny_config(strategy="deltaw", gamma=0.0)]
        run_many(tiny_stream(), tiny_config(), configs, jobs=2)
        assert ran == [("none", 0)]


class TestForkPool:
    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_fewer_than_two_workers_fork_nothing(self, workers):
        # below two workers each call runs in this process when read, and no child starts
        import multiprocessing

        if workers > 1 and not hasattr(os, "fork"):
            pytest.skip("needs fork")
        parent = os.getpid()
        with trainer_mod.fork_pool(workers, lambda x: (os.getpid() == parent, 2 * x)) as submit:
            futures = [submit(x) for x in range(3)]
            assert [f.result() for f in futures] == [(workers < 2, 0), (workers < 2, 2), (workers < 2, 4)]
            assert bool(multiprocessing.active_children()) == (workers > 1)
        assert trainer_mod._WORK is None


class TestSharedFirstTask:
    """run_many trains task 0 once for its configs without a precomputed Fisher, to the bytes of one run each."""

    # every strategy without a fixed Fisher, and one with, at each lambda and gamma
    GRID = [(s, lam, gamma) for s in ("none", "deltaw", "separate", "precomputed_dataset") for lam in (0.0, 10.0, 1e8) for gamma in (0.0, 0.5, 1.0)]

    @pytest.mark.parametrize("estimator", ["empirical", "sampled", "exact_subset(5)"])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_run_many_equals_one_run_at_a_time(self, estimator, shuffle):
        # sampled and exact_subset draw from the Fisher stream, shuffling from the train stream
        stream = tiny_stream(4)
        configs = [tiny_config(seed=4, strategy=s, lam=lam, gamma=gamma, estimator=estimator, shuffle=shuffle) for s, lam, gamma in self.GRID]
        alone = [run_continual(config, stream) for config in configs]
        for jobs in (1, 2):
            _, records = run_many(stream, configs[0], configs, jobs=jobs)
            for config, record, one in zip(configs, records, alone):
                assert record.rows == one.rows and record.task_logs == one.task_logs, (jobs, config)

    def test_a_field_outside_varied_raises_before_pretraining(self, monkeypatch):
        # one changed value per other TrainConfig field, after a config that may differ
        def no_pretrain(*args):
            raise AssertionError("pretrained before the configs were checked")

        monkeypatch.setattr(trainer_mod, "pretrain", no_pretrain)
        assert set(TestSharedBase.CHANGED) == {f.name for f in fields(TrainConfig)}
        cfg = tiny_config()
        for name, value in TestSharedBase.CHANGED.items():
            assert value != getattr(cfg, name), name
            if name not in trainer_mod.VARIED:
                configs = [tiny_config(strategy="separate", lam=3.0, gamma=0.5), replace(cfg, **{name: value})]
                with pytest.raises(ParameterError, match=f"not in {name}$"):
                    run_many(tiny_stream(), cfg, configs)

    @pytest.mark.parametrize("name", ["lr", "head_lr", "pretrain_lr", "lam"])
    def test_nan_is_refused_by_the_config(self, name):
        # NaN passes no comparison, NaN == NaN included: run_many would refuse
        # a config that copies base_cfg's NaN rate as differing from it
        with pytest.raises(ConfigError, match="got nan$"):
            tiny_config(**{name: math.nan})

    def test_each_key_trains_task_0_once(self, monkeypatch):
        calls = []
        real = trainer_mod.train_task

        def spy(net, data, f_cum, config, rng):
            calls.append(config.strategy)
            return real(net, data, f_cum, config, rng)

        monkeypatch.setattr(trainer_mod, "train_task", spy)
        stream = tiny_stream()
        configs = [tiny_config(strategy="none"), tiny_config(strategy="deltaw", lam=1e8), tiny_config(strategy="separate", gamma=0.5),
                   tiny_config(strategy="precomputed_dataset"), tiny_config(strategy="precomputed_dataset"),
                   tiny_config(strategy="deltaw", lam=0.0), tiny_config(strategy="separate", gamma=1.0), tiny_config(strategy="precomputed_uniform", lam=1e8)]
        run_many(stream, tiny_config(), configs, jobs=1)
        # 3 references, then task 0 once for the five configs without a
        # precomputed Fisher and once for each of the three with one (the
        # two equal ones apart), and tasks 1 and 2 for every config
        assert len(calls) == 3 + (1 + 3) + 2 * len(configs)


class TestRunContinual:
    def test_single_task_stream(self):
        stream = tiny_stream(num_tasks=1)
        refs, (record,) = run_many(stream, tiny_config(), [tiny_config()])
        assert len(record.rows) == 1
        assert 0.0 <= plasticity(record.rows, refs)
        with pytest.raises(MetricError):
            stability(record.rows)

    def test_matrix_shape_and_ranges(self):
        stream = tiny_stream()
        record = run_continual(tiny_config(), stream)
        for t, row in enumerate(record.rows):
            assert len(row) == t + 1
            assert all(0.0 <= v <= 1.0 for v in row)

    def test_deterministic_bitwise(self):
        stream_a = tiny_stream(9)
        stream_b = tiny_stream(9)
        rec_a = run_continual(tiny_config(seed=9), stream_a)
        rec_b = run_continual(tiny_config(seed=9), stream_b)
        assert rec_a.rows == rec_b.rows
        assert rec_a.task_logs == rec_b.task_logs

    def test_two_state_retention(self, monkeypatch):
        # after step() returns, the learner must hold no reference to the
        # per-task Fisher estimate or the task's data
        stream = tiny_stream()
        cfg = tiny_config()
        net = pretrain(cfg, stream)[0]
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

        del result, task
        stream.tasks.pop(0)
        gc.collect()
        assert captured and captured[0]() is None, "per-task Fisher still referenced"
        assert data_ref() is None, "task data still referenced"
        # the two persistent states survive
        assert learner.net is net
        assert learner.f_cum is not None

    def test_step_result_holds_no_fisher_estimate(self, monkeypatch):
        # the per-task Fisher is gone as soon as step() returns, while the
        # caller still holds what step() returned
        stream = tiny_stream()
        cfg = tiny_config()
        learner = ContinualLearner(pretrain(cfg, stream)[0], cfg)
        captured = []
        original = trainer_mod.fisher_mod.estimate

        def spy(*args, **kwargs):
            out = original(*args, **kwargs)
            captured.append(weakref.ref(out))
            return out

        monkeypatch.setattr(trainer_mod.fisher_mod, "estimate", spy)
        result = learner.step(stream.tasks[0])
        gc.collect()
        assert captured and captured[0]() is None, "per-task Fisher still referenced"
        trace, norm = result
        assert len(trace) == cfg.epochs and norm > 0.0

    def test_lambda_monotone_anchoring(self):
        # update magnitude at the end of task 2 never grows with lambda
        stream = tiny_stream(3, num_tasks=2)
        norms = []
        for lam in (0.0, 1e2, 1e4, 1e6, 1e8):
            strategy = "none" if lam == 0.0 else "deltaw"
            rec = run_continual(tiny_config(seed=3, strategy=strategy, lam=lam), stream)
            norms.append(rec.task_logs[1]["adapter_norm"])
        for lo, hi in zip(norms[1:], norms[:-1]):
            assert lo <= hi * (1 + 1e-9)

    def test_precomputed_strategies_run(self):
        stream = tiny_stream()
        for strategy in ("precomputed_uniform", "precomputed_dataset"):
            record = run_continual(tiny_config(strategy=strategy, lam=1.0), stream)
            assert len(record.rows) == stream.num_tasks

    @pytest.mark.parametrize("strategy", ["deltaw", "separate", "none"])
    def test_learned_strategy_rejects_a_fixed_fisher(self, strategy):
        # the learner would drop it and start from zeros without a word
        cfg = tiny_config(strategy=strategy)
        net = pretrain(cfg, tiny_stream())[0]
        with pytest.raises(ConfigError, match=repr(strategy)):
            ContinualLearner(net, cfg, f_fixed=UpdateFisher.full(net, 1.0))


class TestConstantStorage:
    @pytest.mark.parametrize("strategy", ["deltaw", "separate"])
    def test_saved_learner_state_keeps_its_files_and_shapes(self, tmp_path, strategy):
        # the paper's constant-storage claim, on files: after every task the
        # learner keeps the merged weights, the head and the accumulated
        # Fisher, and only the head grows, by the new task's classes
        stream = tiny_stream()
        saved = []

        def save(t, learner):
            net, f_cum = learner.net, learner.f_cum
            arrays = {f"layer{k}_W": layer.W for k, layer in enumerate(net.layers)}
            arrays.update(head_V=net.head.V, head_b=net.head.b)
            for group in ("fdw", "fa", "fb"):
                arrays.update({f"layer{k}_F_cum_{group}": m for k, m in enumerate(getattr(f_cum, group, []))})
            save_state(tmp_path / f"task{t}", arrays, {"task": t})
            saved.append({name: m.copy() for name, m in arrays.items()})

        run_continual(tiny_config(strategy=strategy), stream, after_task=save)
        assert len(saved) == stream.num_tasks
        assert any("F_cum_fa" in name for name in saved[0]) == (strategy == "separate")
        files = sorted(p.name for p in (tmp_path / "task0").iterdir())
        for t, arrays in enumerate(saved):
            assert sorted(p.name for p in (tmp_path / f"task{t}").iterdir()) == files
            loaded, meta = load_state(tmp_path / f"task{t}")
            assert meta == {"task": t} and loaded.keys() == arrays.keys()
            for name, m in arrays.items():
                rows, cols = saved[0][name].shape
                grown = sum(len(task.class_ids) for task in stream.tasks[1 : t + 1]) if name.startswith("head_") else 0
                assert m.shape == (rows + grown, cols), name
                assert loaded[name].shape == m.shape and loaded[name].tobytes() == m.tobytes(), name

    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_learner_holds_two_states_and_its_rngs(self, strategy):
        # a precomputed strategy's fixed Fisher is its f_cum, kept beside nothing else
        stream = tiny_stream()
        seen = []

        def check(t, learner):
            seen.append(t)
            assert set(vars(learner)) == {"net", "config", "strategy", "f_cum", "_rng_init", "_rng_train", "_rng_fisher"}
            if strategy == "precomputed_uniform":
                assert all((m == 1.0).all() for m in learner.f_cum.fdw)

        run_continual(tiny_config(strategy=strategy, lam=1.0), stream, after_task=check)
        assert seen == list(range(stream.num_tasks))


class TestRunReference:
    def test_range_and_above_chance(self):
        for seed in range(3):
            stream = tiny_stream(seed)
            cfg = tiny_config(seed=seed)
            net = pretrain(cfg, stream)[0]
            for task in stream.tasks:
                ref = run_reference(net, cfg, task)
                assert 0.0 <= ref <= 1.0
                assert ref >= 1.0 / len(task.class_ids)

    def test_deterministic(self):
        stream = tiny_stream(4)
        cfg = tiny_config(seed=4)
        net = pretrain(cfg, stream)[0]
        a = run_reference(net, cfg, stream.tasks[1])
        b = run_reference(net, cfg, stream.tasks[1])
        assert a == b


class TestPretrain:
    def test_accuracy_above_chance(self):
        stream = tiny_stream(5)
        cfg = tiny_config(seed=5)
        _, acc = pretrain(cfg, stream)
        assert acc > 1.0 / 4  # four pretraining classes

    def test_outputs_finite_and_head_stripped(self):
        stream = tiny_stream(6)
        net = pretrain(tiny_config(seed=6), stream)[0]
        assert all(np.isfinite(l.W).all() for l in net.layers)
        assert net.head.V.shape == (0, 8) and net.head.b.shape == (0, 1)
        assert net.head.class_ids == []

    def test_same_seed_bit_identical(self):
        stream = tiny_stream(7)
        net_a = pretrain(tiny_config(seed=7), stream)[0]
        net_b = pretrain(tiny_config(seed=7), stream)[0]
        for la, lb in zip(net_a.layers, net_b.layers):
            assert np.array_equal(la.W, lb.W)

    def test_random_mode_skips_training(self):
        stream = tiny_stream(8)
        cfg = tiny_config(seed=8, pretrain_mode="random")
        net, acc = pretrain(cfg, stream)
        assert all(np.isfinite(l.W).all() for l in net.layers)
        rng = RngState(8).derive("pretrain")
        drawn = new_network([stream.dim, 8, 8], cfg.rank, rng, cfg.w0_identity_scale, cfg.w0_noise_scale, cfg.w0_feature_gain)
        assert _weight_bytes(net) == _weight_bytes(drawn)
        assert acc == 1.0 / 4  # chance over the four pretraining classes
        stream.pretrain = None  # a CSV stream has none
        net, acc = pretrain(cfg, stream)
        assert _weight_bytes(net) == _weight_bytes(drawn) and acc is None

    def test_train_mode_needs_pretrain_data(self):
        stream = tiny_stream(9)
        stream.pretrain = None
        with pytest.raises(ProtocolError):
            pretrain(tiny_config(seed=9), stream)


def _weight_bytes(net):
    return [(m.shape, m.tobytes()) for l in net.layers for m in (l.W, l.A, l.B)]


class TestSharedBase:
    # one changed value per TrainConfig field
    CHANGED = dict(
        epochs=5, batch_size=8, lr=0.1, head_lr=1e-2, lam=3.0, gamma=0.5, rank=3,
        strategy="separate", estimator=EstimatorKind("exact"), seed=1, beta1=0.8, beta2=0.99,
        epsilon=0.01, lr_schedule="constant", shuffle=True, hidden_dims=(8, 6), b_init_scale=2.0,
        w0_identity_scale=0.4, w0_noise_scale=0.2, w0_feature_gain=4.0, pretrain_mode="random",
        pretrain_epochs=3, pretrain_lr=0.01,
    )

    @pytest.mark.parametrize("strategy", ["deltaw", "separate", "precomputed_dataset"])
    def test_learner_leaves_shared_base_untouched(self, strategy):
        stream = tiny_stream(13)
        cfg = tiny_config(seed=13, strategy=strategy)
        base = pretrain(cfg, stream)[0]
        before = _weight_bytes(base)
        shared = run_continual(cfg, stream, base)
        assert _weight_bytes(base) == before
        assert base.head.class_ids == [] and base.head.V.shape == (0, 8) and base.head.b.shape == (0, 1)
        assert shared.rows == run_continual(cfg, stream).rows


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
        assert len(record.rows) == stream.num_tasks
