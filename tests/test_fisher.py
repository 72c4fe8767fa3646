"""Fisher estimators against per-sample loop oracles and closed forms."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrcl.errors import ParameterError, ShapeError
from lrcl.fisher import (
    EstimatorKind,
    FactorFisher,
    UpdateFisher,
    _Accumulator,
    _sample_classes,
    accumulate,
    draw,
    estimate,
    save_fisher,
)
from lrcl.model import expand_head, forward, label_rows
from lrcl.tasks import Dataset, StreamConfig, concat_datasets
from lrcl.tensor import RngState, _softmax_rows, load_state
from lrcl.trainer import TrainConfig, pretrain, run_continual

from conftest import backprop, make_batch, make_net


def persample_loglik_grads(net, x_row: np.ndarray, label: int):
    """Gradient of log p(label | x) for one sample, via the batch backward.

    backward writes the gradient of the mean negative log-likelihood;
    with one sample that is minus the log-likelihood gradient.
    """
    cache = forward(net, x_row)
    _, grads = backprop(net, cache, label_rows(net.head, [label]))
    d_dw = [-g for g in grads.d_w]
    d_a = [-g for g in grads.d_a]
    d_b = [-g for g in grads.d_b]
    return d_dw, d_a, d_b


def empirical_oracle(net, data: Dataset):
    """Mean of squared per-sample gradients, one slow backward per sample."""
    sums = [np.zeros((l.d_out, l.d_in)) for l in net.layers]
    for k in range(data.n):
        x_row = data.X[k:k + 1]
        d_dw, _, _ = persample_loglik_grads(net, x_row, data.y[k])
        for i, g in enumerate(d_dw):
            sums[i] += g * g
    return [s / data.n for s in sums]


def exact_oracle(net, data: Dataset):
    """Class sum weighted by the predictive distribution, per sample."""
    sums = [np.zeros((l.d_out, l.d_in)) for l in net.layers]
    for k in range(data.n):
        x_row = data.X[k:k + 1]
        logits = forward(net, x_row).logits
        probs = _softmax_rows(logits)[0]
        for c_idx, cid in enumerate(net.head.class_ids):
            d_dw, _, _ = persample_loglik_grads(net, x_row, cid)
            for i, g in enumerate(d_dw):
                sums[i] += probs[c_idx] * (g * g)
    return [s / data.n for s in sums]


def make_dataset(net, n, seed):
    x, labels = make_batch(net, n, seed)
    return Dataset(x, labels)


class TestEstimatorKind:
    def test_parse(self):
        assert EstimatorKind.parse("empirical").name == "empirical"
        assert EstimatorKind.parse("exact_subset(500)").subset == 500
        with pytest.raises(ParameterError):
            EstimatorKind.parse("bogus")
        with pytest.raises(ParameterError):
            EstimatorKind("exact_subset", 0)

    def test_draws(self):
        assert not EstimatorKind("empirical").draws
        assert not EstimatorKind("exact").draws
        assert EstimatorKind("sampled").draws
        assert EstimatorKind("exact_subset", 3).draws

    @pytest.mark.parametrize("kind", [EstimatorKind("sampled"), EstimatorKind("exact_subset", 2)])
    def test_drawing_kinds_need_an_rng(self, kind):
        net = make_net((4, 4), rank=1, seed=3)
        with pytest.raises(ParameterError):
            estimate(net, make_dataset(net, 4, seed=4), kind)


class TestEmpirical:
    def test_single_sample_is_squared_gradient(self):
        net = make_net((5, 5), rank=2, seed=1, nonzero_adapter=True)
        data = make_dataset(net, 1, seed=2)
        f = estimate(net, data, EstimatorKind("empirical"))
        d_dw, _, _ = persample_loglik_grads(net, data.X, data.y[0])
        for layer_f, g in zip(f.fdw, d_dw):
            assert np.allclose(layer_f, g * g, rtol=0, atol=1e-12)

    def test_matches_persample_loop_oracle(self):
        net = make_net((6, 5, 4), rank=2, seed=3, nonzero_adapter=True)
        data = make_dataset(net, 12, seed=4)
        f = estimate(net, data, EstimatorKind("empirical"))
        oracle = empirical_oracle(net, data)
        for layer_f, o in zip(f.fdw, oracle):
            assert np.allclose(layer_f, o, rtol=0, atol=1e-10)

    def test_nonnegative(self):
        net = make_net((6, 6), rank=2, seed=5, nonzero_adapter=True)
        data = make_dataset(net, 8, seed=6)
        f = estimate(net, data, EstimatorKind("empirical"))
        assert all((m >= 0).all() for m in f.fdw)


class TestExact:
    def test_matches_class_weighted_oracle(self):
        net = make_net((5, 5, 5), rank=2, seed=7, class_ids=[0, 1, 2, 3], nonzero_adapter=True)
        data = make_dataset(net, 9, seed=8)
        f = estimate(net, data, EstimatorKind("exact"))
        oracle = exact_oracle(net, data)
        for layer_f, o in zip(f.fdw, oracle):
            assert np.allclose(layer_f, o, rtol=0, atol=1e-10)

    def test_two_class_half_half(self):
        # a zeroed head gives p = (0.5, 0.5) for every sample, so the exact
        # Fisher is the plain average of both classes' squared gradients
        net = make_net((4, 4), rank=1, seed=9, class_ids=[0, 1], nonzero_adapter=True)
        net.head.V[:] = 0.0
        net.head.b[:] = 0.0
        data = make_dataset(net, 6, seed=10)
        logits = forward(net, data.X).logits
        assert np.allclose(_softmax_rows(logits), 0.5, atol=0)

        f = estimate(net, data, EstimatorKind("exact"))
        sums = [np.zeros((l.d_out, l.d_in)) for l in net.layers]
        for k in range(data.n):
            x_row = data.X[k:k + 1]
            for cid in (0, 1):
                d_dw, _, _ = persample_loglik_grads(net, x_row, cid)
                for i, g in enumerate(d_dw):
                    sums[i] += 0.5 * (g * g)
        for layer_f, s in zip(f.fdw, sums):
            assert np.allclose(layer_f, s / data.n, rtol=0, atol=1e-12)


class TestExactSubset:
    def test_subset_larger_than_data_equals_exact(self):
        net = make_net((5, 5), rank=2, seed=11, nonzero_adapter=True)
        data = make_dataset(net, 7, seed=12)
        full = estimate(net, data, EstimatorKind("exact"))
        sub = estimate(net, data, EstimatorKind("exact_subset", 50), RngState(13))
        for a, b in zip(full.fdw, sub.fdw):
            assert np.array_equal(a, b)

    def test_subset_draw_is_seeded_and_without_replacement(self):
        net = make_net((5, 5), rank=2, seed=14, nonzero_adapter=True)
        data = make_dataset(net, 20, seed=15)
        f1 = estimate(net, data, EstimatorKind("exact_subset", 6), RngState(77))
        f2 = estimate(net, data, EstimatorKind("exact_subset", 6), RngState(77))
        for a, b in zip(f1.fdw, f2.fdw):
            assert np.array_equal(a, b)
        # oracle: replay the draw, then exact on exactly that subset
        idx = sorted(RngState(77).sample_indices(data.n, 6))
        assert len(set(idx)) == 6
        expected = estimate(net, data.subset(idx), EstimatorKind("exact"))
        for a, b in zip(f1.fdw, expected.fdw):
            assert np.array_equal(a, b)


class TestSampled:
    def test_matches_replayed_draws(self):
        net = make_net((5, 5), rank=2, seed=16, nonzero_adapter=True)
        data = make_dataset(net, 10, seed=17)
        f = estimate(net, data, EstimatorKind("sampled"), RngState(55))

        logits = forward(net, data.X).logits
        probs = _softmax_rows(logits)
        rng = RngState(55)
        drawn = []
        for k in range(data.n):
            u = rng.next_float()
            acc = 0.0
            pick = probs.shape[1] - 1
            for c in range(probs.shape[1]):
                acc += probs[k, c]
                if u < acc:
                    pick = c
                    break
            drawn.append(net.head.class_ids[pick])
        oracle = empirical_oracle(net, Dataset(data.X, drawn))
        for layer_f, o in zip(f.fdw, oracle):
            assert np.allclose(layer_f, o, rtol=0, atol=1e-10)

    def test_sample_classes_match_loop_oracle(self):
        gen = np.random.default_rng(21)
        for case in range(200):
            n, c = int(gen.integers(1, 12)), int(gen.integers(1, 7))
            probs = _softmax_rows(gen.normal(scale=float(gen.choice([0.1, 3.0, 40.0])), size=(n, c)))
            if case % 5 == 0:
                probs *= 0.9  # rows summing below 1 exercise the last-class fallback
            got = _sample_classes(probs, RngState(case).floats(n))
            rng = RngState(case)
            want = []
            for k in range(n):
                u = rng.next_float()
                acc = 0.0
                pick = c - 1
                for j in range(c):
                    acc += probs[k, j]
                    if u < acc:
                        pick = j
                        break
                want.append(pick)
            assert got.tolist() == want

    def test_estimators_agree_on_deterministic_predictions(self):
        # logits so far apart the softmax is exactly one-hot: every variant
        # sees a zero gradient and returns an exactly zero Fisher
        net = make_net((4, 4), rank=1, seed=18, class_ids=[0, 1])
        net.head.V[:] = 0.0
        net.head.b[:] = np.array([[2000.0], [0.0]])
        data = Dataset(make_batch(net, 5, seed=19)[0], [0] * 5)

        f_emp = estimate(net, data, EstimatorKind("empirical"))
        f_ex = estimate(net, data, EstimatorKind("exact"))
        f_sam = estimate(net, data, EstimatorKind("sampled"), RngState(1))
        for a, b, c in zip(f_emp.fdw, f_ex.fdw, f_sam.fdw):
            assert np.array_equal(a, b)
            assert np.array_equal(b, c)
            assert np.all(a == 0.0)


class TestFactorSpace:
    def test_fb_zero_when_adapter_zero(self):
        net = make_net((5, 5), rank=2, seed=20)  # A = 0 after reset
        data = make_dataset(net, 6, seed=21)
        f = estimate(net, data, EstimatorKind("empirical"), importance=FactorFisher)
        assert all(np.all(m == 0.0) for m in f.fb)

    def test_shapes(self):
        net = make_net((6, 5, 4), rank=2, seed=22, nonzero_adapter=True)
        data = make_dataset(net, 4, seed=23)
        f = estimate(net, data, EstimatorKind("empirical"), importance=FactorFisher)
        for layer, fa, fb in zip(net.layers, f.fa, f.fb):
            assert fa.shape == (layer.d_out, layer.rank)
            assert fb.shape == (layer.rank, layer.d_in)

    def test_fa_fb_match_loop_oracle(self):
        net = make_net((5, 5), rank=2, seed=24, nonzero_adapter=True)
        data = make_dataset(net, 8, seed=25)
        f = estimate(net, data, EstimatorKind("empirical"), importance=FactorFisher)
        sums_a = [np.zeros((l.d_out, l.rank)) for l in net.layers]
        sums_b = [np.zeros((l.rank, l.d_in)) for l in net.layers]
        for k in range(data.n):
            x_row = data.X[k:k + 1]
            _, d_a, d_b = persample_loglik_grads(net, x_row, data.y[k])
            for i in range(len(net.layers)):
                sums_a[i] += d_a[i] * d_a[i]
                sums_b[i] += d_b[i] * d_b[i]
        for i in range(len(net.layers)):
            assert np.allclose(f.fa[i], sums_a[i] / data.n, rtol=0, atol=1e-10)
            assert np.allclose(f.fb[i], sums_b[i] / data.n, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("kind", [EstimatorKind("empirical"), EstimatorKind("exact"), EstimatorKind("exact_subset", 5), EstimatorKind("sampled")])
    def test_every_estimator_matches_loop_oracle(self, kind):
        # fdw is the plain estimate's bits; fa and fb are the per-sample
        # squares of d_a and d_b, weighted as the estimator weighs its terms
        net = make_net((5, 4, 3), rank=2, seed=28, nonzero_adapter=True)
        data = make_dataset(net, 8, seed=29)
        f = estimate(net, data, kind, RngState(30), importance=FactorFisher)
        assert all(np.array_equal(a, b) for a, b in zip(f.fdw, estimate(net, data, kind, RngState(30)).fdw))
        draws = draw(kind, data.n, RngState(30))
        rows = list(draws) if kind.name == "exact_subset" else range(data.n)
        probs = _softmax_rows(forward(net, data.X).logits)
        ids = net.head.class_ids
        terms = []  # (row, class id, weight)
        for k in rows:
            if kind.name == "empirical":
                terms.append((k, data.y[k], 1.0))
            elif kind.name == "sampled":
                terms.append((k, ids[_sample_classes(probs[k : k + 1], draws[k : k + 1])[0]], 1.0))
            else:
                terms += [(k, cid, probs[k, c]) for c, cid in enumerate(ids)]
        sums_a = [np.zeros((l.d_out, l.rank)) for l in net.layers]
        sums_b = [np.zeros((l.rank, l.d_in)) for l in net.layers]
        for k, cid, weight in terms:
            _, d_a, d_b = persample_loglik_grads(net, data.X[k : k + 1], cid)
            for i in range(len(net.layers)):
                sums_a[i] += weight * d_a[i] * d_a[i]
                sums_b[i] += weight * d_b[i] * d_b[i]
        for i in range(len(net.layers)):
            assert np.allclose(f.fa[i], sums_a[i] / len(rows), rtol=0, atol=1e-10)
            assert np.allclose(f.fb[i], sums_b[i] / len(rows), rtol=0, atol=1e-10)


def exact_per_class_loop(net, data: Dataset):
    """The exact estimator, update and factor space, as a plain class loop.

    Each class recomputes the tanh slopes 1 - h^2, the squared inputs h*h
    and (h B^T)^2 in the operation order the estimator uses, so the
    estimator's hoisting of them must leave every bit unchanged.
    """
    cache = forward(net, data.X)
    probs = _softmax_rows(cache.logits)
    n_layers = len(net.layers)
    sdw = [np.zeros((l.d_out, l.d_in)) for l in net.layers]
    sa = [np.zeros((l.d_out, l.rank)) for l in net.layers]
    sb = [np.zeros((l.rank, l.d_in)) for l in net.layers]
    for c in range(probs.shape[1]):
        g = -probs.copy()
        g[:, c] += 1.0
        g *= np.sqrt(probs[:, c])[:, None]
        d_h = g @ net.head.V
        dzs = [None] * n_layers
        for k in range(n_layers - 1, -1, -1):
            layer = net.layers[k]
            if k == n_layers - 1:
                d_z = d_h
            else:
                h_out = cache.inputs[k + 1]
                d_z = h_out * h_out
                np.subtract(1.0, d_z, out=d_z)
                d_z *= d_h
            dzs[k] = d_z
            if k > 0:
                d_h = d_z @ layer.W
                d_h += (d_z @ layer.A) @ layer.B
        for k, layer in enumerate(net.layers):
            dz2 = dzs[k] * dzs[k]
            h = cache.inputs[k]
            sdw[k] += dz2.T @ (h * h)
            bh = h @ layer.B.T
            sa[k] += dz2.T @ (bh * bh)
            dza = dzs[k] @ layer.A
            sb[k] += (dza * dza).T @ (h * h)
    return tuple([m / data.n for m in sums] for sums in (sdw, sa, sb))


class TestExactHoist:
    """The exact estimator equals the per-class loop that recomputes everything, bit for bit."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @example(widths=[16, 48, 48], rank=4, n=60, n_classes=8, seed=3)  # the drift workload's layers
    @given(
        widths=st.lists(st.integers(4, 7), min_size=2, max_size=4),
        rank=st.integers(1, 4),
        n=st.integers(1, 12),
        n_classes=st.integers(2, 5),
        seed=st.integers(0, 2**16),
    )
    def test_estimates_equal_the_per_class_loop(self, widths, rank, n, n_classes, seed):
        net = make_net(widths, rank, seed, class_ids=list(range(n_classes)), nonzero_adapter=True)
        data = make_dataset(net, n, seed + 1)
        fdw, fa, fb = exact_per_class_loop(net, data)
        plain = estimate(net, data, EstimatorKind("exact"))
        factor = estimate(net, data, EstimatorKind("exact"), importance=FactorFisher)
        assert type(plain) is UpdateFisher
        for got, want in [(plain.fdw, fdw), (factor.fdw, fdw), (factor.fa, fa), (factor.fb, fb)]:
            assert len(got) == len(want) == len(widths) - 1
            assert all(np.array_equal(x, y) for x, y in zip(got, want))


class TestScaleLaw:
    def test_scaling_gradients_scales_fisher_quadratically(self):
        net = make_net((5, 5), rank=2, seed=26, nonzero_adapter=True)
        data = make_dataset(net, 6, seed=27)
        cache = forward(net, data.X)
        probs = _softmax_rows(cache.logits)
        rows = np.array([net.head.row_of(y) for y in data.y])
        g = -probs.copy()
        g[np.arange(data.n), rows] += 1.0

        acc = _Accumulator(net, cache)
        for s1, s3 in zip(acc.term(g), acc.term(3.0 * g)):
            assert np.allclose(s3, 9.0 * s1, rtol=1e-12, atol=1e-14)


class TestAccumulate:
    def _pair(self, seed):
        net = make_net((4, 4), rank=1, seed=seed, nonzero_adapter=True)
        d1 = make_dataset(net, 5, seed=seed + 1)
        d2 = make_dataset(net, 5, seed=seed + 2)
        f1 = estimate(net, d1, EstimatorKind("empirical"))
        f2 = estimate(net, d2, EstimatorKind("empirical"))
        return net, f1, f2

    def test_gamma_zero_returns_new(self):
        net, f1, f2 = self._pair(30)
        out = accumulate(f1, f2, 0.0)
        for a, b in zip(out.fdw, f2.fdw):
            assert np.array_equal(a, b)

    def test_gamma_one_running_sum(self):
        net, f1, f2 = self._pair(33)
        zero = UpdateFisher.full(net, 0.0)
        out = accumulate(accumulate(zero, f1, 1.0), f2, 1.0)
        for o, a, b in zip(out.fdw, f1.fdw, f2.fdw):
            assert np.array_equal(o, a + b)

    def test_default_decay_value(self):
        net, f1, f2 = self._pair(36)
        out = accumulate(f1, f2, 0.9)
        for o, a, b in zip(out.fdw, f1.fdw, f2.fdw):
            assert np.allclose(o, 0.9 * a + b, rtol=0, atol=1e-15)

    def test_linear_in_new_homogeneous_in_cum(self):
        net, f1, f2 = self._pair(39)
        scaled_new = UpdateFisher([2.0 * m for m in f2.fdw])
        out = accumulate(f1, scaled_new, 0.5)
        for o, a, b in zip(out.fdw, f1.fdw, f2.fdw):
            assert np.allclose(o, 0.5 * a + 2.0 * b, rtol=0, atol=1e-15)
        scaled_cum = UpdateFisher([3.0 * m for m in f1.fdw])
        out2 = accumulate(scaled_cum, f2, 0.5)
        for o, a, b in zip(out2.fdw, f1.fdw, f2.fdw):
            assert np.allclose(o, 1.5 * a + b, rtol=0, atol=1e-15)

    def test_inputs_not_mutated(self):
        net, f1, f2 = self._pair(42)
        snap1 = [m.copy() for m in f1.fdw]
        snap2 = [m.copy() for m in f2.fdw]
        accumulate(f1, f2, 0.9)
        for m, s in zip(f1.fdw, snap1):
            assert np.array_equal(m, s)
        for m, s in zip(f2.fdw, snap2):
            assert np.array_equal(m, s)

    def test_gamma_out_of_range(self):
        net, f1, f2 = self._pair(45)
        with pytest.raises(ParameterError):
            accumulate(f1, f2, 1.5)

    def test_types_do_not_mix(self):
        # a factor-space sum would drop its fa and fb blocks if it took an update-space estimate
        net, _, f2 = self._pair(54)
        with pytest.raises(ParameterError, match="cannot add a UpdateFisher to a FactorFisher"):
            accumulate(FactorFisher.full(net, 0.0), f2, 0.9)
        with pytest.raises(ParameterError, match="cannot add a FactorFisher to a UpdateFisher"):
            accumulate(f2, FactorFisher.full(net, 0.0), 0.9)

    def test_shape_mismatch(self):
        net, f1, _ = self._pair(48)
        other = make_net((6, 6), rank=1, seed=50, nonzero_adapter=True)
        f_other = estimate(other, make_dataset(other, 3, seed=51), EstimatorKind("empirical"))
        with pytest.raises(ShapeError):
            accumulate(f1, f_other, 0.5)


class TestPrecomputed:
    def test_uniform_variant_all_ones(self):
        net = make_net((5, 4), rank=2, seed=52)
        f = UpdateFisher.full(net, 1.0)
        assert all(np.all(m == 1.0) for m in f.fdw)

    def test_dataset_variant_equals_estimate_on_concat(self):
        # a precomputed_dataset run's fixed Fisher: estimate on the union of
        # every task's training data, at the base with a head over all classes
        stream = StreamConfig(num_tasks=2, classes_per_task=2, dim=5, n_train=4, n_test=2, pretrain_classes=0).build_stream(53)
        cfg = TrainConfig(strategy="precomputed_dataset", estimator="sampled", pretrain_mode="random", hidden_dims=(5,), rank=2, epochs=1, batch_size=4, seed=54)
        fixed = []
        run_continual(cfg, stream, after_task=lambda t, learner: fixed.append(learner.f_cum))
        probe = pretrain(cfg, stream)[0]
        rng = RngState(cfg.seed).derive("precompute")
        expand_head(probe, [0, 1, 2, 3], rng)
        direct = estimate(probe, concat_datasets(stream.all_train()), cfg.estimator, rng)
        assert fixed[0] is fixed[1] and type(fixed[0]) is UpdateFisher
        for a, b in zip(fixed[0].fdw, direct.fdw):
            assert np.array_equal(a, b)


class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        net = make_net((5, 4), rank=2, seed=60, nonzero_adapter=True)
        data = make_dataset(net, 5, seed=61)
        f = estimate(net, data, EstimatorKind("empirical"), importance=FactorFisher)
        save_fisher(f, tmp_path / "snap", kind_label="empirical", task_index=2)
        back, meta = load_state(tmp_path / "snap")
        assert sorted(back) == sorted(FactorFisher.names(1)) == ["layer0_fa", "layer0_fb", "layer0_fdw"]
        for name, m in f.arrays().items():
            assert np.array_equal(m, back[name])
        assert meta == {"estimator": "empirical", "factor_space": True, "gamma_history": [], "layers": 1, "task_index": 2}

    def test_flat_is_the_update_space_entries(self):
        # diagnose compares flat(): a factor-space Fisher gives its fdw, bit for bit an update-space estimate's
        net = make_net((3, 2), rank=1, seed=62, nonzero_adapter=True)
        data = make_dataset(net, 5, seed=63)
        flat = estimate(net, data, EstimatorKind("empirical"), importance=FactorFisher).flat()
        assert flat.shape == (6,)
        assert flat.tobytes() == estimate(net, data, EstimatorKind("empirical")).flat().tobytes()


def test_no_module_imports_a_private_fisher_name():
    # fisher's public names are its interface: a draw, a pass, the importance types
    src = Path(__file__).resolve().parents[1] / "src" / "lrcl"
    private = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, "fisher"), (0, "lrcl.fisher")):
                private += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert private == []
