"""Acceptance suite: exact oracle checks plus seeded qualitative reproductions.

Every criterion prints one PASS/FAIL line. The quantitative ones pin their
tolerances inline; the qualitative ones (strategy orderings, lambda and
gamma trends, Fisher drift) run the calibrated desk profile on the
standard five-task synthetic stream over five seeds.
"""

import gc
import time
import weakref

import numpy as np
import pytest

import lrcl.trainer as trainer_mod
from lrcl.cli import main as cli_main
from lrcl.diagnostics import cosine_sim, spearman, track_fisher_drift
from lrcl.fisher import EstimatorKind, FisherDiag, accumulate, estimate, zeros_like
from lrcl.metrics import AccuracyMatrix, avg_anytime, plasticity, stability, tradeoff
from lrcl.model import (
    backward,
    backward_wrt_base,
    expand_head,
    forward,
    label_rows,
    merge_and_reset,
    reset_adapter,
)
from lrcl.regularize import (
    divergence_witness,
    penalty_deltaw,
    penalty_separate,
)
from lrcl.tasks import Dataset, standard_stream
from lrcl.tensor import RngState, _softmax_rows
from lrcl.trainer import (
    ContinualLearner,
    desk_profile,
    prepare_base_network,
    pretrain_key,
    run_many,
    train_task,
)

from conftest import make_batch, make_net, mat

SEEDS = (0, 1, 2, 3, 4)
LAMBDA_GRID = (0.0, 1e2, 1e4, 1e6, 1e8)
COMPARISON_LAMBDA = 10.0
STRATEGIES = ("none", "precomputed_dataset", "separate", "deltaw")

# drift diagnostics run shorter tasks with a faster-decaying accumulator so
# the old-task component of the mixture drains visibly within five tasks
DRIFT_OVERRIDES = dict(epochs=20, gamma=0.5, lam=3.0)


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {label}: {status}{suffix}")


def central_diff(f, matrix: np.ndarray, h=1e-5) -> np.ndarray:
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


def grads_close(analytic, fd, rel=1e-5, tiny=1e-8):
    for a, b in zip(np.asarray(analytic).ravel(), np.asarray(fd).ravel()):
        if abs(b) < tiny:
            if abs(a - b) > 1e-6:
                return False
        elif abs(a - b) > rel * max(abs(a), abs(b)):
            return False
    return True


def persample_update_grads(net, x_row, label, use_base=False):
    cache = forward(net, x_row)
    if use_base:
        _, d_w, _, _ = backward_wrt_base(net, cache, label_rows(net.head, [label]))
        return [-g for g in d_w]
    _, grads = backward(net, cache, label_rows(net.head, [label]))
    return [-g for g in grads.d_delta_w]


@pytest.fixture(scope="module")
def campaign():
    """All continual runs the ordering/trend criteria share, one pass."""
    started = time.perf_counter()
    refs = {}
    metrics = {}
    keys = [("none", 0.0, 0.9)]
    keys += [(strategy, COMPARISON_LAMBDA, 0.9) for strategy in ("precomputed_dataset", "separate", "deltaw")]
    keys += [("deltaw", lam, 0.9) for lam in LAMBDA_GRID[1:]]
    keys += [("deltaw", COMPARISON_LAMBDA, 0.0)]
    for seed in SEEDS:
        base_cfg = desk_profile(seed)
        configs = [desk_profile(seed, strategy=strategy, lam=lam, gamma=gamma) for strategy, lam, gamma in keys]
        # one pretrain per seed: every run shares the references' base
        assert all(pretrain_key(cfg) == pretrain_key(base_cfg) for cfg in configs)
        refs[seed], records = run_many(standard_stream(seed), base_cfg, configs, jobs=2)
        for key, rec in zip(keys, records):
            abar, avg = avg_anytime(rec.acc_matrix)
            metrics[(*key, seed)] = {
                "final": abar[-1],
                "stability": stability(rec.acc_matrix),
                "plasticity": plasticity(rec.acc_matrix, refs[seed]),
            }
    return {"refs": refs, "metrics": metrics, "seconds": time.perf_counter() - started}


class TestCriterion1GradientCorrectness:
    def test_all_analytic_gradients_match_finite_differences(self):
        started = time.perf_counter()
        rng = RngState(1001)
        ok = True
        for trial in range(20):
            d = 4 + rng.randint(5)  # d <= 8
            r = 1 + rng.randint(2)  # r <= 2
            net = make_net((d, d, d), rank=r, seed=trial + 50, nonzero_adapter=True)
            x, labels = make_batch(net, 4, seed=trial + 500)

            def task_loss():
                cache = forward(net, x)
                loss, _ = backward(net, cache, label_rows(net.head, labels))
                return loss

            cache = forward(net, x)
            _, grads = backward(net, cache, label_rows(net.head, labels))
            for k, layer in enumerate(net.layers):
                ok &= grads_close(grads.d_a[k], central_diff(task_loss, layer.A))
                ok &= grads_close(grads.d_b[k], central_diff(task_loss, layer.B))
            ok &= grads_close(grads.d_v, central_diff(task_loss, net.head.V))
            ok &= grads_close(grads.d_bias, central_diff(task_loss, net.head.b))

            # penalty gradients, both placements
            As = [l.A for l in net.layers]
            Bs = [l.B for l in net.layers]
            b_inits = [l.B * 0.5 for l in net.layers]
            f_dw = FisherDiag([mat(l.d_out, l.d_in, [rng.next_float() for _ in range(l.d_out * l.d_in)]) for l in net.layers])
            f_sep = FisherDiag(
                [m.copy() for m in f_dw.fdw],
                fa=[mat(l.d_out, l.rank, [rng.next_float() for _ in range(l.d_out * l.rank)]) for l in net.layers],
                fb=[mat(l.rank, l.d_in, [rng.next_float() for _ in range(l.rank * l.d_in)]) for l in net.layers],
            )
            lam = 2.5
            for name, value_fn, pen in (
                ("deltaw", lambda: penalty_deltaw(As, Bs, f_dw, lam).value, penalty_deltaw(As, Bs, f_dw, lam)),
                ("separate", lambda: penalty_separate(As, Bs, b_inits, f_sep, lam).value, penalty_separate(As, Bs, b_inits, f_sep, lam)),
            ):
                for k in range(len(net.layers)):
                    ok &= grads_close(pen.grad_a[k], central_diff(value_fn, As[k]))
                    ok &= grads_close(pen.grad_b[k], central_diff(value_fn, Bs[k]))
        elapsed = time.perf_counter() - started
        report(1, "gradient correctness vs finite differences", ok and elapsed < 30, f"{elapsed:.1f}s")
        assert ok
        assert elapsed < 30


class TestCriterion2UpdateGradientIdentity:
    def test_two_derivations_and_fisher_agree(self):
        ok = True
        for seed in range(10):
            net = make_net((6, 6, 6), rank=2, seed=seed + 80, nonzero_adapter=True)
            x, labels = make_batch(net, 4, seed=seed + 880)
            cache = forward(net, x)
            _, grads = backward(net, cache, label_rows(net.head, labels))
            _, d_w, _, _ = backward_wrt_base(net, cache, label_rows(net.head, labels))
            for k in range(len(net.layers)):
                ok &= bool(np.allclose(grads.d_delta_w[k], d_w[k], rtol=0, atol=1e-12))

            # Fisher assembled from either gradient derivation, per sample
            data = Dataset(x, labels)
            sums_a = [np.zeros((l.d_out, l.d_in)) for l in net.layers]
            sums_b = [np.zeros((l.d_out, l.d_in)) for l in net.layers]
            for i in range(data.n):
                row = data.X[i:i + 1]
                for s, use_base in ((sums_a, False), (sums_b, True)):
                    gs = persample_update_grads(net, row, data.y[i], use_base)
                    for k, g in enumerate(gs):
                        s[k] += g * g
            for a, b in zip(sums_a, sums_b):
                ok &= bool(np.array_equal(a, b))
        report(2, "update-space gradient identity, Fisher exact", ok)
        assert ok


class TestCriterion3PenaltyDivergence:
    def test_witness_and_constructive_factorization(self):
        frac = divergence_witness(RngState(42), (8, 8, 2), 1000)
        witness_ok = frac >= 0.99

        rng = RngState(7)
        A = mat(6, 2, [rng.uniform(-1, 1) for _ in range(12)])
        B = mat(2, 6, [rng.uniform(-1, 1) for _ in range(12)])
        B0 = mat(2, 6, [rng.uniform(-1, 1) for _ in range(12)])
        f = FisherDiag(
            [mat(6, 6, [rng.next_float() for _ in range(36)])],
            fa=[mat(6, 2, [rng.next_float() for _ in range(12)])],
            fb=[mat(2, 6, [rng.next_float() for _ in range(12)])],
        )
        A2 = 2.0 * A
        B2 = 0.5 * B
        v_dw1 = penalty_deltaw([A], [B], f, 3.0).value
        v_dw2 = penalty_deltaw([A2], [B2], f, 3.0).value
        dw_invariant = abs(v_dw1 - v_dw2) <= 1e-10 * max(1.0, abs(v_dw1))
        v_sep1 = penalty_separate([A], [B], [B0], f, 3.0).value
        v_sep2 = penalty_separate([A2], [B2], [B0], f, 3.0).value
        sep_changes = abs(v_sep1 - v_sep2) > 1e-6 * max(1.0, abs(v_sep1))

        ok = witness_ok and dw_invariant and sep_changes
        report(3, "penalty placements diverge", ok, f"witness fraction {frac:.3f}")
        assert witness_ok
        assert dw_invariant
        assert sep_changes


class TestCriterion4OracleEquivalence:
    def test_penalty_and_fisher_loops(self):
        rng = RngState(11)
        # penalty value: vectorized vs elementwise loop
        A = mat(7, 2, [rng.uniform(-1, 1) for _ in range(14)])
        B = mat(2, 7, [rng.uniform(-1, 1) for _ in range(14)])
        F = mat(7, 7, [rng.next_float() for _ in range(49)])
        lam = 3.7
        vec = penalty_deltaw([A], [B], FisherDiag([F]), lam).value
        delta = A @ B
        loop = 0.5 * lam * sum(
            F[i, j] * delta[i, j] ** 2 for i in range(7) for j in range(7)
        )
        pen_ok = abs(vec - loop) <= 1e-12 * max(1.0, abs(loop))

        # empirical Fisher vs per-sample loop
        net = make_net((6, 5, 4), rank=2, seed=90, nonzero_adapter=True)
        x, labels = make_batch(net, 10, seed=91)
        data = Dataset(x, labels)
        f_emp = estimate(net, data, EstimatorKind.empirical())
        sums = [np.zeros((l.d_out, l.d_in)) for l in net.layers]
        for i in range(data.n):
            row = data.X[i:i + 1]
            for k, g in enumerate(persample_update_grads(net, row, data.y[i])):
                sums[k] += g * g
        emp_ok = all(
            np.allclose(m, s / data.n, rtol=0, atol=1e-10) for m, s in zip(f_emp.fdw, sums)
        )

        # exact Fisher vs class-weighted closed-form sum
        f_ex = estimate(net, data, EstimatorKind.exact())
        sums_ex = [np.zeros((l.d_out, l.d_in)) for l in net.layers]
        for i in range(data.n):
            row = data.X[i:i + 1]
            logits = forward(net, row).logits
            probs = _softmax_rows(logits)[0]
            for c_idx, cid in enumerate(net.head.class_ids):
                for k, g in enumerate(persample_update_grads(net, row, cid)):
                    sums_ex[k] += probs[c_idx] * (g * g)
        ex_ok = all(
            np.allclose(m, s / data.n, rtol=0, atol=1e-10) for m, s in zip(f_ex.fdw, sums_ex)
        )

        ok = pen_ok and emp_ok and ex_ok
        report(4, "vectorized paths equal loop oracles", ok)
        assert pen_ok and emp_ok and ex_ok


class TestCriterion5LoopSemantics:
    def test_invariants_of_the_continual_loop(self, monkeypatch):
        from lrcl.tasks import gen_gaussian_stream

        stream = gen_gaussian_stream(
            num_tasks=2, classes_per_task=2, dim=6, radius=3.0, sigma=0.6,
            n_train=24, n_test=12, seed=5, pretrain_classes=4, pretrain_n=24,
        )
        cfg = desk_profile(5, epochs=3, batch_size=12, hidden_dims=(8, 8), rank=2,
                           pretrain_epochs=4, lam=1.0)

        # frozen base through train_task
        net = prepare_base_network(cfg, stream)
        reset_adapter(net, RngState(1))
        expand_head(net, stream.tasks[0].class_ids, RngState(2))
        before = [l.W.copy() for l in net.layers]
        train_task(net, stream.tasks[0].train, None, desk_profile(5, strategy="none", epochs=3, batch_size=12, hidden_dims=(8, 8), rank=2), RngState(3))
        frozen_ok = all(np.array_equal(l.W, b) for l, b in zip(net.layers, before))

        # merge invariance on random nets
        merge_ok = True
        for t in range(20):
            m_net = make_net((8, 8, 8), rank=2, seed=t + 300, nonzero_adapter=True)
            mx, _ = make_batch(m_net, 5, seed=t + 400)
            pre = forward(m_net, mx).logits
            merge_and_reset(m_net, RngState(t + 500))
            post = forward(m_net, mx).logits
            merge_ok &= bool(np.allclose(pre, post, rtol=0, atol=1e-12))

        # accumulation identities, exact
        net2 = make_net((5, 5), rank=2, seed=9, nonzero_adapter=True)
        d1 = Dataset(*make_batch(net2, 6, seed=10))
        d2 = Dataset(*make_batch(net2, 6, seed=11))
        fa = estimate(net2, d1, EstimatorKind.empirical())
        fb = estimate(net2, d2, EstimatorKind.empirical())
        gamma0 = accumulate(fa, fb, 0.0)
        acc_ok = all(np.array_equal(x, y) for x, y in zip(gamma0.fdw, fb.fdw))
        running = accumulate(accumulate(zeros_like(net2), fa, 1.0), fb, 1.0)
        acc_ok &= all(np.array_equal(x, a + b) for x, a, b in zip(running.fdw, fa.fdw, fb.fdw))

        # two-state retention
        captured = []
        original = trainer_mod.fisher_mod.estimate

        def spy(*args, **kwargs):
            out = original(*args, **kwargs)
            captured.append(weakref.ref(out))
            return out

        monkeypatch.setattr(trainer_mod.fisher_mod, "estimate", spy)
        learner = ContinualLearner(prepare_base_network(cfg, stream), cfg)
        task = stream.tasks[0]
        data_ref = weakref.ref(task.train)
        result = learner.step(task)
        del result, task
        stream.tasks.pop(0)
        gc.collect()
        retain_ok = captured[0]() is None and data_ref() is None

        ok = frozen_ok and merge_ok and acc_ok and retain_ok
        report(5, "continual-loop semantics", ok,
               f"frozen={frozen_ok} merge={merge_ok} accum={acc_ok} two-state={retain_ok}")
        assert frozen_ok and merge_ok and acc_ok and retain_ok


class TestCriterion6MetricOracles:
    def test_hand_computed_fixtures(self):
        two = AccuracyMatrix.from_rows([[0.8], [0.4, 0.9]])
        three = AccuracyMatrix.from_rows([[0.8], [0.6, 0.9], [0.4, 0.6, 0.95]])
        ok = abs(stability(two) - 0.5) <= 1e-12
        ok &= abs(stability(three) - (1.0 - 0.5 * (0.5 + 1.0 / 3.0))) <= 1e-12
        abar, avg = avg_anytime(AccuracyMatrix.from_rows([[0.8], [0.6, 0.9]]))
        ok &= abs(avg - 0.775) <= 1e-12
        ok &= abs(plasticity(two, [0.8, 1.0]) - ((0.8 / 0.8) + (0.9 / 1.0)) / 2) <= 1e-12
        diag2 = AccuracyMatrix.from_rows([[0.9], [0.0, 0.8]])
        ok &= abs(plasticity(diag2, [0.9, 1.0]) - 0.9) <= 1e-12
        ok &= abs(tradeoff(1.0, 0.5) - 2.0 / 3.0) <= 1e-12
        ok &= tradeoff(0.7, 0.7) == 0.7

        ok &= spearman([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8
        ok &= spearman([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]) == -1.0
        v = [3.0, 1.0, 4.0, 1.5]
        ok &= spearman(v, v) == 1.0
        ok &= cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0
        ok &= cosine_sim([1.0, 2.0, 2.0], [3.0, 6.0, 6.0]) == 1.0
        report(6, "metric closed forms", ok)
        assert ok


class TestCriterion7StrategyOrdering:
    def test_table_orderings(self, campaign):
        m = campaign["metrics"]
        st_wins = gap_wins = plmax_wins = sep_wins = 0
        for seed in SEEDS:
            none = m[("none", 0.0, 0.9, seed)]
            dw = m[("deltaw", COMPARISON_LAMBDA, 0.9, seed)]
            sep = m[("separate", COMPARISON_LAMBDA, 0.9, seed)]
            pre = m[("precomputed_dataset", COMPARISON_LAMBDA, 0.9, seed)]
            st_wins += dw["stability"] > none["stability"]
            gap_wins += dw["final"] - none["final"] >= 0.05
            plmax_wins += all(none["plasticity"] > o["plasticity"] for o in (dw, sep, pre))
            sep_wins += dw["final"] >= sep["final"]
        within_budget = campaign["seconds"] < 600
        ok = st_wins == 5 and gap_wins >= 4 and plmax_wins == 5 and sep_wins >= 3 and within_budget
        report(7, "strategy ordering", ok,
               f"stability {st_wins}/5, gap {gap_wins}/5, plasticity-max {plmax_wins}/5, "
               f"dw>=sep {sep_wins}/5, campaign {campaign['seconds']:.0f}s")
        assert st_wins == 5
        assert gap_wins >= 4
        assert plmax_wins == 5
        assert sep_wins >= 3
        assert within_budget


class TestCriterion8LambdaTradeoffTrend:
    def test_grid_trends(self, campaign):
        m = campaign["metrics"]
        med_st, med_pl = [], []
        for lam in LAMBDA_GRID:
            key_strategy = "none" if lam == 0.0 else "deltaw"
            vals = [m[(key_strategy, lam, 0.9, seed)] for seed in SEEDS]
            med_st.append(float(np.median([v["stability"] for v in vals])))
            med_pl.append(float(np.median([v["plasticity"] for v in vals])))
        rho_st = spearman(med_st, list(range(len(LAMBDA_GRID))))
        rho_pl = spearman(med_pl, list(range(len(LAMBDA_GRID))))
        within_budget = campaign["seconds"] < 900
        ok = rho_st >= 0.8 and rho_pl <= -0.8 and within_budget
        report(8, "lambda stability/plasticity trend", ok,
               f"stability rho {rho_st:.3f}, plasticity rho {rho_pl:.3f}")
        assert rho_st >= 0.8, med_st
        assert rho_pl <= -0.8, med_pl
        assert within_budget


class TestCriterion9GammaEffect:
    def test_no_accumulation_drops_stability(self, campaign):
        m = campaign["metrics"]
        wins = 0
        for seed in SEEDS:
            st0 = m[("deltaw", COMPARISON_LAMBDA, 0.0, seed)]["stability"]
            st9 = m[("deltaw", COMPARISON_LAMBDA, 0.9, seed)]["stability"]
            wins += st0 < st9
        ok = wins >= 4
        report(9, "gamma accumulation effect", ok, f"{wins}/5 seeds")
        assert wins >= 4


class TestCriterion10FisherDrift:
    def test_drift_trends(self):
        self_ok = True
        noninc_wins = reh_wins = 0
        for seed in SEEDS:
            stream = standard_stream(seed)
            cfg = desk_profile(seed, **DRIFT_OVERRIDES)
            _, rows, _ = track_fisher_drift(cfg, stream, [0, 1, 2], ("rehearsal_free", "rehearsal_based"))
            rows_free = [r for r in rows if r.regime == "rehearsal_free"]
            rows_reh = [r for r in rows if r.regime == "rehearsal_based"]
            for r in rows_free + rows_reh:
                if r.task_trained == r.task_data:
                    self_ok &= r.norm_ratio == 1.0 and r.spearman == 1.0 and r.cosine == 1.0
            free0 = [r for r in rows_free if r.task_data == 0]
            reh0 = [r for r in rows_reh if r.task_data == 0]
            cosines = [r.cosine for r in free0]
            noninc_wins += all(c1 <= c0 + 1e-12 for c0, c1 in zip(cosines, cosines[1:]))
            reh_wins += reh0[-1].cosine >= free0[-1].cosine
        ok = self_ok and noninc_wins >= 4 and reh_wins >= 4
        report(10, "Fisher drift trends", ok,
               f"self-rows exact {self_ok}, cosine non-increasing {noninc_wins}/5, "
               f"rehearsal >= free {reh_wins}/5")
        assert self_ok
        assert noninc_wins >= 4
        assert reh_wins >= 4


class TestCriterion11Determinism:
    def test_repeated_cmd_run_byte_identical(self, tmp_path):
        cfg_text = "\n".join(
            [
                "epochs = 6",
                "lambda = 10.0",
                "epsilon = 0.1",
                "seeds = 3",
            ]
        )
        cfg_path = tmp_path / "det.cfg"
        cfg_path.write_text(cfg_text + "\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        code_a = cli_main(["run", "--config", str(cfg_path), "--out", str(out_a)])
        code_b = cli_main(["run", "--config", str(cfg_path), "--out", str(out_b)])
        matrix_a = (out_a / "accuracy_matrix.csv").read_bytes()
        matrix_b = (out_b / "accuracy_matrix.csv").read_bytes()
        ok = code_a == 0 and code_b == 0 and matrix_a == matrix_b
        report(11, "byte-identical repeated runs", ok)
        assert ok
