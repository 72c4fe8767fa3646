"""Drift metrics against closed forms and a small tracked run."""

import numpy as np
import pytest

from lrcl.diagnostics import (
    REGIMES,
    DriftRow,
    _average_ranks,
    cosine_sim,
    norm_ratio,
    spearman,
    track_fisher_drift,
)
from lrcl.errors import MetricError, ParameterError
from lrcl.fisher import EstimatorKind, FisherDiag, estimate, flatten
from lrcl.tasks import gen_gaussian_stream
from lrcl.tensor import RngState
from lrcl.trainer import TrainConfig

from conftest import make_batch, make_net, mat


def small_fisher(seed, shape=(4, 5)):
    rng = RngState(seed)
    vals = [rng.next_float() + 0.01 for _ in range(shape[0] * shape[1])]
    return FisherDiag([mat(shape[0], shape[1], vals)])


class TestNormRatio:
    def test_identity(self):
        f = small_fisher(1)
        assert norm_ratio(f, f) == 1.0

    def test_homogeneity(self):
        f = small_fisher(2)
        doubled = FisherDiag([2.0 * m for m in f.fdw])
        assert abs(norm_ratio(doubled, f) - 2.0) < 1e-12

    def test_matches_flat_vector_oracle(self):
        a = small_fisher(3)
        b = small_fisher(4)
        va, vb = flatten(a), flatten(b)
        want = np.sqrt((va * va).sum()) / np.sqrt((vb * vb).sum())
        assert abs(norm_ratio(a, b) - want) < 1e-12

    def test_zero_baseline_rejected(self):
        z = FisherDiag([np.zeros((2, 2))])
        with pytest.raises(MetricError):
            norm_ratio(small_fisher(5, (2, 2)), z)


class TestSpearman:
    def test_identical_distinct_entries(self):
        v = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert spearman(v, v) == 1.0

    def test_reversed_is_minus_one(self):
        v = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert spearman(v, v[::-1]) == -1.0

    def test_hand_computed_closed_form(self):
        # d = (0, -1, 1, 0): rho = 1 - 6*2/(4*15) = 0.8
        assert abs(spearman([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-15

    @staticmethod
    def _loop_ranks(v):
        order = np.argsort(v, kind="stable")
        ranks = np.empty(len(v))
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            for k in range(i, j + 1):
                ranks[order[k]] = 0.5 * (i + j) + 1.0
            i = j + 1
        return ranks

    def test_average_ranks_match_loop_oracle(self):
        rng = np.random.default_rng(13)
        cases = [np.zeros(0), np.array([4.0]), np.full(9, 2.5), np.array([0.0, -0.0, 1.0, -0.0])]
        for n in (2, 3, 17, 300):
            cases.append(rng.normal(size=n))
            cases.append(rng.integers(0, 4, size=n).astype(float))  # heavy ties
            cases.append(np.round(rng.exponential(size=n), 1))
        for v in cases:
            assert _average_ranks(v).tobytes() == self._loop_ranks(v).tobytes()

    def test_average_ranks_for_ties(self):
        ranks = _average_ranks(np.array([2.0, 1.0, 2.0, 5.0]))
        assert list(ranks) == [2.5, 1.0, 2.5, 4.0]

    def test_tie_handling_equals_pearson_on_ranks(self):
        rng = RngState(6)
        x = np.array([rng.randint(4) for _ in range(40)], dtype=float)  # heavy ties
        y = np.array([rng.randint(4) for _ in range(40)], dtype=float)
        rx, ry = _average_ranks(x), _average_ranks(y)
        dx, dy = rx - rx.mean(), ry - ry.mean()
        want = float(np.dot(dx, dy) / np.sqrt(np.dot(dx, dx) * np.dot(dy, dy)))
        assert abs(spearman(x, y) - want) < 1e-15

    def test_invariant_under_monotone_transform(self):
        rng = RngState(7)
        x = np.array([rng.uniform(0, 10) for _ in range(30)])
        y = np.array([rng.uniform(0, 10) for _ in range(30)])
        base = spearman(x, y)
        assert spearman(np.exp(x / 5.0), y) == base
        assert spearman(x, y ** 3) == base

    def test_undefined_cases(self):
        with pytest.raises(MetricError):
            spearman([1.0], [1.0])
        with pytest.raises(MetricError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(MetricError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])


class TestCosine:
    def test_scale_invariance(self):
        rng = RngState(8)
        v = np.array([rng.uniform(-1, 1) for _ in range(20)])
        w = np.array([rng.uniform(-1, 1) for _ in range(20)])
        assert abs(cosine_sim(3.0 * v, w) - cosine_sim(v, w)) < 1e-12
        assert abs(cosine_sim(v, 3.0 * v) - 1.0) < 1e-12

    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_matches_dot_norm_oracle(self):
        rng = RngState(9)
        v = np.array([rng.uniform(-1, 1) for _ in range(15)])
        w = np.array([rng.uniform(-1, 1) for _ in range(15)])
        want = float(np.dot(v, w)) / (np.linalg.norm(v) * np.linalg.norm(w))
        assert abs(cosine_sim(v, w) - want) < 1e-12

    def test_self_similarity_exact(self):
        rng = RngState(10)
        v = np.array([rng.uniform(0, 1) for _ in range(33)])
        assert cosine_sim(v, v) == 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(MetricError):
            cosine_sim([0.0, 0.0], [1.0, 2.0])

    def test_nonnegative_inputs_give_nonnegative_cosine(self):
        net = make_net((5, 5), rank=2, seed=11, nonzero_adapter=True)
        x, labels = make_batch(net, 6, seed=12)
        from lrcl.tasks import Dataset

        f1 = estimate(net, Dataset(x, labels), EstimatorKind.empirical())
        f2 = estimate(net, Dataset(x, list(reversed(labels))), EstimatorKind.empirical())
        c = cosine_sim(flatten(f1), flatten(f2))
        assert 0.0 <= c <= 1.0


class TestTrackFisherDrift:
    def _run(self, regimes, seed=0, estimator="empirical"):
        stream = gen_gaussian_stream(
            num_tasks=3, classes_per_task=2, dim=6, radius=3.0, sigma=0.6,
            n_train=24, n_test=12, seed=seed, pretrain_classes=4, pretrain_n=24,
        )
        cfg = TrainConfig(
            seed=seed, epochs=3, batch_size=12, lr=0.05, head_lr=1e-6, epsilon=0.1,
            hidden_dims=(8, 8), rank=2, pretrain_epochs=4, pretrain_lr=0.005, lam=1.0,
            estimator=estimator,
        )
        return track_fisher_drift(cfg, stream, [0, 1], regimes)

    def test_self_comparison_rows_exact(self):
        _, rows, _ = self._run(("rehearsal_free",))
        for r in rows:
            if r.task_trained == r.task_data:
                assert r.norm_ratio == 1.0
                assert r.spearman == 1.0
                assert r.cosine == 1.0

    def test_row_coverage(self):
        _, rows, _ = self._run(("rehearsal_free",))
        pairs = {(r.task_trained, r.task_data) for r in rows}
        assert pairs == {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)}

    def test_log_ordered_and_consistent(self):
        logs, rows, acc = self._run(("rehearsal_based",))
        log = logs["rehearsal_based"]
        trained = [t for t, _, _ in log.entries]
        assert trained == sorted(trained)
        assert log.regime == "rehearsal_based"
        assert acc.complete

    def test_metric_ranges(self):
        _, rows, _ = self._run(("rehearsal_free", "rehearsal_based"))
        assert {r.regime for r in rows} == {"rehearsal_free", "rehearsal_based"}
        for r in rows:
            assert r.norm_ratio >= 0.0
            assert -1.0 <= r.spearman <= 1.0
            assert 0.0 <= r.cosine <= 1.0

    def test_same_training_trajectory_in_both_regimes(self):
        _, _, acc_free = self._run(("rehearsal_free",))
        _, _, acc_reh = self._run(("rehearsal_based",))
        assert acc_free.rows == acc_reh.rows

    @pytest.mark.parametrize("estimator", ["empirical", "sampled", "exact_subset(5)"])
    def test_joint_run_equals_one_run_per_regime(self, estimator):
        # each regime replays its own draws, so tracking both at once changes
        # neither regime's rows, logs or accuracies
        logs, rows, acc = self._run(REGIMES, estimator=estimator)
        assert [r.regime for r in rows] == sorted((r.regime for r in rows), key=REGIMES.index)
        for regime in REGIMES:
            logs_one, rows_one, acc_one = self._run((regime,), estimator=estimator)
            assert rows_one == [r for r in rows if r.regime == regime]
            assert acc_one.rows == acc.rows
            for (t, i, f), (t1, i1, f1) in zip(logs[regime].entries, logs_one[regime].entries, strict=True):
                assert (t, i) == (t1, i1)
                assert flatten(f).tobytes() == flatten(f1).tobytes()

    def test_unknown_regime_rejected(self):
        with pytest.raises(ParameterError):
            self._run(("replay",))

    @pytest.mark.parametrize("regimes", [(), ("rehearsal_free", "rehearsal_free"), "rehearsal_free"])
    def test_empty_repeated_or_bare_regimes_rejected(self, regimes):
        with pytest.raises(ParameterError):
            self._run(regimes)

    def test_tracked_task_must_exist(self):
        stream = gen_gaussian_stream(
            num_tasks=2, classes_per_task=2, dim=6, radius=3.0, sigma=0.6,
            n_train=24, n_test=12, seed=0, pretrain_classes=4, pretrain_n=24,
        )
        cfg = TrainConfig(seed=0, epochs=2, hidden_dims=(8, 8), rank=2, lam=1.0,
                          pretrain_epochs=2, pretrain_lr=0.005, epsilon=0.1, head_lr=1e-6)
        with pytest.raises(ParameterError):
            track_fisher_drift(cfg, stream, [5])


class TestSeededTrends:
    """Directional reproductions; configs and pass bars documented inline."""

    def test_spearman_declines_more_slowly_than_cosine(self):
        # narrow backbone, empirical Fisher, moderate pinning: the rank
        # ordering of importances outlives their direction in >= 4/5 seeds
        from lrcl.tasks import standard_stream

        wins = 0
        for seed in range(5):
            cfg = TrainConfig(seed=seed, lam=3.0, gamma=0.9, epsilon=0.1,
                              hidden_dims=(16, 16), epochs=30)
            _, rows, _ = track_fisher_drift(cfg, standard_stream(seed), [0], ("rehearsal_free",))
            r0 = [r for r in rows if r.task_data == 0]
            wins += r0[-1].spearman > r0[-1].cosine
        assert wins >= 4
