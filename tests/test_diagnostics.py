"""Drift metrics against closed forms and a small tracked run."""

import os
import signal
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrcl.diagnostics as diagnostics_mod
import lrcl.trainer as trainer_mod
from lrcl.diagnostics import (
    REGIMES,
    DriftRow,
    _average_ranks,
    _measure,
    cosine_sim,
    norm_ratio,
    spearman,
    track_fisher_drift,
)
from lrcl.errors import MetricError, NumericalError, ParameterError
from lrcl.fisher import EstimatorKind, UpdateFisher, draw, estimate
from lrcl.tasks import Dataset, StreamConfig, concat_datasets, gen_gaussian_stream
from lrcl.tensor import RngState
from lrcl.trainer import ContinualLearner, TrainConfig, run_continual

from conftest import make_batch, make_net, mat, uniform


def small_fisher(seed, shape=(4, 5)):
    rng = RngState(seed)
    vals = [rng.next_float() + 0.01 for _ in range(shape[0] * shape[1])]
    return UpdateFisher([mat(shape[0], shape[1], vals)])


class TestNormRatio:
    def test_identity(self):
        f = small_fisher(1)
        assert norm_ratio(f, f) == 1.0

    def test_homogeneity(self):
        f = small_fisher(2)
        doubled = UpdateFisher([2.0 * m for m in f.fdw])
        assert abs(norm_ratio(doubled, f) - 2.0) < 1e-12

    def test_matches_flat_vector_oracle(self):
        a = small_fisher(3)
        b = small_fisher(4)
        va, vb = a.flat(), b.flat()
        want = np.sqrt((va * va).sum()) / np.sqrt((vb * vb).sum())
        assert abs(norm_ratio(a, b) - want) < 1e-12

    def test_zero_baseline_rejected(self):
        z = UpdateFisher([np.zeros((2, 2))])
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
        x = np.array([uniform(rng, 0, 10) for _ in range(30)])
        y = np.array([uniform(rng, 0, 10) for _ in range(30)])
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
        v = np.array([uniform(rng, -1, 1) for _ in range(20)])
        w = np.array([uniform(rng, -1, 1) for _ in range(20)])
        assert abs(cosine_sim(3.0 * v, w) - cosine_sim(v, w)) < 1e-12
        assert abs(cosine_sim(v, 3.0 * v) - 1.0) < 1e-12

    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_matches_dot_norm_oracle(self):
        rng = RngState(9)
        v = np.array([uniform(rng, -1, 1) for _ in range(15)])
        w = np.array([uniform(rng, -1, 1) for _ in range(15)])
        want = float(np.dot(v, w)) / (np.linalg.norm(v) * np.linalg.norm(w))
        assert abs(cosine_sim(v, w) - want) < 1e-12

    def test_self_similarity_exact(self):
        rng = RngState(10)
        v = np.array([uniform(rng, 0, 1) for _ in range(33)])
        assert cosine_sim(v, v) == 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(MetricError):
            cosine_sim([0.0, 0.0], [1.0, 2.0])

    def test_nonnegative_inputs_give_nonnegative_cosine(self):
        net = make_net((5, 5), rank=2, seed=11, nonzero_adapter=True)
        x, labels = make_batch(net, 6, seed=12)
        from lrcl.tasks import Dataset

        f1 = estimate(net, Dataset(x, labels), EstimatorKind("empirical"))
        f2 = estimate(net, Dataset(x, list(reversed(labels))), EstimatorKind("empirical"))
        c = cosine_sim(f1.flat(), f2.flat())
        assert 0.0 <= c <= 1.0


class TestTrackFisherDrift:
    @staticmethod
    def _setup(seed=0, estimator="empirical", num_tasks=3, **overrides):
        stream = gen_gaussian_stream(StreamConfig(
            num_tasks=num_tasks, classes_per_task=2, dim=6, radius=3.0, sigma=0.6,
            n_train=24, n_test=12, pretrain_classes=4, pretrain_n=24,
        ), seed)
        cfg = TrainConfig(
            seed=seed, epochs=3, batch_size=12, lr=0.05, head_lr=1e-6, epsilon=0.1,
            hidden_dims=(8, 8), rank=2, pretrain_epochs=4, pretrain_lr=0.005, lam=1.0,
            estimator=estimator, **overrides,
        )
        return cfg, stream

    def _run(self, seed=0, estimator="empirical"):
        cfg, stream = self._setup(seed, estimator)
        return track_fisher_drift(cfg, stream, [0, 1])

    @pytest.mark.parametrize("estimator,strategy", [("sampled", "deltaw"), ("exact", "separate")])
    def test_trains_the_run_continual_trajectory(self, estimator, strategy):
        cfg, stream = self._setup(7, estimator, strategy=strategy, shuffle=True)
        assert track_fisher_drift(cfg, stream, [0, 1])[2] == run_continual(cfg, stream).rows

    def test_self_comparison_rows_exact(self):
        rows, _, _ = self._run()
        for r in rows:
            if r.task_trained == r.task_data:
                assert r.norm_ratio == 1.0
                assert r.spearman == 1.0
                assert r.cosine == 1.0

    def test_row_coverage(self):
        rows, _, _ = self._run()
        for regime in REGIMES:
            pairs = {(r.task_trained, r.task_data) for r in rows if r.regime == regime}
            assert pairs == {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)}

    def test_log_ordered_and_consistent(self):
        # every rehearsal_free row in task order, then every rehearsal_based row
        rows, snapshots, acc = self._run()
        assert [(REGIMES.index(r.regime), r.task_trained) for r in rows] == sorted((REGIMES.index(r.regime), r.task_trained) for r in rows)
        assert list(snapshots) == [0, 1]
        assert [len(row) for row in acc] == [1, 2, 3]

    def test_metric_ranges(self):
        rows, _, _ = self._run()
        assert {r.regime for r in rows} == {"rehearsal_free", "rehearsal_based"}
        for r in rows:
            assert r.norm_ratio >= 0.0
            assert -1.0 <= r.spearman <= 1.0
            assert 0.0 <= r.cosine <= 1.0

    @pytest.mark.parametrize("strategy", ["deltaw", "separate"])
    @pytest.mark.parametrize("estimator", ["empirical", "exact", "exact_subset(5)", "sampled"])
    def test_measuring_worker_equals_serial(self, estimator, strategy):
        cfg, stream = self._setup(7, estimator, strategy=strategy, shuffle=True)
        rows, snapshots, acc = track_fisher_drift(cfg, stream, [0, 1, 2], jobs=1)
        for jobs in (2, 3):
            rows2, snapshots2, acc2 = track_fisher_drift(cfg, stream, [0, 1, 2], jobs=jobs)
            assert rows2 == rows and acc2 == acc
            assert list(snapshots) == list(snapshots2) == [0, 1, 2]
            for i, f in snapshots.items():
                assert f.flat().tobytes() == snapshots2[i].flat().tobytes()
        assert trainer_mod._WORK is None

    @pytest.mark.parametrize("estimator", ["exact", "sampled"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_last_task_submits_a_unit_per_pass(self, monkeypatch, jobs, estimator):
        # every pass is a unit of its own, at every task, the pooled one
        # first; both regimes read the same passes, whether the estimator
        # draws or not
        submitted = []
        real_pool = diagnostics_mod.fork_pool

        @contextmanager
        def counting_pool(workers, work):
            with real_pool(workers, work) as submit:
                yield lambda net, tasks, draws: submitted.append(tasks) or submit(net, tasks, draws)

        def passes(t):
            return ([tuple(range(t + 1))] if t else []) + [(i,) for i in (0, 1, 2) if i <= t]

        monkeypatch.setattr(diagnostics_mod, "fork_pool", counting_pool)
        cfg, stream = self._setup(estimator=estimator, num_tasks=4)
        track_fisher_drift(cfg, stream, [0, 1, 2], jobs=jobs)
        assert submitted == passes(0) + passes(1) + passes(2) + passes(3)

    @pytest.mark.parametrize("jobs,num_tasks,tracked,workers", [
        (64, 3, [0, 1], 7), (2, 3, [0, 1], 2), (64, 4, [0, 1, 2], 12), (64, 1, [], 0), (2, 1, [0], 0), (64, 3, [2], 0),
    ])
    def test_pool_capped_at_its_units(self, monkeypatch, jobs, num_tasks, tracked, workers):
        # one unit per planned pass, and no pool for a single pass; the real
        # pool gets at most 2 workers here
        asked = []
        real_pool = diagnostics_mod.fork_pool

        def recording_pool(n, work):
            asked.append(n)
            return real_pool(min(n, 2), work)

        monkeypatch.setattr(diagnostics_mod, "fork_pool", recording_pool)
        cfg, stream = self._setup(num_tasks=num_tasks)
        rows, _, acc = track_fisher_drift(cfg, stream, tracked, jobs=jobs)
        want, _, want_acc = track_fisher_drift(cfg, stream, tracked)
        assert asked == [workers, 0]
        assert rows == want and acc == want_acc

    def test_serial_run_computes_each_planned_pass_once(self, monkeypatch):
        # jobs = 1 computes a pass when its Fisher is first read: each of the
        # 1 + 3 + 4 + 4 planned passes once, in plan order (pools of 2, 3, 4 tasks)
        sizes = []
        real_pass_means = diagnostics_mod.pass_means

        def counting_pass_means(net, data, kind, draws):
            sizes.append(data.n)
            return real_pass_means(net, data, kind, draws)

        monkeypatch.setattr(diagnostics_mod, "pass_means", counting_pass_means)
        cfg, stream = self._setup(estimator="sampled", num_tasks=4)
        rows, snapshots, _ = track_fisher_drift(cfg, stream, [0, 1, 2], jobs=1)
        n = stream.tasks[0].train.n
        assert sizes == [n] + [n, n, 2 * n] + [n, n, n, 3 * n] + [n, n, n, 4 * n]
        assert len(rows) == 18 and list(snapshots) == [0, 1, 2]

    @pytest.mark.parametrize("estimator", ["empirical", "exact", "exact_subset(5)", "sampled"])
    def test_regimes_share_the_norm_ratio(self, estimator):
        # the regimes differ only in the comparator: task i's re-estimate and
        # snapshot are the same pass for both
        cfg, stream = self._setup(7, estimator, num_tasks=4)
        rows, _, _ = track_fisher_drift(cfg, stream, [0, 1, 2])
        ratios = {regime: {(r.task_trained, r.task_data): r.norm_ratio for r in rows if r.regime == regime} for regime in REGIMES}
        assert len(ratios["rehearsal_based"]) == 9
        assert ratios["rehearsal_based"] == ratios["rehearsal_free"]

    def test_each_tracked_task_measured_once(self):
        cfg, stream = self._setup()
        rows, snapshots, _ = track_fisher_drift(cfg, stream, [0, 0, 1])
        want, want_snapshots, _ = track_fisher_drift(cfg, stream, [0, 1])
        assert rows == want and len(rows) == 10
        assert list(snapshots) == list(want_snapshots) == [0, 1]
        assert track_fisher_drift(cfg, stream, [])[:2] == ([], {})

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_earlier_drift_failure_wins_over_later_training_failure(self, monkeypatch, jobs):
        # for any jobs the parent trains on and fails at task 3; the rows,
        # made in task order after that, raise task 1's drift error in its place
        def degenerate(f_now, f_orig):
            raise MetricError("stand-in degenerate Fisher")

        real_step = ContinualLearner.step

        def step(learner, task):
            if task.id == 3:
                raise NumericalError("stand-in training failure")
            return real_step(learner, task)

        monkeypatch.setattr(diagnostics_mod, "norm_ratio", degenerate)
        monkeypatch.setattr(ContinualLearner, "step", step)
        cfg, stream = self._setup(num_tasks=4)
        with pytest.raises(NumericalError) as info:
            track_fisher_drift(cfg, stream, [0, 1], jobs=jobs)
        assert str(info.value) == "drift of task 0 after task 1: stand-in degenerate Fisher"
        assert trainer_mod._WORK is None

    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        parent = os.getpid()

        def killed_in_worker(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(diagnostics_mod, "_measure", killed_in_worker)
        cfg, stream = self._setup()
        with pytest.raises(BrokenProcessPool):
            track_fisher_drift(cfg, stream, [0, 1], jobs=2)
        assert trainer_mod._WORK is None

    def test_tracked_task_must_exist(self):
        stream = gen_gaussian_stream(StreamConfig(
            num_tasks=2, classes_per_task=2, dim=6, radius=3.0, sigma=0.6,
            n_train=24, n_test=12, pretrain_classes=4, pretrain_n=24,
        ), seed=0)
        cfg = TrainConfig(seed=0, epochs=2, hidden_dims=(8, 8), rank=2, lam=1.0,
                          pretrain_epochs=2, pretrain_lr=0.005, epsilon=0.1, head_lr=1e-6)
        with pytest.raises(ParameterError):
            track_fisher_drift(cfg, stream, [5])


class TestUnits:
    """Each Fisher the tracker reads is a pass of its own, with fisher.estimate's bits."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        hidden=st.sampled_from([17, 19, 33]),
        sizes=st.permutations([13, 17, 24]),
        kind=st.sampled_from(["empirical", "exact", "exact_subset(20)", "sampled"]),
        seed=st.integers(0, 2**16),
    )
    def test_units_equal_standalone_estimates(self, hidden, sizes, kind, seed):
        # at these widths and task sizes a task's rows, taken as a block of a
        # pooled pass, give other bits than a pass over the task alone
        kind = EstimatorKind.parse(kind)
        net = make_net([16, hidden, hidden], 4, seed, class_ids=list(range(6)), nonzero_adapter=True)
        parts = [Dataset(*make_batch(net, n, seed + 1 + j)) for j, n in enumerate(sizes)]
        stream = SimpleNamespace(tasks=[SimpleNamespace(train=part) for part in parts])
        for tasks in [(0,), (1,), (2,), (0, 1, 2)]:
            data = concat_datasets([parts[i] for i in tasks])
            got = UpdateFisher(*_measure(stream, kind, net, tasks, draw(kind, data.n, RngState(seed))))
            want = estimate(net, data, kind, RngState(seed))
            assert all(np.array_equal(x, y) for x, y in zip(got.fdw, want.fdw))


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
            rows, _, _ = track_fisher_drift(cfg, standard_stream(seed), [0])
            r0 = [r for r in rows if r.regime == "rehearsal_free" and r.task_data == 0]
            wins += r0[-1].spearman > r0[-1].cosine
        assert wins >= 4
