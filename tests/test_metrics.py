"""Metric formulas against hand-computed fixtures."""

import pytest

from lrcl.errors import MetricError, ParameterError, StateError
from lrcl.metrics import avg_anytime, plasticity, stability, tradeoff


class TestAccuracyMatrix:
    """The rows every metric reads: row t holds t + 1 accuracies in [0, 1]."""

    def test_row_lengths_enforced(self):
        with pytest.raises(StateError):
            avg_anytime([[0.5], [0.5]])  # row 1 needs two entries

    def test_range_enforced(self):
        with pytest.raises(ParameterError):
            avg_anytime([[1.5]])

    def test_no_rows_rejected(self):
        with pytest.raises(ParameterError):
            avg_anytime([])

    def test_stability_and_plasticity_check_the_rows_too(self):
        for metric in (stability, lambda rows: plasticity(rows, [1.0, 1.0])):
            with pytest.raises(StateError):
                metric([[0.5], [0.5]])
            with pytest.raises(ParameterError):
                metric([[0.5], [0.5, 1.5]])


class TestAvgAnytime:
    def test_all_ones(self):
        m = [[1.0], [1.0, 1.0], [1.0, 1.0, 1.0]]
        abar, avg = avg_anytime(m)
        assert abar == [1.0, 1.0, 1.0]
        assert avg == 1.0

    def test_hand_computed_two_tasks(self):
        m = [[0.8], [0.6, 0.9]]
        abar, avg = avg_anytime(m)
        assert abs(abar[0] - 0.8) < 1e-15
        assert abs(abar[1] - 0.75) < 1e-15
        assert abs(avg - 0.775) < 1e-15

    def test_single_task_degenerate(self):
        m = [[0.7]]
        abar, avg = avg_anytime(m)
        assert avg == 0.7

    def test_monotone_in_entries(self):
        base = [[0.5], [0.5, 0.5], [0.5, 0.5, 0.5]]
        _, avg0 = avg_anytime(base)
        for t in range(3):
            for i in range(t + 1):
                bumped = [list(r) for r in base]
                bumped[t][i] = 0.9
                _, avg1 = avg_anytime(bumped)
                assert avg1 > avg0


class TestStability:
    def test_no_forgetting_is_one(self):
        m = [[0.8], [0.8, 0.9], [0.8, 0.9, 0.7]]
        assert stability(m) == 1.0

    def test_hand_computed_two_tasks(self):
        m = [[0.8], [0.4, 0.9]]
        assert abs(stability(m) - 0.5) < 1e-15

    def test_hand_computed_three_tasks(self):
        # peaks over rows before the last: task0 max(0.8, 0.6) = 0.8,
        # task1 max(0.9) = 0.9; drops: (0.8-0.4)/0.8 = 0.5, (0.9-0.6)/0.9 = 1/3
        m = [[0.8], [0.6, 0.9], [0.4, 0.6, 0.95]]
        want = 1.0 - 0.5 * (0.5 + 1.0 / 3.0)
        assert abs(stability(m) - want) < 1e-12

    def test_never_learned_task_contributes_zero(self):
        m = [[0.0], [0.0, 0.9]]
        assert stability(m) == 1.0

    def test_single_task_undefined(self):
        with pytest.raises(MetricError):
            stability([[0.5]])

    def test_depends_only_on_column_peaks_and_last_row(self):
        a = [[0.9], [0.5, 0.8], [0.4, 0.6, 0.7]]
        b = [[0.5], [0.9, 0.8], [0.4, 0.6, 0.7]]
        assert abs(stability(a) - stability(b)) < 1e-15


class TestPlasticity:
    def test_matching_references_give_one(self):
        m = [[0.8], [0.1, 0.9]]
        assert plasticity(m, [0.8, 0.9]) == 1.0

    def test_hand_computed(self):
        m = [[0.9], [0.0, 0.8]]
        assert abs(plasticity(m, [0.9, 1.0]) - 0.9) < 1e-15

    def test_can_exceed_one_without_clamping(self):
        m = [[1.0], [0.0, 1.0]]
        assert plasticity(m, [0.5, 0.5]) == 2.0

    def test_nonpositive_reference_rejected(self):
        m = [[0.9], [0.0, 0.8]]
        with pytest.raises(MetricError):
            plasticity(m, [0.9, 0.0])


class TestTradeoff:
    def test_fixed_point(self):
        assert tradeoff(0.7, 0.7) == 0.7

    def test_hand_computed(self):
        assert abs(tradeoff(1.0, 0.5) - 2.0 / 3.0) < 1e-15

    def test_zero_annihilates(self):
        assert tradeoff(0.0, 1.0) == 0.0

    def test_undefined_at_origin(self):
        with pytest.raises(MetricError):
            tradeoff(0.0, 0.0)


class TestTwoCodePaths:
    def test_metrics_match_from_scratch_rederivation(self):
        # metrics computed by the library vs inline re-derivation from the
        # raw per-task accuracies of a real run
        from lrcl.tasks import StreamConfig, gen_gaussian_stream
        from lrcl.trainer import TrainConfig, run_many

        stream = gen_gaussian_stream(StreamConfig(
            num_tasks=3, classes_per_task=2, dim=6, radius=3.0, sigma=0.6,
            n_train=24, n_test=12, pretrain_classes=4, pretrain_n=24,
        ), seed=2)
        cfg = TrainConfig(seed=2, epochs=3, batch_size=12, lr=0.05, head_lr=1e-6,
                          epsilon=0.1, hidden_dims=(8, 8), rank=2,
                          pretrain_epochs=4, pretrain_lr=0.005, lam=1.0)
        refs, (record,) = run_many(stream, cfg, [cfg])
        rows = record.rows
        T = len(rows)

        total = 0.0
        for i in range(T - 1):
            peak = max(rows[t][i] for t in range(i, T - 1))
            if peak > 0:
                total += (peak - rows[T - 1][i]) / peak
        want_stability = 1.0 - total / (T - 1)
        want_plasticity = sum(rows[i][i] / refs[i] for i in range(T)) / T

        assert abs(stability(record.rows) - want_stability) <= 1e-12
        assert abs(plasticity(record.rows, refs) - want_plasticity) <= 1e-12
