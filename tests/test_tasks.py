"""Stream generation, CSV ingestion, and split hygiene."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lrcl.errors import DataError, ParameterError, ParseError, ProtocolError
from lrcl.tasks import (
    Dataset,
    StreamConfig,
    Task,
    TaskStream,
    concat_datasets,
    gen_gaussian_stream,
    load_csv_stream,
    read_dataset_csv,
    stratified_split,
)
from lrcl.tensor import RngState

from conftest import write_dataset_csv


def small_stream(seed=0, **overrides):
    kwargs = dict(
        num_tasks=3,
        classes_per_task=2,
        dim=4,
        radius=3.0,
        sigma=0.5,
        n_train=10,
        n_test=5,
        pretrain_classes=2,
        pretrain_n=8,
    )
    kwargs.update(overrides)
    return gen_gaussian_stream(StreamConfig(**kwargs), seed)


class TestGaussianStream:
    def test_class_counting_and_disjointness(self):
        stream = small_stream()
        all_ids = [cid for t in stream.tasks for cid in t.class_ids]
        assert len(all_ids) == 6
        assert len(set(all_ids)) == 6
        assert set(stream.pretrain_class_ids).isdisjoint(all_ids)
        assert len(stream.pretrain_class_ids) == 2

    def test_same_seed_bit_identical(self):
        a = small_stream(seed=5)
        b = small_stream(seed=5)
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.train.X, tb.train.X)
            assert ta.train.y == tb.train.y
            assert np.array_equal(ta.test.X, tb.test.X)
        assert np.array_equal(a.pretrain.X, b.pretrain.X)

    def test_matches_scalar_draw_oracle(self):
        # the per-element scalar loop the generator replaces, kept as its reference
        seed, dim, sigma, n_train, n_test = 9, 4, 0.5, 10, 5
        stream = small_stream(seed=seed)
        rng_means = RngState(seed).derive("class-means")
        rng_samples = RngState(seed).derive("class-samples")
        means = []
        for _ in range(3 * 2 + 2):
            v = np.array([rng_means.normal() for _ in range(dim)])
            means.append(v * (3.0 / float(np.sqrt((v * v).sum()))))

        def blob(cid, n):
            return np.array([[means[cid][j] + sigma * rng_samples.normal() for j in range(dim)] for _ in range(n)])

        for task in stream.tasks:
            blobs = {cid: blob(cid, n_train + n_test) for cid in task.class_ids}
            train = [blobs[cid][i] for i in range(n_train) for cid in task.class_ids]
            test = [blobs[cid][n_train + i] for i in range(n_test) for cid in task.class_ids]
            assert np.array_equal(task.train.X, np.vstack(train))
            assert np.array_equal(task.test.X, np.vstack(test))
        pre = np.vstack([blob(cid, 8) for cid in stream.pretrain_class_ids])
        assert np.array_equal(stream.pretrain.X, pre)

    def test_different_seed_differs(self):
        a = small_stream(seed=5)
        b = small_stream(seed=6)
        assert not np.array_equal(a.tasks[0].train.X, b.tasks[0].train.X)

    def test_split_sizes(self):
        stream = small_stream()
        for t in stream.tasks:
            assert t.train.n == 20  # 2 classes x 10
            assert t.test.n == 10

    def test_means_on_radius_sphere(self):
        # sigma tiny: every sample sits essentially at its class mean
        stream = small_stream(sigma=1e-9, radius=2.5)
        for t in stream.tasks:
            norms = np.linalg.norm(t.train.X, axis=1)
            assert np.allclose(norms, 2.5, atol=1e-6)

    def test_tiny_sigma_is_linearly_separable(self):
        # nearest-class-mean classifier reaches accuracy 1 on every task
        stream = small_stream(sigma=1e-6, n_train=20, n_test=10)
        for t in stream.tasks:
            means = {}
            for cid in t.class_ids:
                rows = [i for i, y in enumerate(t.train.y) if y == cid]
                means[cid] = t.train.X[rows].mean(axis=0)
            correct = 0
            for i in range(t.test.n):
                x = t.test.X[i]
                pred = min(means, key=lambda c: np.linalg.norm(x - means[c]))
                correct += pred == t.test.y[i]
            assert correct == t.test.n

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            small_stream(dim=1)
        with pytest.raises(ParameterError):
            small_stream(radius=-1.0)
        with pytest.raises(ParameterError):
            small_stream(sigma=0.0)
        for name, value in (("sigma", 1e308), ("radius", 1e200), ("sigma", 1e6 * (1 + 2**-52))):
            with pytest.raises(ParameterError, match=f"^{name} must lie in"):
                small_stream(**{name: value})

    def test_radius_and_sigma_bounds_include_1e6(self):
        stream = small_stream(radius=1e6, sigma=1e6)
        assert np.isfinite(stream.tasks[0].train.X).all()


class TestStreamInvariants:
    def test_overlapping_class_ids_rejected(self):
        stream = small_stream()
        t0 = stream.tasks[0]
        clone = Task(id=99, class_ids=t0.class_ids, train=t0.train, test=t0.test)
        with pytest.raises(ProtocolError):
            TaskStream(tasks=[t0, clone])

    def test_empty_stream_rejected(self):
        # pretrain and run_many read stream.dim from task 0 before any check of their own
        with pytest.raises(DataError, match="^stream has no tasks$"):
            TaskStream(tasks=[])

    def test_foreign_labels_rejected(self):
        stream = small_stream()
        t0 = stream.tasks[0]
        with pytest.raises(ProtocolError):
            Task(id=0, class_ids=[900, 901], train=t0.train, test=t0.test)


class TestDatasetCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        stream = small_stream(seed=9)
        for t in stream.tasks:
            for split in (t.train, t.test):
                path = tmp_path / f"task{t.id}.csv"
                write_dataset_csv(path, split)
                back = read_dataset_csv(path)
                assert np.array_equal(back.X, split.X)
                assert back.y == split.y

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbff0,f1,label\n1.5,-2,0\n0.25,3,1\n")
        data = read_dataset_csv(path)
        assert data.X.tolist() == [[1.5, -2.0], [0.25, 3.0]]
        assert data.y == [0, 1]

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(ParseError):
            read_dataset_csv(path)

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\nx,1\n")
        with pytest.raises(ParseError) as err:
            read_dataset_csv(path)
        assert err.value.line == 3


class TestLoadCsvStream:
    def _write_pool(self, tmp_path, classes=4, per_class=20, dim=3):
        rows = []
        rng = np.random.default_rng(0)
        for c in range(classes):
            for _ in range(per_class):
                rows.append((rng.normal(size=dim) + 3 * c, c))
        X = np.vstack([r[0] for r in rows])
        y = [r[1] for r in rows]
        path = tmp_path / "pool.csv"
        write_dataset_csv(path, Dataset(X, y))
        return path

    def test_partition_counts(self, tmp_path):
        path = self._write_pool(tmp_path, classes=4)
        stream = load_csv_stream(path, num_tasks=2, seed=1)
        assert stream.num_tasks == 2
        assert all(len(t.class_ids) == 2 for t in stream.tasks)
        ids = [c for t in stream.tasks for c in t.class_ids]
        assert sorted(ids) == [0, 1, 2, 3]

    def test_eighty_twenty_split(self, tmp_path):
        path = self._write_pool(tmp_path, classes=4, per_class=20)
        stream = load_csv_stream(path, num_tasks=2, seed=1)
        for t in stream.tasks:
            assert t.train.n == 32  # 16 per class
            assert t.test.n == 8

    def test_deterministic(self, tmp_path):
        path = self._write_pool(tmp_path)
        a = load_csv_stream(path, num_tasks=2, seed=3)
        b = load_csv_stream(path, num_tasks=2, seed=3)
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.train.X, tb.train.X)
            assert ta.class_ids == tb.class_ids

    def test_too_few_classes(self, tmp_path):
        path = self._write_pool(tmp_path, classes=2)
        with pytest.raises(ProtocolError):
            load_csv_stream(path, num_tasks=3, seed=0)

    def test_one_row_class_names_the_class(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(41, 3))
        write_dataset_csv(tmp_path / "pool.csv", Dataset(X, [c for c in range(4) for _ in range(10)] + [7]))
        with pytest.raises(DataError, match="^class 7 has too few samples to split$"):
            load_csv_stream(tmp_path / "pool.csv", num_tasks=2, seed=0)

    def test_no_sample_in_both_splits(self, tmp_path):
        path = self._write_pool(tmp_path)
        stream = load_csv_stream(path, num_tasks=2, seed=5)
        for t in stream.tasks:
            train_rows = {tuple(row) for row in t.train.X}
            test_rows = {tuple(row) for row in t.test.X}
            assert train_rows.isdisjoint(test_rows)


class TestStratifiedSplit:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        counts=st.lists(st.integers(1, 12), min_size=1, max_size=5),
        unlisted=st.integers(0, 3),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_partitions_listed_classes(self, counts, unlisted, seed, data):
        # class c has counts[c] rows; class 99 is not listed and must be left out
        assume(max(counts) >= 2)  # else the test side is empty, which a Dataset rejects
        labels = [c for c, n in enumerate(counts) for _ in range(n)] + [99] * unlisted
        order = data.draw(st.permutations(labels))
        dataset = Dataset(np.arange(len(order), dtype=np.float64).reshape(-1, 1), order)
        classes = data.draw(st.permutations(range(len(counts))))
        train, test = stratified_split(dataset, 0.8, RngState(seed), classes)
        train_rows, test_rows = train.X[:, 0].tolist(), test.X[:, 0].tolist()
        assert sorted(train_rows + test_rows) == [i for i, y in enumerate(order) if y != 99]
        for c, n in enumerate(counts):
            n_train = train.y.count(c)
            assert n_train == max(1, min(n - 1, round(0.8 * n)))
            assert n_train + test.y.count(c) == n
            assert (test.y.count(c) > 0) == (n >= 2)


class TestConcat:
    def test_concat_order_preserved(self):
        stream = small_stream()
        joined = concat_datasets([t.train for t in stream.tasks])
        assert joined.n == sum(t.train.n for t in stream.tasks)
        assert joined.y[:20] == stream.tasks[0].train.y
