"""Tensor primitives against loop oracles and hand-computed values.

Also the finiteness checks at each place a NaN or Inf can enter the program.
"""

import numpy as np
import pytest

from lrcl.cli import main
from lrcl.errors import NumericalError, ParameterError, ParseError, ShapeError
from lrcl.fisher import UpdateFisher
from lrcl.model import accuracy, load_checkpoint, save_checkpoint
from lrcl.tasks import Dataset, read_dataset_csv
from lrcl.tensor import (
    RngState,
    _softmax_rows,
    read_matrix_csv,
    uniform_matrix,
    write_matrix_csv,
)

from conftest import make_net, uniform


def random_matrix(rng, rows, cols, lo=-1.0, hi=1.0):
    return np.array([uniform(rng, lo, hi) for _ in range(rows * cols)]).reshape(rows, cols)


def _dataset_csv(tmp_path, token):
    """A 4-class feature CSV with token in place of one feature."""
    rows = [f"{0.1 * i},{-0.2 * i},{i % 4}" for i in range(40)]
    rows[3] = f"0.3,{token},3"
    path = tmp_path / "data.csv"
    path.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
    return path


def _checkpoint_with(tmp_path, token):
    """Directory of a saved network whose first base weight reads token."""
    save_checkpoint(make_net((3, 2), rank=1, seed=0), tmp_path / "ckpt")
    w_path = tmp_path / "ckpt" / "layer0_W.csv"
    lines = w_path.read_text().splitlines()
    lines[0] = ",".join([token] + lines[0].split(",")[1:])
    w_path.write_text("\n".join(lines) + "\n")
    return tmp_path / "ckpt"


def _run_on_csv(tmp_path, token):
    config = tmp_path / "run.cfg"
    config.write_text(f"num_tasks = 2\npretrain_mode = random\ncsv_path = {_dataset_csv(tmp_path, token)}\n")
    return main(["run", "--config", str(config), "--out", str(tmp_path / "out"), "--jobs", "1"])


def _bad_logit_accuracy(tmp_path, token):
    # identity features and a huge head overflow every logit to inf; a nan head makes every logit nan
    net = make_net((2, 2), rank=1, seed=0, class_ids=[0, 1])
    net.layers[0].W[:] = np.eye(2)
    net.head.V[:] = 1e308 if token == "overflow" else float(token)
    return accuracy(net, np.ones((3, 2)), [0, 1, 0])


# (entry point, bad value, what must happen: an exception type or an exit code)
BOUNDARIES = [
    ("dataset", "nan", NumericalError),
    ("dataset", "inf", NumericalError),
    ("dataset_1d", "1.0", ShapeError),
    ("read_dataset_csv", "nan", NumericalError),
    ("read_dataset_csv", "inf", NumericalError),
    ("read_matrix_csv", "nan", NumericalError),
    ("read_matrix_csv", "-inf", NumericalError),
    ("load_checkpoint", "nan", NumericalError),
    ("load_checkpoint", "inf", NumericalError),
    ("run_csv", "nan", 3),
    ("run_csv", "inf", 3),
    ("fisher", "nan", NumericalError),
    ("accuracy", "overflow", NumericalError),
    ("accuracy", "nan", NumericalError),
    ("uniform_matrix", "0", ParameterError),
]

ENTRY_POINTS = {
    "dataset": lambda tmp, tok: Dataset(np.array([[1.0, float(tok)], [0.0, 1.0]]), [0, 1]),
    "dataset_1d": lambda tmp, tok: Dataset(np.array([float(tok), 2.0]), [0, 1]),
    "read_dataset_csv": lambda tmp, tok: read_dataset_csv(_dataset_csv(tmp, tok)),
    "read_matrix_csv": lambda tmp, tok: read_matrix_csv(_checkpoint_with(tmp, tok) / "layer0_W.csv"),
    "load_checkpoint": lambda tmp, tok: load_checkpoint(_checkpoint_with(tmp, tok)),
    "run_csv": _run_on_csv,
    "fisher": lambda tmp, tok: UpdateFisher([np.ones((2, 2)), np.full((2, 3), float(tok))]),
    "accuracy": _bad_logit_accuracy,
    "uniform_matrix": lambda tmp, tok: uniform_matrix(RngState(0), int(tok), 3, -1.0, 1.0),
}


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("entry,token,outcome", BOUNDARIES)
def test_bad_array_rejected_at_entry(tmp_path, entry, token, outcome):
    if isinstance(outcome, int):
        assert ENTRY_POINTS[entry](tmp_path, token) == outcome
        return
    with pytest.raises(outcome):
        ENTRY_POINTS[entry](tmp_path, token)


class TestUniformMatrix:
    def test_range_containment(self):
        m = uniform_matrix(RngState(3), 10, 10, 0.0, 1.0)
        assert ((0.0 <= m) & (m < 1.0)).all()

    def test_same_seed_same_matrix(self):
        a = uniform_matrix(RngState(9), 5, 5, -2.0, 2.0)
        b = uniform_matrix(RngState(9), 5, 5, -2.0, 2.0)
        assert np.array_equal(a, b)

    def test_lo_must_be_below_hi(self):
        with pytest.raises(ParameterError):
            uniform_matrix(RngState(0), 2, 2, 1.0, 1.0)

    def test_law_of_large_numbers(self):
        m = uniform_matrix(RngState(123), 1000, 1000, 0.0, 1.0)
        assert abs(m.mean() - 0.5) < 0.01


class TestPlumbingOps:
    def test_softmax_rows_sum_to_one(self):
        rng = RngState(19)
        m = random_matrix(rng, 6, 5, -3, 3)
        s = _softmax_rows(m)
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_shift_invariance(self):
        rng = RngState(23)
        m = random_matrix(rng, 4, 5, -2, 2)
        assert np.allclose(_softmax_rows(m), _softmax_rows(m + 7.5), rtol=1e-10, atol=1e-12)

    def test_softmax_survives_large_logits(self):
        s = _softmax_rows(np.array([[1000.0, 999.0, -1000.0]]))
        assert np.isfinite(s).all()


class TestRng:
    def test_splitmix_stream_is_stable(self):
        # reference values for seed 0 from the published SplitMix64 test vector
        r = RngState(0)
        assert [r.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_float_in_unit_interval(self):
        r = RngState(99)
        for _ in range(1000):
            v = r.next_float()
            assert 0.0 <= v < 1.0

    def test_derive_is_deterministic_and_independent(self):
        a = RngState(42).derive("data")
        b = RngState(42).derive("data")
        c = RngState(42).derive("train")
        seq_a = [a.next_u64() for _ in range(4)]
        assert seq_a == [b.next_u64() for _ in range(4)]
        assert seq_a != [c.next_u64() for _ in range(4)]

    @pytest.mark.parametrize(
        "seed, label, first",
        [(0, "adapter-init", 16567170050284980596), (42, "data", 5486832225412311784),
         (7, "class-samples", 5533985604802712748)],
    )
    def test_derive_output_is_pinned(self, seed, label, first):
        assert RngState(seed).derive(label).next_u64() == first

    def test_randint_bounds(self):
        r = RngState(5)
        draws = [r.randint(7) for _ in range(500)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7

    def test_shuffle_is_permutation(self):
        r = RngState(8)
        items = list(range(20))
        r.shuffle(items)
        assert sorted(items) == list(range(20))
        assert items != list(range(20))

    def test_sample_indices_distinct(self):
        r = RngState(31)
        idx = r.sample_indices(50, 10)
        assert len(idx) == 10
        assert len(set(idx)) == 10
        assert all(0 <= i < 50 for i in idx)

    def test_normal_moments(self):
        r = RngState(77)
        draws = [r.normal() for _ in range(200000)]
        arr = np.array(draws)
        assert abs(arr.mean()) < 0.01
        assert abs(arr.std() - 1.0) < 0.01


class TestBulkDraws:
    """floats(n) and normals(n) against n scalar draws, bit for bit.

    Every synthetic stream and initial weight comes from the bulk path, so
    a silent difference here would shift every recorded output.
    """

    SEEDS = (0, 7, 2**64 - 1)
    SIZES = (0, 1, 2, 7, 10001)

    @staticmethod
    def _pair(seed, spare):
        bulk, scalar = RngState(seed), RngState(seed)
        if spare:  # leave a sine variate pending on both
            bulk.normal()
            scalar.normal()
        return bulk, scalar

    @staticmethod
    def _assert_same_state(bulk, scalar):
        assert bulk._state == scalar._state
        assert bulk._spare_normal == scalar._spare_normal

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("spare", [False, True])
    def test_floats_equal_scalar_draws(self, seed, n, spare):
        bulk, scalar = self._pair(seed, spare)
        got = bulk.floats(n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tolist() == [scalar.next_float() for _ in range(n)]
        self._assert_same_state(bulk, scalar)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("spare", [False, True])
    def test_normals_equal_scalar_draws(self, seed, n, spare):
        bulk, scalar = self._pair(seed, spare)
        got = bulk.normals(n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tolist() == [scalar.normal() for _ in range(n)]
        self._assert_same_state(bulk, scalar)

    def test_mixed_sequence_stays_in_step(self):
        bulk, scalar = RngState(12345), RngState(12345)
        for n in (3, 0, 1, 4, 5, 2):
            assert bulk.normals(n).tolist() == [scalar.normal() for _ in range(n)]
            assert bulk.floats(n).tolist() == [scalar.next_float() for _ in range(n)]
            assert bulk.next_u64() == scalar.next_u64()
        self._assert_same_state(bulk, scalar)

    @pytest.mark.parametrize("lo,hi", [(-1, 1), (-0.25, 0.75), (2.0, 3.5)])
    def test_uniform_matrix_equals_scalar_uniforms(self, lo, hi):
        bulk, scalar = RngState(3), RngState(3)
        m = uniform_matrix(bulk, 4, 5, lo, hi)
        assert m.shape == (4, 5)
        assert m.ravel().tolist() == [uniform(scalar, lo, hi) for _ in range(20)]
        self._assert_same_state(bulk, scalar)

    def test_negative_count_rejected(self):
        r = RngState(1)
        with pytest.raises(ParameterError):
            r.floats(-1)
        with pytest.raises(ParameterError):
            r.normals(-1)
        assert r._state == RngState(1)._state


class TestMatrixCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = RngState(55)
        m = random_matrix(rng, 4, 3, -10, 10)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        back = read_matrix_csv(path)
        assert back.dtype == np.float64 and back.tolist() == m.tolist()

    @pytest.mark.parametrize("fail_at", ["write", "rename"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, fail_at):
        import lrcl.tensor as tensor_mod

        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.array([[1.0, 2.0]]))
        before = path.read_bytes()

        class HalfWrite:
            """File that stores half of what it is given, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError(28, "No space left on device")

        def failing_replace(src, dst):
            raise OSError(18, "Invalid cross-device link")

        if fail_at == "write":
            monkeypatch.setattr(tensor_mod, "open", lambda *a, **k: HalfWrite(open(*a, **k)), raising=False)
        else:
            monkeypatch.setattr(tensor_mod.os, "replace", failing_replace)
        with pytest.raises(OSError):
            write_matrix_csv(path, np.array([[3.0, 4.0], [5.0, 6.0]]))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]

    def test_ragged_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError):
            read_matrix_csv(path)
