"""Command-line harness: config parsing, output contracts, exit codes."""

import json
import os
import platform
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from lrcl.cli import (
    COMMANDS,
    CONFIG_KEYS,
    ExperimentConfig,
    build_parser,
    experiment_config_from_raw,
    load_experiment_config,
    main,
    output_files,
    parse_config_text,
)
from lrcl.errors import ConfigError, ParseError
from lrcl.fisher import EstimatorKind

TINY = """
# smallest config that exercises the whole pipeline
num_tasks = 3
classes_per_task = 2
dim = 6
radius = 3.0
sigma = 0.6
n_train = 24
n_test = 12
pretrain_classes = 4
pretrain_n = 24
epochs = 3
batch_size = 12
lr = 0.05
head_lr = 1e-6
epsilon = 0.1
hidden_dims = 8,8
rank = 2
pretrain_epochs = 10
pretrain_lr = 0.02
lambda = 1.0
seeds = 0
"""


def write_config(tmp_path, text=TINY, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_key_value_lines_and_comments(self):
        raw = parse_config_text("a = 1 # trailing\n# full comment\n\nb = two\n")
        assert raw == {"a": "1", "b": "two"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ParseError):
            parse_config_text("epochs 12\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("epochs = 1\nepochs = 2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            experiment_config_from_raw({"warp_factor": "9"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            experiment_config_from_raw({"epochs": "many"})

    def test_single_pretrain_sample_needs_random_mode(self):
        with pytest.raises(ConfigError, match="pretrain_n"):
            experiment_config_from_raw({"pretrain_n": "1"})
        assert experiment_config_from_raw({"pretrain_n": "1", "pretrain_mode": "random"}).stream.pretrain_n == 1
        assert experiment_config_from_raw({"pretrain_n": "1", "pretrain_classes": "0"}).stream.pretrain_n == 1

    def test_lambda_maps_to_field(self):
        cfg = experiment_config_from_raw({"lambda": "12.5"})
        assert cfg.train.lam == 12.5

    def test_spec_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.train.lam == 1e7
        assert cfg.train.gamma == 0.9
        assert cfg.train.beta1 == 0.9
        assert cfg.train.beta2 == 0.999
        assert cfg.train.epsilon == 1e-8
        assert cfg.stream.num_tasks == 5 and cfg.stream.classes_per_task == 4 and cfg.stream.dim == 16

    def test_full_round_trip(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_experiment_config(path)
        assert cfg.stream.num_tasks == 3
        assert cfg.train.hidden_dims == (8, 8)
        assert cfg.train.lam == 1.0

    # one non-default value per key: (config text, field path, parsed value)
    NON_DEFAULTS = {
        "epochs": ("7", "train.epochs", 7),
        "batch_size": ("16", "train.batch_size", 16),
        "lr": ("0.2", "train.lr", 0.2),
        "head_lr": ("1e-3", "train.head_lr", 1e-3),
        "lambda": ("2.5", "train.lam", 2.5),
        "gamma": ("0.5", "train.gamma", 0.5),
        "rank": ("3", "train.rank", 3),
        "strategy": ("Separate", "train.strategy", "separate"),
        "estimator": ("exact_subset(3)", "train.estimator", EstimatorKind("exact_subset", 3)),
        "beta1": ("0.8", "train.beta1", 0.8),
        "beta2": ("0.99", "train.beta2", 0.99),
        "epsilon": ("0.1", "train.epsilon", 0.1),
        "lr_schedule": ("constant", "train.lr_schedule", "constant"),
        "shuffle": ("yes", "train.shuffle", True),
        "hidden_dims": ("5,6,7", "train.hidden_dims", (5, 6, 7)),
        "b_init_scale": ("2", "train.b_init_scale", 2.0),
        "w0_identity_scale": ("0.25", "train.w0_identity_scale", 0.25),
        "w0_noise_scale": ("0.1", "train.w0_noise_scale", 0.1),
        "w0_feature_gain": ("4", "train.w0_feature_gain", 4.0),
        "pretrain_mode": ("random", "train.pretrain_mode", "random"),
        "pretrain_epochs": ("3", "train.pretrain_epochs", 3),
        "pretrain_lr": ("0.01", "train.pretrain_lr", 0.01),
        "num_tasks": ("2", "stream.num_tasks", 2),
        "classes_per_task": ("3", "stream.classes_per_task", 3),
        "dim": ("8", "stream.dim", 8),
        "radius": ("2", "stream.radius", 2.0),
        "sigma": ("0.5", "stream.sigma", 0.5),
        "n_train": ("20", "stream.n_train", 20),
        "n_test": ("10", "stream.n_test", 10),
        "pretrain_classes": ("0", "stream.pretrain_classes", 0),
        "pretrain_n": ("30", "stream.pretrain_n", 30),
        "csv_path": ("data.csv", "stream.csv_path", "data.csv"),
        "seeds": ("3, 4", "seeds", (3, 4)),
        "lambda_grid": ("1,2", "lambda_grid", (1.0, 2.0)),
        "gamma_grid": ("0.25", "gamma_grid", (0.25,)),
        "strategies": ("none,Precomputed-Uniform", "strategies", ("none", "precomputed_uniform")),
        "out_dir": ("elsewhere", "out_dir", "elsewhere"),
    }

    def test_key_set_matches_readme_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("### Config format", 1)[1].split("###", 1)[0]
        documented = set()
        for line in table.splitlines():
            if line.startswith("| `"):
                documented.update(re.findall(r"`(\w+)`", line.split("|")[1]))
        assert len(documented) == 37
        assert set(CONFIG_KEYS) == documented == set(self.NON_DEFAULTS)

    @pytest.mark.parametrize("key", sorted(NON_DEFAULTS))
    def test_each_key_sets_exactly_its_field(self, key):
        text, path, value = self.NON_DEFAULTS[key]
        expected = ExperimentConfig()
        *outer, name = path.split(".")
        owner = getattr(expected, outer[0]) if outer else expected
        assert getattr(owner, name) != value
        setattr(owner, name, value)
        assert experiment_config_from_raw({key: text}) == expected


class TestRunCommand:
    def test_outputs_exist_and_parse(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        for name in ("accuracy_matrix.csv", "metrics.json", "run.jsonl", "references.csv"):
            assert (out / name).exists(), name
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"final_acc", "avg", "stability", "plasticity", "tradeoff", "per_task_abar"}
        assert 0.0 <= metrics["final_acc"] <= 1.0
        assert 0.0 <= metrics["avg"] <= 1.0
        assert len(metrics["per_task_abar"]) == 3
        lines = (out / "run.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        for t, line in enumerate(lines):
            entry = json.loads(line)
            assert entry["task"] == t
            assert len(entry["row"]) == t + 1

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg_path, "--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == ["accuracy_matrix.csv", "metrics.json", "references.csv", "run.jsonl"]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_byte_order_mark_writes_the_same_bytes(self, tmp_path):
        # editors on some platforms save UTF-8 with a leading BOM; it is no part of the first key
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + TINY.lstrip().encode())
        assert load_experiment_config(str(bom)) == load_experiment_config(write_config(tmp_path))
        keyed = tmp_path / "keyed.cfg"
        keyed.write_bytes(b"\xef\xbb\xbfepochs = 3\n")
        assert load_experiment_config(str(keyed)).train.epochs == 3
        out_plain, out_bom = tmp_path / "plain", tmp_path / "bom"
        assert main(["run", "--config", write_config(tmp_path), "--out", str(out_plain)]) == 0
        assert main(["run", "--config", str(bom), "--out", str(out_bom)]) == 0
        names = sorted(p.name for p in out_plain.iterdir())
        assert names == sorted(p.name for p in out_bom.iterdir())
        for name in names:
            assert (out_bom / name).read_bytes() == (out_plain / name).read_bytes(), name

    def test_bad_key_exits_2_without_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY + "bogus_key = 1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
        assert not out.exists()

    def test_numerical_failure_exits_3(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY.replace("lr = 0.05", "lr = 1e200"))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 3

    @pytest.mark.parametrize("lam,err", [("1e200", ["numerical failure: Adam's second moment left the finite range: the squared gradient overflowed"]), ("1e150", [])])
    def test_overflowed_second_moment_exits_3(self, tmp_path, capsys, lam, err):
        # at lambda = 1e200 the penalty gradient's square overflows; Adam's second
        # moment would turn Inf there and those coordinates' steps 0, without a word
        cfg_path = write_config(tmp_path, TINY.replace("lambda = 1.0", f"lambda = {lam}"))
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out"), "--jobs", "1"]) == (3 if err else 0)
        assert capsys.readouterr().err.splitlines() == err

    @pytest.mark.parametrize(
        "command,run",
        [(["run"], "the run of seed 0"), (["compare-strategies"], "the none run of seed 0"),
         (["sweep", "--parameter", "lambda"], "the lambda 0.0 run of seed 0")],
    )
    def test_metric_left_undefined_by_training_exits_3(self, tmp_path, capsys, monkeypatch, command, run):
        # a reference that learned nothing makes plasticity undefined only
        # after all training, so it is a numerical failure, not a config error
        import lrcl.trainer as trainer_mod

        monkeypatch.setattr(trainer_mod, "run_reference", lambda *args: 0.0)
        out = tmp_path / "out"
        text = TINY.replace("num_tasks = 3", "num_tasks = 2")
        assert main(command + ["--config", write_config(tmp_path, text), "--out", str(out), "--jobs", "1"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"numerical failure: metrics of {run}: reference accuracy for task 0 must be positive"]
        assert not out.exists()

    def test_csv_class_with_one_row_exits_2_with_one_line(self, tmp_path, capsys):
        rows = ["f0,f1,label"] + [f"{c}.5,{i},{c}" for c in range(4) for i in range(5)] + ["9.5,0,9"]
        (tmp_path / "pool.csv").write_text("\n".join(rows) + "\n")
        text = TINY.replace("dim = 6", "dim = 2") + f"csv_path = {tmp_path / 'pool.csv'}\npretrain_mode = random\n"
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: class 9 has too few samples to split"]
        assert not out.exists()

    @pytest.mark.parametrize("num_tasks", ["0", "-1"])
    def test_csv_stream_without_tasks_exits_2_before_compute(self, tmp_path, capsys, monkeypatch, num_tasks):
        import lrcl.cli as cli_mod

        def no_compute(*args, **kwargs):
            raise AssertionError("compute started before num_tasks was checked")

        monkeypatch.setattr(cli_mod, "run_many", no_compute)
        rows = ["f0,f1,label"] + [f"{c}.5,{i},{c}" for c in range(4) for i in range(5)]
        (tmp_path / "pool.csv").write_text("\n".join(rows) + "\n")
        text = TINY.replace("dim = 6", "dim = 2").replace("num_tasks = 3", f"num_tasks = {num_tasks}")
        text += f"csv_path = {tmp_path / 'pool.csv'}\npretrain_mode = random\n"
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: num_tasks must be >= 1, got {num_tasks}"]
        assert not out.exists()

    def test_missing_csv_exits_2_with_one_line(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.csv"
        cfg_path = write_config(tmp_path, TINY + f"csv_path = {missing}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "nowhere.csv" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "diagnose", "pretrain"])
    def test_out_below_regular_file_exits_2_before_compute(self, tmp_path, capsys, monkeypatch, command):
        import lrcl.cli as cli_mod

        def no_compute(*args, **kwargs):
            raise AssertionError("compute started before --out was checked")

        for name in ("run_many", "track_fisher_drift", "pretrain"):
            monkeypatch.setattr(cli_mod, name, no_compute)
        blocker = tmp_path / "plain_file"
        blocker.write_text("not a directory\n")
        cfg_path = write_config(tmp_path)
        for out in (blocker, blocker / "out", blocker / "deeper" / "out"):
            assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:")
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "command,name",
        [(["run"], name) for name in ("accuracy_matrix.csv", "metrics.json", "run.jsonl", "references.csv")]
        + [(["compare-strategies"], "strategies.csv"), (["sweep", "--parameter", "gamma"], "sweep.csv"),
           (["diagnose"], "drift_seed0.csv"), (["diagnose", "--seed", "0,7"], "drift_seed7.csv"),
           (["reference"], "references.csv"), (["pretrain"], "pretrain.json")],
    )
    def test_output_name_taken_by_a_directory_exits_2_before_compute(self, tmp_path, capsys, monkeypatch, command, name):
        import lrcl.cli as cli_mod

        def no_compute(*args, **kwargs):
            raise AssertionError("compute started before the output names were checked")

        for fn in ("run_many", "track_fisher_drift", "pretrain"):
            monkeypatch.setattr(cli_mod, fn, no_compute)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(command + ["--config", write_config(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: cannot write {out / name}: Is a directory"]
        assert [p.relative_to(out) for p in out.rglob("*")] == [Path(name)]  # nothing written

    @pytest.mark.parametrize(
        "command,name",
        [(["run"], "accuracy_matrix.csv"), (["compare-strategies"], "strategies.csv"),
         (["sweep", "--parameter", "lambda"], "sweep.csv"),
         (["diagnose"], os.path.join("fisher_snapshots_seed0", "task0", "layer0_fdw.csv")),
         (["pretrain"], os.path.join("checkpoint", "layer0_W.csv"))],
    )
    def test_unwritable_output_exits_2_with_one_line(self, tmp_path, capsys, command, name):
        # the name of the command's first output file is taken by a directory,
        # right under --out or in a state directory (the snapshots of
        # diagnose, the checkpoint of pretrain)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        jobs = [] if command == ["pretrain"] else ["--jobs", "1"]
        assert main(command + ["--config", write_config(tmp_path), "--out", str(out)] + jobs) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: cannot write {out / name}: Is a directory"]
        assert (out / name).is_dir()
        assert not [p for p in out.rglob("*") if ".tmp." in p.name]

    @pytest.mark.parametrize(
        "command,name,written",
        [(["diagnose"], os.path.join("fisher_snapshots_seed0", "task0", "layer0_fdw.csv"), True),
         (["diagnose", "--seed", "0,7"], os.path.join("fisher_snapshots_seed7", "task2", "manifest.json"), True),
         (["diagnose"], os.path.join("fisher_snapshots_seed0", "task3", "layer0_fdw.csv"), False),  # 3 tasks
         (["pretrain"], os.path.join("checkpoint", "layer0_W.csv"), True),
         (["pretrain"], os.path.join("checkpoint", "layer1_B.csv"), True),
         (["pretrain"], os.path.join("checkpoint", "head_V.csv"), False)],  # the head is dropped
    )
    def test_state_directory_name_taken_by_a_directory_exits_2_before_compute(self, tmp_path, capsys, monkeypatch, command, name, written):
        import lrcl.cli as cli_mod

        def no_compute(*args, **kwargs):
            raise AssertionError("compute started")

        for fn in ("run_many", "track_fisher_drift", "pretrain"):
            monkeypatch.setattr(cli_mod, fn, no_compute)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        argv = command + ["--config", write_config(tmp_path), "--out", str(out)]
        if not written:  # a name the command does not write passes the check
            with pytest.raises(AssertionError, match="compute started"):
                main(argv)
            return
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: cannot write {out / name}: Is a directory"]

    @pytest.mark.parametrize(
        "command,name",
        [(["pretrain"], "checkpoint"),
         (["diagnose", "--jobs", "1"], os.path.join("fisher_snapshots_seed0", "task1")),
         (["diagnose", "--jobs", "1"], "fisher_snapshots_seed0")],
    )
    def test_state_directory_taken_by_a_regular_file_exits_2_before_compute(self, tmp_path, capsys, monkeypatch, command, name):
        import lrcl.cli as cli_mod

        def no_compute(*args, **kwargs):
            raise AssertionError("compute started")

        for fn in ("track_fisher_drift", "pretrain"):
            monkeypatch.setattr(cli_mod, fn, no_compute)
        out = tmp_path / "out"
        (out / name).parent.mkdir(parents=True)
        (out / name).write_text("taken\n")
        assert main(command + ["--config", write_config(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: cannot write {out / name}: Not a directory"]
        assert (out / name).read_text() == "taken\n"

    @pytest.mark.parametrize("source", ["config", "csv"])
    def test_input_not_utf8_exits_2_before_compute(self, tmp_path, capsys, monkeypatch, source):
        import lrcl.cli as cli_mod

        def no_compute(*args, **kwargs):
            raise AssertionError("compute started before the input was read")

        monkeypatch.setattr(cli_mod, "run_many", no_compute)
        rows = ["f0,f1,label"] + [f"{c}.5,{i},{c}" for c in range(4) for i in range(5)]
        csv = tmp_path / "pool.csv"
        csv.write_bytes(("\n".join(rows) + "\n").encode() + (b"0.5,\xff,0\n" if source == "csv" else b""))
        text = TINY.replace("dim = 6", "dim = 2") + f"csv_path = {csv}\npretrain_mode = random\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(text.encode() + (b"# \xff\n" if source == "config" else b""))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot read") and "can't decode byte 0xff" in err[0]
        assert {"config": "run.cfg", "csv": "pool.csv"}[source] in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "line",
        ["estimator = exact_subset(abc)", "lambda = nan", "lr = inf", "b_init_scale = -inf",
         "b_init_scale = 0", "b_init_scale = -1", "b_init_scale = 1e308",
         "lambda_grid = 0,nan", "gamma_grid = 0.5,inf", "pretrain_classes = -3",
         "pretrain_epochs = -5", "pretrain_n = -3", "pretrain_n = 1",
         "beta1 = 1", "beta1 = -0.5", "beta2 = 1", "beta2 = 1.5", "epsilon = 0", "epsilon = -1",
         "w0_noise_scale = 0", "hidden_dims = 8,0", "lr = 0", "head_lr = -1", "hidden_dims = ,",
         "lr_schedule = step", "pretrain_mode = frozen", "classes_per_task = 0", "n_test = 0",
         "w0_identity_scale = -1e308", "w0_feature_gain = 1e308", "sigma = 1e308", "radius = 1e200"],
    )
    def test_bad_value_exits_2_before_compute(self, tmp_path, capsys, monkeypatch, command, line):
        import lrcl.cli as cli_mod

        def no_compute(*args, **kwargs):
            raise AssertionError("compute started before the config was checked")

        for name in ("run_many", "track_fisher_drift", "pretrain"):
            monkeypatch.setattr(cli_mod, name, no_compute)
        key = line.split("=")[0].strip()
        kept = [l for l in TINY.splitlines() if l.split("=")[0].strip() != key]
        cfg_path = write_config(tmp_path, "\n".join(kept + [line]) + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not out.exists()

    def test_adam_bounds_include_their_closed_ends(self):
        train = experiment_config_from_raw({"beta1": "0", "epsilon": "1e-12"}).train
        assert (train.beta1, train.epsilon) == (0.0, 1e-12)

    @pytest.mark.parametrize("value", ["-1e6", "0", "1e6"])
    def test_w0_bounds_include_their_closed_ends(self, value):
        for keys in (["w0_identity_scale"], ["w0_feature_gain"], ["w0_identity_scale", "w0_feature_gain"]):
            train = experiment_config_from_raw(dict.fromkeys(keys, value)).train
            assert all(getattr(train, key) == float(value) for key in keys)

    def _seeds_exit_2_before_compute(self, tmp_path, capsys, monkeypatch, command, flag, seeds, message):
        import lrcl.cli as cli_mod

        def no_compute(*args, **kwargs):
            raise AssertionError("compute started before the seeds were checked")

        for name in ("run_many", "track_fisher_drift", "pretrain"):
            monkeypatch.setattr(cli_mod, name, no_compute)
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, TINY.replace("seeds = 0", f"seeds = {seeds}")), "--out", str(out)]
        assert main(argv + (["--seed", flag] if flag else [])) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare-strategies", "sweep", "diagnose", "reference", "pretrain"])
    @pytest.mark.parametrize("flag,seeds,repeated", [("0,0", "0", 0), ("5, 3,5", "0", 5), (None, "0,7,0", 0), (None, "4,4,4", 4)])
    def test_repeated_seed_exits_2_before_compute(self, tmp_path, capsys, monkeypatch, command, flag, seeds, repeated):
        self._seeds_exit_2_before_compute(tmp_path, capsys, monkeypatch, command, flag, seeds, f"seed {repeated} appears more than once in seeds")

    @pytest.mark.parametrize("command", ["run", "compare-strategies", "sweep", "diagnose", "reference", "pretrain"])
    @pytest.mark.parametrize("flag,seeds,outside", [("18446744073709551616", "0", 2**64), ("-1", "0", -1), (None, "0,-3", -3)])
    def test_seed_outside_64_bits_exits_2_before_compute(self, tmp_path, capsys, monkeypatch, command, flag, seeds, outside):
        # RngState keeps a seed's low 64 bits, so such a seed would silently run as another one
        self._seeds_exit_2_before_compute(tmp_path, capsys, monkeypatch, command, flag, seeds, f"seed {outside} lies outside [0, 2^64)")

    def test_flags_parse_as_the_keys_they_override(self, tmp_path):
        flags = load_experiment_config(write_config(tmp_path), seeds="0,7", out_dir="elsewhere")
        keys = load_experiment_config(write_config(tmp_path, TINY.replace("seeds = 0", "seeds = 0,7\nout_dir = elsewhere"), name="keys.cfg"))
        assert flags == keys and (flags.seeds, flags.out_dir) == ((0, 7), "elsewhere")

    def test_seed_flag_replaces_the_seeds_key_before_it_is_checked(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TINY.replace("seeds = 0", "seeds = 1,1"))
        out = tmp_path / "out"
        assert main(["pretrain", "--config", cfg_path, "--out", str(out), "--seed", "7"]) == 0
        assert json.loads((out / "pretrain.json").read_text())["seed"] == 7
        assert main(["pretrain", "--config", cfg_path, "--out", str(out), "--seed", "x"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: bad value for 'seeds': invalid literal for int() with base 10: 'x'"]

    def test_seed_flag_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out), "--seed", "7"]) == 0
        ref = json.loads((out / "metrics.json").read_text())
        out2 = tmp_path / "out2"
        assert main(["run", "--config", cfg_path, "--out", str(out2), "--seed", "7"]) == 0
        assert json.loads((out2 / "metrics.json").read_text()) == ref


class TestCompareCommand:
    def test_row_count_and_schema(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY + "seeds = 0,1\n".replace("seeds = 0\n", ""))
        # TINY already has seeds = 0; rewrite cleanly
        cfg_path = write_config(tmp_path, TINY.replace("seeds = 0", "seeds = 0,1"), name="cmp.cfg")
        out = tmp_path / "cmp"
        assert main(["compare-strategies", "--config", cfg_path, "--out", str(out)]) == 0
        lines = (out / "strategies.csv").read_text().strip().splitlines()
        assert lines[0] == "strategy,seed,final_acc,avg,stability,plasticity,tradeoff"
        assert len(lines) == 1 + 4 * 2  # four strategies, two seeds


class TestSweepCommand:
    def test_lambda_sweep_rows(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY + "lambda_grid = 0,1,10\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg_path, "--out", str(out), "--parameter", "lambda"]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "parameter,value,seed,final_acc,avg,stability,plasticity,tradeoff"
        assert len(lines) == 1 + 3

    def test_gamma_sweep_runs(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY + "gamma_grid = 0,0.5,0.9\n")
        out = tmp_path / "gsweep"
        assert main(["sweep", "--config", cfg_path, "--out", str(out), "--parameter", "gamma"]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3

    def test_empty_grid_exits_2(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY + "lambda_grid =\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg_path, "--out", str(out), "--parameter", "lambda"]) == 2
        assert not out.exists()

    def test_empty_strategies_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TINY + "strategies =\n")
        out = tmp_path / "cmp"
        assert main(["compare-strategies", "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,line,message",
        [(["compare-strategies"], "strategies = deltaw, DeltaW", "deltaw appears more than once in strategies"),
         (["sweep", "--parameter", "lambda"], "lambda_grid = 1, 1.0", "lambda 1.0 appears more than once in lambda_grid"),
         (["sweep", "--parameter", "gamma"], "gamma_grid = 0.5,0.9,0.5", "gamma 0.5 appears more than once in gamma_grid"),
         (["sweep", "--parameter", "lambda"], "lambda_grid = 0, -0", "lambda 0.0 appears more than once in lambda_grid"),
         (["sweep", "--parameter", "gamma"], "gamma_grid = -0.0,0.5,0", "gamma 0.0 appears more than once in gamma_grid")],
    )
    def test_repeated_grid_entry_exits_2_before_compute(self, tmp_path, capsys, monkeypatch, command, line, message):
        # each repeat would be trained again, into a duplicate row
        import lrcl.cli as cli_mod

        def no_compute(*args, **kwargs):
            raise AssertionError("compute started before the grid was checked")

        monkeypatch.setattr(cli_mod, "run_many", no_compute)
        out = tmp_path / "out"
        assert main(command + ["--config", write_config(tmp_path, TINY + line + "\n"), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_grid_value_checked_before_compute(self, tmp_path, monkeypatch):
        import lrcl.cli as cli_mod

        def no_compute(*args, **kwargs):
            raise AssertionError("compute started before the grid was checked")

        monkeypatch.setattr(cli_mod, "run_many", no_compute)
        cfg_path = write_config(tmp_path, TINY + "gamma_grid = 0.5,2\n")
        out = tmp_path / "gsweep"
        assert main(["sweep", "--config", cfg_path, "--out", str(out), "--parameter", "gamma"]) == 2
        assert not out.exists()


class TestDiagnoseCommand:
    def test_drift_table_schema_and_self_rows(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "diag"
        assert main(["diagnose", "--config", cfg_path, "--out", str(out)]) == 0
        lines = (out / "drift_seed0.csv").read_text().strip().splitlines()
        assert lines[0] == "task_trained,task_data,regime,norm_ratio,spearman,cosine"
        rows = [line.split(",") for line in lines[1:]]
        regimes = {r[2] for r in rows}
        assert regimes == {"rehearsal_free", "rehearsal_based"}
        per_regime = sum(1 for r in rows if r[2] == "rehearsal_free")
        assert per_regime == 6  # pairs (0,0) (1,0) (1,1) (2,0) (2,1) (2,2)
        for r in rows:
            if r[0] == r[1]:
                assert float(r[3]) == 1.0 and float(r[4]) == 1.0 and float(r[5]) == 1.0
        snap_dir = out / "fisher_snapshots_seed0" / "task0"
        assert (snap_dir / "manifest.json").exists()

    def test_degenerate_fisher_after_training_exits_3(self, tmp_path, capsys):
        # the huge rate saturates the pretrained network, so task 0's exact
        # Fisher snapshot is all zeros and its norm ratio is undefined; with
        # --jobs 2 the worker that measures drift raises it
        text = TINY.replace("pretrain_lr = 0.02", "pretrain_lr = 1e100") + "estimator = exact\n"
        cfg_path = write_config(tmp_path, text)
        for jobs in ("1", "2"):
            out = tmp_path / f"diag{jobs}"
            assert main(["diagnose", "--config", cfg_path, "--out", str(out), "--jobs", jobs]) == 3
            err = capsys.readouterr().err.splitlines()
            assert err == ["numerical failure: drift of task 0 after task 1: norm ratio undefined for a zero baseline Fisher"]
            assert not out.exists()

    @pytest.mark.parametrize("strategy", ["none", "precomputed_uniform", "precomputed_dataset"])
    def test_strategy_without_learned_fisher_exits_2_before_compute(self, tmp_path, capsys, monkeypatch, strategy):
        import lrcl.diagnostics as diagnostics_mod
        import lrcl.trainer as trainer_mod

        def no_compute(*args, **kwargs):
            raise AssertionError("compute started before the strategy was checked")

        monkeypatch.setattr(diagnostics_mod, "run_continual", no_compute)
        monkeypatch.setattr(trainer_mod, "pretrain", no_compute)
        cfg_path = write_config(tmp_path, TINY + f"strategy = {strategy}\n")
        out = tmp_path / "diag"
        assert main(["diagnose", "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "deltaw" in err[0] and "separate" in err[0]
        assert not out.exists()


    def test_strategy_checked_before_any_stream_is_built(self, tmp_path, capsys, monkeypatch):
        from lrcl.tasks import StreamConfig

        def no_stream(*args, **kwargs):
            raise AssertionError("a stream was built before the strategy was checked")

        monkeypatch.setattr(StreamConfig, "build_stream", no_stream)
        out = tmp_path / "diag"
        assert main(["diagnose", "--config", write_config(tmp_path, TINY + "strategy = none\n"), "--out", str(out), "--seed", "0,7"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: drift tracking needs a strategy that learns its Fisher (deltaw or separate), not 'none'"]
        assert not out.exists()


class TestReferenceAndPretrain:
    def test_reference_csv(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "refs"
        assert main(["reference", "--config", cfg_path, "--out", str(out)]) == 0
        lines = (out / "references.csv").read_text().strip().splitlines()
        assert lines[0] == "seed,task,ref_accuracy"
        assert len(lines) == 1 + 3
        for line in lines[1:]:
            seed, task, acc = line.split(",")
            assert 0.0 <= float(acc) <= 1.0

    def test_pretrain_checkpoint_round_trips(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "pre"
        assert main(["pretrain", "--config", cfg_path, "--out", str(out)]) == 0
        report = json.loads((out / "pretrain.json").read_text())
        assert report["test_accuracy"] > 0.25
        from lrcl.model import load_checkpoint

        net = load_checkpoint(out / "checkpoint")
        assert net.head.V is None
        assert [l.W.shape for l in net.layers] == [(8, 6), (8, 8)]


class TestPretrainOncePerSeed:
    @pytest.mark.parametrize(
        "command,seeds",
        [(["run"], [0]), (["compare-strategies"], [0, 7]), (["sweep", "--parameter", "lambda"], [0, 7]),
         (["sweep", "--parameter", "gamma"], [0, 7]), (["diagnose"], [0, 7])],
    )
    def test_one_pretrain_per_seed(self, tmp_path, monkeypatch, command, seeds):
        import lrcl.trainer as trainer_mod

        calls = []
        real = trainer_mod.pretrain

        def spy(config, stream):
            calls.append(config.seed)
            return real(config, stream)

        monkeypatch.setattr(trainer_mod, "pretrain", spy)
        text = TINY + "lambda_grid = 0,1,10\ngamma_grid = 0,0.5\n"
        out = tmp_path / "out"
        assert main(command + ["--config", write_config(tmp_path, text), "--out", str(out), "--seed", "0,7"]) == 0
        assert calls == seeds


class TestDeclaredOutputs:
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_writes_exactly_the_files_it_declares(self, tmp_path, command):
        # the names _check_out_dir guards before compute are every file the command leaves under --out
        cfg_path, out = write_config(tmp_path), tmp_path / "out"
        jobs = ["--jobs", "1"] if COMMANDS[command].pooled else []
        assert main([command, "--config", cfg_path, "--out", str(out), "--seed", "0,7"] + jobs) == 0
        written = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
        assert written == set(output_files(load_experiment_config(cfg_path, seeds="0,7"), command))


class TestJobs:
    """--jobs N spreads a command's trainings over N forked workers, byte for byte."""

    TEXT = TINY + (
        "strategies = none,deltaw,separate,precomputed_uniform,precomputed_dataset\n"
        "estimator = exact_subset(3)\n"
        "shuffle = true\n"
        "gamma_grid = 0,0.5,0.9\n"
    )

    @pytest.mark.parametrize(
        "command", [["run"], ["compare-strategies"], ["sweep", "--parameter", "gamma"], ["reference"], ["diagnose"]]
    )
    def test_outputs_identical_for_any_jobs(self, tmp_path, command):
        # diagnose: exact_subset(3) draws from each regime's stream in the worker
        self._assert_identical_for_any_jobs(tmp_path, command, self.TEXT)

    @pytest.mark.parametrize("estimator", ["empirical", "exact", "exact_subset(3)", "sampled"])
    @pytest.mark.parametrize("strategy", ["deltaw", "separate"])
    def test_diagnose_identical_for_any_jobs(self, tmp_path, estimator, strategy):
        # the last task's classes are split over the workers, and the draws
        # stay in this process; separate learns a factor-space Fisher
        text = self.TEXT.replace("estimator = exact_subset(3)", f"estimator = {estimator}") + f"strategy = {strategy}\n"
        self._assert_identical_for_any_jobs(tmp_path, ["diagnose"], text)

    @pytest.mark.parametrize("estimator", ["exact", "sampled"])
    @pytest.mark.parametrize("failure", ["pretrain_lr = 1e100", "head_lr = 1e150"])
    def test_diagnose_failure_independent_of_jobs(self, tmp_path, estimator, failure):
        # training saturates the network, so task 0's Fisher is zero; the drift rows, made in
        # task order once the trajectory ends, raise the first failing task's error for any N
        text = re.sub(rf"^{failure.split()[0]} = .*$", failure, TINY, flags=re.M) + f"estimator = {estimator}\n"
        cfg_path = write_config(tmp_path, text)
        errs = [self._failing_stderr(["diagnose", "--config", cfg_path, "--jobs", jobs], tmp_path / f"out{jobs}") for jobs in ("1", "2", "3")]
        assert errs == [errs[0]] * 3 and errs[0].startswith("numerical failure: drift of task 0 after task 1: ")

    @staticmethod
    def _assert_identical_for_any_jobs(tmp_path, command, text):
        cfg_path = write_config(tmp_path, text)
        trees = []
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"out{jobs}"
            assert main(command + ["--config", cfg_path, "--out", str(out), "--seed", "0,7", "--jobs", jobs]) == 0
            trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        assert trees[0] and trees[1] == trees[0] and trees[2] == trees[0]

    @staticmethod
    def _failing_stderr(argv, out):
        # The whole of stderr, numpy warnings included. A child process,
        # because pytest records warnings instead of printing them.
        import lrcl

        src = str(Path(lrcl.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "lrcl.cli", *argv, "--out", str(out)], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert not out.exists()
        return proc.stderr

    @pytest.mark.parametrize("command", [["run"], ["compare-strategies"], ["sweep", "--parameter", "lambda"]])
    def test_failure_line_independent_of_jobs(self, tmp_path, command):
        cfg_path = write_config(tmp_path, TINY.replace("lr = 0.05", "lr = 1e200"))
        errs = [self._failing_stderr(command + ["--config", cfg_path, "--jobs", jobs], tmp_path / f"out{jobs}") for jobs in ("1", "2")]
        assert errs == ["numerical failure: parameters left the finite range during Adam update\n"] * 2

    @pytest.mark.parametrize(
        "command",
        [["run", "--jobs", "1"], ["run", "--jobs", "2"], ["diagnose", "--jobs", "1"], ["diagnose", "--jobs", "2"]],
    )
    def test_fisher_failure_names_the_task(self, tmp_path, command):
        # at seed 1 the huge head rate overflows task 0's squared per-sample
        # weight gradients, which only the Fisher squares: the tiny adapter
        # keeps the gradients of its factors, which Adam squares, finite
        text = TINY.replace("head_lr = 1e-6", "head_lr = 1e300").replace("lr = 0.05", "lr = 1e-200")
        cfg_path = write_config(tmp_path, text + "pretrain_mode = random\nb_init_scale = 1e-200\n")
        err = self._failing_stderr(command + ["--config", cfg_path, "--seed", "1"], tmp_path / "out")
        assert err == "numerical failure: Fisher estimate of task 0: matrix contains NaN or Inf\n"

    @pytest.mark.parametrize("value", ["0", "-1", "abc"])
    def test_bad_jobs_exits_2_before_compute(self, tmp_path, capsys, monkeypatch, value):
        import lrcl.cli as cli_mod

        def no_compute(*args, **kwargs):
            raise AssertionError("compute started before --jobs was checked")

        monkeypatch.setattr(cli_mod, "run_many", no_compute)
        out = tmp_path / "out"
        assert main(["compare-strategies", "--config", write_config(tmp_path), "--out", str(out), "--jobs", value]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--jobs" in err[0]
        assert not out.exists()


WIDE = """
dim = 64
hidden_dims = 256,256
classes_per_task = 8
num_tasks = 2
n_train = 150
n_test = 50
batch_size = 256
epochs = 3
pretrain_epochs = 2
epsilon = 0.1
lambda = 10
"""


class TestHeapPolicy:
    """main keeps freed batch-sized arrays on glibc's heap: both mallopt settings or neither."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set through glibc's mallopt")
    def test_repeated_wide_run_barely_faults(self, tmp_path):
        # a 256-wide layer at batch 256 frees 512 KiB temporaries each step;
        # trimmed or unmapped, they are faulted in again by the next step
        # (~9,500 faults per call); kept on the heap, they are reused
        import lrcl

        code = (
            "import resource, sys\n"
            "from lrcl.cli import main\n"
            "argv = ['run', '--config', sys.argv[1], '--out', sys.argv[2], '--jobs', '1']\n"
            "assert main(argv) == 0\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "assert main(argv) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(lrcl.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        args = [sys.executable, "-c", code, write_config(tmp_path, WIDE), str(tmp_path / "out")]
        proc = subprocess.run(args, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 1000

    @pytest.mark.parametrize(
        "mmap_result,calls",
        [(1, [(-3, 32 << 20), (-1, -1)]), (0, [(-3, 32 << 20)]), (None, [])],
    )
    def test_trim_set_only_after_mmap_threshold(self, tmp_path, monkeypatch, mmap_result, calls):
        # a libc whose mallopt refuses M_MMAP_THRESHOLD (-3) never gets
        # M_TRIM_THRESHOLD (-1); one without mallopt gets nothing
        import ctypes

        seen = []

        def mallopt(param, value):
            seen.append((param, value))
            return mmap_result if param == -3 else 1

        libc = types.SimpleNamespace() if mmap_result is None else types.SimpleNamespace(mallopt=mallopt)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        assert main(["run", "--config", write_config(tmp_path), "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
        assert seen == calls


class TestReadme:
    def test_cli_flags_match_parser(self):
        import argparse

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## CLI", 1)[1].split("###", 1)[0]
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        commands = set(subparsers.choices)
        documented = {}
        for line in section.splitlines():
            if line.startswith("| `--"):
                flag_cell, commands_cell = re.split(r"(?<!\\)\|", line)[1:3]
                flag = re.match(r"\s*`(--[a-z-]+)", flag_cell).group(1)
                named = set(re.findall(r"`([a-z-]+)`", commands_cell))
                documented[flag] = commands if commands_cell.strip() == "all" else named
        parsed = {}
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                for flag in action.option_strings:
                    if flag.startswith("--") and flag != "--help":
                        parsed.setdefault(flag, set()).add(name)
        assert "--jobs" in documented
        assert documented == parsed

    def test_library_use_imports_resolve(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Library use", 1)[1].split("```python", 1)[1].split("```", 1)[0]
        imports = [line for line in block.splitlines() if re.match(r"from lrcl(\.\w+)* import ", line)]
        assert len(imports) >= 2
        for line in imports:
            exec(line, {})

    def test_every_code_block_import_resolves(self):
        # an example that imports a folded or renamed name fails here, not in a reader's hands
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        code = "\n".join(re.findall(r"^```[\w-]*\n(.*?)^```", readme, re.S | re.M))
        imports = re.findall(r"^\s*from (lrcl(?:\.\w+)*) import (\([^)]*\)|.+)$", code, re.M)
        assert imports
        for module, names in imports:
            exec(f"from {module} import {names}", {})


class TestImportCost:
    def test_pool_modules_wait_for_a_pool(self):
        # run_many and diagnose's measuring worker import them when a pool opens
        import lrcl

        src = str(Path(lrcl.__file__).resolve().parents[1])
        code = (
            "import sys, lrcl, lrcl.diagnostics; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestInputsUntouched:
    def test_commands_do_not_mutate_config_file(self, tmp_path):
        cfg_path = write_config(tmp_path)
        before = open(cfg_path, "rb").read()
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        assert open(cfg_path, "rb").read() == before


class TestGoldenOutputs:
    """`run`, `compare-strategies`, `sweep`, `pretrain` and `diagnose` on TINY reproduce the recorded bytes.

    Floating-point bits depend on the numpy and BLAS builds, so the digests
    hold only on the platform they were recorded on. That includes the
    kernel set ("core") OpenBLAS picks for the CPU when it loads: one wheel
    sums a matmul in another order under another core, and the last bits
    of run.jsonl, the checkpoint and the drift rows move.
    """

    PLATFORM = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0", "core": "SkylakeX"}
    DIGESTS = {
        "accuracy_matrix.csv": "eb19a51e00aac5a8294f8721335b8c343b40924e2feec7124772c52a8d896ad2",
        "metrics.json": "90ee77f5102e278e2587754ae643671144ed105fc75712e4335feeecbb37bfde",
        "references.csv": "d8d30a6147e1ce8dd3878f12b7d80eab25902bb793044af268aaa11b987bf50d",
        "run.jsonl": "c9affa772481ee589a65a1ab12b9b02bcfc3af8a52ac030fd21745ed5bee3ef4",
    }

    # strategies.csv of compare-strategies on TINY with all five
    # strategies, estimator = exact_subset(3) and shuffle = true
    STRATEGIES_CSV = "9184592910d6b1b3d24f17ca640107e9b9464232bd0bede0664e156bd8627ed4"

    # sweep.csv of sweep --parameter lambda on TINY (the default lambda grid)
    SWEEP_CSV = "dc657145ef9d7077616eafe4a057cf75c7d1e7191033b462ca3b77953e9365bd"

    # every file pretrain writes on TINY (checkpoint/ and pretrain.json), as a tree digest
    PRETRAIN_TREE = "eb4523ebbe6fcfc91da7ebdc763d4898ef6801c3efae84f5458968c2d3c6df64"

    @staticmethod
    def _openblas_core() -> str | None:
        """The core name of numpy's bundled OpenBLAS, or None where the library or its symbol is missing."""
        import ctypes
        import glob

        import numpy as np

        libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so"))
        corename = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None) if libs else None
        if corename is None:
            return None
        corename.restype = ctypes.c_char_p
        return corename().decode()

    def _skip_on_other_platform(self):
        import numpy as np

        core = self._openblas_core()
        if core is None:
            pytest.skip("cannot read the OpenBLAS core name (no scipy_openblas_get_corename64_ in numpy's bundled library), which the digests depend on")
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        here = {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}", "core": core}
        if here != self.PLATFORM:
            pytest.skip(f"digests were recorded on {self.PLATFORM}, this is {here}")

    @pytest.mark.parametrize("core", ["Sandybridge", "Haswell", None])
    def test_other_or_unknown_core_skips(self, monkeypatch, core):
        monkeypatch.setattr(TestGoldenOutputs, "_openblas_core", staticmethod(lambda: core))
        reason = "cannot read the OpenBLAS core name" if core is None else f"'core': '{core}'"
        with pytest.raises(pytest.skip.Exception, match=re.escape(reason)):
            self._skip_on_other_platform()

    @staticmethod
    def _tree_digest(out) -> str:
        """sha256 over the sorted "relative/path sha256-of-bytes" lines of every file below out."""
        import hashlib

        tree = hashlib.sha256()
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            tree.update(f"{path.relative_to(out).as_posix()} {hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
        return tree.hexdigest()

    # every file diagnose writes on TINY at seeds 0 and 7, as a tree digest
    DIAGNOSE_TREES = {
        ("exact", "deltaw"): "afb6834164e454f17d07a5c94573990252a9da62e09e578b506e5f020693e60c",
        ("sampled", "separate"): "6765eb9049040937a139a3dec2198e9851a19b8bf46469f3c486f02aa6a1c204",
    }

    def test_run_matches_recorded_digests(self, tmp_path):
        import hashlib

        self._skip_on_other_platform()
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path), "--out", str(out), "--seed", "0"]) == 0
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in self.DIGESTS}
        assert got == self.DIGESTS

    def test_compare_strategies_matches_recorded_digest(self, tmp_path):
        import hashlib

        self._skip_on_other_platform()
        text = TINY + (
            "strategies = none,deltaw,separate,precomputed_uniform,precomputed_dataset\n"
            "estimator = exact_subset(3)\n"
            "shuffle = true\n"
        )
        out = tmp_path / "out"
        assert main(["compare-strategies", "--config", write_config(tmp_path, text), "--out", str(out), "--seed", "0"]) == 0
        assert hashlib.sha256((out / "strategies.csv").read_bytes()).hexdigest() == self.STRATEGIES_CSV

    def test_sweep_matches_recorded_digest(self, tmp_path):
        import hashlib

        self._skip_on_other_platform()
        out = tmp_path / "out"
        assert main(["sweep", "--parameter", "lambda", "--config", write_config(tmp_path), "--out", str(out), "--seed", "0"]) == 0
        assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == self.SWEEP_CSV

    def test_pretrain_matches_recorded_digest(self, tmp_path):
        self._skip_on_other_platform()
        out = tmp_path / "out"
        assert main(["pretrain", "--config", write_config(tmp_path), "--out", str(out), "--seed", "0"]) == 0
        assert self._tree_digest(out) == self.PRETRAIN_TREE

    @pytest.mark.parametrize("estimator,strategy", sorted(DIAGNOSE_TREES))
    def test_diagnose_matches_recorded_digest(self, tmp_path, estimator, strategy):
        self._skip_on_other_platform()
        text = TINY + f"estimator = {estimator}\nstrategy = {strategy}\n"
        out = tmp_path / "out"
        assert main(["diagnose", "--config", write_config(tmp_path, text), "--out", str(out), "--seed", "0,7"]) == 0
        assert self._tree_digest(out) == self.DIAGNOSE_TREES[(estimator, strategy)]


def _tiny_outputs(out) -> dict:
    """Every file `run` and `diagnose` (exact, deltaw) write on TINY at seed 0, by "command/relative path"; each writes below out."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for command, text in (("run", TINY), ("diagnose", TINY + "estimator = exact\nstrategy = deltaw\n")):
        cfg = write_config(out, text, f"{command}.cfg")
        assert main([command, "--config", cfg, "--out", str(out / command), "--seed", "0", "--jobs", "1"]) == 0
        files.update({f"{command}/{p.relative_to(out / command).as_posix()}": p.read_text() for p in sorted((out / command).rglob("*")) if p.is_file()})
    return files


class TestAnyKernel:
    """TINY's `run` and `diagnose` outputs match a recorded text copy on any OpenBLAS kernel.

    Another kernel sums a matmul in another order, so the last bits of a
    loss, a norm or a Fisher move (by ~1e-15 relative) while every
    prediction, and so every accuracy, stays the same. The check: the
    files of accuracies and of values derived from accuracies alone match
    exactly, as does each run.jsonl row; every other number matches to a
    relative 1e-12, and the text around the numbers exactly.

    tiny_outputs.json holds _tiny_outputs, recorded on TestGoldenOutputs.PLATFORM:
        json.dump(_tiny_outputs(out), open("tests/tiny_outputs.json", "w"), indent=1, sort_keys=True)
    """

    RECORDED = Path(__file__).with_name("tiny_outputs.json")
    ACCURACY_FILES = ("accuracy_matrix.csv", "metrics.json", "references.csv")
    NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

    def _check(self, got: dict, want: dict) -> None:
        assert sorted(got) == sorted(want)
        for name, text in want.items():
            if name.rsplit("/", 1)[-1] in self.ACCURACY_FILES:
                assert got[name] == text, name
                continue
            assert self.NUMBER.split(got[name]) == self.NUMBER.split(text), name
            for g, w in zip(self.NUMBER.findall(got[name]), self.NUMBER.findall(text)):
                assert abs(float(g) - float(w)) <= 1e-12 * abs(float(w)), (name, g, w)
            if name.endswith("run.jsonl"):
                assert [json.loads(l)["row"] for l in got[name].splitlines()] == [json.loads(l)["row"] for l in text.splitlines()]

    def test_outputs_match_recorded_text(self, tmp_path):
        self._check(_tiny_outputs(tmp_path), json.loads(self.RECORDED.read_text()))

    def test_sandybridge_kernel_matches_recorded_text(self, tmp_path):
        # the kernel is fixed when OpenBLAS loads, so another one needs a process of its own
        import lrcl

        script = (
            "import json, sys\n"
            "from test_cli import TestGoldenOutputs, _tiny_outputs\n"
            "print(json.dumps({'core': TestGoldenOutputs._openblas_core(), 'outputs': _tiny_outputs(sys.argv[1])}))\n"
        )
        paths = [os.path.dirname(os.path.dirname(lrcl.__file__)), os.path.dirname(__file__), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, OPENBLAS_CORETYPE="SandyBridge", PYTHONPATH=os.pathsep.join(p for p in paths if p))
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
        if result["core"] != "Sandybridge":
            pytest.skip(f"OPENBLAS_CORETYPE=SandyBridge gave the core {result['core']!r} here")
        want = json.loads(self.RECORDED.read_text())
        self._check(result["outputs"], want)
        # the copy was recorded on another core, whose bits differ: the tolerance is what holds
        assert result["outputs"] != want
