"""Command-line harness: config parsing, output contracts, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lrcl.cli import (
    CONFIG_KEYS,
    ExperimentConfig,
    build_parser,
    experiment_config_from_raw,
    load_experiment_config,
    main,
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
        "estimator": ("exact_subset(3)", "train.estimator", EstimatorKind.exact_subset(3)),
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

    def test_bad_key_exits_2_without_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY + "bogus_key = 1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
        assert not out.exists()

    def test_numerical_failure_exits_3(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY.replace("lr = 0.05", "lr = 1e200"))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 3

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

        for name in ("run_many", "track_fisher_drift", "pretrain_report"):
            monkeypatch.setattr(cli_mod, name, no_compute)
        blocker = tmp_path / "plain_file"
        blocker.write_text("not a directory\n")
        cfg_path = write_config(tmp_path)
        for out in (blocker, blocker / "out", blocker / "deeper" / "out"):
            assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:")
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "line",
        ["estimator = exact_subset(abc)", "lambda = nan", "lr = inf", "b_init_scale = -inf",
         "lambda_grid = 0,nan", "gamma_grid = 0.5,inf", "pretrain_classes = -3",
         "pretrain_epochs = -5", "pretrain_n = -3", "pretrain_n = 1"],
    )
    def test_bad_value_exits_2_before_compute(self, tmp_path, capsys, monkeypatch, command, line):
        import lrcl.cli as cli_mod

        def no_compute(*args, **kwargs):
            raise AssertionError("compute started before the config was checked")

        for name in ("run_many", "track_fisher_drift", "pretrain_report"):
            monkeypatch.setattr(cli_mod, name, no_compute)
        key = line.split("=")[0].strip()
        kept = [l for l in TINY.splitlines() if l.split("=")[0].strip() != key]
        cfg_path = write_config(tmp_path, "\n".join(kept + [line]) + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not out.exists()

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

    @pytest.mark.parametrize("strategy", ["none", "precomputed_uniform", "precomputed_dataset"])
    def test_strategy_without_learned_fisher_exits_2_before_compute(self, tmp_path, capsys, monkeypatch, strategy):
        import lrcl.diagnostics as diagnostics_mod
        import lrcl.trainer as trainer_mod

        def no_compute(*args, **kwargs):
            raise AssertionError("compute started before the strategy was checked")

        monkeypatch.setattr(diagnostics_mod, "start_learner", no_compute)
        monkeypatch.setattr(trainer_mod, "prepare_base_network", no_compute)
        cfg_path = write_config(tmp_path, TINY + f"strategy = {strategy}\n")
        out = tmp_path / "diag"
        assert main(["diagnose", "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "deltaw" in err[0] and "separate" in err[0]
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
        real = trainer_mod.pretrain_report

        def spy(config, pretrain_set):
            calls.append(config.seed)
            return real(config, pretrain_set)

        monkeypatch.setattr(trainer_mod, "pretrain_report", spy)
        text = TINY + "lambda_grid = 0,1,10\ngamma_grid = 0,0.5\n"
        out = tmp_path / "out"
        assert main(command + ["--config", write_config(tmp_path, text), "--out", str(out), "--seed", "0,7"]) == 0
        assert calls == seeds


class TestJobs:
    """--jobs N spreads a command's trainings over N forked workers, byte for byte."""

    TEXT = TINY + (
        "strategies = none,deltaw,separate,precomputed_uniform,precomputed_dataset\n"
        "estimator = exact_subset(3)\n"
        "shuffle = true\n"
        "gamma_grid = 0,0.5,0.9\n"
    )

    @pytest.mark.parametrize(
        "command", [["run"], ["compare-strategies"], ["sweep", "--parameter", "gamma"], ["reference"]]
    )
    def test_outputs_identical_for_any_jobs(self, tmp_path, command):
        cfg_path = write_config(tmp_path, self.TEXT)
        trees = []
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"out{jobs}"
            assert main(command + ["--config", cfg_path, "--out", str(out), "--seed", "0,7", "--jobs", jobs]) == 0
            trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*")})
        assert trees[0] and trees[1] == trees[0] and trees[2] == trees[0]

    @pytest.mark.parametrize("command", [["run"], ["compare-strategies"], ["sweep", "--parameter", "lambda"]])
    def test_failure_line_independent_of_jobs(self, tmp_path, command):
        # The whole of stderr, numpy warnings included. A child process,
        # because pytest records warnings instead of printing them.
        import lrcl

        src = str(Path(lrcl.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cfg_path = write_config(tmp_path, TINY.replace("lr = 0.05", "lr = 1e200"))
        errs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"out{jobs}"
            argv = [sys.executable, "-m", "lrcl.cli", *command, "--config", cfg_path, "--out", str(out), "--jobs", jobs]
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 3
            errs.append(proc.stderr)
            assert not out.exists()
        assert errs == ["numerical failure: parameters left the finite range during Adam update\n"] * 2

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


class TestInputsUntouched:
    def test_commands_do_not_mutate_config_file(self, tmp_path):
        cfg_path = write_config(tmp_path)
        before = open(cfg_path, "rb").read()
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        assert open(cfg_path, "rb").read() == before


class TestGoldenOutputs:
    """`lrcl run` on TINY at seed 0 reproduces the recorded bytes.

    Floating-point bits depend on the numpy and BLAS builds, so the digests
    hold only on the platform they were recorded on.
    """

    PLATFORM = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}
    DIGESTS = {
        "accuracy_matrix.csv": "eb19a51e00aac5a8294f8721335b8c343b40924e2feec7124772c52a8d896ad2",
        "metrics.json": "90ee77f5102e278e2587754ae643671144ed105fc75712e4335feeecbb37bfde",
        "references.csv": "d8d30a6147e1ce8dd3878f12b7d80eab25902bb793044af268aaa11b987bf50d",
    }

    # strategies.csv of compare-strategies on TINY with all five
    # strategies, estimator = exact_subset(3) and shuffle = true
    STRATEGIES_CSV = "9184592910d6b1b3d24f17ca640107e9b9464232bd0bede0664e156bd8627ed4"

    def _skip_on_other_platform(self):
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        here = {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}
        if here != self.PLATFORM:
            pytest.skip(f"digests were recorded on {self.PLATFORM}, this is {here}")

    # every file diagnose writes on TINY at seeds 0 and 7: sha256 over the
    # sorted "relative/path sha256-of-bytes" lines
    DIAGNOSE_TREES = {
        ("exact", "deltaw"): "afb6834164e454f17d07a5c94573990252a9da62e09e578b506e5f020693e60c",
        ("sampled", "separate"): "790c78bc5a5cdaab74b9630151331ca779c1a9cddc6af23abe96eac7afa6c09f",
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

    @pytest.mark.parametrize("estimator,strategy", sorted(DIAGNOSE_TREES))
    def test_diagnose_matches_recorded_digest(self, tmp_path, estimator, strategy):
        import hashlib

        self._skip_on_other_platform()
        text = TINY + f"estimator = {estimator}\nstrategy = {strategy}\n"
        out = tmp_path / "out"
        assert main(["diagnose", "--config", write_config(tmp_path, text), "--out", str(out), "--seed", "0,7"]) == 0
        tree = hashlib.sha256()
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            tree.update(f"{path.relative_to(out).as_posix()} {hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
        assert tree.hexdigest() == self.DIAGNOSE_TREES[(estimator, strategy)]
