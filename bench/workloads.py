"""The benchmark's workloads and the closed-form work each one asks for.

A workload is a config file plus a fixed sequence of CLI commands that
one client runs back to back. Step counts are derived from the config
keys and the documented defaults only, not from the program's own
config objects, so they stay valid while the program's internals change.
"""

from __future__ import annotations

from dataclasses import dataclass

# Documented defaults of every config key the step count depends on
# (README, "Config format").
DEFAULTS = {
    "epochs": 30,
    "batch_size": 64,
    "pretrain_mode": "train",
    "pretrain_epochs": 20,
    "num_tasks": 5,
    "classes_per_task": 4,
    "n_train": 200,
    "pretrain_classes": 8,
    "pretrain_n": 200,
    "strategies": "none,precomputed_dataset,separate,deltaw",
    "lambda_grid": "0,1e2,1e4,1e6,1e8",
    "gamma_grid": "0,0.3,0.5,0.9,1.0",
}

# Share of each pretraining class the trainer keeps for training; the rest
# is its held-out accuracy split.
PRETRAIN_TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    commands: tuple

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())


# Why each workload exists is in README.md beside this file. `epsilon = 0.1`
# is the calibrated desk profile (README of the package, "The desk profile").
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid",
            config={"epsilon": 0.1, "lambda": 10},
            commands=(("compare-strategies",), ("sweep", "--parameter", "lambda")),
        ),
        Workload(
            name="drift",
            config={"epsilon": 0.1, "epochs": 20, "gamma": 0.5, "lambda": 3, "estimator": "exact"},
            commands=(("diagnose",),),
        ),
        Workload(
            name="wide",
            config={
                "epsilon": 0.1,
                "lambda": 10,
                "dim": 64,
                "hidden_dims": "256,256",
                "classes_per_task": 8,
                "num_tasks": 4,
                "n_train": 150,
                "n_test": 50,
                "batch_size": 256,
                "epochs": 15,
                "pretrain_epochs": 10,
            },
            commands=(("run",),),
        ),
    )
}


# Files each command must leave in its output directory; `{seed}` is the
# seed passed with `--seed`.
EXPECTED_OUTPUTS = {
    "run": ("accuracy_matrix.csv", "metrics.json", "run.jsonl", "references.csv"),
    "compare-strategies": ("strategies.csv",),
    "sweep": ("sweep.csv",),
    "diagnose": ("drift_seed{seed}.csv", "fisher_snapshots_seed{seed}"),
}


def settings(workload: Workload) -> dict:
    """The workload's config with the documented defaults filled in."""
    merged = dict(DEFAULTS)
    merged.update(workload.config)
    return merged


def _batches(n: int, batch_size: int) -> int:
    return -(-n // batch_size)


def _count(value: str) -> int:
    return len([v for v in str(value).split(",") if v.strip()])


def pretrain_steps(cfg: dict) -> int:
    """Mini-batch updates of one backbone pretraining."""
    if cfg["pretrain_mode"] != "train":
        return 0
    n = int(cfg["pretrain_n"])
    per_class = max(1, min(n - 1, int(round(n * PRETRAIN_TRAIN_FRACTION))))
    batches = _batches(per_class * int(cfg["pretrain_classes"]), int(cfg["batch_size"]))
    return int(cfg["pretrain_epochs"]) * batches


def task_steps(cfg: dict) -> int:
    """Mini-batch updates of training one adapter on one task."""
    n = int(cfg["n_train"]) * int(cfg["classes_per_task"])
    return int(cfg["epochs"]) * _batches(n, int(cfg["batch_size"]))


@dataclass
class Work:
    """Closed-form call counts of one pass through a workload, one seed."""

    pretrains: int = 0
    continual_runs: int = 0
    reference_sets: int = 0
    drift_tracks: int = 0

    def steps(self, cfg: dict) -> int:
        """Optimizer steps: pretraining, continual and reference training."""
        return self.pretrains * pretrain_steps(cfg) + self.task_trainings(cfg) * task_steps(cfg)

    def task_trainings(self, cfg: dict) -> int:
        """Calls of the per-task training loop."""
        tasks = int(cfg["num_tasks"])
        return (self.continual_runs + self.reference_sets + self.drift_tracks) * tasks


def command_work(cfg: dict, command: tuple) -> Work:
    name = command[0]
    if name == "run":
        return Work(pretrains=2, continual_runs=1, reference_sets=1)
    if name == "compare-strategies":
        k = _count(cfg["strategies"])
        return Work(pretrains=1 + k, continual_runs=k, reference_sets=1)
    if name == "sweep":
        parameter = command[command.index("--parameter") + 1]
        k = _count(cfg[f"{parameter}_grid"])
        return Work(pretrains=1 + k, continual_runs=k, reference_sets=1)
    if name == "diagnose":
        return Work(pretrains=2, drift_tracks=2)
    raise ValueError(f"no closed form for command {name!r}")


def workload_steps(workload: Workload) -> int:
    cfg = settings(workload)
    return sum(command_work(cfg, command).steps(cfg) for command in workload.commands)
