"""Experiment runner: single runs, strategy comparisons, sweeps, drift diagnostics.

Configuration is a flat ``key = value`` text file (``#`` starts a comment);
unknown keys are rejected before any compute happens. Every output file is
written atomically (temp file, then rename) and uses full-precision
shortest round-trip decimals, so reruns with the same config and seed are
byte-identical where the contract requires it.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace

from .diagnostics import REGIMES, track_fisher_drift
from .errors import ConfigError, EngineError, NumericalError, ParseError
from .fisher import EstimatorKind, save_fisher
from .metrics import avg_anytime, plasticity, stability, tradeoff
from .model import save_checkpoint
from .regularize import parse_strategy
from .tasks import TaskStream, gen_gaussian_stream, load_csv_stream
from .tensor import atomic_write, format_float
from .trainer import (
    RunRecord,
    TrainConfig,
    prepare_base_network,
    pretrain_report,
    reference_accuracies,
    run_continual,
)

DEFAULT_STRATEGIES = ("none", "precomputed_dataset", "separate", "deltaw")
DEFAULT_LAMBDA_GRID = (0.0, 1e2, 1e4, 1e6, 1e8)
DEFAULT_GAMMA_GRID = (0.0, 0.3, 0.5, 0.9, 1.0)


@dataclass
class ExperimentConfig:
    """Training hyperparameters plus stream shape, seeds and sweep grids."""

    # training (mirrors TrainConfig)
    epochs: int = 30
    batch_size: int = 64
    lr: float = 0.05
    head_lr: float = 1e-6
    lam: float = 1e7
    gamma: float = 0.9
    rank: int = 4
    strategy: str = "deltaw"
    estimator: str = "empirical"
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    lr_schedule: str = "cosine"
    shuffle: bool = False
    hidden_dims: tuple[int, ...] = (48, 48)
    b_init_scale: float = 1.0
    w0_identity_scale: float = 0.5
    w0_noise_scale: float = 0.3
    w0_feature_gain: float = 8.0
    pretrain_mode: str = "train"
    pretrain_epochs: int = 20
    pretrain_lr: float = 0.005
    # stream
    num_tasks: int = 5
    classes_per_task: int = 4
    dim: int = 16
    radius: float = 3.0
    sigma: float = 1.0
    n_train: int = 200
    n_test: int = 100
    pretrain_classes: int = 8
    pretrain_n: int = 200
    csv_path: str | None = None
    # run control
    seeds: tuple[int, ...] = (0,)
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES
    out_dir: str = "out"

    def train_config(self, seed: int, **overrides) -> TrainConfig:
        cfg = TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            head_lr=self.head_lr,
            lam=self.lam,
            gamma=self.gamma,
            rank=self.rank,
            strategy=self.strategy,
            estimator=EstimatorKind.parse(self.estimator),
            seed=seed,
            beta1=self.beta1,
            beta2=self.beta2,
            epsilon=self.epsilon,
            lr_schedule=self.lr_schedule,
            shuffle=self.shuffle,
            hidden_dims=self.hidden_dims,
            b_init_scale=self.b_init_scale,
            w0_identity_scale=self.w0_identity_scale,
            w0_noise_scale=self.w0_noise_scale,
            w0_feature_gain=self.w0_feature_gain,
            pretrain_mode=self.pretrain_mode,
            pretrain_epochs=self.pretrain_epochs,
            pretrain_lr=self.pretrain_lr,
        )
        return replace(cfg, **overrides) if overrides else cfg

    def build_stream(self, seed: int) -> TaskStream:
        if self.csv_path:
            return load_csv_stream(self.csv_path, self.num_tasks, seed)
        return gen_gaussian_stream(
            num_tasks=self.num_tasks,
            classes_per_task=self.classes_per_task,
            dim=self.dim,
            radius=self.radius,
            sigma=self.sigma,
            n_train=self.n_train,
            n_test=self.n_test,
            seed=seed,
            pretrain_classes=self.pretrain_classes,
            pretrain_n=self.pretrain_n,
        )


_INT_KEYS = {
    "epochs", "batch_size", "rank", "pretrain_epochs", "num_tasks",
    "classes_per_task", "dim", "n_train", "n_test", "pretrain_classes", "pretrain_n",
}
_FLOAT_KEYS = {
    "lr", "head_lr", "lambda", "gamma", "beta1", "beta2", "epsilon",
    "radius", "sigma", "b_init_scale", "w0_identity_scale", "w0_noise_scale", "w0_feature_gain", "pretrain_lr",
}
_BOOL_KEYS = {"shuffle"}
_STR_KEYS = {"strategy", "estimator", "lr_schedule", "pretrain_mode", "csv_path", "out_dir"}
_INT_LIST_KEYS = {"seeds", "hidden_dims"}
_FLOAT_LIST_KEYS = {"lambda_grid", "gamma_grid"}
_STR_LIST_KEYS = {"strategies"}

_ALL_KEYS = (
    _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _STR_KEYS
    | _INT_LIST_KEYS | _FLOAT_LIST_KEYS | _STR_LIST_KEYS
)


def parse_config_text(text: str) -> dict:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", line=lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ConfigError(f"duplicate config key {key!r} (line {lineno})")
        raw[key] = value
    return raw


def _parse_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be true or false, got {value!r}")


def experiment_config_from_raw(raw: dict) -> ExperimentConfig:
    unknown = set(raw) - _ALL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        name = "lam" if key == "lambda" else key
        try:
            if key in _INT_KEYS:
                kwargs[name] = int(value)
            elif key in _FLOAT_KEYS:
                kwargs[name] = float(value)
            elif key in _BOOL_KEYS:
                kwargs[name] = _parse_bool(value, key)
            elif key in _INT_LIST_KEYS:
                kwargs[name] = tuple(int(v.strip()) for v in value.split(",") if v.strip())
            elif key in _FLOAT_LIST_KEYS:
                kwargs[name] = tuple(float(v.strip()) for v in value.split(",") if v.strip())
            elif key in _STR_LIST_KEYS:
                kwargs[name] = tuple(parse_strategy(v) for v in value.split(",") if v.strip())
            else:
                kwargs[name] = value
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}")
    cfg = ExperimentConfig(**kwargs)
    _validate_experiment_config(cfg)
    return cfg


def _validate_experiment_config(cfg: ExperimentConfig) -> None:
    if not cfg.seeds:
        raise ConfigError("need at least one seed")
    cfg.train_config(cfg.seeds[0])  # delegate hyperparameter validation
    parse_strategy(cfg.strategy)
    for s in cfg.strategies:
        parse_strategy(s)
    EstimatorKind.parse(cfg.estimator)


def load_experiment_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    return experiment_config_from_raw(parse_config_text(text))


def _check_out_dir(path: str) -> None:
    """Fail before any compute when path cannot become the output directory."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"cannot use {path!r} as output directory: {probe!r} is not a directory")


def accuracy_matrix_csv(record: RunRecord) -> str:
    lines = [",".join(format_float(v) for v in row) for row in record.acc_matrix.rows]
    return "\n".join(lines) + "\n"


def compute_metrics(record: RunRecord, refs: list[float]) -> dict:
    m = record.acc_matrix
    abar, avg = avg_anytime(m)
    final_acc = abar[-1]
    stab = stability(m) if m.T >= 2 else None
    plas = plasticity(m, refs)
    trade = tradeoff(stab, plas) if stab is not None else None
    return {
        "final_acc": final_acc,
        "avg": avg,
        "stability": stab,
        "plasticity": plas,
        "tradeoff": trade,
        "per_task_abar": abar,
    }


def _metrics_row(prefix: list[str], metrics: dict) -> str:
    ordered = [metrics["final_acc"], metrics["avg"], metrics["stability"],
               metrics["plasticity"], metrics["tradeoff"]]
    return ",".join(prefix + [format_float(v) if v is not None else "" for v in ordered])


def cmd_run(cfg: ExperimentConfig) -> int:
    seed = cfg.seeds[0]
    stream = cfg.build_stream(seed)
    config = cfg.train_config(seed)
    record = run_continual(config, stream)
    refs = reference_accuracies(prepare_base_network(config, stream), config, stream)
    metrics = compute_metrics(record, refs)

    os.makedirs(cfg.out_dir, exist_ok=True)
    atomic_write(os.path.join(cfg.out_dir, "accuracy_matrix.csv"), accuracy_matrix_csv(record))
    atomic_write(
        os.path.join(cfg.out_dir, "metrics.json"),
        json.dumps(metrics, indent=2, sort_keys=True) + "\n",
    )
    jsonl = "".join(json.dumps(log, sort_keys=True) + "\n" for log in record.task_logs)
    atomic_write(os.path.join(cfg.out_dir, "run.jsonl"), jsonl)
    ref_lines = ["task,ref_accuracy"] + [f"{i},{format_float(r)}" for i, r in enumerate(refs)]
    atomic_write(os.path.join(cfg.out_dir, "references.csv"), "\n".join(ref_lines) + "\n")
    return 0


def cmd_compare_strategies(cfg: ExperimentConfig) -> int:
    rows = ["strategy,seed,final_acc,avg,stability,plasticity,tradeoff"]
    for seed in cfg.seeds:
        stream = cfg.build_stream(seed)
        base_cfg = cfg.train_config(seed)
        refs = reference_accuracies(prepare_base_network(base_cfg, stream), base_cfg, stream)
        for strategy in cfg.strategies:
            config = cfg.train_config(seed, strategy=strategy)
            record = run_continual(config, stream)
            metrics = compute_metrics(record, refs)
            rows.append(_metrics_row([strategy, str(seed)], metrics))
    os.makedirs(cfg.out_dir, exist_ok=True)
    atomic_write(os.path.join(cfg.out_dir, "strategies.csv"), "\n".join(rows) + "\n")
    return 0


def cmd_sweep(cfg: ExperimentConfig, parameter: str) -> int:
    if parameter == "lambda":
        grid = cfg.lambda_grid
    elif parameter == "gamma":
        grid = cfg.gamma_grid
    else:
        raise ConfigError(f"sweep parameter must be lambda or gamma, got {parameter!r}")
    if not grid:
        raise ConfigError("sweep grid is empty")

    rows = ["parameter,value,seed,final_acc,avg,stability,plasticity,tradeoff"]
    for seed in cfg.seeds:
        stream = cfg.build_stream(seed)
        base_cfg = cfg.train_config(seed)
        refs = reference_accuracies(prepare_base_network(base_cfg, stream), base_cfg, stream)
        for value in grid:
            override = {"lam": value} if parameter == "lambda" else {"gamma": value}
            config = cfg.train_config(seed, **override)
            record = run_continual(config, stream)
            metrics = compute_metrics(record, refs)
            rows.append(_metrics_row([parameter, format_float(value), str(seed)], metrics))
    os.makedirs(cfg.out_dir, exist_ok=True)
    atomic_write(os.path.join(cfg.out_dir, "sweep.csv"), "\n".join(rows) + "\n")
    return 0


def cmd_diagnose(cfg: ExperimentConfig) -> int:
    tracked = list(range(min(3, cfg.num_tasks)))
    os.makedirs(cfg.out_dir, exist_ok=True)
    for seed in cfg.seeds:
        stream = cfg.build_stream(seed)
        config = cfg.train_config(seed)
        lines = ["task_trained,task_data,regime,norm_ratio,spearman,cosine"]
        for regime in REGIMES:
            log, rows, _ = track_fisher_drift(config, stream, tracked, regime)
            for r in rows:
                lines.append(
                    ",".join(
                        [
                            str(r.task_trained),
                            str(r.task_data),
                            r.regime,
                            format_float(r.norm_ratio),
                            format_float(r.spearman),
                            format_float(r.cosine),
                        ]
                    )
                )
            if regime == "rehearsal_free":
                for t, i, snap in log.entries:
                    if t == i:
                        snap_dir = os.path.join(cfg.out_dir, f"fisher_snapshots_seed{seed}", f"task{i}")
                        save_fisher(snap, snap_dir, kind_label=config.estimator.label(), task_index=i)
        atomic_write(os.path.join(cfg.out_dir, f"drift_seed{seed}.csv"), "\n".join(lines) + "\n")
    return 0


def cmd_reference(cfg: ExperimentConfig) -> int:
    rows = ["seed,task,ref_accuracy"]
    for seed in cfg.seeds:
        stream = cfg.build_stream(seed)
        config = cfg.train_config(seed)
        refs = reference_accuracies(prepare_base_network(config, stream), config, stream)
        rows.extend(f"{seed},{i},{format_float(r)}" for i, r in enumerate(refs))
    os.makedirs(cfg.out_dir, exist_ok=True)
    atomic_write(os.path.join(cfg.out_dir, "references.csv"), "\n".join(rows) + "\n")
    return 0


def cmd_pretrain(cfg: ExperimentConfig) -> int:
    seed = cfg.seeds[0]
    stream = cfg.build_stream(seed)
    if stream.pretrain is None:
        raise ConfigError("stream has no pretraining classes")
    config = cfg.train_config(seed)
    net, acc = pretrain_report(config, stream.pretrain)
    net.head.V = None
    net.head.b = None
    net.head.class_ids = []
    os.makedirs(cfg.out_dir, exist_ok=True)
    save_checkpoint(net, os.path.join(cfg.out_dir, "checkpoint"), seed=seed)
    atomic_write(
        os.path.join(cfg.out_dir, "pretrain.json"),
        json.dumps({"seed": seed, "test_accuracy": acc}, indent=2, sort_keys=True) + "\n",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrcl",
        description="Continual learning with an importance-regularized shared low-rank adapter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "compare-strategies", "sweep", "diagnose", "reference", "pretrain"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to a key = value config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", default=None, help="seed or comma-separated seeds (overrides config)")
        if name == "sweep":
            p.add_argument("--parameter", default="lambda", choices=("lambda", "gamma"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_experiment_config(args.config)
        if args.out is not None:
            cfg.out_dir = args.out
        if args.seed is not None:
            try:
                cfg.seeds = tuple(int(s) for s in str(args.seed).split(",") if s.strip())
            except ValueError:
                raise ConfigError(f"bad --seed value {args.seed!r}")
            if not cfg.seeds:
                raise ConfigError("--seed produced no seeds")
        _check_out_dir(cfg.out_dir)

        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "compare-strategies":
            return cmd_compare_strategies(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.parameter)
        if args.command == "diagnose":
            return cmd_diagnose(cfg)
        if args.command == "reference":
            return cmd_reference(cfg)
        if args.command == "pretrain":
            return cmd_pretrain(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
