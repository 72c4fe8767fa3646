"""Experiment runner: single runs, strategy comparisons, sweeps, drift diagnostics.

Configuration is a flat ``key = value`` text file (``#`` starts a comment).
The keys are the fields of ``TrainConfig`` (``lambda`` names ``lam``; the
seed comes from ``seeds``), of ``StreamConfig``, and the run-control fields
of ``ExperimentConfig``; each value is parsed by its field's type. Unknown
keys and malformed values are rejected before any compute happens.

Every output file is written atomically (temp file, then rename) and uses
full-precision shortest round-trip decimals, so reruns with the same
config and seed are byte-identical where the contract requires it.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .diagnostics import REGIMES, track_fisher_drift
from .errors import ConfigError, EngineError, NumericalError, ParameterError, ParseError
from .fisher import EstimatorKind, save_fisher
from .metrics import avg_anytime, plasticity, stability, tradeoff
from .model import save_checkpoint
from .regularize import parse_strategy
from .tasks import StreamConfig, TaskStream
from .tensor import atomic_write, format_float
from .trainer import RunRecord, TrainConfig, pretrain_report, run_many

DEFAULT_STRATEGIES = ("none", "precomputed_dataset", "separate", "deltaw")
DEFAULT_LAMBDA_GRID = (0.0, 1e2, 1e4, 1e6, 1e8)
DEFAULT_GAMMA_GRID = (0.0, 0.3, 0.5, 0.9, 1.0)


@dataclass
class ExperimentConfig:
    """Training hyperparameters and stream shape, plus seeds and sweep grids.

    Every field of ``train`` and ``stream`` is a config key, except
    ``train.seed``: each run takes its seed from ``seeds``.
    """

    train: TrainConfig = field(default_factory=TrainConfig)
    stream: StreamConfig = field(default_factory=StreamConfig)
    seeds: tuple[int, ...] = (0,)
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES
    out_dir: str = "out"

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("need at least one seed")
        self.strategies = tuple(parse_strategy(s) for s in self.strategies)
        stream = self.stream
        if self.train.pretrain_mode == "train" and stream.pretrain_classes > 0 and not stream.csv_path:
            if stream.pretrain_n < 2:  # pretraining holds out a share of each class
                raise ConfigError(f"pretrain_n must be >= 2 when pretrain_mode = train, got {stream.pretrain_n}")

    def train_config(self, seed: int, **overrides) -> TrainConfig:
        return replace(self.train, seed=seed, **overrides)

    def build_stream(self, seed: int) -> TaskStream:
        return self.stream.build_stream(seed)


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


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


_SCALAR_PARSERS = {int: int, float: _parse_float, bool: _parse_bool, str: str, EstimatorKind: EstimatorKind.parse}


def _parser(annotation):
    """Value parser for a field annotated T, T | None or tuple[T, ...]."""
    if typing.get_origin(annotation) is tuple:
        item = _SCALAR_PARSERS[typing.get_args(annotation)[0]]
        return lambda text: tuple(item(v.strip()) for v in text.split(",") if v.strip())
    kinds = [a for a in typing.get_args(annotation) if a is not type(None)]
    return _SCALAR_PARSERS[kinds[0] if kinds else annotation]


def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _config_keys() -> dict:
    """key -> (section, field name, parser); section None is run control."""
    keys = {}
    for name, hint in _field_types(ExperimentConfig).items():
        if not is_dataclass(hint):
            keys[name] = (None, name, _parser(hint))
            continue
        for inner, inner_hint in _field_types(hint).items():
            if inner != "seed":
                keys["lambda" if inner == "lam" else inner] = (name, inner, _parser(inner_hint))
    return keys


CONFIG_KEYS = _config_keys()


def experiment_config_from_raw(raw: dict) -> ExperimentConfig:
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    sections = {"train": {}, "stream": {}, None: {}}
    for key, value in raw.items():
        section, name, parse = CONFIG_KEYS[key]
        try:
            sections[section][name] = parse(value)
        except (ValueError, ParameterError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}")
    return ExperimentConfig(
        train=TrainConfig(**sections["train"]),
        stream=StreamConfig(**sections["stream"]),
        **sections[None],
    )


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


def cmd_run(cfg: ExperimentConfig, jobs: int) -> int:
    seed = cfg.seeds[0]
    config = cfg.train_config(seed)
    refs, (record,) = run_many(cfg.build_stream(seed), config, [config], jobs)
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


def _run_grid(cfg: ExperimentConfig, grid_key: str, columns: list[str], runs: list, filename: str, jobs: int) -> int:
    """One stream and one reference set per seed, then one continual run per override.

    run_many shares one pretrained backbone per pretrain_key among the
    references and the runs of a seed.

    runs holds (row label, TrainConfig overrides) pairs; each output row is
    the label (one value per column), the seed and the run's metrics.
    """
    if not runs:
        raise ConfigError(f"{grid_key} is empty")
    rows = [",".join(columns + ["seed", "final_acc", "avg", "stability", "plasticity", "tradeoff"])]
    for seed in cfg.seeds:
        configs = [cfg.train_config(seed, **overrides) for _, overrides in runs]  # validated before compute
        refs, records = run_many(cfg.build_stream(seed), cfg.train_config(seed), configs, jobs)
        for (label, _), record in zip(runs, records):
            rows.append(_metrics_row(label + [str(seed)], compute_metrics(record, refs)))
    os.makedirs(cfg.out_dir, exist_ok=True)
    atomic_write(os.path.join(cfg.out_dir, filename), "\n".join(rows) + "\n")
    return 0


def cmd_compare_strategies(cfg: ExperimentConfig, jobs: int) -> int:
    runs = [([strategy], {"strategy": strategy}) for strategy in cfg.strategies]
    return _run_grid(cfg, "strategies", ["strategy"], runs, "strategies.csv", jobs)


_SWEEPS = {"lambda": ("lam", "lambda_grid"), "gamma": ("gamma", "gamma_grid")}


def cmd_sweep(cfg: ExperimentConfig, parameter: str, jobs: int) -> int:
    if parameter not in _SWEEPS:
        raise ConfigError(f"sweep parameter must be lambda or gamma, got {parameter!r}")
    name, grid_key = _SWEEPS[parameter]
    runs = [([parameter, format_float(value)], {name: value}) for value in getattr(cfg, grid_key)]
    return _run_grid(cfg, grid_key, ["parameter", "value"], runs, "sweep.csv", jobs)


def cmd_diagnose(cfg: ExperimentConfig) -> int:
    tracked = list(range(min(3, cfg.stream.num_tasks)))
    for seed in cfg.seeds:
        stream = cfg.build_stream(seed)
        config = cfg.train_config(seed)
        logs, rows, _ = track_fisher_drift(config, stream, tracked, REGIMES)
        lines = ["task_trained,task_data,regime,norm_ratio,spearman,cosine"]
        for r in rows:
            values = [format_float(v) for v in (r.norm_ratio, r.spearman, r.cosine)]
            lines.append(",".join([str(r.task_trained), str(r.task_data), r.regime] + values))
        for t, i, snap in logs["rehearsal_free"].entries:
            if t == i:
                snap_dir = os.path.join(cfg.out_dir, f"fisher_snapshots_seed{seed}", f"task{i}")
                save_fisher(snap, snap_dir, kind_label=config.estimator.label(), task_index=i)
        os.makedirs(cfg.out_dir, exist_ok=True)
        atomic_write(os.path.join(cfg.out_dir, f"drift_seed{seed}.csv"), "\n".join(lines) + "\n")
    return 0


def cmd_reference(cfg: ExperimentConfig, jobs: int) -> int:
    rows = ["seed,task,ref_accuracy"]
    for seed in cfg.seeds:
        refs, _ = run_many(cfg.build_stream(seed), cfg.train_config(seed), [], jobs)
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
    os.makedirs(cfg.out_dir, exist_ok=True)
    save_checkpoint(net, os.path.join(cfg.out_dir, "checkpoint"), seed=seed)
    atomic_write(
        os.path.join(cfg.out_dir, "pretrain.json"),
        json.dumps({"seed": seed, "test_accuracy": acc}, indent=2, sort_keys=True) + "\n",
    )
    return 0


# the commands whose trainings run_many spreads over --jobs workers
_POOLED_COMMANDS = ("run", "compare-strategies", "sweep", "reference")


def _jobs(text: str | None) -> int:
    """--jobs N; by default one worker per usable CPU, or 1 where fork is missing."""
    if text is None:
        if not hasattr(os, "fork"):
            return 1
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:
            return os.cpu_count() or 1
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ConfigError(f"bad --jobs value {text!r}: expected an integer >= 1")
    if jobs > 1 and not hasattr(os, "fork"):
        raise ConfigError("--jobs above 1 needs the fork start method, which this platform lacks")
    return jobs


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
        if name in _POOLED_COMMANDS:
            p.add_argument("--jobs", default=None, help="worker processes (default: usable CPUs)")
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
        jobs = _jobs(args.jobs) if args.command in _POOLED_COMMANDS else 1
        _check_out_dir(cfg.out_dir)

        # the program reports NaN/Inf itself, in one line; numpy's warnings
        # would add lines that depend on --jobs (forked workers inherit this)
        with np.errstate(all="ignore"):
            if args.command == "run":
                return cmd_run(cfg, jobs)
            if args.command == "compare-strategies":
                return cmd_compare_strategies(cfg, jobs)
            if args.command == "sweep":
                return cmd_sweep(cfg, args.parameter, jobs)
            if args.command == "diagnose":
                return cmd_diagnose(cfg)
            if args.command == "reference":
                return cmd_reference(cfg, jobs)
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
