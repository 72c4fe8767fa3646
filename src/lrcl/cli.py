"""Experiment runner: single runs, strategy comparisons, sweeps, drift diagnostics.

Configuration is a flat ``key = value`` text file (``#`` starts a comment).
The keys are the fields of ``TrainConfig`` (``lambda`` names ``lam``; the
seed comes from ``seeds``), of ``StreamConfig``, and the run-control fields
of ``ExperimentConfig``; each value is parsed by its field's type, a
strategy as a strategy name. Unknown keys and malformed values are
rejected before any compute happens.

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
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .diagnostics import check_drift_strategy, track_fisher_drift
from .errors import ConfigError, EngineError, MetricError, NumericalError, ParameterError, ParseError
from .fisher import EstimatorKind, UpdateFisher, save_fisher
from .metrics import avg_anytime, plasticity, stability, tradeoff
from .model import checkpoint_names, save_checkpoint
from .regularize import parse_strategy
from .tasks import StreamConfig, TaskStream
from .tensor import atomic_write, format_float, state_files
from .trainer import RunRecord, TrainConfig, pretrain, run_many

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
        outside = [s for s in self.seeds if not 0 <= s < 2**64]
        if outside:  # RngState keeps a seed's low 64 bits, so such a seed would run as another one
            raise ConfigError(f"seed {outside[0]} lies outside [0, 2^64)")
        repeated = [s for s in self.seeds if self.seeds.count(s) > 1]
        if repeated:  # each seed's rows would be computed and written again
            raise ConfigError(f"seed {repeated[0]} appears more than once in seeds")
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
    value = float(text) + 0.0  # -0 reads as 0, so a grid cannot hold both
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


_SCALAR_PARSERS = {int: int, float: _parse_float, bool: _parse_bool, str: str, EstimatorKind: EstimatorKind.parse}


def _parser(annotation, name: str):
    """Value parser for field name, annotated T, T | None or tuple[T, ...]; a strategy name is parsed here, so a bad one names its key."""
    if typing.get_origin(annotation) is tuple:
        item = _parser(typing.get_args(annotation)[0], name)
        # every entry is parsed, so an empty one is refused; an empty value is ()
        return lambda text: tuple(item(v.strip()) for v in text.split(",")) if text.strip() else ()
    kinds = [a for a in typing.get_args(annotation) if a is not type(None)]
    return parse_strategy if name in ("strategy", "strategies") else _SCALAR_PARSERS[kinds[0] if kinds else annotation]


def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _config_keys() -> dict:
    """key -> (section, field name, parser); section None is run control."""
    keys = {}
    for name, hint in _field_types(ExperimentConfig).items():
        if not is_dataclass(hint):
            keys[name] = (None, name, _parser(hint, name))
            continue
        for inner, inner_hint in _field_types(hint).items():
            if inner != "seed":
                keys["lambda" if inner == "lam" else inner] = (name, inner, _parser(inner_hint, inner))
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


def load_experiment_config(path: str | None, **overrides: str | None) -> ExperimentConfig:
    """The file's keys (none without a path), each override that is not None replacing its key's text before any is parsed."""
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is not part of the first key
                raw = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}")
    raw.update((key, value) for key, value in overrides.items() if value is not None)
    return experiment_config_from_raw(raw)


# the state directories: diagnose's Fisher snapshot of each tracked task per seed, and pretrain's network
_SNAPSHOT, _CHECKPOINT = os.path.join("fisher_snapshots_seed{seed}", "task{task}"), "checkpoint"


def _tracked(cfg: ExperimentConfig) -> list[int]:
    """The tasks diagnose tracks and snapshots: the first ones, up to three."""
    return list(range(min(3, cfg.stream.num_tasks)))


def output_files(cfg: ExperimentConfig, command: str) -> list[str]:
    """Every file command writes, relative to cfg.out_dir: its outputs for each seed, then its state directories' files."""
    row = COMMANDS[command]
    return [name.format(seed=seed) for name in row.outputs for seed in cfg.seeds] + row.state(cfg)


def _check_out_dir(cfg: ExperimentConfig, command: str) -> None:
    """Fail before any compute when cfg.out_dir cannot become the output directory, or a file command writes there, or a directory it goes in, is taken."""
    probe = os.path.abspath(cfg.out_dir)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"cannot use {cfg.out_dir!r} as output directory: {probe!r} is not a directory")
    for name in output_files(cfg, command):
        parts = name.split(os.sep)
        for path in (os.path.join(cfg.out_dir, *parts[:k]) for k in range(1, len(parts))):  # the directories it goes in
            if os.path.exists(path) and not os.path.isdir(path):
                raise ConfigError(f"cannot write {path}: Not a directory")
        if os.path.isdir(target := os.path.join(cfg.out_dir, name)):
            raise ConfigError(f"cannot write {target}: Is a directory")


@contextmanager
def _writing(out_dir: str):
    """Create out_dir; an output that cannot be written is one error line (exit 2), not a traceback."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        yield
    except OSError as exc:  # only the writes: a failed fork is no configuration problem
        raise ConfigError(f"cannot write {exc.filename2 or exc.filename or out_dir}: {exc.strerror or exc}") from exc


def compute_metrics(record: RunRecord, refs: list[float], run: str) -> dict:
    rows = record.rows
    abar, avg = avg_anytime(rows)
    final_acc = abar[-1]
    stab = stability(rows) if len(rows) >= 2 else None
    try:
        plas = plasticity(rows, refs)
        trade = tradeoff(stab, plas) if stab is not None else None
    except MetricError as exc:  # the config passed every check: training left a reference accuracy, or both scores, at 0
        raise NumericalError(f"metrics of {run}: {exc}") from exc
    return {"final_acc": final_acc, "avg": avg, "stability": stab, "plasticity": plas, "tradeoff": trade, "per_task_abar": abar}


def cmd_run(cfg: ExperimentConfig, outputs: tuple[str, ...], jobs: int) -> None:
    seed = cfg.seeds[0]
    config = cfg.train_config(seed)
    refs, (record,) = run_many(cfg.build_stream(seed), config, [config], jobs)
    metrics = compute_metrics(record, refs, f"the run of seed {seed}")

    jsonl = "".join(json.dumps(log, sort_keys=True) + "\n" for log in record.task_logs)
    ref_lines = ["task,ref_accuracy"] + [f"{i},{format_float(r)}" for i, r in enumerate(refs)]
    matrix = "".join(",".join(format_float(v) for v in row) + "\n" for row in record.rows)
    texts = [matrix, json.dumps(metrics, indent=2, sort_keys=True) + "\n", jsonl, "\n".join(ref_lines) + "\n"]
    with _writing(cfg.out_dir):
        for name, text in zip(outputs, texts):
            atomic_write(os.path.join(cfg.out_dir, name), text)


def _run_grid(cfg: ExperimentConfig, grid_key: str, columns: list[str], runs: list, filename: str, jobs: int) -> None:
    """One stream and one reference set per seed, then one continual run per override.

    run_many pretrains one backbone per seed and shares it among the
    references and the runs of that seed.

    runs holds (row label, overrides of trainer.VARIED fields) pairs; each
    output row is the label (one value per column), the seed and the run's metrics.
    """
    if not runs:
        raise ConfigError(f"{grid_key} is empty")
    labels = [" ".join(label) for label, _ in runs]
    if len(set(labels)) < len(labels):  # a repeat would train again, into a duplicate row
        raise ConfigError(f"{next(x for x in labels if labels.count(x) > 1)} appears more than once in {grid_key}")
    keys = ["final_acc", "avg", "stability", "plasticity", "tradeoff"]
    rows = [",".join(columns + ["seed"] + keys)]
    for seed in cfg.seeds:
        configs = [cfg.train_config(seed, **overrides) for _, overrides in runs]  # validated before compute
        refs, records = run_many(cfg.build_stream(seed), cfg.train_config(seed), configs, jobs)
        for (label, _), record in zip(runs, records):
            metrics = compute_metrics(record, refs, f"the {' '.join(label)} run of seed {seed}")
            rows.append(",".join(label + [str(seed)] + [format_float(metrics[k]) if metrics[k] is not None else "" for k in keys]))
    with _writing(cfg.out_dir):
        atomic_write(os.path.join(cfg.out_dir, filename), "\n".join(rows) + "\n")


def cmd_compare_strategies(cfg: ExperimentConfig, outputs: tuple[str, ...], jobs: int) -> None:
    runs = [([strategy], {"strategy": strategy}) for strategy in cfg.strategies]
    _run_grid(cfg, "strategies", ["strategy"], runs, outputs[0], jobs)


_SWEEPS = {"lambda": ("lam", "lambda_grid"), "gamma": ("gamma", "gamma_grid")}


def cmd_sweep(cfg: ExperimentConfig, outputs: tuple[str, ...], jobs: int, parameter: str) -> None:
    name, grid_key = _SWEEPS[parameter]
    runs = [([parameter, format_float(value)], {name: value}) for value in getattr(cfg, grid_key)]
    _run_grid(cfg, grid_key, ["parameter", "value"], runs, outputs[0], jobs)


def cmd_diagnose(cfg: ExperimentConfig, outputs: tuple[str, ...], jobs: int) -> None:
    check_drift_strategy(cfg.train.strategy)  # before any seed's stream is built
    for seed in cfg.seeds:
        config = cfg.train_config(seed)
        rows, snapshots, _ = track_fisher_drift(config, cfg.build_stream(seed), _tracked(cfg), jobs)
        lines = ["task_trained,task_data,regime,norm_ratio,spearman,cosine"]
        for r in rows:
            values = [format_float(v) for v in (r.norm_ratio, r.spearman, r.cosine)]
            lines.append(",".join([str(r.task_trained), str(r.task_data), r.regime] + values))
        with _writing(cfg.out_dir):
            for i, snap in snapshots.items():
                save_fisher(snap, os.path.join(cfg.out_dir, _SNAPSHOT.format(seed=seed, task=i)), kind_label=config.estimator.label(), task_index=i)
            atomic_write(os.path.join(cfg.out_dir, outputs[0].format(seed=seed)), "\n".join(lines) + "\n")


def cmd_reference(cfg: ExperimentConfig, outputs: tuple[str, ...], jobs: int) -> None:
    rows = ["seed,task,ref_accuracy"]
    for seed in cfg.seeds:
        refs, _ = run_many(cfg.build_stream(seed), cfg.train_config(seed), [], jobs)
        rows.extend(f"{seed},{i},{format_float(r)}" for i, r in enumerate(refs))
    with _writing(cfg.out_dir):
        atomic_write(os.path.join(cfg.out_dir, outputs[0]), "\n".join(rows) + "\n")


def cmd_pretrain(cfg: ExperimentConfig, outputs: tuple[str, ...]) -> None:
    seed = cfg.seeds[0]
    stream = cfg.build_stream(seed)
    if stream.pretrain is None:
        raise ConfigError("stream has no pretraining classes")
    net, acc = pretrain(cfg.train_config(seed), stream)
    with _writing(cfg.out_dir):
        save_checkpoint(net, os.path.join(cfg.out_dir, _CHECKPOINT), seed=seed)
        atomic_write(os.path.join(cfg.out_dir, outputs[0]), json.dumps({"seed": seed, "test_accuracy": acc}, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class Command:
    """A row of COMMANDS: handler(cfg, outputs, **options) writes outputs directly under the output directory ({seed}: each seed).

    state(cfg) lists its state directories' files. A pooled command takes --jobs, passed on as jobs: run_many spreads its trainings
    over the workers, and diagnose measures drift on them while it trains. options are its own flags, argparse keywords by name.
    """

    handler: typing.Callable[..., None]
    outputs: tuple[str, ...]
    pooled: bool = True
    state: typing.Callable[[ExperimentConfig], list[str]] = lambda cfg: []
    options: dict = field(default_factory=dict)


COMMANDS = {
    "run": Command(cmd_run, ("accuracy_matrix.csv", "metrics.json", "run.jsonl", "references.csv")),
    "compare-strategies": Command(cmd_compare_strategies, ("strategies.csv",)),
    "sweep": Command(cmd_sweep, ("sweep.csv",), options={"parameter": {"default": "lambda", "choices": tuple(_SWEEPS)}}),
    "diagnose": Command(cmd_diagnose, ("drift_seed{seed}.csv",), state=lambda cfg: [
        f for seed in cfg.seeds for i in _tracked(cfg) for f in state_files(_SNAPSHOT.format(seed=seed, task=i), UpdateFisher.names(len(cfg.train.hidden_dims)))]),
    "reference": Command(cmd_reference, ("references.csv",)),
    "pretrain": Command(cmd_pretrain, ("pretrain.json",), pooled=False, state=lambda cfg: state_files(_CHECKPOINT, checkpoint_names(len(cfg.train.hidden_dims)))),
}


def _jobs(text: str | None) -> int:
    """--jobs N; by default one worker per usable CPU, or 1 where fork is missing."""
    if text is None:
        if not hasattr(os, "fork"):
            return 1
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
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
    parser = argparse.ArgumentParser(prog="lrcl", description="Continual learning with an importance-regularized shared low-rank adapter.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to a key = value config file")
        p.add_argument("--out", default=None, help="output directory (overrides out_dir)")
        p.add_argument("--seed", default=None, help="seed or comma-separated seeds (overrides seeds)")
        for option, kwargs in command.options.items():
            p.add_argument(f"--{option}", **kwargs)
        if command.pooled:
            p.add_argument("--jobs", default=None, help="worker processes (default: usable CPUs)")
    return parser


def _keep_heap() -> None:
    """Keep freed batch-sized arrays on glibc's heap, so the next step does not fault their pages in again.

    Both settings or neither: either alone faults more than glibc's default. Forked workers inherit them.
    """
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(-3, 32 << 20) == 1:  # M_MMAP_THRESHOLD: 32 MiB
        mallopt(-1, -1)  # M_TRIM_THRESHOLD: never trim


def main(argv: list[str] | None = None) -> int:
    _keep_heap()
    args = build_parser().parse_args(argv)
    try:
        cfg = load_experiment_config(args.config, seeds=args.seed, out_dir=args.out)
        command = COMMANDS[args.command]
        options = {option: getattr(args, option) for option in command.options}
        if command.pooled:
            options["jobs"] = _jobs(args.jobs)
        _check_out_dir(cfg, args.command)

        # the program reports NaN/Inf itself, in one line; numpy's warnings
        # would add lines that depend on --jobs (forked workers inherit this)
        with np.errstate(all="ignore"):
            command.handler(cfg, command.outputs, **options)
        return 0
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
