"""Self-tests of the benchmark: tracer coverage, closed-form counts, digests.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import importlib

import lrcl.cli
import pytest
from run import output_digest
from tracer import HOT_PRIMITIVES, LAYERS, Tracer, lrcl_modules, public_functions
from workloads import (
    WORKLOADS,
    Work,
    Workload,
    command_work,
    pretrain_steps,
    settings,
    task_steps,
    workload_steps,
)

# Small enough to run in a second; the shape (tasks, regimes, strategies)
# is what the closed forms depend on.
TINY = {"epochs": 2, "pretrain_epochs": 2, "n_train": 20, "n_test": 10, "pretrain_n": 20}


def _variant(name: str, **overrides) -> Workload:
    base = WORKLOADS[name]
    return Workload(name, {**base.config, **overrides}, base.commands)


def _traced(workload: Workload, tmp_path, command: tuple, seed: int = 0):
    config = tmp_path / "workload.cfg"
    config.write_text(workload.config_text(), encoding="utf-8")
    argv = [command[0], "--config", str(config), "--out", str(tmp_path / "out"), "--seed", str(seed), *command[1:]]
    tracer = Tracer()
    tracer.install_spans()
    try:
        assert lrcl.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    table = tracer.layer_table()
    return (lambda name: table.get(name, {}).get("calls", 0)), tracer.useful_ratios()


def _accuracy_calls(cfg: dict, work: Work) -> int:
    # each continual run scores tasks 0..t after task t; each reference and
    # each pretraining scores once
    tasks = int(cfg["num_tasks"])
    return (work.continual_runs + work.drift_tracks) * tasks * (tasks + 1) // 2 + work.reference_sets * tasks + work.pretrains


def test_every_imported_name_is_rebound_and_restored():
    originals = {id(fn) for layer in LAYERS for fn in public_functions(layer).values()}
    before = {(mod.__name__, attr): obj for mod in lrcl_modules() for attr, obj in vars(mod).items()}
    tracer = Tracer()
    tracer.install_spans()
    try:
        for mod in lrcl_modules():
            for attr, obj in vars(mod).items():
                assert id(obj) not in originals, f"{mod.__name__}.{attr} escaped the tracer"
        from lrcl import diagnostics, fisher, model, trainer

        assert trainer.forward is model.forward and trainer.forward.__wrapped__.__module__ == "lrcl.model"
        assert trainer.backward is model.backward
        assert diagnostics.accuracy is model.accuracy
        assert fisher.forward is model.forward
    finally:
        tracer.uninstall()
    after = {(mod.__name__, attr): obj for mod in lrcl_modules() for attr, obj in vars(mod).items()}
    assert after == before


def test_compare_strategies_matches_closed_form(tmp_path):
    workload = WORKLOADS["grid"]
    cfg = settings(workload)
    command = workload.commands[0]
    calls, ratios = _traced(workload, tmp_path, command)
    work = command_work(cfg, command)
    assert calls("model.backward") == work.task_trainings(cfg) * task_steps(cfg) == 9750
    assert calls("trainer.adam_step") == 2 * work.steps(cfg)
    assert calls("model.backward_wrt_base") == work.pretrains * pretrain_steps(cfg)
    assert calls("trainer.train_task") == work.task_trainings(cfg)
    assert calls("trainer.pretrain") == work.pretrains == 5
    assert calls("trainer.run_reference") == work.reference_sets * int(cfg["num_tasks"])
    assert calls("model.accuracy") == _accuracy_calls(cfg, work)
    assert ratios["trainer.pretrain"] == pytest.approx(1 / 5)


def test_grid_shape():
    workload = WORKLOADS["grid"]
    cfg = settings(workload)
    works = [command_work(cfg, command) for command in workload.commands]
    assert sum(w.pretrains for w in works) == 11
    assert sum(w.continual_runs for w in works) == 9
    assert workload_steps(workload) == 11 * 400 + (9 + 2) * 5 * task_steps(cfg) == 25850


def test_sweep_matches_closed_form(tmp_path):
    workload = _variant("grid", **TINY)
    calls, ratios = _traced(workload, tmp_path, workload.commands[1])
    cfg = settings(workload)
    assert calls("trainer.adam_step") == 2 * command_work(cfg, workload.commands[1]).steps(cfg)
    assert ratios["trainer.run_reference"] == 1.0  # one command alone repeats nothing


def test_diagnose_matches_closed_form(tmp_path):
    workload = _variant("drift", **TINY)
    cfg = settings(workload)
    command = workload.commands[0]
    calls, ratios = _traced(workload, tmp_path, command)
    work = command_work(cfg, command)
    tasks = int(cfg["num_tasks"])
    tracked = min(3, tasks)
    rescored = sum(min(t + 1, tracked) for t in range(tasks))
    # per regime: one estimate per learned task plus the tracked rescoring;
    # the rehearsal-based regime adds one pooled estimate per later task
    assert calls("fisher.estimate") == 2 * (tasks + rescored) + (tasks - 1)
    assert calls("trainer.adam_step") == 2 * work.steps(cfg)
    assert calls("model.backward") == work.task_trainings(cfg) * task_steps(cfg)
    assert calls("diagnostics.track_fisher_drift") == 2
    assert calls("model.accuracy") == _accuracy_calls(cfg, work)
    assert ratios["diagnostics.trajectory"] == 0.5
    assert ratios["trainer.run_reference"] == 1.0  # not called


def test_run_matches_closed_form(tmp_path):
    workload = _variant("wide", **TINY)
    cfg = settings(workload)
    command = workload.commands[0]
    calls, ratios = _traced(workload, tmp_path, command)
    work = command_work(cfg, command)
    assert calls("trainer.adam_step") == 2 * work.steps(cfg)
    assert calls("model.backward_wrt_base") == 2 * pretrain_steps(cfg)
    assert calls("model.accuracy") == _accuracy_calls(cfg, work)
    assert ratios["trainer.pretrain"] == 0.5


def test_hot_primitives_are_counted_and_restored():
    from lrcl.model import Head
    from lrcl.tensor import Matrix, RngState

    before = {m: vars(getattr(importlib.import_module(f"lrcl.{l}"), c))[m] for l, c, m in HOT_PRIMITIVES}
    tracer = Tracer()
    tracer.install_counts()
    try:
        RngState(1).next_u64()
        Matrix.from_array([[1.0]])
        Head(V=None, b=None, class_ids=[7]).row_of(7)
    finally:
        tracer.uninstall()
    assert dict(tracer.counts) == {"tensor.RngState.next_u64": 1, "tensor.Matrix.from_array": 1, "model.Head.row_of": 1}
    after = {m: vars(getattr(importlib.import_module(f"lrcl.{l}"), c))[m] for l, c, m in HOT_PRIMITIVES}
    assert after == before
    assert isinstance(Matrix.from_array([[2.0]]), Matrix)


def test_digest_ignores_timings_only(tmp_path):
    workload = _variant("wide", **TINY)
    config = tmp_path / "workload.cfg"
    config.write_text(workload.config_text(), encoding="utf-8")
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert lrcl.cli.main(["run", "--config", str(config), "--out", str(out), "--seed", "3"]) == 0
        digests.append(output_digest(out)[0])
    assert digests[0] == digests[1]
    metrics = tmp_path / "b" / "metrics.json"
    metrics.write_text(metrics.read_text().replace("0", "1", 1))
    assert output_digest(tmp_path / "b")[0] != digests[0]
