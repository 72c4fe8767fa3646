"""The names the benchmark under bench/ looks up in lrcl still exist.

The benchmark's own self-tests are not part of this suite, so a renamed or
deleted function would otherwise surface only when the benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

# gone from lrcl (fisher.estimate now takes every estimate, and
# model.backward every gradient); the next benchmark change drops them
# from SPAN_METRICS
RETIRED_SPANS = {
    "regularize.penalty_precomputed", "fisher.estimate_factor_space", "fisher.precompute_dataset_fisher",
    "model.backward_wrt_base",
}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))  # run.py imports its sibling workloads.py
    try:
        return _load("tracer"), _load("run")
    finally:
        sys.path.remove(str(BENCH))


def test_hot_primitives_are_class_attributes(bench):
    tracer, _ = bench
    for layer, cls_name, method in tracer.HOT_PRIMITIVES:
        cls = getattr(importlib.import_module(f"lrcl.{layer}"), cls_name)
        assert method in vars(cls), f"{layer}.{cls_name}.{method}"


def test_span_metrics_name_public_functions(bench):
    tracer, run = bench
    hot = {".".join(entry) for entry in tracer.HOT_PRIMITIVES}
    spans = {span for _, names, _ in run.SPAN_METRICS for span in names}
    for span in sorted(spans - hot - RETIRED_SPANS):
        layer, name = span.split(".")
        assert layer in tracer.LAYERS and name in tracer.public_functions(layer), span
    for span in RETIRED_SPANS:
        layer, name = span.split(".")
        assert name not in tracer.public_functions(layer), f"{span} is back: drop it from RETIRED_SPANS"


# the lrcl module attributes that bench/test_bench.py's
# test_every_imported_name_is_rebound_and_restored reads: each must stay
# an import of the model function of that name
REBOUND_IMPORTS = {"trainer": ("forward", "backward"), "diagnostics": ("accuracy",), "fisher": ("forward",)}


def test_imports_the_tracer_test_reads_still_exist():
    model = importlib.import_module("lrcl.model")
    for layer, names in REBOUND_IMPORTS.items():
        module = importlib.import_module(f"lrcl.{layer}")
        for name in names:
            assert getattr(module, name, None) is getattr(model, name), f"lrcl.{layer}.{name}"


def test_expected_outputs_are_names_the_cli_writes(bench):
    from lrcl import cli

    _, run = bench
    snapshot_dir = Path(cli._SNAPSHOT).parts[0]
    for command, names in run.EXPECTED_OUTPUTS.items():
        for name in names:
            assert name in cli.COMMANDS[command].outputs or name == snapshot_dir, f"{command}: {name}"


@pytest.mark.parametrize("strategy,kernel", [("deltaw", "penalty_deltaw"), ("separate", "penalty_separate")])
def test_a_run_calls_the_traced_module_attributes(tmp_path, monkeypatch, strategy, kernel):
    # --trace 1 times regularize.penalty.* and fisher.* by rebinding these
    # module attributes, so a run must call its kernel, estimate and
    # accumulate through their modules, whichever object calls them
    from collections import Counter

    from lrcl import cli, fisher, regularize
    from test_cli import TINY, write_config

    calls = Counter()
    for module, name in ((regularize, "penalty_deltaw"), (regularize, "penalty_separate"), (fisher, "estimate"), (fisher, "accumulate")):
        def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    config = write_config(tmp_path, TINY + f"strategy = {strategy}\n")
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
    assert {name for name, n in calls.items() if n} == {kernel, "estimate", "accumulate"}
