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

# gone from lrcl; the next benchmark change drops it from SPAN_METRICS
RETIRED_SPANS = {"regularize.penalty_precomputed"}


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
