"""Outside-in tracing of the lrcl layers.

The tracer wraps the public functions of each layer module from outside
the program. Several modules import functions by name (``trainer`` holds
its own ``forward``, ``backward`` and ``accuracy``), so wrapping the
defining module alone would miss those call sites: every ``lrcl`` module
attribute that holds an original is rebound to its wrapper.

Each wrapped call records a span (name, start, end, parent span, command
invocation). Spans stay in memory until the benchmark writes them out. A
span's self time is its duration minus the durations of its direct
children. The three hot primitives are wrapped by a separate counting
pass instead, because a span per call would distort the self times of
their callers.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from statistics import median

import numpy as np

LAYERS = ("tasks", "tensor", "model", "regularize", "trainer", "fisher", "diagnostics", "cli")

# (module, class, method) called hundreds of thousands of times per pass.
HOT_PRIMITIVES = (
    ("tensor", "RngState", "next_u64"),
    ("tensor", "Matrix", "from_array"),
    ("model", "Head", "row_of"),
)


def fingerprint(obj, _h=None, _seen=None) -> str:
    """Digest of the numbers and strings reachable from obj.

    Two calls with equal fingerprints got equal inputs (or produced equal
    results), so the second one repeated work.
    """
    h = _h or hashlib.sha256()
    seen = _seen if _seen is not None else set()
    if isinstance(obj, np.ndarray):
        h.update(str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif obj is None or isinstance(obj, (bool, int, float, str, np.generic)):
        h.update(repr(obj.item() if isinstance(obj, np.generic) else obj).encode())
    elif isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            h.update(repr(key).encode())
            fingerprint(obj[key], h, seen)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            fingerprint(item, h, seen)
        h.update(b"]")
    elif id(obj) not in seen:
        seen.add(id(obj))
        h.update(type(obj).__name__.encode())
        attrs = dict(getattr(obj, "__dict__", {}))
        for slot in getattr(type(obj), "__slots__", ()):
            if hasattr(obj, slot):
                attrs[slot] = getattr(obj, slot)
        fingerprint(attrs, h, seen)
    return h.hexdigest() if _h is None else ""


def _pretrain_key(bound, result):
    return fingerprint(result)


def _reference_key(bound, result):
    return fingerprint(bound)


def _trajectory_key(bound, result):
    # The regime and the tracked tasks change what is measured, not how
    # the learner trains.
    return fingerprint({k: v for k, v in bound.items() if k not in ("regime", "tracked_tasks")})


# Useful-work ratios: distinct outcomes / calls, keyed by what makes two
# calls do the same work.
USEFUL = {
    "trainer.pretrain": ("trainer.pretrain", _pretrain_key),
    "trainer.run_reference": ("trainer.run_reference", _reference_key),
    "diagnostics.trajectory": ("diagnostics.track_fisher_drift", _trajectory_key),
}


def lrcl_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "lrcl" or name.startswith("lrcl."))]


def public_functions(layer: str) -> dict:
    """name -> function for the public functions a layer module defines."""
    mod = importlib.import_module(f"lrcl.{layer}")
    return {
        name: obj
        for name, obj in vars(mod).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__
    }


class Tracer:
    """Installs wrappers, collects spans and counts, and removes them again."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.invocation = 0
        self.counts: Counter = Counter()
        self.keys: dict = defaultdict(list)
        self._restore: list = []

    # -- installation -------------------------------------------------

    def install_spans(self) -> None:
        """Wrap every public layer function and rebind it everywhere."""
        wrappers = {}
        for layer in LAYERS:
            for name, fn in public_functions(layer).items():
                wrappers[fn] = self._span_wrapper(fn, f"{layer}.{name}")
        self._rebind(wrappers)

    def install_counts(self) -> None:
        """Count calls of the hot primitives, without spans."""
        for layer, cls_name, method in HOT_PRIMITIVES:
            cls = getattr(importlib.import_module(f"lrcl.{layer}"), cls_name)
            raw = cls.__dict__[method]
            key = f"{layer}.{cls_name}.{method}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._count_wrapper(raw.__func__, key))
            else:
                wrapped = self._count_wrapper(raw, key)
            self._set(cls, method, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, wrappers: dict) -> None:
        for mod in lrcl_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])

    def _span_wrapper(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        perf = time.perf_counter
        useful = [(key, keyfn) for key, (span, keyfn) in USEFUL.items() if span == name]
        signature = inspect.signature(fn) if useful else None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.invocation)
            for key, keyfn in useful:
                bound = signature.bind(*args, **kwargs).arguments
                self.keys[key].append(keyfn(bound, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _count_wrapper(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------

    def begin_pass(self) -> int:
        """Clear counts and keys; returns the index of the pass's first span."""
        self.stack.clear()
        self.counts.clear()
        self.keys.clear()
        return len(self.spans)

    def layer_table(self, first_span: int = 0) -> dict:
        """name -> {"calls", "self_s", "total_s"} over the spans from first_span on."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans[first_span:]:
            if parent >= 0:
                child[parent] += end - start
        table = {}
        for i, (name_id, start, end, _, _) in enumerate(self.spans[first_span:], start=first_span):
            row = table.setdefault(self.names[name_id], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
            row["total_s"] += end - start
        for key, calls in self.counts.items():
            table.setdefault(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0})["calls"] = calls
        return table

    def useful_ratios(self) -> dict:
        """Distinct outcomes / calls; 1.0 when the function was not called."""
        return {key: (len(set(self.keys[key])) / len(self.keys[key]) if self.keys[key] else 1.0) for key in USEFUL}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,invocation\n")
            for i, (name_id, start, end, parent, invocation) in enumerate(self.spans):
                fh.write(f"{i},{self.names[name_id]},{start!r},{end!r},{parent},{invocation}\n")


def median_table(tables: list[dict]) -> dict:
    """Per name and field, the median over several passes."""
    names = set().union(*tables) if tables else set()
    return {
        name: {field: median(t.get(name, {}).get(field, 0) for t in tables) for field in ("calls", "self_s", "total_s")}
        for name in names
    }
