"""Closed-loop benchmark of the lrcl command line.

One client drives ``lrcl.cli.main`` in this process: each command starts
after the previous one returns, with BLAS pinned to one thread. The
workload seed is passed to the program as ``--seed``, beside a config
file generated here; the program gets nothing else.

    python3 bench/run.py --workload grid --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--record-goldens`` stores the output digests of one pass instead.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

from workloads import EXPECTED_OUTPUTS, WORKLOADS, workload_steps

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDENS = BENCH_DIR / "goldens.json"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUPS = 5
# run.jsonl carries wall-clock timings; they are dropped before hashing.
UNSTABLE_KEYS = {"run.jsonl": ("train_seconds", "fisher_seconds")}


def environment() -> dict:
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def platform_fingerprint(env: dict) -> dict:
    """What decides the floating-point bits of a result; goldens hold only on a match."""
    return {key: env[key] for key in ("numpy", "blas", "machine", "cpu_features")}


def output_digest(out: Path) -> tuple[str, int]:
    """sha256 over every file below out (path and bytes), and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        if path.name in UNSTABLE_KEYS:
            data = _drop_keys(data, UNSTABLE_KEYS[path.name])
        rel = path.relative_to(out).as_posix().encode()
        h.update(len(rel).to_bytes(8, "little") + rel + len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), size


def _drop_keys(jsonl: bytes, keys: tuple) -> bytes:
    lines = []
    for line in jsonl.decode("utf-8").splitlines():
        record = json.loads(line)
        for key in keys:
            record.pop(key, None)
        lines.append(json.dumps(record, sort_keys=True))
    return ("\n".join(lines) + "\n").encode("utf-8")


class Client:
    """Runs the workload's commands one after another and checks each output."""

    def __init__(self, workload, seed: int, work: Path, expected: list | None):
        self.workload = workload
        self.seed = seed
        self.config = work / "workload.cfg"
        self.config.write_text(workload.config_text(), encoding="utf-8")
        self.out = work / "out"
        self.expected = list(expected) if expected else [None] * len(workload.commands)
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0

    def command(self, index: int) -> float:
        """Run one command; returns its wall time in seconds."""
        import lrcl.cli

        command = self.workload.commands[index]
        shutil.rmtree(self.out, ignore_errors=True)
        argv = [command[0], "--config", str(self.config), "--out", str(self.out), "--seed", str(self.seed)]
        argv += list(command[1:])
        if self.tracer is not None:
            self.tracer.invocation = self.attempted
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = lrcl.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        if not (code == 0 and self._outputs_ok(index)):
            self.failed += 1
            print(f"bench: {self.workload.name} {command[0]} failed (exit {code})", file=sys.stderr)
        return elapsed

    def run_pass(self) -> float:
        """One pass through the command sequence; returns the summed wall time."""
        return sum(self.command(i) for i in range(len(self.workload.commands)))

    def _digest(self, index: int) -> str | None:
        names = EXPECTED_OUTPUTS[self.workload.commands[index][0]]
        if not all((self.out / name.format(seed=self.seed)).exists() for name in names):
            return None
        digest, size = output_digest(self.out)
        self.output_bytes += size
        return digest

    def _outputs_ok(self, index: int) -> bool:
        digest = self._digest(index)
        if digest is None:
            return False
        if self.expected[index] is None:
            # No golden for this seed: later passes must repeat the first one.
            self.expected[index] = digest
        return digest == self.expected[index]


def load_goldens() -> dict:
    if GOLDENS.is_file():
        return json.loads(GOLDENS.read_text(encoding="utf-8"))
    return {"fingerprint": None, "digests": {}}


def record_goldens(client: Client, env: dict) -> int:
    goldens = load_goldens()
    fingerprint = platform_fingerprint(env)
    if goldens["fingerprint"] not in (None, fingerprint):
        print("bench: goldens.json was recorded on another platform; not mixing digests", file=sys.stderr)
        return 2
    for index in range(len(client.workload.commands)):
        client.command(index)
    digests = client.expected
    if client.failed:
        print("bench: a command failed; nothing recorded", file=sys.stderr)
        return 3
    goldens["fingerprint"] = fingerprint
    goldens["digests"].setdefault(client.workload.name, {})[str(client.seed)] = digests
    GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"recorded": {client.workload.name: {str(client.seed): digests}}}))
    return 0


def setup_time(config: Path, seed: int) -> float:
    """Set-up time of a fresh process: import lrcl and build the stream once."""
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(config), str(seed)]
    done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed(step, seconds: float) -> list[float]:
    """Repeat step while the window has room for another one as long as the last.

    At least one step runs; a run's length stays close to the window, so a
    slower program gets fewer samples, not a longer run.
    """
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + times[-1] <= seconds:
        times.append(step())
    return times


def end_to_end(client: Client, seconds: float) -> dict:
    client.command(0)  # warm-up
    # A set-up is timed before each pass, so set-up samples span the run as
    # the passes do; a short run times the rest after its last pass.
    setup = []

    def setup_then_pass() -> float:
        setup.append(setup_time(client.config, client.seed))
        return client.run_pass()

    walls = timed(setup_then_pass, seconds)
    while len(setup) < MIN_SETUPS:
        setup.append(setup_time(client.config, client.seed))
    wall = median(walls)
    steps = workload_steps(client.workload)
    print(json.dumps({"pass_wall_s": walls, "setup_s": setup, "steps_per_pass": steps}))
    return {
        "wall_s": (wall, "s"),
        "steps_per_s": (steps / wall, "1/s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# Per-layer figures: (metric, spans, field), summed over the spans. Self
# times add up without overlap. Call counts leave out penalty_precomputed
# and precompute_dataset_fisher, which only call a counted function.
SPAN_METRICS = (
    ("cli.main.calls", ("cli.main",), "calls"),
    ("cli.main.total_s", ("cli.main",), "total_s"),
    ("trainer.adam_step.calls", ("trainer.adam_step",), "calls"),
    ("trainer.adam_step.self_s", ("trainer.adam_step",), "self_s"),
    ("model.forward.calls", ("model.forward",), "calls"),
    ("model.forward.self_s", ("model.forward",), "self_s"),
    ("model.backward.calls", ("model.backward",), "calls"),
    ("model.backward.self_s", ("model.backward",), "self_s"),
    ("model.backward_wrt_base.calls", ("model.backward_wrt_base",), "calls"),
    ("model.backward_wrt_base.self_s", ("model.backward_wrt_base",), "self_s"),
    ("regularize.penalty.calls", ("regularize.penalty_deltaw", "regularize.penalty_separate"), "calls"),
    (
        "regularize.penalty.self_s",
        ("regularize.penalty_deltaw", "regularize.penalty_separate", "regularize.penalty_precomputed"),
        "self_s",
    ),
    ("trainer.train_task.calls", ("trainer.train_task",), "calls"),
    ("trainer.train_task.self_s", ("trainer.train_task",), "self_s"),
    ("trainer.train_task.total_s", ("trainer.train_task",), "total_s"),
    ("trainer.pretrain.calls", ("trainer.pretrain",), "calls"),
    ("trainer.pretrain.total_s", ("trainer.pretrain",), "total_s"),
    ("trainer.run_reference.calls", ("trainer.run_reference",), "calls"),
    ("trainer.run_reference.total_s", ("trainer.run_reference",), "total_s"),
    ("trainer.run_continual.calls", ("trainer.run_continual",), "calls"),
    ("trainer.run_continual.total_s", ("trainer.run_continual",), "total_s"),
    ("fisher.estimate.calls", ("fisher.estimate", "fisher.estimate_factor_space"), "calls"),
    (
        "fisher.estimate.self_s",
        ("fisher.estimate", "fisher.estimate_factor_space", "fisher.precompute_dataset_fisher"),
        "self_s",
    ),
    ("fisher.accumulate.self_s", ("fisher.accumulate",), "self_s"),
    ("fisher.save_fisher.total_s", ("fisher.save_fisher",), "total_s"),
    ("diagnostics.track_fisher_drift.calls", ("diagnostics.track_fisher_drift",), "calls"),
    ("diagnostics.track_fisher_drift.self_s", ("diagnostics.track_fisher_drift",), "self_s"),
    ("diagnostics.track_fisher_drift.total_s", ("diagnostics.track_fisher_drift",), "total_s"),
    ("tasks.gen_gaussian_stream.calls", ("tasks.gen_gaussian_stream",), "calls"),
    ("tasks.gen_gaussian_stream.self_s", ("tasks.gen_gaussian_stream",), "self_s"),
    ("tensor.uniform_matrix.self_s", ("tensor.uniform_matrix",), "self_s"),
    ("model.accuracy.calls", ("model.accuracy",), "calls"),
    ("model.accuracy.total_s", ("model.accuracy",), "total_s"),
    ("model.merge_and_reset.self_s", ("model.merge_and_reset",), "self_s"),
    ("model.Head.row_of.calls", ("model.Head.row_of",), "calls"),
    ("tensor.Matrix.from_array.calls", ("tensor.Matrix.from_array",), "calls"),
    ("tensor.RngState.next_u64.calls", ("tensor.RngState.next_u64",), "calls"),
)


def per_layer(client: Client, seconds: float, trace_file: Path) -> dict:
    from tracer import Tracer, median_table

    tracer = Tracer()
    client.tracer = tracer
    client.command(0)  # warm-up
    untraced, traced, tables, ratios, output_bytes = [], [], [], [], []

    def untraced_then_traced() -> float:
        untraced.append(client.run_pass())
        first = tracer.begin_pass()
        before = client.output_bytes
        tracer.install_spans()
        try:
            traced.append(client.run_pass())
        finally:
            tracer.uninstall()
        output_bytes.append(client.output_bytes - before)
        tables.append(tracer.layer_table(first))
        ratios.append(tracer.useful_ratios())
        return untraced[-1] + traced[-1]

    timed(untraced_then_traced, seconds)
    tracer.write_spans(trace_file)

    # A separate pass counts the hot primitives, so their wrappers cost
    # nothing in the self times above.
    tracer.begin_pass()
    tracer.install_counts()
    try:
        client.run_pass()
    finally:
        tracer.uninstall()
    counts = dict(tracer.counts)

    table = median_table(tables)
    for name, calls in counts.items():
        table[name] = {"calls": calls, "self_s": 0.0, "total_s": 0.0}
    metrics = {}
    for metric, spans, field in SPAN_METRICS:
        value = sum(table.get(span, {}).get(field, 0) for span in spans)
        metrics[metric] = (value, "count" if field == "calls" else "s")
    for key in ratios[0]:
        metrics[f"{key}.useful_ratio"] = (median(r[key] for r in ratios), "ratio")
    metrics["cli.output_bytes"] = (median(output_bytes), "bytes")
    metrics["trace.wall_s"] = (median(traced), "s")
    metrics["trace.untraced_wall_s"] = (median(untraced), "s")
    metrics["trace.overhead_s"] = (median(traced) - median(untraced), "s")

    wall = median(traced)
    shares = sorted(((row["self_s"] / wall, name) for name, row in table.items() if row["self_s"] > 0), reverse=True)
    print(json.dumps({"self_share": {name: round(share, 4) for share, name in shares[:12]}, "trace_file": str(trace_file)}))
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the lrcl CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lrcl" / "cli.py").is_file():
        print(f"bench: no lrcl package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # Must be set before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    env = environment()
    print(json.dumps({"env": env}))
    goldens = load_goldens()
    expected = None
    if goldens["fingerprint"] == platform_fingerprint(env) and not args.record_goldens:
        expected = goldens["digests"].get(args.workload, {}).get(str(args.seed))
    print(json.dumps({"golden_checked": expected is not None}))

    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        client = Client(WORKLOADS[args.workload], args.seed, work, expected)
        if args.record_goldens:
            return record_goldens(client, env)
        if args.trace:
            metrics = per_layer(client, args.seconds, OUT / f"trace-{args.workload}-seed{args.seed}.csv")
        else:
            metrics = end_to_end(client, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
