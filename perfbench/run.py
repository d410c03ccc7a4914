"""Benchmark of cospart, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each operation is an in-process call of
``cospart.cli.main`` with the arguments a user would type; its exit code and
printed record are checked against ``reference``.  Operations run one at a
time, in whole rounds of at least 100 distinct operations, until
``--seconds`` have passed and ``MIN_ROUNDS`` rounds ran; each operation's
time is its best over the rounds.  The last line of standard output is one
JSON object:
the end-to-end metrics with ``--trace 0``, the per-layer metrics (from a
separate traced run, whose spans go to ``perfbench/out/``) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402

MIN_ROUNDS = 2         # each operation's time is its best of at least this many runs
MEM_OPS = 25           # operations in the memory pass, spread over the round
WARMUP_OPS = 2
IMPORT_REPEATS = 7
SETUP_REPEATS = 3
ERROR_EXIT = 2

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_mem_mb": "MB"}
# Per-layer metric -> (span name, what is reported, unit).  "self" is self time
# and "calls" the call count, both per timed operation; the calibration set-up
# layers are reported per `calibrate` call instead.
PER_LAYER = {
    "pipeline.run_cascade_s": ("pipeline.run_cascade", "self", "s/op"),
    "pipeline.multiply_stage_s": ("pipeline.multiply_stage", "self", "s/op"),
    "pipeline.synthesize_sources_s": ("pipeline.synthesize_sources", "self", "s/op"),
    "pipeline.grid_points": ("pipeline.run_cascade", "grid_points", "points/op"),
    "pipeline.node_mb": ("pipeline.run_cascade", "node_bytes", "MB_computed"),
    "dsp.sample_after_filter_s": ("dsp.sample_after_filter", "self", "s/op"),
    "dsp.apply_lowpass_s": ("dsp.apply_lowpass", "self", "s/op"),
    "calibration.bootstrap_threshold_s": ("calibration.bootstrap_threshold", "setup", "s/setup"),
    "calibration.measure_stage_offsets_s": ("calibration.measure_stage_offsets", "setup",
                                            "s/setup"),
    "calibration.decide_analog_s": ("calibration.decide_analog", "self", "s/op"),
    "exact.decide_dp_s": ("exact.decide_dp", "self", "s/op"),
    "exact.decide_dp_calls": ("exact.decide_dp", "calls", "calls/op"),
    "exact.decide_meet_in_middle_s": ("exact.decide_meet_in_middle", "self", "s/op"),
    "exact.decide_meet_in_middle_calls": ("exact.decide_meet_in_middle", "calls", "calls/op"),
    "exact.ideal_dc_s": ("exact.ideal_dc", "self", "s/op"),
    "exact.solve_exact_s": ("exact.solve_exact", "self", "s/op"),
    "reductions.sat_to_partition_s": ("reductions.sat_to_partition", "self", "s/op"),
    "reductions.simplify_s": ("reductions.simplify", "self", "s/op"),
    "reductions.oracle_calls": ("reductions.oracle_call", "calls", "calls/op"),
    "cli.self_s": ("cli.main", "self", "s/op"),
}


def call_cli(argv: tuple[str, ...]) -> tuple[int, str]:
    """Run ``cospart <argv>`` in this process; returns (exit code, standard output)."""
    from cospart import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else ERROR_EXIT
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        rc = ERROR_EXIT
    if rc >= ERROR_EXIT:
        print(f"operation failed (exit {rc}): cospart {' '.join(argv)}\n{err.getvalue()}",
              file=sys.stderr)
    return rc, out.getvalue()


def fresh_import_s() -> float:
    """Median time of ``import cospart.cli`` in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import cospart.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


class Checker:
    """Counts failed operations and collects wrong outputs."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.errors: list[str] = []

    def op(self, op: Op, rc: int, out: str) -> bool:
        """Checks one operation; returns True when it failed (exit >= 2)."""
        if rc >= ERROR_EXIT:
            return True
        problem = self.wl.check(op, rc, out)
        if problem:
            self.errors.append(f"cospart {' '.join(op.argv)}: {problem}")
        return False

    def setup(self, rc: int, out: str) -> None:
        problem = self.wl.check_setup(rc, out)
        if problem:
            self.errors.append(f"set-up: {problem}")

    def oracle_calls(self, op: Op, spans: list) -> None:
        """Checks the oracle calls among the spans ``op`` opened."""
        limit = self.wl.max_oracle_calls
        calls = sum(s.name == "reductions.oracle_call" for s in spans)
        if limit is not None and calls > limit:
            self.errors.append(f"cospart {' '.join(op.argv)}: {calls} oracle calls > {limit}")


def settle_allocator() -> None:
    """Raise glibc's dynamic mmap threshold to its ceiling before timing.

    glibc serves a block from the heap or from a fresh mmap depending on the
    largest mmapped block freed so far, so without this the cost of the same
    operations depends on the allocation history of the run.  Freeing one
    block just under the 32 MiB ceiling puts every run in the state a
    long-running process converges to.
    """
    block = bytearray((1 << 25) - (1 << 16))
    del block


def run_rounds(wl: Workload, seconds: float, run_op) -> list[float]:
    """Whole rounds until ``seconds`` have passed and MIN_ROUNDS ran.

    ``run_op(op)`` returns the operation's wall time.  Returns each
    operation's best time over the rounds: this machine's speed drifts by a
    tenth or more within seconds, and the best of several runs spread over
    the pass is the steadiest estimate of what an operation costs.
    """
    best = [math.inf] * len(wl.ops)
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for i, op in enumerate(wl.ops):
            best[i] = min(best[i], run_op(op))
        rounds += 1
    return best


def latency_metrics(best: list[float]) -> dict:
    return {"ops_per_s": len(best) / sum(best),
            "op_p50_ms": 1e3 * statistics.median(best),
            "op_p90_ms": 1e3 * statistics.quantiles(best, n=10)[-1]}


def measure_end_to_end(wl: Workload, seconds: float, checker: Checker) -> dict:
    import_s = fresh_import_s()
    setup_times = []
    for _ in range(SETUP_REPEATS if wl.setup_argv else 0):
        t0 = time.perf_counter()
        rc, out = call_cli(wl.setup_argv)
        setup_times.append(time.perf_counter() - t0)
        checker.setup(rc, out)
    setup_s = import_s + (statistics.median(setup_times) if setup_times else 0.0)

    for op in wl.ops[:WARMUP_OPS]:
        checker.op(op, *call_cli(op.argv))

    results = []

    def timed(op: Op) -> float:
        t0 = time.perf_counter()
        rc, out = call_cli(op.argv)
        elapsed = time.perf_counter() - t0
        results.append((op, rc, out))
        return elapsed

    best = run_rounds(wl, seconds, timed)
    failed = sum(checker.op(op, rc, out) for op, rc, out in results)

    # Memory pass, apart from the timed one: each operation's tracemalloc
    # peak above the memory already held, over every k-th operation of the
    # round.  The 90th percentile is reported because the maximum of a
    # sat-witness round jumps by a fifth whenever one formula's reduction lands
    # on a rarer, larger DP table.  The tracer only counts oracle calls here.
    tracer = Tracer()
    tracer.install()
    tracemalloc.start()
    peaks = []
    try:
        for op in wl.ops[::max(1, len(wl.ops) // MEM_OPS)]:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rc, out = call_cli(op.argv)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            checker.op(op, rc, out)
            checker.oracle_calls(op, tracer.spans)
            tracer.spans.clear()
    finally:
        tracemalloc.stop()
        tracer.uninstall()

    metrics = {"setup_s": setup_s, **latency_metrics(best),
               "peak_mem_mb": statistics.quantiles(peaks, n=10)[-1] / 1e6}
    return {"attempted": len(results), "failed": failed, "metrics": metrics}


def measure_per_layer(wl: Workload, seconds: float, checker: Checker, spans_path: Path) -> dict:
    tracer = Tracer()
    tracer.install()
    setup_roots, op_roots = set(), set()
    failed = 0
    try:
        if wl.setup_argv:
            with tracer.span("setup") as idx:
                checker.setup(*call_cli(wl.setup_argv))
            setup_roots.add(idx)
        for op in wl.ops[:WARMUP_OPS]:
            checker.op(op, *call_cli(op.argv))

        def traced(op: Op) -> float:
            nonlocal failed
            first = len(tracer.spans)
            with tracer.span("cli.main") as idx:
                rc, out = call_cli(op.argv)
            op_roots.add(idx)
            failed += checker.op(op, rc, out)
            checker.oracle_calls(op, tracer.spans[first:])
            return (tracer.spans[idx].end - tracer.spans[idx].start) * 1e-9

        best = run_rounds(wl, seconds, traced)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    self_s, calls = tracer.self_times(op_roots)
    setup_self, _ = tracer.self_times(setup_roots)
    inside_ops = tracer.descendants(op_roots)
    cascades = [s.attrs for i, s in enumerate(tracer.spans)
                if s.name == "pipeline.run_cascade" and i in inside_ops]
    ops = len(op_roots)
    metrics = {}
    for name, (span, kind, _) in PER_LAYER.items():
        if kind == "self":
            metrics[name] = self_s.get(span, 0.0) / ops
        elif kind == "calls":
            metrics[name] = calls.get(span, 0) / ops
        elif kind == "setup":
            metrics[name] = setup_self.get(span, 0.0)
        elif kind == "grid_points":
            metrics[name] = sum(a["grid_points"] for a in cascades) / ops
        else:
            metrics[name] = max((a["node_bytes"] for a in cascades), default=0) / 1e6
    traced_e2e = ", ".join(f"{k} {v:.6g}" for k, v in latency_metrics(best).items())
    print(f"traced run: {ops} operations, {traced_e2e}; spans in {spans_path}", file=sys.stderr)
    return {"attempted": ops, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cospart" / "__init__.py").is_file():
        print(f"error: cospart sources not found under {SRC}", file=sys.stderr)
        return ERROR_EXIT
    sys.path.insert(0, str(SRC))
    import cospart.cli  # noqa: F401  (loaded before any timing)
    settle_allocator()

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        checker = Checker(wl)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result = measure_per_layer(wl, args.seconds, checker, spans)
            units = {name: unit for name, (_, _, unit) in PER_LAYER.items()}
        else:
            result = measure_end_to_end(wl, args.seconds, checker)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in checker.errors:
        print(f"wrong output: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not checker.errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
