"""The repository benchmark: one workload per call, correctness-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (``src/`` must be there: the benchmark runs
the program from source).  ``--trace 0`` times the workload with tracing
off and reports the end-to-end metrics: CPU time, in reference seconds
(scaled by the host speed measured around it, see ``hostclock.py``), and
peak memory; ``--trace 1`` runs one untraced
and one traced pass and reports the per-layer metrics plus the tracing
overhead.  Every line but the last is a human-readable report; the last
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Everything the benchmark writes -- the compiled kernel, the result caches
of ``service-resubmit``, the span dumps -- goes under
``.bench_build/perfbench/`` in the repository.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 5
# the set-up probes' host-speed reference, and its CPU time on the reference
# machine (0.14 s median, 0.11-0.19 s as the host's speed drifted)
REF_START = [sys.executable, "-c",
             "import asyncio, dataclasses, decimal, fractions, json, statistics"]
REF_START_S = 0.14
PROBE_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))

from hostclock import CLOCK, REF_CHUNK_S  # noqa: E402
from layers import EXTRA_COUNTS, LAYERS, WORKLOAD_LAYERS, install  # noqa: E402
from tracer import Tracer, layer_report  # noqa: E402
from workloads import BACKEND, WORKLOADS  # noqa: E402

E2E_UNITS = {
    "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "phase_a_cpu_s": "s",
    "phase_b_cpu_s": "s", "op_cpu_s.p50": "s", "op_cpu_s.tail": "s",
}


def per_layer_units() -> Dict[str, str]:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.busy_s": "s",
                      f"{layer}.self_s": "s", f"{layer}.share": "ratio"})
    units.update(EXTRA_COUNTS)
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s",
                  "trace.unattributed_s": "s"})
    return units


def tail(samples: List[float]) -> tuple:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``.  Up to 20 samples that percentile would sit at
    or below the median, so the median stands in (percentile 50)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 20:
        return median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def configure_env() -> Dict[str, str]:
    """The benchmark's own environment, for this process and its probes:
    a cache root and a temporary directory (the kernel compiler's scratch)
    inside the checkout, so no ``~/.cache/repro`` state leaks in, the native
    backend pinned, no user compiler flags."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "repro-cache")
    os.environ["REPRO_BACKEND"] = BACKEND
    os.environ.pop("REPRO_NATIVE_CFLAGS", None)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def child_cpu(cmd: List[str], env: Dict[str, str]) -> float:
    """Run ``cmd`` to completion; its CPU time (user + system, from the
    reaped child's rusage)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    child = subprocess.Popen(cmd, env=env, cwd=ROOT)
    # a blocking wait: Popen.wait(timeout=...) polls in steps of up to 50 ms
    watchdog = threading.Timer(PROBE_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        code = child.wait()
    finally:
        watchdog.cancel()
    if code:
        raise RuntimeError(f"{' '.join(cmd)} exited with code {code}")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


def measure_setup(name: str, seed: int, small: bool, env: Dict[str, str]) -> List[float]:
    """Fresh-interpreter set-up CPU times in reference seconds.  Each probe
    runs right after a reference interpreter that starts and imports a fixed
    set of standard-library modules -- the same kind of work, so the host's
    speed at that moment cancels in the ratio; the chunks of ``hostclock``
    track start-up work worse than the raw time does.  An untimed first
    probe compiles the native kernel (and byte-code) into the benchmark's
    cache, so every timed probe finds the ``.so`` already built."""
    cmd = [sys.executable, str(HERE / "probe.py"), name, str(seed), str(WORK),
           "1" if small else "0"]
    child_cpu(cmd, env)
    times = []
    for _ in range(SETUP_PROBES):
        reference = child_cpu(REF_START, env)
        times.append(child_cpu(cmd, env) * REF_START_S / reference)
    return times


def run_passes(workload, seconds: float, tracer=None, sample=True):
    """Run passes until the next one would end after ``seconds`` (at least
    one); returns (results, failures, passes).  With ``sample`` untraced
    passes sample the host speed while they run; without, they keep raw CPU
    times.  Untraced passes are checked as they finish -- outside the timed
    region -- and drop their outputs, so memory does not grow with the pass
    count.  A pass that raises fails every operation it held."""
    results, failures = [], []
    passes, busy = 0, 0.0
    while True:
        passes += 1
        gc.collect()
        start = time.perf_counter()
        try:
            if tracer is None:
                if sample:
                    CLOCK.start(timer=workload.timer_sampling)
                try:
                    result = workload.run_pass()
                finally:
                    CLOCK.stop()
            else:
                with tracer.span("bench", workload.name):
                    result = workload.run_pass(tracer)
        except Exception:
            traceback.print_exc()
            failures += [f"pass raised: op {i}" for i in range(workload.attempted)]
            result = None
        busy += time.perf_counter() - start
        if result is not None:
            if tracer is None:
                failures += workload.check(result)
                result.outputs = None
            results.append(result)
        if busy * (passes + 1) / passes >= seconds:
            return results, failures, passes


def end_to_end(workload, results, setup_times) -> tuple:
    """Medians over passes; ``op_cpu_s.tail`` is each pass's tail (a fixed
    percentile, whatever the number of passes), median over passes."""
    tails = [tail(r.ops) for r in results]
    metrics = {
        "setup_s": median(setup_times),
        "cpu_s": median(r.cpu_s for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "phase_a_cpu_s": median(r.phase_a_s for r in results),
        "phase_b_cpu_s": median(r.phase_b_s for r in results),
        "op_cpu_s.p50": median(t for r in results for t in r.ops),
        "op_cpu_s.tail": median(value for value, _ in tails),
    }
    speed = (f"median chunk {median(CLOCK.chunks) * 1e3:.3f} ms over {len(CLOCK.chunks)} "
             "chunks" if CLOCK.chunks else "no chunks taken, timings raw")
    lines = [f"host speed: {speed} (reference {REF_CHUNK_S * 1e3:.3f} ms); raw cpu_s "
             f"{median(r.raw_cpu_s for r in results):.6g} s, wall "
             f"{median(r.wall_s for r in results):.6g} s",
             f"op_cpu_s.tail is p{tails[0][1]:.1f} of the {len(results[0].ops)} operations "
             f"of a pass, median over {len(results)} passes"]
    for alias, metric in workload.aliases.items():
        lines.append(f"{alias:<24} {metrics[metric]:.6g} {E2E_UNITS[metric]}  (= {metric})")
    for key in results[0].notes:
        value = median(r.notes[key] for r in results)
        unit = "1/s" if "_per_" in key else "s"
        lines.append(f"{key:<24} {value:.6g} {unit}")
    for key in results[0].samples:
        per_pass = [tail(r.samples[key]) for r in results]
        pooled = [t for r in results for t in r.samples[key]]
        lines.append(f"{key + '.p50':<24} {median(pooled):.6g} s")
        lines.append(f"{key + '.tail':<24} {median(v for v, _ in per_pass):.6g} s  "
                     f"(p{per_pass[0][1]:.1f} of {len(results[0].samples[key])} per pass)")
    return metrics, lines


def per_layer(workload, plain, traced, tracer) -> tuple:
    report = layer_report(tracer.spans, list(LAYERS) + ["bench"])
    wall = traced.wall_s
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        row = report[layer]
        metrics[f"{layer}.calls"] = row["calls"]
        metrics[f"{layer}.busy_s"] = row["busy_s"]
        metrics[f"{layer}.self_s"] = row["self_s"]
        metrics[f"{layer}.share"] = row["self_s"] / wall
    counts = tracer.counts
    kernel_busy = report["network.kernel"]["busy_s"]
    counts["network.kernel.cycles_per_s"] = (
        counts["network.kernel.cycles"] / kernel_busy if kernel_busy else 0.0)
    for key in EXTRA_COUNTS:
        metrics[key] = counts.get(key, 0.0)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - plain.wall_s
    metrics["trace.unattributed_s"] = report["bench"]["self_s"]
    lines = [f"{'layer':<26} {'calls':>7} {'busy_s':>9} {'self_s':>9} {'share':>7}"]
    for layer in sorted(LAYERS, key=lambda k: -report[k]["self_s"]):
        row = report[layer]
        if row["calls"]:
            lines.append(f"{layer:<26} {row['calls']:>7} {row['busy_s']:>9.4f} "
                         f"{row['self_s']:>9.4f} {row['self_s'] / wall:>7.1%}")
    silent = [layer for layer in WORKLOAD_LAYERS[workload.name]
              if not report[layer]["calls"]]
    lines.append("zero-call layers expected on this workload: "
                 + (", ".join(silent) if silent else "none"))
    lines.append(f"tracing overhead: traced wall {wall:.4f} s - untraced "
                 f"{plain.wall_s:.4f} s = {wall - plain.wall_s:+.4f} s")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny grids, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    env = configure_env()
    setup_times = measure_setup(args.workload, args.seed, args.small, env)
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](args.seed, WORK, small=args.small)
    workload.setup()
    try:
        if args.trace:
            plain, failures, _ = run_passes(workload, 0, sample=False)
            tracer = Tracer()
            finish = install(tracer)
            try:
                traced, traced_failures, _ = run_passes(workload, 0, tracer)
            finally:
                tracer.restore()
            finish()
            failures += traced_failures + [
                f for r in traced for f in workload.check(r)]
            results = plain + traced
            passes = 2
        else:
            results, failures, passes = run_passes(workload, args.seconds)
    finally:
        workload.close()

    attempted = workload.attempted * passes
    failed = min(len(failures), attempted)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"backend={getattr(workload, 'backend', BACKEND)} passes={len(results)}")
    print("  setup probes: " + " ".join(f"{t:.4f}" for t in setup_times) + " s")
    lines: List[str] = []
    metrics: Dict[str, float] = {}
    units = per_layer_units() if args.trace else E2E_UNITS
    if args.trace and len(results) == 2:
        metrics, lines = per_layer(workload, results[0], results[1], tracer)
        spans = WORK / "trace" / f"{workload.name}-s{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans)
        lines.append(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    elif not args.trace and results:
        metrics, lines = end_to_end(workload, results, setup_times)
    for line in lines:
        print("  " + line)
    for name, value in metrics.items():
        if value or not args.trace:
            print(f"  {name:<40} {value:.6g} {units[name]}")
    print(f"  error_rate {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
