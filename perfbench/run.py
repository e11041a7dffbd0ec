#!/usr/bin/env python3
"""Benchmark of cmest: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload phase-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; cmest is imported from ``src/``.
With ``--trace 0`` the run measures set-up (the median of several fresh
processes), then repeats one-thread passes for half of ``--seconds`` and
multi-threaded passes for the rest, and prints the end-to-end metrics.  With
``--trace 1`` it makes two untraced passes around two traced ones (one
thread, then two) and prints the per-layer metrics, with the tracing
overhead.  Informational lines come first; the last line is one JSON
object.  Exit 1 means a correctness check failed, exit 2 that the run could
not start.
"""

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

# The benchmark's own modules that import cmest (workloads, gates, layers) are
# imported inside functions, after import_cmest() has put src/ on the path.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space: request configs (removed when the run ends) and span dumps.
WORK_DIR = ROOT / ".perfbench_run"
SETUP_PROBES = 5
WORKLOADS = ("phase-sweep", "size-sweep-fading", "af-robustness", "analytic")
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "run_s_nproc": "s",
    "peak_rss_mb": "MB",
    "request_ms_p50": "ms",
    "request_ms_p99": "ms",
}

PER_LAYER_UNITS = {
    "noise.ns_per_sample": "ns",
    "noise.samples": "count",
    "channel.cm_self_ns_per_sample": "ns",
    "channel.fading_ns_per_sample": "ns",
    "channel.af_self_ns_per_sample": "ns",
    "estimators.ns_per_trial": "ns",
    "harness.acc_ns_per_trial": "ns",
    "harness.self_s": "s",
    "harness.blocks": "count",
    "harness.thread_busy_fraction": "fraction",
    "harness.render_s": "s",
    "harness.bytes_rendered": "bytes",
    "harness.sensor_samples_per_s": "1/s",
    "asv.ns_per_eval": "ns",
    "asv.evals": "count",
    "optimize.numeric_ms_per_call": "ms",
    "optimize.closed_us_per_call": "us",
    "specfun.us_per_call": "us",
    "presets.build_s": "s",
    "cli.self_ms_per_request": "ms",
    "cli.requests": "count",
    "trace.overhead_s": "s",
    "trace.overhead_fraction": "fraction",
}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_cmest() -> None:
    """Import cmest from this checkout's sources, never from site-packages."""
    src = ROOT / "src"
    if not (src / "cmest" / "__init__.py").is_file():
        raise SetupError(f"no cmest sources at {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import cmest

    if Path(cmest.__file__).resolve().parent != (src / "cmest").resolve():
        raise SetupError(f"imported cmest from {cmest.__file__}, not from {src}")


def fresh_dir(tag: str) -> Path:
    path = WORK_DIR / f"{tag}-{uuid.uuid4().hex[:12]}"
    path.mkdir(parents=True)
    return path


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from spawning a process to its report that the workload is built."""
    times = []
    for _ in range(SETUP_PROBES):
        config_dir = fresh_dir("probe")
        try:
            cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", str(config_dir),
                   "--workload", workload, "--seed", str(seed)]
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True, cwd=ROOT)
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            if line.strip() != "ready" or proc.returncode != 0:
                raise SetupError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
            times.append(elapsed)
        finally:
            shutil.rmtree(config_dir, ignore_errors=True)
    return times


def timed_passes(workload, threads: int, budget_s: float, keep_first: bool) -> list:
    """Passes until another would overrun ``budget_s``; at least one.

    Every pass starts from a collected heap.  Only the first pass keeps its
    outputs (when ``keep_first``); later ones keep hashes, so memory and
    collector work do not grow with the number of passes.
    """
    passes = []
    spent = 0.0
    while True:
        gc.collect()
        p = workload.run_pass(threads)
        spent += p.wall_s
        if passes or not keep_first:
            p.keep_hashes_only()
        passes.append(p)
        if spent + spent / len(passes) > budget_s:
            return passes


def digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(outputs):
        h.update(key.encode() + b"\n" + outputs[key].encode() + b"\n")
    return h.hexdigest()


def output_failures(wl, first, others) -> list:
    """Gates on the first one-thread pass, and identity of every other pass."""
    import gates
    import workloads

    if isinstance(wl, workloads.AnalyticWorkload):
        failures = gates.check_requests(wl, first)
    else:
        failures = gates.check_analytic(wl.specs, first.results)
        exp = {k: wl.expected[k] for k in ("points", "trials", "sensor_samples")}
        failures += gates.check_counts(exp, gates.observed_sim_counts(wl.specs, first.results),
                                       "pass")
    for i, (what, p) in enumerate(others):
        failures += gates.check_identical(
            first.output_hashes(), p.output_hashes(), f"{what} pass {i}"
        )
        if p.exit_codes != first.exit_codes:
            failures.append(f"{what} pass {i}: exit codes differ")
    return failures


def attempted_and_failed(wl, first, n_passes: int) -> tuple:
    """Trials (requests) attempted, and those without a finite estimate (exit 0).

    Later passes are checked to render the same bytes as the first, so the
    first pass stands for all of them.
    """
    import gates
    import workloads

    if isinstance(wl, workloads.AnalyticWorkload):
        attempted = wl.expected["requests"]
        done = sum(1 for c in first.exit_codes.values() if c == 0)
    else:
        attempted = wl.expected["trials"]
        done = gates.observed_sim_counts(wl.specs, first.results)["trials"]
    return attempted * n_passes, (attempted - done) * n_passes


def run_untraced(name: str, seed: int, seconds: float, config_dir: Path):
    import workloads

    wl = workloads.build(name, seed, config_dir)
    setup = measure_setup(name, seed)
    ones = timed_passes(wl, 1, seconds / 2, keep_first=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    multi = timed_passes(wl, workloads.NPROC, seconds - sum(p.wall_s for p in ones),
                         keep_first=False)

    # A request's latency is its median over the one-thread passes, so the
    # percentiles describe the requests rather than one noisy repeat of each.
    latencies_ms = [statistics.median(r) * 1e3 for r in zip(*(p.latencies_s for p in ones))]
    p99 = statistics.quantiles(latencies_ms, n=100, method="inclusive")[98]
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(p.wall_s for p in ones),
        "run_s_nproc": statistics.median(p.wall_s for p in multi),
        "peak_rss_mb": peak_rss_mb,
        "request_ms_p50": statistics.median(latencies_ms),
        "request_ms_p99": p99,
    }
    print("set-up s:", " ".join(f"{t:.4f}" for t in setup))
    print("one-thread pass s:", " ".join(f"{p.wall_s:.4f}" for p in ones))
    print(f"{workloads.NPROC}-thread pass s:", " ".join(f"{p.wall_s:.4f}" for p in multi))
    print(f"requests timed: {len(latencies_ms)}, each in {len(ones)} passes")
    others = [("one-thread", p) for p in ones[1:]] + [("multi-thread", p) for p in multi]
    failures = output_failures(wl, ones[0], others)
    attempted, failed = attempted_and_failed(wl, ones[0], len(ones) + len(multi))
    return wl, ones[0], metrics, END_TO_END_UNITS, failures, attempted, failed


def run_traced(name: str, seed: int, config_dir: Path):
    import layers
    import workloads
    from spans import Tracer

    setup_tracer = Tracer()
    layers.install(setup_tracer)
    try:
        wl = workloads.build(name, seed, config_dir)
    finally:
        setup_tracer.uninstall()
    plain = wl.run_pass(1)
    one_tracer, multi_tracer = Tracer(), Tracer()
    layers.install(one_tracer)
    try:
        traced = wl.run_pass(1)
    finally:
        one_tracer.uninstall()
    layers.install(multi_tracer)
    try:
        traced_multi = wl.run_pass(workloads.NPROC)
    finally:
        multi_tracer.uninstall()

    metrics = layers.layer_metrics(
        one_tracer.spans, multi_tracer.spans, setup_tracer.spans,
        traced_multi.wall_s, workloads.NPROC,
    )
    # The first pass pays one-time costs, so the untraced baseline averages
    # a pass before the traced ones and a pass after them.
    plain_after = wl.run_pass(1)
    untraced_s = (plain.wall_s + plain_after.wall_s) / 2
    metrics["harness.sensor_samples_per_s"] = wl.expected.get("sensor_samples", 0) / untraced_s
    metrics["trace.overhead_s"] = traced.wall_s - untraced_s
    metrics["trace.overhead_fraction"] = traced.wall_s / untraced_s - 1.0
    print(f"passes: untraced one-thread {plain.wall_s:.4f} s and {plain_after.wall_s:.4f} s, "
          f"traced one-thread {traced.wall_s:.4f} s, "
          f"traced {workloads.NPROC}-thread {traced_multi.wall_s:.4f} s")

    failures = output_failures(wl, plain, [("traced", traced), ("traced multi-thread",
                                                                  traced_multi),
                                           ("untraced", plain_after)])
    failures += layers.trace_count_failures(one_tracer.spans, wl)
    dump = WORK_DIR / f"spans-{name}-seed{seed}.json"
    dump.write_text(json.dumps({
        "setup": setup_tracer.to_records(),
        "one_thread": one_tracer.to_records(),
        "multi_thread": multi_tracer.to_records(),
    }))
    print(f"spans written to {dump.relative_to(ROOT)}")
    attempted, failed = attempted_and_failed(wl, plain, 4)
    return wl, plain, metrics, PER_LAYER_UNITS, failures, attempted, failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must lie in [0, 2**63)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_cmest()
        if args.probe_setup:
            import workloads

            workloads.build(args.workload, args.seed, Path(args.probe_setup))
            print("ready", flush=True)
            return 0
        config_dir = fresh_dir(f"configs-{args.workload}")
        try:
            if args.trace:
                result = run_traced(args.workload, args.seed, config_dir)
            else:
                result = run_untraced(args.workload, args.seed, args.seconds, config_dir)
        finally:
            shutil.rmtree(config_dir, ignore_errors=True)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    wl, first, metrics, units, failures, attempted, failed = result
    print(f"digest {args.workload} sha256:{digest(first.outputs)} (informational)")
    for key, value in wl.expected.items():
        print(f"count {key} {value}")
    for key in units:
        print(f"metric {key} {metrics[key]!r} {units[key]}")
    for line in failures:
        print(f"FAIL {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
