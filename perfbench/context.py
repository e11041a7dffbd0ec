#!/usr/bin/env python3
"""Record the context benchmark figures were measured in: perfbench/context.json.

    python3 perfbench/context.py

Writes the machine and library versions, each workload's rationale (the
``why`` lines of BENCHMARK.json) and, per workload, the tracing overhead of
one ``run.py --trace 1`` run: the traced one-thread pass minus the untraced
one.  Run it from the root of a source checkout, on an otherwise idle machine.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Seed of the traced runs that measure the tracing overhead.
SEED = 1


def _first_line_with(path: str, prefix: str) -> str:
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _first_line_with("/proc/cpuinfo", "model name"),
        "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "mem_total": _first_line_with("/proc/meminfo", "MemTotal"),
    }


def tracing_overhead(workload: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: metrics[k]["value"] for k in ("trace.overhead_s", "trace.overhead_fraction")}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    context = {
        "environment": environment(),
        "workloads": {
            w["name"]: {"why": w["why"], **tracing_overhead(w["name"])}
            for w in bench["workloads"]
        },
    }
    (HERE / "context.json").write_text(json.dumps(context, indent=2) + "\n")
    print(json.dumps(context, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
