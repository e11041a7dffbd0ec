"""The benchmark's workloads: inputs built from a seed, one timed pass each.

Simulation workloads run preset specs through ``harness.run_kind`` and render
every track to CSV and JSON in memory.  The ``analytic`` workload sends
``cli.main`` requests whose configs were written during set-up.  A pass is the
unit that is timed; its outputs feed the correctness gates in ``gates.py``.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from cmest import cli, harness, presets

#: Threads of the multi-threaded passes.  Fixed, not read from the machine,
#: so a pass does the same work everywhere.
NPROC = 2

#: Trials per point.  fig8 needs NPROC full blocks per point, or the threaded
#: pass has nothing to split; the others keep a pass to a few seconds.  Their
#: points (and fig10's and hetero's preset 1000 trials) fit in one block, so
#: the harness runs them on one thread whatever the thread count: on
#: phase-sweep and af-robustness the multi-threaded pass repeats the serial
#: path.
PHASE_TRIALS = 1024
FADING_TRIALS = NPROC * harness.BLOCK_TRIALS
AF_TRIALS = 2048

#: Tracks each experiment kind produces: (label, analytic reference, trials).
#: The reference is "cm" (phase estimator AsV), "af" (AF variance, defined
#: when the sensing noise has a finite variance) or None; trials None means
#: the spec's trials.
TRACKS = {
    "asv-vs-omega": (("cm", "cm", None),),
    "var-vs-L": (("cm", "cm", None),),
    "fading-compare": (("faded", "cm", None), ("unfaded", "cm", None)),
    "af-compare": (("cm", "cm", None), ("af", "af", None)),
    "cauchy-robustness": (
        ("cm-batch", "cm", None),
        ("af-batch", "af", None),
        ("cm-trace", "cm", 1),
        ("af-trace", "af", 1),
    ),
    "heterogeneous-consistency": (("bounded", None, None), ("linear-growth", None, None)),
}


@dataclass
class PassResult:
    """One pass: wall time, per-request latencies, rendered outputs."""

    wall_s: float
    latencies_s: List[float]
    outputs: Dict[str, str]
    results: Dict[str, object] = field(default_factory=dict)
    exit_codes: Dict[str, int] = field(default_factory=dict)
    hashes: Dict[str, str] = field(default_factory=dict)

    def output_hashes(self) -> Dict[str, str]:
        """sha256 of each rendered output."""
        if not self.hashes:
            self.hashes = {
                k: hashlib.sha256(v.encode()).hexdigest() for k, v in self.outputs.items()
            }
        return self.hashes

    def keep_hashes_only(self) -> None:
        """Drop the outputs but keep their hashes, so held passes cost no memory."""
        self.output_hashes()
        self.outputs, self.results = {}, {}


def point_networks(spec) -> List[object]:
    """The network of every sweep point, as the harness builds it."""
    return [harness._apply_sweep(spec.network, spec.sweep.parameter, v)
            for v in spec.sweep.values]


# ---------------------------------------------------------------------------
# Simulation workloads
# ---------------------------------------------------------------------------


def _preset_specs(name: str, seed: int, trials: Optional[int]) -> List[Tuple[str, object]]:
    return [
        (f"{name}.{label}", replace(spec, seed=seed, trials=trials or spec.trials))
        for label, spec in presets.preset(name)
    ]


def phase_sweep_specs(seed: int):
    """fig2 (four noise kinds, 12 phases) and fig5 (Class-A, 4 x 32 phases).

    L = 500, total power, no fading: the constant-modulus trig and reduce and
    the noise samplers do nearly all the work, in little memory.  An omega
    sweep, where the noise draw does not depend on the sweep value.
    """
    return _preset_specs("fig2", seed, PHASE_TRIALS) + _preset_specs("fig5", seed, PHASE_TRIALS)


def fading_specs(seed: int):
    """fig8: Rayleigh and Ricean K=5 tracks, each beside an unfaded twin.

    The only fading path, and the workload whose peak memory grows with L
    (up to 5000); with NPROC blocks per point the thread pool has work.
    """
    return _preset_specs("fig8", seed, FADING_TRIALS)


def af_robustness_specs(seed: int):
    """fig9 (AF vs CM, theta and size sweeps), fig10 (Cauchy) and hetero.

    The four multi-track runners, the AF channel path (no trig, so noise
    sampling dominates), heavy tails, per-sensor scaling and L up to 10000.
    """
    return (
        _preset_specs("fig9", seed, AF_TRIALS)
        + _preset_specs("fig10", seed, None)
        + _preset_specs("hetero", seed, None)
    )


def expected_sim_counts(specs) -> Dict[str, int]:
    """Work a pass must do, computed from the specs alone."""
    counts = {"points": 0, "trials": 0, "sensor_samples": 0, "blocks": 0}
    for _, spec in specs:
        sizes = [net.n_sensors for net in point_networks(spec)]
        for _, _, track_trials in TRACKS[spec.kind]:
            trials = track_trials or spec.trials
            counts["points"] += len(sizes)
            counts["trials"] += trials * len(sizes)
            counts["sensor_samples"] += trials * sum(sizes)
            counts["blocks"] += len(harness._block_sizes(trials)) * len(sizes)
    return counts


class SimWorkload:
    """Preset specs run at a given thread count, each track rendered in memory."""

    def __init__(self, specs) -> None:
        self.specs = specs
        self.expected = expected_sim_counts(specs)

    def run_pass(self, threads: int) -> PassResult:
        latencies, outputs, results = [], {}, {}
        t0 = time.perf_counter()
        for label, spec in self.specs:
            r0 = time.perf_counter()
            tracks = harness.run_kind(spec, threads=threads)
            for track, result in tracks.items():
                key = f"{label}.{track}"
                outputs[key + ".csv"] = harness.result_to_csv(result)
                outputs[key + ".json"] = harness.result_to_json(result)
                results[key] = result
            latencies.append(time.perf_counter() - r0)
        return PassResult(time.perf_counter() - t0, latencies, outputs, results)


# ---------------------------------------------------------------------------
# Analytic workload: in-process CLI requests
# ---------------------------------------------------------------------------

NOISE_KINDS = ("gaussian", "laplace", "uniform", "cauchy", "class-a")
SNR_GRID = (0.01, 0.1, 0.3, 1.0)
FADINGS = ("none", "rayleigh", "ricean")
#: The three ways a curve config sets its grid: no grid key (the CLI's
#: default grid), ``n_points``, or an ``omegas`` list.
CURVE_GRIDS = ("default", "n_points", "omegas")
#: Points of the CLI's default grid, which a config without a grid key gets.
DEFAULT_GRID_POINTS = 2000
#: Points of the explicit grids: a tenth of the default, a coarse plot.
EXPLICIT_GRID_POINTS = 200
FORMATS = ("csv", "json")
#: "closed" is what "auto" runs where a closed form exists, and an error
#: (class-a) where none does, so it is left out.
OPT_METHODS = ("auto", "numeric")
THETA_RANGE = 12.0


def _noise_cfg(kind: str, rnd: random.Random) -> dict:
    if kind == "cauchy":
        return {"kind": "cauchy", "scale": rnd.uniform(0.5, 2.0)}
    if kind == "class-a":
        return {
            "kind": "class-a",
            "overlap": rnd.uniform(0.1, 1.0),
            "background_ratio": rnd.uniform(0.0, 0.2),
            "variance": rnd.uniform(1.0, 3.0),
        }
    # Uniform variance stays below 2, so its first cf zero (3.1/sqrt(3*2))
    # lies beyond 2*pi/THETA_RANGE and no curve request hits it.
    return {"kind": kind, "variance": rnd.uniform(0.5, 2.0)}


def _curve_request(rnd: random.Random, kind, snr, fading, grid, fmt) -> Tuple[str, dict, str]:
    cfg = {
        "noise": _noise_cfg(kind, rnd),
        "theta_range": THETA_RANGE,
        "snr_inv": snr * rnd.uniform(0.9, 1.1),
        "fading": {"kind": fading},
    }
    if fading == "ricean":
        cfg["fading"]["k_factor"] = rnd.uniform(1.0, 10.0)
    if grid == "n_points":
        cfg["n_points"] = EXPLICIT_GRID_POINTS
    elif grid == "omegas":
        omega_max = 2.0 * math.pi / THETA_RANGE
        lo = omega_max * rnd.uniform(1e-3, 1e-2)
        n = EXPLICIT_GRID_POINTS
        cfg["omegas"] = [lo + (omega_max - lo) * i / (n - 1) for i in range(n)]
    return "asv-curve", cfg, fmt


def _optimize_request(rnd: random.Random, kind, snr, method, fmt) -> Tuple[str, dict, str]:
    cfg = {
        "noise": _noise_cfg(kind, rnd),
        "theta_range": THETA_RANGE,
        "snr_inv": snr * rnd.uniform(0.9, 1.1),
        "method": method,
    }
    return "optimize-omega", cfg, fmt


def analytic_requests(seed: int) -> List[Tuple[str, dict, str]]:
    """(command, config, format) triples: a fixed mix, seeded parameters and order.

    No record of how the CLI is used exists to weight the mix, so it weights
    nothing: both commands are sent equally often, and within a command every
    combination of its options equally often.  Each command's option grid is
    repeated up to the least common multiple of the two grid sizes.
    """
    rnd = random.Random(seed)
    curve = list(itertools.product(NOISE_KINDS, SNR_GRID, FADINGS, CURVE_GRIDS, FORMATS))
    opt = list(itertools.product(NOISE_KINDS, SNR_GRID, OPT_METHODS, FORMATS))
    per_command = math.lcm(len(curve), len(opt))
    reqs = [_curve_request(rnd, *c) for c in curve * (per_command // len(curve))]
    reqs += [_optimize_request(rnd, *o) for o in opt * (per_command // len(opt))]
    rnd.shuffle(reqs)
    return reqs


def curve_points(cfg: dict) -> int:
    if "omegas" in cfg:
        return len(cfg["omegas"])
    return int(cfg.get("n_points", DEFAULT_GRID_POINTS))


class _ThreadSink(io.TextIOBase):
    """Stand-in for sys.stdout/sys.stderr that writes to a per-thread buffer."""

    def __init__(self) -> None:
        self._local = threading.local()

    def reset(self) -> None:
        self._local.buf = io.StringIO()

    def getvalue(self) -> str:
        return self._local.buf.getvalue()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        return self._local.buf.write(text)


class AnalyticWorkload:
    """CLI requests read configs written at set-up; output stays in memory.

    The only workload where asv, optimize, specfun and argument parsing do
    the work; the simulations touch them once per point.
    """

    def __init__(self, seed: int, config_dir: Path) -> None:
        self.requests = []
        for i, (command, cfg, fmt) in enumerate(analytic_requests(seed)):
            path = config_dir / f"req{i:05d}.json"
            path.write_text(json.dumps(cfg))
            argv = [command, "--config", str(path), "--format", fmt]
            self.requests.append((f"req{i:05d}", argv, cfg))
        self.expected = {
            "requests": len(self.requests),
            "curve_evals": sum(
                curve_points(cfg) for _, argv, cfg in self.requests if argv[0] == "asv-curve"
            ),
        }

    def _serve(self, out: _ThreadSink, err: _ThreadSink, argv) -> Tuple[int, str, float]:
        out.reset()
        err.reset()
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed request, not a crashed run
            traceback.print_exc(file=err)
            code = 1
        return code, out.getvalue(), time.perf_counter() - t0

    def run_pass(self, threads: int) -> PassResult:
        out, err = _ThreadSink(), _ThreadSink()
        outputs, codes = {}, {}
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            if threads == 1:
                served = [self._serve(out, err, argv) for _, argv, _ in self.requests]
            else:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    served = list(
                        pool.map(lambda r: self._serve(out, err, r[1]), self.requests)
                    )
            wall = time.perf_counter() - t0
        for (key, _, _), (code, text, _) in zip(self.requests, served):
            outputs[key] = text
            codes[key] = code
        return PassResult(wall, [s[2] for s in served], outputs, exit_codes=codes)


def build(name: str, seed: int, config_dir: Path):
    """The named workload's inputs: preset specs, or request configs on disk."""
    if name == "phase-sweep":
        return SimWorkload(phase_sweep_specs(seed))
    if name == "size-sweep-fading":
        return SimWorkload(fading_specs(seed))
    if name == "af-robustness":
        return SimWorkload(af_robustness_specs(seed))
    if name == "analytic":
        return AnalyticWorkload(seed, config_dir)
    raise ValueError(f"unknown workload {name!r}")

