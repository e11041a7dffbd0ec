"""Correctness gates: every one must hold, or the benchmark run fails.

- Simulated normalized variance agrees with the analytic value at every
  point that has one, within a bound set by the point's trial count.
- Multi-threaded and repeated passes render byte-identical results.
- The work done matches the counts computed from the specs.
- Every CLI request exits 0 and prints output that parses and is sane.
"""

import csv
import io
import json
import math
from typing import Dict, List

import numpy as np

from cmest import asv, harness
from cmest.errors import MomentUndefinedError

from workloads import TRACKS, curve_points, point_networks

#: Per-point bound in standard errors.  Under Gaussian errors a |z| above 5
#: happens once in 1.7 million points.
Z_BOUND = 5.0
#: Excess kurtosis of the estimation error the bound allows for.  The
#: records' std_error assumes 0, which understates the error for heavy tails.
KURTOSIS_ALLOWANCE = 2.0
#: The AsV is a delta-method asymptote: it holds while the received phase
#: omega*theta_hat has a small standard deviation (at most ANGLE_SD_MAX
#: radians) and lies WRAP_MARGIN of them or more from a wrap-around edge
#: (0 or 2*pi).  Outside that regime wrapped estimates and the curvature of
#: the angle add variance the asymptote omits, so only the lower bound holds.
ANGLE_SD_MAX = 0.12
WRAP_MARGIN = 6.0

#: Optimizer results must reach the minimum of a plain grid scan to this
#: relative tolerance.
OPT_GRID_POINTS = 2000
OPT_GRID_RTOL = 1e-6


def relative_tolerance(n_trials: int) -> float:
    """Bound on |nv/asv - 1| for a variance estimated from n_trials errors."""
    return Z_BOUND * math.sqrt((2.0 + KURTOSIS_ALLOWANCE) / (n_trials - 1))


def asymptotic(network, analytic: float) -> bool:
    """Whether the AsV predicts the variance at this point (see ANGLE_SD_MAX)."""
    phase = network.omega * network.theta
    angle_sd = network.omega * math.sqrt(analytic / network.n_sensors)
    edge = min(phase, 2.0 * math.pi - phase)
    return angle_sd <= ANGLE_SD_MAX and edge >= WRAP_MARGIN * angle_sd


def _has_reference(reference, spec) -> bool:
    if reference == "cm":
        return True
    if reference == "af":
        try:
            spec.network.noise.variance()
        except MomentUndefinedError:
            return False
        return True
    return False


def check_analytic(specs, results: Dict[str, object]) -> List[str]:
    """Failures of the simulation-vs-analytic agreement, one line each.

    Which points have an analytic reference is decided from the specs, so a
    point whose analytic value or variance went missing fails instead of
    being skipped.
    """
    failures = []
    compared = 0
    for label, spec in specs:
        networks = point_networks(spec)
        for track, reference, track_trials in TRACKS[spec.kind]:
            key = f"{label}.{track}"
            result = results.get(key)
            if result is None:
                failures.append(f"{key}: track missing")
                continue
            if len(result.records) != len(networks):
                failures.append(f"{key}: {len(result.records)} records, want {len(networks)}")
                continue
            if (track_trials or spec.trials) < 2 or not _has_reference(reference, spec):
                continue
            for rec, net in zip(result.records, networks):
                where = f"{key} @ {rec.sweep_value:g}"
                if not (math.isfinite(rec.analytic_asv) and math.isfinite(rec.normalized_variance)):
                    failures.append(f"{where}: analytic {rec.analytic_asv}, simulated "
                                    f"{rec.normalized_variance}")
                    continue
                compared += 1
                rel = rec.normalized_variance / rec.analytic_asv - 1.0
                tol = relative_tolerance(rec.n_trials)
                two_sided = reference == "af" or asymptotic(net, rec.analytic_asv)
                if rel < -tol or (two_sided and rel > tol):
                    failures.append(f"{where}: nv/asv - 1 = {rel:.4f}, bound {tol:.4f}")
    if compared == 0:
        failures.append("no point was compared with its analytic value")
    return failures


def check_identical(reference: Dict[str, str], other: Dict[str, str], what: str) -> List[str]:
    """Failures where two passes rendered different bytes."""
    if reference.keys() != other.keys():
        return [f"{what}: outputs differ in their tracks"]
    return [f"{what}: {k} differs" for k in reference if reference[k] != other[k]]


def observed_sim_counts(specs, results: Dict[str, object]) -> Dict[str, int]:
    """Counts read back from the records: finite trials and their samples.

    A record counts only its finite estimates, so a single non-finite trial
    fails the count gate: a correct run has no failed trials.
    """
    counts = {"points": 0, "trials": 0, "sensor_samples": 0}
    for label, spec in specs:
        sizes = [net.n_sensors for net in point_networks(spec)]
        for track, _, _ in TRACKS[spec.kind]:
            result = results.get(f"{label}.{track}")
            if result is None:
                continue
            for rec, size in zip(result.records, sizes):
                counts["points"] += 1
                counts["trials"] += rec.n_trials
                counts["sensor_samples"] += rec.n_trials * size
    return counts


def check_counts(expected: Dict[str, int], observed: Dict[str, int], what: str) -> List[str]:
    return [
        f"{what}: {k} = {observed[k]}, want {expected[k]}"
        for k in observed
        if observed[k] != expected[k]
    ]


def _parse_curve(text: str, fmt: str) -> List[float]:
    if fmt == "json":
        return [r["analytic_asv"] for r in json.loads(text)["records"]]
    rows = list(csv.reader(io.StringIO(text)))
    if ",".join(rows[0]) != harness.CSV_HEADER:
        raise ValueError(f"bad header {rows[0]}")
    return [float(r[4]) for r in rows[1:]]


def _parse_opt(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    (row,) = csv.DictReader(io.StringIO(text))
    return {"omega": float(row["omega"]), "asv_at_opt": float(row["asv_at_opt"])}


def _grid_minimum(cfg: dict) -> float:
    ctx = asv.AsvContext(
        noise=harness.noise_from_dict(cfg["noise"]), snr_inv=float(cfg["snr_inv"])
    )
    omega_max = 2.0 * math.pi / cfg["theta_range"]
    grid = np.linspace(omega_max / OPT_GRID_POINTS, omega_max, OPT_GRID_POINTS)
    return float(np.min(asv.asv_on_grid(ctx, grid)))


def check_requests(workload, p) -> List[str]:
    """Every request exited 0 and printed output that parses and is sane."""
    failures = []
    for key, argv, cfg in workload.requests:
        code, text, fmt = p.exit_codes.get(key), p.outputs.get(key, ""), argv[-1]
        if code != 0:
            failures.append(f"{key} {argv[0]}: exit {code}")
            continue
        try:
            if argv[0] == "asv-curve":
                values = _parse_curve(text, fmt)
                if len(values) != curve_points(cfg):
                    failures.append(f"{key}: {len(values)} curve points, want {curve_points(cfg)}")
                elif not all(v is not None and math.isfinite(v) and v > 0 for v in values):
                    failures.append(f"{key}: curve value not finite and positive")
            else:
                res = _parse_opt(text, fmt)
                omega_max = 2.0 * math.pi / cfg["theta_range"]
                if not 0.0 < res["omega"] <= omega_max * (1 + 1e-12):
                    failures.append(f"{key}: omega {res['omega']} outside (0, {omega_max}]")
                elif res["asv_at_opt"] > _grid_minimum(cfg) * (1 + OPT_GRID_RTOL):
                    failures.append(f"{key}: optimum {res['asv_at_opt']} above the grid minimum")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            failures.append(f"{key}: output does not parse: {exc}")
    return failures
