"""Reproducible Monte Carlo engine, experiment configs, and result files.

Trials are simulated in fixed-size blocks of ``BLOCK_TRIALS``.  Each block
draws from its own child stream, derived counter-style from the root seed
as SeedSequence(seed, spawn_key=(phase, point_index, block_index)), so
results are bit-identical for a given spec regardless of how many worker
threads execute the blocks.  Block accumulators are merged in block order.

Normalized variance is L * var(theta_hat - theta) around the sample mean
(population-style with the n-1 divisor); the bias is reported separately.
No trimming is applied anywhere except the robustness experiment's
median-|error| track, since Cauchy errors have no variance.
"""

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats as _sstats

from . import asv
from .channel import (
    FadingModel,
    NetworkConfig,
    NoFading,
    PerSensorPower,
    PowerMode,
    RayleighFading,
    RiceanFading,
    TotalPower,
    af_gain,
    af_snapshot_batch,
    cm_snapshot_batch,
)
from .errors import (
    CfZeroError,
    ConfigError,
    DomainError,
    MomentUndefinedError,
    UnsupportedModelError,
)
from .estimators import af_estimates, cm_estimates
from .noise import (
    BoundedScales,
    Cauchy,
    ClassA,
    Gaussian,
    HeterogeneousScaled,
    Laplace,
    LinearGrowthScales,
    NoiseModel,
    Uniform,
)

__all__ = [
    "BLOCK_TRIALS",
    "TrialAccumulator",
    "Sweep",
    "ExperimentSpec",
    "SweepRecord",
    "ExperimentResult",
    "run_experiment",
    "run_fading_compare",
    "run_af_compare",
    "run_cauchy_robustness",
    "run_heterogeneous_consistency",
    "run_kind",
    "check_against_analytic",
    "compared_points",
    "spec_from_dict",
    "spec_to_dict",
    "noise_from_dict",
    "noise_to_dict",
    "fading_from_dict",
    "fading_to_dict",
    "power_from_dict",
    "power_to_dict",
    "network_from_dict",
    "network_to_dict",
    "write_result",
    "write_tracks",
    "CSV_HEADER",
]

#: Trials per simulation block; fixed so seed lineage is thread-count free.
BLOCK_TRIALS = 4096

EXPERIMENT_KINDS = (
    "asv-vs-omega",
    "var-vs-L",
    "fading-compare",
    "af-compare",
    "cauchy-robustness",
    "heterogeneous-consistency",
)


# ---------------------------------------------------------------------------
# Streaming statistics
# ---------------------------------------------------------------------------


@dataclass
class TrialAccumulator:
    """Single-pass mean/variance accumulator with order-stable merging."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0  # sum of squared deviations from the running mean

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    def add_batch(self, xs: np.ndarray) -> None:
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0:
            return
        other = TrialAccumulator(
            n=int(xs.size),
            mean=float(xs.mean()),
            m2=float(np.sum(np.square(xs - xs.mean()))),
        )
        self.merge(other)

    def merge(self, other: "TrialAccumulator") -> None:
        if other.n == 0:
            return
        if self.n == 0:
            self.n, self.mean, self.m2 = other.n, other.mean, other.m2
            return
        n = self.n + other.n
        delta = other.mean - self.mean
        self.mean += delta * other.n / n
        self.m2 += other.m2 + delta * delta * self.n * other.n / n
        self.n = n

    @property
    def variance(self) -> float:
        """Sample variance m2/(n-1); NaN below two observations."""
        return self.m2 / (self.n - 1) if self.n >= 2 else math.nan

    @property
    def mean_square(self) -> float:
        """Mean of squares (variance + bias^2 with the 1/n divisor)."""
        return self.m2 / self.n + self.mean ** 2 if self.n >= 1 else math.nan


# ---------------------------------------------------------------------------
# Experiment specification
# ---------------------------------------------------------------------------

_SWEEP_PARAMETERS = ("omega", "n_sensors", "theta")


@dataclass(frozen=True)
class Sweep:
    parameter: str
    values: Tuple[float, ...]

    def __post_init__(self):
        if self.parameter not in _SWEEP_PARAMETERS:
            raise ConfigError(
                f"sweep parameter must be one of {_SWEEP_PARAMETERS}, "
                f"got {self.parameter!r}"
            )
        if len(self.values) == 0:
            raise ConfigError("sweep must contain at least one value")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: scenario template, sweep, trial budget, root seed."""

    kind: str
    network: NetworkConfig
    sweep: Sweep
    trials: int
    seed: int
    af_nominal_variance: Optional[float] = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}"
            )
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be a 64-bit unsigned int, got {self.seed}")


@dataclass(frozen=True)
class SweepRecord:
    """One sweep point of an experiment result (the wire-format row)."""

    sweep_value: float
    n_trials: int
    normalized_variance: float
    std_error: float
    analytic_asv: float
    bias: float


@dataclass
class ExperimentResult:
    """Records plus reproducibility metadata.

    ``wall_time_s`` is kept in memory only; serialized files contain nothing
    volatile, so identical specs and seeds produce byte-identical files.
    """

    records: List[SweepRecord]
    metadata: Dict
    wall_time_s: float = 0.0


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

ErrorFn = Callable[[NetworkConfig, int, np.random.Generator], np.ndarray]


def _block_sizes(trials: int) -> List[int]:
    full, rem = divmod(trials, BLOCK_TRIALS)
    return [BLOCK_TRIALS] * full + ([rem] if rem else [])


def _run_blocks(
    config: NetworkConfig,
    error_fn: ErrorFn,
    trials: int,
    seed: int,
    phase: int,
    point_index: int,
    threads: int,
) -> List[np.ndarray]:
    """Error arrays for every block of one sweep point, in block order."""
    sizes = _block_sizes(trials)

    def work(block_index: int) -> np.ndarray:
        ss = np.random.SeedSequence(seed, spawn_key=(phase, point_index, block_index))
        rng = np.random.default_rng(ss)
        return error_fn(config, sizes[block_index], rng)

    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, range(len(sizes))))
    return [work(b) for b in range(len(sizes))]


def _accumulate_point(
    config: NetworkConfig,
    error_fn: ErrorFn,
    trials: int,
    seed: int,
    phase: int,
    point_index: int,
    threads: int,
) -> Tuple[TrialAccumulator, int]:
    acc = TrialAccumulator()
    degenerate = 0
    for errs in _run_blocks(config, error_fn, trials, seed, phase, point_index, threads):
        finite = np.isfinite(errs)
        degenerate += int(errs.size - finite.sum())
        acc.add_batch(errs[finite])
    return acc, degenerate


def _collect_point(
    config, error_fn, trials, seed, phase, point_index, threads
) -> np.ndarray:
    return np.concatenate(
        _run_blocks(config, error_fn, trials, seed, phase, point_index, threads)
    )


def _cm_errors(config: NetworkConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    y = cm_snapshot_batch(config, n, rng)
    return cm_estimates(y, config.n_sensors, config.omega, config.power) - config.theta


def _make_af_errors(nominal_variance: float) -> ErrorFn:
    def fn(config: NetworkConfig, n: int, rng: np.random.Generator) -> np.ndarray:
        y = af_snapshot_batch(config, nominal_variance, rng, n_trials=n)
        alpha = af_gain(config, nominal_variance)
        return af_estimates(y, config.n_sensors, alpha) - config.theta

    return fn


def _apply_sweep(network: NetworkConfig, parameter: str, value: float) -> NetworkConfig:
    if parameter == "n_sensors":
        return replace(network, n_sensors=int(round(value)))
    return replace(network, **{parameter: float(value)})


def _analytic_cm(network: NetworkConfig) -> float:
    """Asymptotic variance the estimator should reach at this point.

    A total power budget keeps snr_inv = sigma_v^2 / P_T for all L; a fixed
    per-sensor budget drives the channel-noise share to zero as the network
    grows, so its asymptote is the snr_inv = 0 objective.
    """
    snr_inv = (
        network.channel_noise_variance / network.power.p_t
        if isinstance(network.power, TotalPower)
        else 0.0
    )
    try:
        ctx = asv.AsvContext(
            noise=network.noise,
            snr_inv=snr_inv,
            fading_penalty=asv.fading_penalty(network.fading),
        )
        return asv.asv_generic(ctx, network.omega)
    except (CfZeroError, UnsupportedModelError):
        return math.nan


def _analytic_af(network: NetworkConfig) -> float:
    if not isinstance(network.power, TotalPower):
        return math.nan
    snr_inv = network.channel_noise_variance / network.power.p_t
    try:
        return asv.asv_af(network.theta, network.noise.variance(), snr_inv)
    except (MomentUndefinedError, UnsupportedModelError):
        return math.nan


def _record(
    sweep_value: float, acc: TrialAccumulator, analytic: float, n_sensors: int
) -> SweepRecord:
    nv = n_sensors * acc.variance
    se = nv * math.sqrt(2.0 / (acc.n - 1)) if acc.n >= 3 else math.nan
    return SweepRecord(
        sweep_value=float(sweep_value),
        n_trials=acc.n,
        normalized_variance=nv,
        std_error=se,
        analytic_asv=analytic,
        bias=acc.mean,
    )


def _base_metadata(spec: ExperimentSpec, track: str) -> Dict:
    from cmest import __version__  # local import; package init re-exports this module

    return {
        "kind": spec.kind,
        "track": track,
        "seed": spec.seed,
        "spec": spec_to_dict(spec),
        "version": __version__,
    }


def _sweep_track(
    spec: ExperimentSpec,
    error_fn: ErrorFn,
    analytic_fn: Callable[[NetworkConfig], float],
    phase: int,
    track: str,
    threads: int,
    network: Optional[NetworkConfig] = None,
    trials: Optional[int] = None,
) -> ExperimentResult:
    network = network if network is not None else spec.network
    trials = trials if trials is not None else spec.trials
    t0 = time.perf_counter()
    records = []
    degenerates = []
    for i, value in enumerate(spec.sweep.values):
        config = _apply_sweep(network, spec.sweep.parameter, value)
        acc, degen = _accumulate_point(
            config, error_fn, trials, spec.seed, phase, i, threads
        )
        records.append(_record(value, acc, analytic_fn(config), config.n_sensors))
        degenerates.append(degen)
    metadata = _base_metadata(spec, track)
    metadata["degenerate_trials"] = degenerates
    return ExperimentResult(
        records=records, metadata=metadata, wall_time_s=time.perf_counter() - t0
    )


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> ExperimentResult:
    """Constant-modulus sweep: normalized variance vs analytic value per point."""
    if spec.kind not in ("asv-vs-omega", "var-vs-L"):
        raise ConfigError(f"run_experiment cannot handle kind {spec.kind!r}")
    expected = "omega" if spec.kind == "asv-vs-omega" else "n_sensors"
    if spec.sweep.parameter != expected:
        raise ConfigError(
            f"kind {spec.kind!r} sweeps {expected!r}, got {spec.sweep.parameter!r}"
        )
    return _sweep_track(spec, _cm_errors, _analytic_cm, 0, "cm", threads)


def run_fading_compare(
    spec: ExperimentSpec, threads: int = 1
) -> Dict[str, ExperimentResult]:
    """The configured fading scenario next to its unfaded twin."""
    if spec.kind != "fading-compare":
        raise ConfigError(f"run_fading_compare got kind {spec.kind!r}")
    if isinstance(spec.network.fading, NoFading):
        raise ConfigError("fading-compare needs a fading model on the network")
    faded = _sweep_track(spec, _cm_errors, _analytic_cm, 0, "faded", threads)
    unfaded = _sweep_track(
        spec,
        _cm_errors,
        _analytic_cm,
        1,
        "unfaded",
        threads,
        network=replace(spec.network, fading=NoFading()),
    )
    penalty = asv.fading_penalty(spec.network.fading)
    ratios = [
        f.normalized_variance / u.normalized_variance
        for f, u in zip(faded.records, unfaded.records)
    ]
    faded.metadata["fading_penalty"] = penalty
    faded.metadata["measured_ratio_by_point"] = ratios
    return {"faded": faded, "unfaded": unfaded}


def _resolve_af_nominal_variance(spec: ExperimentSpec) -> float:
    if spec.af_nominal_variance is not None:
        return spec.af_nominal_variance
    try:
        return spec.network.noise.variance()
    except (MomentUndefinedError, UnsupportedModelError) as exc:
        raise ConfigError(
            "set af_nominal_variance explicitly: the sensing noise has no "
            "finite variance to calibrate the AF gain with"
        ) from exc


def run_af_compare(spec: ExperimentSpec, threads: int = 1) -> Dict[str, ExperimentResult]:
    """Constant-modulus and amplify-and-forward side by side on one sweep.

    For a network-size sweep the AF track's metadata carries a linear
    regression of normalized variance on L: its slope should be
    statistically zero (the AF normalized variance is exactly constant in
    L), while the CM track varies.
    """
    if spec.kind != "af-compare":
        raise ConfigError(f"run_af_compare got kind {spec.kind!r}")
    if spec.sweep.parameter not in ("theta", "n_sensors"):
        raise ConfigError("af-compare sweeps theta or n_sensors")
    nominal = _resolve_af_nominal_variance(spec)
    cm = _sweep_track(spec, _cm_errors, _analytic_cm, 0, "cm", threads)
    af = _sweep_track(spec, _make_af_errors(nominal), _analytic_af, 1, "af", threads)
    af.metadata["af_nominal_variance"] = nominal
    af.metadata["af_power_calibrated_with_true_theta"] = True
    if spec.sweep.parameter == "n_sensors" and len(spec.sweep.values) >= 3:
        ls = [r.sweep_value for r in af.records]
        nv = [r.normalized_variance for r in af.records]
        fit = _sstats.linregress(ls, nv)
        af.metadata["flatness_regression"] = {
            "slope": float(fit.slope),
            "stderr": float(fit.stderr),
            "pvalue": float(fit.pvalue),
        }
    return {"cm": cm, "af": af}


def run_cauchy_robustness(
    spec: ExperimentSpec, threads: int = 1
) -> Dict[str, ExperimentResult]:
    """Heavy-tail stress protocol over a network-size sweep.

    Two single-realization traces (one error draw per L, as plotted in the
    robustness figure) plus batch tracks of ``spec.trials`` errors per L.
    Batch metadata records the median |error| per point (medians are the
    only trimmed statistic anywhere; raw variances stay in the records but
    do not converge under Cauchy noise for the AF track) and a two-sample
    KS comparison of the AF batches at the smallest and largest L, which
    should be indistinguishable: the AF error keeps the sensing-noise
    distribution no matter how many sensors report.
    """
    if spec.kind != "cauchy-robustness":
        raise ConfigError(f"run_cauchy_robustness got kind {spec.kind!r}")
    if spec.sweep.parameter != "n_sensors":
        raise ConfigError("cauchy-robustness sweeps n_sensors")
    nominal = _resolve_af_nominal_variance(spec)
    af_errors = _make_af_errors(nominal)
    t0 = time.perf_counter()

    def collect_track(error_fn, analytic_fn, phase, trials, label):
        """Records over the sweep plus each point's finite errors."""
        records, finite_errors, degenerates = [], [], []
        for i, value in enumerate(spec.sweep.values):
            config = _apply_sweep(spec.network, "n_sensors", value)
            errs = _collect_point(config, error_fn, trials, spec.seed, phase, i, threads)
            finite = errs[np.isfinite(errs)]
            acc = TrialAccumulator()
            acc.add_batch(finite)
            records.append(_record(value, acc, analytic_fn(config), config.n_sensors))
            finite_errors.append(finite)
            degenerates.append(int(errs.size - finite.size))
        meta = _base_metadata(spec, label)
        meta["degenerate_trials"] = degenerates
        return ExperimentResult(records=records, metadata=meta), finite_errors

    tracks: Dict[str, ExperimentResult] = {}
    for track, error_fn, phase in (("cm", _cm_errors, 0), ("af", af_errors, 1)):
        analytic_fn = _analytic_cm if track == "cm" else _analytic_af
        result, finite_errors = collect_track(
            error_fn, analytic_fn, phase, spec.trials, f"{track}-batch"
        )
        meta = result.metadata
        meta["median_abs_error_by_point"] = [
            float(np.median(np.abs(e))) for e in finite_errors
        ]
        if track == "af":
            meta["af_nominal_variance"] = nominal
            meta["variance_note"] = (
                "raw variance recorded but non-convergent when the sensing "
                "noise has no finite moments"
            )
            ks = _sstats.ks_2samp(finite_errors[0], finite_errors[-1])
            meta["ks_af_smallest_vs_largest"] = {
                "statistic": float(ks.statistic),
                "pvalue": float(ks.pvalue),
            }
        tracks[f"{track}-batch"] = result

    for track, error_fn, phase in (("cm", _cm_errors, 2), ("af", af_errors, 3)):
        analytic_fn = _analytic_cm if track == "cm" else _analytic_af
        tracks[f"{track}-trace"], _ = collect_track(
            error_fn, analytic_fn, phase, 1, f"{track}-trace"
        )

    wall = time.perf_counter() - t0
    for result in tracks.values():
        result.wall_time_s = wall
    return tracks


def run_heterogeneous_consistency(
    spec: ExperimentSpec, threads: int = 1
) -> Dict[str, ExperimentResult]:
    """MSE-vs-L tracks for bounded vs linearly growing per-sensor scales.

    The configured heterogeneous rule supplies the scale parameter; both the
    bounded rule (scales < sigma_max, estimator stays consistent) and the
    linear-growth rule (scales sigma*sqrt(i), averaging washes the signal
    out and the estimator stalls) are run with it.  Per-point MSE lives in
    each track's metadata; no single analytic variance exists because the
    noise is not identically distributed.
    """
    if spec.kind != "heterogeneous-consistency":
        raise ConfigError(f"run_heterogeneous_consistency got kind {spec.kind!r}")
    if spec.sweep.parameter != "n_sensors":
        raise ConfigError("heterogeneous-consistency sweeps n_sensors")
    noise = spec.network.noise
    if not isinstance(noise, HeterogeneousScaled):
        raise ConfigError("heterogeneous-consistency needs HeterogeneousScaled noise")
    rule = noise.scale_rule
    if isinstance(rule, BoundedScales):
        scale = rule.sigma_max
    elif isinstance(rule, LinearGrowthScales):
        scale = rule.sigma
    else:
        raise ConfigError("scale rule must be BoundedScales or LinearGrowthScales")

    tracks = {}
    rules = {
        "bounded": BoundedScales(sigma_max=scale),
        "linear-growth": LinearGrowthScales(sigma=scale),
    }
    for phase, (label, track_rule) in enumerate(rules.items()):
        network = replace(
            spec.network, noise=HeterogeneousScaled(base=noise.base, scale_rule=track_rule)
        )
        t0 = time.perf_counter()
        records, mses, degenerates = [], [], []
        for i, value in enumerate(spec.sweep.values):
            config = _apply_sweep(network, "n_sensors", value)
            acc, degen = _accumulate_point(
                config, _cm_errors, spec.trials, spec.seed, phase, i, threads
            )
            records.append(_record(value, acc, math.nan, config.n_sensors))
            mses.append(acc.mean_square)
            degenerates.append(degen)
        meta = _base_metadata(spec, label)
        meta["mse_by_point"] = mses
        meta["degenerate_trials"] = degenerates
        tracks[label] = ExperimentResult(
            records=records, metadata=meta, wall_time_s=time.perf_counter() - t0
        )
    return tracks


_RUNNERS = {
    "asv-vs-omega": lambda spec, threads: {"cm": run_experiment(spec, threads)},
    "var-vs-L": lambda spec, threads: {"cm": run_experiment(spec, threads)},
    "fading-compare": run_fading_compare,
    "af-compare": run_af_compare,
    "cauchy-robustness": run_cauchy_robustness,
    "heterogeneous-consistency": run_heterogeneous_consistency,
}


def run_kind(spec: ExperimentSpec, threads: int = 1) -> Dict[str, ExperimentResult]:
    """Dispatch on spec.kind; always returns a dict of track results."""
    return _RUNNERS[spec.kind](spec, threads)


def _is_compared(rec: SweepRecord) -> bool:
    return math.isfinite(rec.analytic_asv) and math.isfinite(rec.normalized_variance)


def compared_points(result: ExperimentResult) -> int:
    """Points that have both a finite analytic value and a variance estimate."""
    return sum(_is_compared(rec) for rec in result.records)


def check_against_analytic(result: ExperimentResult, tolerance: float) -> List[Dict]:
    """Points where simulation and analytic variance disagree beyond tolerance.

    A point with a finite analytic value that was given at least two trials
    (finite ones plus the track's ``degenerate_trials``) fails when it has
    no finite variance estimate.  Points without a finite analytic value,
    and single-draw points, are not compared; see ``compared_points``.
    """
    degenerate = result.metadata.get("degenerate_trials", [0] * len(result.records))
    failures = []
    for rec, n_degenerate in zip(result.records, degenerate):
        if _is_compared(rec):
            rel = abs(rec.normalized_variance / rec.analytic_asv - 1.0)
        elif math.isfinite(rec.analytic_asv) and rec.n_trials + n_degenerate >= 2:
            rel = math.nan  # drawn for a variance, but none came out
        else:
            continue
        if not rel <= tolerance:
            failures.append(
                {
                    "sweep_value": rec.sweep_value,
                    "n_trials": rec.n_trials,
                    "normalized_variance": rec.normalized_variance,
                    "analytic_asv": rec.analytic_asv,
                    "relative_deviation": rel,
                }
            )
    return failures


# ---------------------------------------------------------------------------
# Config dict <-> object conversion
# ---------------------------------------------------------------------------


def _take(d: Dict, what: str, required: Sequence[str], optional: Sequence[str] = ()):
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a mapping, got {type(d).__name__}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigError(f"{what} is missing keys: {missing}")
    unknown = [k for k in d if k not in (*required, *optional)]
    if unknown:
        raise ConfigError(f"{what} has unknown keys: {unknown}")
    return d


def noise_from_dict(d: Dict) -> NoiseModel:
    try:
        return _noise_from_dict(d)
    except DomainError as exc:
        # bad parameter values arriving through a config are config errors
        raise ConfigError(str(exc)) from exc


def _noise_from_dict(d: Dict) -> NoiseModel:
    kind = d.get("kind")
    if kind == "gaussian":
        _take(d, "gaussian noise", ["kind", "variance"])
        return Gaussian(variance_=float(d["variance"]))
    if kind == "laplace":
        _take(d, "laplace noise", ["kind", "variance"])
        return Laplace(variance_=float(d["variance"]))
    if kind == "cauchy":
        _take(d, "cauchy noise", ["kind", "scale"])
        return Cauchy(scale=float(d["scale"]))
    if kind == "uniform":
        _take(d, "uniform noise", ["kind", "variance"])
        return Uniform(variance_=float(d["variance"]))
    if kind == "class-a":
        _take(d, "class-a noise", ["kind", "overlap", "background_ratio", "variance"])
        return ClassA(
            overlap=float(d["overlap"]),
            background_ratio=float(d["background_ratio"]),
            variance_=float(d["variance"]),
        )
    if kind == "heterogeneous":
        _take(d, "heterogeneous noise", ["kind", "base", "rule"])
        rule = d["rule"]
        rkind = rule.get("kind") if isinstance(rule, dict) else None
        if rkind == "bounded":
            _take(rule, "bounded rule", ["kind", "sigma_max"])
            rule_obj = BoundedScales(sigma_max=float(rule["sigma_max"]))
        elif rkind == "linear-growth":
            _take(rule, "linear-growth rule", ["kind", "sigma"])
            rule_obj = LinearGrowthScales(sigma=float(rule["sigma"]))
        else:
            raise ConfigError(f"unknown scale rule kind {rkind!r}")
        return HeterogeneousScaled(base=_noise_from_dict(d["base"]), scale_rule=rule_obj)
    raise ConfigError(f"unknown noise kind {kind!r}")


def noise_to_dict(model: NoiseModel) -> Dict:
    if isinstance(model, Gaussian):
        return {"kind": "gaussian", "variance": model.variance_}
    if isinstance(model, Laplace):
        return {"kind": "laplace", "variance": model.variance_}
    if isinstance(model, Cauchy):
        return {"kind": "cauchy", "scale": model.scale}
    if isinstance(model, Uniform):
        return {"kind": "uniform", "variance": model.variance_}
    if isinstance(model, ClassA):
        return {
            "kind": "class-a",
            "overlap": model.overlap,
            "background_ratio": model.background_ratio,
            "variance": model.variance_,
        }
    if isinstance(model, HeterogeneousScaled):
        rule = model.scale_rule
        if isinstance(rule, BoundedScales):
            rule_d = {"kind": "bounded", "sigma_max": rule.sigma_max}
        elif isinstance(rule, LinearGrowthScales):
            rule_d = {"kind": "linear-growth", "sigma": rule.sigma}
        else:
            raise ConfigError(f"cannot serialize scale rule {rule!r}")
        return {
            "kind": "heterogeneous",
            "base": noise_to_dict(model.base),
            "rule": rule_d,
        }
    raise ConfigError(f"cannot serialize noise model {model!r}")


def fading_from_dict(d: Dict) -> FadingModel:
    kind = d.get("kind")
    if kind == "none":
        _take(d, "fading", ["kind"])
        return NoFading()
    if kind == "rayleigh":
        _take(d, "fading", ["kind"])
        return RayleighFading()
    if kind == "ricean":
        _take(d, "fading", ["kind", "k_factor"])
        return RiceanFading(k_factor=float(d["k_factor"]))
    raise ConfigError(f"unknown fading kind {kind!r}")


def fading_to_dict(fading: FadingModel) -> Dict:
    if isinstance(fading, NoFading):
        return {"kind": "none"}
    if isinstance(fading, RayleighFading):
        return {"kind": "rayleigh"}
    if isinstance(fading, RiceanFading):
        return {"kind": "ricean", "k_factor": fading.k_factor}
    raise ConfigError(f"cannot serialize fading model {fading!r}")


def power_from_dict(d: Dict) -> PowerMode:
    mode = d.get("mode")
    if mode == "per-sensor":
        _take(d, "power", ["mode", "rho"])
        return PerSensorPower(rho=float(d["rho"]))
    if mode == "total":
        _take(d, "power", ["mode", "p_t"])
        return TotalPower(p_t=float(d["p_t"]))
    raise ConfigError(f"unknown power mode {mode!r}")


def power_to_dict(power: PowerMode) -> Dict:
    if isinstance(power, PerSensorPower):
        return {"mode": "per-sensor", "rho": power.rho}
    if isinstance(power, TotalPower):
        return {"mode": "total", "p_t": power.p_t}
    raise ConfigError(f"cannot serialize power mode {power!r}")


def network_from_dict(d: Dict) -> NetworkConfig:
    _take(
        d,
        "network",
        ["n_sensors", "theta", "theta_range", "omega", "power",
         "channel_noise_variance", "noise"],
        optional=["fading"],
    )
    return NetworkConfig(
        n_sensors=int(d["n_sensors"]),
        theta=float(d["theta"]),
        theta_range=float(d["theta_range"]),
        omega=float(d["omega"]),
        power=power_from_dict(d["power"]),
        channel_noise_variance=float(d["channel_noise_variance"]),
        noise=noise_from_dict(d["noise"]),
        fading=fading_from_dict(d.get("fading", {"kind": "none"})),
    )


def network_to_dict(network: NetworkConfig) -> Dict:
    return {
        "n_sensors": network.n_sensors,
        "theta": network.theta,
        "theta_range": network.theta_range,
        "omega": network.omega,
        "power": power_to_dict(network.power),
        "channel_noise_variance": network.channel_noise_variance,
        "noise": noise_to_dict(network.noise),
        "fading": fading_to_dict(network.fading),
    }


def spec_from_dict(d: Dict) -> ExperimentSpec:
    _take(
        d,
        "experiment spec",
        ["kind", "network", "sweep", "trials", "seed"],
        optional=["af_nominal_variance"],
    )
    sweep_d = _take(d["sweep"], "sweep", ["parameter", "values"])
    nominal = d.get("af_nominal_variance")
    return ExperimentSpec(
        kind=d["kind"],
        network=network_from_dict(d["network"]),
        sweep=Sweep(parameter=sweep_d["parameter"], values=tuple(sweep_d["values"])),
        trials=int(d["trials"]),
        seed=int(d["seed"]),
        af_nominal_variance=None if nominal is None else float(nominal),
    )


def spec_to_dict(spec: ExperimentSpec) -> Dict:
    d = {
        "kind": spec.kind,
        "network": network_to_dict(spec.network),
        "sweep": {"parameter": spec.sweep.parameter, "values": list(spec.sweep.values)},
        "trials": spec.trials,
        "seed": spec.seed,
    }
    if spec.af_nominal_variance is not None:
        d["af_nominal_variance"] = spec.af_nominal_variance
    return d


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

CSV_HEADER = "sweep_value,n_trials,normalized_variance,std_error,analytic_asv,bias"


def _fmt(x: float) -> str:
    return repr(float(x))


def result_to_csv(result: ExperimentResult) -> str:
    lines = [CSV_HEADER]
    for r in result.records:
        lines.append(
            ",".join(
                [
                    _fmt(r.sweep_value),
                    str(r.n_trials),
                    _fmt(r.normalized_variance),
                    _fmt(r.std_error),
                    _fmt(r.analytic_asv),
                    _fmt(r.bias),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def result_to_json(result: ExperimentResult) -> str:
    payload = {
        "metadata": _jsonable(result.metadata),
        "records": [
            _jsonable(
                {
                    "sweep_value": r.sweep_value,
                    "n_trials": r.n_trials,
                    "normalized_variance": r.normalized_variance,
                    "std_error": r.std_error,
                    "analytic_asv": r.analytic_asv,
                    "bias": r.bias,
                }
            )
            for r in result.records
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_result(result: ExperimentResult, path, fmt: str = "csv") -> Path:
    path = Path(path)
    if fmt == "csv":
        text = result_to_csv(result)
    elif fmt == "json":
        text = result_to_json(result)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def write_tracks(
    tracks: Dict[str, ExperimentResult], base_path, fmt: str = "csv"
) -> List[Path]:
    """Write one file per track, suffixing the track label before the extension."""
    base = Path(base_path)
    written = []
    if len(tracks) == 1:
        (label, result), = tracks.items()
        return [write_result(result, base, fmt)]
    for label, result in tracks.items():
        path = base.with_name(f"{base.stem}.{label}{base.suffix or '.' + fmt}")
        written.append(write_result(result, path, fmt))
    return written
