"""Reproducible Monte Carlo engine, experiment configs, and result files.

Every experiment kind is a list of track plans run by one engine.  A plan
names its track, the network the sweep is applied to, how a block of trials
becomes estimation errors, the analytic value of a point, its seed phase and
its trials per point; a kind may add a post-processor over the finished
tracks (fading ratios, the AF flatness regression, robustness medians and
KS test, heterogeneous MSE).

Trials are simulated in fixed-size blocks of ``BLOCK_TRIALS``.  Each block
draws from its own child stream, derived counter-style from the root seed
as SeedSequence(seed, spawn_key=(phase, point_index, block_index)), so
results are bit-identical for a given spec regardless of how many worker
threads execute the blocks.  A run's (track, point, block) units are made
lazily, a few per worker in flight; accumulators merge in block order.

Normalized variance is L * var(theta_hat - theta) around the sample mean
(population-style with the n-1 divisor); the bias is reported separately.
No trimming is applied anywhere except the robustness experiment's
median-|error| track, since Cauchy errors have no variance.
"""

import collections
import itertools
import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, asv, specfun
from .channel import (
    NetworkConfig,
    NoFading,
    PerSensorPower,
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
    _shown_count,
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
    "run_kind",
    "check_against_analytic",
    "spec_from_dict",
    "spec_to_dict",
    "write_tracks",
    "CSV_HEADER",
]

#: Trials per simulation block; fixed so seed lineage is thread-count free.
BLOCK_TRIALS = 4096
#: Most trials per point, as input validation: bookkeeping is flat in trials.
_MAX_TRIALS = 2 ** 30
#: Units submitted and not yet merged, per worker of a multi-thread run.
_UNITS_PER_WORKER = 4


# ---------------------------------------------------------------------------
# Streaming statistics
# ---------------------------------------------------------------------------


@dataclass
class TrialAccumulator:
    """Single-pass mean/variance accumulator with order-stable merging."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0  # sum of squared deviations from the running mean

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
        values = tuple(float(v) for v in self.values)
        for v in values:
            if not math.isfinite(v):
                raise ConfigError(f"sweep values must be finite, got {v}")
            if self.parameter == "n_sensors" and not v.is_integer():
                raise ConfigError(f"n_sensors sweep values must be integers, got {v}")
        object.__setattr__(self, "values", values)


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
        if self.kind not in _KINDS:
            raise ConfigError(
                f"kind must be one of {tuple(_KINDS)}, got {self.kind!r}"
            )
        if not 1 <= self.trials <= _MAX_TRIALS:
            raise ConfigError(
                f"trials must lie in [1, 2**30], got {_shown_count(self.trials)}"
            )
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be a 64-bit unsigned int, got {self.seed}")
        if self.af_nominal_variance is not None and not self.af_nominal_variance > 0.0:
            raise ConfigError(
                f"nominal variance must be > 0 for AF gain, got {self.af_nominal_variance}"
            )


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
    """Records plus reproducibility metadata, with nothing volatile in either."""

    records: List[SweepRecord]
    metadata: Dict


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

ErrorFn = Callable[[NetworkConfig, int, np.random.Generator], np.ndarray]
AnalyticFn = Callable[[NetworkConfig], float]


@dataclass(frozen=True)
class TrackPlan:
    """One track of an experiment, as the engine runs it at every sweep point."""

    label: str
    network: NetworkConfig  # the sweep parameter is applied to this network
    error_fn: ErrorFn
    analytic_fn: AnalyticFn
    phase: int  # first spawn-key entry of every block's seed
    trials: int


@dataclass
class _Track:
    """A finished track plus the per-point statistics post-processors read."""

    result: ExperimentResult
    accs: List[TrialAccumulator]
    finite_errors: List[np.ndarray]  # per point, only when the kind keeps them


def _block_sizes(trials: int) -> List[int]:
    full, rem = divmod(trials, BLOCK_TRIALS)
    return [BLOCK_TRIALS] * full + ([rem] if rem else [])


def _apply_sweep(network: NetworkConfig, parameter: str, value: float) -> NetworkConfig:
    if parameter == "n_sensors":
        return replace(network, n_sensors=int(value))
    return replace(network, **{parameter: float(value)})


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
        bias=acc.mean if acc.n else math.nan,  # no finite trial, no bias
    )


# ---------------------------------------------------------------------------
# Experiment kinds: track plans and post-processors
# ---------------------------------------------------------------------------


def _cm_errors(config: NetworkConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    y = cm_snapshot_batch(config, n, rng)
    return cm_estimates(y, config.n_sensors, config.omega, config.power) - config.theta


def _make_af_errors(nominal_variance: float) -> ErrorFn:
    def fn(config: NetworkConfig, n: int, rng: np.random.Generator) -> np.ndarray:
        y = af_snapshot_batch(config, nominal_variance, rng, n_trials=n)
        alpha = af_gain(config, nominal_variance)
        return af_estimates(y, config.n_sensors, alpha) - config.theta

    return fn


def _analytic_cm(network: NetworkConfig) -> float:
    """Asymptotic variance the estimator should reach at this point."""
    try:
        ctx = asv.AsvContext(
            noise=network.noise,
            snr_inv=network.snr_inv,
            fading_penalty=network.fading.penalty(),
        )
        return asv.asv_generic(ctx, network.omega)
    except (CfZeroError, UnsupportedModelError):
        return math.nan


def _analytic_af(network: NetworkConfig) -> float:
    try:
        return asv.asv_af(network.theta, network.noise.variance(), network.snr_inv)
    except (MomentUndefinedError, UnsupportedModelError):
        return math.nan


def _no_analytic(network: NetworkConfig) -> float:
    return math.nan


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


def _cm_plan(label: str, network: NetworkConfig, phase: int, trials: int) -> TrackPlan:
    return TrackPlan(label, network, _cm_errors, _analytic_cm, phase, trials)


def _af_plan(spec: ExperimentSpec, label: str, phase: int, trials: int) -> TrackPlan:
    """An amplify-and-forward track; its power and fading are checked here,
    before any track of the run is simulated."""
    if not isinstance(spec.network.power, TotalPower):
        raise ConfigError("amplify-and-forward is defined under a total power budget")
    if not isinstance(spec.network.fading, NoFading):
        raise ConfigError("fading is not modeled for the AF baseline")
    af_errors = _make_af_errors(_resolve_af_nominal_variance(spec))
    return TrackPlan(label, spec.network, af_errors, _analytic_af, phase, trials)


def _cm_plans(spec: ExperimentSpec) -> List[TrackPlan]:
    """Constant-modulus sweep: normalized variance vs analytic value per point."""
    return [_cm_plan("cm", spec.network, 0, spec.trials)]


def _fading_plans(spec: ExperimentSpec) -> List[TrackPlan]:
    """The configured fading scenario next to its unfaded twin."""
    if isinstance(spec.network.fading, NoFading):
        raise ConfigError("fading-compare needs a fading model on the network")
    unfaded = replace(spec.network, fading=NoFading())
    return [
        _cm_plan("faded", spec.network, 0, spec.trials),
        _cm_plan("unfaded", unfaded, 1, spec.trials),
    ]


def _fading_finish(spec: ExperimentSpec, tracks: Dict[str, _Track]) -> None:
    faded, unfaded = tracks["faded"].result, tracks["unfaded"].result
    faded.metadata["fading_penalty"] = spec.network.fading.penalty()
    # an unfaded variance of 0 (every estimate equal) leaves no ratio
    faded.metadata["measured_ratio_by_point"] = [
        f.normalized_variance / u.normalized_variance
        if u.normalized_variance != 0.0 else math.nan
        for f, u in zip(faded.records, unfaded.records)
    ]


def _af_plans(spec: ExperimentSpec) -> List[TrackPlan]:
    """Constant-modulus and amplify-and-forward side by side on one sweep."""
    return [
        _cm_plan("cm", spec.network, 0, spec.trials),
        _af_plan(spec, "af", 1, spec.trials),
    ]


def _af_finish(spec: ExperimentSpec, tracks: Dict[str, _Track]) -> None:
    """For a network-size sweep the AF track's metadata carries a linear
    regression of normalized variance on L: its slope should be
    statistically zero (the AF normalized variance is exactly constant in
    L), while the CM track varies."""
    af = tracks["af"].result
    af.metadata["af_nominal_variance"] = _resolve_af_nominal_variance(spec)
    af.metadata["af_power_calibrated_with_true_theta"] = True
    sizes = [r.sweep_value for r in af.records]
    if spec.sweep.parameter == "n_sensors" and len(sizes) >= 3 and len(set(sizes)) > 1:
        slope, stderr, pvalue = _linear_fit(
            sizes, [r.normalized_variance for r in af.records]
        )
        af.metadata["flatness_regression"] = {
            "slope": slope,
            "stderr": stderr,
            "pvalue": pvalue,
        }


def _linear_fit(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float, float]:
    """Least-squares slope of y on x, its standard error, and the two-sided
    p-value of a zero slope (t test on len(x) - 2 degrees of freedom).

    Needs at least three points and two distinct x.  The arithmetic is that
    of ``scipy.stats.linregress``, so slope and standard error keep its bits.
    """
    tiny = 1.0e-20  # keeps t finite at |r| = 1
    df = len(x) - 2
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    t = r * np.sqrt(df / ((1.0 - r + tiny) * (1.0 + r + tiny)))
    stderr = np.sqrt((1 - r ** 2) * ssym / ssxm / df)
    return (
        float(ssxym / ssxm),
        float(stderr),
        specfun.student_t_two_sided_sf(float(t), df),
    )


def _robustness_plans(spec: ExperimentSpec) -> List[TrackPlan]:
    """Heavy-tail stress protocol over a network-size sweep: batch tracks of
    ``spec.trials`` errors per L, plus two single-realization traces (one
    error draw per L, as plotted in the robustness figure)."""
    return [
        _cm_plan("cm-batch", spec.network, 0, spec.trials),
        _af_plan(spec, "af-batch", 1, spec.trials),
        _cm_plan("cm-trace", spec.network, 2, 1),
        _af_plan(spec, "af-trace", 3, 1),
    ]


def _robustness_finish(spec: ExperimentSpec, tracks: Dict[str, _Track]) -> None:
    """Batch metadata records the median |error| per point (medians are the
    only trimmed statistic anywhere; raw variances stay in the records but
    do not converge under Cauchy noise for the AF track) and a two-sample
    KS comparison of the AF batches at the smallest and largest L, which
    should be indistinguishable: the AF error keeps the sensing-noise
    distribution no matter how many sensors report.  Both use finite errors
    only."""
    for label in ("cm-batch", "af-batch"):
        tracks[label].result.metadata["median_abs_error_by_point"] = [
            float(np.median(np.abs(e))) for e in tracks[label].finite_errors
        ]
    errors = tracks["af-batch"].finite_errors
    meta = tracks["af-batch"].result.metadata
    meta["af_nominal_variance"] = _resolve_af_nominal_variance(spec)
    meta["variance_note"] = (
        "raw variance recorded but non-convergent when the sensing "
        "noise has no finite moments"
    )
    statistic, pvalue = _ks_two_sample(errors[0], errors[-1])
    meta["ks_af_smallest_vs_largest"] = {"statistic": statistic, "pvalue": pvalue}


def _ks_two_sample(a: np.ndarray, b: np.ndarray) -> Tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov statistic and exact p-value.

    The statistic is the largest gap between the two empirical CDFs, taken
    as an integer count of steps h and reported as h / lcm(len(a), len(b)),
    as ``scipy.stats.ks_2samp`` reports it; ties are handled by evaluating
    both CDFs at every sample point.  NaN for an empty sample.
    """
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        return math.nan, math.nan
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    g = math.gcd(n1, n2)
    gaps = np.searchsorted(a, both, side="right") * (n2 // g) - np.searchsorted(
        b, both, side="right"
    ) * (n1 // g)
    h = int(np.max(np.abs(gaps)))
    return h / (n1 // g * n2), specfun.ks_two_sample_sf(n1, n2, h)


def _hetero_plans(spec: ExperimentSpec) -> List[TrackPlan]:
    """MSE-vs-L tracks for bounded vs linearly growing per-sensor scales.

    The configured heterogeneous rule supplies the scale parameter; both the
    bounded rule (scales < sigma_max, estimator stays consistent) and the
    linear-growth rule (scales sigma*sqrt(i), averaging washes the signal
    out and the estimator stalls) are run with it.  No single analytic
    variance exists because the noise is not identically distributed.
    """
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
    rules = (
        ("bounded", BoundedScales(sigma_max=scale)),
        ("linear-growth", LinearGrowthScales(sigma=scale)),
    )
    return [
        TrackPlan(
            label,
            replace(spec.network, noise=HeterogeneousScaled(noise.base, track_rule)),
            _cm_errors,
            _no_analytic,
            phase,
            spec.trials,
        )
        for phase, (label, track_rule) in enumerate(rules)
    ]


def _hetero_finish(spec: ExperimentSpec, tracks: Dict[str, _Track]) -> None:
    for track in tracks.values():
        track.result.metadata["mse_by_point"] = [acc.mean_square for acc in track.accs]


@dataclass(frozen=True)
class _Kind:
    """An experiment kind: the sweeps it allows, its plans, its post-processor."""

    sweeps: Tuple[str, ...]
    plans: Callable[[ExperimentSpec], List[TrackPlan]]
    finish: Optional[Callable[[ExperimentSpec, Dict[str, _Track]], None]] = None
    keep_errors: bool = False  # hand each point's finite errors to ``finish``


_KINDS = {
    "asv-vs-omega": _Kind(("omega",), _cm_plans),
    "var-vs-L": _Kind(("n_sensors",), _cm_plans),
    "fading-compare": _Kind(_SWEEP_PARAMETERS, _fading_plans, _fading_finish),
    "af-compare": _Kind(("theta", "n_sensors"), _af_plans, _af_finish),
    "cauchy-robustness": _Kind(
        ("n_sensors",), _robustness_plans, _robustness_finish, keep_errors=True
    ),
    "heterogeneous-consistency": _Kind(("n_sensors",), _hetero_plans, _hetero_finish),
}


def run_kind(spec: ExperimentSpec, threads: int = 1) -> Dict[str, ExperimentResult]:
    """Run every track of the spec's kind; returns {label: result} in plan order.

    The (track, point, block) units are made lazily and run on one pool of
    ``threads`` workers, a few per worker in flight (a plain loop for one
    thread); each point's accumulators merge in block order on the caller.
    """
    kind = _KINDS[spec.kind]
    if spec.sweep.parameter not in kind.sweeps:
        raise ConfigError(
            f"kind {spec.kind!r} sweeps one of {kind.sweeps}, "
            f"got {spec.sweep.parameter!r}"
        )
    threads = _integer(threads, "threads")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    plans = kind.plans(spec)
    points = [
        (plan, i, _apply_sweep(plan.network, spec.sweep.parameter, v))
        for plan in plans
        for i, v in enumerate(spec.sweep.values)
    ]
    units = (  # ceil(trials / BLOCK_TRIALS) blocks, the last takes the rest
        (point, b, min(BLOCK_TRIALS, point[0].trials - b * BLOCK_TRIALS))
        for point in points
        for b in range(-(-point[0].trials // BLOCK_TRIALS))
    )

    def work(unit) -> Tuple[tuple, TrialAccumulator, Optional[np.ndarray]]:
        (plan, i, config), b, n = unit
        ss = np.random.SeedSequence(spec.seed, spawn_key=(plan.phase, i, b))
        errs = plan.error_fn(config, n, np.random.default_rng(ss))
        finite = errs[np.isfinite(errs)]
        acc = TrialAccumulator()
        acc.add_batch(finite)
        return unit[0], acc, finite if kind.keep_errors else None

    tracks = {}
    workers = min(threads, sum(-(-plan.trials // BLOCK_TRIALS) for plan, _, _ in points))
    pool = ThreadPoolExecutor(workers) if threads > 1 else None
    try:
        blocks = _in_flight(pool, work, units, workers) if pool else map(work, units)
        grouped = itertools.groupby(blocks, lambda r: r[0])  # one group per point
        for plan in plans:
            records, accs, kept, degenerates = [], [], [], []
            for value, ((_, _, config), results) in zip(spec.sweep.values, grouped):
                acc, finite = TrialAccumulator(), []
                for _, block_acc, errs in results:
                    acc.merge(block_acc)
                    if kind.keep_errors:
                        finite.append(errs)
                analytic = plan.analytic_fn(config)
                records.append(_record(value, acc, analytic, config.n_sensors))
                accs.append(acc)
                degenerates.append(plan.trials - acc.n)
                if kind.keep_errors:
                    kept.append(np.concatenate(finite))
            metadata = dict(
                kind=spec.kind, track=plan.label, seed=spec.seed,
                spec=spec_to_dict(spec), version=__version__,
                degenerate_trials=degenerates,
            )
            tracks[plan.label] = _Track(ExperimentResult(records, metadata), accs, kept)
    finally:
        if pool is not None:  # after an error, queued units are dropped, not run
            pool.shutdown(cancel_futures=True)
    if kind.finish is not None:
        kind.finish(spec, tracks)
    return {label: t.result for label, t in tracks.items()}


def _in_flight(pool, fn: Callable, units: Iterator, workers: int) -> Iterator:
    """``map(fn, units)`` on the pool, in order, with ``_UNITS_PER_WORKER``
    units per worker submitted ahead of the result being read."""
    futures = (pool.submit(fn, unit) for unit in units)
    pending = collections.deque(itertools.islice(futures, _UNITS_PER_WORKER * workers))
    while pending:
        pending.extend(itertools.islice(futures, 1))  # keeps the window full
        yield pending.popleft().result()


def check_against_analytic(
    result: ExperimentResult, tolerance: float
) -> Tuple[List[Dict], int]:
    """Points where simulation and analytic variance disagree beyond
    tolerance, and the number of points compared: those with both a finite
    analytic value and a variance estimate.

    A point with a finite analytic value that was given at least two trials
    (finite ones plus the track's ``degenerate_trials``) fails when it has
    no finite variance estimate.  Points without a finite analytic value,
    and single-draw points, are not compared.
    """
    degenerate = result.metadata.get("degenerate_trials", [0] * len(result.records))
    failures, compared = [], 0
    for rec, n_degenerate in zip(result.records, degenerate):
        if math.isfinite(rec.analytic_asv) and math.isfinite(rec.normalized_variance):
            compared += 1
            # a theory value of 0 (1 - phi(2*omega) cancelled) agrees with nothing
            rel = (
                abs(rec.normalized_variance / rec.analytic_asv - 1.0)
                if rec.analytic_asv != 0.0 else math.inf
            )
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
    return failures, compared


# ---------------------------------------------------------------------------
# Config dict <-> object conversion
# ---------------------------------------------------------------------------


def _number(value, what: str) -> float:
    """A finite real from a config; bools, strings and NaN/inf are rejected."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond float64
            x = math.inf
        if math.isfinite(x):
            return x
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def _integer(value, what: str) -> int:
    """An integer from a config; integral floats such as 500.0 are accepted."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if not _number(value, what).is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def _number_list(value, what: str) -> Tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{what} must be a non-empty list of numbers, got {value!r}")
    return tuple(_number(v, what) for v in value)


def _theta_range(value, what: str) -> float:
    """An analytic config's theta_range: finite and > 0, with a finite
    largest transmit phase 2*pi/theta_range."""
    theta_range = _number(value, what)
    if not (theta_range > 0.0 and math.isfinite(2.0 * math.pi / theta_range)):
        raise ConfigError(
            f"theta_range must be > 0 with 2*pi/theta_range finite, got {theta_range}"
        )
    return theta_range


#: Most asv-curve grid points: rendering 10**6 as JSON peaked at 1.8 GB.
_MAX_CURVE_POINTS = 10 ** 5


def _curve_points(value, what: str) -> int:
    n_points = _integer(value, what)
    if not 1 <= n_points <= _MAX_CURVE_POINTS:
        raise ConfigError(
            f"n_points must lie in [1, {_MAX_CURVE_POINTS}], got {_shown_count(n_points)}"
        )
    return n_points


def _rising_omegas(value, what: str) -> np.ndarray:
    omegas = np.array(_number_list(value, what))
    rising = np.diff(omegas, prepend=0.0) > 0.0
    if not rising.all():
        i = int(np.argmin(rising))  # the first value not above its predecessor
        raise ConfigError(
            "omegas must be > 0 and strictly increasing, got "
            f"{float(omegas[i])!r} at position {i}"
        )
    return omegas


@dataclass(frozen=True)
class _Value:
    """A leaf field: ``read`` checks a config value, ``write`` renders it."""

    read: Callable
    write: Callable = lambda x: x


_NUMBER = _Value(_number)
_INTEGER = _Value(_integer)
_TEXT = _Value(_text)
_NUMBERS = _Value(_number_list, list)
_THETA_RANGE = _Value(_theta_range)

#: Config keys whose dataclass field has another name.
_FIELD_NAMES = {"variance": "variance_", "rule": "scale_rule"}


class _Record:
    """A config mapping with fixed keys <-> one dataclass (or, read only, the
    keyword arguments of a call); field values are read and written by each
    key's codec (a _Value, _Record or _Tagged).  ``defaults`` holds the
    optional keys and what a missing one reads as."""

    def __init__(self, cls, defaults=None, **codecs):
        self.cls = cls
        self.codecs = codecs
        self.defaults = defaults or {}
        self.required = [k for k in codecs if k not in self.defaults]

    def read(self, d, what: str):
        if not isinstance(d, dict):
            raise ConfigError(f"{what} must be a mapping, got {type(d).__name__}")
        missing = [k for k in self.required if k not in d]
        if missing:
            raise ConfigError(f"{what} is missing keys: {missing}")
        unknown = [k for k in d if k not in self.codecs]
        if unknown:
            raise ConfigError(f"{what} has unknown keys: {unknown}")
        kwargs = {
            _FIELD_NAMES.get(key, key): (
                codec.read(d[key], key) if key in d else self.defaults[key]
            )
            for key, codec in self.codecs.items()
        }
        try:
            return self.cls(**kwargs)
        except DomainError as exc:
            # bad parameter values arriving through a config are config errors
            raise ConfigError(str(exc)) from exc

    def write(self, obj) -> Dict:
        out = {}
        for key, codec in self.codecs.items():
            value = getattr(obj, _FIELD_NAMES.get(key, key))
            if value is not None:  # an unset optional field is left out
                out[key] = codec.write(value)
        return out


class _Tagged:
    """A model family: the tag key (``kind``, or ``mode`` for power) picks
    the record of one dataclass."""

    def __init__(self, what: str, tag_key: str, records: Dict[str, _Record]):
        self.what = what
        self.tag_key = tag_key
        self.records = records

    def read(self, d, what: str):
        if not isinstance(d, dict):
            raise ConfigError(f"{what} must be a mapping, got {type(d).__name__}")
        tag = d.get(self.tag_key)
        if not isinstance(tag, str) or tag not in self.records:
            raise ConfigError(f"unknown {self.what} {self.tag_key} {tag!r}")
        fields = {k: v for k, v in d.items() if k != self.tag_key}
        return self.records[tag].read(fields, f"{tag} {self.what}")

    def write(self, obj) -> Dict:
        for tag, record in self.records.items():
            if type(obj) is record.cls:
                return {self.tag_key: tag, **record.write(obj)}
        raise ConfigError(f"cannot serialize {self.what} {obj!r}")


_SCALE_RULE = _Tagged(
    "scale rule",
    "kind",
    {
        "bounded": _Record(BoundedScales, sigma_max=_NUMBER),
        "linear-growth": _Record(LinearGrowthScales, sigma=_NUMBER),
    },
)
_NOISE = _Tagged(
    "noise",
    "kind",
    {
        "gaussian": _Record(Gaussian, variance=_NUMBER),
        "laplace": _Record(Laplace, variance=_NUMBER),
        "cauchy": _Record(Cauchy, scale=_NUMBER),
        "uniform": _Record(Uniform, variance=_NUMBER),
        "class-a": _Record(
            ClassA, overlap=_NUMBER, background_ratio=_NUMBER, variance=_NUMBER
        ),
    },
)
_NOISE.records["heterogeneous"] = _Record(
    HeterogeneousScaled, base=_NOISE, rule=_SCALE_RULE
)
_FADING = _Tagged(
    "fading",
    "kind",
    {
        "none": _Record(NoFading),
        "rayleigh": _Record(RayleighFading),
        "ricean": _Record(RiceanFading, k_factor=_NUMBER),
    },
)
_POWER = _Tagged(
    "power",
    "mode",
    {
        "per-sensor": _Record(PerSensorPower, rho=_NUMBER),
        "total": _Record(TotalPower, p_t=_NUMBER),
    },
)
_SPEC = _Record(
    ExperimentSpec,
    defaults={"af_nominal_variance": None},
    kind=_TEXT,
    network=_Record(
        NetworkConfig,
        defaults={"fading": NoFading()},
        n_sensors=_INTEGER,
        theta=_NUMBER,
        theta_range=_NUMBER,
        omega=_NUMBER,
        power=_POWER,
        channel_noise_variance=_NUMBER,
        noise=_NOISE,
        fading=_FADING,
    ),
    sweep=_Record(Sweep, parameter=_TEXT, values=_NUMBERS),
    trials=_INTEGER,
    seed=_INTEGER,
    af_nominal_variance=_NUMBER,
)


def _curve_arguments(theta_range, noise, snr_inv, fading, n_points, omegas) -> Dict:
    """``asv.curve_on_grid``'s arguments for an asv-curve config: the grid is
    its ``omegas`` list, or else the default grid of ``n_points`` (2000)."""
    if omegas is None:
        omegas = asv.default_omega_grid(theta_range, n_points or 2000)
    elif n_points is not None:
        raise ConfigError("give n_points or omegas, not both")
    ctx = asv.AsvContext(noise, snr_inv, fading.penalty())
    return {"ctx": ctx, "omegas": omegas}


#: An asv-curve config, read as the arguments of ``asv.curve_on_grid``.
_CURVE = _Record(
    _curve_arguments,
    defaults={"snr_inv": 0.0, "fading": NoFading(), "n_points": None, "omegas": None},
    theta_range=_THETA_RANGE, noise=_NOISE, snr_inv=_NUMBER, fading=_FADING,
    n_points=_Value(_curve_points), omegas=_Value(_rising_omegas),
)
#: An optimize-omega config, read as the arguments of ``optimize.omega_star``.
_OPTIMIZER = _Record(
    dict,
    defaults={"snr_inv": 0.0, "method": "auto"},
    noise=_NOISE, snr_inv=_NUMBER, theta_range=_THETA_RANGE, method=_TEXT,
)


def noise_from_dict(d: Dict) -> NoiseModel:
    """Not in ``__all__``: the program reads noise through the records;
    perfbench's gates call this."""
    return _NOISE.read(d, "noise")


def spec_from_dict(d: Dict) -> ExperimentSpec:
    return _SPEC.read(d, "experiment spec")


def spec_to_dict(spec: ExperimentSpec) -> Dict:
    return _SPEC.write(spec)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

CSV_HEADER = "sweep_value,n_trials,normalized_variance,std_error,analytic_asv,bias"


def _fmt(x: float) -> str:
    return repr(float(x))


def result_to_csv(result: ExperimentResult) -> str:
    lines = [CSV_HEADER] + [
        f"{_fmt(r.sweep_value)},{r.n_trials},{_fmt(r.normalized_variance)},"
        f"{_fmt(r.std_error)},{_fmt(r.analytic_asv)},{_fmt(r.bias)}"
        for r in result.records
    ]
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
        "records": [_jsonable(vars(r)) for r in result.records],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render(result: ExperimentResult, fmt: str) -> str:
    if fmt == "csv":
        return result_to_csv(result)
    if fmt == "json":
        return result_to_json(result)
    raise ConfigError(f"unknown output format {fmt!r}")


def write_text(path, text: str | None = None) -> Path:
    """Write ``text`` to ``path``, creating parent directories (only those
    without ``text``, to check a path before a run); a path that cannot be
    written (a directory, or one under a regular file) is a config error."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if text is not None:
            path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def write_tracks(
    tracks: Dict[str, ExperimentResult], base_path, fmt: str = "csv"
) -> List[Path]:
    """Write one file per track, suffixing the track label before the
    extension; a single track is written to ``base_path`` itself."""
    base = Path(base_path)
    suffix = base.suffix or "." + fmt
    return [
        write_text(
            base if len(tracks) == 1 else base.with_name(f"{base.stem}.{label}{suffix}"),
            render(result, fmt),
        )
        for label, result in tracks.items()
    ]
