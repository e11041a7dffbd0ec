"""Asymptotic variance of the phase estimator, and related analytics.

For i.i.d. sensing noise with real characteristic function phi(.), the
normalized error sqrt(L)*(theta_hat - theta) is asymptotically normal with
variance

    AsV(w) = penalty * [snr_inv + 1 - phi(2w)] / (2 w^2 phi(w)^2),

where snr_inv = sigma_v^2 / P_T is the channel noise-to-power ratio and
``penalty`` >= 1 the fading factor (E[|h|])^-2.  snr_inv = 0 doubles as the
per-sensor-power asymptote, where the channel noise washes out as the
network grows; one code path serves both regimes.

Closed-form specializations per distribution, the small-w kurtosis
expansion, distribution-free upper bounds and the amplify-and-forward
baseline live here too.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .channel import FadingModel, NoFading, RayleighFading, RiceanFading
from .errors import CfZeroError, ConfigError, DomainError
from .noise import NoiseModel

__all__ = [
    "AsvContext",
    "AsvCurve",
    "asv_generic",
    "asv_gaussian",
    "asv_cauchy",
    "asv_laplace",
    "asv_uniform",
    "asv_small_omega",
    "asv_upper_bound",
    "asv_af",
    "asv_low_snr_gaussian",
    "fading_penalty",
    "asv_on_grid",
    "sample_curve",
    "default_omega_grid",
    "CF_ZERO_TOL",
]

#: |phi(w)| at or below this is treated as a characteristic-function zero.
CF_ZERO_TOL = 1e-12

#: Fraction of 2*pi/theta_range where the default curve grid starts.
ORIGIN_FRACTION = 1e-3


@dataclass(frozen=True)
class AsvContext:
    """Everything the generic variance formula needs besides omega."""

    noise: NoiseModel
    snr_inv: float = 0.0  # sigma_v^2 / P_T; 0 = per-sensor-power asymptote
    fading_penalty: float = 1.0

    def __post_init__(self):
        if self.snr_inv < 0.0:
            raise ConfigError(f"snr_inv must be >= 0, got {self.snr_inv}")
        if self.fading_penalty < 1.0:
            raise ConfigError(
                f"fading penalty must be >= 1, got {self.fading_penalty}"
            )


@dataclass(frozen=True)
class AsvCurve:
    """Asymptotic variance sampled on an ascending transmit-phase grid."""

    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        va = np.asarray(self.values, dtype=float)
        if om.ndim != 1 or om.shape != va.shape:
            raise ConfigError("curve grid and values must be 1-d and equal length")
        if not np.all(np.diff(om) > 0.0):
            raise ConfigError("curve grid must be strictly increasing")
        if not np.all(va > 0.0):
            raise ConfigError("curve values must all be positive")
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "values", va)


def _check_omega(omega: float) -> float:
    omega = float(omega)
    if omega <= 0.0:
        raise DomainError(f"omega must be > 0, got {omega}")
    return omega


def asv_generic(ctx: AsvContext, omega: float) -> float:
    """Characteristic-function form of the asymptotic variance at omega."""
    omega = _check_omega(omega)
    phi1 = float(ctx.noise.cf(omega))
    if abs(phi1) <= CF_ZERO_TOL:
        raise CfZeroError(
            f"characteristic function vanishes at omega={omega}; "
            "the estimator is not identifiable there"
        )
    phi2 = float(ctx.noise.cf(2.0 * omega))
    denominator = 2.0 * omega ** 2 * phi1 ** 2
    if denominator == 0.0:
        raise DomainError(
            f"omega={omega} is too small: 2*omega^2*phi(omega)^2 underflows "
            "float64 to 0"
        )
    return ctx.fading_penalty * (ctx.snr_inv + 1.0 - phi2) / denominator


def _in_float64(closed_form):
    """``closed_form`` raising DomainError, as asv_generic does, where its
    arithmetic leaves float64: an overflow, a zero divisor, or a variance
    that is not finite and > 0 (cancelled to 0, say)."""

    @functools.wraps(closed_form)
    def checked(*args):
        try:
            value = closed_form(*args)
        except (OverflowError, ZeroDivisionError):
            value = math.nan
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{closed_form.__name__}{args} leaves float64")
        return value

    return checked


@_in_float64
def asv_gaussian(variance: float, snr_inv: float, omega: float) -> float:
    """exp(s2 w^2)/(2 w^2) * [snr_inv + 1 - exp(-2 s2 w^2)] for Gaussian noise."""
    omega = _check_omega(omega)
    b = variance * omega ** 2
    return math.exp(b) / (2.0 * omega ** 2) * (snr_inv + 1.0 - math.exp(-2.0 * b))


@_in_float64
def asv_cauchy(scale: float, snr_inv: float, omega: float) -> float:
    """exp(2 g w)/(2 w^2) * [snr_inv + 1 - exp(-2 g w)] for Cauchy noise."""
    omega = _check_omega(omega)
    g = scale * omega
    return math.exp(2.0 * g) / (2.0 * omega ** 2) * (snr_inv + 1.0 - math.exp(-2.0 * g))


@_in_float64
def asv_laplace(variance: float, snr_inv: float, omega: float) -> float:
    """Laplace noise; with beta = b^2 w^2 (b^2 = s2/2) this is
    b^2 (1+beta)^2/(2 beta) * [snr_inv + 4 beta/(1+4 beta)]."""
    omega = _check_omega(omega)
    beta = (variance / 2.0) * omega ** 2
    return (
        (1.0 + beta) ** 2
        / (2.0 * omega ** 2)
        * (snr_inv + 4.0 * beta / (1.0 + 4.0 * beta))
    )


@_in_float64
def asv_uniform(variance: float, snr_inv: float, omega: float) -> float:
    """Uniform noise on [-a, a], a = sqrt(3 s2):
    a^2/(2 sin^2(w a)) * [snr_inv + 1 - sin(2 w a)/(2 w a)].

    Undefined where sin(w a) = 0 (raises CfZeroError), e.g. at w = pi/a.
    """
    omega = _check_omega(omega)
    a = math.sqrt(3.0 * variance)
    x = omega * a
    s = math.sin(x)
    phi = 1.0 - x * x / 6.0 if abs(x) < 1e-4 else s / x
    if abs(phi) <= CF_ZERO_TOL:
        raise CfZeroError(f"uniform characteristic function vanishes at omega={omega}")
    return a * a / (2.0 * s * s) * (snr_inv + 1.0 - math.sin(2.0 * x) / (2.0 * x))


def asv_small_omega(variance: float, excess_kurtosis: float, omega: float) -> float:
    """Second-order expansion near the origin: s2 - (1/3) kappa s2^2 w^2.

    Valid for finite fourth moment; a positive excess kurtosis means the
    variance can be driven below s2 by increasing omega slightly.
    """
    return variance - excess_kurtosis * variance ** 2 * omega ** 2 / 3.0


def asv_upper_bound(variance: float, snr_inv: float, theta_range: float) -> float:
    """Distribution-free upper bound on the optimized asymptotic variance.

    Built from the finite-variance lower bound phi(w) >= 1 - s2 w^2/2 and
    minimized in beta = s2 w^2 over (0, beta_max], beta_max =
    (2 pi / theta_R)^2 s2.  The bound objective is

        s2 * (snr_inv + 2 beta) / (2 beta (1 - beta/2)^2),

    whose unconstrained minimizer is beta = c/8 with
    c = -3 snr_inv + sqrt(snr_inv) sqrt(32 + 9 snr_inv).  When the box
    constraint cuts the minimizer off (beta_max <= c/8, or snr_inv = 0 where
    c collapses to 0), the bound is evaluated at beta_max instead.

    Requires beta_max < 2 (AssumptionViolated -> DomainError otherwise).
    """
    if variance <= 0.0:
        raise DomainError(f"variance must be > 0, got {variance}")
    if snr_inv < 0.0:
        raise DomainError(f"snr_inv must be >= 0, got {snr_inv}")
    beta_max = (2.0 * math.pi / theta_range) ** 2 * variance
    if beta_max >= 2.0:
        raise DomainError(
            "bound assumption violated: (2*pi/theta_range)^2 * variance = "
            f"{beta_max:.6g} must be < 2"
        )
    c = -3.0 * snr_inv + math.sqrt(snr_inv) * math.sqrt(32.0 + 9.0 * snr_inv)

    def bound_at(beta: float) -> float:
        return (
            variance * (snr_inv + 2.0 * beta) / (2.0 * beta * (1.0 - beta / 2.0) ** 2)
        )

    if c > 0.0 and beta_max > c / 8.0:
        return bound_at(c / 8.0)
    return bound_at(beta_max)


def asv_af(theta: float, variance: float, snr_inv: float) -> float:
    """Amplify-and-forward asymptotic variance s2 + (snr_inv/2)(theta^2 + s2).

    Constant in the network size; requires finite sensing-noise variance.
    """
    return variance + 0.5 * snr_inv * (theta ** 2 + variance)


def asv_low_snr_gaussian(variance: float, snr_inv: float) -> float:
    """Gaussian variance at the low-channel-SNR phase choice w = 1/sigma:
    (s2 e / 2) [snr_inv + 1 - exp(-2)].

    An upper bound on the optimized performance at any SNR; tight when the
    channel SNR is low."""
    return variance * math.e / 2.0 * (snr_inv + 1.0 - math.exp(-2.0))


def fading_penalty(fading: FadingModel) -> float:
    """Variance penalty (E[|h|])^-2: 1 without fading, 4/pi for Rayleigh,
    and the Ricean expression otherwise."""
    if isinstance(fading, NoFading):
        return 1.0
    if isinstance(fading, RayleighFading):
        return 4.0 / math.pi
    if isinstance(fading, RiceanFading):
        return specfun.ricean_fading_penalty(fading.k_factor)
    raise ConfigError(f"unknown fading model {fading!r}")


def asv_on_grid(ctx: AsvContext, omegas: np.ndarray) -> np.ndarray:
    """Vectorized variance evaluation; +inf marks characteristic-function
    zeros and values float64 cannot hold (overflowed, or cancelled to 0)
    instead of raising, so grid scans can skip them."""
    omegas = np.asarray(omegas, dtype=float)
    phi1 = np.asarray(ctx.noise.cf(omegas), dtype=float)
    phi2 = np.asarray(ctx.noise.cf(2.0 * omegas), dtype=float)
    bad = (np.abs(phi1) <= CF_ZERO_TOL) | (omegas <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = (
            ctx.fading_penalty
            * (ctx.snr_inv + 1.0 - phi2)
            / (2.0 * np.square(omegas) * np.square(phi1))
        )
    # NaN and values cancelled to 0 fail "> 0" and join overflows at +inf
    vals = np.where(bad | ~(vals > 0.0), np.inf, vals)
    return vals


def default_omega_grid(theta_range: float, n_points: int = 2000) -> np.ndarray:
    """Log-spaced grid on (ORIGIN_FRACTION * 2pi/theta_R, 2pi/theta_R].

    Resolves both the blow-up toward the origin and oscillatory structure
    near the boundary.
    """
    omega_max = 2.0 * math.pi / theta_range
    return np.geomspace(ORIGIN_FRACTION * omega_max, omega_max, n_points)


def sample_curve(
    ctx: AsvContext, theta_range: float, n_points: int = 2000
) -> AsvCurve:
    """Sample the variance curve on the default grid for this theta range.

    Raises CfZeroError if the grid hits a characteristic-function zero
    exactly (pick a different grid size in that case).
    """
    omegas = default_omega_grid(theta_range, n_points)
    values = asv_on_grid(ctx, omegas)
    if not np.all(np.isfinite(values)):
        raise CfZeroError(
            "curve grid hit a characteristic-function zero; adjust the grid"
        )
    return AsvCurve(omegas=omegas, values=values)
