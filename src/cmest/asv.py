"""Asymptotic variance of the phase estimator, and related analytics.

For i.i.d. sensing noise with real characteristic function phi(.), the
normalized error sqrt(L)*(theta_hat - theta) is asymptotically normal with
variance

    AsV(w) = penalty * [snr_inv + 1 - phi(2w)] / (2 w^2 phi(w)^2),

where snr_inv = sigma_v^2 / P_T is the channel noise-to-power ratio and
``penalty`` >= 1 the fading factor (E[|h|])^-2.  snr_inv = 0 doubles as the
per-sensor-power asymptote, where the channel noise washes out as the
network grows; one code path serves both regimes.  Each quantity comes from
its model: phi from the noise model, snr_inv from ``NetworkConfig.snr_inv``
and the penalty from the fading model's ``penalty()``; this module is the
formula over them.

That code path evaluates the formula for every noise model, scalar and
vectorized.  Each model gives 1 - phi(2w) directly (``cf_complement``), so
the variance keeps its digits as w -> 0, where phi(2w) -> 1.  The small-w
kurtosis expansion, distribution-free upper bounds and the
amplify-and-forward baseline live here too.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CfZeroError, ConfigError, DomainError
from .noise import NoiseModel

__all__ = [
    "AsvContext",
    "AsvCurve",
    "asv_generic",
    "asv_small_omega",
    "asv_upper_bound",
    "asv_af",
    "asv_low_snr_gaussian",
    "asv_on_grid",
    "curve_on_grid",
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
        if not (math.isfinite(self.snr_inv) and self.snr_inv >= 0.0):
            raise ConfigError(f"snr_inv must be finite and >= 0, got {self.snr_inv}")
        if self.fading_penalty < 1.0:
            raise ConfigError(
                f"fading penalty must be >= 1, got {self.fading_penalty}"
            )


@dataclass(frozen=True)
class AsvCurve:
    """Asymptotic variance sampled on a transmit-phase grid.  The grid is
    positive and strictly increasing, as checked where it is read; every
    value is finite and > 0, as checked where it is computed."""

    omegas: np.ndarray
    values: np.ndarray


def _check_omega(omega: float) -> float:
    omega = float(omega)
    if omega <= 0.0:
        raise DomainError(f"omega must be > 0, got {omega}")
    return omega


def _asv(ctx: AsvContext, omega):
    """phi(w), the denominator 2 w^2 phi(w)^2 and the variance at omega, a
    float or an array.  The noise model supplies 1 - phi(2w) itself, so the
    numerator does not cancel as phi(2w) nears 1 toward the origin."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi1 = ctx.noise.cf(omega)
        denominator = 2.0 * np.square(omega) * np.square(phi1)
        numerator = ctx.snr_inv + ctx.noise.cf_complement(2.0 * omega)
        return phi1, denominator, ctx.fading_penalty * numerator / denominator


def asv_generic(ctx: AsvContext, omega: float) -> float:
    """Characteristic-function form of the asymptotic variance at omega.

    Raises CfZeroError where |phi(omega)| <= CF_ZERO_TOL, and DomainError
    where 2 omega^2 phi(omega)^2 underflows float64's normal range or the
    variance is not finite and > 0.
    """
    omega = _check_omega(omega)
    phi1, denominator, value = _asv(ctx, omega)
    if abs(phi1) <= CF_ZERO_TOL:
        raise CfZeroError(
            f"characteristic function vanishes at omega={omega}; "
            "the estimator is not identifiable there"
        )
    if denominator < sys.float_info.min:  # subnormal: digits lost
        raise DomainError(
            f"2*omega^2*phi(omega)^2 underflows float64 at omega={omega}"
        )
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"the variance at omega={omega} leaves float64: {value}")
    return float(value)


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


def asv_on_grid(ctx: AsvContext, omegas: np.ndarray) -> np.ndarray:
    """Vectorized variance evaluation; +inf marks characteristic-function
    zeros, an underflowing denominator and values float64 cannot hold
    instead of raising, so grid scans can skip them."""
    omegas = np.asarray(omegas, dtype=float)
    phi1, denominator, vals = _asv(ctx, omegas)
    underflow = denominator < sys.float_info.min
    bad = (np.abs(phi1) <= CF_ZERO_TOL) | underflow | (omegas <= 0.0)
    # NaN fails "> 0" and joins overflows at +inf
    return np.where(bad | ~(vals > 0.0), np.inf, vals)


def default_omega_grid(theta_range: float, n_points: int = 2000) -> np.ndarray:
    """Log-spaced grid on (ORIGIN_FRACTION * 2pi/theta_R, 2pi/theta_R].

    Resolves both the blow-up toward the origin and oscillatory structure
    near the boundary.
    """
    omega_max = 2.0 * math.pi / theta_range
    return np.geomspace(ORIGIN_FRACTION * omega_max, omega_max, n_points)


def curve_on_grid(ctx: AsvContext, omegas: np.ndarray) -> AsvCurve:
    """The variance curve on a positive, strictly increasing grid.

    Raises CfZeroError if a grid point hits a characteristic-function zero
    or a value float64 cannot hold (pick a different grid in that case).
    """
    values = asv_on_grid(ctx, omegas)
    if not np.all(np.isfinite(values)):
        raise CfZeroError(
            "requested grid hits a characteristic-function zero or a "
            "value outside float64 range"
        )
    return AsvCurve(omegas=omegas, values=values)


def sample_curve(
    ctx: AsvContext, theta_range: float, n_points: int = 2000
) -> AsvCurve:
    """The variance curve on the default grid for this theta range.  Kept
    out of ``__all__``: the CLI calls ``curve_on_grid``; perfbench calls
    this."""
    return curve_on_grid(ctx, default_omega_grid(theta_range, n_points))
