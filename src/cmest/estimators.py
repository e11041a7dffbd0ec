"""Fusion-center estimators.

The constant-modulus estimator recovers theta from the phase of the
normalized channel output; amplify-and-forward recovers it from the real
part.  Estimates are reported raw: they are never clamped to [0, theta_R],
so variance statistics are computed on unmodified errors.  Occasional
wrap-around outliers (estimates near 2*pi/omega when theta is near 0) are
kept as-is.
"""

import math

import numpy as np

from .channel import PowerMode, TotalPower

__all__ = ["cm_estimates", "af_estimates"]

_TWO_PI = 2.0 * math.pi


def cm_estimates(
    y: np.ndarray, n_sensors: int, omega: float, power: PowerMode
) -> np.ndarray:
    """Vectorized phase estimates angle(z)/omega; degenerate inputs (|y| = 0)
    map to NaN.

    The four-quadrant angle is remapped from (-pi, pi] to [0, 2*pi), so the
    whole principal range of omega*theta is recoverable, which the scalar
    arctangent of Im/Re alone cannot cover.  The normalization (y/sqrt(L)
    under a total power budget, y/L per-sensor) does not change the angle;
    it is applied so the degenerate check sees the quantity whose
    law-of-large-numbers limit carries the phase.
    """
    y = np.asarray(y)
    scale = math.sqrt(n_sensors) if isinstance(power, TotalPower) else float(n_sensors)
    z = y / scale
    est = np.mod(np.angle(z), _TWO_PI) / omega
    return np.where(np.abs(z) == 0.0, np.nan, est)


def af_estimates(y: np.ndarray, n_sensors: int, alpha_l: float) -> np.ndarray:
    """Vectorized amplify-and-forward estimates Re{y} / (L * alpha_L)."""
    return np.real(np.asarray(y)) / (n_sensors * alpha_l)
