"""One-snapshot multiple-access channel simulation.

All sensors transmit simultaneously in the same band; the fusion center
receives their coherent sum plus complex Gaussian noise.  Two transmit
schemes are covered: constant-modulus phase signaling sqrt(rho)*exp(j*w*x_i)
and amplify-and-forward alpha_L*x_i.

Convention: channel noise CN(0, sigma_v^2) has independent real/imaginary
parts of variance sigma_v^2 / 2 each.  Fading gains are real positive
envelopes |h_i| normalized to E[|h|^2] = 1 (sensors pre-correct the channel
phase, which keeps transmissions constant-modulus).

Stream discipline per batch: a batch is walked in row chunks of a fixed
sensor-sample budget.  Each chunk draws its sensing noise, then its fading
gains (if any): Rayleigh draws one unit exponential per gain, Ricean the
chunk's real-part normal block, then its imaginary-part block.  Channel
noise for the whole batch is drawn after the last chunk.  Identical seed and
config replay bit-identically.  Fading gains, and Gaussian, Cauchy, uniform
and Class-A noise, are drawn into work arrays allocated once per batch;
Laplace noise (also as the base of per-sensor scaling) still allocates per
chunk.

Precision of the constant-modulus kernel: the phase omega*eta is formed and
wrapped to [-pi, pi] in float64, its cos/sin are taken in float32 (about
1e-7 rad), one float64 Newton step restores the unit modulus to about
1e-14, and row sums and the final rotation by exp(j*omega*theta) are
float64.
"""

import cmath
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigError
from .noise import NoiseModel

__all__ = [
    "PerSensorPower",
    "TotalPower",
    "PowerMode",
    "NoFading",
    "RayleighFading",
    "RiceanFading",
    "FadingModel",
    "NetworkConfig",
    "cm_snapshot_batch",
    "af_snapshot_batch",
    "af_gain",
]


def _require_positive(what: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{what} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class PerSensorPower:
    """Fixed power rho per sensor; total power grows with the network."""

    rho: float

    def __post_init__(self):
        _require_positive("per-sensor power rho", self.rho)

    def per_sensor_power(self, n_sensors: int) -> float:
        return self.rho


@dataclass(frozen=True)
class TotalPower:
    """Fixed network power p_t split evenly, rho = p_t / L."""

    p_t: float

    def __post_init__(self):
        _require_positive("total power p_t", self.p_t)

    def per_sensor_power(self, n_sensors: int) -> float:
        return self.p_t / n_sensors


PowerMode = Union[PerSensorPower, TotalPower]


@dataclass(frozen=True)
class NoFading:
    def sample_gains(self, rng: np.random.Generator, size) -> np.ndarray:
        return np.ones(size)


@dataclass(frozen=True)
class RayleighFading:
    """Rayleigh envelope with E[|h|^2] = 1.

    |h|^2 = (re^2 + im^2)/2 for two unit normals is a unit exponential, so
    each gain is the square root of one exponential draw.
    """

    def sample_gains(self, rng, size, out=None, work=None):
        """Gains of shape ``size``, written into ``out`` when given; one
        draw per gain, so ``work`` goes unused."""
        out = rng.standard_exponential(size, out=out)
        return np.sqrt(out, out=out)


@dataclass(frozen=True)
class RiceanFading:
    """Ricean envelope with line-of-sight factor K and E[|h|^2] = 1."""

    k_factor: float

    def __post_init__(self):
        if not self.k_factor >= 0.0:
            raise ConfigError(f"Ricean K factor must be >= 0, got {self.k_factor}")

    def sample_gains(self, rng, size, out=None, work=None):
        """Gains of shape ``size``, written into ``out`` when given.

        The real-part block is drawn before the imaginary-part block, which
        goes into ``work`` (scratch of the same shape) when given.  Normal
        draws cannot overflow a square, so sqrt(re^2 + im^2) needs no hypot.
        """
        k = self.k_factor
        los = math.sqrt(k / (k + 1.0))
        sig = math.sqrt(0.5 / (k + 1.0))
        re = rng.standard_normal(size, out=out)
        re *= sig
        re += los
        im = rng.standard_normal(size, out=work)
        im *= sig
        re *= re
        im *= im
        re += im
        return np.sqrt(re, out=re)


FadingModel = Union[NoFading, RayleighFading, RiceanFading]

#: Slack on the transmit-phase upper bound 2*pi/theta_range.
_OMEGA_TOL = 1e-12
#: Largest network: beyond 2**53 a float64 cannot hold L exactly.
_MAX_SENSORS = 2 ** 53


@dataclass(frozen=True)
class NetworkConfig:
    """One snapshot scenario: network size, parameter, transmit phase, channel."""

    n_sensors: int
    theta: float
    theta_range: float
    omega: float
    power: PowerMode
    channel_noise_variance: float
    noise: NoiseModel
    fading: FadingModel = field(default_factory=NoFading)

    def __post_init__(self):
        if self.n_sensors < 1:
            raise ConfigError(f"need at least one sensor, got {self.n_sensors}")
        if self.n_sensors > _MAX_SENSORS:
            raise ConfigError(
                f"n_sensors must be at most 2**53, got {self.n_sensors:.6g}"
            )
        if not self.theta_range > 0.0:
            raise ConfigError(f"theta_range must be > 0, got {self.theta_range}")
        if not 0.0 <= self.theta <= self.theta_range:
            raise ConfigError(
                f"theta must lie in [0, {self.theta_range}], got {self.theta}"
            )
        omega_max = 2.0 * math.pi / self.theta_range
        if not 0.0 < self.omega <= omega_max * (1.0 + _OMEGA_TOL):
            raise ConfigError(
                f"omega must lie in (0, 2*pi/theta_range = {omega_max:.6g}], "
                f"got {self.omega}"
            )
        if not (
            math.isfinite(self.channel_noise_variance)
            and self.channel_noise_variance >= 0.0
        ):
            raise ConfigError(
                f"channel noise variance must be finite and >= 0, got "
                f"{self.channel_noise_variance}"
            )

    @property
    def per_sensor_power(self) -> float:
        return self.power.per_sensor_power(self.n_sensors)


def _channel_noise(rng, sigma_v2: float, n: int) -> np.ndarray:
    re = rng.standard_normal(n)
    im = rng.standard_normal(n)
    return math.sqrt(sigma_v2 / 2.0) * (re + 1j * im)


#: Sensor-samples per row chunk of a batch.  A chunk's float64 work arrays
#: are 256 KB each, near a core's L2; larger chunks measured slower.  A
#: batch's peak memory does not grow with the number of sensors.
_CHUNK_SAMPLES = 1 << 15

_TWO_PI = 2.0 * math.pi

#: Beyond this |omega*eta| the fast reduction x - 2*pi*rint(x/(2*pi)) loses
#: more than ~2e-9 rad to rounding; such chunks are first reduced exactly by
#: fmod.  Heavy tails (Cauchy) reach any magnitude.
_FAST_WRAP_LIMIT = 2.0 ** 24


def _rows_per_chunk(n_sensors: int) -> int:
    return max(1, _CHUNK_SAMPLES // n_sensors)


def _row_chunks(n_trials: int, n_sensors: int):
    """Row slices of a (n_trials, n_sensors) batch, about _CHUNK_SAMPLES each."""
    rows = _rows_per_chunk(n_sensors)
    for start in range(0, n_trials, rows):
        yield slice(start, min(start + rows, n_trials))


def _wrap_to_float32(phase: np.ndarray, work: np.ndarray, out: np.ndarray) -> None:
    """Wrap float64 phases to [-pi, pi] and store them as float32 in ``out``.

    Unwrapped, large phases would overflow the float32 cast.  ``phase`` is
    first reduced exactly, in place, unless every value is known to lie in
    the fast reduction's range (a NaN makes that unknown).  ``work`` is
    float64 scratch of the same shape.
    """
    if not (-_FAST_WRAP_LIMIT <= phase.min() and phase.max() <= _FAST_WRAP_LIMIT):
        np.fmod(phase, _TWO_PI, out=phase)
    np.multiply(phase, 1.0 / _TWO_PI, out=work)
    np.rint(work, out=work)
    work *= _TWO_PI
    np.subtract(phase, work, out=out)


def cm_snapshot_batch(
    config: NetworkConfig, n_trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Simulate ``n_trials`` independent constant-modulus snapshots.

    Returns the complex received values
    y = sqrt(rho) * exp(j*omega*theta) * sum_i g_i * exp(j*omega*eta_i) + v.
    Every transmitted symbol has modulus sqrt(rho) (to ~1e-14 relative),
    whatever the noise draws; fading rescales only the received amplitude.
    """
    L = config.n_sensors
    fading = None if isinstance(config.fading, NoFading) else config.fading
    sums = np.empty(n_trials, dtype=complex)
    # Work arrays are reused by every chunk: fresh temporaries of this size
    # cost more in page faults than the arithmetic done on them.
    shape = (min(n_trials, _rows_per_chunk(L)), L)
    phase32 = np.empty(shape, dtype=np.float32)
    noise_buf, re_buf, im_buf, scale_buf = (np.empty(shape) for _ in range(4))
    gain_buf = np.empty(shape) if fading is not None else None
    for chunk in _row_chunks(n_trials, L):
        rows = chunk.stop - chunk.start
        re, im, scale = re_buf[:rows], im_buf[:rows], scale_buf[:rows]
        # re and scale are free until the trig: the sampler's scratch.
        phase = config.noise.sample_sensors(
            rng, rows, L, out=noise_buf[:rows], work=(re, scale)
        )
        gains = None
        if fading is not None:
            # re is free until the cosines: scratch for a second normal block.
            gains = fading.sample_gains(rng, (rows, L), out=gain_buf[:rows], work=re)
        phase *= config.omega
        _wrap_to_float32(phase, scale, phase32[:rows])
        np.cos(phase32[:rows], out=re)  # float32 trig, stored as float64
        np.sin(phase32[:rows], out=im)
        # One Newton step towards re^2 + im^2 = 1, with the gains folded in.
        np.multiply(re, re, out=scale)
        np.multiply(im, im, out=phase)
        scale += phase
        scale *= -0.5
        scale += 1.5
        if gains is not None:
            scale *= gains
        sums.real[chunk] = np.einsum("ij,ij->i", re, scale)
        sums.imag[chunk] = np.einsum("ij,ij->i", im, scale)
    rotation = math.sqrt(config.per_sensor_power) * cmath.exp(
        1j * config.omega * config.theta
    )
    y = sums * rotation
    if config.channel_noise_variance > 0.0:
        y = y + _channel_noise(rng, config.channel_noise_variance, n_trials)
    return y


def af_gain(config: NetworkConfig, nominal_variance: float) -> float:
    """Amplify-and-forward gain meeting the average total-power constraint.

    alpha_L = sqrt(P_T / (L * (theta^2 + nominal_variance))).  The caller
    supplies the nominal sensing-noise variance because the true average
    power is undefined for infinite-variance noise, which is still simulated
    with a nominal calibration.  The true theta enters the calibration.
    """
    if not isinstance(config.power, TotalPower):
        raise ConfigError("amplify-and-forward is defined under a total power budget")
    if nominal_variance <= 0.0:
        raise ConfigError(
            f"nominal variance must be > 0 for AF gain, got {nominal_variance}"
        )
    L = config.n_sensors
    return math.sqrt(
        config.power.p_t / (L * (config.theta ** 2 + nominal_variance))
    )


def af_snapshot_batch(
    config: NetworkConfig,
    nominal_variance: float,
    rng: np.random.Generator,
    n_trials: int = 1,
) -> np.ndarray:
    """Simulate ``n_trials`` amplify-and-forward snapshots.

    y = alpha_L * sum_i (theta + eta_i) + v.  Per-sensor instantaneous power
    alpha_L^2 (theta + eta_i)^2 is a random variable, unbounded for
    heavy-tailed noise; only its average is constrained.
    """
    if not isinstance(config.fading, NoFading):
        raise ConfigError("fading is not modeled for the AF baseline")
    alpha = af_gain(config, nominal_variance)
    L = config.n_sensors
    sums = np.empty(n_trials)
    noise_buf = np.empty((min(n_trials, _rows_per_chunk(L)), L))
    for chunk in _row_chunks(n_trials, L):
        rows = chunk.stop - chunk.start
        eta = config.noise.sample_sensors(rng, rows, L, out=noise_buf[:rows])
        sums[chunk] = eta.sum(axis=1)
    y = alpha * (config.theta * L + sums).astype(complex)
    if config.channel_noise_variance > 0.0:
        y = y + _channel_noise(rng, config.channel_noise_variance, n_trials)
    return y
