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
sensor-sample budget.  The draw stage ``_draw_chunks`` is the one place the
draw order lives: each chunk draws its sensing noise, then its fading gains
(CM only).  Per chunk, Gaussian noise draws an exponential block, then a
uniform block (Box-Muller, half a block each); Laplace the same, a full
block each; Class-A its lookup uniforms, then an exponential and a uniform
half block; uniform and Cauchy noise one uniform block.  Rayleigh gains
draw one unit exponential per gain, Ricean the chunk's unit exponential
block, then its uniform block.  The reduce stages (CM's ``_cm_row_sums``,
AF's row sum) only read a chunk's draws, so one draw can feed several
reductions.  Channel noise for the whole batch is drawn after the last
chunk.  Identical seed and config replay bit-identically.  Draws go into
work arrays allocated once per batch.

Precision of the constant-modulus kernel: the phase omega*eta is formed and
wrapped to [-pi, pi] in float64, its cos/sin are taken in float32 (about
1e-7 rad), one float64 Newton step restores the unit modulus to about
1e-14, and row sums and the final rotation by exp(j*omega*theta) are
float64.  Ricean gains and the Box-Muller normals take their trig in float32
too.
"""

import cmath
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import specfun
from .errors import ConfigError, _shown_count
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

_TWO_PI = 2.0 * math.pi


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
    """Unit gains: the CM kernel draws none for this model."""

    def penalty(self) -> float:
        """Variance penalty (E[|h|])^-2: none without fading."""
        return 1.0


@dataclass(frozen=True)
class RayleighFading:
    """Rayleigh envelope with E[|h|^2] = 1.

    |h|^2 = (re^2 + im^2)/2 for two unit normals is a unit exponential, so
    each gain is the square root of one exponential draw.
    """

    def penalty(self) -> float:
        """Variance penalty (E[|h|])^-2 = 4/pi, as E[|h|] = sqrt(pi)/2."""
        return 4.0 / math.pi

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
        # the fading penalty needs 1F1(3/2; 1; K), which overflows from K = 707
        if not 0.0 <= self.k_factor <= 700.0:
            raise ConfigError(f"Ricean K factor must lie in [0, 700], got {self.k_factor}")

    def penalty(self) -> float:
        """Variance penalty (E[|h|])^-2, from 4/pi at K = 0 down to 1."""
        return specfun.ricean_fading_penalty(self.k_factor)

    def sample_gains(self, rng, size, out=None, work=None):
        """Gains of shape ``size``, written into ``out`` when given.

        Polar form (Box & Muller, 1958): h = los + sigma*(n1 + j*n2) with
        sigma^2 = 1/(2(K+1)) and los^2 = K/(K+1), where |n1 + j*n2|^2 = 2E
        for a unit exponential E and the phase is 2*pi*U for a uniform U, so
        |h|^2 = los^2 + t*(t + 2*los*cos(2*pi*U)) with t = sigma*sqrt(2E).
        The exponential block is drawn into ``out``, then the uniform block
        into ``work`` (scratch of the same shape) when given.  The cos is
        taken in float32, as the kernel's trig is; |h|^2 is clamped at 0
        against rounding before its square root.
        """
        k = self.k_factor
        los2 = k / (k + 1.0)
        t = rng.standard_exponential(size, out=out)
        t *= 1.0 / (k + 1.0)  # 2 sigma^2
        np.sqrt(t, out=t)
        c = rng.random(size, out=work)
        c *= _TWO_PI
        np.cos(c, out=c, dtype=np.float32, casting="same_kind")
        c *= 2.0 * math.sqrt(los2)
        c += t
        t *= c
        t += los2
        np.maximum(t, 0.0, out=t)
        return np.sqrt(t, out=t)


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
        if not 1 <= self.n_sensors <= _MAX_SENSORS:
            rule = ("need at least one sensor" if self.n_sensors < 1
                    else "n_sensors must be at most 2**53")
            raise ConfigError(f"{rule}, got {_shown_count(self.n_sensors)}")
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
        if not math.isfinite(self.snr_inv):
            raise ConfigError(
                f"channel noise variance / p_t must be finite, got "
                f"{self.channel_noise_variance} / {self.power.p_t}"
            )

    @property
    def per_sensor_power(self) -> float:
        return self.power.per_sensor_power(self.n_sensors)

    @property
    def snr_inv(self) -> float:
        """The channel noise-to-power ratio the asymptotic variance sees.

        A total power budget keeps snr_inv = sigma_v^2 / P_T for all L; a
        fixed per-sensor budget drives the channel-noise share to zero as the
        network grows, so its asymptote is the snr_inv = 0 objective.
        """
        if isinstance(self.power, TotalPower):
            return self.channel_noise_variance / self.power.p_t
        return 0.0


#: Sensor-samples per row chunk of a batch.  A chunk's float64 work arrays
#: are 256 KB each, near a core's L2; larger chunks measured slower.  A
#: batch's peak memory does not grow with the number of sensors.
_CHUNK_SAMPLES = 1 << 15

#: Beyond this |omega*eta| the fast reduction x - 2*pi*rint(x/(2*pi)) loses
#: more than ~2e-9 rad to rounding; such chunks are first reduced exactly by
#: fmod.  Heavy tails (Cauchy) reach any magnitude.
_FAST_WRAP_LIMIT = 2.0 ** 24
#: Within +-3, |x/(2*pi)| < 0.48, so rint(x/(2*pi)) is +-0 and the reduction
#: subtracts nothing.  The margin below pi keeps x/(2*pi) clear of 0.5.
_NO_WRAP_LIMIT = 3.0


def _rows_per_chunk(n_sensors: int) -> int:
    return max(1, _CHUNK_SAMPLES // n_sensors)


def _wrap_to_float32(phase: np.ndarray, work: np.ndarray, out: np.ndarray) -> None:
    """Wrap float64 phases to [-pi, pi] and store them as float32 in ``out``.

    Unwrapped, large phases would overflow the float32 cast.  A chunk whose
    phases all lie in [-3, 3] is cast as it is: adding 0.0 maps -0.0 to
    +0.0, as the reduction's subtraction does, and changes no other bit.
    Otherwise ``phase`` is first reduced exactly, in place, unless every
    value is known to lie in the fast reduction's range; a NaN makes both
    ranges unknown.  ``work`` is float64 scratch of the same shape.
    """
    lo, hi = phase.min(), phase.max()
    if -_NO_WRAP_LIMIT <= lo and hi <= _NO_WRAP_LIMIT:
        np.add(phase, 0.0, out=out)
        return
    if not (-_FAST_WRAP_LIMIT <= lo and hi <= _FAST_WRAP_LIMIT):
        np.fmod(phase, _TWO_PI, out=phase)
    np.multiply(phase, 1.0 / _TWO_PI, out=work)
    np.rint(work, out=work)
    work *= _TWO_PI
    np.subtract(phase, work, out=out)


def _draw_chunks(config: NetworkConfig, n_trials: int, rng, fading, work):
    """Draw stage: yield ``(chunk, noise, gains)`` per row slice of about
    _CHUNK_SAMPLES: sensing noise, then gains from ``fading`` (None draws
    none).  ``work``, two float64 arrays of the chunk shape, is the samplers'
    scratch.  The yielded arrays are reused chunk to chunk; only read them.
    """
    L, step = config.n_sensors, _rows_per_chunk(config.n_sensors)
    noise_buf = np.empty(work[0].shape)
    gain_buf = None if fading is None else np.empty(work[0].shape)
    for start in range(0, n_trials, step):
        chunk = slice(start, min(start + step, n_trials))
        rows = chunk.stop - start
        scratch = (work[0][:rows], work[1][:rows])
        noise = config.noise.sample_sensors(
            rng, rows, L, out=noise_buf[:rows], work=scratch
        )
        gains = None if fading is None else fading.sample_gains(
            rng, (rows, L), out=gain_buf[:rows], work=scratch[0]
        )
        yield chunk, noise, gains


def _cm_row_sums(noise, gains, omega: float, work):
    """Reduce stage: the row sums of g*cos(omega*eta) and g*sin(omega*eta).

    Only reads ``noise`` and ``gains`` (None for unit gains).  ``work`` is
    float64 (phase, re, im, scale) and a float32 array, of the chunk shape.
    """
    rows = noise.shape[0]
    phase, re, im, scale, phase32 = (w[:rows] for w in work)
    np.multiply(noise, omega, out=phase)
    _wrap_to_float32(phase, scale, phase32)
    np.cos(phase32, out=re)  # float32 trig, stored as float64
    np.sin(phase32, out=im)
    # One Newton step towards re^2 + im^2 = 1, with the gains folded in.
    np.multiply(re, re, out=scale)
    np.multiply(im, im, out=phase)
    scale += phase
    scale *= -0.5
    scale += 1.5
    if gains is not None:
        scale *= gains
    return np.einsum("ij,ij->i", re, scale), np.einsum("ij,ij->i", im, scale)


def _add_channel_noise(y: np.ndarray, config: NetworkConfig, rng) -> np.ndarray:
    """``y`` plus channel noise CN(0, sigma_v^2), drawn after the last chunk."""
    if config.channel_noise_variance > 0.0:
        v = rng.standard_normal(len(y)) + 1j * rng.standard_normal(len(y))
        y = y + math.sqrt(config.channel_noise_variance / 2.0) * v
    return y


def cm_snapshot_batch(
    config: NetworkConfig, n_trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Simulate ``n_trials`` independent constant-modulus snapshots.

    Returns the complex received values
    y = sqrt(rho) * exp(j*omega*theta) * sum_i g_i * exp(j*omega*eta_i) + v.
    Every transmitted symbol has modulus sqrt(rho) (to ~1e-14 relative),
    whatever the noise draws; fading rescales only the received amplitude.
    """
    fading = None if isinstance(config.fading, NoFading) else config.fading
    sums = np.empty(n_trials, dtype=complex)
    # Work arrays are reused by every chunk: fresh temporaries of this size
    # cost more in page faults than the arithmetic done on them.
    shape = (min(n_trials, _rows_per_chunk(config.n_sensors)), config.n_sensors)
    work = [np.empty(shape) for _ in range(4)] + [np.empty(shape, dtype=np.float32)]
    # re and scale are dead until the trig: the samplers' scratch.
    for chunk, noise, gains in _draw_chunks(config, n_trials, rng, fading, work[1::2]):
        sums.real[chunk], sums.imag[chunk] = _cm_row_sums(
            noise, gains, config.omega, work
        )
    rotation = math.sqrt(config.per_sensor_power) * cmath.exp(
        1j * config.omega * config.theta
    )
    return _add_channel_noise(sums * rotation, config, rng)


def af_gain(config: NetworkConfig, nominal_variance: float) -> float:
    """Amplify-and-forward gain meeting the average total-power constraint.

    alpha_L = sqrt(P_T / (L * (theta^2 + nominal_variance))).  The caller
    supplies the nominal sensing-noise variance because the true average
    power is undefined for infinite-variance noise, which is still simulated
    with a nominal calibration.  The true theta enters the calibration.

    Preconditions, checked where an experiment's AF track is planned:
    ``config.power`` is a ``TotalPower`` budget and ``nominal_variance`` > 0.
    """
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
    heavy-tailed noise; only its average is constrained.  ``af_gain``'s
    preconditions apply.  Fading is not modeled: AF plans refuse it, and a
    faded config draws no gains here.
    """
    alpha = af_gain(config, nominal_variance)
    sums = np.empty(n_trials)
    shape = (min(n_trials, _rows_per_chunk(config.n_sensors)), config.n_sensors)
    work = (np.empty(shape), np.empty(shape))
    for chunk, eta, _ in _draw_chunks(config, n_trials, rng, None, work):
        sums[chunk] = eta.sum(axis=1)
    y = alpha * (config.theta * config.n_sensors + sums).astype(complex)
    return _add_channel_noise(y, config, rng)
