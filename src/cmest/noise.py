"""Sensing-noise distributions: sampling, characteristic functions, moments.

Every model is symmetric about zero.  Characteristic functions are therefore
real-valued, and are only evaluated at omega >= 0.  Models are immutable;
sampling takes a caller-owned ``numpy.random.Generator`` so threads never
share stream state.
"""

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, MomentUndefinedError, UnsupportedModelError

__all__ = [
    "NoiseModel",
    "Gaussian",
    "Laplace",
    "Cauchy",
    "Uniform",
    "ClassA",
    "HeterogeneousScaled",
    "BoundedScales",
    "LinearGrowthScales",
]


def _require_positive(what: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{what} must be finite and > 0, got {value}")


def _fill_normals(rng, out: np.ndarray, sd: float, work=None) -> np.ndarray:
    """Fill the C-contiguous float64 array ``out`` with sd * N(0, 1) draws.

    Box & Muller (1958): for a unit exponential E and a uniform U,
    sqrt(2E) * (cos 2piU, sin 2piU) are two independent unit normals.  Of
    the n values, h = ceil(n/2) pairs are drawn: their exponentials first,
    into ``work`` (float64 scratch with at least h values) when given, then
    their uniforms into ``out``.  The cosines fill the first h values and
    the sines the other n - h, so an odd block drops its last sine.  cos and
    sin are taken in float32, as the kernel's trig is.
    """
    flat = out.reshape(-1)
    n = flat.size
    h, k = n - n // 2, n // 2
    r = rng.standard_exponential(h, out=None if work is None else work.reshape(-1)[:h])
    np.sqrt(r, out=r)
    r *= math.sqrt(2.0) * sd  # sd * sqrt(2E), which cannot overflow
    angle = rng.random(h, out=flat[:h])
    angle *= 2.0 * math.pi
    np.sin(angle[:k], out=flat[h:], dtype=np.float32, casting="same_kind")
    np.cos(angle, out=angle, dtype=np.float32, casting="same_kind")
    angle *= r
    flat[h:] *= r[:k]
    return out


class NoiseModel:
    """Common interface of all sensing-noise distributions."""

    def _log_cf(self, omega):
        """log cf(omega); a model that has it gets ``cf`` and
        ``cf_complement`` from it."""
        raise UnsupportedModelError(
            f"{type(self).__name__} has no single characteristic function"
        )

    def cf(self, omega):
        """Characteristic function E[exp(j*omega*eta)], real by symmetry."""
        return np.exp(self._log_cf(omega))

    def cf_complement(self, omega):
        """1 - cf(omega), computed without cancelling as cf(omega) nears 1."""
        return -np.expm1(self._log_cf(omega))

    def variance(self) -> float:
        raise MomentUndefinedError(f"{type(self).__name__} variance undefined")

    def excess_kurtosis(self) -> float:
        raise MomentUndefinedError(f"{type(self).__name__} kurtosis undefined")

    def sample(self, rng: np.random.Generator, size, out=None, work=None):
        """Noise draws of shape ``size``.

        ``out``, a C-contiguous float64 array of that shape, may receive the
        draw in place; always use the returned array.  ``work``, two more
        such arrays, is scratch a model may overwrite.  The values are the
        same either way.
        """
        raise UnsupportedModelError(
            f"{type(self).__name__} has no single noise distribution to draw from"
        )

    def sample_sensors(
        self,
        rng: np.random.Generator,
        n_trials: int,
        n_sensors: int,
        out=None,
        work=None,
    ) -> np.ndarray:
        """(n_trials, n_sensors) noise matrix; column j belongs to sensor j+1.

        ``out`` and ``work`` are as for ``sample``.
        """
        return self.sample(rng, (n_trials, n_sensors), out, work)


@dataclass(frozen=True)
class Gaussian(NoiseModel):
    variance_: float = 1.0

    def __post_init__(self):
        _require_positive("Gaussian variance", self.variance_)

    def _log_cf(self, omega):
        return -0.5 * self.variance_ * np.square(omega)

    def variance(self) -> float:
        return self.variance_

    def excess_kurtosis(self) -> float:
        return 0.0

    def sample(self, rng, size, out=None, work=None):
        return _fill_normals(
            rng,
            np.empty(size) if out is None else out,
            math.sqrt(self.variance_),
            None if work is None else work[0],
        )


@dataclass(frozen=True)
class Laplace(NoiseModel):
    """Laplace noise with total variance ``variance_`` (scale b, b^2 = variance/2)."""

    variance_: float = 1.0

    def __post_init__(self):
        _require_positive("Laplace variance", self.variance_)

    @property
    def scale(self) -> float:
        return math.sqrt(self.variance_ / 2.0)

    # a rational pair, not a log-cf: exp(-log1p(x)) is not bit-equal to 1/(1+x)
    def cf(self, omega):
        return 1.0 / (1.0 + (self.variance_ / 2.0) * np.square(omega))

    def cf_complement(self, omega):
        x = (self.variance_ / 2.0) * np.square(omega)
        return x / (1.0 + x)

    def variance(self) -> float:
        return self.variance_

    def excess_kurtosis(self) -> float:
        return 3.0

    def sample(self, rng, size, out=None, work=None):
        # b * E with the sign of U - 1/2: the exponential block, then the
        # uniform block
        draw = rng.standard_exponential(size, out=out)
        sign = rng.random(size, out=None if work is None else work[0])
        sign -= 0.5
        np.copysign(draw, sign, out=draw)
        draw *= self.scale
        return draw


@dataclass(frozen=True)
class Cauchy(NoiseModel):
    """Cauchy noise with scale gamma.  No moments exist."""

    scale: float = 1.0

    def __post_init__(self):
        _require_positive("Cauchy scale", self.scale)

    def _log_cf(self, omega):
        return -self.scale * np.abs(omega)

    def sample(self, rng, size, out=None, work=None):
        # Inversion: gamma * tan(pi (U - 1/2)).
        draw = rng.random(size, out=out)
        draw -= 0.5
        draw *= np.pi
        draw = np.tan(draw, out=out)
        draw *= self.scale
        return draw


#: Below this x = |omega| * a, the uniform 1 - sin(x)/x comes from its
#: Taylor series: the subtraction would lose log10(6/x^2) digits.
_SINC_SERIES_CUT = 0.5
#: Taylor coefficients of 1 - sin(x)/x in x^2, (-1)^(k+1)/(2k+1)! for k = 7
#: down to 1; the first term left out is below 1e-18 relative at the cut.
_SINC_SERIES = tuple((-1) ** (k + 1) / math.factorial(2 * k + 1) for k in range(7, 0, -1))


@dataclass(frozen=True)
class Uniform(NoiseModel):
    """Uniform noise on [-a, a] with a = sqrt(3 * variance)."""

    variance_: float = 1.0

    def __post_init__(self):
        _require_positive("Uniform variance", self.variance_)
        if not math.isfinite(self.half_width):  # 3 * variance overflows
            raise DomainError(
                f"Uniform variance {self.variance_} puts the half-width "
                "sqrt(3 * variance) beyond float64"
            )

    @property
    def half_width(self) -> float:
        return math.sqrt(3.0 * self.variance_)

    def cf(self, omega):
        x = self.half_width * np.asarray(omega, dtype=float)
        # sin(x)/x with a two-term Taylor fallback below x = 1e-4 to dodge 0/0.
        small = np.abs(x) < 1e-4
        safe = np.where(small, 1.0, x)
        out = np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)
        return out if out.ndim else float(out)

    def cf_complement(self, omega):
        x = self.half_width * np.abs(np.asarray(omega, dtype=float))
        # the series runs on x clamped below the cut, the quotient above it
        x2 = np.square(np.minimum(x, _SINC_SERIES_CUT))
        series = _SINC_SERIES[0] * x2  # Horner in x^2
        for c in _SINC_SERIES[1:]:
            series += c
            series *= x2
        safe = np.maximum(x, _SINC_SERIES_CUT)
        out = np.where(x < _SINC_SERIES_CUT, series, 1.0 - np.sin(safe) / safe)
        return out if out.ndim else float(out)

    def variance(self) -> float:
        return self.variance_

    def excess_kurtosis(self) -> float:
        return -1.2

    def sample(self, rng, size, out=None, work=None):
        # rng.uniform(-a, a)'s own order: low + (high - low) * u
        a = self.half_width
        draw = rng.random(size, out=out)
        draw *= 2.0 * a
        draw += -a
        return draw


#: Equal-width bins of [0, 1) in the Class-A uniform -> scale lookup.
_CDF_BINS = 4096


def _require_finite_scale(variance: float) -> None:
    """Class-A variances per impulse count must be float64 numbers: past
    that, the draws and the characteristic function compute through an
    overflow."""
    if not math.isfinite(variance):
        raise DomainError(
            "Class-A impulsive variance overflows float64: variance / "
            "(overlap * (background_ratio + 1)) per impulse must stay finite"
        )


@functools.lru_cache(maxsize=64)
def _class_a_tables(overlap: float, background_ratio: float, variance: float):
    """Read-only Class-A sampling tables, shared by threads.

    ``thresholds`` are the Poisson CDF values the sequential inversion
    search compares a uniform u against: its count is
    ``searchsorted(thresholds, u, side="right")``, capped where float64
    tail mass runs out.  ``scales[k]`` is sqrt(X) for count k.
    ``bin_scales[b]`` is the scale of every u in [b, b+1)/_CDF_BINS, or NaN
    when a threshold splits that bin.
    """
    pmf = math.exp(-overlap)
    if pmf < sys.float_info.min:
        # the CDF would start subnormal or at 0: the counts are garbage, and
        # at exp(-overlap) == 0 the search never ends
        raise DomainError(
            f"Class-A sampling needs exp(-overlap) >= {sys.float_info.min:g} "
            f"(overlap <= {-math.log(sys.float_info.min):.1f}), got overlap {overlap}"
        )
    cdf = [pmf]
    k = 0
    while True:
        k += 1
        pmf *= overlap / k
        if pmf < 1e-320 and k > overlap:  # tail mass exhausted in float64
            break
        cdf.append(cdf[-1] + pmf)
    thresholds = np.array(cdf)
    big_t = background_ratio
    # the largest count's variance, in the table's own arithmetic: checked
    # before numpy computes the table so an overflow fails closed, unwarned
    _require_finite_scale(
        variance * (len(cdf) / (overlap * (big_t + 1.0)) + big_t / (big_t + 1.0))
    )
    counts = np.arange(len(cdf) + 1)
    x = variance * (counts / (overlap * (big_t + 1.0)) + big_t / (big_t + 1.0))
    scales = np.sqrt(x)
    edges = np.arange(_CDF_BINS + 1) / _CDF_BINS
    low = np.searchsorted(thresholds, edges[:-1], side="right")
    high = np.searchsorted(thresholds, edges[1:], side="left")
    bin_scales = np.where(low == high, scales[low], np.nan)
    for table in (thresholds, scales, bin_scales):
        table.flags.writeable = False
    return thresholds, scales, bin_scales


@dataclass(frozen=True)
class ClassA(NoiseModel):
    """Middleton Class-A impulsive noise (compound Gaussian, Poisson mixture).

    ``overlap`` is the impulsive overlap factor (Poisson rate), and
    ``background_ratio`` the Gaussian-background-to-impulsive power ratio.
    Total variance is ``variance_`` for any parameter choice.
    """

    overlap: float = 0.1
    background_ratio: float = 0.1
    variance_: float = 1.0

    def __post_init__(self):
        _require_positive("Class-A overlap", self.overlap)
        if not (math.isfinite(self.background_ratio) and self.background_ratio >= 0.0):
            raise DomainError(
                "Class-A background ratio must be finite and >= 0, got "
                f"{self.background_ratio}"
            )
        _require_positive("Class-A variance", self.variance_)
        _require_finite_scale(
            self.variance_ / (self.overlap * (self.background_ratio + 1.0))
        )

    def _log_cf(self, omega):
        """log of the cf: the log-MGF at t = -omega^2/2 of the mixture
        variance X = variance * [Y/(A(T+1)) + T/(T+1)], Y ~ Poisson(A):

            t * variance * T/(T+1) + A * expm1(t * variance / (A (T+1))).

        Both variances are finite (checked at construction), so a huge one
        only takes its product with t to -inf, where expm1 gives -1.
        """
        t = -0.5 * np.square(omega)
        a, big_t = self.overlap, self.background_ratio
        background = self.variance_ * (big_t / (big_t + 1.0))
        impulsive = self.variance_ / (a * (big_t + 1.0))
        with np.errstate(over="ignore"):
            return t * background + a * np.expm1(t * impulsive)

    def variance(self) -> float:
        # E[X] = variance regardless of overlap/background split.
        return self.variance_

    def excess_kurtosis(self) -> float:
        # kappa = 3 var(X) / E[X]^2 for a compound Gaussian sqrt(X)*G.
        return 3.0 / (self.overlap * (self.background_ratio + 1.0) ** 2)

    def sample(self, rng, size, out=None, work=None):
        # sqrt(X) * G: all of the chunk's uniforms pick their Poisson counts
        # by CDF inversion, then all of its normals are drawn.  The uniforms
        # and bin indices are free after the lookup; the scales are not.
        thresholds, scales, bin_scales = _class_a_tables(
            self.overlap, self.background_ratio, self.variance_
        )
        u = rng.random(size, out=out)
        if work is None:
            work = (np.empty(u.shape), np.empty(u.shape))
        bins, scale = work[0].view(np.intp), work[1]
        np.multiply(u, _CDF_BINS, out=bins, casting="unsafe")  # floor, u >= 0
        np.take(bin_scales, bins, out=scale, mode="clip")
        # Bins that straddle a CDF threshold hold NaN: search those exactly.
        straddling = np.flatnonzero(np.isnan(scale))
        counts = np.searchsorted(thresholds, u.flat[straddling], side="right")
        scale.flat[straddling] = scales[counts]
        draws = _fill_normals(rng, u, 1.0, work[0])
        draws *= scale
        return draws


@dataclass(frozen=True)
class BoundedScales:
    """Per-sensor scales sigma_i = sigma_max * (1 - 1/(i+1)); bounded above."""

    sigma_max: float = 1.0

    def __post_init__(self):
        _require_positive("bounded scale rule sigma_max", self.sigma_max)

    def __call__(self, sensor_index):
        i = np.asarray(sensor_index, dtype=float)
        return self.sigma_max * (1.0 - 1.0 / (i + 1.0))


@dataclass(frozen=True)
class LinearGrowthScales:
    """Per-sensor scales sigma_i = sigma * sqrt(i); variances grow linearly."""

    sigma: float = 1.0

    def __post_init__(self):
        _require_positive("linear-growth scale rule sigma", self.sigma)

    def __call__(self, sensor_index):
        return self.sigma * np.sqrt(np.asarray(sensor_index, dtype=float))


ScaleRule = Callable[[np.ndarray], np.ndarray]


@functools.lru_cache(maxsize=64)
def _sensor_scales(rule: ScaleRule, n_sensors: int) -> np.ndarray:
    """Scales of sensors 1..n_sensors, read-only so threads can share them."""
    scales = np.array(rule(np.arange(1, n_sensors + 1)), dtype=float)
    scales.flags.writeable = False
    return scales


@dataclass(frozen=True)
class HeterogeneousScaled(NoiseModel):
    """Non-identically distributed noise eta_i = sigma_i * eta.

    ``scale_rule`` maps 1-based sensor indices to scales sigma_i.  There is no
    single distribution, so sample(), cf() and the moments raise; draws come
    from sample_sensors().
    """

    base: NoiseModel
    scale_rule: ScaleRule

    def sample_sensors(self, rng, n_trials, n_sensors, out=None, work=None):
        scales = _sensor_scales(self.scale_rule, n_sensors)
        # Through the base's sample, not its sample_sensors: one noise
        # matrix is one sampling call.
        draw = self.base.sample(rng, (n_trials, n_sensors), out, work)
        draw *= scales
        return draw

