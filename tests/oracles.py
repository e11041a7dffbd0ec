"""Independent references the tests compare the package against.

A plain module, imported as ``from oracles import ...``: pytest puts this
directory on the import path, and no other test directory has a module of
this name.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from cmest import asv
from cmest.noise import Cauchy, ClassA, Gaussian, Laplace, Uniform

#: Working digits of the AsV reference.  Toward the origin 1 - phi(2w) is of
#: order w^2 next to 1, so w = 1e-150 needs 300 digits before the first
#: significant one of the numerator.
ASV_REFERENCE_DPS = 420


def _reference_cf(noise, omega):
    """The characteristic function of ``noise`` at an mpf omega >= 0, from
    the model's definition (not from its float64 code)."""
    if type(noise) is Gaussian:
        return mpmath.exp(-mpmath.mpf(noise.variance_) * omega ** 2 / 2)
    if type(noise) is Cauchy:
        return mpmath.exp(-mpmath.mpf(noise.scale) * omega)
    if type(noise) is Laplace:
        return 1 / (1 + mpmath.mpf(noise.variance_) / 2 * omega ** 2)
    if type(noise) is Uniform:
        x = mpmath.sqrt(3 * mpmath.mpf(noise.variance_)) * omega
        return mpmath.sin(x) / x
    if type(noise) is ClassA:
        # E[exp(t X)] at t = -w^2/2 for X = s2 [Y/(A(T+1)) + T/(T+1)],
        # Y ~ Poisson(A)
        a, big_t = mpmath.mpf(noise.overlap), mpmath.mpf(noise.background_ratio)
        s2, t = mpmath.mpf(noise.variance_), -(omega ** 2) / 2
        return mpmath.exp(t * s2 * big_t / (big_t + 1)) * mpmath.exp(
            a * (mpmath.exp(t * s2 / (a * (big_t + 1))) - 1)
        )
    raise TypeError(f"no reference characteristic function for {noise!r}")


def asv_reference(ctx: asv.AsvContext, omega: float):
    """(AsV, denominator 2 w^2 phi(w)^2) at a float64 omega > 0, both mpf,
    computed at ASV_REFERENCE_DPS digits from the characteristic function."""
    with mpmath.workdps(ASV_REFERENCE_DPS):
        w = mpmath.mpf(omega)
        phi1, phi2 = _reference_cf(ctx.noise, w), _reference_cf(ctx.noise, 2 * w)
        denominator = 2 * w ** 2 * phi1 ** 2
        numerator = mpmath.mpf(ctx.snr_inv) + 1 - phi2
        return mpmath.mpf(ctx.fading_penalty) * numerator / denominator, denominator


def excess_kurtosis(noise) -> float:
    """Excess kurtosis E[eta^4]/s2^2 - 3 of ``noise``, from the model's
    definition."""
    if type(noise) is Gaussian:
        return 0.0
    if type(noise) is Laplace:
        return 3.0
    if type(noise) is Uniform:
        return -1.2
    if type(noise) is ClassA:
        # 3 var(X) / E[X]^2 for a compound Gaussian sqrt(X) * G
        return 3.0 / (noise.overlap * (noise.background_ratio + 1.0) ** 2)
    raise TypeError(f"no finite excess kurtosis for {noise!r}")


def asv_small_omega(variance: float, kurtosis: float, omega: float) -> float:
    """Second-order expansion of the variance near the origin at snr_inv = 0,
    s2 - (1/3) kappa s2^2 w^2, kappa the excess kurtosis, for a finite fourth
    moment: a positive kappa means the variance can be driven below s2 by
    increasing omega slightly."""
    return variance - kurtosis * variance ** 2 * omega ** 2 / 3.0


def grid_argmin(ctx: asv.AsvContext, theta_range: float, n_points: int = 1_000_000):
    """Brute-force minimizer of the variance over (0, 2*pi/theta_range].

    Independent oracle for the closed-form phase optimizers: a dense linear
    scan with characteristic-function zeros masked out.
    """
    omega_max = 2.0 * np.pi / theta_range
    grid = np.linspace(omega_max / n_points, omega_max, n_points)
    values = asv.asv_on_grid(ctx, grid)
    best = int(np.argmin(values))
    return float(grid[best]), float(values[best])


@dataclass(frozen=True)
class CovarianceTerms:
    """Delta-method ingredients for the normalized channel output.

    (sigma11, sigma12, sigma22) is the asymptotic covariance of
    sqrt(L) * [Re z - E Re z, Im z - E Im z]; (g1, g2) are the gradient
    components of the phase map.  Their quadratic form reproduces the
    characteristic-function variance formula.
    """

    sigma11: float
    sigma12: float
    sigma22: float
    v_c: float
    v_s: float
    g1: float
    g2: float

    def composite(self) -> float:
        """g1^2 s11 + 2 g1 g2 s12 + g2^2 s22; equals asv_generic."""
        return (
            self.g1 ** 2 * self.sigma11
            + 2.0 * self.g1 * self.g2 * self.sigma12
            + self.g2 ** 2 * self.sigma22
        )


def appendix_covariance(
    noise,
    omega: float,
    theta: float,
    p_t: float,
    sigma_v2: float,
) -> CovarianceTerms:
    """Covariance/gradient cross-check terms for the delta method: an
    oracle for the characteristic-function variance formula.

    With c = cos(w theta), s = sin(w theta), phi = phi(w):

        v_c = var(cos w eta) = 1/2 + phi(2w)/2 - phi^2
        v_s = var(sin w eta) = 1/2 - phi(2w)/2
        sigma11 = P_T [c^2 v_c + s^2 v_s] + sigma_v^2/2
        sigma22 = P_T [c^2 v_s + s^2 v_c] + sigma_v^2/2
        sigma12 = P_T s c (v_c - v_s)

    and the phase-map gradients g1 = -s/(w sqrt(P_T) phi),
    g2 = c/(w sqrt(P_T) phi), defined at every angle (the tangent form of
    the same gradient has a removable singularity at w*theta = pi/2 mod pi).
    """
    omega = float(omega)
    if not omega > 0.0:
        raise ValueError(f"omega must be > 0, got {omega}")
    phi1 = float(noise.cf(omega))
    if phi1 == 0.0:
        raise ZeroDivisionError(f"characteristic function vanishes at omega={omega}")
    phi2 = float(noise.cf(2.0 * omega))

    v_c = 0.5 + 0.5 * phi2 - phi1 ** 2
    v_s = 0.5 - 0.5 * phi2
    c = math.cos(omega * theta)
    s = math.sin(omega * theta)
    sigma11 = p_t * (c * c * v_c + s * s * v_s) + sigma_v2 / 2.0
    sigma22 = p_t * (c * c * v_s + s * s * v_c) + sigma_v2 / 2.0
    sigma12 = p_t * s * c * (v_c - v_s)

    root = math.sqrt(p_t) * phi1
    g1 = -s / (omega * root)
    g2 = c / (omega * root)
    return CovarianceTerms(sigma11, sigma12, sigma22, v_c, v_s, g1, g2)
