"""Optimal transmit phase per sensing-noise distribution.

Each solver minimizes the asymptotic variance over omega in
(0, 2*pi/theta_range].  Gaussian, Cauchy, Laplace, and uniform noise admit
closed or semi-closed stationarity equations; anything else (notably
Class-A, whose variance curve can have several local minima) goes through a
deterministic global grid scan refined by scan-and-zoom.  Every solver
reports the variance at its phase through the one formula in ``asv``.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import asv
from .errors import (
    AllGridInvalidError,
    CfZeroError,
    ConfigError,
    DomainError,
    RootNotFoundError,
)
from .noise import Cauchy, Gaussian, Laplace, NoiseModel, Uniform
from .specfun import lambert_w0

__all__ = [
    "OmegaStar",
    "omega_star",
    "omega_star_gaussian",
    "omega_star_cauchy",
    "omega_star_laplace",
    "omega_star_uniform",
    "omega_star_numeric",
]

#: Residual tolerance for stationarity roots.
_ROOT_TOL = 1e-13
#: Relative interval tolerance for bracketing searches.
_INTERVAL_TOL = 1e-12


@dataclass(frozen=True)
class OmegaStar:
    """Result of a transmit-phase optimization.

    ``clamped`` marks an optimum pinned at the boundary 2*pi/theta_range;
    ``at_origin`` marks the Gaussian and uniform zero-channel-noise
    degeneracy where the optimum is an infimum at omega -> 0 (the
    sensing-noise variance) and the smallest default grid point is returned
    so downstream experiments still get a usable phase.
    """

    omega: float
    asv_at_opt: float
    method: str
    clamped: bool = False
    at_origin: bool = False
    beta: Optional[float] = None


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisection on a sign change; assumes f(lo) and f(hi) differ in sign."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise RootNotFoundError(
            f"no sign change on [{lo:.6g}, {hi:.6g}] (f: {flo:.3g}, {fhi:.3g})"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo <= _INTERVAL_TOL * max(1.0, abs(mid)):
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _newton_polish(
    f: Callable[[float], float],
    df: Callable[[float], float],
    x: float,
    lo: float,
    hi: float,
) -> float:
    """A few Newton steps confined to [lo, hi], stopping at _ROOT_TOL."""
    for _ in range(30):
        fx = f(x)
        if abs(fx) <= _ROOT_TOL:
            break
        d = df(x)
        if d == 0.0:
            break
        step = fx / d
        nx = min(max(x - step, lo), hi)
        if nx == x:
            break
        x = nx
    return x


def _finish(
    omega_unc: float,
    theta_range: float,
    ctx: asv.AsvContext,
    method: str,
    beta: Optional[float],
    at_origin: bool = False,
) -> OmegaStar:
    """The optimum clamped to 2*pi/theta_range, with its variance.  The
    models with a closed form have no characteristic-function zero at their
    optimum, so a phi within the zero tolerance there means a variance too
    large to evaluate: a DomainError."""
    omega_max = 2.0 * math.pi / theta_range
    clamped = omega_unc >= omega_max
    omega = omega_max if clamped else omega_unc
    try:
        value = asv.asv_generic(ctx, omega)
    except CfZeroError as exc:
        raise DomainError(
            f"phi(omega) <= {asv.CF_ZERO_TOL:g} at omega={omega}: the variance "
            "is too large to evaluate"
        ) from exc
    return OmegaStar(
        omega=omega,
        asv_at_opt=value,
        method=method,
        clamped=clamped,
        at_origin=at_origin,
        beta=beta,
    )


def omega_star_gaussian(
    variance: float, snr_inv: float, theta_range: float
) -> OmegaStar:
    """Gaussian optimum via the stationarity equation in beta = s2 w^2:

        (snr_inv + 1)(beta - 1) e^{2 beta} + beta + 1 = 0,

    whose unique root lies in (0, 1) for snr_inv > 0; then
    omega* = min(2 pi / theta_R, sqrt(beta*) / sigma).

    At snr_inv = 0 the root collapses to beta = 0: the infimum (the noise
    variance itself) sits at the origin and is not attained, so the smallest
    default curve grid point is returned with ``at_origin`` set.  So does an
    snr_inv too small to move snr_inv + 1 off 1 in float64.
    """
    ctx = asv.AsvContext(Gaussian(variance), snr_inv)
    if snr_inv + 1.0 == 1.0:
        omega = asv.ORIGIN_FRACTION * 2.0 * math.pi / theta_range
        return _finish(omega, theta_range, ctx, "gaussian-root", 0.0, at_origin=True)

    s1 = snr_inv + 1.0

    def g(beta: float) -> float:
        return s1 * (beta - 1.0) * math.exp(2.0 * beta) + beta + 1.0

    def dg(beta: float) -> float:
        return s1 * math.exp(2.0 * beta) * (2.0 * beta - 1.0) + 1.0

    # g(0) = -snr_inv < 0 and g(1) = 2 > 0, so the bracket always holds.
    beta = _bisect(g, 1e-300, 1.0)
    beta = _newton_polish(g, dg, beta, 0.0, 1.0)
    omega_unc = math.sqrt(beta) / math.sqrt(variance)
    return _finish(omega_unc, theta_range, ctx, "gaussian-root", beta)


def omega_star_cauchy(scale: float, snr_inv: float, theta_range: float) -> OmegaStar:
    """Cauchy optimum from the principal Lambert W branch:

        omega_unc = (1 / 2 gamma) * [2 + W0(-2 e^{-2} / (snr_inv + 1))].

    The Lambert argument lies in [-2 e^{-2}, 0), inside (-1/e, 0), so W0 is
    always defined.  The other real branch would give 2 + W <= 0, i.e. a
    non-positive phase, which is infeasible.
    """
    ctx = asv.AsvContext(Cauchy(scale), snr_inv)
    arg = -2.0 * math.exp(-2.0) / (snr_inv + 1.0)
    omega_unc = (2.0 + lambert_w0(arg)) / (2.0 * scale)
    return _finish(omega_unc, theta_range, ctx, "cauchy-lambert", scale * omega_unc)


def omega_star_laplace(
    variance: float, snr_inv: float, theta_range: float
) -> OmegaStar:
    """Laplace optimum from the closed-form quartic root in beta = b^2 w^2:

        beta* = (1/12) [ c/(snr_inv+1) + (25 snr_inv + 4)/c + 2 ],
        c = [125 s^3 + 258 s^2 + 141 s
             + 3 sqrt(3) sqrt(s (s+1)^3 (375 s + 32)) + 8]^(1/3),  s = snr_inv.

    Then omega* = min(2 pi / theta_R, sqrt(beta*) / b) with b^2 = s2 / 2.
    At snr_inv = 0, c = 2 and beta* = 1/2 exactly.
    """
    ctx = asv.AsvContext(Laplace(variance), snr_inv)
    s = snr_inv
    try:
        c = (
            125.0 * s ** 3
            + 258.0 * s ** 2
            + 141.0 * s
            + 3.0 * math.sqrt(3.0) * math.sqrt(s * (s + 1.0) ** 3 * (375.0 * s + 32.0))
            + 8.0
        ) ** (1.0 / 3.0)
    except OverflowError as exc:
        raise DomainError(
            f"snr_inv={snr_inv} puts the Laplace quartic's cubes beyond float64"
        ) from exc
    beta = (c / (s + 1.0) + (25.0 * s + 4.0) / c + 2.0) / 12.0
    b = math.sqrt(variance / 2.0)
    omega_unc = math.sqrt(beta) / b
    return _finish(omega_unc, theta_range, ctx, "laplace-quartic", beta)


def omega_star_uniform(
    variance: float, snr_inv: float, theta_range: float
) -> OmegaStar:
    """Uniform optimum by bisection in beta = w a on (0, pi):

        [8 (snr_inv + 1) beta^2 - 1] cos(beta) + cos(3 beta)
            - 4 beta sin(beta) = 0,

    then omega* = min(2 pi / theta_R, beta* / a).  Periodicity confines the
    search to the first lobe (0, pi); the variance dominates its translates
    by k pi / a.  No closed form exists for the root.

    At snr_inv = 0, or one too small to move snr_inv + 1 off 1 in float64,
    the equation has no root in the lobe: the excess kurtosis is negative,
    so the variance only grows away from the origin, and the infimum (the
    noise variance) is reported as for the Gaussian, with ``at_origin`` set.
    """
    ctx = asv.AsvContext(Uniform(variance), snr_inv)
    if snr_inv + 1.0 == 1.0:
        omega = asv.ORIGIN_FRACTION * 2.0 * math.pi / theta_range
        return _finish(omega, theta_range, ctx, "uniform-bisect", 0.0, at_origin=True)
    s1 = snr_inv + 1.0

    def u(beta: float) -> float:
        return (
            (8.0 * s1 * beta ** 2 - 1.0) * math.cos(beta)
            + math.cos(3.0 * beta)
            - 4.0 * beta * math.sin(beta)
        )

    def du(beta: float) -> float:
        return (
            16.0 * s1 * beta * math.cos(beta)
            - (8.0 * s1 * beta ** 2 - 1.0) * math.sin(beta)
            - 3.0 * math.sin(3.0 * beta)
            - 4.0 * math.sin(beta)
            - 4.0 * beta * math.cos(beta)
        )

    beta = _bisect(u, 1e-4, math.pi - 1e-9)
    beta = _newton_polish(u, du, beta, 0.0, math.pi)
    a = math.sqrt(3.0 * variance)
    omega_unc = beta / a
    return _finish(omega_unc, theta_range, ctx, "uniform-bisect", beta)


#: Evenly spaced points per zoom round of the numeric scan.
_ZOOM_POINTS = 65


def _hybrid_grid(omega_max: float, n_points: int) -> np.ndarray:
    """Half log-spaced (origin blow-up), half linear (oscillatory minima)."""
    n_log = n_points // 2
    n_lin = n_points - n_log
    log_part = np.geomspace(1e-6 * omega_max, omega_max, n_log)
    lin_part = np.linspace(omega_max / n_lin, omega_max, n_lin)
    return np.unique(np.concatenate([log_part, lin_part]))


def omega_star_numeric(
    noise: NoiseModel,
    snr_inv: float,
    theta_range: float,
    n_points: int = 10_000,
) -> OmegaStar:
    """Global scan for distributions without a stationarity closed form.

    A hybrid log+linear grid over (0, 2*pi/theta_range] is scanned (ties
    break to the lowest index).  Then scan-and-zoom: each round evaluates
    the best grid point's bracket on evenly spaced points at once and
    narrows it to the neighbours of their first minimum, until the bracket
    is under _INTERVAL_TOL * omega_max or stops narrowing.  The best point
    evaluated anywhere is returned.  Handles variance curves with several
    local minima, where single-start descent can stall on the wrong one.
    """
    ctx = asv.AsvContext(noise=noise, snr_inv=snr_inv)
    omega_max = 2.0 * math.pi / theta_range
    grid = _hybrid_grid(omega_max, n_points)
    values = asv.asv_on_grid(ctx, grid)
    if not np.any(np.isfinite(values)):
        raise AllGridInvalidError(
            "every grid point hit a characteristic-function zero"
        )
    best = int(np.argmin(values))  # first minimum on ties
    omega, value = float(grid[best]), float(values[best])
    lo = grid[best - 1] if best > 0 else grid[0]
    hi = grid[best + 1] if best + 1 < len(grid) else omega_max
    while hi - lo > _INTERVAL_TOL * omega_max:
        points = np.linspace(lo, hi, _ZOOM_POINTS)
        vals = asv.asv_on_grid(ctx, points)
        k = int(np.argmin(vals))
        if vals[k] < value:
            omega, value = float(points[k]), float(vals[k])
        width = hi - lo
        lo, hi = points[max(k - 1, 0)], points[min(k + 1, _ZOOM_POINTS - 1)]
        if hi - lo >= width:
            break
    clamped = bool(omega >= omega_max * (1.0 - 1e-9))
    if clamped:  # the scan grid ends at omega_max
        omega, value = omega_max, float(values[-1])
    return OmegaStar(omega=omega, asv_at_opt=value, method="grid-global", clamped=clamped)


_METHODS = ("auto", "closed", "numeric")


def omega_star(
    noise: NoiseModel, snr_inv: float, theta_range: float, method: str = "auto"
) -> OmegaStar:
    """Optimal transmit phase for ``noise``.

    ``method`` "auto" uses the closed-form solver where the noise type has
    one and the global scan otherwise; "closed" insists on the closed form
    (ConfigError without one, e.g. for Class-A); "numeric" always scans.
    Solvers are looked up as module globals at each call, so a rebinding of
    one (a tracing wrapper, say) is seen here too.
    """
    if method not in _METHODS:
        raise ConfigError(f"unknown optimizer method {method!r}")
    if method != "numeric":
        if type(noise) is Gaussian:
            return omega_star_gaussian(noise.variance_, snr_inv, theta_range)
        if type(noise) is Laplace:
            return omega_star_laplace(noise.variance_, snr_inv, theta_range)
        if type(noise) is Uniform:
            return omega_star_uniform(noise.variance_, snr_inv, theta_range)
        if type(noise) is Cauchy:
            return omega_star_cauchy(noise.scale, snr_inv, theta_range)
        if method == "closed":
            raise ConfigError(f"no closed-form solver for {type(noise).__name__}")
    return omega_star_numeric(noise, snr_inv, theta_range)
