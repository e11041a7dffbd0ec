"""Bundled experiment presets fig1 ... fig10.

Each preset regenerates the data behind one figure of the study at its
caption parameters: normalized variance vs transmit phase or network size,
fading comparisons, the amplify-and-forward baseline, and the Cauchy
robustness traces.  A preset is a list of (label, ExperimentSpec) tracks.

Where a caption leaves parameters open they are fixed here and documented:
the Class-A study (fig5) does not state the overlap/background pair, so all
four combinations of overlap in {0.1, 1} and background ratio in {0, 0.1}
are shipped; transmit phases for the network-size sweeps are the variance
minimizers at the caption's channel conditions (for the per-sensor sweeps,
at the finite-size snr of the L = 500 reference, mirroring how those curves
were generated).
"""

import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import optimize
from .channel import (
    NetworkConfig,
    PerSensorPower,
    RayleighFading,
    RiceanFading,
    TotalPower,
)
from .errors import ConfigError
from .harness import ExperimentSpec, Sweep
from .noise import (
    BoundedScales,
    Cauchy,
    ClassA,
    Gaussian,
    HeterogeneousScaled,
    Laplace,
    Uniform,
)

__all__ = ["PRESETS", "preset", "preset_names"]

Track = Tuple[str, ExperimentSpec]

_DEFAULT_SEED = 20260810
_VARIANCE_TRIALS = 200_000  # variance experiments
_TRACE_TRIALS = 1_000  # trace/robustness batches

_L_SWEEP = (10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0)
_SIZE_SWEEP = Sweep("n_sensors", (50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0))

_DISTS = {
    "gaussian": Gaussian(variance_=1.0),
    "laplace": Laplace(variance_=1.0),
    "uniform": Uniform(variance_=1.0),
    "cauchy": Cauchy(scale=1.0),
}

#: Phase sweep ranges with analytic variance <= 10 at the fig2 conditions
#: (total power 10, channel variance 1), per distribution.
_FIG2_GRIDS = {
    "gaussian": np.linspace(0.09, 0.52, 12),
    "laplace": np.linspace(0.09, 0.52, 12),
    "uniform": np.linspace(0.09, 0.52, 12),
    "cauchy": np.linspace(0.21, 0.52, 12),
}


def _spec(
    kind: str,
    sweep: Sweep,
    trials: int = _VARIANCE_TRIALS,
    af_nominal_variance=None,
    **network,
) -> ExperimentSpec:
    """A preset spec at the default seed.  Unless given, the network has
    theta = 2, theta range 12, total power 10 and channel noise variance 1."""
    defaults = dict(
        theta=2.0,
        theta_range=12.0,
        power=TotalPower(p_t=10.0),
        channel_noise_variance=1.0,
    )
    return ExperimentSpec(
        kind=kind,
        network=NetworkConfig(**{**defaults, **network}),
        sweep=sweep,
        trials=trials,
        seed=_DEFAULT_SEED,
        af_nominal_variance=af_nominal_variance,
    )


def _fig1() -> List[Track]:
    """Variance vs phase, per-sensor power 1, L = 500."""
    sweep = Sweep("omega", tuple(np.linspace(0.05, 1.5, 24)))
    return [
        (name, _spec("asv-vs-omega", sweep, n_sensors=500, theta_range=4.0, omega=0.5,
                     power=PerSensorPower(rho=1.0), noise=noise))
        for name, noise in _DISTS.items()
    ]


def _fig2() -> List[Track]:
    """Variance vs phase, total power 10, L = 500."""
    return [
        (name, _spec("asv-vs-omega", Sweep("omega", tuple(_FIG2_GRIDS[name])),
                     n_sensors=500, omega=0.3, noise=noise))
        for name, noise in _DISTS.items()
    ]


def _gaussian_sizes(power, theta_range: float, omegas, sizes) -> List[Track]:
    sweep = Sweep("omega", tuple(omegas))
    return [
        (f"L{L}", _spec("asv-vs-omega", sweep, n_sensors=L, theta_range=theta_range,
                        omega=0.5, power=power, noise=Gaussian(variance_=1.0)))
        for L in sizes
    ]


def _fig3() -> List[Track]:
    """Per-sensor Gaussian mismatch study: several L, wide phase range."""
    return _gaussian_sizes(
        PerSensorPower(rho=1.0), 4.0, np.linspace(0.02, 1.5, 24), (50, 200, 500)
    )


def _fig4() -> List[Track]:
    """Total-power Gaussian mismatch study: several L."""
    return _gaussian_sizes(
        TotalPower(p_t=10.0), 12.0, np.linspace(0.02, 0.52, 16), (50, 200, 500)
    )


def _fig5() -> List[Track]:
    """Class-A variance vs phase; overlap/background combinations shipped
    because the caption leaves them open."""
    sweep = Sweep("omega", tuple(np.geomspace(0.02, math.pi, 32)))
    return [
        (f"A{overlap:g}-T{background:g}",
         _spec("asv-vs-omega", sweep, n_sensors=500, theta=1.0, theta_range=2.0,
               omega=1.0, noise=ClassA(overlap, background, variance_=3.0)))
        for overlap in (0.1, 1.0)
        for background in (0.0, 0.1)
    ]


def _var_vs_l(power, theta_range: float, snr_inv_for_omega: float) -> List[Track]:
    sweep = Sweep("n_sensors", _L_SWEEP)
    tracks = []
    for name, noise in _DISTS.items():
        omega = optimize.omega_star(noise, snr_inv_for_omega, theta_range).omega
        spec = _spec("var-vs-L", sweep, n_sensors=500, theta_range=theta_range,
                     omega=omega, power=power, noise=noise)
        tracks.append((name, spec))
    return tracks


def _fig6() -> List[Track]:
    """Variance vs network size, per-sensor power 1.

    The phase minimizes the finite-size normalized variance of the L = 500
    reference (snr 1/500), not the zero-snr asymptote, which is degenerate
    toward the origin and suffers finite-sample inflation there.
    """
    return _var_vs_l(PerSensorPower(rho=1.0), 4.0, 1.0 / 500.0)


def _fig7() -> List[Track]:
    """Variance vs network size, total power 10, variance-optimal phases."""
    return _var_vs_l(TotalPower(p_t=10.0), 12.0, 0.1)


def _fig8() -> List[Track]:
    """Fading penalty vs network size: Rayleigh and a K = 5 Ricean channel."""
    omega = optimize.omega_star(Gaussian(variance_=1.0), 0.1, 12.0).omega
    return [
        (label, _spec("fading-compare", _SIZE_SWEEP, n_sensors=1000, omega=omega,
                      noise=Gaussian(variance_=1.0), fading=fading))
        for label, fading in (
            ("rayleigh", RayleighFading()),
            ("ricean-k5", RiceanFading(k_factor=5.0)),
        )
    ]


def _fig9() -> List[Track]:
    """Constant-modulus vs amplify-and-forward: theta sweep and size sweep."""
    omega = optimize.omega_star(Gaussian(variance_=1.0), 0.1, 12.0).omega
    sweeps = (
        ("theta-sweep", Sweep("theta", tuple(np.linspace(0.5, 11.5, 12)))),
        ("size-sweep", _SIZE_SWEEP),
    )
    return [
        (label, _spec("af-compare", sweep, n_sensors=500, omega=omega,
                      noise=Gaussian(variance_=1.0)))
        for label, sweep in sweeps
    ]


def _fig10() -> List[Track]:
    """Cauchy robustness: traces plus median/KS batches; nominal AF variance 1."""
    sweep = Sweep("n_sensors", (100.0, 316.0, 1000.0, 3162.0, 10000.0))
    spec = _spec(
        "cauchy-robustness", sweep, _TRACE_TRIALS, n_sensors=100,
        omega=optimize.omega_star(Cauchy(scale=1.0), 0.1, 12.0).omega,
        noise=Cauchy(scale=1.0), af_nominal_variance=1.0,
    )
    return [("cauchy", spec)]


def _hetero() -> List[Track]:
    """Heterogeneous-consistency companion preset (no figure of its own):
    bounded vs linearly growing per-sensor scales on a Gaussian base."""
    noise = HeterogeneousScaled(
        base=Gaussian(variance_=1.0), scale_rule=BoundedScales(sigma_max=1.0)
    )
    spec = _spec(
        "heterogeneous-consistency", Sweep("n_sensors", (100.0, 1000.0, 10000.0)),
        _TRACE_TRIALS, n_sensors=100, omega=0.5, power=PerSensorPower(rho=1.0),
        noise=noise,
    )
    return [("gaussian-base", spec)]


PRESETS: Dict[str, Callable[[], List[Track]]] = {
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "hetero": _hetero,
}


def preset_names() -> List[str]:
    return list(PRESETS)


def preset(name: str) -> List[Track]:
    """Build the named preset's tracks; ConfigError for unknown names."""
    try:
        builder = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}"
        ) from None
    return builder()
