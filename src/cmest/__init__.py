"""Distributed estimation over Gaussian multiple-access channels with
constant-modulus phase signaling.

Sensors transmit sqrt(rho) * exp(j*omega*(theta + noise)); the fusion
center recovers theta from the phase of the aggregate, which the channel
itself turns into a noisy empirical characteristic function.  The package
provides the channel simulator, the phase and amplify-and-forward
estimators, closed-form asymptotic variances and their optimization over
the transmit phase, fading penalties, and a seeded Monte Carlo harness with
a CLI that regenerates the reference figure data.
"""

__version__ = "0.1.0"

from . import asv, channel, estimators, harness, noise, optimize, presets, specfun
from .asv import AsvContext, AsvCurve
from .channel import (
    NetworkConfig,
    NoFading,
    PerSensorPower,
    RayleighFading,
    RiceanFading,
    TotalPower,
)
from .errors import (
    AllGridInvalidError,
    CfZeroError,
    ConfigError,
    DomainError,
    MomentUndefinedError,
    NonConvergenceError,
    RootNotFoundError,
    UnsupportedModelError,
)
from .harness import ExperimentResult, ExperimentSpec, Sweep, TrialAccumulator
from .noise import (
    BoundedScales,
    Cauchy,
    ClassA,
    Gaussian,
    HeterogeneousScaled,
    Laplace,
    LinearGrowthScales,
    Uniform,
)
from .optimize import OmegaStar

__all__ = [
    "__version__",
    "asv",
    "channel",
    "estimators",
    "harness",
    "noise",
    "optimize",
    "presets",
    "specfun",
    "AsvContext",
    "AsvCurve",
    "NetworkConfig",
    "NoFading",
    "PerSensorPower",
    "RayleighFading",
    "RiceanFading",
    "TotalPower",
    "ExperimentResult",
    "ExperimentSpec",
    "Sweep",
    "TrialAccumulator",
    "BoundedScales",
    "Cauchy",
    "ClassA",
    "Gaussian",
    "HeterogeneousScaled",
    "Laplace",
    "LinearGrowthScales",
    "Uniform",
    "OmegaStar",
    "AllGridInvalidError",
    "CfZeroError",
    "ConfigError",
    "DomainError",
    "MomentUndefinedError",
    "NonConvergenceError",
    "RootNotFoundError",
    "UnsupportedModelError",
]
