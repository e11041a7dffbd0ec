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
