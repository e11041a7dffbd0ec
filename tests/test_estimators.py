import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmest import optimize
from cmest.channel import (
    NetworkConfig,
    PerSensorPower,
    TotalPower,
    af_gain,
    af_snapshot_batch,
    cm_snapshot_batch,
)
from cmest.estimators import af_estimates, cm_estimates
from cmest.noise import Cauchy, ClassA, Gaussian, Laplace, Uniform

from test_channel import _ZeroNoise, _config


class TestPhaseEstimator:
    @pytest.mark.parametrize("power", [TotalPower(10.0), PerSensorPower(1.0)])
    def test_noiseless_inversion(self, power):
        L, omega, theta = 64, 0.5, 2.0
        scale = math.sqrt(L) if isinstance(power, TotalPower) else L
        y = scale * np.exp(1j * omega * theta)
        est = cm_estimates(np.array([y]), L, omega, power)
        assert est[0] == pytest.approx(theta, rel=1e-12)

    def test_wrap_past_pi(self):
        # every angle of the full [0, 2*pi) range comes back, including
        # omega*theta = 3*pi/2 on the negative imaginary axis, which the
        # principal-value arctangent alone cannot tell from pi/2 - pi
        omega = 3.0 * math.pi / 8.0
        thetas = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])  # up to 15*pi/8
        y = 10.0 * np.exp(1j * omega * thetas)
        est = cm_estimates(y, 100, omega, TotalPower(10.0))
        np.testing.assert_allclose(est, thetas, rtol=1e-12, atol=1e-15)

    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    @settings(max_examples=200)
    def test_scale_invariance(self, re, im, c):
        # positive scaling preserves component signs, hence the angle; keep
        # |y| away from the subnormal range where the normalization underflows
        y = complex(re, im)
        assume(abs(y) > 1e-150)
        a, b = cm_estimates(np.array([y, c * y]), 100, 0.5, TotalPower(10.0))
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    def test_degenerate_zero_modulus(self):
        # the phase of a zero-modulus value is undefined: NaN, not an angle
        for power in (TotalPower(10.0), PerSensorPower(1.0)):
            est = cm_estimates(np.array([0.0 + 0.0j, -0.0 - 0.0j]), 100, 0.5, power)
            assert np.isnan(est).all(), power

    def test_batch_marks_degenerate_as_nan(self):
        vals = cm_estimates(np.array([0.0 + 0.0j, 1.0 + 0.0j]), 4, 0.5, TotalPower(1.0))
        assert math.isnan(vals[0])
        assert vals[1] == pytest.approx(0.0)

    def test_estimates_unclamped_and_in_phase_range(self, rng):
        cfg = _config(n_sensors=5, noise=Cauchy(1.0))
        y = cm_snapshot_batch(cfg, 2000, rng)
        vals = cm_estimates(y, 5, cfg.omega, cfg.power)
        assert np.all(vals >= 0.0)
        assert np.all(vals < 2.0 * math.pi / cfg.omega)
        assert np.any(vals > cfg.theta_range)  # raw convention: no clamping


class TestAfEstimator:
    def test_noiseless(self, rng):
        cfg = _config(channel_noise_variance=0.0, noise=_ZeroNoise())
        alpha = af_gain(cfg, 1.0)
        y = af_snapshot_batch(cfg, 1.0, rng, 5)
        np.testing.assert_allclose(af_estimates(y, 500, alpha), 2.0, rtol=1e-12)

    def test_scalar_path(self):
        # one received value, not a batch: the noiseless AF value inverts
        cfg = _config(channel_noise_variance=0.0, noise=_ZeroNoise())
        alpha = af_gain(cfg, 1.0)
        est = af_estimates(alpha * 500 * 2.0 + 0.0j, 500, alpha)
        assert est == pytest.approx(2.0, rel=1e-12)

    def test_channel_noise_only_variance(self, rng):
        # with eta = 0 the estimate error is Re{v}/(L alpha), variance
        # sigma_v^2 / (2 L^2 alpha^2)
        cfg = _config(n_sensors=100, noise=_ZeroNoise())
        alpha = af_gain(cfg, 1.0)
        y = af_snapshot_batch(cfg, 1.0, rng, 200_000)
        errs = af_estimates(y, 100, alpha) - 2.0
        expected = 1.0 / (2.0 * 100 ** 2 * alpha ** 2)
        assert errs.var() == pytest.approx(expected, rel=0.03)

    def test_gaussian_no_channel_noise_reaches_sensing_floor(self, rng):
        # L * var -> sensing variance when the channel is clean
        cfg = _config(n_sensors=500, channel_noise_variance=0.0)
        alpha = af_gain(cfg, 1.0)
        y = af_snapshot_batch(cfg, 1.0, rng, 50_000)
        errs = af_estimates(y, 500, alpha) - 2.0
        assert 500 * errs.var() == pytest.approx(1.0, rel=0.05)


def _mse(model, omega, L, trials, seed):
    cfg = NetworkConfig(
        n_sensors=L,
        theta=2.0,
        theta_range=12.0,
        omega=omega,
        power=TotalPower(10.0),
        channel_noise_variance=1.0,
        noise=model,
    )
    rng = np.random.default_rng(seed)
    y = cm_snapshot_batch(cfg, trials, rng)
    errs = cm_estimates(y, L, omega, cfg.power) - 2.0
    return float(np.mean(errs ** 2))


class TestConsistency:
    @pytest.mark.parametrize(
        "model",
        [
            Gaussian(1.0),
            Laplace(1.0),
            Uniform(1.0),
            Cauchy(1.0),
            ClassA(overlap=1.0, background_ratio=0.1, variance_=1.0),
        ],
        ids=["gaussian", "laplace", "uniform", "cauchy", "class-a"],
    )
    def test_mse_shrinks_with_network_size(self, model):
        omega = optimize.omega_star(model, 0.1, 12.0).omega
        mses = [_mse(model, omega, L, 1500, seed=101 + L) for L in (10, 50, 200, 1000)]
        assert all(a > b for a, b in zip(mses, mses[1:])), mses
        assert _mse(model, omega, 10_000, 300, seed=55) < 0.01

    def test_asymptotic_normality_of_standardized_errors(self):
        from cmest.asv import AsvContext, asv_generic

        L, trials = 500, 100_000
        omega = optimize.omega_star_gaussian(1.0, 0.1, 12.0).omega
        cfg = _config(n_sensors=L, omega=omega)
        rng = np.random.default_rng(7)
        y = cm_snapshot_batch(cfg, trials, rng)
        errs = cm_estimates(y, L, omega, cfg.power) - 2.0
        z = math.sqrt(L) * errs / math.sqrt(asv_generic(AsvContext(Gaussian(1.0), 0.1), omega))
        kurt = np.mean(z ** 4) / np.mean(z ** 2) ** 2
        assert abs(z.mean()) < 3.5 / math.sqrt(trials)
        assert 2.8 < kurt < 3.2
