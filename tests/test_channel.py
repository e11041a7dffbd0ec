import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest, rice

from cmest.channel import (
    NetworkConfig,
    NoFading,
    PerSensorPower,
    RayleighFading,
    RiceanFading,
    TotalPower,
    _TWO_PI,
    _cm_row_sums,
    _draw_chunks,
    _rows_per_chunk,
    _wrap_to_float32,
    af_gain,
    af_snapshot_batch,
    cm_snapshot_batch,
)
from cmest.errors import ConfigError
from cmest.estimators import cm_estimates
from cmest.noise import (
    BoundedScales,
    Cauchy,
    ClassA,
    Gaussian,
    HeterogeneousScaled,
    Laplace,
    NoiseModel,
    Uniform,
)
from cmest.specfun import ricean_fading_penalty


class _ZeroNoise(NoiseModel):
    """Degenerate point mass at zero, for noiseless-channel checks."""

    def cf(self, omega):
        return np.ones_like(np.asarray(omega, dtype=float)) if np.ndim(omega) else 1.0

    def variance(self):
        return 0.0

    def excess_kurtosis(self):
        return 0.0

    def sample(self, rng, size, out=None, work=None):
        return np.zeros(size)


def _config(**kw):
    defaults = dict(
        n_sensors=500,
        theta=2.0,
        theta_range=12.0,
        omega=0.5,
        power=TotalPower(p_t=10.0),
        channel_noise_variance=1.0,
        noise=Gaussian(1.0),
    )
    defaults.update(kw)
    return NetworkConfig(**defaults)


class TestNetworkConfig:
    def test_valid(self):
        cfg = _config()
        assert cfg.per_sensor_power == pytest.approx(10.0 / 500.0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_sensors=0),
            dict(theta=-0.5),
            dict(theta=13.0),
            dict(theta_range=0.0),
            dict(omega=0.0),
            dict(omega=2.0 * math.pi / 12.0 + 1e-6),
            dict(channel_noise_variance=-1.0),
            # NaN passed a bare `< 0` check and ran as a noiseless channel
            dict(channel_noise_variance=math.nan),
            dict(channel_noise_variance=math.inf),
            # sigma_v^2 / p_t overflowed to an infinite snr_inv after the blocks ran
            dict(channel_noise_variance=1e308, power=TotalPower(p_t=1e-308)),
        ],
    )
    def test_invariants(self, kw):
        with pytest.raises(ConfigError):
            _config(**kw)

    def test_network_size_cap(self):
        # beyond 2**53 a float64 cannot hold L exactly
        assert _config(n_sensors=2 ** 53).n_sensors == 2 ** 53
        with pytest.raises(ConfigError, match="at most 2\\*\\*53"):
            _config(n_sensors=2 ** 53 + 1)

    def test_omega_boundary_tolerance(self):
        # the exact boundary 2*pi/theta_range is admissible
        _config(omega=2.0 * math.pi / 12.0)

    @pytest.mark.parametrize(
        "make, value",
        [
            # p_t = 0 divided by zero in the analytic value
            (TotalPower, 0.0),
            # negative powers hit a math domain error in sqrt
            (TotalPower, -1.0),
            (PerSensorPower, -1.0),
            (PerSensorPower, 0.0),
            # NaN power made every trial NaN
            (TotalPower, math.nan),
            (TotalPower, math.inf),
            (PerSensorPower, math.nan),
        ],
    )
    def test_power_must_be_finite_and_positive(self, make, value):
        with pytest.raises(ConfigError):
            make(value)

    def test_ratio_limit_applies_to_total_power_only(self):
        # a per-sensor budget has no sigma_v^2 / p_t, and a finite ratio passes
        _config(channel_noise_variance=1e308, power=PerSensorPower(rho=1e-308))
        _config(channel_noise_variance=1e300, power=TotalPower(p_t=1e-5))

    @pytest.mark.parametrize(
        "power, variance",
        [(TotalPower(p_t=10.0), 1.0), (TotalPower(p_t=3.0), 0.7),
         (TotalPower(p_t=1e-5), 1e300), (PerSensorPower(rho=2.0), 1.0),
         (PerSensorPower(rho=1e-308), 1e308)],
    )
    def test_snr_inv(self, power, variance):
        # sigma_v^2 / P_T under a total budget; the snr_inv = 0 asymptote
        # under a per-sensor one
        cfg = _config(power=power, channel_noise_variance=variance)
        expected = variance / power.p_t if isinstance(power, TotalPower) else 0.0
        assert cfg.snr_inv == expected

    def test_power_modes(self):
        assert PerSensorPower(rho=2.0).per_sensor_power(100) == 2.0
        assert TotalPower(p_t=10.0).per_sensor_power(100) == 0.1


class TestConstantModulus:
    def test_noiseless_single_sensor(self, rng):
        cfg = _config(
            n_sensors=1,
            channel_noise_variance=0.0,
            power=PerSensorPower(rho=1.0),
            omega=1.0,
            noise=_ZeroNoise(),
            theta_range=2.0 * math.pi,
        )
        y = cm_snapshot_batch(cfg, 1, rng)
        assert y.shape == (1,)
        assert y[0] == pytest.approx(np.exp(2.0j), rel=1e-12)

    def test_noiseless_network(self, rng):
        cfg = _config(n_sensors=50, channel_noise_variance=0.0, noise=_ZeroNoise())
        y = cm_snapshot_batch(cfg, 3, rng)
        rho = cfg.per_sensor_power
        expected = math.sqrt(rho) * 50 * np.exp(1j * 0.5 * 2.0)
        np.testing.assert_allclose(y, expected, rtol=1e-12)

    def test_constant_modulus_regardless_of_noise(self, rng):
        # single sensor, no channel noise: |y| is exactly the symbol modulus
        cfg = _config(
            n_sensors=1,
            channel_noise_variance=0.0,
            power=PerSensorPower(rho=3.0),
            noise=Cauchy(1.0),
            omega=0.4,
        )
        y = cm_snapshot_batch(cfg, 200, rng)
        np.testing.assert_allclose(np.abs(y) ** 2, 3.0, rtol=1e-12)

    def test_mean_matches_cf_attenuation(self, rng):
        # E[y/sqrt(L)] = sqrt(P_T) * cf(omega) * exp(j*omega*theta)
        cfg = _config(n_sensors=500)
        n = 100_000
        y = np.concatenate(
            [cm_snapshot_batch(cfg, 10_000, rng) for _ in range(n // 10_000)]
        )
        z = y / math.sqrt(500)
        expected = math.sqrt(10.0) * math.exp(-0.5 ** 2 / 2.0) * np.exp(1j * 0.5 * 2.0)
        se = np.std(z.real) / math.sqrt(n) + 1j * np.std(z.imag) / math.sqrt(n)
        assert abs(z.mean().real - expected.real) < 3.5 * se.real
        assert abs(z.mean().imag - expected.imag) < 3.5 * se.imag

    def test_rayleigh_mean_scaled_by_mean_amplitude(self, rng):
        cfg = _config(n_sensors=50, fading=RayleighFading())
        n = 40_000
        y = np.concatenate(
            [cm_snapshot_batch(cfg, 10_000, rng) for _ in range(n // 10_000)]
        )
        z = y / math.sqrt(50)
        mean_amp = math.sqrt(math.pi) / 2.0  # E|h| for unit-power Rayleigh
        expected = (
            math.sqrt(10.0)
            * mean_amp
            * math.exp(-0.5 ** 2 / 2.0)
            * np.exp(1j * 0.5 * 2.0)
        )
        se = np.std(z.real) / math.sqrt(n) + 1j * np.std(z.imag) / math.sqrt(n)
        assert abs(z.mean().real - expected.real) < 3.5 * se.real
        assert abs(z.mean().imag - expected.imag) < 3.5 * se.imag

    def test_deterministic_replay(self):
        cfg = _config()
        a = cm_snapshot_batch(cfg, 5, np.random.default_rng(77))
        b = cm_snapshot_batch(cfg, 5, np.random.default_rng(77))
        np.testing.assert_array_equal(a, b)
        c = af_snapshot_batch(cfg, 1.0, np.random.default_rng(77), 5)
        d = af_snapshot_batch(cfg, 1.0, np.random.default_rng(77), 5)
        np.testing.assert_array_equal(c, d)


def _reference_cm_batch(config, n_trials, rng):
    """Whole-matrix float64 kernel: cos/sin of omega*(theta + eta) in float64."""
    eta = config.noise.sample_sensors(rng, n_trials, config.n_sensors)
    phase = config.omega * (config.theta + eta)
    y = math.sqrt(config.per_sensor_power) * (
        np.cos(phase).sum(axis=1) + 1j * np.sin(phase).sum(axis=1)
    )
    sigma = math.sqrt(config.channel_noise_variance / 2.0)
    return y + sigma * (rng.standard_normal(n_trials) + 1j * rng.standard_normal(n_trials))


def _row_chunks(n_trials, n_sensors):
    """The kernel's row slices of a (n_trials, n_sensors) batch."""
    rows = _rows_per_chunk(n_sensors)
    for start in range(0, n_trials, rows):
        yield slice(start, min(start + rows, n_trials))


def _reference_faded_cm_batch(config, n_trials, rng):
    """Float64 kernel over the streaming kernel's row chunks, each drawing
    its noise, then its gains (none without fading), through the allocating
    samplers."""
    L = config.n_sensors
    y = np.empty(n_trials, dtype=complex)
    for chunk in _row_chunks(n_trials, L):
        rows = chunk.stop - chunk.start
        eta = config.noise.sample_sensors(rng, rows, L)
        gains = (
            1.0
            if isinstance(config.fading, NoFading)
            else config.fading.sample_gains(rng, (rows, L))
        )
        phase = config.omega * (config.theta + eta)
        y[chunk] = (gains * np.cos(phase)).sum(axis=1) + 1j * (
            gains * np.sin(phase)
        ).sum(axis=1)
    y *= math.sqrt(config.per_sensor_power)
    sigma = math.sqrt(config.channel_noise_variance / 2.0)
    return y + sigma * (rng.standard_normal(n_trials) + 1j * rng.standard_normal(n_trials))


def _reference_af_batch(config, nominal_variance, n_trials, rng):
    """Whole-matrix AF kernel: one (n_trials, L) noise draw, summed by row."""
    eta = config.noise.sample_sensors(rng, n_trials, config.n_sensors)
    alpha = af_gain(config, nominal_variance)
    y = alpha * (config.theta * config.n_sensors + eta.sum(axis=1)).astype(complex)
    sigma = math.sqrt(config.channel_noise_variance / 2.0)
    return y + sigma * (rng.standard_normal(n_trials) + 1j * rng.standard_normal(n_trials))


def _fused_cm_batch(config, n_trials, rng):
    """The constant-modulus kernel as one fused loop: each chunk draws into
    the work arrays and then reuses the noise buffer as its phase and Newton
    scratch.  Kept as the bit-exact reference of the draw and reduce stages."""
    L = config.n_sensors
    fading = None if isinstance(config.fading, NoFading) else config.fading
    sums = np.empty(n_trials, dtype=complex)
    shape = (min(n_trials, _rows_per_chunk(L)), L)
    phase32 = np.empty(shape, dtype=np.float32)
    noise_buf, re_buf, im_buf, scale_buf = (np.empty(shape) for _ in range(4))
    gain_buf = np.empty(shape) if fading is not None else None
    for chunk in _row_chunks(n_trials, L):
        rows = chunk.stop - chunk.start
        re, im, scale = re_buf[:rows], im_buf[:rows], scale_buf[:rows]
        phase = config.noise.sample_sensors(
            rng, rows, L, out=noise_buf[:rows], work=(re, scale)
        )
        gains = None
        if fading is not None:
            gains = fading.sample_gains(rng, (rows, L), out=gain_buf[:rows], work=re)
        phase *= config.omega
        _wrap_to_float32(phase, scale, phase32[:rows])
        np.cos(phase32[:rows], out=re)
        np.sin(phase32[:rows], out=im)
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
        sigma = math.sqrt(config.channel_noise_variance / 2.0)
        y = y + sigma * (rng.standard_normal(n_trials) + 1j * rng.standard_normal(n_trials))
    return y


def _chunked_af_batch(config, nominal_variance, n_trials, rng):
    """AF over the kernel's row chunks, each drawn by the allocating sampler:
    the reference for models that draw more than one block per chunk."""
    L = config.n_sensors
    sums = np.empty(n_trials)
    for chunk in _row_chunks(n_trials, L):
        eta = config.noise.sample_sensors(rng, chunk.stop - chunk.start, L)
        sums[chunk] = eta.sum(axis=1)
    y = af_gain(config, nominal_variance) * (config.theta * L + sums).astype(complex)
    sigma = math.sqrt(config.channel_noise_variance / 2.0)
    return y + sigma * (rng.standard_normal(n_trials) + 1j * rng.standard_normal(n_trials))


def _assert_same_bits(a, b):
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


_BIT_NOISES = {
    "gaussian": Gaussian(1.0),
    "laplace": Laplace(1.0),
    "cauchy-1e37": Cauchy(1e37),
    "class-a": ClassA(0.1, 0.1, 1.0),
    "hetero-class-a": HeterogeneousScaled(ClassA(0.5, 0.1, 1.0), BoundedScales(1.0)),
}
# 1000 trials at L = 500 end in a ragged chunk (65-row chunks); beyond 2**15
# sensors every chunk is one row.
_BIT_SHAPES = {"ragged": (500, 1000), "one-row": (2 ** 15 + 3, 3)}


class TestStreamingKernel:
    # 1000 trials at L = 500 span several row chunks.

    @pytest.mark.parametrize("noise", [Gaussian(1.0), Laplace(1.0), Cauchy(1.0)])
    def test_cm_matches_float64_reference_on_shared_draws(self, noise):
        # Gaussian and Laplace draw two blocks per chunk, so only the
        # chunk-walking reference shares their draws
        cfg = _config(noise=noise)
        reference = (
            _reference_cm_batch if isinstance(noise, Cauchy) else _reference_faded_cm_batch
        )
        y = cm_snapshot_batch(cfg, 1000, np.random.default_rng(5))
        y_ref = reference(cfg, 1000, np.random.default_rng(5))
        est = cm_estimates(y, cfg.n_sensors, cfg.omega, cfg.power)
        est_ref = cm_estimates(y_ref, cfg.n_sensors, cfg.omega, cfg.power)
        assert np.max(np.abs(est - est_ref)) <= 1e-5 * np.std(est_ref)

    @pytest.mark.parametrize("fading", [RayleighFading(), RiceanFading(k_factor=5.0)])
    def test_faded_cm_matches_float64_reference_on_shared_draws(self, fading):
        # the draw stage hands the Ricean sampler the reduce's cosine array
        # as scratch: a reduce that wrote its cosines before the draw ended
        # would lose them and fail this comparison
        cfg = _config(fading=fading)
        y = cm_snapshot_batch(cfg, 1000, np.random.default_rng(7))
        y_ref = _reference_faded_cm_batch(cfg, 1000, np.random.default_rng(7))
        est = cm_estimates(y, cfg.n_sensors, cfg.omega, cfg.power)
        est_ref = cm_estimates(y_ref, cfg.n_sensors, cfg.omega, cfg.power)
        assert np.max(np.abs(est - est_ref)) <= 1e-5 * np.std(est_ref)

    @pytest.mark.parametrize(
        "noise",
        [
            ClassA(0.1, 0.1, 1.0),
            ClassA(5.0, 0.0, 2.0),
            HeterogeneousScaled(ClassA(0.5, 0.1, 1.0), BoundedScales(1.0)),
        ],
    )
    def test_class_a_cm_matches_chunked_reference(self, noise):
        # Class-A draws its bin indices and scales into the draw stage's
        # scratch, the reduce's cosine and Newton-scale arrays: a reduce that
        # read them before writing, or a sampler writing into the yielded
        # noise, fails
        cfg = _config(noise=noise)
        y = cm_snapshot_batch(cfg, 1000, np.random.default_rng(9))
        y_ref = _reference_faded_cm_batch(cfg, 1000, np.random.default_rng(9))
        est = cm_estimates(y, cfg.n_sensors, cfg.omega, cfg.power)
        est_ref = cm_estimates(y_ref, cfg.n_sensors, cfg.omega, cfg.power)
        assert np.max(np.abs(est - est_ref)) <= 1e-5 * np.std(est_ref)

    @pytest.mark.parametrize("noise", [Uniform(1.0), Cauchy(1.0)])
    def test_af_bit_identical_to_whole_matrix(self, noise):
        cfg = _config(noise=noise)
        y = af_snapshot_batch(cfg, 1.0, np.random.default_rng(6), 1000)
        y_ref = _reference_af_batch(cfg, 1.0, 1000, np.random.default_rng(6))
        np.testing.assert_array_equal(y, y_ref)

    @pytest.mark.parametrize("shape", _BIT_SHAPES.values(), ids=_BIT_SHAPES.keys())
    @pytest.mark.parametrize(
        "fading",
        [NoFading(), RayleighFading(), RiceanFading(k_factor=5.0)],
        ids=["unfaded", "rayleigh", "ricean"],
    )
    @pytest.mark.parametrize("noise", _BIT_NOISES.values(), ids=_BIT_NOISES.keys())
    def test_cm_bit_identical_to_fused_kernel(self, noise, fading, shape):
        n_sensors, n_trials = shape
        cfg = _config(n_sensors=n_sensors, noise=noise, fading=fading)
        y = cm_snapshot_batch(cfg, n_trials, np.random.default_rng(11))
        y_ref = _fused_cm_batch(cfg, n_trials, np.random.default_rng(11))
        _assert_same_bits(y, y_ref)

    @pytest.mark.parametrize("shape", _BIT_SHAPES.values(), ids=_BIT_SHAPES.keys())
    @pytest.mark.parametrize("noise", ["gaussian", "laplace", "class-a", "hetero-class-a"])
    def test_af_bit_identical_to_chunked_reference(self, noise, shape):
        # these models draw two or three blocks per chunk, so whole-matrix AF
        # differs
        n_sensors, n_trials = shape
        cfg = _config(n_sensors=n_sensors, noise=_BIT_NOISES[noise])
        y = af_snapshot_batch(cfg, 1.0, np.random.default_rng(12), n_trials)
        y_ref = _chunked_af_batch(cfg, 1.0, n_trials, np.random.default_rng(12))
        _assert_same_bits(y, y_ref)

    @pytest.mark.parametrize("fading", [RayleighFading(), RiceanFading(k_factor=5.0)])
    def test_af_draws_no_gains(self, fading):
        unfaded = _config(noise=ClassA(0.1, 0.1, 1.0))
        faded = _config(noise=ClassA(0.1, 0.1, 1.0), fading=fading)
        y = af_snapshot_batch(faded, 1.0, np.random.default_rng(13), 300)
        y_ref = af_snapshot_batch(unfaded, 1.0, np.random.default_rng(13), 300)
        _assert_same_bits(y, y_ref)

    @pytest.mark.parametrize(
        "noise, fading",
        [
            (Gaussian(1.0), None),
            (ClassA(0.1, 0.1, 1.0), None),
            (Cauchy(1e37), None),  # the exact fmod wrap runs in the reduce's buffer
            (Gaussian(1.0), RiceanFading(k_factor=5.0)),
        ],
        ids=["gaussian", "class-a", "cauchy-1e37", "ricean-k5"],
    )
    def test_one_draw_feeds_several_reductions(self, noise, fading):
        cfg = _config(noise=noise)
        shape = (65, cfg.n_sensors)
        work = [np.empty(shape) for _ in range(4)] + [np.empty(shape, np.float32)]
        draws = _draw_chunks(cfg, 130, np.random.default_rng(14), fading, work[1::2])
        _, noise_draw, gains = next(draws)
        noise_copy = noise_draw.copy()
        gains_copy = None if gains is None else gains.copy()
        first = _cm_row_sums(noise_draw, gains, 0.3, work)
        _cm_row_sums(noise_draw, gains, 0.45, work)
        third = _cm_row_sums(noise_draw, gains, 0.3, work)
        for a, b in zip(first, third):
            _assert_same_bits(a, b)
        _assert_same_bits(noise_draw, noise_copy)
        if gains is not None:
            _assert_same_bits(gains, gains_copy)

    @pytest.mark.parametrize(
        "values",
        [
            [0.5, -3.0, 3.2, 7.0, -40.0, 1e6, -1.6e7],  # fast reduction only
            [0.5, -3.0, 2.5e7, -1e12, 1e37, -1e300],  # exact reduction first
        ],
    )
    def test_phase_wraps_into_principal_interval(self, values):
        phase = np.array(values)
        out = np.empty(phase.shape, dtype=np.float32)
        _wrap_to_float32(phase.copy(), np.empty_like(phase), out)
        assert np.all(np.abs(out) <= np.float32(math.pi))
        # same point on the circle as the exact float64 remainder
        off = np.remainder(out - np.remainder(phase, 2.0 * math.pi), 2.0 * math.pi)
        assert np.all(np.minimum(off, 2.0 * math.pi - off) < 1e-6)

    @pytest.mark.parametrize(
        "values, cast",
        [
            ([0.0, -0.0, 3.0, -3.0, 5e-324, -5e-324, 2.2e-308, -1e-310], True),
            (np.random.default_rng(3).standard_normal((65, 500)) * 0.52, True),
            ([0.5, np.nextafter(3.0, 4.0)], False),
            ([0.5, -2.0, math.nan, 1.0], False),
        ],
        ids=["zeros-bounds-subnormals", "gaussian-chunk", "just-above-3", "nan"],
    )
    def test_wrap_within_three_is_a_bit_exact_cast(self, values, cast):
        # in [-3, 3] the chunk is cast as it is; the reduction writes its
        # multiples of 2*pi into work, so an untouched work shows the cast
        phase = np.array(values, dtype=float)
        expected = np.empty(phase.shape, dtype=np.float32)
        np.subtract(
            phase, np.rint(phase * (1.0 / _TWO_PI)) * _TWO_PI, out=expected
        )
        work = np.full(phase.shape, 7.0)
        out = np.empty(phase.shape, dtype=np.float32)
        _wrap_to_float32(phase.copy(), work, out)
        np.testing.assert_array_equal(out.view(np.uint32), expected.view(np.uint32))
        assert np.all(work == 7.0) == cast

    def test_huge_cauchy_scale_stays_finite(self, rng):
        # unwrapped, omega*eta overflows the float32 cast and turns y into NaN
        cfg = _config(noise=Cauchy(1e37))
        y = cm_snapshot_batch(cfg, 300, rng)
        assert np.all(np.isfinite(y))

    @pytest.mark.parametrize(
        "batch",
        [
            lambda cfg, rng: cm_snapshot_batch(cfg, 512, rng),
            lambda cfg, rng: af_snapshot_batch(cfg, 1.0, rng, 512),
        ],
        ids=["cm", "af"],
    )
    def test_block_memory_does_not_grow_with_sensors(self, batch):
        def peak_bytes(n_sensors):
            cfg = _config(n_sensors=n_sensors, fading=RayleighFading())
            tracemalloc.start()
            try:
                batch(cfg, np.random.default_rng(7))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(2000) < 1.5 * peak_bytes(200)


def _polar_ricean_k3(rng, size):
    """Ricean K = 3 gains: exponential block first, then the uniform block,
    with the cos in float32."""
    t = np.sqrt(rng.standard_exponential(size) * 0.25)
    cos = np.cos((rng.random(size) * _TWO_PI).astype(np.float32)).astype(float)
    return np.sqrt(np.maximum(t * (t + 2.0 * math.sqrt(0.75) * cos) + 0.75, 0.0))


class TestFadingGains:
    @pytest.mark.parametrize(
        "fading", [RayleighFading(), RiceanFading(k_factor=3.0)]
    )
    def test_unit_second_moment(self, fading, rng):
        g = fading.sample_gains(rng, 1_000_000)
        m2 = np.mean(g ** 2)
        se = np.std(g ** 2) / 1000.0
        assert abs(m2 - 1.0) < 3.5 * se
        assert np.all(g > 0)

    def test_rayleigh_envelope_distribution(self, rng):
        g = RayleighFading().sample_gains(rng, 200_000)
        # unit-power Rayleigh envelope: P(|h| <= g) = 1 - exp(-g^2)
        assert kstest(g, lambda x: -np.expm1(-x * x)).pvalue > 1e-3

    @pytest.mark.parametrize("k", [0.0, 5.0, 50.0])
    def test_ricean_envelope_distribution(self, k, rng):
        g = RiceanFading(k_factor=k).sample_gains(rng, 200_000)
        if k == 0.0:
            # K = 0 is the unit-power Rayleigh envelope
            cdf = lambda x: -np.expm1(-x * x)
        else:
            cdf = rice(b=math.sqrt(2.0 * k), scale=math.sqrt(0.5 / (k + 1.0))).cdf
        assert kstest(g, cdf).pvalue > 1e-3

    def test_polar_draw_matches_two_normal_draw(self, rng):
        k, n = 5.0, 200_000
        los, sig = math.sqrt(k / (k + 1.0)), math.sqrt(0.5 / (k + 1.0))
        two_normal = np.hypot(
            los + sig * rng.standard_normal(n), sig * rng.standard_normal(n)
        )
        polar = RiceanFading(k_factor=k).sample_gains(rng, n)
        assert ks_2samp(polar, two_normal).pvalue > 1e-3

    def test_largest_k_gains_are_finite(self, rng):
        g = RiceanFading(k_factor=700.0).sample_gains(rng, 200_000)
        assert np.all(np.isfinite(g)) and np.all(g >= 0.0)

    def test_ricean_mean_amplitude(self, rng):
        g = RiceanFading(k_factor=5.0).sample_gains(rng, 1_000_000)
        se = g.std() / math.sqrt(g.size)
        assert abs(g.mean() - ricean_fading_penalty(5.0) ** -0.5) < 3.5 * se

    @pytest.mark.parametrize(
        "fading, reference",
        [
            (RayleighFading(), lambda rng, n: np.sqrt(rng.standard_exponential(n))),
            (RiceanFading(k_factor=3.0), _polar_ricean_k3),
        ],
    )
    def test_stream_order_with_and_without_buffers(self, fading, reference):
        size = (30, 70)
        expected = reference(np.random.default_rng(4), size)
        out, work = np.empty(size), np.empty(size)
        buffered = fading.sample_gains(
            np.random.default_rng(4), size, out=out, work=work
        )
        assert buffered is out
        np.testing.assert_array_equal(buffered, expected)
        np.testing.assert_array_equal(
            fading.sample_gains(np.random.default_rng(4), size), expected
        )

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigError):
            RiceanFading(k_factor=-1.0)

    def test_k_beyond_700_rejected(self):
        # from about K = 707 the penalty leaves float64 and reads 0
        assert RiceanFading(k_factor=700.0).k_factor == 700.0
        for k in (701.0, 1000.0, math.inf, math.nan):
            with pytest.raises(ConfigError, match=r"\[0, 700\]"):
                RiceanFading(k_factor=k)


class TestAmplifyForward:
    def test_gain_value(self):
        cfg = _config()
        assert af_gain(cfg, 1.0) == pytest.approx(
            math.sqrt(10.0 / (500 * (4.0 + 1.0)))
        )

    def test_noiseless_value(self, rng):
        cfg = _config(channel_noise_variance=0.0, noise=_ZeroNoise())
        y = af_snapshot_batch(cfg, 1.0, rng)
        alpha = af_gain(cfg, 1.0)
        assert y.shape == (1,)
        assert y[0] == pytest.approx(alpha * 500 * 2.0, rel=1e-12)

    def test_average_power_constraint(self, rng):
        # alpha_L^2 * E[(theta + eta)^2] = P_T / L for matched nominal variance
        cfg = _config()
        alpha = af_gain(cfg, 1.0)
        eta = cfg.noise.sample(rng, 1_000_000)
        inst_power = alpha ** 2 * (cfg.theta + eta) ** 2
        se = inst_power.std() / 1000.0
        assert abs(inst_power.mean() - 10.0 / 500.0) < 3.5 * se

    def test_cauchy_instantaneous_power_unbounded(self, rng):
        # sample maxima keep growing: heavy tails defeat any fixed power cap
        cfg = _config(noise=Cauchy(1.0))
        alpha = af_gain(cfg, 1.0)
        eta = cfg.noise.sample(rng, 1_000_000)
        inst_power = alpha ** 2 * (cfg.theta + eta) ** 2
        nominal = 10.0 / 500.0
        assert inst_power.max() > 50.0 * nominal
        small = inst_power[:1000].max()
        assert inst_power.max() > 10.0 * small
