import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cmest import asv, noise
from cmest.errors import DomainError, MomentUndefinedError, UnsupportedModelError
from cmest.noise import (
    BoundedScales,
    Cauchy,
    ClassA,
    Gaussian,
    HeterogeneousScaled,
    Laplace,
    LinearGrowthScales,
    NoiseModel,
    Uniform,
)

ALL_IID_MODELS = [
    Gaussian(variance_=1.0),
    Gaussian(variance_=2.5),
    Laplace(variance_=1.0),
    Cauchy(scale=1.0),
    Cauchy(scale=0.5),
    Uniform(variance_=1.0),
    ClassA(overlap=0.5, background_ratio=0.2, variance_=2.0),
]

FINITE_VARIANCE_MODELS = [
    Gaussian(variance_=1.0),
    Laplace(variance_=2.0),
    Uniform(variance_=1.5),
    ClassA(overlap=0.3, background_ratio=0.1, variance_=1.0),
]


def _box_muller(rng, size, sd=1.0):
    """sd * N(0, 1) of shape ``size`` as one expression per half: h =
    ceil(n/2) exponentials, then h uniforms; the h cosines, then the sines
    of all but an odd block's last pair, with float32 cos and sin."""
    n = math.prod(np.atleast_1d(size))
    h = n - n // 2
    r = (math.sqrt(2.0) * sd) * np.sqrt(rng.standard_exponential(h))
    angle = (2.0 * math.pi * rng.random(h)).astype(np.float32)
    cos, sin = np.cos(angle).astype(float), np.sin(angle).astype(float)
    return np.concatenate([r * cos, (r * sin)[: n // 2]]).reshape(size)


def _class_a_log_cf(overlap, big_t, variance, omega):
    """t * variance * T/(T+1) + A * expm1(t * variance / (A (T+1))), t = -omega^2/2."""
    t = -0.5 * np.square(omega)
    return t * (variance * (big_t / (big_t + 1.0))) + overlap * np.expm1(
        t * (variance / (overlap * (big_t + 1.0)))
    )


class TestCharacteristicFunctions:
    @pytest.mark.parametrize("model", ALL_IID_MODELS)
    def test_unity_at_origin(self, model):
        assert model.cf(0.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("model", ALL_IID_MODELS)
    def test_bounded_by_one(self, model):
        omegas = np.linspace(0.0, 50.0, 2001)
        assert np.all(np.abs(model.cf(omegas)) <= 1.0 + 1e-12)

    def test_cauchy_closed_form(self):
        assert Cauchy(scale=1.0).cf(2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_gaussian_closed_form(self):
        assert Gaussian(variance_=2.0).cf(1.5) == pytest.approx(
            math.exp(-2.0 * 1.5 ** 2 / 2.0), rel=1e-14
        )

    def test_laplace_closed_form(self):
        # scale b with b^2 = variance / 2
        assert Laplace(variance_=2.0).cf(3.0) == pytest.approx(
            1.0 / (1.0 + 1.0 * 9.0), rel=1e-14
        )

    def test_uniform_zero_at_pi_over_halfwidth(self):
        u = Uniform(variance_=1.0)
        assert abs(u.cf(math.pi / u.half_width)) < 1e-15

    def test_uniform_small_argument_taylor(self):
        u = Uniform(variance_=1.0)
        w = 1e-5 / u.half_width
        x = w * u.half_width
        assert u.cf(w) == pytest.approx(1.0 - x * x / 6.0, rel=1e-15)

    @pytest.mark.parametrize(
        "model, log_cf",
        [
            (Gaussian(2.5), lambda w: -0.5 * 2.5 * np.square(w)),
            (Cauchy(0.5), lambda w: -0.5 * np.abs(w)),
            (ClassA(0.5, 0.2, 2.0), lambda w: _class_a_log_cf(0.5, 0.2, 2.0, w)),
        ],
    )
    def test_log_cf_models_keep_the_textbook_bits(self, model, log_cf):
        # cf and cf_complement come from the model's log-cf, bit for bit as
        # the textbook exp / -expm1 expressions, arrays and scalars alike
        omegas = np.concatenate([[0.0], np.geomspace(1e-200, 1e3, 4001)])
        np.testing.assert_array_equal(model.cf(omegas), np.exp(log_cf(omegas)))
        np.testing.assert_array_equal(
            model.cf_complement(omegas), -np.expm1(log_cf(omegas))
        )
        for w in (0.0, 1e-200, 0.7, 1e3):
            assert model.cf(w) == np.exp(log_cf(w))
            assert model.cf_complement(w) == -np.expm1(log_cf(w))

    def test_heterogeneous_has_no_single_cf(self):
        het = HeterogeneousScaled(Gaussian(1.0), BoundedScales(1.0))
        with pytest.raises(UnsupportedModelError):
            het.cf(0.5)
        with pytest.raises(UnsupportedModelError):
            het.cf_complement(0.5)

    @pytest.mark.parametrize("model", ALL_IID_MODELS)
    def test_complement_is_one_minus_cf(self, model):
        # away from the origin, where 1 - cf(w) does not cancel
        omegas = np.linspace(0.5, 50.0, 2001)
        got = model.cf_complement(omegas)
        np.testing.assert_allclose(got, 1.0 - model.cf(omegas), rtol=0.0, atol=5e-16)
        assert model.cf_complement(0.5) == got[0]

    @pytest.mark.parametrize("model", ALL_IID_MODELS)
    def test_complement_keeps_its_digits_at_the_origin(self, model):
        # 1 - phi(w) ~ variance w^2 / 2 (Cauchy: scale w), where 1 - cf(w)
        # is 0 in float64
        w = 1e-10
        leading = model.scale * w if isinstance(model, Cauchy) else model.variance() * w * w / 2
        assert model.cf_complement(w) == pytest.approx(leading, rel=1e-9)

    def test_uniform_complement_across_its_series_cut(self):
        # 1 - sin(x)/x: a Taylor series below x = 0.5, the subtraction above
        u = Uniform(variance_=2.0)
        omegas = np.linspace(0.3, 0.8, 101) / u.half_width
        got = u.cf_complement(omegas)
        with mpmath.workdps(40):
            for x, g in zip(u.half_width * omegas, got):  # x as the model rounds it
                exact = 1 - mpmath.sin(mpmath.mpf(x)) / x
                assert abs(g / exact - 1) <= 5e-15, x

    @pytest.mark.parametrize("model", FINITE_VARIANCE_MODELS)
    def test_finite_variance_lower_bound(self, model):
        # phi(w) >= 1 - variance * w^2 / 2 for any finite-variance law
        omegas = np.linspace(0.0, 8.0, 4001)
        lower = 1.0 - model.variance() * omegas ** 2 / 2.0
        assert np.all(np.asarray(model.cf(omegas)) >= lower - 1e-12)

    @given(st.floats(min_value=0.0, max_value=40.0))
    @settings(max_examples=120)
    def test_class_a_cf_in_unit_interval(self, omega):
        c = ClassA(overlap=0.2, background_ratio=0.1, variance_=3.0).cf(omega)
        assert 0.0 < c <= 1.0


class TestClassAMgf:
    """The Class-A cf is the mixture variance's MGF at t = -omega^2/2."""

    def test_origin(self):
        assert ClassA(0.1, 0.0, 3.0).cf(0.0) == 1.0
        assert ClassA(0.1, 0.0, 3.0).cf_complement(0.0) == 0.0

    @pytest.mark.parametrize("overlap,background", [(0.0, 0.1), (-1.0, 0.1), (0.1, -0.2)])
    def test_parameter_domain(self, overlap, background):
        with pytest.raises(DomainError):
            ClassA(overlap, background, 3.0)

    def test_gaussian_limit_large_overlap(self):
        # Poisson mass concentrates, the mixture collapses to variance itself
        got = ClassA(1e4, 1.0, 1.0).cf(1.0)
        assert got == pytest.approx(math.exp(-0.5), abs=1e-3)

    def test_against_truncated_poisson_average(self):
        # independent oracle: E[exp(t X)] over the exact Poisson pmf
        omega, overlap, background, variance = 1.3, 0.1, 0.0, 3.0
        t = -0.5 * omega ** 2
        pmf = math.exp(-overlap)
        total = 0.0
        k = 0
        mass = 0.0
        while mass < 1.0 - 1e-15:
            x = variance * (k / (overlap * (background + 1.0)))
            total += pmf * math.exp(t * x)
            mass += pmf
            k += 1
            pmf *= overlap / k
        model = ClassA(overlap, background, variance)
        assert model.cf(omega) == pytest.approx(total, rel=1e-12)
        assert model.cf_complement(omega) == pytest.approx(1.0 - total, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_variance_leaves_the_poisson_mass_at_zero(self):
        # every impulse drives its Gaussian's cf to 0, so phi = P(no impulse)
        model = ClassA(1.0, 0.0, 1e308)
        assert model.cf(2.0) == math.exp(-1.0)
        assert model.cf_complement(2.0) == -math.expm1(-1.0)
        vals = asv.asv_on_grid(asv.AsvContext(noise=model), np.array([1e-200, 0.5, 2.0]))
        assert vals[0] == math.inf and np.isfinite(vals[1:]).all()


class TestMoments:
    def test_values(self):
        assert Gaussian(2.0).variance() == 2.0
        assert Gaussian(2.0).excess_kurtosis() == 0.0
        assert Laplace(2.0).variance() == 2.0
        assert Laplace(2.0).excess_kurtosis() == 3.0
        assert Uniform(1.0).excess_kurtosis() == pytest.approx(-6.0 / 5.0)
        assert ClassA(0.5, 0.2, 1.7).variance() == 1.7

    def test_cauchy_moments_undefined(self):
        with pytest.raises(MomentUndefinedError):
            Cauchy(1.0).variance()
        with pytest.raises(MomentUndefinedError):
            Cauchy(1.0).excess_kurtosis()

    def test_class_a_kurtosis_formula(self):
        # kappa = 3 / (overlap * (background + 1)^2)
        assert ClassA(0.1, 0.1, 1.0).excess_kurtosis() == pytest.approx(
            3.0 / (0.1 * 1.21), rel=1e-12
        )

    @pytest.mark.parametrize(
        "model",
        [Gaussian(1.3), Laplace(0.7), Uniform(2.0), ClassA(0.4, 0.3, 1.1)],
    )
    def test_sampler_variance_matches(self, model, rng):
        draws = model.sample(rng, 400_000)
        se = draws.std() ** 2 * math.sqrt(2.0 / len(draws)) * math.sqrt(
            max(model.excess_kurtosis() / 2.0 + 1.0, 1.0)
        )
        assert draws.var() == pytest.approx(model.variance(), abs=5 * se + 1e-3)


class TestSamplers:
    @pytest.mark.parametrize("model", ALL_IID_MODELS)
    def test_empirical_cf_matches_analytic(self, model, rng):
        omega = 0.7
        draws = model.sample(rng, 1_000_000)
        # law of large numbers: the empirical CF converges on the analytic one
        emp = np.exp(1j * omega * draws).mean()
        assert abs(emp - model.cf(omega)) < 3e-3

    @pytest.mark.parametrize("model", ALL_IID_MODELS)
    def test_symmetry_sign_balance(self, model, rng):
        draws = model.sample(rng, 1_000_000)
        assert abs(np.sign(draws).mean()) < 3.5 / math.sqrt(len(draws))

    @pytest.mark.parametrize("model", [Gaussian(1.0), Laplace(1.0), Uniform(1.0)])
    def test_skewness_vanishes(self, model, rng):
        draws = model.sample(rng, 1_000_000)
        skew = np.mean(draws ** 3) / np.mean(draws ** 2) ** 1.5
        assert abs(skew) < 0.05

    def test_class_a_point_mass_when_background_zero(self, rng):
        model = ClassA(overlap=0.5, background_ratio=0.0, variance_=3.0)
        draws = model.sample(rng, 100_000)
        frac_zero = np.mean(draws == 0.0)
        expected = math.exp(-0.5)
        assert frac_zero == pytest.approx(expected, abs=5e-3)

    def test_class_a_impulsive_kurtosis_positive(self, rng):
        model = ClassA(overlap=0.1, background_ratio=0.1, variance_=1.0)
        draws = model.sample(rng, 1_000_000)
        kurt = np.mean(draws ** 4) / np.mean(draws ** 2) ** 2 - 3.0
        assert kurt > 5.0

    @pytest.mark.parametrize("model", ALL_IID_MODELS)
    def test_buffered_sensor_draw_equals_sample(self, model):
        # every model writes into the caller's buffer and returns the values
        # of one allocating draw, bit for bit
        buf = np.empty((8, 300))
        drawn = model.sample_sensors(np.random.default_rng(21), 5, 300, out=buf[:5])
        np.testing.assert_array_equal(
            drawn, model.sample(np.random.default_rng(21), (5, 300))
        )
        assert np.shares_memory(drawn, buf)

    @pytest.mark.parametrize("model", ALL_IID_MODELS)
    @pytest.mark.parametrize("size", [9, (3, 7), (1, 2 ** 15 + 3)])
    def test_same_values_with_and_without_buffers(self, model, size):
        # odd sizes too: a Box-Muller block drops its last sine
        expected = model.sample(np.random.default_rng(4), size)
        out, w1, w2 = (np.full(size, np.nan) for _ in range(3))
        drawn = model.sample(np.random.default_rng(4), size, out=out, work=(w1, w2))
        np.testing.assert_array_equal(drawn, expected)
        assert np.shares_memory(drawn, out)

    @pytest.mark.parametrize(
        "model",
        [
            Gaussian(1.0),
            Laplace(1.0),
            ClassA(0.1, 0.1, 1.0),
            HeterogeneousScaled(Gaussian(1.0), LinearGrowthScales(1.0)),
        ],
        ids=["gaussian", "laplace", "class-a", "hetero"],
    )
    @pytest.mark.parametrize("shape", [(65, 500), (65, 499)], ids=["even", "odd"])
    def test_no_chunk_sized_allocation_with_work(self, model, shape):
        out, w1, w2 = (np.empty(shape) for _ in range(3))
        model.sample_sensors(np.random.default_rng(1), *shape, out=out, work=(w1, w2))
        tracemalloc.start()
        try:
            model.sample_sensors(np.random.default_rng(2), *shape, out=out, work=(w1, w2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # numpy's casting buffers for the float32 trig hold about 64 KB; a
        # Box-Muller half block would be half the chunk
        assert peak < out.nbytes // 2

    @pytest.mark.parametrize(
        "model, textbook",
        [
            (Gaussian(2.5), lambda rng, s: _box_muller(rng, s, math.sqrt(2.5))),
            (Cauchy(0.5), lambda rng, s: 0.5 * np.tan(np.pi * (rng.random(s) - 0.5))),
            (Uniform(1.0), lambda rng, s: rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), s)),
        ],
    )
    @pytest.mark.parametrize("size", [9, (4, 300)])
    def test_in_place_draw_equals_textbook_formula(self, model, textbook, size):
        # the in-place arithmetic must keep the bits of the one-expression draw
        drawn = model.sample(np.random.default_rng(5), size)
        np.testing.assert_array_equal(drawn, textbook(np.random.default_rng(5), size))
        assert np.ndim(drawn) == np.ndim(textbook(np.random.default_rng(5), size))

    def test_deterministic_replay(self):
        model = ClassA(0.3, 0.1, 1.0)
        a = model.sample(np.random.default_rng(99), 1000)
        b = model.sample(np.random.default_rng(99), 1000)
        np.testing.assert_array_equal(a, b)


def _poisson_inversion(rng, lam, size):
    """Poisson draws by CDF inversion with sequential search, one uniform each."""
    u = rng.random(size)
    out = np.zeros(np.shape(u), dtype=np.int64)
    pmf = math.exp(-lam)
    cdf = pmf
    k = 0
    remaining = u >= cdf
    while remaining.any():
        k += 1
        pmf *= lam / k
        cdf += pmf
        out[remaining] = k
        remaining &= u >= cdf
        if pmf < 1e-320 and k > lam:  # tail mass exhausted in float64
            break
    return out


def _textbook_class_a(model, rng, size, normals=_box_muller):
    """sqrt(X) * G with X = variance * (Y / (A (T+1)) + T/(T+1)), Y ~ Poisson(A),
    and G drawn as ``normals(rng, shape)``."""
    y = _poisson_inversion(rng, model.overlap, size)
    big_t = model.background_ratio
    x = model.variance_ * (y / (model.overlap * (big_t + 1.0)) + big_t / (big_t + 1.0))
    return np.sqrt(x) * normals(rng, np.shape(y))


def _laplace_cdf(x, b):
    return np.where(x < 0.0, 0.5 * np.exp(x / b), 1.0 - 0.5 * np.exp(-x / b))


class TestDrawDistributions:
    """The Box-Muller normals and the exponential-sign Laplace against their
    laws and against numpy's own samplers, at 200k draws."""

    N = 200_000

    @pytest.mark.parametrize("variance", [1.0, 2.5])
    def test_gaussian_against_normal_cdf(self, variance):
        draws = Gaussian(variance).sample(np.random.default_rng(31), self.N)
        assert stats.kstest(draws, stats.norm(scale=math.sqrt(variance)).cdf).pvalue > 1e-3

    def test_laplace_against_laplace_cdf(self):
        model = Laplace(2.0)
        draws = model.sample(np.random.default_rng(32), self.N)
        assert stats.kstest(draws, lambda x: _laplace_cdf(x, model.scale)).pvalue > 1e-3

    @pytest.mark.parametrize(
        "model, numpy_draw",
        [
            (Gaussian(2.5), lambda rng, n: math.sqrt(2.5) * rng.standard_normal(n)),
            (Laplace(2.0), lambda rng, n: rng.laplace(0.0, Laplace(2.0).scale, n)),
            (
                ClassA(0.5, 0.1, 1.7),
                lambda rng, n: _textbook_class_a(
                    ClassA(0.5, 0.1, 1.7), rng, n, np.random.Generator.standard_normal
                ),
            ),
        ],
        ids=["gaussian", "laplace", "class-a"],
    )
    def test_same_law_as_numpy_samplers(self, model, numpy_draw):
        draws = model.sample(np.random.default_rng(33), self.N)
        reference = numpy_draw(np.random.default_rng(34), self.N)
        assert stats.ks_2samp(draws, reference).pvalue > 1e-3


class TestClassASampler:
    @pytest.mark.parametrize("overlap", [0.05, 1.0, 5.0, 50.0])
    @pytest.mark.parametrize("background", [0.0, 0.1])
    @pytest.mark.parametrize("size", [9, (4, 300), (65, 500)])
    def test_same_bits_as_sequential_inversion(self, overlap, background, size):
        model = ClassA(overlap, background, 1.7)
        expected = _textbook_class_a(model, np.random.default_rng(3), size)
        np.testing.assert_array_equal(model.sample(np.random.default_rng(3), size), expected)
        if isinstance(size, tuple):
            out, w1, w2 = (np.full(size, np.nan) for _ in range(3))
            drawn = model.sample_sensors(
                np.random.default_rng(3), *size, out=out, work=(w1, w2)
            )
            np.testing.assert_array_equal(drawn, expected)
        if size == (65, 500):
            # some uniforms fall in bins a CDF threshold splits: the exact
            # search is exercised, not only the bin lookup
            u = np.random.default_rng(3).random(size)
            bin_scales = noise._class_a_tables(overlap, background, 1.7)[2]
            assert np.isnan(bin_scales[(u * noise._CDF_BINS).astype(int)]).any()

    @pytest.mark.parametrize("overlap", [709.0, 1000.0, 1e300])
    def test_overlap_beyond_float64_fails_closed(self, overlap):
        # exp(-overlap) is subnormal or 0: the inversion would return one
        # count for every draw, or never stop
        with pytest.raises(DomainError, match="overlap"):
            ClassA(overlap, 0.1, 1.0).sample(np.random.default_rng(1), 4)

    def test_largest_overlap_still_samples(self):
        drawn = ClassA(708.0, 0.1, 1.0).sample(np.random.default_rng(1), (4, 300))
        assert np.all(np.isfinite(drawn))

    def test_no_chunk_sized_allocation_with_work(self):
        model = ClassA(0.1, 0.1, 1.0)
        out, w1, w2 = (np.empty((65, 500)) for _ in range(3))
        model.sample_sensors(np.random.default_rng(1), 65, 500, out=out, work=(w1, w2))
        tracemalloc.start()
        try:
            model.sample_sensors(
                np.random.default_rng(2), 65, 500, out=out, work=(w1, w2)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes


class TestHeterogeneous:
    def test_identity_scaling_reproduces_base(self):
        base = Laplace(1.0)
        het = HeterogeneousScaled(base, scale_rule=lambda i: np.ones_like(
            np.asarray(i, dtype=float)
        ))
        a = het.sample_sensors(np.random.default_rng(5), 100, 50)
        b = base.sample_sensors(np.random.default_rng(5), 100, 50)
        np.testing.assert_array_equal(a, b)

    def test_bounded_rule_stays_below_cap(self):
        rule = BoundedScales(sigma_max=2.0)
        scales = rule(np.arange(1, 1001))
        assert np.all(scales < 2.0)
        assert scales[0] == pytest.approx(1.0)  # sigma_max * (1 - 1/2)

    def test_linear_growth_rule_values(self):
        rule = LinearGrowthScales(sigma=1.5)
        np.testing.assert_allclose(
            rule(np.array([1, 4, 9])), [1.5, 3.0, 4.5], rtol=1e-14
        )

    def test_buffered_draw_scaled_in_place(self):
        rule = LinearGrowthScales(sigma=1.5)
        het = HeterogeneousScaled(Gaussian(1.0), rule)
        buf = np.empty((10, 40))
        drawn = het.sample_sensors(np.random.default_rng(8), 10, 40, out=buf)
        expected = Gaussian(1.0).sample(np.random.default_rng(8), (10, 40)) * rule(
            np.arange(1, 41)
        )
        np.testing.assert_array_equal(drawn, expected)
        assert np.shares_memory(drawn, buf)

    def test_scales_built_once_per_rule_and_size(self):
        sizes = []

        class CountingRule:  # hashable by identity, like any plain object
            def __call__(self, sensor_index):
                sizes.append(np.size(sensor_index))
                return np.sqrt(np.asarray(sensor_index, dtype=float))

        het = HeterogeneousScaled(Gaussian(1.0), CountingRule())
        rng = np.random.default_rng(5)
        for n_sensors in (40, 40, 50, 40):
            het.sample_sensors(rng, 3, n_sensors)
        assert sizes == [40, 50]
        assert not noise._sensor_scales(het.scale_rule, 40).flags.writeable

    def test_one_sampling_call_per_matrix(self, monkeypatch):
        # the base is drawn through its sampler, not its sample_sensors entry
        # point, so a scaled matrix is not counted as two noise draws
        calls = []
        original = NoiseModel.sample_sensors

        def counting(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(NoiseModel, "sample_sensors", counting)
        het = HeterogeneousScaled(Gaussian(1.0), BoundedScales(1.0))
        het.sample_sensors(np.random.default_rng(1), 3, 20)
        assert calls == []

    def test_column_scaling(self, rng):
        het = HeterogeneousScaled(Gaussian(1.0), LinearGrowthScales(sigma=1.0))
        mat = het.sample_sensors(rng, 200_000, 4)
        # column j has variance j (sigma_i = sqrt(i))
        for j in range(4):
            assert mat[:, j].var() == pytest.approx(j + 1.0, rel=0.05)

    def test_moments_unsupported(self):
        het = HeterogeneousScaled(Gaussian(1.0), BoundedScales(1.0))
        with pytest.raises((MomentUndefinedError, UnsupportedModelError)):
            het.variance()

    def test_single_draw_unsupported(self):
        # no one distribution to draw from: draws are per-sensor matrices
        het = HeterogeneousScaled(Gaussian(1.0), LinearGrowthScales(sigma=2.0))
        with pytest.raises(UnsupportedModelError):
            het.sample(np.random.default_rng(3), 1000)


class TestConstruction:
    @pytest.mark.parametrize(
        "bad",
        [
            lambda: Gaussian(0.0),
            lambda: Gaussian(-1.0),
            lambda: Laplace(-0.1),
            lambda: Cauchy(0.0),
            lambda: Uniform(-2.0),
            lambda: ClassA(overlap=0.0),
            lambda: ClassA(overlap=0.1, background_ratio=-0.5),
            lambda: ClassA(overlap=0.1, background_ratio=0.1, variance_=0.0),
        ],
    )
    def test_invalid_parameters(self, bad):
        with pytest.raises(DomainError):
            bad()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "make",
        [
            Gaussian,
            Laplace,
            Cauchy,
            Uniform,
            lambda v: ClassA(overlap=v),
            lambda v: ClassA(background_ratio=v),
            lambda v: ClassA(variance_=v),
            BoundedScales,
            LinearGrowthScales,
        ],
    )
    def test_non_finite_parameters(self, make, value):
        with pytest.raises(DomainError, match="finite"):
            make(value)

    @pytest.mark.parametrize("make", [BoundedScales, LinearGrowthScales])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_scale_rule_sigma_must_be_positive(self, make, value):
        with pytest.raises(DomainError):
            make(value)

    def test_uniform_half_width_must_be_finite(self):
        # 3 * variance overflows float64 past ~6e307: every draw would be NaN
        with pytest.raises(DomainError, match="half-width"):
            Uniform(1e308)
        assert math.isfinite(Uniform(5e307).half_width)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_class_a_impulsive_variance_must_be_finite(self):
        # variance / (overlap (T + 1)) = 1e600: fails closed, before any
        # characteristic function or table computes through the overflow
        with pytest.raises(DomainError, match="overflows"):
            ClassA(overlap=1e-300, background_ratio=0.1, variance_=1e300)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "overlap, background, variance",
        [(1.0, 0.0, 1e307), (1e-308, 0.0, 1e-10)],
    )
    def test_class_a_table_scales_must_be_finite(self, overlap, background, variance):
        # one impulse fits float64 but the table's largest count does not
        model = ClassA(overlap=overlap, background_ratio=background, variance_=variance)
        with pytest.raises(DomainError, match="overflows"):
            model.sample(np.random.default_rng(0), 4)
