import math
import sys

import numpy as np
import pytest

from cmest import asv
from cmest.asv import (
    AsvContext,
    asv_af,
    asv_generic,
    asv_low_snr_gaussian,
    asv_on_grid,
    asv_small_omega,
    asv_upper_bound,
    default_omega_grid,
    sample_curve,
)
from cmest.channel import NoFading, RayleighFading, RiceanFading
from cmest.errors import CfZeroError, ConfigError, DomainError
from cmest.noise import Cauchy, ClassA, Gaussian, Laplace, Uniform
from cmest.optimize import omega_star_gaussian, omega_star_numeric
from cmest.specfun import ricean_fading_penalty
from oracles import appendix_covariance, asv_reference


def _asv(noise, snr_inv, omega):
    return asv_generic(AsvContext(noise=noise, snr_inv=snr_inv), omega)


def _class_a_mixture_cf(overlap, background_ratio, variance, omega):
    """The Class-A characteristic function as its explicit Poisson mixture
    sum_k e^-A A^k/k! exp(-w^2 s_k^2/2), s_k^2 = variance (k/(A(T+1)) + T/(T+1))."""
    a, t = overlap, background_ratio
    return math.fsum(
        math.exp(-a) * a ** k / math.factorial(k)
        * math.exp(-0.5 * omega ** 2 * variance * (k / (a * (t + 1.0)) + t / (t + 1.0)))
        for k in range(60)
    )


class TestGenericAgainstClosedForms:
    def test_gaussian_origin_limit(self):
        # variance tends to the sensing variance as the phase shrinks
        assert _asv(Gaussian(1.0), 0.0, 1e-4) == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_keeps_its_digits_toward_the_origin(self):
        # exactly 1 + w^4/6 + O(w^6): 1 - phi(2w) must not cancel
        assert _asv(Gaussian(1.0), 0.0, 1e-9) == pytest.approx(1.0, rel=1e-15)

    def test_specialization_equivalence(self):
        rng = np.random.default_rng(31)
        omega_draw = lambda: rng.uniform(0.01, 2.5)
        for _ in range(1000):
            s2 = rng.uniform(0.25, 4.0)
            snr = rng.uniform(0.0, 5.0)
            w = omega_draw()
            models = (Gaussian(s2), Cauchy(math.sqrt(s2)), Laplace(s2))
            class_a = ClassA(overlap=0.5, background_ratio=0.2, variance_=s2)
            assert class_a.cf(w) == pytest.approx(
                _class_a_mixture_cf(0.5, 0.2, s2, w), rel=1e-12
            ), (class_a, w)
            for model in models:
                ctx = AsvContext(noise=model, snr_inv=snr)
                reference, _ = asv_reference(ctx, w)
                assert asv_generic(ctx, w) == pytest.approx(float(reference), rel=1e-12), (
                    model, w
                )
            a = math.sqrt(3.0 * s2)
            phi = math.sin(w * a) / (w * a)
            if abs(phi) > 1e-9:
                # float64 rounds a = sqrt(3 s2) and w*a (2.2e-16 relative in
                # all); the variance, ~ 1/phi(w)^2, amplifies that by about
                # 2/|phi(w)| near a zero
                ctx = AsvContext(noise=Uniform(s2), snr_inv=snr)
                reference, _ = asv_reference(ctx, w)
                assert asv_generic(ctx, w) == pytest.approx(
                    float(reference), rel=1e-12 + 1e-15 / abs(phi)
                ), (ctx.noise, w)

    def test_gaussian_never_beats_its_variance_at_zero_snr(self):
        # zero excess kurtosis: the origin limit is also the infimum
        for w in np.linspace(0.01, 3.0, 300):
            assert _asv(Gaussian(1.0), 0.0, w) > 1.0

    def test_uniform_cf_zero_raises(self):
        a = math.sqrt(3.0)
        with pytest.raises(CfZeroError):
            asv_generic(AsvContext(noise=Uniform(1.0), snr_inv=0.1), math.pi / a)

    def test_nonpositive_omega_rejected(self):
        with pytest.raises(DomainError):
            _asv(Gaussian(1.0), 0.1, 0.0)

    def test_underflowing_omega_is_a_domain_error(self):
        # 2*omega^2*phi^2 underflows to 0 below about 1e-162: a domain error
        # naming the underflow, not a ZeroDivisionError
        ctx = AsvContext(noise=Gaussian(1.0), snr_inv=0.1)
        with pytest.raises(DomainError, match="underflow"):
            asv_generic(ctx, 1e-200)
        assert math.isfinite(asv_generic(ctx, 1e-150))

    @pytest.mark.parametrize(
        "noise, snr_inv, omega, error",
        [
            # phi(w) underflows to 0: a cf zero to the generic form (the
            # phase optimizers report it as a DomainError)
            (Gaussian(1e12), 0.0, 1.0, CfZeroError),
            (Gaussian(1.0), 0.1, 1e-200, DomainError),  # 2 w^2 underflows to 0
            (Cauchy(1.0), 0.1, 1e-200, DomainError),
            (Laplace(1.0), 0.1, 1e-200, DomainError),
            (Uniform(1.0), 0.1, 1e-200, DomainError),
        ],
        ids=[
            "asv_generic-gaussian-phi",
            "asv_generic-gaussian-omega",
            "asv_generic-cauchy-omega",
            "asv_generic-laplace-omega",
            "asv_generic-uniform-omega",
        ],
    )
    def test_closed_forms_beyond_float64_are_domain_errors(self, noise, snr_inv, omega, error):
        with pytest.raises(error):
            _asv(noise, snr_inv, omega)

    def test_fading_penalty_scales_generic(self):
        base = asv_generic(AsvContext(noise=Gaussian(1.0), snr_inv=0.1), 0.4)
        scaled = asv_generic(
            AsvContext(noise=Gaussian(1.0), snr_inv=0.1, fading_penalty=4.0 / math.pi),
            0.4,
        )
        assert scaled == pytest.approx(base * 4.0 / math.pi, rel=1e-14)


#: Models of the reference comparison, on omega up to 1.  Uniform(4.0) has
#: its first characteristic-function zero at 0.907, between two grid points.
REFERENCE_MODELS = [
    Gaussian(1.0),
    Gaussian(3.0),
    Cauchy(1.0),
    Laplace(1.0),
    Uniform(1.0),
    Uniform(4.0),
    ClassA(0.5, 0.1, 1.0),
    ClassA(0.01, 0.001, 1.0),
]


class TestAgainstMpmathReference:
    @pytest.mark.parametrize("snr_inv", [0.0, 0.1])
    @pytest.mark.parametrize("noise", REFERENCE_MODELS, ids=repr)
    def test_relative_error_from_the_origin_to_omega_max(self, noise, snr_inv):
        # log-spaced down to 1e-150, and past it into the underflow of
        # 2 w^2 phi(w)^2 (below about 1e-154), where both evaluators must
        # refuse instead of returning a value that has lost its digits
        ctx = AsvContext(noise=noise, snr_inv=snr_inv)
        omegas = np.geomspace(1e-200, 1.0, 401)
        grid = asv_on_grid(ctx, omegas)
        compared = 0
        for w, on_grid in zip(omegas.tolist(), grid.tolist()):
            reference, denominator = asv_reference(ctx, w)
            if denominator < sys.float_info.min:
                assert on_grid == math.inf, w
                with pytest.raises(DomainError, match="underflow"):
                    asv_generic(ctx, w)
                continue
            compared += 1
            assert abs(asv_generic(ctx, w) / reference - 1) <= 1e-14, w
            assert abs(on_grid / reference - 1) <= 1e-14, w
        assert compared >= 300

    def test_class_a_optimum_is_not_cancellation_noise(self):
        # the small-phase expansion keeps this curve within 4e-5 of 1 on
        # (0, 2 pi / 1263]; a numerator that cancels made a false minimum of
        # 0.646 near w = 1e-8
        ctx = AsvContext(noise=ClassA(0.5, 0.1, 1.0))
        star = omega_star_numeric(ctx.noise, 0.0, 1263.0)
        assert star.clamped and star.omega == 2.0 * math.pi / 1263.0
        reference, _ = asv_reference(ctx, star.omega)
        assert abs(star.asv_at_opt / reference - 1) <= 1e-14

    def test_gaussian_at_origin_optimum_is_not_below_its_infimum(self):
        # the infimum over omega is the variance itself
        assert omega_star_gaussian(1.0, 0.0, 4.0).asv_at_opt >= 1.0


class TestSmallOmegaExpansion:
    def test_zero_kurtosis_is_flat(self):
        assert asv_small_omega(1.7, 0.0, 0.3) == 1.7

    def test_laplace_value(self):
        # kappa = 3: 1 - (1/3)*3*0.1^2 = 0.99
        assert asv_small_omega(1.0, 3.0, 0.1) == pytest.approx(0.99)

    def test_laplace_curvature(self):
        got = (_asv(Laplace(1.0), 0.0, 0.01) - 1.0) / 0.01 ** 2
        assert got == pytest.approx(-1.0, rel=0.02)

    def test_uniform_curvature(self):
        got = (_asv(Uniform(1.0), 0.0, 0.01) - 1.0) / 0.01 ** 2
        assert got == pytest.approx(0.4, rel=0.02)

    def test_remainder_is_higher_order(self):
        # |AsV - quadratic| / w^2 must itself vanish as w -> 0
        omegas = [0.1, 0.05, 0.02, 0.01]
        r = [
            abs(_asv(Laplace(1.0), 0.0, w) - asv_small_omega(1.0, 3.0, w)) / w ** 2
            for w in omegas
        ]
        assert all(a > b for a, b in zip(r, r[1:]))
        assert r[-1] < 0.02 * r[0]


class TestUpperBound:
    def test_zero_snr_large_range_approaches_variance(self):
        assert asv_upper_bound(1.0, 0.0, 1000.0) == pytest.approx(1.0, rel=1e-4)

    def test_assumption_violated(self):
        with pytest.raises(DomainError):
            asv_upper_bound(4.0, 0.1, 4.0)  # (2pi/4)^2 * 4 ~ 9.9 >= 2

    def test_dominates_grid_minimum_smoke(self):
        rng = np.random.default_rng(404)
        checked = 0
        while checked < 20:
            s2 = rng.uniform(0.25, 4.0)
            snr = 10.0 ** rng.uniform(-2.0, 1.0)
            theta_range = rng.uniform(4.0, 50.0)
            if (2.0 * math.pi / theta_range) ** 2 * s2 >= 2.0:
                continue
            checked += 1
            bound = asv_upper_bound(s2, snr, theta_range)
            for model in (Gaussian(s2), Laplace(s2), Uniform(s2)):
                grid = np.linspace(1e-6, 2.0 * math.pi / theta_range, 100_000)
                vals = asv_on_grid(AsvContext(noise=model, snr_inv=snr), grid)
                assert bound >= vals.min() * (1.0 - 1e-9), (model, s2, snr, theta_range)


class TestAmplifyForward:
    def test_no_channel_noise_floor(self):
        assert asv_af(2.0, 1.0, 0.0) == 1.0

    def test_arithmetic(self):
        assert asv_af(2.0, 1.0, 0.1) == pytest.approx(1.25)


class TestLowSnrGaussian:
    def test_is_gaussian_curve_at_inverse_sigma(self):
        for s2, snr in [(1.0, 0.0), (2.0, 0.3), (0.5, 4.0)]:
            assert asv_low_snr_gaussian(s2, snr) == pytest.approx(
                _asv(Gaussian(s2), snr, 1.0 / math.sqrt(s2)), rel=1e-13
            )

    def test_value_at_unit_variance(self):
        assert asv_low_snr_gaussian(1.0, 0.0) == pytest.approx(
            math.e / 2.0 * (1.0 - math.exp(-2.0))
        )
        assert asv_low_snr_gaussian(1.0, 0.0) == pytest.approx(1.175201, abs=1e-6)

    def test_low_snr_argmax(self):
        # the low-snr objective w^2 exp(-s2 w^2) peaks at 1/sigma
        s2 = 2.0
        w = np.linspace(1e-3, 3.0, 200_000)
        obj = w ** 2 * np.exp(-s2 * w ** 2)
        assert w[np.argmax(obj)] == pytest.approx(1.0 / math.sqrt(s2), abs=1e-4)


class TestAppendixCovariance:
    def test_variance_identity(self):
        # v_c + v_s = 1 - phi(w)^2 exactly
        terms = appendix_covariance(Gaussian(1.0), 0.5, 2.0, 10.0, 1.0)
        phi = Gaussian(1.0).cf(0.5)
        assert terms.v_c + terms.v_s == pytest.approx(1.0 - phi ** 2, abs=1e-15)

    def test_composite_equals_generic_on_random_sweep(self):
        rng = np.random.default_rng(88)
        models = [Gaussian(1.0), Laplace(2.0), Uniform(1.5), Cauchy(0.8),
                  ClassA(0.5, 0.2, 2.0)]
        for i in range(50):
            model = models[i % len(models)]
            w = rng.uniform(0.05, 1.2)
            theta = rng.uniform(0.0, 4.0)
            p_t = rng.uniform(1.0, 20.0)
            sv2 = rng.uniform(0.0, 3.0)
            terms = appendix_covariance(model, w, theta, p_t, sv2)
            expected = asv_generic(
                AsvContext(noise=model, snr_inv=sv2 / p_t), w
            )
            assert terms.composite() == pytest.approx(expected, rel=1e-10)

    def test_composite_survives_tangent_singular_angle(self):
        # omega*theta = pi/2 + k*pi, where the tangent form of the gradient
        # is singular: the sin/cos gradients still reproduce the formula
        omega = 0.5
        expected = asv_generic(AsvContext(noise=Gaussian(1.0), snr_inv=0.1), omega)
        for k in range(4):
            theta = (math.pi / 2.0 + k * math.pi) / omega
            terms = appendix_covariance(Gaussian(1.0), omega, theta, 10.0, 1.0)
            assert terms.composite() == pytest.approx(expected, rel=1e-10)

    def test_composite_matches_generic_across_angles(self):
        # a dense sweep of omega*theta over [0, 2*pi], near-singular angles
        # included, for one fixed noise and channel
        ctx = AsvContext(noise=Laplace(1.0), snr_inv=0.1)
        expected = asv_generic(ctx, 0.4)
        for theta in np.linspace(0.0, 2.0 * math.pi / 0.4, 401):
            terms = appendix_covariance(Laplace(1.0), 0.4, theta, 10.0, 1.0)
            assert terms.composite() == pytest.approx(expected, rel=1e-12)


class TestCurveShape:
    def test_blowup_toward_origin_with_channel_noise(self):
        ctx = AsvContext(noise=Gaussian(1.0), snr_inv=0.1)
        curve = sample_curve(ctx, 12.0)
        assert asv_generic(ctx, 1e-6) > 1e6 * curve.values.min()

    def test_kurtosis_sign_rule(self):
        # positive excess kurtosis: interior improvement below the variance;
        # negative: the origin limit is the infimum
        grid = default_omega_grid(12.0)
        for model in (Laplace(1.0), ClassA(0.1, 0.1, 1.0)):
            vals = asv_on_grid(AsvContext(noise=model, snr_inv=0.0), grid)
            assert vals.min() < model.variance()
        vals = asv_on_grid(AsvContext(noise=Uniform(1.0), snr_inv=0.0), grid)
        assert vals.min() >= 1.0 - 1e-6
        assert np.argmin(vals) == 0  # decreasing toward the origin

    def test_uniform_periodic_domination(self):
        # translates by a full lobe never win on the first half-lobe
        # (w*a <= pi/2, where sin(2*w*a) >= 0); together with the blow-up at
        # the lobe edge this is what confines the optimum to the first lobe
        a = math.sqrt(3.0)
        ws = np.linspace(0.05, (math.pi / 2.0) / a, 10)
        for w in ws[:-1]:
            assert _asv(Uniform(1.0), 0.1, w) <= _asv(Uniform(1.0), 0.1, w + math.pi / a)
        # at the last point, w*a = pi/2, the two are equal (sin(2*w*a) = 0)
        # and float64 rounding decides their order: each must match the
        # reference instead
        ctx = AsvContext(noise=Uniform(1.0), snr_inv=0.1)
        for w in (ws[-1], ws[-1] + math.pi / a):
            reference, _ = asv_reference(ctx, w)
            assert _asv(Uniform(1.0), 0.1, w) == pytest.approx(float(reference), rel=1e-14)

    def test_uniform_first_lobe_minimum_is_global(self):
        # the stationary point of the first lobe undercuts everything beyond
        # the pole, even where the pointwise translate comparison flips sign
        from cmest.optimize import omega_star_uniform

        star = omega_star_uniform(4.0, 0.5, 4.0)  # range crosses pi/a
        grid = np.linspace(1e-6, 2.0 * math.pi / 4.0, 400_000)
        vals = asv_on_grid(AsvContext(noise=Uniform(4.0), snr_inv=0.5), grid)
        assert star.asv_at_opt <= vals.min() * (1.0 + 1e-9)

    def test_curve_invariants(self):
        curve = sample_curve(AsvContext(noise=Gaussian(1.0), snr_inv=0.1), 12.0)
        assert np.all(np.diff(curve.omegas) > 0)
        assert np.all(curve.values > 0)
        assert len(curve.omegas) == 2000

    def test_grid_helper_marks_zeros_as_inf(self):
        a = math.sqrt(3.0)
        vals = asv_on_grid(
            AsvContext(noise=Uniform(1.0), snr_inv=0.1),
            np.array([0.5, math.pi / a, 1.0]),
        )
        assert np.isinf(vals[1])
        assert np.isfinite(vals[[0, 2]]).all()
        # toward the origin 1 - phi(2w) keeps its digits: 1 + w^4/6 + O(w^6)
        vals = asv_on_grid(AsvContext(noise=Gaussian(1.0)), np.array([1e-9, 0.5]))
        assert vals[0] == pytest.approx(1.0, rel=1e-15) and np.isfinite(vals[1])


class TestFadingPenalty:
    def test_values(self):
        assert NoFading().penalty() == 1.0
        assert RayleighFading().penalty() == pytest.approx(4.0 / math.pi)
        assert RiceanFading(k_factor=0.0).penalty() == pytest.approx(
            4.0 / math.pi, rel=1e-10
        )
        assert RiceanFading(k_factor=5.0).penalty() == pytest.approx(
            ricean_fading_penalty(5.0), rel=1e-14
        )

    def test_context_validation(self):
        for snr_inv in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="snr_inv must be finite and >= 0"):
                AsvContext(noise=Gaussian(1.0), snr_inv=snr_inv)
        with pytest.raises(ConfigError):
            AsvContext(noise=Gaussian(1.0), fading_penalty=0.5)
