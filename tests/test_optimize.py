import math

import mpmath
import numpy as np
import pytest

from cmest import asv, optimize
from cmest.asv import AsvContext, asv_on_grid
from cmest.errors import ConfigError, DomainError
from cmest.noise import Cauchy, ClassA, Gaussian, Laplace, Uniform
from cmest.optimize import (
    omega_star,
    omega_star_cauchy,
    omega_star_gaussian,
    omega_star_laplace,
    omega_star_numeric,
    omega_star_uniform,
)

from oracles import grid_argmin


def _central_second_difference(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / h ** 2


class TestGaussian:
    def test_matches_grid_argmin(self):
        star = omega_star_gaussian(1.0, 0.1, 12.0)
        w_grid, v_grid = grid_argmin(AsvContext(Gaussian(1.0), 0.1), 12.0)
        assert abs(star.omega - w_grid) <= 1e-4
        assert star.asv_at_opt <= v_grid * (1.0 + 1e-9)

    def test_unclamped_case(self):
        # small theta_range leaves room for the interior stationary point
        star = omega_star_gaussian(1.0, 0.1, 4.0)
        assert not star.clamped
        assert star.beta == pytest.approx(0.49498016, rel=1e-6)
        assert star.omega == pytest.approx(math.sqrt(star.beta), rel=1e-9)
        w_grid, _ = grid_argmin(AsvContext(Gaussian(1.0), 0.1), 4.0)
        assert abs(star.omega - w_grid) <= 1e-4

    def test_residual_of_stationarity_equation(self):
        star = omega_star_gaussian(2.0, 0.7, 4.0)
        s1 = 1.7
        beta = star.beta
        assert abs(s1 * (beta - 1.0) * math.exp(2.0 * beta) + beta + 1.0) < 1e-12

    def test_tiny_range_clamps(self):
        star = omega_star_gaussian(1.0, 0.1, 100.0)
        assert star.clamped
        assert star.omega == pytest.approx(2.0 * math.pi / 100.0)

    def test_snr_inv_lost_beside_one_degenerates_to_origin(self):
        # snr_inv + 1 == 1 in float64: the stationarity root is beta = 0 too
        star = omega_star_gaussian(1.0, 1.18e-38, 12.0)
        assert star.at_origin
        assert star.beta == 0.0
        assert star.asv_at_opt == pytest.approx(1.0, rel=1e-4)

    def test_zero_snr_degenerates_to_origin(self):
        star = omega_star_gaussian(1.0, 0.0, 12.0)
        assert star.at_origin
        assert not star.clamped
        assert star.beta == 0.0
        assert star.omega == pytest.approx(1e-3 * 2.0 * math.pi / 12.0)
        # infimum is the sensing variance; the returned point sits just above
        assert star.asv_at_opt == pytest.approx(1.0, rel=1e-4)
        grid = asv.default_omega_grid(12.0)
        vals = asv_on_grid(AsvContext(Gaussian(1.0), 0.0), grid)
        assert star.asv_at_opt <= vals.min() * (1.0 + 1e-9)


class TestCauchy:
    def test_matches_grid_argmin(self):
        star = omega_star_cauchy(1.0, 0.1, 12.0)
        w_grid, _ = grid_argmin(AsvContext(Cauchy(1.0), 0.1), 12.0)
        assert abs(star.omega - w_grid) <= 1e-4

    def test_zero_snr_allowed(self):
        # Lambert argument is exactly -2 e^{-2}, still inside the principal branch
        star = omega_star_cauchy(1.0, 0.0, 4.0)
        assert not star.clamped
        w_grid, _ = grid_argmin(AsvContext(Cauchy(1.0), 0.0), 4.0)
        assert abs(star.omega - w_grid) <= 1e-4

    def test_high_channel_noise_limit(self):
        # snr_inv -> inf pushes the optimum to 1/gamma, the peak of w^2 exp(-2 g w)
        star = omega_star_cauchy(1.0, 1e6, 4.0)
        assert star.omega * 1.0 == pytest.approx(1.0, abs=1e-5)

    def test_scale_equivariance(self):
        a = omega_star_cauchy(1.0, 0.3, 4.0)
        b = omega_star_cauchy(2.0, 0.3, 4.0)
        assert a.omega == pytest.approx(2.0 * b.omega, rel=1e-12)

    def test_clamping(self):
        star = omega_star_cauchy(1.0, 0.1, 12.0)
        assert star.clamped
        assert star.omega == pytest.approx(2.0 * math.pi / 12.0)


class TestLaplace:
    def test_zero_snr_closed_form(self):
        star = omega_star_laplace(1.0, 0.0, 4.0)
        assert star.beta == pytest.approx(0.5, rel=1e-12)
        # beta = b^2 w^2 with b^2 = 1/2 puts the optimum at 1/sigma
        assert star.omega == pytest.approx(1.0, rel=1e-12)
        w_grid, _ = grid_argmin(AsvContext(Laplace(1.0), 0.0), 4.0)
        assert abs(star.omega - w_grid) <= 1e-4

    def test_matches_grid_argmin(self):
        star = omega_star_laplace(1.0, 0.1, 12.0)
        w_grid, _ = grid_argmin(AsvContext(Laplace(1.0), 0.1), 12.0)
        assert abs(star.omega - w_grid) <= 1e-4

    def test_matches_derivative_root(self):
        # independent oracle: bisect the analytic beta-derivative of the
        # variance, written from the quotient rule, no closed form used
        s = 0.1
        b2 = 0.5

        def asv_beta(beta):
            return b2 * (1.0 + beta) ** 2 / (2.0 * beta) * (
                s + 4.0 * beta / (1.0 + 4.0 * beta)
            )

        def deriv(beta, h=1e-7):
            return (asv_beta(beta + h) - asv_beta(beta - h)) / (2.0 * h)

        lo, hi = 1e-3, 5.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if deriv(mid) < 0:
                lo = mid
            else:
                hi = mid
        star = omega_star_laplace(1.0, s, 4.0)
        assert star.beta == pytest.approx(0.5 * (lo + hi), rel=1e-5)


class TestUniform:
    def test_matches_grid_argmin(self):
        star = omega_star_uniform(1.0, 0.1, 12.0)
        w_grid, _ = grid_argmin(AsvContext(Uniform(1.0), 0.1), 12.0)
        assert abs(star.omega - w_grid) <= 1e-4

    def test_low_snr_limit_is_half_pi(self):
        star = omega_star_uniform(1.0, 100.0, 1000.0)
        assert star.beta == pytest.approx(math.pi / 2.0, abs=0.01)

    def test_clamping(self):
        star = omega_star_uniform(1.0, 0.1, 100.0)
        assert star.clamped
        assert star.omega == pytest.approx(2.0 * math.pi / 100.0)

    def test_zero_snr_has_no_interior_root(self):
        # negative excess kurtosis: the variance increases away from the
        # origin, so the stationarity equation has no sign change and the
        # infimum, the noise variance, sits at the origin as for the Gaussian;
        # so does an snr_inv lost beside 1 in float64
        grid = asv.default_omega_grid(12.0)
        for snr_inv in (0.0, 1e-17):
            star = omega_star_uniform(1.0, snr_inv, 12.0)
            assert star.at_origin and not star.clamped
            assert star.beta == 0.0
            assert star.omega == pytest.approx(1e-3 * 2.0 * math.pi / 12.0)
            assert star.asv_at_opt == pytest.approx(1.0, rel=1e-6)
            vals = asv_on_grid(AsvContext(Uniform(1.0), snr_inv), grid)
            assert star.asv_at_opt <= vals.min() * (1.0 + 1e-9)

    @pytest.mark.parametrize("snr_inv", [1.2e-16, *np.geomspace(1e-15, 1e-6, 10).tolist()])
    def test_small_snr_matches_a_fine_grid_oracle(self, snr_inv):
        # toward the origin u(beta)'s terms of order 1 cancel to noise of
        # the size of its 8 snr_inv beta^2 term; the oracle is the variance
        # itself, in 40 digits, on a log grid in beta = w a.  From 1.2e-16
        # up, snr_inv + 1 != 1 in float64.
        star = omega_star_uniform(1.0, snr_inv, 12.0)
        assert not (star.at_origin or star.clamped)
        a = math.sqrt(3.0)
        betas = np.geomspace(1e-5, 0.5, 2001)
        with mpmath.workdps(40):
            s = mpmath.mpf(snr_inv)

            def variance(beta):
                b = mpmath.mpf(beta)
                sinc = lambda x: mpmath.sin(x) / x
                return (s + 1 - sinc(2 * b)) * a ** 2 / (2 * b ** 2 * sinc(b) ** 2)

            values = [variance(b) for b in betas]
            k = min(range(len(values)), key=values.__getitem__)
            assert 0 < k < len(betas) - 1
            assert betas[k - 1] <= star.beta <= betas[k + 1]
            assert star.omega == pytest.approx(star.beta / a, rel=1e-15)
            assert variance(star.beta) <= values[k]
            assert abs(star.asv_at_opt / variance(star.beta) - 1) <= 1e-14

    def test_series_coefficients(self):
        # d_n is the beta^(2n) Taylor coefficient of u at snr_inv = 0
        with mpmath.workdps(60):
            taylor = mpmath.taylor(
                lambda b: (8 * b ** 2 - 1) * mpmath.cos(b)
                + mpmath.cos(3 * b)
                - 4 * b * mpmath.sin(b),
                0,
                16,
            )
            for n, d in zip(range(8, 2, -1), optimize._UNIFORM_SERIES):
                assert d == pytest.approx(float(taylor[2 * n]), rel=1e-15), n
            assert max(abs(c) for c in taylor[:6]) < 1e-40

    def test_roots_above_the_cut_keep_their_bisection(self, monkeypatch):
        # above the cut the bisection reads the sign of u itself, and below
        # it the series has the same sign wherever u's is not noise: a root
        # above the cut is bisected to the same bits as on u
        bisect, found = optimize._bisect, []
        monkeypatch.setattr(
            optimize, "_bisect", lambda f, lo, hi: found.append(bisect(f, lo, hi)) or found[-1]
        )
        for snr_inv in (1e-5, 2e-3, 0.1, 1.0, 10.0):
            star = omega_star_uniform(1.0, snr_inv, 4.0)
            assert star.beta > optimize._UNIFORM_SERIES_CUT
            s1 = snr_inv + 1.0

            def u(beta):
                return (
                    (8.0 * s1 * beta ** 2 - 1.0) * math.cos(beta)
                    + math.cos(3.0 * beta)
                    - 4.0 * beta * math.sin(beta)
                )

            assert found[-1] == bisect(u, 1e-4, math.pi - 1e-9)


class TestAtOrigin:
    @pytest.mark.parametrize("solver", [omega_star_gaussian, omega_star_uniform])
    @pytest.mark.parametrize("theta_range", [1.0, 4.0, 12.0])
    @pytest.mark.parametrize("variance", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12])
    def test_phase_sits_where_sigma_omega_is_small(self, solver, theta_range, variance):
        # the infimum is the noise variance; at 1e-3 * 2 pi / theta_range a
        # large sigma would put the phase far from it (variance 1e9, theta
        # range 12: about 1e125)
        star = solver(variance, 0.0, theta_range)
        assert star.at_origin and not star.clamped
        assert star.omega == min(
            1e-3 * 2.0 * math.pi / theta_range, 1e-3 / math.sqrt(variance)
        )
        assert star.asv_at_opt == pytest.approx(variance, rel=1e-5)


class TestNumericGlobal:
    def test_agrees_with_gaussian_closed_form(self):
        star_closed = omega_star_gaussian(1.0, 0.1, 12.0)
        star_num = omega_star_numeric(Gaussian(1.0), 0.1, 12.0)
        assert abs(star_num.omega - star_closed.omega) <= 1e-4
        assert star_num.method == "grid-global"

    def test_impulsive_boundary_optimum(self):
        # zero background ratio: the variance keeps falling with omega, so the
        # budgeted boundary is optimal no matter the range
        noise = ClassA(overlap=0.1, background_ratio=0.0, variance_=3.0)
        star = omega_star_numeric(noise, 0.1, 12.0)
        assert star.clamped
        assert star.omega == pytest.approx(2.0 * math.pi / 12.0)

    def test_beats_single_start_descent_on_multimodal_curve(self):
        # two local minima; walking downhill from small omega stalls on the
        # worse one
        noise = ClassA(overlap=2.0, background_ratio=0.005, variance_=3.0)
        snr, theta_range = 0.1, 0.6
        star = omega_star_numeric(noise, snr, theta_range)

        ctx = AsvContext(noise=noise, snr_inv=snr)
        grid = np.geomspace(1e-3 * 2.0 * math.pi / theta_range,
                            2.0 * math.pi / theta_range, 10_000)
        vals = asv_on_grid(ctx, grid)
        k = 0
        while k + 1 < len(vals) and vals[k + 1] <= vals[k]:
            k += 1
        local_descent_value = vals[k]
        assert star.asv_at_opt < 0.5 * local_descent_value

    def test_oracle_dominance(self):
        for noise, snr in [
            (Gaussian(1.0), 0.1),
            (Laplace(2.0), 0.5),
            (ClassA(0.5, 0.1, 3.0), 0.1),
        ]:
            star = omega_star_numeric(noise, snr, 12.0)
            w_grid, v_grid = grid_argmin(AsvContext(noise, snr), 12.0, n_points=200_000)
            assert star.asv_at_opt <= v_grid * (1.0 + 1e-9)

    @pytest.mark.parametrize(
        "noise, snr, theta_range",
        [
            (Gaussian(1.0), 0.1, 4.0),
            (Laplace(2.0), 0.5, 4.0),
            (Uniform(1.5), 0.1, 4.0),
            (Cauchy(0.8), 0.1, 4.0),
            (ClassA(0.5, 0.1, 3.0), 0.1, 2.0),
            (ClassA(2.0, 0.005, 3.0), 0.1, 0.6),
        ],
        ids=["gaussian", "laplace", "uniform", "cauchy", "class-a", "class-a-multimodal"],
    )
    def test_scan_and_zoom_beats_the_scan_and_a_fine_grid_at_the_optimum(
        self, monkeypatch, noise, snr, theta_range
    ):
        ctx = AsvContext(noise, snr)
        omega_max = 2.0 * math.pi / theta_range
        grid_sizes = []

        def spy(ctx, omegas):
            grid_sizes.append(len(omegas))
            return asv_on_grid(ctx, omegas)

        monkeypatch.setattr(asv, "asv_on_grid", spy)
        star = omega_star_numeric(noise, snr, theta_range)
        monkeypatch.undo()
        # a few vectorized rounds, not one call per refinement point
        assert len(grid_sizes) <= 12
        assert min(grid_sizes) > 1

        scan = asv_on_grid(ctx, optimize._hybrid_grid(omega_max, 10_000))
        assert star.asv_at_opt <= scan.min()
        # the curve is flat to rounding near its minimum, so a fine grid there
        # samples float64 noise: allow two ulps
        fine = np.linspace(
            star.omega * (1.0 - 1e-6), min(star.omega * (1.0 + 1e-6), omega_max), 10_001
        )
        fine_min = asv_on_grid(ctx, fine).min()
        assert star.asv_at_opt <= fine_min * (1.0 + 2.0 * np.finfo(float).eps)

    def test_no_defined_grid_point_is_a_domain_error(self):
        # phi underflows to 0 on the whole grid, from 1e-6 * 2 pi / theta_range up
        with pytest.raises(DomainError, match="any grid point"):
            omega_star_numeric(ClassA(0.5, 0.1, 1e300), 0.1, 1e-10)


#: Every answer here is checked against the paper's bounds and must pass.
#: Near the origin the distribution-free bound is tight to O(beta^2), so the
#: two largest theta ranges test the check's slack, at_origin answers
#: included.
_BOUNDED_SNR_INV = [0.0, 1e-3, 0.01, 0.1, 0.3, 1.0, 10.0]
_BOUNDED_THETA_RANGES = [4.0, 6.0, 12.0, 30.0, 1e3, 1e6]


class TestDispatch:
    @pytest.mark.parametrize("theta_range", _BOUNDED_THETA_RANGES)
    @pytest.mark.parametrize("snr_inv", _BOUNDED_SNR_INV)
    @pytest.mark.parametrize(
        "noise, solver, param",
        [
            (Gaussian(2.0), omega_star_gaussian, 2.0),
            (Laplace(0.5), omega_star_laplace, 0.5),
            (Uniform(1.5), omega_star_uniform, 1.5),
            (Cauchy(0.8), omega_star_cauchy, 0.8),
        ],
    )
    def test_closed_form_per_noise(self, noise, solver, param, snr_inv, theta_range):
        expected = solver(param, snr_inv, theta_range)
        assert omega_star(noise, snr_inv, theta_range) == expected
        assert omega_star(noise, snr_inv, theta_range, "closed") == expected
        assert omega_star(noise, snr_inv, theta_range, "numeric").method == "grid-global"

    @pytest.mark.parametrize("theta_range", _BOUNDED_THETA_RANGES)
    @pytest.mark.parametrize("snr_inv", _BOUNDED_SNR_INV)
    def test_class_a_scans_and_has_no_closed_form(self, snr_inv, theta_range):
        noise = ClassA(0.5, 0.1, 3.0)
        expected = omega_star_numeric(noise, snr_inv, theta_range)
        assert omega_star(noise, snr_inv, theta_range) == expected
        assert omega_star(noise, snr_inv, theta_range, "numeric") == expected
        with pytest.raises(ConfigError):
            omega_star(noise, snr_inv, theta_range, "closed")

    @pytest.mark.parametrize(
        "noise, snr_inv, theta_range, method, solve, better_omega",
        [
            # the scan's grid starts at 1e-6 * 2 pi / theta_range, where
            # sigma * omega is 52, far past the phase 1/sigma
            (Gaussian(1e14), 0.0, 12.0, "numeric", omega_star_numeric, 1e-7),
            # the at_origin phase is the snr_inv = 0 answer, but there
            # snr_inv / (2 w^2) is 0.13, against 1.3e-7 at 2 pi / theta_range
            (Gaussian(1.0), 1e-17, 1e6, "auto",
             lambda n, *args: omega_star_gaussian(n.variance_, *args), 2.0 * math.pi / 1e6),
            (Uniform(1.0), 1e-17, 1e6, "auto",
             lambda n, *args: omega_star_uniform(n.variance_, *args), 2.0 * math.pi / 1e6),
        ],
        ids=["scan-misses-the-origin", "gaussian-origin", "uniform-origin"],
    )
    def test_answer_above_a_bound_is_a_domain_error(
        self, noise, snr_inv, theta_range, method, solve, better_omega
    ):
        with pytest.raises(DomainError, match="above the paper's bound"):
            omega_star(noise, snr_inv, theta_range, method)
        # the solver's own answer is worse than another phase in range
        star = solve(noise, snr_inv, theta_range)
        better = asv.asv_generic(AsvContext(noise, snr_inv), better_omega)
        assert better < star.asv_at_opt

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            omega_star(Gaussian(1.0), 0.1, 12.0, "bisect")

    def test_solver_looked_up_at_call_time(self, monkeypatch):
        # a rebinding of the module's solver (a tracing wrapper, say) is used
        calls = []
        original = optimize.omega_star_cauchy

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(optimize, "omega_star_cauchy", spy)
        omega_star(Cauchy(2.0), 0.1, 12.0)
        assert calls == [(2.0, 0.1, 12.0)]


class TestOptimalityProperties:
    @pytest.mark.parametrize(
        "star,noise",
        [
            (omega_star_gaussian(1.0, 0.1, 4.0), Gaussian(1.0)),
            (omega_star_cauchy(1.0, 0.1, 4.0), Cauchy(1.0)),
            (omega_star_laplace(1.0, 0.1, 4.0), Laplace(1.0)),
            (omega_star_uniform(1.0, 0.1, 4.0), Uniform(1.0)),
        ],
        ids=["gaussian", "cauchy", "laplace", "uniform"],
    )
    def test_unclamped_optima_have_positive_curvature(self, star, noise):
        def value(w):
            return asv.asv_generic(AsvContext(noise, 0.1), w)

        assert not star.clamped
        h = 1e-4 * star.omega
        first = (value(star.omega + h) - value(star.omega - h)) / (2.0 * h)
        assert abs(first) < 1e-4
        assert _central_second_difference(value, star.omega, h) > 0.0

    def test_clamped_optimum_is_still_descending(self):
        star = omega_star_gaussian(1.0, 0.1, 12.0)
        assert star.clamped
        h = 1e-6
        ctx = AsvContext(Gaussian(1.0), 0.1)
        slope = (asv.asv_generic(ctx, star.omega) - asv.asv_generic(ctx, star.omega - h)) / h
        assert slope <= 0.0

    def test_fading_does_not_move_the_optimum(self):
        # the penalty is a constant factor, so argmins coincide
        grid = asv.default_omega_grid(12.0)
        plain = asv_on_grid(AsvContext(Gaussian(1.0), 0.1), grid)
        faded = asv_on_grid(
            AsvContext(Gaussian(1.0), 0.1, fading_penalty=4.0 / math.pi), grid
        )
        assert np.argmin(plain) == np.argmin(faded)
        np.testing.assert_allclose(faded, plain * 4.0 / math.pi, rtol=1e-12)
