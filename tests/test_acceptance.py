"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE nn PASS/FAIL`` line (run pytest with -s to
watch them stream).  Monte Carlo budgets are sized so the acceptance
tolerances dominate the sampling error by a factor of roughly three; all
seeds are fixed, so outcomes are reproducible bit for bit.
"""

import math
import os

import numpy as np

from cmest import asv, optimize, specfun
from cmest.asv import AsvContext, asv_on_grid
from cmest.channel import (
    NetworkConfig,
    PerSensorPower,
    RayleighFading,
    RiceanFading,
    TotalPower,
    cm_snapshot_batch,
)
from cmest.harness import (
    ExperimentSpec,
    Sweep,
    run_kind,
)
from cmest.noise import Cauchy, Gaussian, HeterogeneousScaled, Laplace, Uniform
from cmest.noise import BoundedScales

from oracles import appendix_covariance
from test_specfun import _kummer_oracle

SEED = 976321
#: Workers for the three largest runs: results do not depend on the thread
#: count (tests/test_harness.py checks that), so they use every core.
ALL_CORES = os.cpu_count() or 1


def _report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {status} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _nv_spec(noise, omegas, *, power, theta_range, n_sensors=500, trials, theta=2.0,
             kind="asv-vs-omega", seed=SEED):
    network = NetworkConfig(
        n_sensors=n_sensors,
        theta=theta,
        theta_range=theta_range,
        omega=omegas[0],
        power=power,
        channel_noise_variance=1.0,
        noise=noise,
    )
    return ExperimentSpec(
        kind=kind,
        network=network,
        sweep=Sweep("omega", tuple(omegas)),
        trials=trials,
        seed=seed,
    )


def test_criterion_01_total_power_analytic_vs_simulation():
    grids = {
        "gaussian": (Gaussian(1.0), np.linspace(0.09, 0.52, 12)),
        "laplace": (Laplace(1.0), np.linspace(0.09, 0.52, 12)),
        "uniform": (Uniform(1.0), np.linspace(0.09, 0.52, 12)),
        "cauchy": (Cauchy(1.0), np.linspace(0.21, 0.52, 12)),
    }
    worst = 0.0
    worst_at = ""
    for name, (noise, omegas) in grids.items():
        spec = _nv_spec(
            noise, omegas, power=TotalPower(10.0), theta_range=12.0, trials=200_000
        )
        result = run_kind(spec, threads=ALL_CORES)["cm"]
        for rec in result.records:
            assert rec.analytic_asv <= 10.0, (name, rec.sweep_value, rec.analytic_asv)
            rel = abs(rec.normalized_variance / rec.analytic_asv - 1.0)
            if rel > worst:
                worst, worst_at = rel, f"{name} @ w={rec.sweep_value:.3f}"
    _report(
        1,
        "normalized variance matches the analytic value within 5% "
        "(total power, L=500, 12 phases x 4 distributions, 2e5 trials)",
        worst <= 0.05,
        f"worst rel dev {worst:.3%} at {worst_at}",
    )


def test_criterion_02_per_sensor_regime_and_small_phase_inflation():
    omegas = np.linspace(0.3, 1.5, 6)
    worst = 0.0
    worst_at = ""
    for name, noise in [
        ("gaussian", Gaussian(1.0)),
        ("laplace", Laplace(1.0)),
        ("uniform", Uniform(1.0)),
        ("cauchy", Cauchy(1.0)),
    ]:
        spec = _nv_spec(
            noise, omegas, power=PerSensorPower(1.0), theta_range=4.0, trials=100_000
        )
        result = run_kind(spec, threads=ALL_CORES)["cm"]
        for rec in result.records:
            rel = abs(rec.normalized_variance / rec.analytic_asv - 1.0)
            if rel > worst:
                worst, worst_at = rel, f"{name} @ w={rec.sweep_value:.2f}"
    ok_match = worst <= 0.05

    # finite-sample inflation: a tiny phase is a bad idea at small L even
    # though the zero-snr objective stays flat there
    spec = _nv_spec(
        Gaussian(1.0), [0.02], power=PerSensorPower(1.0), theta_range=4.0,
        n_sensors=50, trials=20_000,
    )
    rec = run_kind(spec, threads=ALL_CORES)["cm"].records[0]
    inflation = rec.normalized_variance / rec.analytic_asv
    ok_inflation = inflation >= 2.0

    _report(
        2,
        "per-sensor regime matches the zero-snr objective within 5% and "
        "small phases inflate the finite-sample variance by >= 2x",
        ok_match and ok_inflation,
        f"worst rel dev {worst:.3%} at {worst_at}; inflation {inflation:.1f}x",
    )


def test_criterion_03_phase_optimizers_match_grid_oracle():
    rng = np.random.default_rng(SEED)
    cases = []
    for _ in range(50):
        snr = 10.0 ** rng.uniform(-2.0, 1.0)
        s2 = rng.uniform(0.25, 4.0)
        theta_range = rng.uniform(4.0, 50.0)
        cases.append((snr, s2, theta_range))

    solvers = {
        "gaussian": (
            lambda s2, snr, tr: optimize.omega_star_gaussian(s2, snr, tr),
            lambda s2: Gaussian(s2),
        ),
        "cauchy": (
            lambda s2, snr, tr: optimize.omega_star_cauchy(math.sqrt(s2), snr, tr),
            lambda s2: Cauchy(math.sqrt(s2)),
        ),
        "laplace": (
            lambda s2, snr, tr: optimize.omega_star_laplace(s2, snr, tr),
            lambda s2: Laplace(s2),
        ),
        "uniform": (
            lambda s2, snr, tr: optimize.omega_star_uniform(s2, snr, tr),
            lambda s2: Uniform(s2),
        ),
    }
    worst = 0.0
    worst_at = ""
    n_grid = 1_000_000
    for name, (solve, make_noise) in solvers.items():
        for snr, s2, theta_range in cases:
            star = solve(s2, snr, theta_range)
            omega_max = 2.0 * math.pi / theta_range
            grid = np.linspace(omega_max / n_grid, omega_max, n_grid)
            vals = asv_on_grid(AsvContext(make_noise(s2), snr), grid)
            w_grid = grid[int(np.argmin(vals))]
            diff = abs(star.omega - w_grid)
            if diff > worst:
                worst, worst_at = diff, f"{name} snr={snr:.3f} s2={s2:.2f} tr={theta_range:.1f}"
    _report(
        3,
        "closed/semi-closed phase optimizers match a 1e6-point grid argmin "
        "within 1e-4 over a 50-case random sweep",
        worst <= 1e-4,
        f"worst |dw| {worst:.2e} at {worst_at}",
    )


def test_criterion_04_kurtosis_expansion_coefficients():
    lap = (asv.asv_generic(AsvContext(Laplace(1.0)), 0.01) - 1.0) / 0.01 ** 2
    uni = (asv.asv_generic(AsvContext(Uniform(1.0)), 0.01) - 1.0) / 0.01 ** 2
    ok = abs(lap / -1.0 - 1.0) <= 0.02 and abs(uni / 0.4 - 1.0) <= 0.02
    _report(
        4,
        "small-phase curvature matches -kappa*s2^2/3: -1 for Laplace, "
        "+2/5 for uniform, within 2%",
        ok,
        f"laplace {lap:.4f}, uniform {uni:.4f}",
    )


def test_criterion_05_upper_bound_dominates_grid_minimum():
    rng = np.random.default_rng(SEED + 5)
    violations = 0
    checked = 0
    margin = math.inf
    while checked < 100:
        s2 = rng.uniform(0.25, 4.0)
        snr = 10.0 ** rng.uniform(-2.0, 1.0)
        theta_range = rng.uniform(4.0, 50.0)
        if (2.0 * math.pi / theta_range) ** 2 * s2 >= 2.0:
            continue
        checked += 1
        bound = asv.asv_upper_bound(s2, snr, theta_range)
        omega_max = 2.0 * math.pi / theta_range
        grid = np.linspace(omega_max / 200_000, omega_max, 200_000)
        for noise in (Gaussian(s2), Laplace(s2), Uniform(s2)):
            gmin = float(np.min(asv_on_grid(AsvContext(noise, snr), grid)))
            margin = min(margin, bound / gmin)
            if bound < gmin * (1.0 - 1e-9):
                violations += 1
    _report(
        5,
        "distribution-free upper bound dominates the grid minimum for "
        "Gaussian/Laplace/uniform noise on 100 admissible parameter triples",
        violations == 0,
        f"min bound/gridmin ratio {margin:.4f}",
    )


def test_criterion_06_af_level_and_flatness():
    network = NetworkConfig(
        n_sensors=500,
        theta=2.0,
        theta_range=12.0,
        omega=2.0 * math.pi / 12.0,
        power=TotalPower(10.0),
        channel_noise_variance=1.0,
        noise=Gaussian(1.0),
    )
    point_spec = ExperimentSpec(
        kind="af-compare",
        network=network,
        sweep=Sweep("theta", (2.0,)),
        trials=50_000,
        seed=SEED,
    )
    af_point = run_kind(point_spec)["af"].records[0]
    level_dev = abs(af_point.normalized_variance / 1.25 - 1.0)

    size_spec = ExperimentSpec(
        kind="af-compare",
        network=network,
        sweep=Sweep("n_sensors", (50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0)),
        trials=20_000,
        seed=SEED + 6,
    )
    tracks = run_kind(size_spec)
    reg = tracks["af"].metadata["flatness_regression"]
    flat = abs(reg["slope"]) <= 3.0 * reg["stderr"]
    cm_nv = [r.normalized_variance for r in tracks["cm"].records]

    _report(
        6,
        "AF normalized variance hits 1.25 within 5% at L=500 and its "
        "regression slope across L in {50..5000} is statistically zero",
        level_dev <= 0.05 and flat,
        f"level dev {level_dev:.3%}; slope {reg['slope']:.2e} "
        f"(se {reg['stderr']:.2e}); cm L-ends {cm_nv[0]:.3f} -> {cm_nv[-1]:.3f}",
    )


def _fading_ratio(fading, trials=100_000):
    network = NetworkConfig(
        n_sensors=1000,
        theta=2.0,
        theta_range=12.0,
        omega=2.0 * math.pi / 12.0,
        power=TotalPower(10.0),
        channel_noise_variance=1.0,
        noise=Gaussian(1.0),
        fading=fading,
    )
    spec = ExperimentSpec(
        kind="fading-compare",
        network=network,
        sweep=Sweep("n_sensors", (1000.0,)),
        trials=trials,
        seed=SEED + 7,
    )
    tracks = run_kind(spec, threads=ALL_CORES)
    return tracks["faded"].metadata["measured_ratio_by_point"][0]


def test_criterion_07_fading_penalties():
    rayleigh = _fading_ratio(RayleighFading())
    ricean = _fading_ratio(RiceanFading(k_factor=5.0))
    dev_r = abs(rayleigh / (4.0 / math.pi) - 1.0)
    dev_k5 = abs(ricean / specfun.ricean_fading_penalty(5.0) - 1.0)
    _report(
        7,
        "measured fading penalties at L=1000 match 4/pi (Rayleigh) and the "
        "Ricean K=5 expression within 3%",
        dev_r <= 0.03 and dev_k5 <= 0.03,
        f"rayleigh ratio {rayleigh:.4f} (dev {dev_r:.3%}), "
        f"ricean ratio {ricean:.4f} (dev {dev_k5:.3%})",
    )


def test_criterion_08_cauchy_robustness():
    network = NetworkConfig(
        n_sensors=100,
        theta=2.0,
        theta_range=12.0,
        omega=2.0 * math.pi / 12.0,
        power=TotalPower(10.0),
        channel_noise_variance=1.0,
        noise=Cauchy(1.0),
    )
    spec = ExperimentSpec(
        kind="cauchy-robustness",
        network=network,
        sweep=Sweep("n_sensors", (100.0, 1000.0, 10000.0)),
        trials=1500,
        seed=SEED + 8,
        af_nominal_variance=1.0,
    )
    tracks = run_kind(spec)
    med = tracks["cm-batch"].metadata["median_abs_error_by_point"]
    decreasing = med[0] > med[1] > med[2]
    ks = tracks["af-batch"].metadata["ks_af_smallest_vs_largest"]
    _report(
        8,
        "phase-estimator median |error| strictly shrinks across "
        "L in {1e2,1e3,1e4} under Cauchy noise while AF error batches stay "
        "KS-indistinguishable at the 1% level",
        decreasing and ks["pvalue"] > 0.01,
        f"cm medians {med[0]:.4f} > {med[1]:.4f} > {med[2]:.4f}; "
        f"AF KS p={ks['pvalue']:.3f}",
    )


def test_criterion_09_covariance_identity_and_monte_carlo():
    rng = np.random.default_rng(SEED + 9)
    models = [Gaussian(1.0), Laplace(2.0), Uniform(1.5), Cauchy(0.8)]
    worst_identity = 0.0
    for i in range(50):
        model = models[i % len(models)]
        w = rng.uniform(0.05, 1.2)
        theta = rng.uniform(0.0, 4.0)
        p_t = rng.uniform(1.0, 20.0)
        sv2 = rng.uniform(0.0, 3.0)
        terms = appendix_covariance(model, w, theta, p_t, sv2)
        expected = asv.asv_generic(AsvContext(model, sv2 / p_t), w)
        worst_identity = max(
            worst_identity, abs(terms.composite() / expected - 1.0)
        )

    # Monte Carlo covariance of the normalized channel output at L = 2000
    L, trials, w, theta = 2000, 20_000, 0.5, 2.0
    network = NetworkConfig(
        n_sensors=L,
        theta=theta,
        theta_range=12.0,
        omega=w,
        power=TotalPower(10.0),
        channel_noise_variance=1.0,
        noise=Gaussian(1.0),
    )
    sim_rng = np.random.default_rng(SEED + 10)
    z = cm_snapshot_batch(network, trials, sim_rng) / math.sqrt(L)
    pts = math.sqrt(L) * np.stack([z.real - z.real.mean(), z.imag - z.imag.mean()])
    cov = pts @ pts.T / (trials - 1)
    terms = appendix_covariance(Gaussian(1.0), w, theta, 10.0, 1.0)
    expected = np.array(
        [[terms.sigma11, terms.sigma12], [terms.sigma12, terms.sigma22]]
    )
    mc_dev = float(np.max(np.abs(cov - expected) / np.abs(expected)))

    _report(
        9,
        "delta-method composite reproduces the variance formula to 1e-10 and "
        "the simulated output covariance matches (S11,S12,S22) within 5%",
        worst_identity <= 1e-10 and mc_dev <= 0.05,
        f"identity dev {worst_identity:.2e}; covariance dev {mc_dev:.3%}",
    )


def test_criterion_10_special_functions():
    xs = np.concatenate(
        [[-1.0 / math.e], np.linspace(-1.0 / math.e + 1e-9, 10.0, 2000)]
    )
    worst_w = 0.0
    for x in xs:
        w = specfun.lambert_w0(float(x))
        worst_w = max(worst_w, abs(w * math.exp(w) - x) / max(abs(x), 1e-12))
    penalty_dev = abs(specfun.ricean_fading_penalty(0.0) / (4.0 / math.pi) - 1.0)

    rng = np.random.default_rng(SEED + 11)
    worst_f = 0.0
    for _ in range(10):
        a = rng.uniform(0.25, 4.0)
        b = rng.uniform(0.5, 4.0)
        x = rng.uniform(-10.0, 30.0)
        oracle = _kummer_oracle(a, b, x)
        worst_f = max(worst_f, abs(specfun.hyp1f1(a, b, x) / oracle - 1.0))

    _report(
        10,
        "Lambert W identity holds to 1e-12 on [-1/e, 10], the Rayleigh "
        "penalty equals 4/pi to 1e-10, and 1F1 matches the high-precision "
        "series oracle to 1e-10",
        worst_w <= 1e-12 and penalty_dev <= 1e-10 and worst_f <= 1e-10,
        f"W dev {worst_w:.2e}; penalty dev {penalty_dev:.2e}; 1F1 dev {worst_f:.2e}",
    )


def test_criterion_11_heterogeneous_consistency():
    noise = HeterogeneousScaled(Gaussian(1.0), BoundedScales(sigma_max=1.0))
    network = NetworkConfig(
        n_sensors=100,
        theta=2.0,
        theta_range=12.0,
        omega=0.5,
        power=PerSensorPower(1.0),
        channel_noise_variance=1.0,
        noise=noise,
    )
    spec = ExperimentSpec(
        kind="heterogeneous-consistency",
        network=network,
        sweep=Sweep("n_sensors", (100.0, 10000.0)),
        trials=300,
        seed=SEED + 12,
    )
    tracks = run_kind(spec)
    bounded = tracks["bounded"].metadata["mse_by_point"]
    linear = tracks["linear-growth"].metadata["mse_by_point"]
    ok = bounded[1] < 0.05 and linear[1] > 0.5 * linear[0]
    _report(
        11,
        "bounded per-sensor scales keep the estimator consistent "
        "(MSE < 0.05 at L=1e4) while linearly growing scales stall it",
        ok,
        f"bounded mse {bounded[1]:.2e}; linear mse {linear[1]:.2f} vs "
        f"{linear[0]:.2f} at L=1e2",
    )
