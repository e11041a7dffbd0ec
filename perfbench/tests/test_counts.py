"""Exact-count self-check and the correctness gates of the benchmark."""

import math
from dataclasses import replace

import pytest

from cmest import asv, harness
from cmest.channel import NetworkConfig, RayleighFading, TotalPower
from cmest.harness import ExperimentSpec, Sweep
from cmest.noise import BoundedScales, Cauchy, Gaussian, HeterogeneousScaled

import gates
import workloads


def _net(noise=Gaussian(1.0), fading=None, n_sensors=20):
    net = NetworkConfig(
        n_sensors=n_sensors, theta=2.0, theta_range=12.0, omega=0.4,
        power=TotalPower(10.0), channel_noise_variance=1.0, noise=noise,
    )
    return net if fading is None else replace(net, fading=fading)


SMALL_SPECS = {
    "asv-vs-omega": ExperimentSpec("asv-vs-omega", _net(), Sweep("omega", (0.2, 0.4)), 60, 3),
    "fading-compare": ExperimentSpec(
        "fading-compare", _net(fading=RayleighFading()), Sweep("n_sensors", (10, 30)), 60, 3
    ),
    "af-compare": ExperimentSpec("af-compare", _net(), Sweep("theta", (1.0, 3.0)), 60, 3),
    "cauchy-robustness": ExperimentSpec(
        "cauchy-robustness", _net(Cauchy(1.0)), Sweep("n_sensors", (10, 30, 50)), 60, 3,
        af_nominal_variance=1.0,
    ),
    "heterogeneous-consistency": ExperimentSpec(
        "heterogeneous-consistency",
        _net(HeterogeneousScaled(base=Gaussian(1.0), scale_rule=BoundedScales(1.0))),
        Sweep("n_sensors", (10, 30)), 60, 3,
    ),
}


def _run(spec, label="x"):
    return {f"{label}.{t}": r for t, r in harness.run_kind(spec).items()}


def test_expected_counts_cover_batches_and_single_trial_traces():
    spec = replace(SMALL_SPECS["cauchy-robustness"], trials=5000)
    counts = workloads.expected_sim_counts([("x", spec)])
    assert counts == {
        "points": 4 * 3,
        "trials": 2 * 3 * 5000 + 2 * 3 * 1,
        "sensor_samples": (2 * 5000 + 2 * 1) * (10 + 30 + 50),
        "blocks": 2 * 3 * 2 + 2 * 3 * 1,
    }


def test_fading_trials_give_every_thread_a_block():
    assert workloads.FADING_TRIALS % harness.BLOCK_TRIALS == 0
    assert len(harness._block_sizes(workloads.FADING_TRIALS)) == workloads.NPROC


@pytest.mark.parametrize("specs_for", [
    workloads.phase_sweep_specs, workloads.fading_specs, workloads.af_robustness_specs,
])
def test_workload_counts_do_not_depend_on_the_seed(specs_for):
    assert workloads.expected_sim_counts(specs_for(1)) == workloads.expected_sim_counts(specs_for(99))


@pytest.mark.parametrize("kind", sorted(SMALL_SPECS))
def test_observed_counts_match_expected_counts(kind):
    specs = [("x", SMALL_SPECS[kind])]
    results = _run(SMALL_SPECS[kind])
    expected = workloads.expected_sim_counts(specs)
    observed = gates.observed_sim_counts(specs, results)
    assert set(results) == {f"x.{t}" for t, _, _ in workloads.TRACKS[kind]}
    assert gates.check_counts(expected, observed, "pass") == []


def test_a_lost_trial_fails_the_count_check():
    spec = SMALL_SPECS["asv-vs-omega"]
    results = _run(spec)
    rec = results["x.cm"].records[0]
    results["x.cm"].records[0] = replace(rec, n_trials=rec.n_trials - 1)
    observed = gates.observed_sim_counts([("x", spec)], results)
    failures = gates.check_counts(workloads.expected_sim_counts([("x", spec)]), observed, "p")
    assert failures == ["p: trials = 119, want 120", "p: sensor_samples = 2380, want 2400"]


def _result(spec, nvs, analytic, n_trials=10_000):
    records = [
        harness.SweepRecord(v, n_trials, nv, math.nan, a, 0.0)
        for v, nv, a in zip(spec.sweep.values, nvs, analytic)
    ]
    return harness.ExperimentResult(records=records, metadata={})


def test_analytic_gate_bounds_scale_with_trials():
    assert gates.relative_tolerance(401) == pytest.approx(2 * gates.relative_tolerance(1601))
    # Never the Gaussian-only bound of the records' std_error.
    assert gates.relative_tolerance(1001) > gates.Z_BOUND * math.sqrt(2 / 1000)


def test_analytic_gate_is_two_sided_in_the_asymptotic_regime():
    spec = SMALL_SPECS["asv-vs-omega"]
    tol = gates.relative_tolerance(10_000)
    ok = _result(spec, [1.0 + tol / 2, 1.0 - tol / 2], [1.0, 1.0])
    high = _result(spec, [1.0 + 2 * tol, 1.0], [1.0, 1.0])
    low = _result(spec, [1.0, 1.0 - 2 * tol], [1.0, 1.0])
    assert gates.check_analytic([("x", spec)], {"x.cm": ok}) == []
    assert len(gates.check_analytic([("x", spec)], {"x.cm": high})) == 1
    assert len(gates.check_analytic([("x", spec)], {"x.cm": low})) == 1


def test_analytic_gate_keeps_only_the_lower_bound_near_a_wrap_edge():
    # omega*theta = 0.08 rad with an angle SD of 0.04: two SDs from the edge.
    net = replace(_net(), theta=0.2, n_sensors=100)
    spec = ExperimentSpec("asv-vs-omega", net, Sweep("omega", (0.4,)), 10_000, 3)
    analytic = (0.04 / 0.4) ** 2 * 100
    assert not gates.asymptotic(gates.point_networks(spec)[0], analytic)
    inflated = _result(spec, [10 * analytic], [analytic])
    deflated = _result(spec, [0.5 * analytic], [analytic])
    assert gates.check_analytic([("x", spec)], {"x.cm": inflated}) == []
    assert len(gates.check_analytic([("x", spec)], {"x.cm": deflated})) == 1


def test_analytic_gate_fails_closed():
    spec = SMALL_SPECS["asv-vs-omega"]
    assert gates.check_analytic([("x", spec)], {}) == [
        "x.cm: track missing", "no point was compared with its analytic value"
    ]
    missing = _result(spec, [1.0, 1.0], [math.nan, 1.0])
    assert len(gates.check_analytic([("x", spec)], {"x.cm": missing})) == 1
    # AF under Cauchy noise and the single-trial traces have no reference.
    cauchy = SMALL_SPECS["cauchy-robustness"]
    results = {
        f"x.{t}": _result(cauchy, [1.0] * 3, [math.nan] * 3)
        for t in ("af-batch", "af-trace", "cm-trace")
    }
    results["x.cm-batch"] = _result(cauchy, [0.2] * 3, [1.0] * 3)
    failures = gates.check_analytic([("x", cauchy)], results)
    assert len(failures) == 3 and all(f.startswith("x.cm-batch") for f in failures)
    hetero = SMALL_SPECS["heterogeneous-consistency"]
    nothing = {f"x.{t}": _result(hetero, [1.0] * 2, [math.nan] * 2)
               for t in ("bounded", "linear-growth")}
    assert gates.check_analytic([("x", hetero)], nothing) == [
        "no point was compared with its analytic value"
    ]


def test_identity_gate_names_each_differing_output():
    assert gates.check_identical({"a": "1", "b": "2"}, {"a": "1", "b": "2"}, "p") == []
    assert gates.check_identical({"a": "1", "b": "2"}, {"a": "1", "b": "3"}, "p") == [
        "p: b differs"
    ]
    assert gates.check_identical({"a": "1"}, {"b": "1"}, "p") == [
        "p: outputs differ in their tracks"
    ]


def test_analytic_mix_is_fixed_and_parameters_follow_the_seed():
    def shape(req):
        command, cfg, fmt = req
        grid = "omegas" if "omegas" in cfg else cfg.get("n_points")
        return (command, cfg["noise"]["kind"], cfg.get("fading", {}).get("kind"),
                grid, cfg.get("method"), fmt)

    a, b = workloads.analytic_requests(1), workloads.analytic_requests(2)
    assert workloads.analytic_requests(1) == a
    assert len(a) == 1440 and a != b
    assert sorted(map(shape, a), key=repr) == sorted(map(shape, b), key=repr)
    assert sum(1 for r in a if r[0] == "asv-curve") == 720
    # The CLI's default grid is in the mix, as often as each explicit grid.
    grids = [shape(r)[3] for r in a if r[0] == "asv-curve"]
    assert grids.count(None) == grids.count("omegas") == 240


def test_curve_points_follow_the_cli_default_grid():
    cfg = {"noise": {"kind": "gaussian", "variance": 1.0}, "theta_range": 12.0}
    assert workloads.curve_points(cfg) == len(asv.sample_curve(
        asv.AsvContext(noise=harness.noise_from_dict(cfg["noise"])), 12.0).omegas)


def test_optimizer_csv_is_read_by_its_own_header():
    text = "omega,beta,clamped,at_origin,asv_at_opt,method\n0.5,,0,0,1.25,numeric\n"
    assert gates._parse_opt(text, "csv") == {"omega": 0.5, "asv_at_opt": 1.25}
    with pytest.raises(KeyError):
        gates._parse_opt("w,beta\n0.5,\n", "csv")
