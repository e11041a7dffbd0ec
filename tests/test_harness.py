import json
import math
import sys
import threading
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cmest import asv, harness
from cmest.channel import (
    NetworkConfig,
    PerSensorPower,
    RayleighFading,
    RiceanFading,
    TotalPower,
)
from cmest.errors import ConfigError, DomainError
from cmest.harness import (
    CSV_HEADER,
    ExperimentResult,
    ExperimentSpec,
    Sweep,
    SweepRecord,
    TrialAccumulator,
    check_against_analytic,
    result_to_csv,
    result_to_json,
    run_kind,
    spec_from_dict,
    spec_to_dict,
    write_tracks,
)
from cmest.noise import (
    BoundedScales,
    Cauchy,
    ClassA,
    Gaussian,
    HeterogeneousScaled,
    Laplace,
    LinearGrowthScales,
    Uniform,
)


def _network(**kw):
    defaults = dict(
        n_sensors=200,
        theta=2.0,
        theta_range=12.0,
        omega=0.5,
        power=TotalPower(10.0),
        channel_noise_variance=1.0,
        noise=Gaussian(1.0),
    )
    defaults.update(kw)
    return NetworkConfig(**defaults)


def _spec(**kw):
    defaults = dict(
        kind="asv-vs-omega",
        network=_network(),
        sweep=Sweep("omega", (0.3, 0.5)),
        trials=6000,
        seed=4242,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestTrialAccumulator:
    def test_matches_numpy(self, rng):
        xs = rng.standard_normal(1000) * 3.0 + 1.0
        acc = TrialAccumulator()
        acc.add_batch(xs[:100])
        acc.add_batch(xs[100:])
        assert acc.n == 1000
        assert acc.mean == pytest.approx(xs.mean(), rel=1e-12)
        assert acc.variance == pytest.approx(xs.var(ddof=1), rel=1e-12)
        assert acc.mean_square == pytest.approx(np.mean(xs ** 2), rel=1e-12)

    def test_small_counts(self):
        acc = TrialAccumulator()
        assert math.isnan(acc.variance)
        acc.add_batch(np.array([3.0]))
        assert acc.mean == 3.0
        assert math.isnan(acc.variance)
        acc.add_batch(np.array([]))
        assert acc.n == 1

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3),
            min_size=2,
            max_size=60,
        ),
        st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=200)
    def test_merge_matches_single_pass(self, xs, cut):
        cut = min(cut, len(xs))
        left = TrialAccumulator()
        left.add_batch(np.asarray(xs[:cut]))
        right = TrialAccumulator()
        right.add_batch(np.asarray(xs[cut:]))
        left.merge(right)
        whole = TrialAccumulator()
        whole.add_batch(np.asarray(xs))
        assert left.n == whole.n
        assert left.mean == pytest.approx(whole.mean, rel=1e-10, abs=1e-10)
        assert left.m2 == pytest.approx(whole.m2, rel=1e-10, abs=1e-7)

    def test_merge_order_stability(self, rng):
        chunks = [rng.standard_normal(97) for _ in range(7)]
        a = TrialAccumulator()
        for c in chunks:
            part = TrialAccumulator()
            part.add_batch(c)
            a.merge(part)
        b = TrialAccumulator()
        b.add_batch(np.concatenate(chunks))
        assert a.variance == pytest.approx(b.variance, rel=1e-10)


class TestDeterminism:
    def test_thread_count_does_not_change_results(self):
        spec = _spec(trials=10_000)
        r1 = run_kind(spec, threads=1)["cm"]
        r4 = run_kind(spec, threads=4)["cm"]
        assert r1.records == r4.records
        assert result_to_csv(r1) == result_to_csv(r4)
        assert result_to_json(r1) == result_to_json(r4)

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        spec = _spec(trials=3000)
        paths = []
        for tag in ("a", "b"):
            tracks = run_kind(spec, threads=2)
            paths.extend(write_tracks(tracks, tmp_path / f"{tag}.csv", "csv"))
            write_tracks(tracks, tmp_path / f"{tag}.json", "json")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_different_seeds_differ(self):
        a = run_kind(_spec(seed=1), threads=1)["cm"]
        b = run_kind(_spec(seed=2), threads=1)["cm"]
        assert a.records != b.records


class TestRunExperiment:
    def test_matches_analytic_at_reference_point(self):
        # total power 10, L = 500: the asymptotic regime is well entered
        spec = _spec(
            network=_network(n_sensors=500),
            sweep=Sweep("omega", (2.0 * math.pi / 12.0,)),
            trials=30_000,
        )
        rec = run_kind(spec)["cm"].records[0]
        assert rec.analytic_asv == pytest.approx(1.252478, rel=1e-5)
        assert rec.normalized_variance == pytest.approx(rec.analytic_asv, rel=0.05)

    def test_noiseless_network_has_negligible_variance(self):
        spec = _spec(
            network=_network(
                noise=Gaussian(1e-12), channel_noise_variance=0.0, n_sensors=100
            ),
            sweep=Sweep("omega", (0.5,)),
            trials=2000,
        )
        rec = run_kind(spec)["cm"].records[0]
        assert rec.normalized_variance < 1e-6

    def test_per_sensor_mode_reports_zero_snr_asymptote(self):
        spec = _spec(
            network=_network(power=PerSensorPower(1.0)),
            sweep=Sweep("omega", (0.4,)),
            trials=1000,
        )
        rec = run_kind(spec)["cm"].records[0]
        assert rec.analytic_asv == pytest.approx(
            asv.asv_generic(asv.AsvContext(Gaussian(1.0), 0.0), 0.4), rel=1e-12
        )

    def test_kind_and_sweep_must_agree(self):
        with pytest.raises(ConfigError):
            run_kind(_spec(kind="var-vs-L"))

    def test_trials_cap(self):
        # the engine's per-block bookkeeping bounds the trials of a point
        assert _spec(trials=2 ** 30).trials == 2 ** 30
        for trials in (0, 2 ** 30 + 1, 10 ** 400):
            with pytest.raises(ConfigError, match=r"trials must lie in \[1, 2\*\*30\]"):
                _spec(trials=trials)

    def test_invalid_sweep_value_propagates_config_error(self):
        spec = _spec(sweep=Sweep("omega", (0.3, 100.0)))  # beyond 2*pi/theta_range
        with pytest.raises(ConfigError):
            run_kind(spec)

    def test_standard_errors_are_honest(self):
        # across seeds, the analytic value should sit inside +-3 SE nearly
        # always; the tolerance matches a ~99.7% interval with slack
        spec_base = _spec(
            network=_network(n_sensors=500),
            sweep=Sweep("omega", (0.5,)),
            trials=800,
        )
        hits = 0
        for seed in range(100):
            rec = run_kind(replace(spec_base, seed=seed))["cm"].records[0]
            if abs(rec.normalized_variance - rec.analytic_asv) <= 3.0 * rec.std_error:
                hits += 1
        assert hits >= 99


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_degenerate_point_has_nan_bias(self):
        # scale 1e305 at L = 50000: every trial has an overflowing draw, so no
        # finite estimate is left and the point has no bias to report
        spec = _spec(
            network=_network(noise=Cauchy(1e305), n_sensors=50_000),
            sweep=Sweep("omega", (0.5,)),
            trials=4,
        )
        result = run_kind(spec)["cm"]
        rec = result.records[0]
        assert rec.n_trials == 0
        assert result.metadata["degenerate_trials"] == [4]
        assert math.isnan(rec.bias)
        assert result_to_csv(result).split("\n")[1].endswith(",nan")


def _tiny_spec(kind):
    """A two-point spec of ``kind`` at tiny trials."""
    if kind == "asv-vs-omega":
        return _spec(trials=5)
    network = _network()
    if kind == "fading-compare":
        network = _network(fading=RayleighFading())
    elif kind == "heterogeneous-consistency":
        noise = HeterogeneousScaled(Gaussian(1.0), BoundedScales(1.0))
        network = _network(noise=noise, power=PerSensorPower(1.0))
    parameter = "theta" if kind == "af-compare" else "n_sensors"
    values = (1.0, 3.0) if kind == "af-compare" else (20.0, 40.0)
    return _spec(kind=kind, network=network, sweep=Sweep(parameter, values), trials=5)


@pytest.mark.parametrize(
    "kind, labels",
    [
        ("asv-vs-omega", ["cm"]),
        ("var-vs-L", ["cm"]),
        ("fading-compare", ["faded", "unfaded"]),
        ("af-compare", ["cm", "af"]),
        ("cauchy-robustness", ["cm-batch", "af-batch", "cm-trace", "af-trace"]),
        ("heterogeneous-consistency", ["bounded", "linear-growth"]),
    ],
)
def test_every_kind_shares_the_track_metadata(kind, labels):
    spec = _tiny_spec(kind)
    tracks = run_kind(spec)
    assert list(tracks) == labels
    for label, result in tracks.items():
        meta = result.metadata
        assert {"kind", "track", "seed", "spec", "version"} <= set(meta)
        assert (meta["kind"], meta["track"], meta["seed"]) == (kind, label, spec.seed)
        assert meta["spec"] == spec_to_dict(spec)
        assert len(meta["degenerate_trials"]) == len(result.records) == 2


def test_kind_rejects_a_sweep_it_does_not_run():
    spec = _spec(kind="cauchy-robustness", af_nominal_variance=1.0)  # an omega sweep
    with pytest.raises(ConfigError):
        run_kind(spec)


class TestWorkPool:
    @pytest.mark.parametrize("kind", sorted(harness._KINDS) + ["many-units"])
    def test_outputs_do_not_depend_on_threads(self, kind):
        if kind == "many-units":  # more units than the window at four threads
            omegas = tuple(np.linspace(0.1, 0.5, 12))
            spec = _spec(network=_network(n_sensors=20), sweep=Sweep("omega", omegas))
            assert 2 * len(omegas) > harness._UNITS_PER_WORKER * 4
        else:
            spec = _tiny_spec(kind)
        # two blocks per batch point, the second one partial
        spec = replace(spec, trials=harness.BLOCK_TRIALS + 7)
        rendered = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the workers as often as possible
        try:
            for threads in (1, 2, 4):
                tracks = run_kind(spec, threads=threads)
                rendered[threads] = {
                    (label, fmt): harness.render(result, fmt)
                    for label, result in tracks.items()
                    for fmt in ("csv", "json")
                }
        finally:
            sys.setswitchinterval(interval)
        assert rendered[2] == rendered[1]
        assert rendered[4] == rendered[1]

    def test_blocks_of_different_points_run_together(self, monkeypatch):
        spec = _spec(trials=50)  # two omega points, one block each
        expected = result_to_csv(run_kind(spec)["cm"])
        barrier = threading.Barrier(2, timeout=5)
        original = harness.cm_snapshot_batch

        def meet(config, n_trials, rng):
            barrier.wait()  # breaks unless both points' blocks are in flight
            return original(config, n_trials, rng)

        monkeypatch.setattr(harness, "cm_snapshot_batch", meet)
        assert result_to_csv(run_kind(spec, threads=2)["cm"]) == expected

    def test_pool_is_capped_at_the_number_of_units(self, monkeypatch):
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures):
                pass

        spec = _spec(sweep=Sweep("omega", (0.3, 0.4, 0.5)), trials=5)
        expected = result_to_csv(run_kind(spec)["cm"])
        monkeypatch.setattr(harness, "ThreadPoolExecutor", SerialPool)
        assert result_to_csv(run_kind(spec, threads=64)["cm"]) == expected
        assert seen == [3]

    def test_error_drops_the_queued_units(self, monkeypatch):
        # the error function raises on the first point's block
        omegas = tuple(np.linspace(0.2, 0.5, 64))
        spec = _spec(sweep=Sweep("omega", omegas), trials=2000)
        calls = []
        original = harness._cm_errors

        def failing(config, n, rng):
            calls.append(config.omega)
            if config.omega == omegas[0]:
                raise DomainError("first point")
            return original(config, n, rng)

        monkeypatch.setattr(harness, "_cm_errors", failing)
        with pytest.raises(DomainError, match="first point"):
            run_kind(spec, threads=2)
        assert len(calls) < len(omegas)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_bookkeeping_does_not_grow_with_trials(self, monkeypatch, threads):
        # with free blocks, what is left is the engine's own memory
        monkeypatch.setattr(harness, "_cm_errors", lambda config, n, rng: np.zeros(n))
        peaks = []
        for trials in (2 ** 20, 2 ** 24):
            spec = _spec(sweep=Sweep("omega", (0.5,)), trials=trials)
            tracemalloc.start()
            try:
                run_kind(spec, threads=threads)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]

    @pytest.mark.parametrize("threads", [0, -2, True, 1.5, "2"])
    def test_threads_must_be_a_positive_integer(self, threads):
        with pytest.raises(ConfigError):
            run_kind(_spec(trials=5), threads=threads)


class TestFadingCompare:
    def test_ratio_tracks_penalty(self):
        spec = _spec(
            kind="fading-compare",
            network=_network(n_sensors=500, fading=RayleighFading()),
            sweep=Sweep("n_sensors", (500.0,)),
            trials=20_000,
        )
        tracks = run_kind(spec)
        ratio = tracks["faded"].metadata["measured_ratio_by_point"][0]
        assert ratio == pytest.approx(4.0 / math.pi, rel=0.1)
        assert tracks["faded"].metadata["fading_penalty"] == pytest.approx(4 / math.pi)
        assert tracks["faded"].records[0].analytic_asv == pytest.approx(
            tracks["unfaded"].records[0].analytic_asv * 4.0 / math.pi, rel=1e-12
        )

    def test_zero_unfaded_variance_gives_no_ratio(self):
        # float32 sin of a phase this small is 0, so every estimate is equal:
        # the ratio used to raise ZeroDivisionError
        spec = _spec(
            kind="fading-compare",
            network=_network(
                omega=4.9e-114, channel_noise_variance=0.0, fading=RayleighFading()
            ),
            sweep=Sweep("theta", (2.0,)),
            trials=3,
        )
        tracks = run_kind(spec)
        assert tracks["unfaded"].records[0].normalized_variance == 0.0
        assert math.isnan(tracks["faded"].metadata["measured_ratio_by_point"][0])

    def test_requires_fading_model(self):
        with pytest.raises(ConfigError):
            run_kind(_spec(kind="fading-compare",
                                     sweep=Sweep("n_sensors", (100.0,))))


class TestAfCompare:
    def test_crossover_in_theta(self):
        # the phase scheme wins near the top of the range, AF wins near zero
        spec = _spec(
            kind="af-compare",
            network=_network(n_sensors=500, omega=2.0 * math.pi / 12.0),
            sweep=Sweep("theta", (0.25, 11.5)),
            trials=20_000,
        )
        tracks = run_kind(spec)
        cm = tracks["cm"].records
        af = tracks["af"].records
        assert af[0].normalized_variance < cm[0].normalized_variance
        assert cm[1].normalized_variance < af[1].normalized_variance
        # AF analytic value depends on theta
        assert af[0].analytic_asv == pytest.approx(asv.asv_af(0.25, 1.0, 0.1))
        assert af[1].analytic_asv == pytest.approx(asv.asv_af(11.5, 1.0, 0.1))

    def test_flatness_metadata_on_size_sweep(self):
        spec = _spec(
            kind="af-compare",
            sweep=Sweep("n_sensors", (50.0, 100.0, 200.0, 500.0)),
            trials=5000,
        )
        tracks = run_kind(spec)
        reg = tracks["af"].metadata["flatness_regression"]
        assert abs(reg["slope"]) <= 4.0 * reg["stderr"]

    def test_no_flatness_regression_on_one_size(self):
        # three points at one L have no slope to fit
        spec = _spec(
            kind="af-compare",
            sweep=Sweep("n_sensors", (50.0, 50.0, 50.0)),
            trials=20,
        )
        assert "flatness_regression" not in run_kind(spec)["af"].metadata

    @pytest.mark.parametrize("kind", ["af-compare", "cauchy-robustness"])
    @pytest.mark.parametrize(
        "network, message",
        [
            (dict(power=PerSensorPower(1.0)), "defined under a total power budget"),
            (dict(fading=RayleighFading()), "fading is not modeled for the AF baseline"),
        ],
        ids=["per-sensor-power", "fading"],
    )
    def test_misconfigured_af_track_fails_before_any_block(
        self, monkeypatch, kind, network, message
    ):
        # checked as the plans are built, before the CM track's first block
        calls = []

        def spy(original):
            def fn(*args, **kwargs):
                calls.append(original.__name__)
                return original(*args, **kwargs)

            return fn

        for name in ("cm_snapshot_batch", "af_snapshot_batch"):
            monkeypatch.setattr(harness, name, spy(getattr(harness, name)))
        spec = _spec(
            kind=kind,
            network=_network(**network),
            sweep=Sweep("n_sensors", (100.0, 200.0)),
            af_nominal_variance=1.0,
        )
        with pytest.raises(ConfigError, match=message):
            run_kind(spec)
        assert calls == []

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_nominal_variance_must_be_positive(self, value):
        d = spec_to_dict(_spec(kind="af-compare", sweep=Sweep("theta", (2.0,))))
        d["af_nominal_variance"] = value
        with pytest.raises(ConfigError, match="nominal variance must be > 0 for AF gain"):
            spec_from_dict(d)

    def test_infinite_variance_needs_explicit_nominal(self):
        spec = _spec(
            kind="af-compare",
            network=_network(noise=Cauchy(1.0)),
            sweep=Sweep("theta", (2.0,)),
        )
        with pytest.raises(ConfigError):
            run_kind(spec)


@pytest.fixture(scope="module")
def robustness_tracks():
    spec = _spec(
        kind="cauchy-robustness",
        network=_network(noise=Cauchy(1.0), omega=2.0 * math.pi / 12.0),
        sweep=Sweep("n_sensors", (100.0, 1000.0, 10000.0)),
        trials=400,
        af_nominal_variance=1.0,
    )
    return run_kind(spec)


class TestCauchyRobustness:

    def test_track_layout(self, robustness_tracks):
        tracks = robustness_tracks
        assert set(tracks) == {"cm-batch", "af-batch", "cm-trace", "af-trace"}
        for t in tracks.values():
            assert len(t.records) == 3
        assert tracks["cm-trace"].records[0].n_trials == 1

    def test_cm_median_shrinks_af_does_not(self, robustness_tracks):
        cm_med = robustness_tracks["cm-batch"].metadata["median_abs_error_by_point"]
        af_med = robustness_tracks["af-batch"].metadata["median_abs_error_by_point"]
        assert cm_med[0] > cm_med[1] > cm_med[2]
        assert af_med[2] > 0.25 * af_med[0]  # stuck at the sensing-noise scale

    def test_ks_metadata(self, robustness_tracks):
        ks = robustness_tracks["af-batch"].metadata["ks_af_smallest_vs_largest"]
        assert ks["pvalue"] > 0.01

    def test_seed_replay(self):
        spec = _spec(
            kind="cauchy-robustness",
            network=_network(noise=Cauchy(1.0)),
            sweep=Sweep("n_sensors", (100.0, 1000.0)),
            trials=50,
            af_nominal_variance=1.0,
        )
        a = run_kind(spec)
        b = run_kind(spec)
        for key in a:
            # NaN-tolerant comparison: replayed files must be byte-identical
            assert result_to_csv(a[key]) == result_to_csv(b[key])
            assert result_to_json(a[key]) == result_to_json(b[key])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_degenerate_trials_counted_on_every_track(self):
        # scale 1e305: a few draws per trial overflow to inf, so some trials
        # give non-finite estimates; they were dropped without a count
        spec = _spec(
            kind="cauchy-robustness",
            network=_network(noise=Cauchy(1e305)),
            sweep=Sweep("n_sensors", (100.0, 200.0)),
            trials=400,
            af_nominal_variance=1.0,
        )
        tracks = run_kind(spec)
        for label, result in tracks.items():
            degenerate = result.metadata["degenerate_trials"]
            trials = 1 if label.endswith("trace") else 400
            assert [r.n_trials + d for r, d in zip(result.records, degenerate)] == [
                trials, trials
            ]
        assert sum(tracks["cm-batch"].metadata["degenerate_trials"]) > 0
        assert sum(tracks["af-batch"].metadata["degenerate_trials"]) > 0


class TestHeterogeneousConsistency:
    def test_tracks_and_mse(self):
        noise = HeterogeneousScaled(Gaussian(1.0), BoundedScales(1.0))
        spec = _spec(
            kind="heterogeneous-consistency",
            network=_network(noise=noise, power=PerSensorPower(1.0)),
            sweep=Sweep("n_sensors", (100.0, 1000.0)),
            trials=300,
        )
        tracks = run_kind(spec)
        assert set(tracks) == {"bounded", "linear-growth"}
        bounded = tracks["bounded"].metadata["mse_by_point"]
        linear = tracks["linear-growth"].metadata["mse_by_point"]
        assert bounded[1] < bounded[0] < 0.05
        assert linear[1] > 10.0 * bounded[1]  # the stalled track stays high
        for result in tracks.values():
            assert result.metadata["degenerate_trials"] == [0, 0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_degenerate_trials_counted_on_both_tracks(self):
        # scale 1e305: some draws overflow to inf and their trials are dropped
        noise = HeterogeneousScaled(Cauchy(1e305), BoundedScales(1.0))
        spec = _spec(
            kind="heterogeneous-consistency",
            network=_network(noise=noise, power=PerSensorPower(1.0)),
            sweep=Sweep("n_sensors", (100.0, 200.0)),
            trials=400,
        )
        for result in run_kind(spec).values():
            degenerate = result.metadata["degenerate_trials"]
            assert [r.n_trials + d for r, d in zip(result.records, degenerate)] == [
                400, 400
            ]
            assert sum(degenerate) > 0

    def test_requires_heterogeneous_noise(self):
        spec = _spec(
            kind="heterogeneous-consistency",
            sweep=Sweep("n_sensors", (100.0,)),
        )
        with pytest.raises(ConfigError):
            run_kind(spec)


class TestSerialization:
    def test_csv_schema(self):
        result = run_kind(_spec(trials=100))["cm"]
        text = result_to_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == (
            "sweep_value,n_trials,normalized_variance,std_error,analytic_asv,bias"
        )
        assert len(lines) == 1 + 2
        first = lines[1].split(",")
        assert len(first) == 6
        assert float(first[0]) == 0.3
        assert int(first[1]) == 100

    def test_json_round_trip(self):
        result = run_kind(_spec(trials=100))["cm"]
        payload = json.loads(result_to_json(result))
        assert payload["metadata"]["seed"] == 4242
        assert payload["metadata"]["version"]
        assert len(payload["records"]) == 2
        assert set(payload["records"][0]) == {
            "sweep_value",
            "n_trials",
            "normalized_variance",
            "std_error",
            "analytic_asv",
            "bias",
        }
        # spec echo reconstructs the exact spec
        rebuilt = spec_from_dict(payload["metadata"]["spec"])
        assert rebuilt == _spec(trials=100)

    def test_non_finite_maps_to_null_in_json(self):
        spec = _spec(
            kind="cauchy-robustness",
            network=_network(noise=Cauchy(1.0)),
            sweep=Sweep("n_sensors", (100.0,)),
            trials=20,
            af_nominal_variance=1.0,
        )
        tracks = run_kind(spec)
        payload = json.loads(result_to_json(tracks["af-trace"]))
        assert payload["records"][0]["normalized_variance"] is None

    def test_track_file_naming(self, tmp_path):
        spec = _spec(
            kind="fading-compare",
            network=_network(fading=RayleighFading()),
            sweep=Sweep("n_sensors", (100.0,)),
            trials=200,
        )
        tracks = run_kind(spec)
        paths = write_tracks(tracks, tmp_path / "out.csv", "csv")
        names = sorted(p.name for p in paths)
        assert names == ["out.faded.csv", "out.unfaded.csv"]

    def test_spec_dict_round_trip_all_models(self):
        for noise in [
            Gaussian(1.5),
            Laplace(0.5),
            Cauchy(0.5),
            Uniform(2.0),
            ClassA(0.5, 0.1, 3.0),
            HeterogeneousScaled(Gaussian(1.0), BoundedScales(2.0)),
            HeterogeneousScaled(Laplace(1.0), LinearGrowthScales(0.5)),
        ]:
            spec = _spec(network=_network(noise=noise))
            assert spec_from_dict(spec_to_dict(spec)) == spec
        for fading in (RayleighFading(), RiceanFading(5.0)):
            spec = _spec(network=_network(fading=fading))
            assert spec_from_dict(spec_to_dict(spec)) == spec
        spec = _spec(
            kind="af-compare",
            network=_network(power=PerSensorPower(2.0)),
            sweep=Sweep("theta", (1.0,)),
            af_nominal_variance=1.0,
        )
        d = spec_to_dict(spec)
        assert d["network"]["power"] == {"mode": "per-sensor", "rho": 2.0}
        assert d["af_nominal_variance"] == 1.0
        assert spec_from_dict(d) == spec

    def test_schema_of_written_spec(self):
        noise = HeterogeneousScaled(Gaussian(1.0), BoundedScales(2.0))
        d = spec_to_dict(_spec(network=_network(noise=noise)))
        assert "af_nominal_variance" not in d
        assert d["network"]["fading"] == {"kind": "none"}
        assert d["network"]["noise"] == {
            "kind": "heterogeneous",
            "base": {"kind": "gaussian", "variance": 1.0},
            "rule": {"kind": "bounded", "sigma_max": 2.0},
        }

    @pytest.mark.parametrize(
        "path, value",
        [
            (("network", "noise"), {"kind": "gaussian"}),  # missing key
            (("network", "noise"), {"kind": "pareto", "variance": 1.0}),
            (("network", "noise", "rule"), {"kind": "bounded", "sigma": 1.0}),
            (("network", "power"), {"mode": "total"}),
            (("network", "fading"), {"kind": "ricean"}),
            (("network", "fading"), "rayleigh"),  # not a mapping
            (("sweep",), {"parameter": "omega"}),
        ],
    )
    def test_registry_rejects_malformed_dicts(self, path, value):
        noise = HeterogeneousScaled(Gaussian(1.0), BoundedScales(2.0))
        d = spec_to_dict(_spec(network=_network(noise=noise)))
        *parents, key = path
        target = d
        for p in parents:
            target = target[p]
        target[key] = value
        with pytest.raises(ConfigError):
            spec_from_dict(d)

    def test_unknown_keys_rejected(self):
        d = spec_to_dict(_spec())
        d["network"]["bogus"] = 1
        with pytest.raises(ConfigError):
            spec_from_dict(d)

    def test_wall_time_not_serialized(self):
        result = run_kind(_spec(trials=100))["cm"]
        assert "wall_time" not in result_to_json(result)


class TestCheck:
    def test_detects_mismatch(self):
        result = run_kind(_spec(network=_network(n_sensors=500), trials=5000))["cm"]
        assert check_against_analytic(result, tolerance=0.2) == ([], 2)
        failures, compared = check_against_analytic(result, tolerance=1e-9)
        assert failures and {"sweep_value", "relative_deviation"} <= set(failures[0])
        assert compared == 2

    def test_point_without_finite_trials_fails(self):
        # theory has a value and 400 trials were drawn, but none is finite
        records = [
            SweepRecord(0.3, 0, math.nan, math.nan, 1.2, 0.0),
            SweepRecord(0.5, 0, math.nan, math.nan, math.nan, 0.0),
        ]
        result = ExperimentResult(
            records=records, metadata={"degenerate_trials": [400, 400]}
        )
        failures, compared = check_against_analytic(result, tolerance=0.5)
        assert [(f["sweep_value"], f["n_trials"]) for f in failures] == [(0.3, 0)]
        assert compared == 0

    def test_single_draw_point_is_not_compared(self):
        # a one-trial trace (as in cauchy-robustness) has no variance whether
        # its draw came out finite or degenerate: same verdict either way
        records = [
            SweepRecord(100.0, 1, math.nan, math.nan, 1.2, 0.3),
            SweepRecord(200.0, 0, math.nan, math.nan, 1.2, 0.0),
        ]
        result = ExperimentResult(
            records=records, metadata={"degenerate_trials": [0, 1]}
        )
        assert check_against_analytic(result, tolerance=0.5) == ([], 0)

    def test_zero_analytic_value_fails(self):
        # at omega 3.8e-89, 1 - phi(2*omega) cancels to 0 and so does the
        # theory value: the check used to raise ZeroDivisionError
        records = [
            SweepRecord(4.0, 3, 0.0, 0.0, 0.0, 0.0),
            SweepRecord(5.0, 3, 1.0, 0.1, 0.0, 0.0),
        ]
        result = ExperimentResult(records=records, metadata={})
        failures, compared = check_against_analytic(result, tolerance=0.5)
        assert [f["relative_deviation"] for f in failures] == [math.inf, math.inf]
        assert compared == 2



class TestFigureStatistics:
    """The flatness regression and KS test against scipy.stats, a test-only
    reference: equal bits where the arithmetic is shared."""

    def test_linear_fit_keeps_linregress_bits(self):
        rng = np.random.default_rng(20261018)
        for _ in range(300):
            n = int(rng.integers(3, 13))
            x = rng.choice(np.arange(10.0, 10_000.0), n, replace=False)
            y = rng.normal(1.0, 0.05, n) + rng.normal() * 1e-5 * x
            ref = stats.linregress(x, y)
            slope, stderr, pvalue = harness._linear_fit(list(x), list(y))
            assert (slope, stderr) == (float(ref.slope), float(ref.stderr))
            assert pvalue == pytest.approx(float(ref.pvalue), rel=1e-12)

    def test_linear_fit_exact_and_flat_lines(self):
        x = [1.0, 2.0, 4.0, 8.0]
        ref = stats.linregress(x, [3.0, 5.0, 9.0, 17.0])
        slope, stderr, pvalue = harness._linear_fit(x, [3.0, 5.0, 9.0, 17.0])
        assert (slope, stderr) == (float(ref.slope), float(ref.stderr))
        assert pvalue == pytest.approx(float(ref.pvalue), rel=1e-12, abs=1e-300)
        slope, stderr, pvalue = harness._linear_fit(x, [2.0] * 4)  # r undefined
        assert slope == 0.0 and math.isnan(stderr) and math.isnan(pvalue)

    @pytest.mark.parametrize("n", [5, 6, 7, 10, 31, 100, 1000, 4096, 10_000])
    def test_ks_keeps_ks_2samp_bits_at_equal_sizes(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.standard_cauchy(n), rng.standard_cauchy(n)
        cases = [
            (a, b),
            (a, b + 0.3),
            (np.round(a), np.round(b)),  # ties within and across samples
            (a, a[::-1].copy()),  # no gap at all: h == 0
        ]
        for x, y in cases:
            ref = stats.ks_2samp(x, y)
            got = harness._ks_two_sample(x, y)
            assert got == (float(ref.statistic), float(ref.pvalue))

    @pytest.mark.parametrize(
        "n1, n2", [(5, 7), (10, 3), (30, 31), (200, 150), (1000, 999)]
    )
    def test_ks_unequal_sizes_count_paths_exactly(self, n1, n2):
        # both sides are one minus the fraction of paths inside the band
        rng = np.random.default_rng(n1 * n2)
        for shift in (0.0, 0.5):
            a, b = rng.standard_cauchy(n1), rng.standard_cauchy(n2) + shift
            ref = stats.ks_2samp(a, b, method="exact")
            statistic, pvalue = harness._ks_two_sample(a, b)
            assert statistic == float(ref.statistic)
            assert pvalue == pytest.approx(float(ref.pvalue), rel=1e-12, abs=2e-15)

    def test_ks_empty_sample_is_nan(self):
        statistic, pvalue = harness._ks_two_sample(np.array([]), np.array([1.0]))
        assert math.isnan(statistic) and math.isnan(pvalue)
