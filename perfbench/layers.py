"""Per-layer metrics of cmest from spans around its public entry points.

The wrappers are installed from here, outside ``src/``: each binding of an
entry point in the cmest modules is replaced for the traced pass and put
back afterwards.  Layers are the package's modules.
"""

from typing import Dict, List, Sequence

from cmest import asv, channel, cli, estimators, harness, noise, optimize, presets, specfun

from spans import Span, Tracer, self_times

MODULES = (asv, channel, cli, estimators, harness, noise, optimize, presets, specfun)


def _prod(size) -> int:
    if isinstance(size, int):
        return size
    out = 1
    for s in size:
        out *= int(s)
    return out


def _sensors_work(a, k, r):  # sample_sensors(self, rng, n_trials, n_sensors)
    return a[2] * a[3]


def _cm_batch_work(a, k, r):  # cm_snapshot_batch(config, n_trials, rng)
    return a[1] * a[0].n_sensors


def _af_batch_work(a, k, r):  # af_snapshot_batch(config, nominal, rng, n_trials=1)
    n = a[3] if len(a) > 3 else k.get("n_trials", 1)
    return n * a[0].n_sensors


def _len_first(a, k, r):
    return len(a[0])


def _len_second(a, k, r):
    return len(a[1])


def _len_result(a, k, r):
    return len(r.encode())


def _grid_evals(a, k, r):
    return len(r)


#: (span name, function) pairs wrapped wherever a cmest module binds them.
FUNCTIONS = (
    ("channel.cm_snapshot_batch", channel.cm_snapshot_batch, _cm_batch_work),
    ("channel.af_snapshot_batch", channel.af_snapshot_batch, _af_batch_work),
    ("estimators.cm_estimates", estimators.cm_estimates, _len_first),
    ("estimators.af_estimates", estimators.af_estimates, _len_first),
    ("harness.run_kind", harness.run_kind, None),
    ("harness.render", harness.result_to_csv, _len_result),
    ("harness.render", harness.result_to_json, _len_result),
    ("asv.eval", asv.asv_generic, None),
    ("asv.eval", asv.asv_on_grid, _grid_evals),
    ("optimize.numeric", optimize.omega_star_numeric, None),
    ("optimize.closed", optimize.omega_star_gaussian, None),
    ("optimize.closed", optimize.omega_star_laplace, None),
    ("optimize.closed", optimize.omega_star_uniform, None),
    ("optimize.closed", optimize.omega_star_cauchy, None),
    ("specfun", specfun.lambert_w0, None),
    ("specfun", specfun.hyp1f1, None),
    ("specfun", specfun.ricean_fading_penalty, None),
    ("presets.preset", presets.preset, None),
    ("cli.main", cli.main, None),
)

#: (span name, class, method) triples wrapped on the class.
METHODS = (
    ("noise.sample_sensors", noise.NoiseModel, "sample_sensors", _sensors_work),
    ("noise.sample_sensors", noise.HeterogeneousScaled, "sample_sensors", _sensors_work),
    ("channel.fading", channel.RayleighFading, "sample_gains", lambda a, k, r: _prod(a[2])),
    ("channel.fading", channel.RiceanFading, "sample_gains", lambda a, k, r: _prod(a[2])),
    ("harness.add_batch", harness.TrialAccumulator, "add_batch", _len_second),
)


def install(tracer: Tracer) -> None:
    for name, fn, work in FUNCTIONS:
        if tracer.patch_everywhere(MODULES, fn, name, work) == 0:
            raise RuntimeError(f"no binding of {name} found to trace")
    for name, cls, attr, work in METHODS:
        tracer.patch(cls, attr, name, work)


def _totals(spans: Sequence[Span], selfs: Dict[int, float], name: str, use_self: bool):
    time_s, work, calls = 0.0, 0, 0
    for s in spans:
        if s.name == name:
            time_s += selfs[s.id] if use_self else s.duration
            work += s.work
            calls += 1
    return time_s, work, calls


def _per(num: float, den: float, scale: float) -> float:
    """num/den scaled; 0 when the layer did no work in this workload."""
    return num / den * scale if den else 0.0


def layer_metrics(
    one_thread: Sequence[Span], nproc: Sequence[Span], setup: Sequence[Span],
    nproc_wall_s: float, threads: int,
) -> Dict[str, float]:
    """Per-layer metrics from the one-thread pass, the threaded pass and set-up.

    Optimizer and special-function calls also count when set-up made them:
    presets solve for their transmit phases there.
    """
    selfs = self_times(one_thread)
    setup_selfs = self_times(setup)

    def t(name, use_self=True):
        return _totals(one_thread, selfs, name, use_self)

    def with_setup(name, use_self=True):
        a, b = t(name, use_self), _totals(setup, setup_selfs, name, use_self)
        return tuple(x + y for x, y in zip(a, b))

    noise_s, samples, _ = t("noise.sample_sensors")
    cm_s, cm_samples, cm_calls = t("channel.cm_snapshot_batch")
    af_s, af_samples, af_calls = t("channel.af_snapshot_batch")
    fade_s, fade_samples, _ = t("channel.fading")
    cm_est_s, cm_est_trials, _ = t("estimators.cm_estimates")
    af_est_s, af_est_trials, _ = t("estimators.af_estimates")
    est_s, est_trials = cm_est_s + af_est_s, cm_est_trials + af_est_trials
    acc_s, acc_trials, _ = t("harness.add_batch")
    run_self_s, _, _ = t("harness.run_kind")
    render_s, rendered, _ = t("harness.render", use_self=False)
    asv_s, evals, _ = t("asv.eval")
    num_s, _, num_calls = with_setup("optimize.numeric", use_self=False)
    closed_s, _, closed_calls = with_setup("optimize.closed", use_self=False)
    sf_s, _, sf_calls = with_setup("specfun")
    cli_s, _, requests = t("cli.main")

    busy = sum(
        s.duration for s in nproc
        if s.name in ("channel.cm_snapshot_batch", "channel.af_snapshot_batch",
                      "estimators.cm_estimates", "estimators.af_estimates")
    )
    build_s = sum((s.duration for s in setup if s.name == "presets.preset"), 0.0)
    return {
        "noise.ns_per_sample": _per(noise_s, samples, 1e9),
        "noise.samples": samples,
        "channel.cm_self_ns_per_sample": _per(cm_s, cm_samples, 1e9),
        "channel.fading_ns_per_sample": _per(fade_s, fade_samples, 1e9),
        "channel.af_self_ns_per_sample": _per(af_s, af_samples, 1e9),
        "estimators.ns_per_trial": _per(est_s, est_trials, 1e9),
        "harness.acc_ns_per_trial": _per(acc_s, acc_trials, 1e9),
        "harness.self_s": run_self_s,
        "harness.blocks": cm_calls + af_calls,
        "harness.thread_busy_fraction": _per(busy, nproc_wall_s * threads, 1.0),
        "harness.render_s": render_s,
        "harness.bytes_rendered": rendered,
        "asv.ns_per_eval": _per(asv_s, evals, 1e9),
        "asv.evals": evals,
        "optimize.numeric_ms_per_call": _per(num_s, num_calls, 1e3),
        "optimize.closed_us_per_call": _per(closed_s, closed_calls, 1e6),
        "specfun.us_per_call": _per(sf_s, sf_calls, 1e6),
        "presets.build_s": build_s,
        "cli.self_ms_per_request": _per(cli_s, requests, 1e3),
        "cli.requests": requests,
    }


def curve_request_evals(spans: Sequence[Span], workload) -> int:
    """asv evaluations made inside asv-curve requests, from the span tree."""
    by_id = {s.id: s for s in spans}
    curve_ids = set()
    mains = [s for s in spans if s.name == "cli.main"]
    # cli.main spans end in request order on one thread.
    for s, (_, argv, _) in zip(sorted(mains, key=lambda s: s.start), workload.requests):
        if argv[0] == "asv-curve":
            curve_ids.add(s.id)
    total = 0
    for s in spans:
        if s.name != "asv.eval":
            continue
        p = s.parent
        while p is not None and p not in curve_ids:
            p = by_id[p].parent
        if p is not None:
            total += s.work
    return total


def trace_count_failures(spans: List[Span], workload) -> List[str]:
    """Work the traced one-thread pass did, checked against the spec counts."""
    exp = workload.expected
    if "requests" in exp:
        observed = {
            "requests": sum(1 for s in spans if s.name == "cli.main"),
            "curve_evals": curve_request_evals(spans, workload),
        }
    else:
        observed = {
            "sensor_samples": sum(s.work for s in spans if s.name == "noise.sample_sensors"),
            "blocks": sum(1 for s in spans if s.name.endswith("snapshot_batch")),
            "trials": sum(s.work for s in spans if s.name.startswith("estimators.")),
        }
    return [f"traced {k} = {v}, want {exp[k]}" for k, v in observed.items() if v != exp[k]]
