import contextlib
import importlib.util
import io
import json
import math
import os
import resource
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmest
from cmest import asv, cli, harness, optimize, presets
from cmest.cli import main
from cmest.errors import DomainError
from cmest.harness import (
    CSV_HEADER,
    ExperimentResult,
    SweepRecord,
    noise_from_dict,
    render,
    run_kind,
    spec_to_dict,
)
from cmest.noise import Gaussian, HeterogeneousScaled


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _hetero_noise(rule, key, value):
    return {
        "kind": "heterogeneous",
        "base": {"kind": "gaussian", "variance": 1.0},
        "rule": {"kind": rule, key: value},
    }


def _run_cli(*argv, timeout):
    """``cli.main(argv)`` in a fresh interpreter: a hang fails, after ``timeout`` s."""
    env = dict(os.environ, PYTHONPATH=str(Path(cmest.__file__).parents[1]))
    code = "import sys; from cmest.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def _tiny_spec_dict(**overrides):
    d = {
        "kind": "asv-vs-omega",
        "network": {
            "n_sensors": 100,
            "theta": 2.0,
            "theta_range": 12.0,
            "omega": 0.5,
            "power": {"mode": "total", "p_t": 10.0},
            "channel_noise_variance": 1.0,
            "noise": {"kind": "gaussian", "variance": 1.0},
        },
        "sweep": {"parameter": "omega", "values": [0.3, 0.5]},
        "trials": 500,
        "seed": 11,
    }
    d.update(overrides)
    return d


class TestSimulate:
    def test_csv_output(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _tiny_spec_dict())
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_json_output(self, tmp_path):
        cfg = _write_config(tmp_path, _tiny_spec_dict())
        out = tmp_path / "res.json"
        assert main(
            ["simulate", "--config", cfg, "--out", str(out), "--format", "json"]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["seed"] == 11
        assert len(payload["records"]) == 2

    def test_stdout_when_no_out(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _tiny_spec_dict())
        assert main(["simulate", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_seed_and_trials_override(self, tmp_path):
        cfg = _write_config(tmp_path, _tiny_spec_dict())
        out = tmp_path / "r.json"
        main(
            [
                "simulate",
                "--config",
                cfg,
                "--seed",
                "77",
                "--trials",
                "123",
                "--out",
                str(out),
                "--format",
                "json",
            ]
        )
        payload = json.loads(out.read_text())
        assert payload["metadata"]["seed"] == 77
        assert payload["records"][0]["n_trials"] == 123

    def test_check_passes_at_loose_tolerance(self, tmp_path):
        cfg = _write_config(
            tmp_path, _tiny_spec_dict(trials=20_000, network=_tiny_spec_dict()["network"])
        )
        assert main(["simulate", "--config", cfg, "--check", "--check-tol", "0.5"]) == 0

    def test_check_fails_at_absurd_tolerance(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _tiny_spec_dict())
        code = main(["simulate", "--config", cfg, "--check", "--check-tol", "1e-12"])
        assert code == 4
        assert "check failed" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_check_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        # inf passed every point however far from theory; 0, -1 and nan
        # failed every point
        cfg = _write_config(tmp_path, _tiny_spec_dict(trials=4))
        assert main(["simulate", "--config", cfg, "--check", "--check-tol", tol]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_check_that_compares_nothing_fails(self, tmp_path, capsys):
        # heterogeneous noise has no analytic variance: nothing to compare
        d = _tiny_spec_dict(
            kind="heterogeneous-consistency",
            sweep={"parameter": "n_sensors", "values": [50, 100]},
            trials=50,
        )
        d["network"]["noise"] = {
            "kind": "heterogeneous",
            "base": {"kind": "gaussian", "variance": 1.0},
            "rule": {"kind": "bounded", "sigma_max": 1.0},
        }
        cfg = _write_config(tmp_path, d)
        assert main(["hetero", "--config", cfg, "--check"]) == 4
        assert "no sweep point" in capsys.readouterr().err
        assert main(["hetero", "--config", cfg]) == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_check_fails_when_every_trial_is_degenerate(self, tmp_path):
        # at scale 1e305 about one draw in 2800 overflows to inf; with 50000
        # sensors every trial has some, so no finite estimate is left
        d = _tiny_spec_dict(
            sweep={"parameter": "omega", "values": [0.5]}, trials=4
        )
        d["network"]["n_sensors"] = 50_000
        d["network"]["noise"] = {"kind": "cauchy", "scale": 1e305}
        cfg = _write_config(tmp_path, d)
        out = tmp_path / "r.csv"
        assert main(["simulate", "--config", cfg, "--check", "--out", str(out)]) == 4
        assert out.read_text().split("\n")[1].split(",")[1] == "0"  # n_trials

    def test_kind_mismatch_is_config_error(self, tmp_path):
        d = _tiny_spec_dict(
            kind="af-compare", sweep={"parameter": "theta", "values": [2.0]}
        )
        cfg = _write_config(tmp_path, d)
        assert main(["simulate", "--config", cfg]) == 2


class TestErrorPaths:
    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/zzz.json"]) == 2

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["simulate", "--config", str(p)]) == 2

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("simulate", ("network", "n_sensors"), 10 ** 400,
             "n_sensors must be at most 2**53, got over 1e308"),
            ("simulate", ("network", "n_sensors"), -10 ** 4000,
             "need at least one sensor, got below -1e308"),
            ("simulate", ("trials",), -10 ** 400,
             "trials must lie in [1, 2**30], got below -1e308"),
            ("asv-curve", ("n_points",), 10 ** 400,
             "n_points must lie in [1, 100000], got over 1e308"),
            ("asv-curve", ("n_points",), -10 ** 400,
             "n_points must lie in [1, 100000], got below -1e308"),
        ],
        ids=[
            "n_sensors", "negative-n_sensors", "trials", "n_points", "negative-n_points"
        ],
    )
    def test_integer_beyond_float64_is_config_error(
        self, tmp_path, command, key, value, message
    ):
        # the message's .6g would convert the JSON integer to float64
        if command == "simulate":
            d = _tiny_spec_dict(trials=2)
        else:
            d = {"noise": {"kind": "gaussian", "variance": 1.0}, "theta_range": 12.0}
        *parents, last = key
        target = d
        for p in parents:
            target = target[p]
        target[last] = value
        done = _run_cli(command, "--config", _write_config(tmp_path, d), timeout=60)
        assert done.returncode == 2
        assert done.stderr == f"config error: {message}\n"
        assert "Traceback" not in done.stderr

    def test_overflowing_noise_ratio_fails_before_any_block(
        self, tmp_path, capsys, monkeypatch
    ):
        # sigma_v^2 / p_t overflows: refused as the network is built, not by
        # the first point's theory value after its blocks have run
        calls = []
        original = harness.cm_snapshot_batch

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "cm_snapshot_batch", spy)
        d = _tiny_spec_dict(trials=4)
        d["network"]["channel_noise_variance"] = 1e308
        d["network"]["power"] = {"mode": "total", "p_t": 1e-308}
        assert main(["simulate", "--config", _write_config(tmp_path, d)]) == 2
        assert "channel noise variance / p_t must be finite" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("network", "power"), {"mode": "per-sensor", "rho": 1.0},
             "amplify-and-forward is defined under a total power budget"),
            (("network", "fading"), {"kind": "rayleigh"},
             "fading is not modeled for the AF baseline"),
            (("af_nominal_variance",), -1.0,
             "nominal variance must be > 0 for AF gain, got -1.0"),
        ],
        ids=["per-sensor-power", "fading", "nominal-variance"],
    )
    def test_af_misconfiguration_is_config_error(self, tmp_path, capsys, path, value, message):
        d = _tiny_spec_dict(kind="af-compare", sweep={"parameter": "theta", "values": [2.0]})
        *parents, key = path
        target = d
        for p in parents:
            target = target[p]
        target[key] = value
        cfg = _write_config(tmp_path, d)
        assert main(["compare-af", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not list(tmp_path.glob("r*.csv"))

    def test_invalid_parameter_is_config_error(self, tmp_path):
        d = _tiny_spec_dict()
        d["network"]["noise"] = {"kind": "gaussian", "variance": -1.0}
        cfg = _write_config(tmp_path, d)
        assert main(["simulate", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            # each ran into a traceback or a silent NaN run before validation
            ("power", {"mode": "total", "p_t": 0.0}),
            ("power", {"mode": "total", "p_t": -1.0}),
            ("power", {"mode": "per-sensor", "rho": -1.0}),
            ("power", {"mode": "total", "p_t": math.nan}),
            ("channel_noise_variance", math.nan),
        ],
    )
    def test_bad_power_or_channel_noise_is_config_error(self, tmp_path, field, value):
        d = _tiny_spec_dict()
        d["network"][field] = value
        cfg = _write_config(tmp_path, d)
        assert main(["simulate", "--config", cfg, "--check"]) == 2

    @pytest.mark.parametrize(
        "path, value",
        [
            # each ran before typed config reading, with a traceback, a
            # silently coerced value, an all-NaN run or a numeric error
            (("sweep", "values"), "0.3"),
            (("sweep",), {"parameter": "n_sensors", "values": [50, math.nan]}),
            (("sweep",), {"parameter": "n_sensors", "values": [50, math.inf]}),
            (("sweep",), {"parameter": "n_sensors", "values": [50, 2.7]}),
            (("network", "n_sensors"), 2.7),
            (("trials",), "5"),
            (("seed",), 1.5),
            (("network", "noise"), {"kind": "gaussian", "variance": math.nan}),
            (("network", "noise"), {"kind": "cauchy", "scale": math.inf}),
            (("network", "fading"), {"kind": "ricean", "k_factor": math.nan}),
            (("network", "theta"), True),
            (("network", "noise"), _hetero_noise("linear-growth", "sigma", -1.0)),
            (("network", "noise"), _hetero_noise("bounded", "sigma_max", 0.0)),
        ],
    )
    def test_malformed_values_are_config_errors(self, tmp_path, capsys, path, value):
        d = _tiny_spec_dict()
        *parents, key = path
        target = d
        for p in parents:
            target = target[p]
        target[key] = value
        cfg = _write_config(tmp_path, d)
        assert main(["simulate", "--config", cfg, "--check"]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_integral_floats_are_accepted(self, tmp_path):
        d = _tiny_spec_dict(trials=50.0, seed=11.0)
        d["network"]["n_sensors"] = 100.0
        d["sweep"] = {"parameter": "n_sensors", "values": [50.0, 100]}
        d["kind"] = "var-vs-L"
        assert main(["simulate", "--config", _write_config(tmp_path, d)]) == 0

    @pytest.mark.parametrize(
        "kind, path, value",
        [
            ("asv-vs-omega", ("network", "n_sensors"), 1e300),
            ("var-vs-L", ("sweep",), {"parameter": "n_sensors", "values": [50, 1e300]}),
        ],
    )
    def test_network_beyond_2_53_sensors_is_config_error(
        self, tmp_path, kind, path, value
    ):
        # both ended in "ValueError: Maximum allowed dimension exceeded"
        d = _tiny_spec_dict(kind=kind, trials=2)
        *parents, key = path
        target = d
        for p in parents:
            target = target[p]
        target[key] = value
        done = _run_cli("simulate", "--config", _write_config(tmp_path, d), timeout=60)
        assert done.returncode == 2
        assert done.stderr.startswith("config error: n_sensors must be at most 2**53")
        assert "Traceback" not in done.stderr

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_underflowing_omega_is_numeric_error(self, tmp_path, capsys):
        # a simulation where the variance is not defined runs, with a null
        # theory value; a curve, which is all theory, is a numeric error
        d = _tiny_spec_dict(sweep={"parameter": "omega", "values": [1e-200]}, trials=4)
        argv = ["simulate", "--config", _write_config(tmp_path, d), "--format", "json"]
        assert main(argv) == 0
        (record,) = json.loads(capsys.readouterr().out)["records"]
        assert record["n_trials"] == 4 and record["analytic_asv"] is None
        curve = {
            "noise": {"kind": "gaussian", "variance": 1.0},
            "theta_range": 12.0,
            "omegas": [1e-200, 0.5],
        }
        cfg = _write_config(tmp_path, curve, name="curve.json")
        assert main(["asv-curve", "--config", cfg]) == 3
        assert "outside float64 range" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_config_error(self, tmp_path, capsys, threads):
        cfg = _write_config(tmp_path, _tiny_spec_dict(trials=4))
        assert main(["simulate", "--config", cfg, "--threads", threads]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_class_a_overlap_beyond_float64_is_numeric_error(self, tmp_path):
        # exp(-overlap) underflows to 0: the Poisson inversion used to hang
        d = _tiny_spec_dict(trials=2)
        d["network"]["n_sensors"] = 20
        d["network"]["noise"] = {
            "kind": "class-a", "overlap": 1e300, "background_ratio": 0.1, "variance": 1.0
        }
        done = _run_cli("simulate", "--config", _write_config(tmp_path, d), timeout=60)
        assert done.returncode == 3
        assert done.stderr.startswith("numeric error: DomainError")
        assert "overlap <= 708.4" in done.stderr

    @pytest.mark.parametrize(
        "noise, message",
        [
            # sqrt(3 * variance) overflows: every draw was NaN, and exit 0
            ({"kind": "uniform", "variance": 1e308}, "half-width"),
            # variance / overlap overflows: a NaN theory value, and exit 0
            (
                {"kind": "class-a", "overlap": 1e-300, "background_ratio": 0.1,
                 "variance": 1e300},
                "overflows float64",
            ),
        ],
    )
    def test_noise_beyond_float64_is_config_error(
        self, tmp_path, capsys, noise, message
    ):
        d = _tiny_spec_dict(trials=2)
        d["network"]["noise"] = noise
        assert main(["simulate", "--config", _write_config(tmp_path, d)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_point_without_a_finite_trial_is_numeric_error(self, tmp_path, capsys):
        # at scale 1e305 every trial of 50000 sensors has an overflowing draw
        d = _tiny_spec_dict(sweep={"parameter": "omega", "values": [0.5]}, trials=4)
        d["network"]["n_sensors"] = 50_000
        d["network"]["noise"] = {"kind": "cauchy", "scale": 1e305}
        out = tmp_path / "r.csv"
        cfg = _write_config(tmp_path, d)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert "no finite estimate" in capsys.readouterr().err
        assert out.read_text().split("\n")[1].split(",")[1] == "0"  # still written

    @pytest.mark.parametrize(
        "case",
        ["config-is-dir", "config-not-utf8", "config-too-deep", "out-is-dir",
         "out-under-file", "outdir-under-file"],
    )
    def test_file_errors_are_config_errors(self, tmp_path, case):
        # a file that cannot be read or written is a config error, not a traceback
        curve = _write_config(tmp_path, _CURVE_CONFIG)
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"noise": "\xe9"}')
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        regular = tmp_path / "regular"
        regular.write_text("")
        cli_run = ["-m", "cmest.cli", "asv-curve", "--config"]
        argv = {
            "config-is-dir": [*cli_run, str(tmp_path)],
            "config-not-utf8": [*cli_run, str(latin1)],
            "config-too-deep": [*cli_run, str(deep)],
            "out-is-dir": [*cli_run, curve, "--out", str(tmp_path)],
            "out-under-file": [*cli_run, curve, "--out", str(regular / "curve.csv")],
            "outdir-under-file": [
                str(_FIGURE_SCRIPT), "--figs", "fig1", "--outdir", str(regular / "out")
            ],
        }[case]
        env = dict(os.environ, PYTHONPATH=str(Path(cmest.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("config error:")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "case", ["config-1e300", "flag-1e23", "hetero-1e14", "scale-1e300", "scale-1e308"]
    )
    def test_unbounded_trials_are_config_errors(self, tmp_path, case):
        # these overflowed the block bookkeeping, ran out of memory or
        # overflowed round(): each ended in a traceback
        d = _tiny_spec_dict(trials=1e300)
        cli_run = ["-m", "cmest.cli"]
        script = [str(_FIGURE_SCRIPT), "--figs", "fig1", "--outdir", str(tmp_path)]
        argv = {
            "config-1e300": [*cli_run, "simulate", "--config", _write_config(tmp_path, d)],
            "flag-1e23": [*cli_run, "simulate", "--preset", "fig2", "--trials", "1" + "0" * 23],
            "hetero-1e14": [*cli_run, "hetero", "--preset", "hetero", "--trials", "1" + "0" * 14],
            "scale-1e300": [*script, "--trials-scale", "1e300"],
            "scale-1e308": [*script, "--trials-scale", "1e308"],
        }[case]

        def cap_memory():  # a run that starts anyway fails fast, not the host
            resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

        env = dict(os.environ, PYTHONPATH=str(Path(cmest.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True,
            timeout=300, preexec_fn=cap_memory,
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("config error:")
        assert "Traceback" not in done.stderr

    def test_out_under_a_file_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        # the output's directory is made before any experiment runs, so a
        # parent that is a regular file fails at once, not after the run
        calls = []
        monkeypatch.setattr(harness, "run_kind", lambda *a, **k: calls.append(a))
        regular = tmp_path / "F"
        regular.write_text("")
        out = str(regular / "x.csv")
        assert main(["simulate", "--preset", "fig2", "--trials", "10", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write")
        assert "Traceback" not in err
        assert calls == []

    def test_unknown_noise_kind(self, tmp_path):
        d = _tiny_spec_dict()
        d["network"]["noise"] = {"kind": "pareto"}
        cfg = _write_config(tmp_path, d)
        assert main(["simulate", "--config", cfg]) == 2

    def test_cf_zero_is_numeric_error(self, tmp_path, capsys):
        # force the curve through the exact characteristic-function zero
        a = math.sqrt(3.0)
        cfg = _write_config(
            tmp_path,
            {
                "noise": {"kind": "uniform", "variance": 1.0},
                "snr_inv": 0.1,
                "theta_range": 3.0,
                "omegas": [0.5, math.pi / a],
            },
        )
        assert main(["asv-curve", "--config", cfg]) == 3
        assert "numeric error" in capsys.readouterr().err


class TestAsvCurve:
    def test_default_grid(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "noise": {"kind": "gaussian", "variance": 1.0},
                "snr_inv": 0.1,
                "theta_range": 12.0,
                "n_points": 50,
            },
        )
        out = tmp_path / "curve.csv"
        assert main(["asv-curve", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 51
        first = lines[1].split(",")
        assert first[1] == "0"  # no trials behind an analytic curve
        assert float(first[4]) > 0.0

    def test_explicit_grid_and_fading(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "noise": {"kind": "gaussian", "variance": 1.0},
                "snr_inv": 0.1,
                "theta_range": 12.0,
                "fading": {"kind": "rayleigh"},
                "omegas": [0.3, 0.5],
            },
        )
        out = tmp_path / "curve.json"
        assert main(
            ["asv-curve", "--config", cfg, "--out", str(out), "--format", "json"]
        ) == 0
        payload = json.loads(out.read_text())
        vals = [r["analytic_asv"] for r in payload["records"]]
        from cmest.asv import AsvContext, asv_generic
        from cmest.noise import Gaussian

        assert vals[0] == pytest.approx(
            asv_generic(AsvContext(Gaussian(1.0), 0.1), 0.3) * 4.0 / math.pi, rel=1e-12
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "grid", [{}, {"n_points": 200}, {"omegas": [0.01 * k for k in range(1, 53)]}],
        ids=["default", "n_points", "omegas"],
    )
    def test_records_render_like_per_point_floats(self, tmp_path, capsys, grid, fmt):
        cfg = {
            "noise": {"kind": "class-a", "overlap": 0.5, "background_ratio": 0.1,
                      "variance": 3.0},
            "snr_inv": 0.1,
            "theta_range": 12.0,
            "fading": {"kind": "ricean", "k_factor": 3.0},
            **grid,
        }
        assert main(
            ["asv-curve", "--config", _write_config(tmp_path, cfg), "--format", fmt]
        ) == 0
        ctx = asv.AsvContext(
            noise_from_dict(cfg["noise"]),
            0.1,
            fading_penalty=harness._FADING.read(cfg["fading"], "fading").penalty(),
        )
        if "omegas" in grid:
            omegas = np.array(grid["omegas"])
        else:
            omegas = asv.default_omega_grid(12.0, grid.get("n_points", 2000))
        records = [
            SweepRecord(float(w), 0, math.nan, math.nan, float(v), math.nan)
            for w, v in zip(omegas, asv.asv_on_grid(ctx, omegas))
        ]
        expected = ExperimentResult(records, {"kind": "asv-curve", "config": cfg})
        assert capsys.readouterr().out == render(expected, fmt)

    @pytest.mark.parametrize("n_points", [200, -5, "x"])
    def test_n_points_beside_omegas_is_config_error(self, tmp_path, capsys, n_points):
        # a curve sets its grid one way: n_points beside omegas is refused,
        # valid or not
        curve = {
            "noise": {"kind": "gaussian", "variance": 1.0},
            "theta_range": 12.0,
            "n_points": n_points,
            "omegas": [0.3, 0.5],
        }
        assert main(["asv-curve", "--config", _write_config(tmp_path, curve)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        if n_points == 200:
            assert err == "config error: give n_points or omegas, not both\n"

    def test_cf_zero_reads_alike_on_both_grids(self, tmp_path, capsys):
        # the default grid ends at 2*pi/theta_range = pi/a, the uniform
        # characteristic function's first zero
        a = math.sqrt(3.0)
        cfg = {"noise": {"kind": "uniform", "variance": 1.0}, "theta_range": 2.0 * a}
        errors = []
        for grid in ({}, {"omegas": [0.5, math.pi / a]}):
            path = _write_config(tmp_path, {**cfg, **grid})
            assert main(["asv-curve", "--config", path]) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("numeric error: DomainError: ")

    @pytest.mark.parametrize("omegas", [["0.3", True], "0.3", [math.nan], []])
    def test_malformed_omegas_are_config_errors(self, tmp_path, capsys, omegas):
        curve = {
            "noise": {"kind": "gaussian", "variance": 1.0},
            "theta_range": 12.0,
            "omegas": omegas,
        }
        assert main(["asv-curve", "--config", _write_config(tmp_path, curve)]) == 2
        assert "config error:" in capsys.readouterr().err


class TestOptimizeOmega:
    def test_json(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {
                "noise": {"kind": "laplace", "variance": 1.0},
                "snr_inv": 0.0,
                "theta_range": 4.0,
            },
        )
        assert main(["optimize-omega", "--config", cfg, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["omega"] == pytest.approx(1.0, rel=1e-10)
        assert payload["method"] == "laplace-quartic"

    def test_csv(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {
                "noise": {"kind": "gaussian", "variance": 1.0},
                "snr_inv": 0.1,
                "theta_range": 12.0,
            },
        )
        assert main(["optimize-omega", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "omega,beta,clamped,at_origin,asv_at_opt,method"
        row = lines[1].split(",")
        assert float(row[0]) == pytest.approx(2.0 * math.pi / 12.0)
        assert row[2] == "1"  # clamped

    def test_numeric_fallback_for_class_a(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {
                "noise": {
                    "kind": "class-a",
                    "overlap": 0.5,
                    "background_ratio": 0.1,
                    "variance": 3.0,
                },
                "snr_inv": 0.1,
                "theta_range": 12.0,
            },
        )
        assert main(["optimize-omega", "--config", cfg, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == "grid-global"

    def test_gaussian_snr_inv_lost_beside_one_is_at_origin(self, tmp_path, capsys):
        cfg = {
            "noise": {"kind": "gaussian", "variance": 1.0},
            "snr_inv": 1.18e-38,
            "theta_range": 12.0,
        }
        argv = ["optimize-omega", "--config", _write_config(tmp_path, cfg)]
        assert main([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["at_origin"]
        assert payload["asv_at_opt"] == pytest.approx(1.0, rel=1e-4)

    def test_answer_above_the_papers_bounds_is_numeric_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # a solver that answers a quarter of its phase, with that phase's
        # true variance: about 3.97, above the distribution-free bound 1.54
        solve = optimize.omega_star_gaussian

        def worse(variance, snr_inv, theta_range):
            star = solve(variance, snr_inv, theta_range)
            ctx = asv.AsvContext(Gaussian(variance), snr_inv)
            omega = star.omega / 4.0
            return replace(star, omega=omega, asv_at_opt=asv.asv_generic(ctx, omega))

        monkeypatch.setattr(optimize, "omega_star_gaussian", worse)
        cfg = {
            "noise": {"kind": "gaussian", "variance": 1.0},
            "snr_inv": 0.1,
            "theta_range": 12.0,
        }
        assert main(["optimize-omega", "--config", _write_config(tmp_path, cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: DomainError: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize("method", [3, None])
    def test_non_string_method_is_config_error(self, tmp_path, capsys, method):
        cfg = {
            "noise": {"kind": "gaussian", "variance": 1.0},
            "theta_range": 12.0,
            "method": method,
        }
        assert main(["optimize-omega", "--config", _write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: method must be a string, got {method!r}\n"

    def test_closed_method_unavailable(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "noise": {
                    "kind": "class-a",
                    "overlap": 0.5,
                    "background_ratio": 0.1,
                    "variance": 3.0,
                },
                "theta_range": 12.0,
                "method": "closed",
            },
        )
        assert main(["optimize-omega", "--config", cfg]) == 2


#: One valid noise config per kind, for the analytic commands.
_ANALYTIC_NOISES = [
    {"kind": "gaussian", "variance": 1.0},
    {"kind": "laplace", "variance": 2.0},
    {"kind": "cauchy", "scale": 0.5},
    {"kind": "uniform", "variance": 1.5},
    {"kind": "class-a", "overlap": 0.5, "background_ratio": 0.1, "variance": 1.0},
]


class TestAnalyticConfigs:
    @pytest.mark.parametrize("noise", _ANALYTIC_NOISES, ids=lambda n: n["kind"])
    @pytest.mark.parametrize(
        "command, extra",
        [
            ("optimize-omega", {"method": "auto"}),
            ("optimize-omega", {"method": "numeric"}),
            ("asv-curve", {}),
        ],
        ids=["optimize-auto", "optimize-numeric", "asv-curve"],
    )
    def test_negative_snr_inv_is_config_error(self, tmp_path, capsys, command, extra, noise):
        # a config error on every solver path, closed-form or scan
        cfg = {"noise": noise, "theta_range": 12.0, "snr_inv": -1.0, **extra}
        assert main([command, "--config", _write_config(tmp_path, cfg)]) == 2
        assert "config error: snr_inv must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "omegas, bad",
        [([0.3, 0.2], "0.2 at position 1"), ([0.3, 0.3], "0.3 at position 1"),
         ([0.0, 0.5], "0.0 at position 0"), ([-0.1], "-0.1 at position 0"),
         ([0.1, 0.4, -0.2], "-0.2 at position 2")],
    )
    def test_omegas_must_be_positive_and_increasing(self, tmp_path, capsys, omegas, bad):
        # checked as read, before any evaluation, so a non-positive omega is
        # not reported as a characteristic-function zero
        cfg = {"noise": {"kind": "gaussian", "variance": 1.0}, "theta_range": 12.0,
               "omegas": omegas}
        assert main(["asv-curve", "--config", _write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: omegas must be > 0 and strictly increasing, got {bad}\n"

    def test_ricean_k_beyond_700_is_config_error(self, tmp_path, capsys):
        # from K = 707 the fading penalty's 1F1 overflows float64
        cfg = {"noise": {"kind": "gaussian", "variance": 1.0}, "theta_range": 12.0,
               "n_points": 3, "fading": {"kind": "ricean", "k_factor": 700}}
        assert main(["asv-curve", "--config", _write_config(tmp_path, cfg)]) == 0
        capsys.readouterr()
        for k in (701, 1000):
            cfg["fading"]["k_factor"] = k
            assert main(["asv-curve", "--config", _write_config(tmp_path, cfg)]) == 2
            assert "config error: Ricean K factor must lie in [0, 700]" in (
                capsys.readouterr().err
            )
        d = _tiny_spec_dict(kind="fading-compare", trials=4)
        d["network"]["fading"] = {"kind": "ricean", "k_factor": 701}
        assert main(["fading", "--config", _write_config(tmp_path, d)]) == 2
        assert "config error: Ricean K factor" in capsys.readouterr().err

    @pytest.mark.parametrize("theta_range", [0, -12, 1e-320, "x"])
    @pytest.mark.parametrize(
        "command, grid",
        [("asv-curve", {}), ("asv-curve", {"omegas": [0.3]}), ("optimize-omega", {})],
    )
    def test_bad_theta_range_is_config_error(
        self, tmp_path, capsys, command, grid, theta_range
    ):
        # theta_range must be finite and > 0 with a finite 2*pi/theta_range,
        # whichever grid the curve uses
        cfg = {"noise": {"kind": "gaussian", "variance": 1.0}, "theta_range": theta_range}
        assert main([command, "--config", _write_config(tmp_path, {**cfg, **grid})]) == 2
        assert "config error: theta_range" in capsys.readouterr().err

    @pytest.mark.parametrize("n_points", [-5, 0, 2.5, 1e300, 100_001])
    def test_bad_n_points_is_config_error(self, tmp_path, capsys, n_points):
        cfg = {
            "noise": {"kind": "gaussian", "variance": 1.0},
            "theta_range": 12.0,
            "n_points": n_points,
        }
        assert main(["asv-curve", "--config", _write_config(tmp_path, cfg)]) == 2
        assert "config error: n_points" in capsys.readouterr().err

    def test_single_point_curve(self, tmp_path, capsys):
        cfg = {"noise": {"kind": "gaussian", "variance": 1.0}, "theta_range": 12.0,
               "n_points": 1}
        assert main(["asv-curve", "--config", _write_config(tmp_path, cfg)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    @pytest.mark.parametrize(
        "noise, theta_range, snr_inv",
        [
            # the at_origin phase 1e-3 / sigma, about 1e-157: 2 w^2 underflows
            ({"kind": "gaussian", "variance": 1e308}, 12.0, 0.0),
            ({"kind": "uniform", "variance": 1e307}, 1e-10, 0.0),
            ({"kind": "cauchy", "scale": 1e300}, 12.0, 0.0),
            ({"kind": "gaussian", "variance": 1.0}, 1e308, 0.1),
            ({"kind": "laplace", "variance": 1.0}, 1e308, 0.1),
            ({"kind": "uniform", "variance": 1.0}, 1e308, 0.1),
            ({"kind": "cauchy", "scale": 1.0}, 1e308, 0.1),
            ({"kind": "laplace", "variance": 1.0}, 12.0, 1e300),  # the quartic's cubes
        ],
    )
    def test_closed_form_beyond_float64_is_numeric_error(
        self, tmp_path, capsys, noise, theta_range, snr_inv
    ):
        cfg = {"noise": noise, "theta_range": theta_range, "snr_inv": snr_inv}
        assert main(["optimize-omega", "--config", _write_config(tmp_path, cfg)]) == 3
        assert "numeric error: DomainError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "noise, theta_range, snr_inv, expected",
        [
            # at 1e-3 * 2 pi / theta_range, sigma * omega was 524 and 6.3e7:
            # the at_origin phase now sits where sigma * omega is small
            ({"kind": "gaussian", "variance": 1e12}, 12.0, 0.0, 1e12),
            ({"kind": "gaussian", "variance": 1.0}, 1e-10, 0.0, 1.0),
            ({"kind": "gaussian", "variance": 1e9}, 12.0, 0.0, 1e9),
            # u(1e-4) used to cancel to noise below its 8 snr_inv term
            ({"kind": "uniform", "variance": 1.0}, 12.0, 1e-12, 1.0),
        ],
    )
    def test_representable_optimum_is_answered(
        self, tmp_path, capsys, noise, theta_range, snr_inv, expected
    ):
        cfg = {"noise": noise, "theta_range": theta_range, "snr_inv": snr_inv}
        argv = ["optimize-omega", "--config", _write_config(tmp_path, cfg)]
        assert main([*argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["asv_at_opt"] == pytest.approx(expected, rel=0.1)

    @pytest.mark.parametrize(
        "noise, grid, last",
        [
            # phi(2 pi / 12) = 3e-60: the last of 2000 default points
            ({"kind": "gaussian", "variance": 1e3}, {}, 2.1e119),
            # phi(0.3) = 9e-14: e^60 / 0.18
            ({"kind": "cauchy", "scale": 100.0}, {"omegas": [0.3]}, 6.3e26),
        ],
    )
    def test_small_nonzero_phi_curve_is_answered(self, tmp_path, capsys, noise, grid, last):
        # these cfs never vanish: a large variance is still a value
        cfg = {"noise": noise, "theta_range": 12.0, **grid}
        argv = ["asv-curve", "--config", _write_config(tmp_path, cfg), "--format", "json"]
        assert main(argv) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert len(records) == len(grid.get("omegas", range(2000)))
        assert records[-1]["analytic_asv"] == pytest.approx(last, rel=0.05)


_CURVE_CONFIG = {
    "noise": {"kind": "laplace", "variance": 1.0},
    "snr_inv": 0.1,
    "theta_range": 12.0,
    "n_points": 40,
}
_OPTIMIZE_CONFIG = {
    "noise": {"kind": "gaussian", "variance": 1.0},
    "snr_inv": 0.1,
    "theta_range": 12.0,
}


def _analytic_requests(tmp_path):
    """asv-curve and optimize-omega argv in both formats, and one bad --format."""
    curve = _write_config(tmp_path, _CURVE_CONFIG, name="curve.json")
    opt = _write_config(tmp_path, _OPTIMIZE_CONFIG, name="opt.json")
    return [
        ["asv-curve", "--config", curve],
        ["asv-curve", "--config", curve, "--format", "json"],
        ["optimize-omega", "--config", opt],
        ["optimize-omega", "--config", opt, "--format", "json"],
        ["asv-curve", "--config", curve, "--format", "xml"],
    ]


class _PerThreadText(io.TextIOBase):
    """Stand-in for sys.stdout/sys.stderr that keeps each thread's text apart."""

    def __init__(self):
        self._local = threading.local()

    def writable(self):
        return True

    def write(self, text):
        self._local.__dict__.setdefault("parts", []).append(text)
        return len(text)

    def take(self):
        return "".join(self._local.__dict__.pop("parts", []))


def _exit_outcome(parse, argv):
    """(exit code, stdout, stderr) of a parse that argparse ends by exiting."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


_HELP_ARGV = [["--help"]] + [
    [name, "--help"] for name in ("asv-curve", "optimize-omega", *cli._COMMAND_KINDS)
]
_USAGE_ERRORS = [
    ["asv-curve"],
    ["optimize-omega", "--format", "csv"],
    ["simulate"],
    ["simulate", "--config", "cfg.json", "--preset", "fig2"],
    ["asv-curve", "--config", "cfg.json", "--format", "xml"],
    ["fading", "--preset", "fig8", "--format", "yaml"],
]


class TestSharedParser:
    @pytest.mark.parametrize(
        "command, config",
        [("asv-curve", _CURVE_CONFIG), ("optimize-omega", _OPTIMIZE_CONFIG)],
    )
    def test_analytic_commands_take_no_threads(self, tmp_path, capsys, command, config):
        # --threads was accepted and ignored, even at 0 or -3
        cfg = _write_config(tmp_path, config)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_concurrent_requests_match_serial_ones(self, tmp_path):
        requests = _analytic_requests(tmp_path) * 8
        out, err = _PerThreadText(), _PerThreadText()

        def serve(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code
            return code, out.take(), err.take()

        cli._parser.cache_clear()  # both threads may race to build it, too
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads as often as possible
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with ThreadPoolExecutor(2) as pool:
                    shared = list(pool.map(serve, requests, timeout=120))
                serial = [serve(argv) for argv in requests]
        finally:
            sys.setswitchinterval(interval)
        assert shared == serial
        assert [code for code, _, _ in serial[:5]] == [0, 0, 0, 0, 2]
        assert all(text for _, text, _ in serial[:4])
        assert "invalid choice: 'xml'" in serial[4][2]

    def test_help_and_usage_errors_match_a_fresh_parser(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        for argv in _analytic_requests(tmp_path)[:4]:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0

        def fresh(argv):
            return cli._build_parser().parse_args(argv)

        for _ in range(2):  # the second round follows failed parses
            for argv in _HELP_ARGV + _USAGE_ERRORS:
                kept = _exit_outcome(main, argv)
                assert kept == _exit_outcome(fresh, argv), argv
                assert kept[0] == (0 if "--help" in argv else 2)


class TestPresets:
    def test_all_presets_construct(self):
        for name in presets.preset_names():
            tracks = presets.preset(name)
            assert tracks
            for label, spec in tracks:
                assert spec.trials >= 1

    def test_unknown_preset(self):
        assert main(["simulate", "--preset", "fig99"]) == 2

    def test_preset_kind_routed_to_wrong_command(self):
        assert main(["simulate", "--preset", "fig10"]) == 2

    def test_preset_tiny_run(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main(
            [
                "simulate",
                "--preset",
                "fig2",
                "--trials",
                "200",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "fig2.cauchy.csv",
            "fig2.gaussian.csv",
            "fig2.laplace.csv",
            "fig2.uniform.csv",
        ]

    def test_robustness_preset_tiny_run(self, tmp_path):
        out = tmp_path / "fig10.json"
        code = main(
            [
                "robustness",
                "--preset",
                "fig10",
                "--trials",
                "30",
                "--out",
                str(out),
                "--format",
                "json",
            ]
        )
        assert code == 0
        made = {p.name for p in tmp_path.iterdir()}
        assert "fig10.cm-batch.json" in made
        assert "fig10.af-trace.json" in made

    def test_fig_presets_cover_runners(self):
        kinds = set()
        for name in presets.preset_names():
            for _, spec in presets.preset(name):
                kinds.add(spec.kind)
                run_kind  # dispatch table covers every preset kind
                spec_to_dict(spec)
        assert kinds == {
            "asv-vs-omega",
            "var-vs-L",
            "fading-compare",
            "af-compare",
            "cauchy-robustness",
            "heterogeneous-consistency",
        }


_FIGURE_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_figure_data.py"


class TestFigureScript:
    """scripts/make_figure_data.py keeps the CLI's exit codes."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--threads", "0", "--figs", "fig1"],
            ["--figs", "fig99"],
            ["--trials-scale", "nan"],
            ["--trials-scale", "-1"],
            ["--trials-scale", "0"],
            ["--trials-scale", "inf"],
        ],
    )
    def test_bad_arguments_are_config_errors(self, tmp_path, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(cmest.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, str(_FIGURE_SCRIPT), "--outdir", str(tmp_path), *argv],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("config error:")
        assert "Traceback" not in out.stderr
        assert list(tmp_path.iterdir()) == []  # nothing was run

    def test_numeric_error_exits_3(self, tmp_path, monkeypatch, capsys):
        spec = importlib.util.spec_from_file_location("make_figure_data", _FIGURE_SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)

        def overflowing_run(spec, threads=1):
            raise DomainError("overflow")

        monkeypatch.setattr(script.harness, "run_kind", overflowing_run)
        assert script.main(["--outdir", str(tmp_path), "--figs", "fig1"]) == 3
        assert capsys.readouterr().err == "numeric error: DomainError: overflow\n"


def test_cli_import_leaves_scipy_out():
    env = dict(os.environ, PYTHONPATH=str(Path(cmest.__file__).parents[1]))
    code = "import sys, cmest, cmest.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


_COUNT_PARSERS = """
import argparse

built = []
init = argparse.ArgumentParser.__init__


def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)


argparse.ArgumentParser.__init__ = counting_init
import cmest.cli

counts = [len(built)]
for _ in range(2):
    try:
        cmest.cli.main(["optimize-omega"])
    except SystemExit:
        pass
    counts.append(len(built))
print(*counts)
"""


def test_cli_import_builds_no_parser_and_main_builds_one():
    # the root parser and its seven subcommand parsers, once per process
    env = dict(os.environ, PYTHONPATH=str(Path(cmest.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _COUNT_PARSERS],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["0", "8", "8"]


# A runtime path needs no scipy: with every scipy import refused, fig9's
# size sweep (the flatness regression) and fig10 (the KS test) still run.
_NO_SCIPY_RUN = """
import sys
from dataclasses import replace


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
sys.modules.pop("scipy", None)
from cmest import harness, presets

for label, spec in presets.preset("fig9") + presets.preset("fig10"):
    if spec.sweep.parameter != "n_sensors":
        continue
    tracks = harness.run_kind(replace(spec, trials=20), threads=2)
    for result in tracks.values():
        harness.render(result, "csv")
        harness.render(result, "json")
    meta = {k: v for t in tracks.values() for k, v in t.metadata.items()}
    assert "flatness_regression" in meta or "ks_af_smallest_vs_largest" in meta
    print(label)
"""


def test_figure_runs_need_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(cmest.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["size-sweep", "cauchy"]


_FUZZ_NUMBER = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -1.0, 1e-300, 1e300, 708.0, 709.0, math.inf, -math.inf, math.nan]),
)
_NOISE_FIELDS = {
    "gaussian": ("variance",),
    "laplace": ("variance",),
    "cauchy": ("scale",),
    "uniform": ("variance",),
    "class-a": ("overlap", "background_ratio", "variance"),
}
_FUZZ_BASE_NOISE = st.sampled_from(sorted(_NOISE_FIELDS)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"kind": st.just(kind), **{f: _FUZZ_NUMBER for f in _NOISE_FIELDS[kind]}}
    )
)
_FUZZ_NOISE = st.one_of(
    _FUZZ_BASE_NOISE,
    st.fixed_dictionaries(
        {
            "kind": st.just("heterogeneous"),
            "base": _FUZZ_BASE_NOISE,
            "rule": st.one_of(
                st.fixed_dictionaries(
                    {"kind": st.just("bounded"), "sigma_max": _FUZZ_NUMBER}
                ),
                st.fixed_dictionaries(
                    {"kind": st.just("linear-growth"), "sigma": _FUZZ_NUMBER}
                ),
            ),
        }
    ),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(noise=_FUZZ_NOISE)
def test_fuzzed_noise_configs_keep_the_exit_contract(tmp_path_factory, noise):
    # any noise parameters either run, are rejected as a config error, or
    # fail as a numeric error: no traceback, no hang
    d = _tiny_spec_dict(trials=2, sweep={"parameter": "omega", "values": [0.5]})
    d["network"]["n_sensors"] = 8
    d["network"]["noise"] = noise
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = _write_config(tmp, d)
    code = main(["simulate", "--config", cfg, "--out", str(tmp / "out.csv")])
    assert code in (0, 2, 3)
    if code == 0:
        # a run that succeeds has a result: a finite trial, and a theory
        # value unless the model has none (no single characteristic
        # function, or a denominator 2 w^2 phi(w)^2 outside float64's normal
        # range at omega = 0.5; above it, snr_inv = 0.1 keeps the value finite)
        row = (tmp / "out.csv").read_text().split("\n")[1].split(",")
        assert int(row[1]) >= 1
        model = noise_from_dict(noise)
        if not (
            isinstance(model, HeterogeneousScaled)
            or 0.5 * model.cf(0.5) ** 2 < sys.float_info.min
        ):
            assert math.isfinite(float(row[4]))


_FUZZ_NETWORK_NUMBER = st.one_of(
    _FUZZ_NUMBER, st.floats(1e-3, 0.5), st.floats(0.5, 20.0)
)
_FUZZ_SMALL_INTEGER = st.one_of(
    st.integers(-2, 12),
    st.sampled_from([2.0, 2.5, True, "8", None, math.nan, math.inf]),
)
_FUZZ_POWER = st.one_of(
    st.fixed_dictionaries({"mode": st.just("total"), "p_t": _FUZZ_NETWORK_NUMBER}),
    st.fixed_dictionaries({"mode": st.just("per-sensor"), "rho": _FUZZ_NETWORK_NUMBER}),
    st.fixed_dictionaries({"mode": st.sampled_from(["total", "per-sensor", "both"])}),
    st.sampled_from([None, "total", 10.0]),
)
_FUZZ_FADING = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["none", "rayleigh", "ricean", "lognormal"])}
    ),
    st.fixed_dictionaries({"kind": st.just("ricean"), "k_factor": _FUZZ_NETWORK_NUMBER}),
    st.sampled_from([None, "rayleigh", []]),
)
_FUZZ_SWEEP = st.one_of(
    st.fixed_dictionaries(
        {
            "parameter": st.sampled_from(["omega", "theta"]),
            "values": st.lists(_FUZZ_NETWORK_NUMBER, max_size=3),
        }
    ),
    # n_sensors values stay tiny: a valid L is a real run
    st.fixed_dictionaries(
        {
            "parameter": st.just("n_sensors"),
            "values": st.lists(_FUZZ_SMALL_INTEGER, max_size=4),
        }
    ),
    st.fixed_dictionaries(
        {"parameter": st.sampled_from(["L", 3, None]), "values": st.just([1.0])}
    ),
    st.sampled_from([None, [0.5], {"parameter": "omega"}]),
)
_FUZZ_NETWORK = {
    "n_sensors": _FUZZ_SMALL_INTEGER,
    "theta": _FUZZ_NETWORK_NUMBER,
    "theta_range": _FUZZ_NETWORK_NUMBER,
    "omega": _FUZZ_NETWORK_NUMBER,
    "channel_noise_variance": _FUZZ_NETWORK_NUMBER,
    "power": _FUZZ_POWER,
    "fading": _FUZZ_FADING,
}
_FUZZ_COMMANDS = {
    "asv-vs-omega": ("simulate", {"parameter": "omega", "values": [0.3, 0.5]}),
    "var-vs-L": ("simulate", {"parameter": "n_sensors", "values": [4, 8]}),
    "af-compare": ("compare-af", {"parameter": "n_sensors", "values": [4, 8, 12]}),
    "fading-compare": ("fading", {"parameter": "theta", "values": [1.0, 3.0]}),
    "cauchy-robustness": ("robustness", {"parameter": "n_sensors", "values": [4, 8]}),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(_FUZZ_COMMANDS)),
    check=st.booleans(),
    keys=st.lists(st.sampled_from([*_FUZZ_NETWORK, "sweep"]), max_size=2, unique=True),
    data=st.data(),
)
def test_fuzzed_network_configs_keep_the_exit_contract(
    tmp_path_factory, kind, check, keys, data
):
    # one or two network, sweep, fading or power keys of a valid config are
    # fuzzed: the run succeeds, is rejected as a config error, fails as a
    # numeric error or fails the check, with no traceback
    name, sweep = _FUZZ_COMMANDS[kind]
    d = _tiny_spec_dict(kind=kind, trials=3, sweep=sweep)
    d["network"]["n_sensors"] = 8
    if kind == "fading-compare":
        d["network"]["fading"] = {"kind": "rayleigh"}
    for key in keys:
        if key == "sweep":
            d["sweep"] = data.draw(_FUZZ_SWEEP, label="sweep")
        else:
            d["network"][key] = data.draw(_FUZZ_NETWORK[key], label=key)
    tmp = tmp_path_factory.mktemp("fuzz")
    argv = [name, "--config", _write_config(tmp, d), "--out", str(tmp / "out.csv")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--check"] if check else argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


_FUZZ_ANALYTIC = {
    "noise": _FUZZ_NOISE,
    "theta_range": _FUZZ_NETWORK_NUMBER,
    "snr_inv": _FUZZ_NETWORK_NUMBER,
    "n_points": st.one_of(_FUZZ_SMALL_INTEGER, _FUZZ_NUMBER),
    "omegas": st.one_of(
        st.lists(_FUZZ_NETWORK_NUMBER, max_size=3), st.sampled_from([None, 0.3, "0.3"])
    ),
    "fading": _FUZZ_FADING,
    "method": st.sampled_from(["auto", "closed", "numeric", "newton", None, 3]),
}
_VALID_NOISE = st.sampled_from(_ANALYTIC_NOISES)
_FUZZ_ANALYTIC_KEYS = {
    "asv-curve": ["noise", "theta_range", "snr_inv", "n_points", "omegas", "fading"],
    "optimize-omega": ["noise", "theta_range", "snr_inv", "method"],
}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(sorted(_FUZZ_ANALYTIC_KEYS)),
    fmt=st.sampled_from(["csv", "json"]),
    data=st.data(),
)
def test_fuzzed_analytic_configs_keep_the_exit_contract(tmp_path_factory, command, fmt, data):
    # up to three keys of a valid asv-curve or optimize-omega config are
    # fuzzed: the request succeeds with output that parses, is rejected as a
    # config error or fails as a numeric error, with no traceback
    keys = data.draw(
        st.lists(st.sampled_from(_FUZZ_ANALYTIC_KEYS[command]), max_size=3, unique=True),
        label="keys",
    )
    cfg = {"noise": data.draw(_VALID_NOISE, label="valid noise"), "snr_inv": 0.1,
           "theta_range": 12.0}
    for key in keys:
        cfg[key] = data.draw(_FUZZ_ANALYTIC[key], label=key)
    path = _write_config(tmp_path_factory.mktemp("fuzz"), cfg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", path, "--format", fmt])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        return
    phase_key, asv_key = {
        "asv-curve": ("sweep_value", "analytic_asv"),
        "optimize-omega": ("omega", "asv_at_opt"),
    }[command]
    if fmt == "json":
        payload = json.loads(out.getvalue(), parse_constant=_reject_constant)
        rows = payload.get("records", [payload])  # an optimum is one flat record
    else:
        header, *lines = out.getvalue().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    # every output point is a finite transmit phase with a finite variance
    assert rows
    for row in rows:
        omega, value = float(row[phase_key]), float(row[asv_key])
        assert math.isfinite(omega) and omega > 0.0
        assert math.isfinite(value) and value > 0.0
