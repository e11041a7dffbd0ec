"""Command-line front end.

Subcommands: asv-curve, optimize-omega, simulate, compare-af, fading,
robustness, hetero.  Experiment commands take either --config (a JSON file
mirroring the ExperimentSpec schema) or --preset (a bundled fig1..fig10
scenario), with optional --seed/--trials overrides.

Exit codes: 0 success, 2 configuration error, 3 numeric/domain error,
4 acceptance-check failure under --check.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import asv, harness, optimize, presets
from .errors import NUMERIC_ERRORS, CfZeroError, ConfigError
from .harness import (
    ExperimentResult,
    SweepRecord,
    check_against_analytic,
    compared_points,
    fading_from_dict,
    noise_from_dict,
    render,
    spec_from_dict,
    write_text,
    write_tracks,
)

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_CHECK = 4

#: Most asv-curve grid points: rendering 10**6 as JSON peaked at 1.8 GB.
_MAX_CURVE_POINTS = 10 ** 5

_COMMAND_KINDS = {
    "simulate": ("asv-vs-omega", "var-vs-L"),
    "compare-af": ("af-compare",),
    "fading": ("fading-compare",),
    "robustness": ("cauchy-robustness",),
    "hetero": ("heterogeneous-consistency",),
}


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def _add_io_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output file; stdout when omitted")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )


def _add_experiment_options(parser: argparse.ArgumentParser) -> None:
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="JSON experiment spec")
    src.add_argument(
        "--preset",
        help=f"bundled preset, one of: {', '.join(presets.preset_names())}",
    )
    parser.add_argument("--seed", type=int, help="override the root seed")
    parser.add_argument("--trials", type=int, help="override trials per point")
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare simulation to the analytic variance and fail beyond "
        "--check-tol",
    )
    parser.add_argument(
        "--check-tol",
        type=float,
        default=0.05,
        help="relative tolerance for --check (default 0.05)",
    )
    _add_io_options(parser)
    parser.add_argument("--threads", type=int, default=1, help="worker threads")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmest",
        description="Distributed estimation over a multiple-access channel "
        "with constant-modulus signaling: analytics and Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("asv-curve", help="sample the analytic variance curve")
    curve.add_argument("--config", required=True, help="JSON curve config")
    _add_io_options(curve)

    opt = sub.add_parser("optimize-omega", help="solve for the optimal phase")
    opt.add_argument("--config", required=True, help="JSON optimizer config")
    _add_io_options(opt)

    for name, kinds in _COMMAND_KINDS.items():
        p = sub.add_parser(name, help=f"run a {' / '.join(kinds)} experiment")
        _add_experiment_options(p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and kept for later ones.

    ``parse_args`` only reads the parser, so concurrent calls can share it.
    """
    return _build_parser()


def _theta_range(value) -> float:
    """An analytic config's theta_range: finite and > 0, with a finite
    largest transmit phase 2*pi/theta_range."""
    theta_range = harness._number(value, "theta_range")
    if not (theta_range > 0.0 and math.isfinite(2.0 * math.pi / theta_range)):
        raise ConfigError(
            f"theta_range must be > 0 with 2*pi/theta_range finite, got {theta_range}"
        )
    return theta_range


def _curve_result(cfg: dict) -> ExperimentResult:
    harness._take(
        cfg,
        "curve config",
        ["noise", "theta_range"],
        optional=["snr_inv", "fading", "n_points", "omegas"],
    )
    theta_range = _theta_range(cfg["theta_range"])
    ctx = asv.AsvContext(
        noise=noise_from_dict(cfg["noise"]),
        snr_inv=harness._number(cfg.get("snr_inv", 0.0), "snr_inv"),
        fading_penalty=asv.fading_penalty(
            fading_from_dict(cfg.get("fading", {"kind": "none"}))
        ),
    )
    if "omegas" in cfg:
        omegas = np.array(harness._number_list(cfg["omegas"], "omegas"))
        values = asv.asv_on_grid(ctx, omegas)
        if not np.all(np.isfinite(values)):
            raise CfZeroError(
                "requested grid hits a characteristic-function zero or a "
                "value outside float64 range"
            )
        curve = asv.AsvCurve(omegas=omegas, values=values)
    else:
        n_points = harness._integer(cfg.get("n_points", 2000), "n_points")
        if not 1 <= n_points <= _MAX_CURVE_POINTS:
            raise ConfigError(
                f"n_points must lie in [1, {_MAX_CURVE_POINTS}], got {n_points:.6g}"
            )
        curve = asv.sample_curve(ctx, theta_range, n_points)
    records = [
        SweepRecord(
            sweep_value=float(w),
            n_trials=0,
            normalized_variance=math.nan,
            std_error=math.nan,
            analytic_asv=float(v),
            bias=math.nan,
        )
        for w, v in zip(curve.omegas, curve.values)
    ]
    metadata = {"kind": "asv-curve", "config": cfg}
    return ExperimentResult(records=records, metadata=metadata)


def _optimize_result(cfg: dict) -> dict:
    harness._take(
        cfg,
        "optimizer config",
        ["noise", "theta_range"],
        optional=["snr_inv", "method"],
    )
    star = optimize.omega_star(
        noise_from_dict(cfg["noise"]),
        harness._number(cfg.get("snr_inv", 0.0), "snr_inv"),
        _theta_range(cfg["theta_range"]),
        cfg.get("method", "auto"),
    )
    return asdict(star)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        write_text(out, text)


def _emit_tracks(tracks: dict, args) -> None:
    if args.out is not None:
        write_tracks(tracks, args.out, args.format)
        return
    for label, result in tracks.items():
        if len(tracks) > 1:
            sys.stdout.write(f"# track: {label}\n")
        sys.stdout.write(render(result, args.format))


def _load_specs(args, allowed_kinds) -> list:
    """(label, spec) pairs from --config or --preset, overrides applied."""
    if args.config is not None:
        pairs = [("run", spec_from_dict(_load_json(args.config)))]
    else:
        pairs = presets.preset(args.preset)
    out = []
    for label, spec in pairs:
        if spec.kind not in allowed_kinds:
            raise ConfigError(
                f"this command runs {allowed_kinds}, but {label!r} has kind "
                f"{spec.kind!r}"
            )
        updates = {}
        if args.seed is not None:
            updates["seed"] = args.seed
        if args.trials is not None:
            updates["trials"] = args.trials
        if updates:
            spec = replace(spec, **updates)
        out.append((label, spec))
    return out


def _run_experiment_command(args, allowed_kinds) -> int:
    if not (math.isfinite(args.check_tol) and args.check_tol > 0.0):
        raise ConfigError(f"--check-tol must be finite and > 0, got {args.check_tol}")
    specs = _load_specs(args, allowed_kinds)
    all_tracks: dict = {}
    for label, spec in specs:
        tracks = harness.run_kind(spec, threads=args.threads)
        for sub_label, result in tracks.items():
            if len(specs) == 1:
                key = sub_label
            elif len(tracks) == 1:
                key = label
            else:
                key = f"{label}.{sub_label}"
            all_tracks[key] = result

    failures = {}
    compared = 0
    if args.check:
        for key, result in all_tracks.items():
            compared += compared_points(result)
            bad = check_against_analytic(result, args.check_tol)
            if bad:
                failures[key] = bad
    _emit_tracks(all_tracks, args)
    if failures:
        sys.stderr.write(
            "acceptance check failed at tolerance "
            f"{args.check_tol}:\n{json.dumps(harness._jsonable(failures), indent=2)}\n"
        )
        return _EXIT_CHECK
    if args.check and compared == 0:
        # a check that compared nothing is not a pass
        sys.stderr.write(
            "acceptance check failed: no sweep point has both a finite analytic "
            "value and a variance estimate\n"
        )
        return _EXIT_CHECK
    empty = [
        key for key, result in all_tracks.items()
        if any(rec.n_trials == 0 for rec in result.records)
    ]
    if empty:
        # a point whose every trial overflowed or degenerated has no result
        sys.stderr.write(
            "numeric error: no finite estimate at some sweep point of "
            f"{', '.join(empty)}\n"
        )
        return _EXIT_NUMERIC
    return _EXIT_OK


def _run_command(args) -> int:
    if args.command == "asv-curve":
        result = _curve_result(_load_json(args.config))
        _emit(render(result, args.format), args.out)
        return _EXIT_OK
    if args.command == "optimize-omega":
        res = _optimize_result(_load_json(args.config))
        if args.format == "json":
            text = json.dumps(harness._jsonable(res), indent=2, sort_keys=True) + "\n"
        else:
            header = "omega,beta,clamped,at_origin,asv_at_opt,method"
            beta = "" if res["beta"] is None else repr(res["beta"])
            row = (
                f"{res['omega']!r},{beta},{int(res['clamped'])},"
                f"{int(res['at_origin'])},{res['asv_at_opt']!r},{res['method']}"
            )
            text = header + "\n" + row + "\n"
        _emit(text, args.out)
        return _EXIT_OK
    return _run_experiment_command(args, _COMMAND_KINDS[args.command])


def report_errors(run, args) -> int:
    """``run(args)``'s exit code, or 2 for a ConfigError and 3 for a numeric
    error, reported on stderr: the exit contract of every cmest entry point."""
    try:
        return run(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return _EXIT_CONFIG
    except NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric error: {type(exc).__name__}: {exc}\n")
        return _EXIT_NUMERIC


def main(argv=None) -> int:
    return report_errors(_run_command, _parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
