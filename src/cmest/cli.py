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

from . import asv, harness, optimize, presets
from .errors import CmestError, ConfigError
from .harness import (
    ExperimentResult,
    SweepRecord,
    check_against_analytic,
    render,
    spec_from_dict,
    write_text,
    write_tracks,
)

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_CHECK = 4

_COMMAND_KINDS = {
    "simulate": ("asv-vs-omega", "var-vs-L"),
    "compare-af": ("af-compare",),
    "fading": ("fading-compare",),
    "robustness": ("cauchy-robustness",),
    "hetero": ("heterogeneous-consistency",),
}


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, nested too deep
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


def _curve_result(cfg: dict) -> ExperimentResult:
    curve = asv.curve_on_grid(**harness._CURVE.read(cfg, "curve config"))
    records = [
        SweepRecord(w, 0, math.nan, math.nan, v, math.nan)  # no trials, theory only
        for w, v in zip(curve.omegas.tolist(), curve.values.tolist())
    ]
    # the config is echoed as read
    return ExperimentResult(records, {"kind": "asv-curve", "config": cfg})


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
    if args.out is not None:
        write_text(args.out)  # an unwritable --out fails before any block
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
            bad, n_compared = check_against_analytic(result, args.check_tol)
            compared += n_compared
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
        cfg = harness._OPTIMIZER.read(_load_json(args.config), "optimizer config")
        res = asdict(optimize.omega_star(**cfg))
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
    """``run(args)``'s exit code, or 2 for a ConfigError and 3 for any other
    cmest error, reported on stderr: the exit contract of every cmest entry
    point."""
    try:
        return run(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return _EXIT_CONFIG
    except CmestError as exc:
        sys.stderr.write(f"numeric error: {type(exc).__name__}: {exc}\n")
        return _EXIT_NUMERIC


def main(argv=None) -> int:
    return report_errors(_run_command, _parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
