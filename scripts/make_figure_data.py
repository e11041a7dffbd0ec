#!/usr/bin/env python3
"""Regenerate the reference figure data from the bundled presets.

Writes one CSV per preset track into the output directory.  Full trial
budgets take a while on one core; use --trials-scale for a quick look, e.g.

    python scripts/make_figure_data.py --outdir out --figs fig2 fig7 \
        --trials-scale 0.05

Exit codes are the CLI's: 0 success, 2 configuration error (an unknown
preset, --threads below 1, a --trials-scale that is not finite and > 0),
3 numeric/domain error.
"""

import argparse
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

from cmest import cli, harness, presets
from cmest.errors import ConfigError


def _run(args) -> int:
    if not (math.isfinite(args.trials_scale) and args.trials_scale > 0.0):
        raise ConfigError(
            f"--trials-scale must be finite and > 0, got {args.trials_scale}"
        )
    names = args.figs or presets.preset_names()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for name in names:
        tracks = presets.preset(name)
        t0 = time.perf_counter()
        for label, spec in tracks:
            trials = max(1, int(round(spec.trials * args.trials_scale)))
            spec = replace(spec, trials=trials)
            results = harness.run_kind(spec, threads=args.threads)
            base = outdir / f"{name}.{label}.{args.format}"
            for path in harness.write_tracks(results, base, args.format):
                print(f"wrote {path}")
        print(f"{name}: {time.perf_counter() - t0:.1f}s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="output directory")
    parser.add_argument(
        "--figs",
        nargs="*",
        default=None,
        help=f"presets to run (default: all of {', '.join(presets.preset_names())})",
    )
    parser.add_argument(
        "--trials-scale",
        type=float,
        default=1.0,
        help="multiply every preset's trial budget by this factor",
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--threads", type=int, default=1)
    return cli.report_errors(_run, parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
