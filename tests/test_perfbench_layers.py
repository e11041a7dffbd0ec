"""The benchmark's tracer still finds every cmest name it wraps.

``perfbench/layers.py`` wraps entry points of the package by name.  A name
removed or renamed here would otherwise fail only when the benchmark runs.
"""

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402

from cmest import cli  # noqa: E402


def test_traced_curve_request_evaluates_its_grid_once(tmp_path):
    cfg = tmp_path / "curve.json"
    cfg.write_text(json.dumps({
        "noise": {"kind": "class-a", "overlap": 0.5, "background_ratio": 0.1, "variance": 1.0},
        "snr_inv": 0.1,
        "theta_range": 12.0,
        "n_points": 300,
    }))
    tracer = Tracer()
    try:
        layers.install(tracer)  # raises if a wrapped name has no binding left
        code = cli.main(["asv-curve", "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert [s.name for s in tracer.spans].count("cli.main") == 1
    evals = [s for s in tracer.spans if s.name == "asv.eval"]
    assert len(evals) == 1 and evals[0].work == 300
    assert not hasattr(cli.main, "__wrapped__")
