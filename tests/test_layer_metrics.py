"""The benchmark's per-layer metrics read the spline work of a Bohm run.

perfbench's tracer finds the work through names and argument positions
(``CubicGridInterpolator.__init__`` and ``__call__``, the points argument,
``VelocityField.velocity``), so a change of those signatures could leave a
counter at 0 with nothing failing.  This test runs a reduced double-slit
Bohm spec under the tracer, on a copy of qflab imported for it alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import specs  # noqa: E402


def test_tracer_counts_the_spline_work_of_a_bohm_run(tmp_path, monkeypatch):
    # the tracer patches classes and module bindings in place: it gets a fresh
    # import of qflab, and the one the other tests use comes back afterwards
    for name in [m for m in sys.modules if m == "qflab" or m.startswith("qflab.")]:
        monkeypatch.delitem(sys.modules, name)
    import qflab
    from qflab import cli

    spec = specs.slit_bohm(5)[0]
    spec["grid"]["points"] = [256]
    spec["time"]["dt"] = 0.01
    spec["ensemble_size"] = 200
    path = tmp_path / "slit.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    tracer = spans.Tracer()
    tracer.install(qflab)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    finally:
        for name in [m for m in sys.modules if m == "qflab" or m.startswith("qflab.")]:
            sys.modules.pop(name)
    metrics = spans.per_layer_metrics(tracer.to_json())
    assert metrics["dynamics.run_bohm_ensemble_calls"] == 1
    assert metrics["interpolation.eval_points"] == metrics["dynamics.velocity_points"] > 0
    assert metrics["interpolation.eval_s"] > 0
    # one grid object per march, and no method of it mixes frames
    assert metrics["interpolation.prefilters"] == 1
    assert metrics["interpolation.blends"] == 0
