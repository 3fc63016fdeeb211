import copy
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qflab as qf
from qflab.artifacts import canonical_json
from qflab.cli import EXIT_FAILURE, EXIT_INVALID, EXIT_PASS, main


def write_spec(tmp_path, **overrides):
    body = {
        "name": "cli-check",
        "kind": "pbr",
        "seed": 3,
        "dynamics": "none",
        "ensemble_size": 0,
        "grid": None,
        "potential": None,
        "initial_state": None,
        "time": None,
        "params": {"overlap": 0.25, "n_shared": 4, "n_exclusive": 6},
        "tolerances": {},
        "out_dir": str(tmp_path / "runs"),
    }
    body.update(overrides)
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(body))
    return p


def test_run_pass_exit_code(tmp_path, capsys):
    code = main(["run", str(write_spec(tmp_path))])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "PASS structure" in out
    assert "spec hash" in out


def test_run_failure_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path)
    code = main(["run", str(spec), "--tolerance-scale", "1e-16"])
    assert code == EXIT_FAILURE
    assert "FAIL" in capsys.readouterr().out


def test_invalid_spec_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"name": "x", "kind": "warp-drive"}))
    code = main(["run", str(p)])
    assert code == EXIT_INVALID
    assert "ERROR" in capsys.readouterr().out


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nothere.json")])
    assert code == EXIT_INVALID


def test_preset_emit_round_trips(tmp_path, capsys):
    code = main(["preset", "box", "--emit"])
    assert code == EXIT_PASS
    emitted = capsys.readouterr().out.strip()
    spec = qf.ExperimentSpec.from_json(json.loads(emitted))
    assert spec.name == "box"
    assert emitted == canonical_json(qf.preset("box").to_json())


def test_preset_runs_with_overrides(tmp_path, capsys):
    code = main(["preset", "pbr", "--out-dir", str(tmp_path), "--seed", "17"])
    assert code == EXIT_PASS
    manifest = json.loads((tmp_path / "pbr" / "manifest.json").read_text())
    assert manifest["passed"]
    spec = json.loads((tmp_path / "pbr" / "spec.json").read_text())
    assert spec["seed"] == 17


def test_validate_subcommand(tmp_path, capsys):
    ok = write_spec(tmp_path)
    assert main(["validate", str(ok)]) == EXIT_PASS

    bad = write_spec(tmp_path, kind="box", dynamics="bohm", ensemble_size=5)
    assert main(["validate", str(bad)]) == EXIT_INVALID
    assert "ERROR" in capsys.readouterr().out


def test_report_subcommand(tmp_path, capsys):
    main(["preset", "pbr", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    code = main(["report", str(tmp_path / "pbr" / "manifest.json")])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "structure" in out


def test_unknown_preset_exit_code(capsys):
    assert main(["preset", "not-a-preset"]) == EXIT_INVALID


def test_out_of_range_specs_exit_invalid(tmp_path, capsys):
    pbr = tmp_path / "pbr-06.json"
    pbr.write_text(json.dumps(
        {"name": "pbr-06", "kind": "pbr", "seed": 3,
         "params": {"overlap": 0.6, "n_shared": 4, "n_exclusive": 6}}
    ))
    deep = write_spec(
        tmp_path, name="deep-level", kind="box", dynamics="none",
        grid={"lo": [-2.0], "hi": [2.0], "points": [64]},
        potential={"kind": "box", "inner_lo": [-1.0], "inner_hi": [1.0], "height": 1e4},
        initial_state={"kind": "stationary", "level": 1000},
        time={"dt": 0.001, "t_end": 0.01}, params={},
    )
    for path, field in ((pbr, "params.overlap"), (deep, "initial_state")):
        assert main(["validate", str(path)]) == EXIT_INVALID
        assert main(["run", str(path), "--out-dir", str(tmp_path / "runs")]) == EXIT_INVALID
        assert capsys.readouterr().out.count(f"ERROR   {field}:") == 2


def test_report_partial_manifest(tmp_path, capsys):
    main(["preset", "pbr", "--out-dir", str(tmp_path)])
    path = tmp_path / "pbr" / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["wall_clock_seconds"]
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = main(["report", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "PASS structure" in out and "spec hash" in out
    assert "wall clock" not in out


def wave_spec_body(name="wave", **changes):
    """The wave spec, with whole sections or section items replaced."""
    body = {
        "name": name, "kind": "free-gaussian", "seed": 1, "dynamics": "bohm",
        "ensemble_size": 100,
        "grid": {"lo": [-16.0], "hi": [16.0], "points": [128]},
        "potential": {"kind": "free"},
        "initial_state": {"kind": "gaussian", "centers": [0.0], "sigmas": [1.0]},
        "time": {"dt": 0.001, "t_end": 0.02, "sample_times": [0.01, 0.02]},
    }
    for key, value in changes.items():
        section, _, item = key.partition(".")
        if item:
            body[section] = dict(body[section], **{item: value})
        else:
            body[section] = value
    return body


def wave_spec(tmp_path, name, **changes):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(wave_spec_body(name, **changes)))
    return path


# turns the wave spec into a finite-model one
FINITE = {
    "dynamics": "none", "ensemble_size": 0, "grid": None, "potential": None,
    "initial_state": None, "time": None,
}

# Specs that once passed `validate` or ended in a traceback; each must exit 3
# from both commands with a finding on the named field.
PROBES = {
    "store-every-zero": ({"time.store_every": 0}, "time.store_every"),
    "store-every-fraction": ({"time.store_every": 2.5}, "time.store_every"),
    "sample-time-between-stored-frames": (
        {"time.store_every": 3, "time.sample_times": [0.01]}, "time.sample_times",
    ),
    "sample-times-on-one-step": ({"time.sample_times": [0.01, 0.0101]}, "time.sample_times"),
    "ensemble-size-string": ({"ensemble_size": "100"}, "ensemble_size"),
    "rdmp-ensemble-of-four": ({"dynamics": "rdmp", "ensemble_size": 4}, "ensemble_size"),
    "duel-with-one-sample-time": (
        {"dynamics": "both", "time.sample_times": [0.02]}, "time.sample_times",
    ),
    "nan-in-params": ({"params": {"note": float("nan")}}, "params"),
    "fractional-grid-points": ({"grid.points": [64.5]}, "grid.points"),
    "seed-string": ({"seed": "7"}, "seed"),
    "tolerance-string": ({"tolerances": {"significance": "x"}}, "tolerances.significance"),
    "tolerance-misspelt": ({"tolerances": {"signifcance": 0.01}}, "tolerances.signifcance"),
    "box-without-height": (
        {"potential": {"kind": "box", "inner_lo": [-1.0], "inner_hi": [1.0]}},
        "potential.height",
    ),
    "gaussian-zero-sigma": ({"initial_state.sigmas": [0.0]}, "initial_state.sigmas"),
    "two-lobe-zero-sigma": (
        {"initial_state": {"kind": "two-lobe", "separation": 7.0, "sigma": 0}},
        "initial_state.sigma",
    ),
    "two-lobe-separation-string": (
        {"initial_state": {"kind": "two-lobe", "separation": "7", "sigma": 0.7}},
        "initial_state.separation",
    ),
    "plane-wave-fractional-mode": (
        {"initial_state": {"kind": "plane-wave", "mode": 1.5}}, "initial_state.mode",
    ),
    "gaussian-two-centers-on-1d-grid": (
        {"initial_state.centers": [0.0, 1.0]}, "initial_state.centers",
    ),
    "pbr-n-shared-string": (
        {**FINITE, "kind": "pbr", "params": {"n_shared": "x"}}, "params.n_shared",
    ),
    "pbr-n-exclusive-zero": (
        {**FINITE, "kind": "pbr", "params": {"n_exclusive": 0}}, "params.n_exclusive",
    ),
    "ontic-n-cells-string": (
        {**FINITE, "kind": "ontic-model-check", "params": {"n_cells": "x"}}, "params.n_cells",
    ),
    "ontic-levels-string": (
        {**FINITE, "kind": "ontic-model-check", "params": {"levels": [1, "a"]}},
        "params.levels",
    ),
    "ontic-levels-repeated": (
        {**FINITE, "kind": "ontic-model-check", "params": {"levels": [2, 2]}},
        "params.levels",
    ),
    # keys that nothing reads: a misspelt or stray key would be dropped silently
    "pbr-n-shared-misspelt": (
        {**FINITE, "kind": "pbr", "params": {"n_sharde": 4}}, "params.n_sharde",
    ),
    "ontic-n-cells-misspelt": (
        {**FINITE, "kind": "ontic-model-check", "params": {"n_cell": 64}}, "params.n_cell",
    ),
    "params-on-a-wave-spec": ({"params": {"overlap": 0.25}}, "params.overlap"),
    "gaussian-momentum-misspelt": (
        {"initial_state.momentum": [1.0]}, "initial_state.momentum",
    ),
    "sample-times-misspelt": ({"time.sample_time": [0.01]}, "time.sample_time"),
    "grid-periodic": ({"grid.periodic": True}, "grid.periodic"),
    "free-potential-height": ({"potential.height": 1.0}, "potential.height"),
    # finite models too large to build: a million shared cells asked for 7 TiB
    "pbr-n-shared-huge": (
        {**FINITE, "kind": "pbr", "params": {"n_shared": 1_000_000}}, "params.n_shared",
    ),
    "ontic-n-cells-huge": (
        {**FINITE, "kind": "ontic-model-check", "params": {"n_cells": 1_000_000}},
        "params.n_cells",
    ),
    "ontic-too-many-levels": (
        {**FINITE, "kind": "ontic-model-check", "params": {"levels": list(range(1, 257))}},
        "params.levels",
    ),
    # values that ran silently: a bound for an axis the grid lacks, and
    # numbers given as other JSON types
    "box-bounds-for-two-axes-on-1d-grid": (
        {"potential": {"kind": "box", "inner_lo": [-1.0, 5.0], "inner_hi": [1.0, 6.0],
                       "height": 1e4}},
        "potential.inner_lo",
    ),
    "box-height-bool": (
        {"potential": {"kind": "box", "inner_lo": [-1.0], "inner_hi": [1.0], "height": True}},
        "potential.height",
    ),
    "box-height-string": (
        {"potential": {"kind": "box", "inner_lo": [-1.0], "inner_hi": [1.0], "height": "1e4"}},
        "potential.height",
    ),
    "pbr-overlap-string": (
        {**FINITE, "kind": "pbr", "params": {"overlap": "0.3"}}, "params.overlap",
    ),
    # tolerances under which every check passes
    "tolerance-scale-negative": ({"tolerances": {"scale": -1}}, "tolerances.scale"),
    "significance-zero": ({"tolerances": {"significance": 0}}, "tolerances.significance"),
    "significance-one": ({"tolerances": {"significance": 1}}, "tolerances.significance"),
    # wave runs of unbounded work: t_end / dt of 1e600 ended in an OverflowError
    "steps-beyond-float": (
        {"grid.points": [64], "time": {"t_end": 1e300, "dt": 1e-300}}, "time.dt",
    ),
    "steps-over-a-million": ({"time": {"t_end": 1000.0, "dt": 0.000999}}, "time.dt"),
    "grid-over-2-18-points": (
        {"grid": {"lo": [-16.0, -16.0], "hi": [16.0, 16.0], "points": [1024, 512]},
         "initial_state": {"kind": "gaussian", "centers": [0.0, 0.0], "sigmas": [1.0, 1.0]}},
        "grid.points",
    ),
    # a far sample time once overflowed its cast to a step number, with a
    # RuntimeWarning on stderr before the finding
    "sample-time-far-past-t-end": ({"time.sample_times": [0.0, 1e300]}, "time.sample_times"),
    # on n cells level 2n - L samples as level L: sin^2(4 pi x) vanishes on 2 cells
    "ontic-level-above-n-cells": (
        {**FINITE, "kind": "ontic-model-check", "params": {"n_cells": 2, "levels": [4]}},
        "params.levels",
    ),
    # extremes that overflowed: NaN amplitudes or a grid of infinite spacing
    # ended in an IndexError, and overflow printed RuntimeWarnings
    "grid-spacing-infinite": ({"grid.lo": [-1e308], "grid.hi": [1e308]}, "grid"),
    # periodic images of the grid that overflowed: in the bin overlaps of the
    # box's equivariance.json, which could not be written, and in the march
    "box-grid-lo-huge": (
        {"kind": "box", "dynamics": "both", "grid": {"lo": [-1e308], "hi": [2.0], "points": [64]},
         "potential": {"kind": "box", "inner_lo": [-1.0], "inner_hi": [1.0], "height": 1e2},
         "initial_state": {"kind": "stationary", "level": 0},
         "time": {"dt": 0.001, "t_end": 0.01, "sample_times": [0.005, 0.01]}},
        "grid",
    ),
    "grid-hi-huge": ({"grid.hi": [1e308]}, "grid"),
    # an ensemble too large to allocate ended in a MemoryError
    "ensemble-size-huge": ({"ensemble_size": 10**13}, "ensemble_size"),
    "gaussian-momentum-huge": ({"initial_state.momenta": [1e308]}, "initial_state"),
    "gaussian-sigma-tiny": ({"initial_state.sigmas": [1e-300]}, "initial_state"),
    "two-lobe-momentum-huge": (
        {"initial_state": {"kind": "two-lobe", "separation": 7.0, "sigma": 0.7,
                           "momenta": [1e308, 0.0]}},
        "initial_state",
    ),
    "gaussian-center-huge": ({"initial_state.centers": [1e308]}, "initial_state"),
    # split-step phases dt k^2 / 2 and dt V / 2 that overflowed to NaN frames
    "dt-huge": ({"time": {"dt": 1e308, "t_end": 1e308}}, "time.dt"),
    "box-height-times-dt-huge": (
        {"potential": {"kind": "box", "inner_lo": [-1.0], "inner_hi": [1.0], "height": 1e308},
         "time": {"dt": 10.0, "t_end": 20.0}},
        "potential",
    ),
    "two-lobe-separation-huge": (
        {"initial_state": {"kind": "two-lobe", "separation": 1e308, "sigma": 0.7}},
        "initial_state",
    ),
    # potentials that ran as something else: a box with no inside is a
    # constant over the grid, a slit wall with wall_lo above wall_hi is none
    "box-with-no-inside": (
        {"potential": {"kind": "box", "inner_lo": [1.0], "inner_hi": [-1.0], "height": 10.0}},
        "potential.inner_lo",
    ),
    "slit-wall-upside-down": (
        {"grid": {"lo": [-8.0, -8.0], "hi": [8.0, 8.0], "points": [32, 32]},
         "initial_state": {"kind": "gaussian", "centers": [0.0, -3.0], "sigmas": [1.0, 1.0]},
         "potential": {"kind": "slit-barrier", "wall_lo": 0.5, "wall_hi": -0.5,
                       "slit_centers": [-1.0, 1.0], "slit_width": 0.5, "height": 100.0}},
        "potential.wall_lo",
    ),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_spec_exits_invalid(probe, tmp_path, capsys):
    changes, field = PROBES[probe]
    path = wave_spec(tmp_path, probe, **changes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["validate", str(path)]) == EXIT_INVALID
        assert main(["run", str(path), "--out-dir", str(tmp_path / "runs")]) == EXIT_INVALID
    assert capsys.readouterr().out.count(f"ERROR   {field}:") == 2
    assert not (tmp_path / "runs").exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_wave_work_at_its_bounds_is_runnable(tmp_path, capsys):
    """10^6 split steps on 2^18 points with 10^7 members, and levels up to
    n_cells, validate."""
    at_bounds = {
        "ensemble_size": 10**7,
        "grid": {"lo": [-16.0, -16.0], "hi": [16.0, 16.0], "points": [512, 512]},
        "initial_state": {"kind": "gaussian", "centers": [0.0, 0.0], "sigmas": [1.0, 1.0]},
        "time": {"t_end": 1000.0, "dt": 0.001, "sample_times": [500.0, 1000.0]},
    }
    levels = {**FINITE, "kind": "ontic-model-check", "params": {"n_cells": 2, "levels": [1, 2]}}
    for name, changes in (("wave", at_bounds), ("ontic", levels)):
        assert main(["validate", str(wave_spec(tmp_path, name, **changes))]) == EXIT_PASS
    assert "ERROR" not in capsys.readouterr().out


def test_finite_model_specs_warn_of_the_wave_sections_they_ignore(tmp_path, capsys):
    """A pbr spec with wave sections runs, and each section draws a warning
    on its own field; their contents are not read, so a nonsense kind
    passes."""
    path = write_spec(tmp_path, grid={"points": [8]},
                      potential={"kind": "box"}, initial_state={"kind": "nonsense"})
    assert main(["validate", str(path)]) == EXIT_PASS
    assert main(["run", str(path)]) == EXIT_PASS
    warned = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("WARNING")]
    assert warned == 2 * ["WARNING grid", "WARNING potential", "WARNING initial_state"]


@pytest.mark.parametrize("tolerances, scale, field", [
    ({}, "-1", "tolerances.scale"),  # the flag reaches validation as tolerances.scale
    ([1.0], "2", "tolerances"),  # it once ended in a traceback on tolerances no object
])
def test_tolerance_scale_flag_is_validated(tolerances, scale, field, tmp_path, capsys):
    path = wave_spec(tmp_path, "scaled", tolerances=tolerances)
    argv = ["run", str(path), "--out-dir", str(tmp_path / "runs"), "--tolerance-scale", scale]
    assert main(argv) == EXIT_INVALID
    assert capsys.readouterr().out.count(f"ERROR   {field}:") == 1
    assert not (tmp_path / "runs").exists()


def stationary_box_spec(tmp_path, name, level, height):
    """A stationary state of the duel grid (512 points, box wall at height)."""
    return wave_spec(
        tmp_path, name, kind="box", dynamics="none", ensemble_size=0,
        grid={"lo": [-2.0], "hi": [2.0], "points": [512]},
        potential={"kind": "box", "inner_lo": [-1.0], "inner_hi": [1.0], "height": height},
        initial_state={"kind": "stationary", "level": level},
        time={"dt": 0.0002, "t_end": 0.001},
    )


def test_stationary_level_above_the_wall_runs(tmp_path, capsys):
    # level 84 lies above the box wall; its state holds still as any other
    path = stationary_box_spec(tmp_path, "level-84", 84, 1e4)
    assert main(["validate", str(path)]) == EXIT_PASS
    assert main(["run", str(path), "--out-dir", str(tmp_path / "runs")]) == EXIT_PASS
    assert "PASS stationary-density" in capsys.readouterr().out


def test_wall_beyond_double_precision_exits_invalid(tmp_path, capsys):
    # a 1e300 wall leaves no finite eigenvector: a finding, not a traceback
    path = stationary_box_spec(tmp_path, "wall-1e300", 0, 1e300)
    assert main(["validate", str(path)]) == EXIT_INVALID
    assert main(["run", str(path), "--out-dir", str(tmp_path / "runs")]) == EXIT_INVALID
    assert capsys.readouterr().out.count("ERROR   initial_state: level 0 ") == 2
    assert not (tmp_path / "runs").exists()


def test_store_every_with_stored_sample_times_runs(tmp_path, capsys):
    # t_end is always stored, even off the store_every grid (21 steps here)
    path = wave_spec(
        tmp_path, "store-every-two",
        time={"dt": 0.001, "t_end": 0.021, "store_every": 2, "sample_times": [0.01, 0.021]},
    )
    assert main(["validate", str(path)]) == EXIT_PASS
    assert main(["run", str(path), "--out-dir", str(tmp_path / "runs")]) == EXIT_PASS


def test_spec_file_holding_no_object_exits_invalid(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert main(["validate", str(path)]) == EXIT_INVALID
    assert main(["run", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().out.count("ERROR   file:") == 2


def test_report_on_json_that_is_no_manifest_exits_invalid(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    for text in ("[]", '{"tests": [1]}', '{"tests": {}, "artifacts": 5}',
                 '{"tests": {}, "artifacts": "abc"}'):
        path.write_text(text)
        assert main(["report", str(path)]) == EXIT_INVALID
        assert "ERROR   manifest:" in capsys.readouterr().out


def test_report_prints_the_march_and_warns_above_its_tolerance(tmp_path, capsys):
    """A wave run with Bohm dynamics writes diagnostics.json beside its
    manifest, and report prints its march record.  Two lobes at +-6 moving
    toward each other at 1.5, on 256 points and stored every 2 steps of
    0.004, make the march accept frame-pair steps whose error estimate is
    far above MARCH_TOL: the run records a warning finding, run and report
    print it, and their exit codes are still those of the run's tests.  A
    run with no diagnostics.json reports as before."""
    calm = wave_spec(tmp_path, "calm")
    lobes = wave_spec(
        tmp_path, "lobes", **{"grid.points": [256]},
        initial_state={"kind": "two-lobe", "separation": 12.0, "sigma": 1.0,
                       "momenta": [1.5, -1.5]},
        time={"dt": 0.004, "t_end": 4.0, "sample_times": [2.0, 4.0], "store_every": 2},
    )
    finite = write_spec(tmp_path)
    for path, warned in ((calm, False), (lobes, True), (finite, None)):
        assert main(["run", str(path), "--out-dir", str(tmp_path / "runs")]) == EXIT_PASS
        name = json.loads(path.read_text())["name"]
        manifest = tmp_path / "runs" / name / "manifest.json"
        run_warnings = [line for line in capsys.readouterr().out.splitlines()
                        if line.startswith("WARNING")]
        findings = manifest.parent / "findings.json"
        assert findings.exists() == bool(warned)
        assert main(["report", str(manifest)]) == EXIT_PASS
        out = capsys.readouterr().out.splitlines()
        if warned is None:
            assert not (manifest.parent / "diagnostics.json").exists()
            assert not [line for line in out if line.startswith(("march", "WARNING"))]
            continue
        march = json.loads((manifest.parent / "diagnostics.json").read_text())["march"]
        error, tol = march["max_error"], march["tolerance"]
        assert (error > tol) == warned
        assert out[-1 - warned] == (
            f"march {march['steps']} steps, {march['steps_taken_again']} taken again, "
            f"stride {march['min_stride']}-{march['max_stride']} frames, "
            f"max error {error:.1e} (tolerance {tol:.1e})"
        )
        warnings = [line for line in out if line.startswith("WARNING")]
        message = f"max error {error:.1e} is above the tolerance {tol:.1e}"
        assert warnings == run_warnings == ([f"WARNING march: {message}"] if warned else [])
        if warned:
            assert json.loads(findings.read_text()) == [
                {"field": "march", "message": message, "severity": "warning"}
            ]


def test_momentum_near_the_grid_cutoff_is_a_finding(tmp_path, capsys):
    """A packet at momentum 12 on a grid whose cutoff is 4 pi: validate, run
    and report each print a warning finding on grid.points, the run records
    it in findings.json, and the pipeline raises no Python warning beside
    it.  The packet at rest draws no finding."""
    fast = wave_spec(tmp_path, "fast", dynamics="none", ensemble_size=0,
                     **{"initial_state.momenta": [12.0]})
    calm = wave_spec(tmp_path, "calm", dynamics="none", ensemble_size=0)
    for path, warned in ((fast, True), (calm, False)):
        name = json.loads(path.read_text())["name"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["validate", str(path)]) == EXIT_PASS
            assert main(["run", str(path), "--out-dir", str(tmp_path / "runs")]) == EXIT_PASS
            assert main(["report", str(tmp_path / "runs" / name / "manifest.json")]) == EXIT_PASS
        assert not caught
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("WARNING")]
        findings = tmp_path / "runs" / name / "findings.json"
        assert findings.exists() == warned
        if warned:
            (finding,) = json.loads(findings.read_text())
            assert finding["field"] == "grid.points" and finding["severity"] == "warning"
            assert finding["message"].startswith("momentum content near grid cutoff")
            assert lines == 3 * [f"WARNING grid.points: {finding['message']}"]
        else:
            assert not lines


def test_main_called_again_in_one_process_is_a_fresh_process(tmp_path, capsys):
    """main builds its parser once per process.  Called again in the same
    process, after other calls, it gives the exit code and the standard
    output that the same arguments give in a fresh process."""
    (tmp_path / "bad").mkdir()
    bad = write_spec(tmp_path / "bad", params={"overlap": 2.0})
    calls = [["run", str(write_spec(tmp_path))], ["validate", str(bad)], ["preset", "nope"]]
    package_root = str(Path(qf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "qflab", *argv], env=env,
                               capture_output=True, text=True)
        for _ in range(2):
            assert (main(argv), capsys.readouterr().out) == (fresh.returncode, fresh.stdout), argv
    assert [main(argv) for argv in calls] == [EXIT_PASS, EXIT_INVALID, EXIT_INVALID]


# Small specs of every pipeline, each runnable as it stands: the wave spec
# above, the tiny box (stationary state, both dynamics) and the two
# finite-model presets.
FUZZ_BASES = {
    "wave": {},
    "tiny-box": {
        "kind": "box", "dynamics": "both",
        "grid": {"lo": [-2.0], "hi": [2.0], "points": [64]},
        "potential": {"kind": "box", "inner_lo": [-1.0], "inner_hi": [1.0], "height": 1e2},
        "initial_state": {"kind": "stationary", "level": 0},
        "time": {"dt": 0.001, "t_end": 0.01, "sample_times": [0.005, 0.01]},
    },
    "pbr": {**FINITE, **qf.preset("pbr").to_json()},
    "box-nomological": {**FINITE, **qf.preset("box-nomological").to_json()},
}
# Values small enough that any spec built from them runs in well under a second.
FUZZ_VALUES = st.sampled_from([
    None, True, -1, 0, 1, 2, 3, 8, 100, 0.0, 1e-3, 0.005, 0.5, 2.5, -3.0, 1e4,
    float("nan"), float("inf"), "", "x", "free", "box", "gaussian", "stationary",
    "two-lobe", "plane-wave", "rdmp", "both", "none", [], [0.0], [1e-3], [8], [40.0],
    [1.0, 2.0], ["x"], [0.01, 0.005], [-1.0, 1.0], {}, {"kind": "free"},
    1e308, 1e-300, [1e308], [1e-300],
])


@st.composite
def fuzzed_specs(draw):
    base = draw(st.sampled_from(sorted(FUZZ_BASES)))
    body = copy.deepcopy(wave_spec_body(**FUZZ_BASES[base]))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(body) + ["bogus"]))
        target, name = body, key
        if isinstance(body.get(key), dict) and body[key] and draw(st.booleans()):
            target, name = body[key], draw(st.sampled_from(sorted(body[key])))
        if draw(st.integers(0, 5)) == 0:
            target.pop(name, None)
        else:
            target[name] = copy.deepcopy(draw(FUZZ_VALUES))
    return body


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=fuzzed_specs())
def test_fuzzed_specs_never_end_in_a_traceback(body, tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "spec.json"
    path.write_text(json.dumps(body))
    assert main(["validate", str(path)]) in (EXIT_PASS, EXIT_INVALID)
    assert main(["run", str(path), "--out-dir", str(root / "runs")]) in (
        EXIT_PASS, EXIT_FAILURE, EXIT_INVALID
    )


# Each of these replaces, in turn, every numeric leaf (a number, or a list
# of numbers) of every FUZZ_BASES spec.
EXTREMES = [1e308, -1e308, 1e-300, -1e-300, 0, -1, 10**13, 2**63, [1e308], [-1e308], [1e-300]]


def numeric_leaves(obj, path=()):
    """Paths of the numbers and lists of numbers in a JSON object."""
    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if number(obj) or (isinstance(obj, list) and obj and all(map(number, obj))):
        yield path
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from numeric_leaves(value, path + (key,))


def test_every_numeric_leaf_at_each_extreme(tmp_path, capsys):
    """Each extreme on each numeric leaf of each base spec, one at a time:
    validate exits 0 or 3, run exits 0, 2 or 3, and no RuntimeWarning is
    raised.  The fuzz test above reaches such a spec only by chance."""
    cases = []
    for base in sorted(FUZZ_BASES):
        body = wave_spec_body(**FUZZ_BASES[base])
        for path in numeric_leaves(body):
            for value in EXTREMES:
                case = copy.deepcopy(body)
                target = case
                for key in path[:-1]:
                    target = target[key]
                target[path[-1]] = copy.deepcopy(value)
                cases.append((f"{base}:{'.'.join(path)}={value!r}", case))
    assert len(cases) == 31 * len(EXTREMES)
    for n, (name, case) in enumerate(cases):
        path = tmp_path / f"{n}.json"
        path.write_text(json.dumps(case))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            validated = main(["validate", str(path)])
            ran = main(["run", str(path), "--out-dir", str(tmp_path / f"runs-{n}")])
        capsys.readouterr()
        assert validated in (EXIT_PASS, EXIT_INVALID), name
        assert ran in (EXIT_PASS, EXIT_FAILURE, EXIT_INVALID), name
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], name
