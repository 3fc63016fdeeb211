import json
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qflab as qf
import qflab.dynamics as dyn
from qflab.artifacts import canonical_json, read_json
from qflab.experiments import SpecValidationError


def tiny_wave_spec(name="tiny", **overrides):
    body = {
        "name": name,
        "kind": "free-gaussian",
        "seed": 9,
        "dynamics": "both",
        "ensemble_size": 150,
        "grid": {"lo": [-16.0], "hi": [16.0], "points": [256]},
        "potential": {"kind": "free"},
        "initial_state": {"kind": "gaussian", "centers": [0.0], "sigmas": [1.0]},
        "time": {"dt": 0.005, "t_end": 0.4, "sample_times": [0.2, 0.4]},
        "params": {},
        "tolerances": {},
        "out_dir": None,
    }
    body.update(overrides)
    return qf.ExperimentSpec.from_json(body)


def tiny_box_spec(**overrides):
    body = {
        "name": "tiny-box",
        "kind": "box",
        "seed": 4,
        "dynamics": "both",
        "ensemble_size": 100,
        "grid": {"lo": [-2.0], "hi": [2.0], "points": [64]},
        "potential": {"kind": "box", "inner_lo": [-1.0], "inner_hi": [1.0], "height": 1e2},
        "initial_state": {"kind": "stationary", "level": 0},
        "time": {"dt": 0.001, "t_end": 0.01, "sample_times": [0.005, 0.01]},
    }
    body.update(overrides)
    return qf.ExperimentSpec.from_json(body)


class TestSpec:
    def test_round_trip_and_hash_stability(self):
        spec = qf.preset("box")
        body = spec.to_json()
        shuffled = dict(reversed(list(body.items())))
        again = qf.ExperimentSpec.from_json(shuffled)
        assert again.spec_hash == spec.spec_hash

    def test_hash_ignores_out_dir(self):
        a = tiny_wave_spec()
        b = tiny_wave_spec(out_dir="/somewhere")
        assert a.spec_hash == b.spec_hash

    def test_hash_tracks_seed(self):
        assert tiny_wave_spec(seed=1).spec_hash != tiny_wave_spec(seed=2).spec_hash

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            qf.ExperimentSpec.from_json({"name": "x", "kind": "pbr", "bogus": 1})

    def test_null_fields_count_as_absent(self):
        spec = qf.ExperimentSpec.from_json(
            {"name": "sn", "kind": "pbr", "seed": None, "params": None, "tolerances": None}
        )
        assert spec == qf.ExperimentSpec(name="sn", kind="pbr")
        assert qf.validate(spec) == []

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            qf.preset("nope")


class TestValidate:
    def test_all_presets_validate_clean(self):
        for name in qf.preset_names():
            findings = qf.validate(qf.preset(name))
            assert findings == [], f"{name}: {findings}"

    def test_unknown_kind_is_error(self):
        spec = tiny_wave_spec()
        body = spec.to_json()
        body["kind"] = "mystery"
        bad = qf.ExperimentSpec.from_json(dict(body, kind="custom"))
        findings = qf.validate(qf.ExperimentSpec.from_json(body | {"kind": "custom"}))
        assert findings == []  # custom with full grid config is fine

    def test_underpowered_bohm_ensemble_is_error(self):
        spec = tiny_wave_spec(ensemble_size=10, dynamics="bohm")
        findings = qf.validate(spec)
        assert any(f.severity == "error" and "ensemble" in f.field for f in findings)

    def test_large_dt_warns(self):
        spec = tiny_wave_spec(time={"dt": 0.5, "t_end": 1.0, "sample_times": [1.0]})
        findings = qf.validate(spec)
        assert any(f.severity == "warning" for f in findings)

    def test_interior_zero_initial_state_warns(self):
        spec = tiny_wave_spec(
            dynamics="bohm",
            initial_state={"kind": "two-lobe", "separation": 10.0, "sigma": 0.5},
        )
        findings = qf.validate(spec)
        assert any(f.severity == "warning" and "node" in f.message.lower() for f in findings)

    def test_pbr_overlap_out_of_range_is_error(self):
        spec = qf.ExperimentSpec.from_json(
            {"name": "pbr-06", "kind": "pbr", "seed": 3,
             "params": {"overlap": 0.6, "n_shared": 4, "n_exclusive": 6}}
        )
        findings = qf.validate(spec)
        assert [(f.severity, f.field) for f in findings] == [("error", "params.overlap")]

    def test_stationary_level_beyond_grid_is_error(self):
        spec = tiny_box_spec(initial_state={"kind": "stationary", "level": 1000})
        findings = qf.validate(spec)
        assert [(f.severity, f.field) for f in findings] == [("error", "initial_state")]

    def test_run_raises_structured_error_on_invalid_spec(self, tmp_path):
        spec = tiny_wave_spec(ensemble_size=10, dynamics="bohm", out_dir=str(tmp_path))
        with pytest.raises(SpecValidationError) as err:
            qf.run(spec)
        assert err.value.findings


class TestRun:
    def test_wave_run_writes_expected_artifacts(self, tmp_path):
        spec = tiny_wave_spec(out_dir=str(tmp_path))
        manifest = qf.run(spec)
        assert manifest.passed
        out = tmp_path / "tiny"
        for fname in (
            "spec.json",
            "manifest.json",
            "wave_frames.bin",
            "bohm_positions.csv",
            "bohm_trajectories_head.csv",
            "rdmp_positions.csv",
            "rdmp_marginals.json",
            "equivariance.json",
            "bohm_vs_rdmp.json",
            "diagnostics.json",
        ):
            assert (out / fname).exists(), fname
        # clean spec: no findings file
        assert not (out / "findings.json").exists()
        m = read_json(out / "manifest.json")
        assert m["spec_hash"] == spec.spec_hash
        assert set(m["tests"]) >= {"equivariance", "rdmp-marginals", "tv-agreement"}
        assert all(m["tests"].values())
        assert "diagnostics.json" in m["artifacts"]
        march = read_json(out / "diagnostics.json")["march"]
        assert march["tolerance"] == dyn.MARCH_TOL and march["frozen_members"] == 0
        assert march["steps"] > 0 and 2 <= march["min_stride"] <= march["max_stride"] <= dyn._CHUNK

    def test_pbr_run_artifacts(self, tmp_path):
        spec = qf.preset("pbr").with_overrides(out_dir=str(tmp_path))
        manifest = qf.run(spec)
        assert manifest.passed
        structure = read_json(tmp_path / "pbr" / "pbr_structure.json")
        born = np.array(structure["born_matrix"])
        assert born.shape == (4, 4)
        assert np.max(np.abs(np.diag(born))) <= 1e-12
        assert np.max(np.abs(born.sum(axis=0) - 1.0)) <= 1e-12

    def test_box_run_trajectories_constant(self, tmp_path):
        spec = qf.preset("box").with_overrides(out_dir=str(tmp_path))
        manifest = qf.run(spec)
        assert manifest.passed
        assert manifest.tests["constant-trajectories"]
        rows = (tmp_path / "box" / "bohm_positions.csv").read_text().splitlines()
        assert rows[0].startswith("trajectory_id,t,x1")

    def test_byte_identical_reruns(self, tmp_path):
        # identical spec twice; artifacts captured between the runs
        spec = tiny_wave_spec(out_dir=str(tmp_path))
        qf.run(spec)
        out = tmp_path / "tiny"
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        qf.run(spec)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(first) == sorted(second)
        for name in first:
            if name == "manifest.json":
                ma, mb = json.loads(first[name]), json.loads(second[name])
                ma.pop("wall_clock_seconds"), mb.pop("wall_clock_seconds")
                assert ma == mb
            else:
                assert first[name] == second[name], name

    def test_out_dir_env_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QFLAB_OUT", str(tmp_path / "envroot"))
        spec = qf.preset("pbr").with_overrides(seed=123)
        qf.run(spec)
        assert (tmp_path / "envroot" / "pbr" / "manifest.json").exists()

    def test_tolerance_scale_override(self, tmp_path):
        # impossible tolerance makes the stationary-density check fail
        spec = qf.preset("box").with_overrides(
            out_dir=str(tmp_path), tolerance_scale=1e-14
        )
        manifest = qf.run(spec)
        assert not manifest.passed

    def test_compare_entry_point(self, tmp_path):
        # the duel a run writes is the comparison of its own two ensembles
        spec = tiny_wave_spec(ensemble_size=300, out_dir=str(tmp_path))
        dt = 0.005
        w0 = qf.gaussian_packet((qf.uniform_axis(-16.0, 16.0, 256),), [0.0], [1.0])
        frames = qf.evolve_frames(w0, qf.Potential.free(), dt, 80)
        times = [float(np.round(t / dt) * dt) for t in (0.2, 0.4)]
        q0 = qf.born_sample_many(w0, 300, qf.derive_seed(9, 1))
        bohm = qf.run_bohm_ensemble(frames, q0, seed=qf.derive_seed(9, 1))
        rdmp = qf.rdmp_ensemble(frames, times, 300, qf.derive_seed(9, 2))
        rep = qf.compare_bohm_rdmp(frames, times, bohm, rdmp)
        assert rep.tv_passed
        assert rep.rdmp_mean_step > rep.bohm_mean_step
        qf.run(spec)
        assert read_json(tmp_path / "tiny" / "bohm_vs_rdmp.json") == json.loads(canonical_json(rep))

    def test_run_builds_each_object_once(self, tmp_path, monkeypatch):
        calls = Counter()
        for name in ("stationary_state", "run_bohm_ensemble", "rdmp_ensemble"):
            def counted(*args, _name=name, _fn=getattr(dyn, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(dyn, name, counted)
        qf.run(tiny_box_spec(out_dir=str(tmp_path)))
        assert calls == {"stationary_state": 1, "run_bohm_ensemble": 1, "rdmp_ensemble": 1}


# Each spec's keys left out, then written out with their documented defaults.
DEFAULTS = {
    "pbr": (
        {"name": "defaults", "kind": "pbr", "seed": 3, "params": {}},
        {"params": {"overlap": 0.25, "n_shared": 4, "n_exclusive": 6},
         "tolerances": {"scale": 1.0, "structure": 1e-12}},
    ),
    "box-nomological": (
        {"name": "defaults", "kind": "ontic-model-check", "params": {}},
        {"params": {"n_cells": 64, "levels": [1, 2]},
         "tolerances": {"scale": 1.0, "consistency": 1e-12}},
    ),
    "tiny-box": (
        tiny_box_spec(name="defaults", initial_state={"kind": "stationary"}).to_json(),
        {"initial_state": {"kind": "stationary", "level": 0},
         "time": {"dt": 0.001, "t_end": 0.01, "sample_times": [0.005, 0.01], "store_every": 1},
         "tolerances": {"scale": 1.0, "significance": 1e-3, "stationary_density": 1e-6,
                        "constancy": 1e-6}},
    ),
}


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_left_out_keys_take_their_documented_defaults(name, tmp_path):
    """A spec that leaves keys out writes the artifacts of the same spec with
    the defaults written out; spec.json and manifest.json record the spec."""
    left_out, written_out = DEFAULTS[name]
    artifacts = []
    for body in (left_out, {**left_out, **written_out}):
        out = tmp_path / str(len(artifacts))
        assert qf.run(qf.ExperimentSpec.from_json(dict(body, out_dir=str(out)))).passed
        artifacts.append({p.name: p.read_bytes() for p in (out / "defaults").iterdir()
                          if p.name not in ("spec.json", "manifest.json")})
    assert artifacts[0] == artifacts[1]
    assert len(artifacts[0]) >= 3


def test_wave_run_does_not_hold_every_frame(tmp_path, monkeypatch):
    # the frames stream through chunks; with 8-frame chunks the run's traced
    # peak (about 2.2 MB) is under half of one copy of its 601 stored frames
    # (9.4 MB); holding them all took over three copies
    monkeypatch.setattr(dyn, "_CHUNK", 8)
    spec = qf.ExperimentSpec.from_json({
        "name": "slit-stream",
        "kind": "double-slit",
        "seed": 3,
        "dynamics": "bohm",
        "ensemble_size": 100,
        "grid": {"lo": [-16.0], "hi": [16.0], "points": [1024]},
        "potential": {"kind": "free"},
        "initial_state": {"kind": "two-lobe", "separation": 7.0, "sigma": 0.7},
        "time": {"dt": 0.001, "t_end": 0.6, "sample_times": [0.3, 0.6]},
        "out_dir": str(tmp_path),
    })
    frames_bytes = 601 * 1024 * 16
    tracemalloc.start()
    try:
        manifest = qf.run(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert manifest.passed
    assert peak < frames_bytes / 2, f"traced peak {peak / 2**20:.1f} MB"
