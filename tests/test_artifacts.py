import json
import struct
from dataclasses import replace

import numpy as np
import pytest

import qflab as qf
from qflab.artifacts import (
    canonical_json,
    record_dict,
    read_json,
    spec_hash,
    write_ensemble_csv,
    write_frames,
    write_json,
)
from qflab.dynamics import Potential
from test_conditional import two_branch_state


def test_canonical_json_sorts_and_minimizes():
    assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_canonical_json_handles_numpy_scalars():
    out = canonical_json({"a": np.float64(0.1), "n": np.int64(3)})
    assert out == '{"a":0.1,"n":3}'


def _pythonize(obj):
    """The converter canonical_json ran every value through before it used
    json.dumps(default=): the reference its output must keep."""
    if isinstance(obj, dict):
        return {str(k): _pythonize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pythonize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_pythonize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, complex):
        raise TypeError("complex values must be split into [re, im] before writing")
    return obj


def _reference_json(obj):
    return json.dumps(_pythonize(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


_SCALARS = [np.float64(0.1), np.float32(0.1), np.float16(1.5), np.longdouble(0.25),
            np.float64(-0.0), np.float64(5e-324), np.int8(-3), np.int64(2**62),
            np.uint64(2**64 - 1), np.uint8(7), np.intc(-1), np.bool_(True), np.bool_(False)]
_CORPUS = [
    *_SCALARS,
    _SCALARS,
    tuple(_SCALARS),
    np.array([[1.5, -0.0], [2.0, 3e-300]]),
    np.arange(6, dtype=np.int16).reshape(2, 3),
    np.array([[[True]], [[False]]]),
    np.zeros((2, 0)),
    np.array([0.1, 1 / 3], dtype=np.float32),
    [np.array([1.0]), (np.array([[2, 3]]), np.float32(4.5))],
    (1, 2.5, "x", None, True),
    [(), [], {}, [[[]]]],
    [{"b": np.float64(1.0), "a": [np.int32(1), {"z": None}]}, {"c": np.array([1.0, 2.0])}],
    {"nested": {"deep": [np.float32(0.5), (np.uint16(4),)]}, "empty": {}},
    {1: "one", 10: "ten", 2: "two"},
    {True: 1, None: 2, 1.5: 3, "s": 4, float("inf"): 5},
    {np.int64(3): [{4: np.bool_(False)}], (1, 2): "tuple key", np.float32(0.5): "half"},
    [1, 2.0, True, None, "s", -0.0, 1e300, 2**70],
    {"k": [[1, [2, [3, {"x": np.arange(3)}]]]]},
]


@pytest.mark.parametrize("obj", _CORPUS, ids=range(len(_CORPUS)))
def test_canonical_json_keeps_the_pythonize_bytes(obj):
    assert canonical_json(obj) == _reference_json(obj)


@pytest.mark.parametrize("obj, error", [
    (1j, TypeError),
    ({"a": [np.complex128(1 + 2j)]}, TypeError),
    (np.complex64(1), TypeError),
    (np.array([1 + 1j]), TypeError),
    (object(), TypeError),
    ({"x": float("nan")}, ValueError),
    ([np.float64("nan")], ValueError),
    (np.float32("inf"), ValueError),
    ({"a": np.array([1.0, np.nan])}, ValueError),
], ids=range(9))
def test_canonical_json_raises_as_pythonize_did(obj, error):
    with pytest.raises(error):
        _reference_json(obj)
    with pytest.raises(error):
        canonical_json(obj)


def test_canonical_json_writes_a_zero_d_array_as_its_value():
    # the pythonize walk iterated the scalar a 0-d array's tolist() returns
    with pytest.raises(TypeError):
        _reference_json({"a": np.array(0.5)})
    assert canonical_json({"a": np.array(0.5), "n": np.array([np.int64(2)])[0]}) == \
        '{"a":0.5,"n":2}'


# The to_json methods these records had before canonical_json wrote a record
# without one as the dict of its fields: the reference its bytes must keep.
def _gof_to_json(r):
    return {"name": r.name, "statistic": r.statistic, "p_value": r.p_value, "passed": r.passed}


_OLD_TO_JSON = {
    qf.dynamics.GoodnessOfFit: _gof_to_json,
    qf.dynamics.EquivarianceReport: lambda r: {
        "time": r.time,
        "n_samples": r.n_samples,
        "significance": r.significance,
        "chi_square": _gof_to_json(r.chi_square),
        "ks_marginals": [_gof_to_json(g) for g in r.ks_marginals],
        "passed": r.passed,
    },
    qf.dynamics.DivergenceReport: lambda r: {
        "times": r.times.tolist(),
        "tv_distance": r.tv_distance.tolist(),
        "tv_threshold": r.tv_threshold,
        "tv_passed": r.tv_passed,
        "bohm_mean_step": r.bohm_mean_step,
        "rdmp_mean_step": r.rdmp_mean_step,
    },
    qf.onticmodels.PbrOutcome: lambda r: {
        "derivable": r.derivable,
        "reason": r.reason,
        "witness": list(r.witness) if r.witness else None,
        "common_support_size": r.common_support_size,
        "response_sum_bound": r.response_sum_bound,
    },
    qf.onticmodels.DistinctnessReport: lambda r: {
        "pairs": [list(p) for p in r.pairs],
        "worst_overlap": r.worst_overlap,
        "tol": r.tol,
        "passed": r.passed,
    },
    qf.conditional.AutonomyReport: lambda r: {
        "times": r.times.tolist(),
        "distances": r.distances.tolist(),
        "branch_index": r.branch_index,
        "max_distance": r.max_distance,
    },
    qf.experiments.Finding: lambda r: {"severity": r.severity, "field": r.field,
                                       "message": r.message},
    qf.experiments.RunManifest: lambda r: {
        "spec_hash": r.spec_hash,
        "tool_version": r.tool_version,
        "wall_clock_seconds": r.wall_clock_seconds,
        "tests": r.tests,
        "artifacts": r.artifacts,
        "passed": r.passed,
    },
}


def _records(tmp_path):
    """Real instances of every record type in _OLD_TO_JSON."""
    ax = qf.uniform_axis(-8.0, 8.0, 64)
    w0 = qf.gaussian_packet((ax,), [0.0], [1.0], [0.5])
    frames = qf.evolve_frames(w0, Potential.free(), 0.01, 20)
    times = [0.1, 0.2]
    bohm = qf.run_bohm_ensemble(frames, qf.born_sample_many(w0, 120, 1))
    rdmp = qf.rdmp_ensemble(frames, times, 120, 2)
    yield qf.equivariance_test(bohm, frames.wavefunction(20), 0.2)
    yield qf.chi_square_gof(rdmp.positions_at(0.1), frames.wavefunction(10))
    yield qf.compare_bohm_rdmp(frames, times, bohm, rdmp)

    model = qf.random_epistemic_model(overlap=0.25, seed=3)
    trivial = qf.build_trivial_ontic_model(dict(model.catalog), dict(model.measurements))
    revised = qf.build_revised_overlap_model(dict(model.catalog), dict(model.measurements))
    yield from (qf.pbr_contradiction(m) for m in (model, trivial, revised))
    yield qf.orthogonal_distinctness_check(model)
    yield qf.orthogonal_distinctness_check(trivial)

    joint, (_, ay), _, g = two_branch_state(nx=64, ny=64)
    y_path = qf.run_bohm_ensemble(
        qf.evolve_frames(qf.GridWaveFunction((ay,), g[1]), Potential.free(), 0.01, 5), [[5.0]])
    yield qf.schrodinger_autonomy_check(
        qf.evolve_frames(joint, Potential.free(), 0.01, 5), qf.SubsystemSplit((0,), (1,)),
        y_path, Potential.free())

    spec = qf.preset("pbr").with_overrides(out_dir=tmp_path)
    yield from qf.validate(replace(spec, grid={"lo": [0.0]}, tolerances={"misspelt": 1.0}))
    yield qf.run(spec)


def test_records_keep_the_bytes_of_their_old_to_json(tmp_path):
    records = list(_records(tmp_path))
    assert {type(r) for r in records} == set(_OLD_TO_JSON)
    for r in records:
        old = canonical_json(_OLD_TO_JSON[type(r)](r))
        assert canonical_json(r) == old, type(r).__name__
        assert canonical_json(record_dict(r)) == old, type(r).__name__


def test_spec_hash_stable_under_key_order_and_out_dir():
    a = {"name": "x", "seed": 3, "out_dir": "/tmp/a", "grid": {"n": 64, "lo": -1}}
    b = {"grid": {"lo": -1, "n": 64}, "out_dir": "/somewhere/else", "seed": 3, "name": "x"}
    assert spec_hash(a) == spec_hash(b)
    c = dict(a, seed=4)
    assert spec_hash(c) != spec_hash(a)


def test_write_json_round_trip(tmp_path):
    p = tmp_path / "r.json"
    obj = {"z": [1, 2.5], "a": "text"}
    write_json(p, obj)
    raw = p.read_bytes()
    assert raw.endswith(b"\n")
    assert read_json(p) == obj


def test_ensemble_csv_columns(tmp_path):
    ens = qf.Ensemble(
        times=np.array([0.0, 0.1]),
        positions=np.array([[[0.5, 1.0]], [[0.6, 1.1]]]),
        frozen_at=np.array([-1]),
    )
    p = write_ensemble_csv(tmp_path / "e.csv", ens)
    lines = p.read_text().splitlines()
    assert lines[0] == "trajectory_id,t,x1,x2"
    assert lines[1].split(",")[0] == "0"


def test_frames_binary_round_trip(tmp_path):
    ax = qf.uniform_axis(-4, 4, 64)
    w = qf.gaussian_packet((ax,), [0.2], [0.9], [1.0])
    frames = qf.evolve_frames(w, Potential.free(), 0.01, 20, store_every=5)
    raw = write_frames(tmp_path / "f.bin", frames).read_bytes()
    (n,) = struct.unpack_from("<I", raw)
    assert json.loads(raw[4 : 4 + n]) == {
        "format": "wave-frames-v1",
        "times": frames.times.tolist(),
        "axes": [{"start": float(ax[0]), "step": float(ax[1] - ax[0]), "size": 64}],
        "dtype": "complex128",
    }
    assert raw[4 + n :] == frames.amplitudes.astype("<c16").tobytes()


def test_write_determinism(tmp_path):
    ax = qf.uniform_axis(-4, 4, 32)
    w = qf.gaussian_packet((ax,), [0.0], [1.0])
    frames = qf.evolve_frames(w, Potential.free(), 0.01, 10, store_every=5)
    p1 = write_frames(tmp_path / "a.bin", frames)
    p2 = write_frames(tmp_path / "b.bin", frames)
    assert p1.read_bytes() == p2.read_bytes()
