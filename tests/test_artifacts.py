import numpy as np
import pytest

import qflab as qf
from qflab.artifacts import (
    canonical_json,
    read_frames,
    read_json,
    spec_hash,
    write_ensemble_csv,
    write_frames,
    write_json,
)
from qflab.dynamics import Potential


def test_canonical_json_sorts_and_minimizes():
    assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_canonical_json_handles_numpy_scalars():
    out = canonical_json({"a": np.float64(0.1), "n": np.int64(3)})
    assert out == '{"a":0.1,"n":3}'


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
        seeds=np.array([1], dtype=np.uint64),
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
    p = write_frames(tmp_path / "f.bin", frames)
    back = read_frames(p)
    assert np.array_equal(back.times, frames.times)
    assert np.array_equal(back.amplitudes, frames.amplitudes)
    assert all(np.allclose(a, b) for a, b in zip(back.axes, frames.axes))


def test_write_determinism(tmp_path):
    ax = qf.uniform_axis(-4, 4, 32)
    w = qf.gaussian_packet((ax,), [0.0], [1.0])
    frames = qf.evolve_frames(w, Potential.free(), 0.01, 10, store_every=5)
    p1 = write_frames(tmp_path / "a.bin", frames)
    p2 = write_frames(tmp_path / "b.bin", frames)
    assert p1.read_bytes() == p2.read_bytes()
