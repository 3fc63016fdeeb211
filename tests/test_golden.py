"""Artifact bytes pinned across versions of qflab.

The determinism tests elsewhere compare two runs of the same code, so they
cannot see a change in the bytes a run writes from one version to the
next.  These digests were recorded with qflab 1.0.0 before the wave
pipeline was streamed through frame chunks; every artifact except
``manifest.json`` (it holds the wall-clock time) must keep them.

FFTs, spline filters and libm may round differently in other numpy or
scipy releases, so the test runs only with the versions the digests were
recorded with.
"""

import hashlib

import numpy as np
import pytest
import scipy

import qflab as qf

NUMPY_VERSION = "2.4.6"
SCIPY_VERSION = "1.17.1"

BOX = {
    "name": "golden-box",
    "kind": "box",
    "seed": 21,
    "dynamics": "both",
    "ensemble_size": 100,
    "grid": {"lo": [-2.0], "hi": [2.0], "points": [64]},
    "potential": {"kind": "box", "inner_lo": [-1.0], "inner_hi": [1.0], "height": 1e2},
    "initial_state": {"kind": "stationary", "level": 0},
    "time": {"dt": 0.001, "t_end": 0.1, "sample_times": [0.05, 0.1]},
}

# 101 stored frames, more than one chunk, with store_every > 1
SLIT = {
    "name": "golden-slit",
    "kind": "double-slit",
    "seed": 8,
    "dynamics": "bohm",
    "ensemble_size": 100,
    "grid": {"lo": [-16.0], "hi": [16.0], "points": [256]},
    "potential": {"kind": "free"},
    "initial_state": {"kind": "two-lobe", "separation": 7.0, "sigma": 0.7},
    "time": {"dt": 0.002, "t_end": 0.4, "store_every": 2, "sample_times": [0.0, 0.2, 0.4]},
}

DIGESTS = {
    "golden-box": {
        "bohm_positions.csv": "aac348fddbcda2a6b56723ae92f85b59aef5711fb090fac0b06793f62efc59bf",
        "bohm_trajectories_head.csv": "f8a7e5e67d9fb186940ed53b18101eb00dadd5c1e5563e78952d9ed10cfb31b6",
        "bohm_vs_rdmp.json": "10219b1bc6964d1f6e5ea84e02f415fe582ddc0daeadb035121b79118e46f244",
        "equivariance.json": "a79e3577a5c82c362b538d0ab1c0b13d93bce901559a0e12f5d6283fab6e4944",
        "rdmp_marginals.json": "9389220a224456adcade233df569db7efd711dd58bee3a90a0d08ff78ca94d81",
        "rdmp_positions.csv": "9d2925beb95a788b4b05e533eb76a4a74c24f44c77b8a717151a9b9f07cf0cbe",
        "spec.json": "71e9fd2dd7431ed4ad5e75f9667b7a9533290728402c9d04d2e9c913cd473d9c",
        "wave_frames.bin": "4b4a58cd6bb48839b2bdddda44599867db34489ec95ca8746eead3f987b7889b",
    },
    "golden-slit": {
        "bohm_positions.csv": "9a367f732442eebddc4a429f34ec629c3fd3868e6440b4fb7e56cd1a50090e15",
        "bohm_trajectories_head.csv": "d447411f4c779bc5072d2b5470a56bbda99599d7d3c6f763bf9a7d4383a7f6c1",
        "equivariance.json": "2864179fe310c3e2c9701801d0051b081c40b3f609786e55b07ce73367d67654",
        "spec.json": "3ff1ffb9cdc39a5942e3d40a2049f7748df8cd1e852f9f47402f25a5b6a82e7e",
        "wave_frames.bin": "a0ef4f504fb3e82fff520dc7c2b1f6abfaebb4e9b16bf77d40d24c2792cca0b5",
    },
}


@pytest.mark.skipif(
    (np.__version__, scipy.__version__) != (NUMPY_VERSION, SCIPY_VERSION),
    reason=(
        f"digests recorded with numpy {NUMPY_VERSION} and scipy {SCIPY_VERSION}; "
        f"this is numpy {np.__version__} and scipy {scipy.__version__}, whose "
        "floating-point results may differ in the last bit"
    ),
)
@pytest.mark.parametrize("body", [BOX, SLIT], ids=lambda b: b["name"])
def test_artifact_digests_pinned(body, tmp_path, monkeypatch):
    # out_dir stays null in spec.json; the run root comes from the environment
    monkeypatch.setenv(qf.experiments.OUT_DIR_ENV, str(tmp_path))
    manifest = qf.run(qf.ExperimentSpec.from_json(body))
    assert manifest.passed
    out = tmp_path / body["name"]
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.iterdir()
        if p.name != "manifest.json"
    }
    assert digests == DIGESTS[body["name"]]
