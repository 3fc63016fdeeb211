"""Artifact bytes pinned across versions of qflab.

The determinism tests elsewhere compare two runs of the same code, so they
cannot see a change in the bytes a run writes from one version to the
next.  The golden-slit digests were recorded with qflab 1.0.0 before the
wave pipeline was streamed through frame chunks.  The golden-box digests
were recorded when stationary states moved from a dense ``eig`` of the
one-step propagator to a Rayleigh-quotient solve: its eigenvector, and
so every file built from it but ``spec.json`` and ``rdmp_positions.csv``,
changed in the last digits.  The golden-pbr and golden-nomological
digests, the ``pbr`` and ``box-nomological`` presets under other names,
were recorded before the finite-model records lost their own ``to_json``
methods to the one rule of ``artifacts``.  The Bohm files of golden-box
and golden-slit (positions, head paths, ``bohm_vs_rdmp.json`` and the
slit's ``equivariance.json``) were recorded again when the march moved to
RK4 steps over frame pairs: every verdict stayed the same, no position
moved by more than 2e-15 in the box or 1.2e-6 in the slit, and the head
paths kept every other row, the frames the march steps to.  They were
recorded again, with the new ``diagnostics.json`` (the march's record),
when the march came to pick its own stride: every verdict stayed the
same.  In the box, whose field holds still, the stride reached 16
frames; no position moved by more than 2.9e-15 in
``bohm_positions.csv`` or 2.7e-15 in the head paths, which went from 51
rows a member to 11.  In the slit the stride reached 8 frames, in 15
steps (2 taken again); no position moved by more than 1.2e-8 in
``bohm_positions.csv`` or 4.8e-9 in the head paths (51 rows a member to
16).  ``equivariance.json`` moved in the last digits of its KS
statistic, and the box's ``bohm_vs_rdmp.json`` in its Bohm mean step
(7.3e-17 to 7.1e-16).  The box's Bohm files and ``diagnostics.json``
were recorded again when a step's span was allowed to reach a whole
chunk (64 frames) instead of 16: every verdict stayed the same, the
stride reached 32 frames, in 8 steps instead of 10, no position moved by
more than 5.4e-15 in ``bohm_positions.csv`` or 1.4e-15 in the head paths
(11 rows a member to 9), ``equivariance.json`` moved in the last digits
of its KS statistic and p-value, and the Bohm mean step went from
7.1e-16 to 8.3e-16.  Both were recorded again when ``MARCH_TOL`` went
from 1e-8 to 1e-6 and the frames of a run with no potential came to be
evolved in k-space.  The box changed only in the tolerance that
``diagnostics.json`` records.  In the slit, ``wave_frames.bin`` moved by
at most 1.3e-14 relative to max |psi| (frame 0 kept its bits), the march
took 9 steps instead of 15 (1 taken again, strides up to 32 frames), no
position moved by more than 2.5e-6 in ``bohm_positions.csv`` or 5.2e-7 in
the head paths (16 rows a member to 10; compared at the times both
hold), and ``equivariance.json`` moved in the last digits of its
statistics and p-values; every verdict stayed the same.  The Bohm files
of both were recorded again when a step of 2m frames came to start on a
multiple of 2m, so that it reads one frame chunk; every verdict stayed
the same.  The box kept its 8 steps; no position moved by more than
6.4e-15, and the Bohm mean step went from 8.3e-16 to 7.5e-16.  The slit
took 10 steps instead of 9, with strides up to 16 frames instead of 32,
and its largest error estimate fell from 1.0e-6 to 1.4e-7.  Its row at
t = 0.2, read off the middle of a 32-frame step before, moved by 2.4e-6:
against a march at a thousandth of ``MARCH_TOL`` it was off by 2.5e-6
and is now off by 5.4e-8.  No other position moved by more than 4.5e-7.
``equivariance.json`` moved in the last digits of its KS statistic and
p-value in both.  The golden-box files but ``spec.json`` and
``rdmp_positions.csv`` were recorded again when qflab stopped importing
scipy: the chi-square p-value came to be computed by qflab itself, within
1e-12 of an exact evaluation, where it had equalled scipy's
``chdtrc`` bit for bit, and the stationary state came from
``np.linalg.eigvalsh`` and ``np.linalg.solve`` where it had come from
scipy's ``eigh`` and LU solves.  No p-value moved by more than 2.0e-14
relative, the box state by more than 2.3e-15 after ``fix_global_phase``
(compared up to a global sign, since the argmax pivot of an odd state can
flip), or a Bohm position by more than 2.9e-15, and every verdict stayed
the same.  golden-slit kept its bytes: its chi-square p-value came out
bit for bit as before.  The same golden-box files were recorded again
when the stationary solve of a potential the grid's mirror leaves
unchanged came to run in an even or an odd block of half the size.  The
state in ``wave_frames.bin`` moved by at most 1.3e-14 relative to
max |psi|, a Bohm position by at most 3.4e-15 in ``bohm_positions.csv``
and 1.4e-15 in the head paths, a statistic or p-value of
``equivariance.json`` or ``rdmp_marginals.json`` by at most 3.3e-13
relative, the Bohm mean step went from 7.4e-16 to 5.9e-16 and the
march's largest error estimate in ``diagnostics.json`` from 6.0e-19 to
4.9e-19; every verdict stayed the same.  They were recorded again when
a stationary state came to be the Hamiltonian's eigenvector, its frames
its phases e^(-iEt), where it had been the eigenvector of the run's dt
split step: the state moved by 2.5e-4 of max |psi|, the split step's own
time error, a Bohm position by at most 2.2e-15, a statistic or p-value
by at most 3.2e-3 relative, and every verdict stayed the same.  Every
artifact except ``manifest.json`` (it holds the wall-clock time) must
keep them.

FFTs (which also give the spline coefficients) and libm may round
differently in other numpy releases, so the test runs only with the numpy
version the digests were recorded with.  OpenBLAS rounds the solves
behind a stationary state differently when it runs threaded, so each run
is made in a fresh process with one BLAS thread, whatever the machine.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qflab as qf

NUMPY_VERSION = "2.4.6"

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

# the pbr and box-nomological presets
PBR = {
    "name": "golden-pbr",
    "kind": "pbr",
    "seed": 3,
    "params": {"overlap": 0.25, "n_shared": 4, "n_exclusive": 6},
}

NOMOLOGICAL = {
    "name": "golden-nomological",
    "kind": "ontic-model-check",
    "params": {"n_cells": 64, "levels": [1, 2]},
}

DIGESTS = {
    "golden-box": {
        "bohm_positions.csv": "1885410c8a64c69e2bbbfb082f9cfe02fad979ee9ae39d2314b7907bd6cb5d9f",
        "bohm_trajectories_head.csv": "eca75daebcd2077cd23890453b2a3681dd6c94cd9c1fc2a01f557edbbaa143b2",
        "bohm_vs_rdmp.json": "5df5f1d8156fa7b7a831e5c982901cecd3da8a29bee977aa500c29d5770df0c6",
        "diagnostics.json": "d43a2795f3c06d4b6afce880753ce9e334873fa3db1e1d1c0edc7bcf1ef40a4a",
        "equivariance.json": "3c59a1d5a4f5369298956938773830ec90064837be7a48f94fc74548de5dccb5",
        "rdmp_marginals.json": "2bcdf3d2915eb11b6588a457f333025148deed099ff142f17615a97e06389dd3",
        "rdmp_positions.csv": "9d2925beb95a788b4b05e533eb76a4a74c24f44c77b8a717151a9b9f07cf0cbe",
        "spec.json": "71e9fd2dd7431ed4ad5e75f9667b7a9533290728402c9d04d2e9c913cd473d9c",
        "wave_frames.bin": "191f3ca6a25a3c71f84129a0fcdd568d23f41ee89ad5b9f086dd6e06d2769a5a",
    },
    "golden-slit": {
        "bohm_positions.csv": "22c5005370546fae373e21f8287ad188dbacd061230e31ffa07adea3a4727856",
        "bohm_trajectories_head.csv": "8f67175e1a274c144bb2e2ad95362a24b096b5e655e31c089908c16ad8e81a4f",
        "diagnostics.json": "52fde6cfabfb72e8cca2db105cd14ff691df8fba445908588528d95d07cb2093",
        "equivariance.json": "ba41679552d04ebfac4c241786050d2363f33196d8147e78bd8d97b761448b1e",
        "spec.json": "3ff1ffb9cdc39a5942e3d40a2049f7748df8cd1e852f9f47402f25a5b6a82e7e",
        "wave_frames.bin": "7becf77448e754369c2a0a943ed91332bad03014326717abdc7b0cb5389ed233",
    },
    "golden-pbr": {
        "contradiction.json": "0a9f537096ae68f24f57b04ae1c59777bf8d50156ef05c8c4b4c421dd7fb194a",
        "pbr_structure.json": "e7c1411271958c443c9e333fb4e3ace617421c5bc03f9adc5145aa6604b116c9",
        "random_model.json": "8d87d09147779bf0c65968d8bcb187d304416eac728ae4dee7f45d6f978c16e2",
        "spec.json": "dea1effc23d8a586ca5eb7d666ecc907e24833abb6e65436a57998efbe86b8f7",
    },
    "golden-nomological": {
        "box_model.json": "124628debf12b79a68d0c520125e9a2e74172ab7a8e48ca4f8bde8ea470e2aa3",
        "classification.json": "2bbc6296e822d8835f21009d8058952ec1c08baae774190887e2212071f13696",
        "consistency.json": "bf5144c753cec9819ec9e26eda7e30f2485c4b1e347c18b0ee20c518ea7e3ccd",
        "contradiction.json": "7c361c58c71fb0cff2f1ecc87ad5780ed411d4b199a5325f5c40f1c083e0f9f6",
        "double_sum.json": "3f00fab6ccc4fe86c4c1512a5d31e50f2bf4095ddb454d96a4ed30f62eef2e99",
        "projection_consistency.json": "6d0621fed5ffb02deb18bad5033e45b2be262460dd369420730dd54397fa6288",
        "spec.json": "cb4e2c08c2513fba04400130c05cc21ec485e8c1531ada516ad2ef8fc354b1f6",
    },
}


@pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=(
        f"digests recorded with numpy {NUMPY_VERSION}; this is numpy {np.__version__}, "
        "whose floating-point results may differ in the last bit"
    ),
)
@pytest.mark.parametrize("body", [BOX, SLIT, PBR, NOMOLOGICAL], ids=lambda b: b["name"])
def test_artifact_digests_pinned(body, tmp_path):
    # out_dir stays null in spec.json; the run root comes from the environment
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(body))
    package_root = str(Path(qf.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
        qf.experiments.OUT_DIR_ENV: str(tmp_path / "runs"),
    }
    done = subprocess.run(
        [sys.executable, "-m", "qflab", "run", str(spec)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr
    out = tmp_path / "runs" / body["name"]
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.iterdir()
        if p.name != "manifest.json"
    }
    assert digests == DIGESTS[body["name"]]
