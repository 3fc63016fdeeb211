"""The benchmark's own parts: each output check accepts qflab's real
outputs and rejects a deliberately wrong copy; spans give the right self
times; specs depend on the seed alone.

    python3 -m pytest perfbench/tests

The outputs come from reduced versions of the workload specs (coarser
grids, fewer steps and members), so the tests run in seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import specs  # noqa: E402
import spans  # noqa: E402


def _run(spec: dict, root: Path) -> Path:
    from qflab import cli

    path = root / f"{spec['name']}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(path), "--out-dir", str(root / "out")]) == 0
    return root / "out" / spec["name"]


@pytest.fixture(scope="module")
def slit(tmp_path_factory):
    spec = specs.slit_bohm(5)[0]
    spec["grid"]["points"] = [256]
    spec["time"]["dt"] = 0.01
    spec["ensemble_size"] = 200
    return _run(spec, tmp_path_factory.mktemp("slit"))


@pytest.fixture(scope="module")
def duel(tmp_path_factory):
    spec = specs.duel_box(5)[0]
    spec["grid"]["points"] = [128]
    spec["time"]["dt"] = 0.002
    spec["ensemble_size"] = 200
    return _run(spec, tmp_path_factory.mktemp("duel"))


@pytest.fixture(scope="module")
def ontic(tmp_path_factory):
    root = tmp_path_factory.mktemp("ontic")
    pbr = next(s for s in specs.ontic_sweep(5) if s["kind"] == "pbr")
    box = next(s for s in specs.ontic_sweep(5) if s["kind"] == "ontic-model-check")
    return _run(pbr, root), _run(box, root)


def _copy(out: Path, tmp_path: Path) -> Path:
    return Path(shutil.copytree(out, tmp_path / out.name))


def _perturb_frame(path: Path, frame: int, point: int, delta: complex):
    raw = bytearray(path.read_bytes())
    (header_len,) = struct.unpack_from("<I", raw, 0)
    header = json.loads(raw[4 : 4 + header_len])
    size = header["axes"][0]["size"]
    offset = 4 + header_len + 16 * (frame * size + point)
    value = complex(*struct.unpack_from("<dd", raw, offset)) + delta
    struct.pack_into("<dd", raw, offset, value.real, value.imag)
    path.write_bytes(bytes(raw))


def _edit_positions(path: Path, new_x):
    """Replace x in every row of a positions CSV by new_x(member, row, x).

    row counts the member's rows from 0.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    seen = {}
    for i, line in enumerate(lines[1:], 1):
        m, t, x = line.split(",")
        row = seen[m] = seen.get(m, -1) + 1
        lines[i] = f"{m},{t},{new_x(int(m), row, float(x))!r}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_slit_outputs_pass(slit):
    assert checks.check_slit(slit) == []


def test_slit_rejects_perturbed_frame(slit, tmp_path):
    out = _copy(slit, tmp_path)
    _perturb_frame(out / "wave_frames.bin", frame=2, point=100, delta=1e-6)
    assert any("closed form" in f for f in checks.check_slit(out))


def test_slit_rejects_member_crossing_zero(slit, tmp_path):
    out = _copy(slit, tmp_path)
    _edit_positions(out / "bohm_positions.csv", lambda m, row, x: -x if (m, row) == (3, 1) else x)
    assert any("change the sign" in f for f in checks.check_slit(out))


def test_slit_rejects_positions_off_born(slit, tmp_path):
    out = _copy(slit, tmp_path)
    _edit_positions(out / "bohm_positions.csv", lambda m, row, x: 2.0 * x if row == 2 else x)
    assert any("KS" in f for f in checks.check_slit(out))


def test_duel_outputs_pass(duel):
    assert checks.check_duel(duel) == []


def test_duel_rejects_perturbed_frame(duel, tmp_path):
    out = _copy(duel, tmp_path)
    _perturb_frame(out / "wave_frames.bin", frame=4, point=64, delta=1e-4)
    failures = checks.check_duel(out)
    assert any("norms" in f for f in failures) and any("density moves" in f for f in failures)


def test_duel_rejects_moved_bohm_member(duel, tmp_path):
    out = _copy(duel, tmp_path)
    _edit_positions(out / "bohm_positions.csv", lambda m, row, x: x + 1e-3 if (m, row) == (7, 5) else x)
    assert any("member 7 moves" in f for f in checks.check_duel(out))


def test_duel_rejects_correlated_jumps(duel, tmp_path):
    out = _copy(duel, tmp_path)
    # each member's later draws pulled halfway to its first one
    first = {}

    def pull(m, row, x):
        first.setdefault(m, x)
        return (x + first[m]) / 2

    _edit_positions(out / "rdmp_positions.csv", pull)
    assert any("mean step" in f for f in checks.check_duel(out))


def test_ontic_outputs_pass(ontic):
    pbr, box = ontic
    assert checks.check_pbr(pbr) == []
    assert checks.check_box_model(box) == []


def test_pbr_rejects_swapped_table_entry(ontic, tmp_path):
    out = _copy(ontic[0], tmp_path)
    structure = json.loads((out / "pbr_structure.json").read_text())
    table = structure["born_matrix"]
    table[0][1], table[0][3] = table[0][3], table[0][1]
    (out / "pbr_structure.json").write_text(json.dumps(structure))
    assert any("not the PBR table" in f for f in checks.check_pbr(out))


def test_pbr_rejects_contradiction_without_shared_support(ontic, tmp_path):
    out = _copy(ontic[0], tmp_path)
    model = json.loads((out / "random_model.json").read_text())
    zero = np.asarray(model["preparations"]["zero"])
    plus = np.asarray(model["preparations"]["plus"])
    plus[zero > 0] = 0.0
    model["preparations"]["plus"] = (plus / plus.sum()).tolist()
    (out / "random_model.json").write_text(json.dumps(model))
    assert any("share 0 cells" in f for f in checks.check_pbr(out))


def test_failed_manifest_test_is_rejected(ontic, tmp_path):
    out = _copy(ontic[1], tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["tests"]["consistency"] = False
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert any("manifest tests failed" in f for f in checks.check_box_model(out))


def test_self_time_subtracts_direct_children():
    trace = {
        "spans": [
            ["cli.main", 0.0, 10.0, -1],
            ["experiments.run", 1.0, 9.0, 0],
            ["dynamics.evolve_frames", 2.0, 5.0, 1],
            ["artifacts.write_json", 6.0, 7.0, 1],
            ["artifacts.write_json", 7.5, 8.0, 1],
        ],
        "counts": dict.fromkeys(spans.Tracer().counts, 0),
    }
    metrics = spans.per_layer_metrics(trace)
    assert metrics["cli.main_self_s"] == pytest.approx(2.0)
    assert metrics["experiments.run_self_s"] == pytest.approx(3.5)
    assert metrics["dynamics.evolve_frames_s"] == pytest.approx(3.0)
    assert metrics["artifacts.write_json_s"] == pytest.approx(1.5)
    assert metrics["artifacts.self_s"] == pytest.approx(1.5)


def test_per_layer_metrics_match_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in doc["per_layer"]}
    derived = set(spans.per_layer_metrics({"spans": [], "counts": spans.Tracer().counts}))
    # the run adds these from the child's import clock and the untraced rounds
    assert listed == derived | {
        "qflab.import_s", "qflab.import_modules", "trace.run_s", "trace.overhead_s", "machine.reference_s"
    }


def test_tracer_patches_every_binding(tmp_path):
    import qflab

    tracer = spans.Tracer()
    original = qflab.dynamics.evolve_frames
    try:
        tracer.install(qflab)
        assert qflab.dynamics.evolve_frames is qflab.evolve_frames is not original
        pbr = next(s for s in specs.ontic_sweep(1) if s["kind"] == "pbr")
        _run(pbr, tmp_path)
    finally:
        # undo by re-importing, so later tests see the untraced package
        for name in [m for m in sys.modules if m == "qflab" or m.startswith("qflab.")]:
            del sys.modules[name]
    metrics = spans.per_layer_metrics(tracer.to_json())
    assert metrics["onticmodels.build_pbr_states_calls"] == 3
    assert metrics["artifacts.bytes_written"] > 0
    assert 0 < metrics["cli.main_self_s"] < sum(s[2] - s[1] for s in tracer.spans if s[0] == "cli.main")


def test_specs_follow_the_seed():
    for name, make in specs.WORKLOADS.items():
        assert make(3) == make(3), name
    first, second = specs.ontic_sweep(1), specs.ontic_sweep(2)
    assert first != second
    for sweep in (first, second):
        overlaps = [s["params"]["overlap"] for s in sweep if s["kind"] == "pbr"]
        assert all(0 < o <= 0.5 for o in overlaps)

    def sizes(sweep):
        return sorted(
            json.dumps({k: v for k, v in s["params"].items() if k != "overlap"}, sort_keys=True)
            for s in sweep
        )

    assert sizes(first) == sizes(second)
