"""Output checks for each workload, computed apart from qflab.

Each check reads the artifacts of one spec's output directory and returns
a list of failure messages; an empty list means the outputs are correct.
The references are closed forms or properties the method must have: the
free evolution of two Gaussian lobes, the standstill of a real eigenstate,
independent Born draws, and the PBR probability table.  Nothing here
imports qflab; ``wave_frames.bin`` is read by this module's own parser.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
from scipy import stats

FRAME_FORMAT = "wave-frames-v1"
FRAME_TOL = 1e-10  # closed form vs split-step; they agree to about 1e-13
STILL_TOL = 1e-9  # a Bohm member of a real eigenstate moves by roundoff only
NORM_TOL = 1e-9
DENSITY_TOL = 1e-8
KS_SIGNIFICANCE = 1e-6
MEAN_STEP_RTOL = 0.1  # about five standard errors at 200 members x 9 steps
TABLE_TOL = 1e-12

# Born probabilities of the four entangled outcomes (rows) for the product
# preparations |0>|0>, |0>|+>, |+>|0>, |+>|+> (columns).
PBR_TABLE = np.array(
    [[0.0, 0.25, 0.25, 0.5], [0.25, 0.0, 0.5, 0.25], [0.25, 0.5, 0.0, 0.25], [0.5, 0.25, 0.25, 0.0]]
)


def read_frames(path):
    """(times, axes, amplitudes) from a wave-frames-v1 file."""
    raw = Path(path).read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 0)
    header = json.loads(raw[4 : 4 + header_len].decode("utf-8"))
    if header.get("format") != FRAME_FORMAT or header.get("dtype") != "complex128":
        raise ValueError(f"{path} is not a complex128 {FRAME_FORMAT} file")
    times = np.asarray(header["times"], dtype=float)
    axes = [ax["start"] + ax["step"] * np.arange(ax["size"]) for ax in header["axes"]]
    shape = (times.size,) + tuple(ax["size"] for ax in header["axes"])
    payload = np.frombuffer(raw[4 + header_len :], dtype="<c16")
    if payload.size != int(np.prod(shape)):
        raise ValueError(f"{path}: payload holds {payload.size} amplitudes, header {shape}")
    return times, axes, payload.reshape(shape)


def read_positions(path):
    """{trajectory_id: (times, x)} from a one-dimensional positions CSV."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ids = table[:, 0].astype(int)
    return {
        int(m): (table[ids == m, 1], table[ids == m, 2]) for m in np.unique(ids)
    }


def _read_json(out: Path, name: str):
    return json.loads((out / name).read_text(encoding="utf-8"))


def _axis_failures(spec, axes):
    grid = spec["grid"]
    lo, hi, n = grid["lo"][0], grid["hi"][0], grid["points"][0]
    want = lo + (hi - lo) / n * np.arange(n)
    if len(axes) != 1 or axes[0].size != n or np.max(np.abs(axes[0] - want)) > 1e-12:
        return [f"frame axis does not match the spec grid {grid}"]
    return []


def _manifest_failures(out: Path):
    manifest = _read_json(out, "manifest.json")
    failed = sorted(name for name, ok in manifest["tests"].items() if not ok)
    if failed or not manifest["passed"]:
        return [f"{out.name}: manifest tests failed: {failed}"]
    return []


def _ks_failure(what, samples, cdf):
    result = stats.kstest(samples, cdf)
    if result.pvalue < KS_SIGNIFICANCE:
        return [f"{what}: KS p = {result.pvalue:.3g} against |psi|^2"]
    return []


# ---------------------------------------------------------------------------
# double-slit: free evolution of two Gaussian lobes
# ---------------------------------------------------------------------------


def two_lobe_closed_form(x, t, separation, sigma, period, images=3):
    """Freely evolved two-lobe packet (hbar = m = 1), summed over periodic images.

    Each lobe exp(-(x - c)^2 / (4 sigma^2)) evolves to
    exp(-(x - c)^2 / (4 sigma^2 s)) / sqrt(s) with s = 1 + i t / (2 sigma^2).
    Not normalized.
    """
    s = 1.0 + 1j * t / (2.0 * sigma**2)
    psi = np.zeros(np.shape(x), dtype=complex)
    for centre in (-separation / 2, separation / 2):
        for m in range(-images, images + 1):
            y = x + m * period - centre
            psi += np.exp(-(y**2) / (4.0 * sigma**2 * s)) / np.sqrt(s)
    return psi


def _continuum_cdf(lo, hi, density_at, n=1 << 15):
    x = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    mass = density_at(x)
    cum = np.concatenate([[0.0], np.cumsum(mass)])
    cum /= cum[-1]
    edges = lo + (hi - lo) * np.arange(n + 1) / n
    return lambda q: np.interp(q, edges, cum)


def check_slit(out: Path) -> list:
    spec = _read_json(out, "spec.json")
    state = spec["initial_state"]
    separation, sigma = state["separation"], state["sigma"]
    lo, hi = spec["grid"]["lo"][0], spec["grid"]["hi"][0]
    period = hi - lo
    failures = _manifest_failures(out)

    times, axes, amps = read_frames(out / "wave_frames.bin")
    failures += _axis_failures(spec, axes)
    x = axes[0]
    dx = x[1] - x[0]
    scale = 1.0 / np.sqrt(np.sum(np.abs(two_lobe_closed_form(x, 0.0, separation, sigma, period)) ** 2) * dx)
    for t, frame in zip(times, amps):
        exact = scale * two_lobe_closed_form(x, t, separation, sigma, period)
        err = float(np.max(np.abs(frame - exact)))
        if err > FRAME_TOL:
            failures.append(f"frame at t={t}: max |psi - closed form| = {err:.3g}")

    members = read_positions(out / "bohm_positions.csv")
    if len(members) != spec["ensemble_size"]:
        failures.append(f"{len(members)} members in bohm_positions.csv, spec has {spec['ensemble_size']}")
    t_end = float(times[-1])
    at_end = np.array([xs[np.argmin(np.abs(ts - t_end))] for ts, xs in members.values()])
    failures += _ks_failure(
        f"Bohm positions at t={t_end}",
        at_end,
        _continuum_cdf(lo, hi, lambda q: np.abs(two_lobe_closed_form(q, t_end, separation, sigma, period)) ** 2),
    )

    # psi is even in x, so the current through x = 0 vanishes at all times
    for source in ("bohm_positions.csv", "bohm_trajectories_head.csv"):
        crossed = [m for m, (_, xs) in read_positions(out / source).items() if np.ptp(np.sign(xs)) != 0]
        if crossed:
            failures.append(f"{source}: members {crossed[:5]} change the sign of x")
    return failures


# ---------------------------------------------------------------------------
# box: a real eigenstate of the box
# ---------------------------------------------------------------------------


def _cell_law(x, density, lo, hi):
    """CDF edges and values of the density spread evenly over each grid cell.

    Cells are centred on grid points, and the first one straddles the
    periodic seam, so half its mass sits just below hi.
    """
    dx = x[1] - x[0]
    mass = density / density.sum()
    edges = np.concatenate([[lo], x + dx / 2, [hi]])
    masses = np.concatenate([[mass[0] / 2], mass[1:], [mass[0] / 2]])
    return edges, np.concatenate([[0.0], np.cumsum(masses)])


def expected_jump(edges, cdf, fine=16):
    """E|X - Y| for X, Y independent draws from a piecewise-linear CDF.

    Uses E|X - Y| = 2 * integral of F (1 - F) dx.
    """
    q = np.concatenate(
        [np.linspace(a, b, fine, endpoint=False) for a, b in zip(edges[:-1], edges[1:])] + [[edges[-1]]]
    )
    f = np.interp(q, edges, cdf)
    g = f * (1.0 - f)
    return float(np.sum((g[1:] + g[:-1]) / 2 * np.diff(q)) * 2)


def check_duel(out: Path) -> list:
    spec = _read_json(out, "spec.json")
    lo, hi = spec["grid"]["lo"][0], spec["grid"]["hi"][0]
    failures = _manifest_failures(out)

    times, axes, amps = read_frames(out / "wave_frames.bin")
    failures += _axis_failures(spec, axes)
    x = axes[0]
    dx = x[1] - x[0]
    density = np.abs(amps) ** 2
    norm_err = float(np.max(np.abs(density.sum(axis=1) * dx - 1.0)))
    if norm_err > NORM_TOL:
        failures.append(f"frame norms deviate from 1 by {norm_err:.3g}")
    drift = float(np.max(np.abs(density - density[0])))
    if drift > DENSITY_TOL:
        failures.append(f"density moves by {drift:.3g} over the sample times")

    for source in ("bohm_positions.csv", "bohm_trajectories_head.csv"):
        moved = {m: float(np.ptp(xs)) for m, (_, xs) in read_positions(out / source).items()}
        worst = max(moved, key=moved.get)
        if moved[worst] > STILL_TOL:
            failures.append(f"{source}: member {worst} moves by {moved[worst]:.3g}")

    jumps = read_positions(out / "rdmp_positions.csv")
    if len(jumps) != spec["ensemble_size"]:
        failures.append(f"{len(jumps)} members in rdmp_positions.csv, spec has {spec['ensemble_size']}")
    edges, cdf = _cell_law(x, density[0], lo, hi)
    pooled = np.concatenate([xs for _, xs in jumps.values()])
    failures += _ks_failure("RDMP positions", pooled, lambda q: np.interp(q, edges, cdf))

    mean_step = float(np.mean([np.mean(np.abs(np.diff(xs))) for _, xs in jumps.values()]))
    expected = expected_jump(edges, cdf)
    if abs(mean_step / expected - 1.0) > MEAN_STEP_RTOL:
        failures.append(f"RDMP mean step {mean_step:.4g}, independent draws give {expected:.4g}")
    reported = _read_json(out, "bohm_vs_rdmp.json")
    if abs(reported["rdmp_mean_step"] - mean_step) > 1e-9 * mean_step:
        failures.append(f"bohm_vs_rdmp.json reports RDMP mean step {reported['rdmp_mean_step']}, CSV gives {mean_step}")
    if reported["bohm_mean_step"] > STILL_TOL:
        failures.append(f"bohm_vs_rdmp.json reports Bohm mean step {reported['bohm_mean_step']}")
    return failures


# ---------------------------------------------------------------------------
# pbr and ontic-model-check: PBR construction and finite models
# ---------------------------------------------------------------------------


def check_pbr(out: Path) -> list:
    failures = _manifest_failures(out)
    table = np.asarray(_read_json(out, "pbr_structure.json")["born_matrix"])
    if table.shape != PBR_TABLE.shape or np.max(np.abs(table - PBR_TABLE)) > TABLE_TOL:
        failures.append(f"{out.name}: born_matrix {table.tolist()} is not the PBR table")

    model = _read_json(out, "random_model.json")
    labels = model["labels"]
    zero = np.asarray(model["preparations"]["zero"])
    plus = np.asarray(model["preparations"]["plus"])
    shared = {labels[i] for i in np.flatnonzero((zero > 0) & (plus > 0))}
    outcome = _read_json(out, "contradiction.json")["random-epistemic"]
    if outcome["derivable"] != bool(shared):
        failures.append(
            f"{out.name}: derivable={outcome['derivable']} but zero and plus share {len(shared)} cells"
        )
    elif shared and not set(outcome["witness"]) <= shared:
        failures.append(f"{out.name}: witness {outcome['witness']} is outside the shared support")
    return failures


def check_box_model(out: Path) -> list:
    failures = _manifest_failures(out)
    params = _read_json(out, "spec.json")["params"]
    model = _read_json(out, "box_model.json")
    centres = (np.arange(params["n_cells"]) + 0.5) / params["n_cells"]
    for level in params["levels"]:
        want = np.sin(level * np.pi * centres) ** 2
        got = np.asarray(model["preparations"][f"E{level}"])
        if got.shape != want.shape or np.max(np.abs(got - want / want.sum())) > TABLE_TOL:
            failures.append(f"{out.name}: preparation E{level} is not sin^2({level} pi x)")
    if _read_json(out, "contradiction.json")["derivable"]:
        failures.append(f"{out.name}: contradiction derived against a revised-mode model")
    return failures


CHECKS = {"box": check_duel, "double-slit": check_slit, "pbr": check_pbr, "ontic-model-check": check_box_model}


def check_outputs(out_root: Path, names) -> list:
    """Failures over the output directories of every spec in one round."""
    failures = []
    for name in names:
        out = out_root / name
        try:
            failures += CHECKS[_read_json(out, "spec.json")["kind"]](out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures.append(f"{name}: unreadable outputs: {exc!r}")
    return failures


def artifact_digests(out_root: Path) -> dict:
    """sha256 of every artifact, ignoring the wall time in manifest.json and
    the output directory recorded in spec.json."""
    digests = {}
    for p in sorted(out_root.rglob("*")):
        if not p.is_file() or p.name == "manifest.json":
            continue
        data = p.read_bytes()
        if p.name == "spec.json":
            spec = json.loads(data)
            spec.pop("out_dir", None)
            data = json.dumps(spec, sort_keys=True).encode("utf-8")
        digests[str(p.relative_to(out_root))] = hashlib.sha256(data).hexdigest()
    return digests
