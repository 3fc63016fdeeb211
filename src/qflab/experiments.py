"""Declarative experiment specs, canonical presets, and run pipelines.

A spec is a single JSON-able document; (spec, seed) fully determines every
artifact byte for byte.  Pipelines come in two families: wave experiments
(evolve a grid wave function, run particle dynamics over it, test the
statistics) and finite-model experiments (build ontological models, check
consistency and classification, run the two-system overlap argument).

Each run writes its artifacts plus a manifest recording the spec hash,
per-test pass/fail flags, and the artifact list.  The manifest also logs
wall-clock time, so it is the one file exempt from byte-identity.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import artifacts as art
from . import dynamics as dyn
from . import onticmodels as om
from .states import GridWaveFunction, born_density, uniform_axis

TOOL_VERSION = "1.0.0"
OUT_DIR_ENV = "QFLAB_OUT"
KINDS = ("double-slit", "box", "free-gaussian", "pbr", "ontic-model-check", "custom")
WAVE_KINDS = ("double-slit", "box", "free-gaussian", "custom")
DYNAMICS = ("bohm", "rdmp", "both", "none")
# the keys each initial-state kind reads
_INITIAL_STATE_KEYS = {
    "gaussian": ("kind", "centers", "sigmas", "momenta"),
    "two-lobe": ("kind", "separation", "sigma", "momenta"),
    "stationary": ("kind", "level"),
    "plane-wave": ("kind", "mode"),
}
_GRID_KEYS = ("lo", "hi", "points")
_TIME_KEYS = ("t_end", "dt", "sample_times", "store_every")
# the parameters each potential kind reads, all required
_POTENTIAL_PARAMS = {
    "free": (),
    "box": ("inner_lo", "inner_hi", "height"),
    "slit-barrier": ("wall_lo", "wall_hi", "slit_centers", "slit_width", "height"),
    "table": ("values",),
}
# the params each kind reads
_PARAMS = {
    "pbr": ("overlap", "n_shared", "n_exclusive"),
    "ontic-model-check": ("n_cells", "levels"),
    **dict.fromkeys(WAVE_KINDS, ()),
}
# the tolerances each kind reads
_TOLERANCES = {
    "pbr": ("scale", "structure"),
    "ontic-model-check": ("scale", "consistency"),
    **dict.fromkeys(WAVE_KINDS, ("scale", "significance", "stationary_density", "constancy")),
}

__all__ = [
    "ExperimentSpec",
    "Finding",
    "SpecValidationError",
    "RunManifest",
    "preset",
    "preset_names",
    "validate",
    "run",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a run needs, in plain JSON-able fields."""

    name: str
    kind: str
    seed: int = 0
    dynamics: str = "none"
    ensemble_size: int = 0
    grid: dict | None = None  # {"lo": [...], "hi": [...], "points": [...]}
    potential: dict | None = None
    initial_state: dict | None = None
    time: dict | None = None  # {"t_end": , "dt": , "sample_times": [...]}
    params: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    out_dir: str | None = None

    def tolerance(self, key: str, default: float) -> float:
        scale = float(self.tolerances.get("scale", 1.0))
        return float(self.tolerances.get(key, default)) * scale

    def to_json(self) -> dict:
        return art.record_dict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentSpec":
        """Spec from its JSON object; a known field set to null counts as absent."""
        names = [f.name for f in fields(cls)]
        unknown = set(obj) - set(names)
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        return cls(**{n: obj[n] for n in names if obj.get(n) is not None})

    @property
    def spec_hash(self) -> str:
        return art.spec_hash(self.to_json())

    def with_overrides(self, seed=None, out_dir=None, tolerance_scale=None) -> "ExperimentSpec":
        spec = self
        if seed is not None:
            spec = replace(spec, seed=int(seed))
        if out_dir is not None:
            spec = replace(spec, out_dir=str(out_dir))
        if tolerance_scale is not None:
            tol = dict(spec.tolerances)
            tol["scale"] = float(tolerance_scale)
            spec = replace(spec, tolerances=tol)
        return spec


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" | "warning"
    field: str
    message: str


class SpecValidationError(Exception):
    """Spec rejected; findings list the offending fields."""

    def __init__(self, findings):
        self.findings = tuple(findings)
        lines = "; ".join(f"{f.field}: {f.message}" for f in self.findings)
        super().__init__(f"invalid spec: {lines}")


@dataclass(frozen=True)
class RunManifest:
    spec_hash: str
    tool_version: str
    wall_clock_seconds: float
    tests: dict
    artifacts: tuple
    passed: bool


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def preset_names() -> tuple:
    return ("double-slit", "box", "free-gaussian", "pbr", "box-nomological", "duel-stationary")


def preset(name: str) -> ExperimentSpec:
    """Fully populated spec for a canonical experiment."""
    if name == "double-slit":
        # two coherent lobes spread and interfere; screen time deep in overlap
        return ExperimentSpec(
            name="double-slit",
            kind="double-slit",
            seed=7,
            dynamics="bohm",
            ensemble_size=10_000,
            grid={"lo": [-16.0], "hi": [16.0], "points": [1024]},
            potential={"kind": "free"},
            initial_state={"kind": "two-lobe", "separation": 7.0, "sigma": 0.7},
            time={"t_end": 3.0, "dt": 0.001, "sample_times": [1.5, 3.0]},
        )
    if name == "box":
        return ExperimentSpec(
            name="box",
            kind="box",
            seed=5,
            dynamics="bohm",
            ensemble_size=200,
            grid={"lo": [-2.0], "hi": [2.0], "points": [512]},
            potential={"kind": "box", "inner_lo": [-1.0], "inner_hi": [1.0], "height": 1e4},
            initial_state={"kind": "stationary", "level": 0},
            time={"t_end": 0.5, "dt": 0.0002, "sample_times": [0.25, 0.5]},
        )
    if name == "free-gaussian":
        return ExperimentSpec(
            name="free-gaussian",
            kind="free-gaussian",
            seed=11,
            dynamics="both",
            ensemble_size=10_000,
            grid={"lo": [-24.0], "hi": [24.0], "points": [512]},
            potential={"kind": "free"},
            initial_state={"kind": "gaussian", "centers": [0.0], "sigmas": [1.0]},
            time={
                "t_end": 2.0,
                "dt": 0.002,
                "sample_times": [round(t, 3) for t in np.linspace(0.2, 2.0, 10)],
            },
        )
    if name == "pbr":
        return ExperimentSpec(
            name="pbr",
            kind="pbr",
            seed=3,
            params={"overlap": 0.25, "n_shared": 4, "n_exclusive": 6},
        )
    if name == "box-nomological":
        return ExperimentSpec(
            name="box-nomological",
            kind="ontic-model-check",
            seed=0,
            params={"n_cells": 64, "levels": [1, 2]},
        )
    if name == "duel-stationary":
        return ExperimentSpec(
            name="duel-stationary",
            kind="box",
            seed=13,
            dynamics="both",
            ensemble_size=2000,
            grid={"lo": [-2.0], "hi": [2.0], "points": [512]},
            potential={"kind": "box", "inner_lo": [-1.0], "inner_hi": [1.0], "height": 1e4},
            initial_state={"kind": "stationary", "level": 0},
            time={
                "t_end": 0.5,
                "dt": 0.0002,
                "sample_times": [round(t, 3) for t in np.linspace(0.05, 0.5, 10)],
            },
        )
    raise ValueError(f"unknown preset {name!r}; known: {', '.join(preset_names())}")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _build_axes(grid: dict) -> tuple:
    return tuple(
        uniform_axis(lo, hi, n)
        for lo, hi, n in zip(grid["lo"], grid["hi"], grid["points"])
    )


def _build_potential(spec: ExperimentSpec) -> dyn.Potential:
    if spec.potential is None:
        return dyn.Potential.free()
    return dyn.Potential.from_json(spec.potential)


def _build_initial(spec: ExperimentSpec, axes, potential) -> GridWaveFunction:
    st = spec.initial_state
    kind = st["kind"]
    if kind == "gaussian":
        return dyn.gaussian_packet(
            axes, st["centers"], st["sigmas"], st.get("momenta")
        )
    if kind == "two-lobe":
        if len(axes) != 1:
            raise ValueError("two-lobe initial state is one-dimensional")
        return dyn.two_lobe_packet(
            axes[0], st["separation"], st["sigma"], tuple(st.get("momenta", (0.0, 0.0)))
        )
    if kind == "stationary":
        if len(axes) != 1:
            raise ValueError("stationary initial state is one-dimensional")
        # eigenstate of the run's own step map, so the run holds it still
        return dyn.stationary_state(axes[0], potential, st.get("level", 0), dt=spec.time["dt"])
    if kind == "plane-wave":
        if len(axes) != 1:
            raise ValueError("plane-wave initial state is one-dimensional")
        return dyn.plane_wave(axes[0], st["mode"])
    raise ValueError(f"unknown initial state kind {kind!r}")


def _interior_zero_risk(w: GridWaveFunction) -> bool:
    """Near-zero density strictly between two regions carrying real mass."""
    dens = born_density(w)
    for d in range(w.ndim):
        marg = dens.sum(axis=tuple(i for i in range(w.ndim) if i != d))
        peak = marg.max()
        for i in np.flatnonzero(marg < 1e-16 * peak):
            left = marg[:i].max() if i > 0 else 0.0
            right = marg[i + 1 :].max() if i + 1 < marg.size else 0.0
            if left > 1e-3 * peak and right > 1e-3 * peak:
                return True
    return False


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (
        isinstance(value, (int, float, np.integer, np.floating))
        and not isinstance(value, bool)
        and bool(np.isfinite(value))
    )


def validate(spec: ExperimentSpec) -> list:
    """Structural and sanity findings; errors make the spec unrunnable."""
    return _check(spec)[0]


def _check(spec: ExperimentSpec):
    """(findings, w0): validate's findings plus the initial state it built.

    w0 is None for finite-model kinds and for specs with errors.
    """
    findings = []

    def error(field, message):
        findings.append(Finding("error", field, message))

    def warning(field, message):
        findings.append(Finding("warning", field, message))

    def unread(section, obj, known, readers):
        """An error for each key of ``obj`` that nothing would read."""
        for key in obj:
            if key not in known:
                error(f"{section}.{key}",
                      f"{readers} read no {key!r}; known: {', '.join(known) or 'none'}")

    if spec.kind not in KINDS:
        error("kind", f"unknown kind {spec.kind!r}; known: {', '.join(KINDS)}")
        return findings, None
    if spec.dynamics not in DYNAMICS:
        error("dynamics", f"unknown dynamics {spec.dynamics!r}")
        return findings, None

    for key, value in spec.to_json().items():
        try:
            art.canonical_json(value)
        except (TypeError, ValueError) as exc:
            error(key, f"cannot be recorded in spec.json: {exc}")
    if not (isinstance(spec.name, str) and spec.name not in ("", "..")
            and Path(spec.name).name == spec.name):
        error("name", f"must be usable as one directory name, got {spec.name!r}")
    if not (_is_int(spec.seed) and spec.seed >= 0):
        error("seed", f"must be a non-negative integer, got {spec.seed!r}")
    if not isinstance(spec.tolerances, dict):
        error("tolerances", "must be a JSON object")
    else:
        unread("tolerances", spec.tolerances, _TOLERANCES[spec.kind], f"{spec.kind} experiments")
        for key, value in spec.tolerances.items():
            if key in _TOLERANCES[spec.kind] and not _is_number(value):
                error(f"tolerances.{key}", f"must be a finite number, got {value!r}")
    if not isinstance(spec.params, dict):
        error("params", "must be a JSON object")
    else:
        unread("params", spec.params, _PARAMS[spec.kind], f"{spec.kind} experiments")

    if spec.kind in ("pbr", "ontic-model-check"):
        if spec.dynamics != "none":
            error("dynamics", f"{spec.kind} experiments have no particle dynamics")
        if spec.grid is not None or spec.time is not None:
            warning("grid", f"{spec.kind} experiments ignore grid and time fields")
        if not isinstance(spec.params, dict):  # reported above
            return findings, None
        if spec.kind == "pbr":
            overlap = spec.params.get("overlap", 0.25)
            try:
                in_range = 0 < float(overlap) <= 0.5
            except (TypeError, ValueError):
                in_range = False
            if not in_range:
                error("params.overlap", f"overlap must lie in (0, 0.5], got {overlap!r}")
            for name in ("n_shared", "n_exclusive"):
                value = spec.params.get(name)
                if name in spec.params and not (_is_int(value) and value >= 1):
                    error(f"params.{name}", f"must be a positive integer, got {value!r}")
        else:
            n_cells = spec.params.get("n_cells", 64)
            if not (_is_int(n_cells) and n_cells >= 2):
                error("params.n_cells", f"must be an integer of at least 2, got {n_cells!r}")
            levels = spec.params.get("levels", [1, 2])
            if not (
                isinstance(levels, list) and levels
                and all(_is_int(n) and n >= 1 for n in levels)
                and len(set(levels)) == len(levels)
            ):
                error(
                    "params.levels",
                    f"must be a non-empty list of distinct positive integers, got {levels!r}",
                )
        return findings, None

    # wave kinds from here on
    for name in ("grid", "time", "initial_state", "potential"):
        if getattr(spec, name) is not None and not isinstance(getattr(spec, name), dict):
            error(name, "must be a JSON object")
    if findings:
        return findings, None
    if spec.grid is None:
        error("grid", "wave experiments need a grid")
    else:
        unread("grid", spec.grid, _GRID_KEYS, "wave experiments")
        lo, hi, pts = spec.grid.get("lo"), spec.grid.get("hi"), spec.grid.get("points")
        if not (isinstance(lo, list) and isinstance(hi, list) and isinstance(pts, list)
                and len(lo) == len(hi) == len(pts) and len(lo) > 0):
            error("grid", "grid needs equal-length lo/hi/points lists")
        else:
            for d, (a, b, n) in enumerate(zip(lo, hi, pts)):
                if not (_is_number(a) and _is_number(b)):
                    error("grid", f"axis {d}: lo and hi must be finite numbers")
                elif not a < b:
                    error("grid", f"axis {d}: lo must be below hi")
                if not (_is_int(n) and n >= 8):
                    error("grid.points", f"axis {d}: needs an integer of at least 8 points, got {n!r}")

    if spec.time is None:
        error("time", "wave experiments need t_end and dt")
    else:
        unread("time", spec.time, _TIME_KEYS, "wave experiments")
        t_end = spec.time.get("t_end", 0.0)
        dt = spec.time.get("dt", 0.0)
        t_end_ok = _is_number(t_end) and t_end > 0
        dt_ok = _is_number(dt) and dt > 0
        if not t_end_ok:
            error("time", "t_end must be a positive number")
        if not dt_ok:
            error("time", "dt must be a positive number")
        elif t_end_ok and dt > t_end:
            error("time", "dt exceeds t_end")
        times_ok = t_end_ok and dt_ok and dt <= t_end
        store_every = spec.time.get("store_every", 1)
        store_ok = _is_int(store_every) and store_every >= 1
        if not store_ok:
            error("time.store_every", f"store_every must be an integer of at least 1, got {store_every!r}")
        sample_times = spec.time.get("sample_times") or []
        if not (isinstance(sample_times, list) and all(_is_number(t) for t in sample_times)):
            error("time.sample_times", "sample_times must be a list of finite numbers")
        elif sample_times and times_ok:
            st = np.asarray(sample_times, dtype=float)
            n_steps = int(round(t_end / dt))
            steps = np.round(st / dt).astype(int)
            if np.any(np.diff(st) <= 0):
                error("time.sample_times", "sample_times must be strictly increasing")
            elif st[0] < 0 or st[-1] > t_end + 1e-12:
                error("time.sample_times", "sample_times must lie within [0, t_end]")
            elif np.any(np.diff(steps) == 0):
                error("time.sample_times", f"sample_times snap to steps {steps.tolist()} of "
                      f"dt = {dt}, and two fall on one step")
            elif store_ok:
                unstored = [t for t, k in zip(sample_times, steps) if k % store_every and k != n_steps]
                if unstored:
                    error(
                        "time.sample_times",
                        f"{unstored} fall between stored frames: frames are stored every "
                        f"store_every * dt = {store_every} * {dt} and at t_end",
                    )

    if spec.initial_state is None:
        error("initial_state", "wave experiments need an initial state")
    else:
        kind = spec.initial_state.get("kind")
        if not isinstance(kind, str) or kind not in _INITIAL_STATE_KEYS:
            error("initial_state",
                  f"unknown kind {kind!r}; known: {', '.join(_INITIAL_STATE_KEYS)}")
        else:
            unread("initial_state", spec.initial_state, _INITIAL_STATE_KEYS[kind],
                   f"{kind} initial states")

    if spec.potential is not None:
        kind = spec.potential.get("kind")
        if not isinstance(kind, str) or kind not in _POTENTIAL_PARAMS:
            error("potential", f"unknown potential kind {kind!r}")
        else:
            unread("potential", spec.potential, ("kind",) + _POTENTIAL_PARAMS[kind],
                   f"{kind} potentials")
            for name in _POTENTIAL_PARAMS[kind]:
                if name not in spec.potential:
                    error(f"potential.{name}", f"a {kind} potential needs {name}")

    if not (_is_int(spec.ensemble_size) and spec.ensemble_size >= 0):
        error("ensemble_size", f"must be a non-negative integer, got {spec.ensemble_size!r}")
    elif spec.dynamics != "none" and spec.ensemble_size < 100:
        error(
            "ensemble_size",
            f"{spec.ensemble_size} trajectories are underpowered for the "
            "statistical tests; need at least 100",
        )

    if any(f.severity == "error" for f in findings):
        return findings, None

    # checks and heuristics that need the grid built
    axes = _build_axes(spec.grid)
    state = spec.initial_state
    if state["kind"] == "gaussian":
        for name in ("centers", "sigmas", "momenta"):
            value = state.get(name)
            if name == "momenta" and value is None:
                continue
            if not (
                isinstance(value, list) and len(value) == len(axes)
                and all(_is_number(x) for x in value)
            ):
                error(
                    f"initial_state.{name}",
                    f"needs one finite number per grid axis ({len(axes)}), got {value!r}",
                )
            elif name == "sigmas" and min(value) <= 0:
                error("initial_state.sigmas", f"sigmas must be positive, got {value!r}")
    elif state["kind"] == "two-lobe":
        separation, sigma = state.get("separation"), state.get("sigma")
        momenta = state.get("momenta")
        if not _is_number(separation):
            error("initial_state.separation", f"must be a finite number, got {separation!r}")
        if not (_is_number(sigma) and sigma > 0):
            error("initial_state.sigma", f"must be a positive finite number, got {sigma!r}")
        if momenta is not None and not (
            isinstance(momenta, list) and len(momenta) == 2 and all(_is_number(p) for p in momenta)
        ):
            error("initial_state.momenta", f"needs two finite numbers, got {momenta!r}")
    elif state["kind"] == "plane-wave" and not _is_int(state.get("mode")):
        # a fractional mode is no periodic wave on the grid
        error("initial_state.mode", f"must be an integer, got {state.get('mode')!r}")
    if any(f.severity == "error" for f in findings):
        return findings, None
    dx_min = min(float(a[1] - a[0]) for a in axes)
    if spec.time["dt"] > dx_min:
        findings.append(
            Finding(
                "warning",
                "time",
                f"dt={spec.time['dt']} exceeds the finest grid spacing {dx_min:.4g}; "
                "fast momentum components will be under-resolved in time",
            )
        )
    if spec.dynamics == "both" and len(spec.time.get("sample_times") or []) < 2:
        error("time.sample_times", "dynamics 'both' compares the mean step between "
              "sample times, so it needs at least two")
        return findings, None
    potential = _build_potential(spec)
    try:
        finite = bool(np.all(np.isfinite(potential.on_grid(axes))))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        error("potential", f"cannot be built on the grid: {exc}")
        return findings, None
    if not finite:
        error("potential", "must be finite at every grid point")
        return findings, None
    level = state.get("level", 0)
    if state["kind"] == "stationary" and not (
        _is_int(level) and 0 <= level < axes[0].size
    ):
        error("initial_state", f"level must be an integer in [0, {axes[0].size}), got {level!r}")
        return findings, None
    try:
        w0 = _build_initial(spec, axes, potential)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        findings.append(Finding("error", "initial_state", str(exc)))
        return findings, None
    if _interior_zero_risk(w0):
        findings.append(
            Finding(
                "warning",
                "initial_state",
                "initial density has interior near-zeros; trajectories may hit nodes",
            )
        )
    return findings, w0


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def _out_dir_for(spec: ExperimentSpec) -> Path:
    root = spec.out_dir or os.environ.get(OUT_DIR_ENV) or "qflab-runs"
    return Path(root) / spec.name


def _wave_pipeline(
    spec: ExperimentSpec, w0: GridWaveFunction, out: Path, tests: dict, files: list
):
    potential = _build_potential(spec)
    dt = float(spec.time["dt"])
    t_end = float(spec.time["t_end"])
    n_steps = int(round(t_end / dt))
    sample_times = spec.time.get("sample_times") or [t_end]
    snapped = [float(np.round(t / dt) * dt) for t in sample_times]
    # one pass of the evolution: the Bohm march reads every frame as it is
    # evolved; only t = 0 and the sample frames, and the same rows of the
    # ensemble, are kept
    keep = [0.0] + snapped
    source = dyn.FrameSource(
        w0, potential, dt, n_steps, store_every=spec.time.get("store_every", 1), keep=keep
    )
    is_box = spec.kind == "box"
    bohm = spec.dynamics in ("bohm", "both")
    if bohm:
        q0 = dyn.born_sample_many(w0, spec.ensemble_size, dyn.derive_seed(spec.seed, 1))
        ensemble = dyn.run_bohm_ensemble(
            source, q0, seed=dyn.derive_seed(spec.seed, 1), keep=keep, head=10, drift=is_box,
        )
    frames = source.drain()
    # indices of the sample times in the kept frames and the kept rows alike
    sample_ids = [frames.index_at(t) for t in snapped]

    subset = dyn.WaveFrames(
        frames.axes, frames.times[sample_ids], frames.amplitudes[sample_ids]
    )
    files.append(art.write_frames(out / "wave_frames.bin", subset))

    if is_box:
        dens0 = frames.density(0)
        drift = max(
            float(np.max(np.abs(frames.density(i) - dens0))) for i in sample_ids
        )
        tests["stationary-density"] = drift <= spec.tolerance("stationary_density", 1e-6)

    if bohm:
        files.append(art.write_ensemble_csv(out / "bohm_trajectories_head.csv", ensemble.head))
        rows = ensemble.take(steps=sample_ids)
        files.append(art.write_ensemble_csv(out / "bohm_positions.csv", rows))
        files.append(art.write_json(out / "diagnostics.json", {"march": ensemble.march}))

        t_screen = snapped[-1]
        report = dyn.equivariance_test(
            ensemble,
            frames.wavefunction(sample_ids[-1]),
            t_screen,
            significance=spec.tolerance("significance", dyn.CHI2_SIGNIFICANCE),
        )
        files.append(art.write_json(out / "equivariance.json", report))
        tests["equivariance"] = report.passed

        if is_box:
            # every member at every step of the march, as a running maximum
            tests["constant-trajectories"] = ensemble.max_drift <= spec.tolerance(
                "constancy", 1e-6
            )

    if spec.dynamics in ("rdmp", "both"):
        rensemble = dyn.rdmp_ensemble(
            frames, snapped, spec.ensemble_size, dyn.derive_seed(spec.seed, 2)
        )
        files.append(art.write_ensemble_csv(out / "rdmp_positions.csv", rensemble))
        gofs = []
        for t, i in zip(snapped, sample_ids):
            gof = dyn.chi_square_gof(
                rensemble.positions_at(t),
                frames.wavefunction(i),
                significance=spec.tolerance("significance", dyn.CHI2_SIGNIFICANCE),
            )
            gofs.append({"time": t, **art.record_dict(gof)})
        files.append(art.write_json(out / "rdmp_marginals.json", gofs))
        tests["rdmp-marginals"] = all(g["passed"] for g in gofs)

    if spec.dynamics == "both":
        duel = dyn.compare_bohm_rdmp(frames, snapped, ensemble, rensemble)
        files.append(art.write_json(out / "bohm_vs_rdmp.json", duel))
        tests["tv-agreement"] = duel.tv_passed


def _pbr_pipeline(spec: ExperimentSpec, out: Path, tests: dict, files: list):
    tol = spec.tolerance("structure", 1e-12)
    construction = om.build_pbr_states()
    table = construction.probability_table()
    structure = {
        "born_matrix": table.tolist(),
        "gram_deviation": construction.measurement.gram_deviation(),
        "zero_diagonal_max": construction.zero_diagonal_max(),
        "column_sums": table.sum(axis=0).tolist(),
        "pairing": list(construction.pairing),
    }
    files.append(art.write_json(out / "pbr_structure.json", structure))
    tests["structure"] = (
        structure["gram_deviation"] <= tol
        and structure["zero_diagonal_max"] <= tol
        and max(abs(s - 1.0) for s in structure["column_sums"]) <= tol
    )

    random_model = om.random_epistemic_model(
        overlap=float(spec.params.get("overlap", 0.25)),
        seed=spec.seed,
        n_shared=int(spec.params.get("n_shared", 4)),
        n_exclusive=int(spec.params.get("n_exclusive", 6)),
    )
    catalog = dict(random_model.catalog)
    measurements = dict(random_model.measurements)
    trivial = om.build_trivial_ontic_model(catalog, measurements)
    revised = om.build_revised_overlap_model(catalog, measurements)

    outcomes = {
        "random-epistemic": om.pbr_contradiction(random_model),
        "trivial-ontic": om.pbr_contradiction(trivial),
        "revised-overlap": om.pbr_contradiction(revised),
        "random-epistemic-consistency": om.check_consistency(random_model),
    }
    files.append(art.write_json(out / "contradiction.json", outcomes))
    files.append(art.write_json(out / "random_model.json", random_model))
    tests["contradiction"] = outcomes["random-epistemic"].derivable
    tests["trivial-not-derivable"] = not outcomes["trivial-ontic"].derivable
    tests["revised-blocked"] = not outcomes["revised-overlap"].derivable
    tests["random-model-consistent"] = outcomes["random-epistemic-consistency"].passed


def _ontic_check_pipeline(spec: ExperimentSpec, out: Path, tests: dict, files: list):
    model = om.build_box_nomological_model(
        n_cells=int(spec.params.get("n_cells", 64)),
        levels=tuple(spec.params.get("levels", (1, 2))),
    )
    files.append(art.write_json(out / "box_model.json", model))

    consistency = om.check_consistency(model, tol=spec.tolerance("consistency", 1e-12))
    files.append(art.write_json(out / "consistency.json", consistency))
    tests["consistency"] = consistency.passed

    overlap_report = om.classify(model)
    files.append(art.write_json(out / "classification.json", overlap_report))
    n = len(model.preparations)
    tests["epistemic-pairs"] = (
        overlap_report.classification == "psi-epistemic"
        and len(overlap_report.epistemic_pairs) == n * (n - 1) // 2
    )

    outcome = om.pbr_contradiction(model)
    files.append(art.write_json(out / "contradiction.json", outcome))
    tests["not-derivable"] = not outcome.derivable

    projected = om.standard_projection(model)
    proj_consistency = om.check_consistency(projected)
    files.append(art.write_json(out / "projection_consistency.json", proj_consistency))
    tests["projection-fails"] = not proj_consistency.passed

    files.append(
        art.write_json(out / "double_sum.json", om.double_sum_diagnostic(model, "energy"))
    )


def run(spec: ExperimentSpec) -> RunManifest:
    """Validate, execute the pipeline, write artifacts plus manifest."""
    findings, w0 = _check(spec)
    errors = [f for f in findings if f.severity == "error"]
    if errors:
        raise SpecValidationError(errors)

    out = _out_dir_for(spec)
    out.mkdir(parents=True, exist_ok=True)
    started = _time.perf_counter()
    tests: dict = {}
    files: list = []

    files.append(art.write_json(out / "spec.json", spec))
    if findings:
        files.append(art.write_json(out / "findings.json", findings))

    if spec.kind in WAVE_KINDS:
        _wave_pipeline(spec, w0, out, tests, files)
    elif spec.kind == "pbr":
        _pbr_pipeline(spec, out, tests, files)
    elif spec.kind == "ontic-model-check":
        _ontic_check_pipeline(spec, out, tests, files)
    else:
        raise SpecValidationError([Finding("error", "kind", f"unknown kind {spec.kind!r}")])

    manifest = RunManifest(
        spec_hash=spec.spec_hash,
        tool_version=TOOL_VERSION,
        wall_clock_seconds=_time.perf_counter() - started,
        tests=tests,
        artifacts=tuple(sorted(p.name for p in files)),
        passed=all(tests.values()) if tests else True,
    )
    art.write_json(out / "manifest.json", manifest)
    return manifest
