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

import math
import os
import sys
import time as _time
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import artifacts as art
from . import dynamics as dyn
from . import onticmodels as om
from .states import GridWaveFunction, born_density, uniform_axis

TOOL_VERSION = "1.0.0"
OUT_DIR_ENV = "QFLAB_OUT"
# four kind names that run one wave pipeline; spec.json records the name
WAVE_KINDS = ("double-slit", "box", "free-gaussian", "custom")
DYNAMICS = ("bohm", "rdmp", "both", "none")


_REQUIRED = object()  # the default of a key that has none


class _Rule:
    """A spec key's type, range and default: a finite number, an integer
    when ``integer``, from ``lo`` to ``hi`` (an end is closed unless open),
    or a list of them when ``shape`` is "axes" (one per grid axis), an int
    (that many), "list" (any number) or "distinct" (one or more distinct);
    "grid" leaves the value to the checks on the grid.  A plain class: a
    dataclass would add about 2 ms to every import."""

    def __init__(self, integer=False, lo=-math.inf, hi=math.inf, lo_open=False,
                 hi_open=False, shape=None, default=_REQUIRED):
        self.integer, self.lo, self.hi, self.lo_open = integer, lo, hi, lo_open
        self.hi_open, self.shape, self.default = hi_open, shape, default

    def _fits(self, x) -> bool:
        types = (int, np.integer) if self.integer else (int, float, np.integer, np.floating)
        return (isinstance(x, types) and not isinstance(x, bool) and abs(x) <= sys.float_info.max
                and (self.lo < x if self.lo_open else self.lo <= x)
                and (x < self.hi if self.hi_open else x <= self.hi))

    def problem(self, value, n_axes):
        """What is wrong with ``value``, or None.  ``n_axes`` is the number
        of grid axes, None while the grid is unknown."""
        count = n_axes if self.shape == "axes" else self.shape
        if self.shape is None:
            ok = self._fits(value)
        else:
            ok = self.shape == "grid" or (
                isinstance(value, list) and (value or self.shape == "list")
                and all(map(self._fits, value))
                and (not isinstance(count, int) or len(value) == count)
                and (self.shape != "distinct" or len(set(value)) == len(value)))
        if ok:
            return None
        what = "an integer" if self.integer else "a finite number"
        if self.hi < math.inf:
            what += (f" in {'(' if self.lo_open else '['}{self.lo:g}, "
                     f"{self.hi:g}{')' if self.hi_open else ']'}")
        elif self.lo > -math.inf:
            what += f" above {self.lo:g}" if self.lo_open else f" of at least {self.lo:g}"
        if self.shape is not None:
            entries = {"axes": f"one entry per grid axis ({count or 'one or more'})",
                       "list": "entries", "distinct": "one or more distinct entries"}
            what = f"a list of {entries.get(self.shape, f'{count} entries')}, each {what}"
        return f"must be {what}, got {value!r}"


_NUMBER, _POSITIVE, _PER_AXIS = _Rule(), _Rule(lo=0, lo_open=True), _Rule(shape="axes")
_SCALE = _Rule(lo=0, lo_open=True, default=1.0)
_EXACT = _Rule(lo=0, lo_open=True, default=1e-12)  # the finite models' tolerances

# The keys each section of a spec reads, one entry per section and kind:
# params and tolerances go by the experiment kind, initial_state and
# potential by their own "kind" key.  A key set to null counts as absent.
# The pipelines read their defaults from here.
_FIELDS = {
    ("params", "pbr"): {
        "overlap": _Rule(lo=0, lo_open=True, hi=0.5, default=0.25),
        # at most 1024 + 2 * 512 = 2048 ontic states: a run of about 0.2 s
        # and 270 MB (4096 states take 0.9 GB)
        "n_shared": _Rule(integer=True, lo=1, hi=1024, default=4),
        "n_exclusive": _Rule(integer=True, lo=1, hi=512, default=6),
    },
    ("params", "ontic-model-check"): {
        # 16 levels on 4096 cells run in about 0.5 s
        "n_cells": _Rule(integer=True, lo=2, hi=4096, default=64),
        "levels": _Rule(integer=True, lo=1, hi=16, shape="distinct", default=(1, 2)),
    },
    ("params", WAVE_KINDS): {},
    ("tolerances", "pbr"): {"scale": _SCALE, "structure": _EXACT},
    ("tolerances", "ontic-model-check"): {"scale": _SCALE, "consistency": _EXACT},
    ("tolerances", WAVE_KINDS): {
        "scale": _SCALE,
        "significance": _Rule(lo=0, lo_open=True, hi=1, hi_open=True,
                              default=dyn.CHI2_SIGNIFICANCE),
        "stationary_density": _Rule(lo=0, lo_open=True, default=1e-6),
        "constancy": _Rule(lo=0, lo_open=True, default=1e-6),
    },
    ("grid", None): {
        "lo": _PER_AXIS, "hi": _PER_AXIS, "points": _Rule(integer=True, lo=8, shape="axes"),
    },
    ("time", None): {
        "t_end": _POSITIVE, "dt": _POSITIVE, "store_every": _Rule(integer=True, lo=1, default=1),
        "sample_times": _Rule(shape="list", default=()),  # none: t_end alone
    },
    ("initial_state", "gaussian"): {
        "centers": _PER_AXIS, "sigmas": _Rule(lo=0, lo_open=True, shape="axes"),
        "momenta": _Rule(shape="axes", default=None),  # none: at rest
    },
    ("initial_state", "two-lobe"): {
        "separation": _NUMBER, "sigma": _POSITIVE, "momenta": _Rule(shape=2, default=(0.0, 0.0)),
    },
    ("initial_state", "stationary"): {"level": _Rule(integer=True, lo=0, default=0)},
    # a fractional mode is no periodic wave on the grid
    ("initial_state", "plane-wave"): {"mode": _Rule(integer=True)},
    ("potential", "free"): {},
    ("potential", "box"): {"inner_lo": _PER_AXIS, "inner_hi": _PER_AXIS, "height": _NUMBER},
    ("potential", "slit-barrier"): {
        "wall_lo": _NUMBER, "wall_hi": _NUMBER, "slit_centers": _Rule(shape="list"),
        "slit_width": _NUMBER, "height": _NUMBER,
    },
    ("potential", "table"): {"values": _Rule(shape="grid")},
}
_ENTRIES = {(section, kind): entry for (section, kinds), entry in _FIELDS.items()
            for kind in (kinds if isinstance(kinds, tuple) else (kinds,))}
KINDS = tuple(kind for section, kind in _ENTRIES if section == "params")
_WAVE_SECTIONS = ("grid", "time", "initial_state", "potential")
_KINDED = ("initial_state", "potential")  # sections whose "kind" key picks their entry
_SEED = _Rule(integer=True, lo=0)
# the most split steps and grid points a wave run may ask for: a 64-frame
# chunk of 2^18 points is 256 MiB
_MAX_STEPS, _MAX_POINTS = 10**6, 2**18
# the most members a wave run may ask for: ten times the 10^6 that the
# largest planned run draws, and 80 MB a row of 1-D positions (10^13
# members asked for 73 TiB)
_MAX_MEMBERS = 10**7
_MEMBERS = _Rule(integer=True, lo=0, hi=_MAX_MEMBERS)

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

    def tolerance(self, key: str) -> float:
        return float(_read(self, "tolerances", key)) * float(_read(self, "tolerances", "scale"))

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
        if tolerance_scale is not None and isinstance(spec.tolerances, dict):
            # tolerances that are no object are reported by validation
            spec = replace(spec, tolerances={**spec.tolerances, "scale": float(tolerance_scale)})
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


def _build_potential(spec: ExperimentSpec) -> dyn.Potential:
    return dyn.Potential.from_json(spec.potential or {"kind": "free"})


def _build_initial(spec: ExperimentSpec, axes, potential) -> GridWaveFunction:
    st = spec.initial_state
    kind = st["kind"]
    if kind == "gaussian":
        momenta = _read(spec, "initial_state", "momenta")
        return dyn.gaussian_packet(axes, st["centers"], st["sigmas"], momenta)
    if len(axes) != 1:
        raise ValueError(f"{kind} initial state is one-dimensional")
    if kind == "two-lobe":
        momenta = tuple(_read(spec, "initial_state", "momenta"))
        return dyn.two_lobe_packet(axes[0], st["separation"], st["sigma"], momenta)
    if kind == "stationary":
        level = _read(spec, "initial_state", "level")
        if level >= axes[0].size:
            raise ValueError(f"level must be an integer in [0, {axes[0].size}), got {level!r}")
        # eigenstate of the run's own step map, so the run holds it still
        return dyn.stationary_state(axes[0], potential, level, spec.time["dt"])
    return dyn.plane_wave(axes[0], st["mode"])


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


def _entry(spec: ExperimentSpec, section: str):
    """A section's table entry, None for a kind the table lacks."""
    if section in ("params", "tolerances"):
        return _ENTRIES.get((section, spec.kind))
    obj = getattr(spec, section)
    kind = obj.get("kind") if section in _KINDED and isinstance(obj, dict) else None
    return _ENTRIES.get((section, kind)) if kind is None or isinstance(kind, str) else None


def _read(spec: ExperimentSpec, section: str, key: str):
    """The spec's value of ``section.key``, or its default from the table."""
    value = (getattr(spec, section) or {}).get(key)
    return _entry(spec, section)[key].default if value is None else value


def validate(spec: ExperimentSpec) -> list:
    """Structural and sanity findings; errors make the spec unrunnable."""
    return _check(spec)[0]


def _check(spec: ExperimentSpec):
    """(findings, w0): validate's findings plus the initial state it built,
    None for finite-model kinds and for specs with errors.  The table checks
    each section's keys; the checks across fields and on the grid follow."""
    findings = []

    def error(field, message):
        findings.append(Finding("error", field, message))

    for name, known in (("kind", KINDS), ("dynamics", DYNAMICS)):
        if getattr(spec, name) not in known:
            error(name, f"unknown {name} {getattr(spec, name)!r}; known: {', '.join(known)}")
            return findings, None

    record = spec.to_json()
    try:
        art.canonical_json(record)
    except (TypeError, ValueError):  # find the fields at fault
        for key, value in record.items():
            try:
                art.canonical_json(value)
            except (TypeError, ValueError) as exc:
                error(key, f"cannot be recorded in spec.json: {exc}")
    if not (isinstance(spec.name, str) and spec.name not in ("", "..")
            and Path(spec.name).name == spec.name):
        error("name", f"must be usable as one directory name, got {spec.name!r}")
    if problem := _SEED.problem(spec.seed, None):
        error("seed", problem)
    wave = spec.kind in WAVE_KINDS
    if not wave:
        if spec.dynamics != "none":
            error("dynamics", f"{spec.kind} experiments have no particle dynamics")
        if spec.grid is not None or spec.time is not None:
            findings.append(Finding("warning", "grid",
                                    f"{spec.kind} experiments ignore grid and time fields"))
        for section in ("potential", "initial_state"):
            if getattr(spec, section) is not None:
                findings.append(Finding("warning", section,
                                        f"{spec.kind} experiments ignore the {section} field"))
    elif problem := _MEMBERS.problem(spec.ensemble_size, None):
        error("ensemble_size", problem)
    elif spec.dynamics != "none" and spec.ensemble_size < 100:
        error("ensemble_size", f"{spec.ensemble_size} trajectories are underpowered for the "
              "statistical tests; need at least 100")

    points = spec.grid.get("points") if isinstance(spec.grid, dict) else None
    n_axes = len(points) if isinstance(points, list) and points else None
    for section in ("params", "tolerances") + (_WAVE_SECTIONS if wave else ()):
        obj, entry = getattr(spec, section), _entry(spec, section)
        if obj is None:  # no params, tolerances or potential: defaults, a free potential
            if section in ("grid", "time", "initial_state"):
                error(section, f"wave experiments need {section}")
            continue
        if not isinstance(obj, dict):
            error(section, "must be a JSON object")
            continue
        if entry is None:
            known = ", ".join(k for s, k in _ENTRIES if s == section)
            error(section, f"unknown kind {obj.get('kind')!r}; known: {known}")
            continue
        known = (("kind",) if section in _KINDED else ()) + tuple(entry)
        for key in obj:
            if key not in known:
                error(f"{section}.{key}", f"nothing reads it; known: {', '.join(known) or 'none'}")
        for key, rule in entry.items():
            if obj.get(key) is None:
                if rule.default is _REQUIRED:
                    error(f"{section}.{key}", f"{section} needs {key}")
            elif problem := rule.problem(obj[key], n_axes):
                error(f"{section}.{key}", problem)
    if spec.kind == "ontic-model-check" and not any(f.severity == "error" for f in findings):
        # on n cells, level 2n - L samples as level L, and level 2n as zero
        n_cells = _read(spec, "params", "n_cells")
        if max(_read(spec, "params", "levels")) > n_cells:
            error("params.levels", f"must be at most n_cells = {n_cells}: a higher level "
                  "aliases onto a lower one on the cells")
    if not wave or findings:
        return findings, None

    # checks that relate fields to each other, or need the grid built
    grid = spec.grid
    for d, (lo, hi, n) in enumerate(zip(grid["lo"], grid["hi"], grid["points"])):
        if not (lo < hi and math.isfinite((hi - lo) / n)):
            error("grid", f"axis {d}: lo must be below hi, at a finite spacing")
        # the periodic images of a point, one period hi - lo either side, and
        # the sum of two points must be finite
        elif not math.isfinite(2 * (max(abs(lo), abs(hi)) + (hi - lo))):
            error("grid", f"axis {d}: lo and hi are too large; 2 (max(|lo|, |hi|) + hi - lo) "
                  "overflows")
    pot = spec.potential or {}
    if pot.get("kind") == "box":
        for d, (lo, hi) in enumerate(zip(pot["inner_lo"], pot["inner_hi"])):
            if not lo < hi:  # else the box has no inside: the wall covers the grid
                error("potential.inner_lo", f"axis {d}: inner_lo must be below inner_hi")
    elif pot.get("kind") == "slit-barrier" and pot["wall_lo"] > pot["wall_hi"]:
        error("potential.wall_lo", "must not be above wall_hi, or there is no wall")
    n_points = math.prod(grid["points"])
    if n_points > _MAX_POINTS:
        error("grid.points", f"{n_points:,} points in all; at most {_MAX_POINTS:,}")
    t_end, dt = spec.time["t_end"], spec.time["dt"]
    if t_end / dt > _MAX_STEPS:
        error("time.dt", f"t_end / dt = {t_end / dt:.3g} split steps; at most {_MAX_STEPS:,}")
    if findings:
        return findings, None
    axes = tuple(uniform_axis(*axis) for axis in zip(grid["lo"], grid["hi"], grid["points"]))
    dx_min = min(float(a[1] - a[0]) for a in axes)
    if not math.isfinite(dt * (math.pi / dx_min) * (math.pi / dx_min) * len(axes)):
        error("time.dt", "the split step's kinetic phase dt k^2 / 2 overflows on this grid")
    if dt > dx_min:
        findings.append(Finding("warning", "time.dt", f"dt={dt} exceeds the finest grid "
                                f"spacing {dx_min:.4g}; fast momentum components will be "
                                "under-resolved in time"))
    sample_times = _read(spec, "time", "sample_times")
    if dt > t_end:
        error("time.dt", "dt exceeds t_end")
    elif sample_times:
        st = np.asarray(sample_times, dtype=float)
        # in range before they become step numbers: a far time overflows the cast
        if np.any(st < 0) or np.any(st > t_end + 1e-12):
            error("time.sample_times", "sample_times must lie within [0, t_end]")
        else:
            steps = np.round(st / dt).astype(int)
            n_steps = int(round(t_end / dt))
            store_every = _read(spec, "time", "store_every")
            unstored = [t for t, k in zip(sample_times, steps) if k % store_every and k != n_steps]
            if np.any(np.diff(steps) <= 0):
                error("time.sample_times", f"sample_times snap to steps {steps.tolist()} of "
                      f"dt = {dt}; each must fall on a later step than the one before")
            elif unstored:
                error("time.sample_times", f"{unstored} fall between stored frames: frames "
                      f"are stored every store_every * dt = {store_every} * {dt} and at t_end")
    if spec.dynamics == "both" and len(sample_times) < 2:
        error("time.sample_times", "dynamics 'both' compares the mean step between "
              "sample times, so it needs at least two")
    if any(f.severity == "error" for f in findings):
        return findings, None
    potential = _build_potential(spec)
    try:
        finite = math.isfinite(float(np.max(np.abs(potential.on_grid(axes)))) * dt)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        error("potential", f"cannot be built on the grid: {exc}")
        return findings, None
    if not finite:
        error("potential", "must be finite, and so must dt times it, at every grid point")
        return findings, None
    try:
        with np.errstate(all="ignore"):  # overflow shows as a non-finite amplitude
            w0 = _build_initial(spec, axes, potential)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        error("initial_state", str(exc))
        return findings, None
    if not np.all(np.isfinite(w0.amplitudes)):
        error("initial_state", "has a non-finite amplitude on the grid")
        return findings, None
    if _interior_zero_risk(w0):
        findings.append(Finding("warning", "initial_state", "initial density has interior "
                                "near-zeros; trajectories may hit nodes"))
    if problem := dyn._momentum_resolution_problem(w0):
        findings.append(Finding("warning", "grid.points", problem))
    return findings, w0


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def _out_dir_for(spec: ExperimentSpec) -> Path:
    root = spec.out_dir or os.environ.get(OUT_DIR_ENV) or "qflab-runs"
    return Path(root) / spec.name


def _wave_pipeline(spec: ExperimentSpec, w0: GridWaveFunction, out: Path, tests: dict,
                   files: list, findings: list):
    potential = _build_potential(spec)
    dt = float(spec.time["dt"])
    t_end = float(spec.time["t_end"])
    n_steps = int(round(t_end / dt))
    sample_times = _read(spec, "time", "sample_times") or [t_end]
    snapped = [float(np.round(t / dt) * dt) for t in sample_times]
    # one pass of the evolution: the Bohm march reads every frame as it is
    # evolved; only the sample frames, and the same rows of the ensemble,
    # are kept
    store_every = _read(spec, "time", "store_every")
    with warnings.catch_warnings():  # validation recorded it as a finding on grid.points
        warnings.simplefilter("ignore", dyn.MomentumResolutionWarning)
        source = dyn.FrameSource(w0, potential, dt, n_steps, store_every=store_every,
                                 keep=snapped)
    is_box = spec.kind == "box"
    bohm = spec.dynamics in ("bohm", "both")
    if bohm:
        q0 = dyn.born_sample_many(w0, spec.ensemble_size, dyn.derive_seed(spec.seed, 1))
        ensemble = dyn.run_bohm_ensemble(source, q0, keep=snapped, head=10, drift=is_box)
    frames = source.drain()  # the sample frames, in order
    files.append(art.write_frames(out / "wave_frames.bin", frames))

    if is_box:
        dens0 = born_density(w0)  # frame 0 is w0, bit for bit
        drift = max(float(np.max(np.abs(frames.density(i) - dens0)))
                    for i in range(frames.n_frames))
        tests["stationary-density"] = drift <= spec.tolerance("stationary_density")

    if bohm:
        files.append(art.write_ensemble_csv(out / "bohm_trajectories_head.csv", ensemble.head))
        files.append(art.write_ensemble_csv(out / "bohm_positions.csv", ensemble))
        files.append(art.write_json(out / "diagnostics.json", {"march": ensemble.march}))
        error, tol = ensemble.march.max_error, ensemble.march.tolerance
        if error is not None and error > tol:
            # the march accepts a frame-pair step whatever its error estimate
            findings.append(Finding("warning", "march", f"max error {error:.1e} is above "
                                    f"the tolerance {tol:.1e}"))

        t_screen = snapped[-1]
        report = dyn.equivariance_test(
            ensemble,
            frames.wavefunction(frames.n_frames - 1),
            t_screen,
            significance=spec.tolerance("significance"),
        )
        files.append(art.write_json(out / "equivariance.json", report))
        tests["equivariance"] = report.passed

        if is_box:
            # every member at every step of the march, as a running maximum
            tests["constant-trajectories"] = ensemble.max_drift <= spec.tolerance("constancy")

    if spec.dynamics in ("rdmp", "both"):
        rensemble = dyn.rdmp_ensemble(
            frames, snapped, spec.ensemble_size, dyn.derive_seed(spec.seed, 2)
        )
        files.append(art.write_ensemble_csv(out / "rdmp_positions.csv", rensemble))
        gofs = []
        for i, t in enumerate(snapped):
            gof = dyn.chi_square_gof(
                rensemble.positions_at(t),
                frames.wavefunction(i),
                significance=spec.tolerance("significance"),
            )
            gofs.append({"time": t, **art.record_dict(gof)})
        files.append(art.write_json(out / "rdmp_marginals.json", gofs))
        tests["rdmp-marginals"] = all(g["passed"] for g in gofs)

    if spec.dynamics == "both":
        duel = dyn.compare_bohm_rdmp(frames, snapped, ensemble, rensemble)
        files.append(art.write_json(out / "bohm_vs_rdmp.json", duel))
        tests["tv-agreement"] = duel.tv_passed


def _pbr_pipeline(spec: ExperimentSpec, out: Path, tests: dict, files: list):
    tol = spec.tolerance("structure")
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
        overlap=float(_read(spec, "params", "overlap")),
        seed=spec.seed,
        n_shared=int(_read(spec, "params", "n_shared")),
        n_exclusive=int(_read(spec, "params", "n_exclusive")),
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
        n_cells=int(_read(spec, "params", "n_cells")),
        levels=tuple(_read(spec, "params", "levels")),
    )
    files.append(art.write_json(out / "box_model.json", model))

    consistency = om.check_consistency(model, tol=spec.tolerance("consistency"))
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
    if spec.kind in WAVE_KINDS:
        _wave_pipeline(spec, w0, out, tests, files, findings)
    elif spec.kind == "pbr":
        _pbr_pipeline(spec, out, tests, files)
    else:
        _ontic_check_pipeline(spec, out, tests, files)
    if findings:
        files.append(art.write_json(out / "findings.json", findings))

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
