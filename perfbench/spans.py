"""Spans around qflab's public functions and methods, and the per-layer
metrics derived from them.

``Tracer.install`` replaces every public function of the traced modules,
and every public method of their classes, with a wrapper that records a
span (name, start, end, parent).  Module attributes are patched wherever
they are bound -- ``qflab.run_bohm_ensemble`` and
``qflab.dynamics.run_bohm_ensemble`` are separate bindings of one function,
fixed at import -- so each call goes through one wrapper.  Spans stay in
memory until the run ends; ``per_layer_metrics`` turns them into
inclusive times, self times, call counts and the work counters recorded
alongside them.

This module uses only the standard library, so importing it adds nothing
to the measured import of qflab.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import is_dataclass

# conditional is not on the path of `qflab run`.
MODULES = ("cli", "experiments", "dynamics", "interpolation", "states", "onticmodels", "artifacts")
_TRACED_DUNDERS = ("__init__", "__call__")
MB = 2.0**20


def _n_points(points) -> int:
    shape = getattr(points, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return int(shape[0])


def _arg(args, kwargs, index, name, default=None):
    """A call's argument, whether it was passed by position or by name."""
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _count_prefilter(counts, args, kwargs, result):
    if _arg(args, kwargs, 3, "coefficients") is None:
        counts["interpolation.prefilters"] += 1


def _count_eval_points(counts, args, kwargs, result):
    counts["interpolation.eval_points"] += _n_points(_arg(args, kwargs, 1, "points"))


def _count_velocity_points(counts, args, kwargs, result):
    counts["dynamics.velocity_points"] += _n_points(_arg(args, kwargs, 1, "points"))


def _count_frames(counts, args, kwargs, result):
    counts["dynamics.frames_mb"] += result.amplitudes.nbytes / MB


def _count_member_steps(counts, args, kwargs, result):
    frames = _arg(args, kwargs, 0, "frames")
    positions = _arg(args, kwargs, 1, "positions0")
    counts["dynamics.member_steps"] += (frames.n_frames - 1) * _n_points(positions)


def _count_bytes(counts, args, kwargs, result):
    counts["artifacts.bytes_written"] += result.stat().st_size


# Work counters, keyed by span name.  Bytes are counted at the writers that
# touch the disk, so nested writers are not counted twice.
COUNTERS = {
    "interpolation.CubicGridInterpolator.__init__": _count_prefilter,
    "interpolation.CubicGridInterpolator.__call__": _count_eval_points,
    "dynamics.VelocityField.velocity": _count_velocity_points,
    "dynamics.evolve_frames": _count_frames,
    "dynamics.run_bohm_ensemble": _count_member_steps,
    "artifacts.write_json": _count_bytes,
    "artifacts.write_csv": _count_bytes,
    "artifacts.write_frames": _count_bytes,
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = dict.fromkeys(
            ("interpolation.prefilters", "interpolation.eval_points",
             "dynamics.velocity_points", "dynamics.frames_mb",
             "dynamics.member_steps", "artifacts.bytes_written"),
            0,
        )
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap the public callables of ``package``'s traced modules."""
        functions = {}  # id(original) -> wrapper, rebound in every module below
        for short in MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions[id(obj)] = self.wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        dunder = attr in _TRACED_DUNDERS and not is_dataclass(obj)
                        if inspect.isfunction(member) and (dunder or not attr.startswith("_")):
                            setattr(obj, attr, self.wrap(f"{short}.{name}.{attr}", member))
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in functions:
                    setattr(module, name, functions[id(obj)])

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _inclusive_and_self(spans):
    """Per name: calls, inclusive seconds (outermost calls only), self seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, inclusive, own = {}, {}, {}
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + duration - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] = inclusive.get(name, 0.0) + duration
    return calls, inclusive, own


def per_layer_metrics(trace: dict) -> dict:
    """Per-layer metrics (name -> value) from one traced run's spans and counts."""
    spans = [tuple(s) for s in trace["spans"]]
    counts = trace["counts"]
    calls, inclusive, own = _inclusive_and_self(spans)

    def total(name):
        return inclusive.get(name, 0.0)

    out = {
        "cli.main_self_s": own.get("cli.main", 0.0),
        "experiments.validate_s": total("experiments.validate"),
        "experiments.run_self_s": own.get("experiments.run", 0.0),
        "dynamics.stationary_state_s": total("dynamics.stationary_state"),
        "dynamics.stationary_state_calls": calls.get("dynamics.stationary_state", 0),
        "dynamics.evolve_frames_s": total("dynamics.evolve_frames"),
        "dynamics.frames_mb": counts["dynamics.frames_mb"],
        "dynamics.velocity_field_init_s": total("dynamics.VelocityField.__init__"),
        "dynamics.run_bohm_ensemble_s": total("dynamics.run_bohm_ensemble"),
        "dynamics.run_bohm_ensemble_calls": calls.get("dynamics.run_bohm_ensemble", 0),
        "dynamics.velocity_calls": calls.get("dynamics.VelocityField.velocity", 0),
        "dynamics.velocity_points": counts["dynamics.velocity_points"],
        "interpolation.prefilters": counts["interpolation.prefilters"],
        "interpolation.blends": calls.get("interpolation.CubicGridInterpolator.blend", 0),
        "interpolation.eval_s": total("interpolation.CubicGridInterpolator.__call__"),
        "interpolation.eval_points": counts["interpolation.eval_points"],
        "dynamics.rdmp_ensemble_s": total("dynamics.rdmp_ensemble"),
        "dynamics.rdmp_ensemble_calls": calls.get("dynamics.rdmp_ensemble", 0),
        "dynamics.compare_bohm_rdmp_self_s": own.get("dynamics.compare_bohm_rdmp", 0.0),
        "dynamics.equivariance_test_s": total("dynamics.equivariance_test"),
        "artifacts.write_ensemble_csv_s": total("artifacts.write_ensemble_csv"),
        "artifacts.write_frames_s": total("artifacts.write_frames"),
        "artifacts.write_json_s": total("artifacts.write_json"),
        "artifacts.bytes_written": counts["artifacts.bytes_written"],
        "onticmodels.pbr_contradiction_s": total("onticmodels.pbr_contradiction"),
        "onticmodels.build_pbr_states_calls": calls.get("onticmodels.build_pbr_states", 0),
        "onticmodels.check_consistency_s": total("onticmodels.check_consistency"),
        "onticmodels.classify_s": total("onticmodels.classify"),
        "onticmodels.random_epistemic_model_s": total("onticmodels.random_epistemic_model"),
    }
    bohm_s = out["dynamics.run_bohm_ensemble_s"]
    out["dynamics.member_steps_per_s"] = counts["dynamics.member_steps"] / bohm_s if bohm_s else 0.0
    for short in MODULES:
        out[f"{short}.self_s"] = sum(
            seconds for name, seconds in own.items() if name.split(".", 1)[0] == short
        )
    return out
