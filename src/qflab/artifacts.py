"""Deterministic on-disk artifacts: canonical JSON, CSV tables, wave frames.

Identical inputs must produce byte-identical files, so every writer pins
its formatting: JSON is emitted with sorted keys, minimal separators, and
the shortest round-tripping float repr; CSV uses repr for floats and "\n"
line endings; wave frames serialize as a length-prefixed JSON header
followed by raw little-endian complex128 bytes in C order.  The values a
run hands to the writers repeat bit for bit only at a fixed BLAS thread
count: OpenBLAS rounds the eigen-solve and LU steps of a stationary state
differently when it runs threaded.

Records are written by one rule: an object with a ``to_json`` method is
written as what it returns, and any other dataclass as the dict of its
fields, ``record_dict(obj)``.  A record defines ``to_json`` only when its
JSON differs from its fields or other code reads that dict.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import struct
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .dynamics import Ensemble, WaveFrames

FRAME_FORMAT = "wave-frames-v1"

__all__ = [
    "canonical_json",
    "record_dict",
    "sha256_of_json",
    "spec_hash",
    "write_json",
    "read_json",
    "write_csv",
    "write_ensemble_csv",
    "write_frames",
]


_CONTAINERS = (dict, list, tuple)


def _str_keys(obj):
    """obj with dict keys str(k), not json's spelling and int order; a list is
    scanned by type in C and rebuilt only when it holds a container."""
    if isinstance(obj, dict):
        return {str(k): _str_keys(v) if isinstance(v, _CONTAINERS) else v for k, v in obj.items()}
    if isinstance(obj, (list, tuple)) and any(issubclass(t, _CONTAINERS) for t in set(map(type, obj))):
        return [_str_keys(v) if isinstance(v, _CONTAINERS) else v for v in obj]
    return obj


def record_dict(obj) -> dict:
    """A dataclass record as the dict of its fields, the JSON a record gets."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _json_default(obj):
    """The Python value json writes for a numpy array or real scalar, or a record."""
    if isinstance(obj, np.ndarray):
        return _str_keys(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):  # longdouble.item() is a longdouble
        return float(obj) if isinstance(obj, np.floating) else obj.item()
    if hasattr(obj, "to_json"):
        return _str_keys(obj.to_json())
    if is_dataclass(obj):
        return _str_keys(record_dict(obj))
    raise TypeError(f"{type(obj).__name__} is not JSON serializable; complex values must be "
                    "split into [re, im] before writing")


def canonical_json(obj) -> str:
    """Sorted keys, no inessential whitespace, shortest-repr floats, no NaN."""
    return json.dumps(_str_keys(obj), default=_json_default, sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def sha256_of_json(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def spec_hash(spec_obj: dict) -> str:
    """Hash of a spec's canonical JSON, ignoring where its output lands."""
    return sha256_of_json({k: v for k, v in spec_obj.items() if k != "out_dir"})


def write_json(path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes((canonical_json(obj) + "\n").encode("utf-8"))
    return path


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_csv(path, header, lines) -> Path:
    """Header cells, then lines already formatted as comma-joined cells."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "\n".join([",".join(str(h) for h in header), *lines]) + "\n"
    path.write_bytes(text.encode("utf-8"))
    return path


def _table_lines(table: np.ndarray, prefix: str = ""):
    """CSV lines of a 2-D float table, each cell its repr, each line after prefix.

    zip reuses its row tuple, so no container is allocated per row.
    """
    cells = map(repr, table.ravel().tolist())
    return map(prefix.__add__, map(",".join, zip(*[cells] * table.shape[1])))


def write_ensemble_csv(path, e: Ensemble) -> Path:
    header = ["trajectory_id", "t"] + [f"x{d + 1}" for d in range(e.positions.shape[2])]
    lines = itertools.chain.from_iterable(
        _table_lines(np.column_stack((e.times, e.positions[:, m])), f"{m},")
        for m in range(e.size)
    )
    return write_csv(path, header, lines)


def write_frames(path, frames: WaveFrames) -> Path:
    """Length-prefixed JSON header, then raw complex128 amplitudes (C order)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = canonical_json(
        {
            "format": FRAME_FORMAT,
            "times": list(frames.times),
            "axes": [
                {"start": float(a[0]), "step": float(a[1] - a[0]), "size": int(a.size)}
                for a in frames.axes
            ],
            "dtype": "complex128",
        }
    ).encode("utf-8")
    payload = np.ascontiguousarray(frames.amplitudes, dtype="<c16").tobytes()
    with path.open("wb") as fh:
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(payload)
    return path

