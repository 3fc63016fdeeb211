import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qflab as qf


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_pyproject_version_is_the_package_version():
    import tomllib

    expand = pytest.importorskip("setuptools.config.expand")
    root = Path(__file__).resolve().parents[1]
    meta = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    # one source: the version is read from TOOL_VERSION, never written twice
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    attr = meta["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "qflab.experiments.TOOL_VERSION"
    assert expand.read_attr(attr, package_dir={"": "src"}, root_dir=root) == qf.__version__


# a tiny `both` stationary box run, which solves for a stationary state,
# marches Bohm members through the spline field and computes chi-square and
# KS p-values and the duel; a Bohm double-slit run, which streams free
# frames; and a pbr and an ontic-model-check run, which take the
# finite-model paths
GUARD_SPECS = {
    "box": {
        "name": "guard-box", "kind": "box", "seed": 3, "dynamics": "both",
        "ensemble_size": 100,
        "grid": {"lo": [-2.0], "hi": [2.0], "points": [64]},
        "potential": {"kind": "box", "inner_lo": [-1.0], "inner_hi": [1.0], "height": 1e2},
        "initial_state": {"kind": "stationary", "level": 0},
        "time": {"dt": 0.001, "t_end": 0.02, "sample_times": [0.01, 0.02]},
    },
    "slit": {
        "name": "guard-slit", "kind": "double-slit", "seed": 3, "dynamics": "bohm",
        "ensemble_size": 100,
        "grid": {"lo": [-16.0], "hi": [16.0], "points": [256]},
        "potential": {"kind": "free"},
        "initial_state": {"kind": "two-lobe", "separation": 7.0, "sigma": 0.7},
        "time": {"dt": 0.002, "t_end": 0.1, "sample_times": [0.0, 0.1]},
    },
    "pbr": {"name": "guard-pbr", "kind": "pbr", "seed": 3},
    "nomological": {
        "name": "guard-nomological", "kind": "ontic-model-check",
        "params": {"n_cells": 64, "levels": [1, 2]},
    },
}

GUARD = """
import sys
import qflab
from qflab.cli import main

def scipy_loaded(step):
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    if loaded:
        sys.exit(f"{len(loaded)} scipy modules ({', '.join(loaded[:3])}, ...) loaded after {step}")

scipy_loaded("import qflab")
for spec in sys.argv[2:]:
    code = main(["run", spec, "--out-dir", sys.argv[1]])
    if code != 0:
        sys.exit(f"qflab run {spec} exited {code}")
    scipy_loaded(f"qflab run {spec}")
"""


def test_import_and_runs_load_no_scipy(tmp_path):
    paths = []
    for name, body in GUARD_SPECS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(body))
        paths.append(str(path))
    package_root = str(Path(qf.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
    }
    done = subprocess.run(
        [sys.executable, "-c", GUARD, str(tmp_path / "runs"), *paths],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_every_module_all_lists_its_public_definitions():
    # a name removed from a module must leave its __all__, and a public
    # function or class added to one must join it
    for info in pkgutil.iter_modules(qf.__path__, "qflab."):
        module = importlib.import_module(info.name)
        listed = getattr(module, "__all__", None)
        if listed is None:
            continue
        assert [n for n in listed if not hasattr(module, n)] == [], info.name
        defined = {
            name for name, obj in vars(module).items()
            if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        }
        assert sorted(defined - set(listed)) == [], info.name
