"""Spec files for each workload, made from the benchmark seed alone.

The specs are written out in full here rather than taken from
``qflab.experiments.preset``: the program under test receives only these
files.  Every workload does the same amount of work for every seed: the
seed changes sample draws and, for the ontic sweep, the pbr overlaps and
the order of the specs, not how many or how large the runs are.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Statistical checks inside qflab run at significance 1e-3 by default.  The
# duel compares eleven such tests, so about one seed in a hundred would
# fail by chance alone; at 1e-6 a chance failure is not expected over
# thousands of runs, while a real departure from |psi|^2 still fails.
SIGNIFICANCE = 1e-6

# Small ensembles keep a round short, so a run holds more rounds.
DUEL_MEMBERS = 200
SLIT_MEMBERS = 250

# The ontic sweep runs every combination of these sizes once per round, so the
# work of a round does not depend on the seed; the seed draws the pbr seeds
# and overlaps and the order of the specs.
PBR_SHARED = (1, 2, 3, 4, 5, 6)
PBR_EXCLUSIVE = (1, 2, 4, 6, 8, 12)
BOX_CELLS = (16, 32, 64, 128, 256, 512)
BOX_LEVELS = ((1, 2), (1, 3), (2, 5), (1, 2, 3), (2, 3, 4, 7), (1, 2, 3, 4, 5))


def duel_box(seed: int) -> list:
    """The duel-stationary preset with a smaller ensemble."""
    return [{
        "name": "duel-box",
        "kind": "box",
        "seed": seed,
        "dynamics": "both",
        "ensemble_size": DUEL_MEMBERS,
        "grid": {"lo": [-2.0], "hi": [2.0], "points": [512]},
        "potential": {"kind": "box", "inner_lo": [-1.0], "inner_hi": [1.0], "height": 1e4},
        "initial_state": {"kind": "stationary", "level": 0},
        "time": {
            "t_end": 0.5,
            "dt": 0.0002,
            "sample_times": [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5],
        },
        "tolerances": {"significance": SIGNIFICANCE},
    }]


def slit_bohm(seed: int) -> list:
    """The double-slit preset with a smaller ensemble.

    t = 0 is added to the sample times so that ``bohm_positions.csv``
    holds each member's start, which the sign check needs.
    """
    return [{
        "name": "slit-bohm",
        "kind": "double-slit",
        "seed": seed,
        "dynamics": "bohm",
        "ensemble_size": SLIT_MEMBERS,
        "grid": {"lo": [-16.0], "hi": [16.0], "points": [1024]},
        "potential": {"kind": "free"},
        "initial_state": {"kind": "two-lobe", "separation": 7.0, "sigma": 0.7},
        "time": {"t_end": 3.0, "dt": 0.001, "sample_times": [0.0, 1.5, 3.0]},
        "tolerances": {"significance": SIGNIFICANCE},
    }]


def ontic_sweep(seed: int) -> list:
    """pbr specs and box-nomological specs, shuffled together."""
    rng = random.Random(seed)
    pbr = [
        {
            "name": f"pbr-{shared}-{exclusive}",
            "kind": "pbr",
            "seed": rng.randrange(2**31),
            "params": {
                "overlap": 0.5 * (1.0 - rng.random()),  # in (0, 0.5]
                "n_shared": shared,
                "n_exclusive": exclusive,
            },
        }
        for shared in PBR_SHARED
        for exclusive in PBR_EXCLUSIVE
    ]
    box = [
        {
            "name": f"box-nomological-{cells}-{'.'.join(map(str, levels))}",
            "kind": "ontic-model-check",
            "params": {"n_cells": cells, "levels": list(levels)},
        }
        for cells in BOX_CELLS
        for levels in BOX_LEVELS
    ]
    specs = pbr + box
    rng.shuffle(specs)
    return specs


def slit_ontic(seed: int) -> list:
    """The slit-bohm spec, then the ontic sweep.

    The sweep takes about 0.5 s, and on its own its run time swung by up to
    60% from one minute to the next; after the 4 s slit run that swing is
    a few percent of the round.
    """
    return slit_bohm(seed) + ontic_sweep(seed)


WORKLOADS = {"duel-box": duel_box, "slit-ontic": slit_ontic}


def write_specs(workload: str, seed: int, directory: Path) -> list:
    """Write the workload's specs as numbered JSON files; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, spec in enumerate(WORKLOADS[workload](seed)):
        path = directory / f"{i:03d}-{spec['name']}.json"
        path.write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
