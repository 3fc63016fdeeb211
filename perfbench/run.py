"""The qflab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qflab checkout.  The benchmark writes the
workload's spec files from the seed, then runs the rounds that fit into
S seconds (at least one).  A round is one sample: a fresh interpreter (``child.py``) that
imports qflab from ``src/``, loads the specs and runs each of them through
``qflab.cli.main(["run", ...])``.  The outputs of the first round are
checked against references computed apart from qflab (``checks.py``);
every later round must reproduce them byte for byte.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (spec runs), and ``metrics``.  With
``--trace 0`` the metrics are the medians over rounds of ``setup_s``,
``run_s`` and ``peak_rss_mb``.  With ``--trace 1`` rounds alternate
between untraced and traced samples, and the metrics are the per-layer
medians of the traced ones plus the tracing overhead.

``setup_s`` and ``run_s`` are wall times rescaled to a machine of fixed
speed.  Each round times a fixed pure-Python computation (``child.py``'s
``reference_s``) just before its first pipeline call and just after its
last, and its wall times are multiplied by ``REFERENCE_S`` over the mean
of the two.  On a machine that runs the reference in ``REFERENCE_S``
seconds they are the wall times; on a shared machine whose speed swings
for minutes at a time they swing much less than the wall times.  Each
round's line on standard output gives its wall times too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TIME_LIMIT = 170.0  # seconds; every run must end within 180

sys.path.insert(0, str(HERE))
import specs  # noqa: E402
from spans import per_layer_metrics  # noqa: E402

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# Nominal time of child.reference_s: about its median on the 2-vCPU machine
# this benchmark was tuned on.  It only sets the scale of setup_s and run_s.
REFERENCE_S = 0.1
# One BLAS thread: with two, a dense eigen-solve on this 2-vCPU machine
# took 7 s instead of 1 s whenever the other vCPU was busy.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, as listed in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def run_sample(spec_dir: Path, out_dir: Path, result: Path, trace: bool, timeout: float):
    """One fresh-interpreter sample; its result dict, or None if it failed."""
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT / "src"), str(spec_dir),
           str(out_dir), str(result), "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
                              env={**os.environ, **CHILD_ENV})
    except subprocess.TimeoutExpired:
        print(f"sample exceeded {timeout:.0f} s and was stopped", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.is_file():
        print(f"sample exited with {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    sample = json.loads(result.read_text(encoding="utf-8"))
    speed = REFERENCE_S / statistics.mean(sample["reference_s"])
    sample["wall_setup_s"], sample["wall_run_s"] = sample["setup_s"], sample["run_s"]
    sample["setup_s"] *= speed
    sample["run_s"] *= speed
    return sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(specs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qflab" / "__init__.py").is_file():
        print(f"no qflab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    spec_paths = specs.write_specs(args.workload, args.seed, work / "specs")
    names = [json.loads(p.read_text(encoding="utf-8"))["name"] for p in spec_paths]

    import checks  # numpy and scipy load here, after the specs are written

    attempted = failed = 0
    failures = []
    reference = None
    untraced, traced = [], []
    k = 0
    while True:
        trace = bool(args.trace) and k % 2 == 1
        # A fresh directory per round: on the ext4 disk this benchmark was
        # tuned on, deleting or overwriting the previous round's files made
        # later rounds slower and noisier.  The whole tree goes at the next run.
        out_dir = work / "runs" / f"{k:03d}"
        round_start = time.perf_counter()
        timeout = TIME_LIMIT - (round_start - started)
        sample = run_sample(work / "specs", out_dir, work / "runs" / f"{k:03d}.json", trace, timeout)
        attempted += len(names)
        if sample is None:
            failed += len(names)
            break
        bad = sum(1 for code in sample["codes"] if code != 0)
        failed += bad
        for err in sample["errors"]:
            print(err, file=sys.stderr)
        if bad == 0:
            digests = checks.artifact_digests(out_dir)
            if reference is None:
                failures += checks.check_outputs(out_dir, names)
                reference = digests
            elif digests != reference:
                changed = sorted(n for n in set(digests) | set(reference) if digests.get(n) != reference.get(n))
                failures.append(f"round {k}: artifacts differ from round 0: {changed[:5]}")
        if trace:
            # keep the derived metrics, not the spans, so this process stays small
            sample["layers"] = per_layer_metrics(sample.pop("trace"))
        (traced if trace else untraced).append(sample)
        print(f"round {k}{' traced' if trace else ''}: setup_s={sample['setup_s']:.4f} "
              f"run_s={sample['run_s']:.4f} peak_rss_mb={sample['peak_rss_mb']:.1f} "
              f"wall setup/run {sample['wall_setup_s']:.4f}/{sample['wall_run_s']:.4f} "
              f"reference_s={statistics.mean(sample['reference_s']):.4f} failed={bad}/{len(names)}")
        k += 1
        # start another round only if it should end within the run's seconds
        now = time.perf_counter()
        if now - started + (now - round_start) > min(args.seconds, TIME_LIMIT - 10):
            if traced or not args.trace:
                break

    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)

    metrics = {}
    if args.trace == 0 and untraced:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(s[name] for s in untraced), "unit": unit}
    elif args.trace == 1 and traced:
        layers = [s["layers"] for s in traced]
        for s, layer in zip(traced, layers):
            layer["qflab.import_s"] = s["import_s"]
            layer["qflab.import_modules"] = s["import_modules"]
            layer["trace.run_s"] = s["run_s"]
            layer["machine.reference_s"] = statistics.mean(s["reference_s"])
        for name, unit in per_layer_units().items():
            if name != "trace.overhead_s":
                metrics[name] = {"value": statistics.median(layer[name] for layer in layers), "unit": unit}
        overhead = metrics["trace.run_s"]["value"] - statistics.median(s["run_s"] for s in untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    print(json.dumps({
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
