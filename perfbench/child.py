"""One benchmark sample in a fresh interpreter.

    python3 child.py SRC SPEC_DIR OUT_DIR RESULT TRACE

Imports qflab from SRC, loads every spec in SPEC_DIR, runs each through
``qflab.cli.main(["run", spec, "--out-dir", OUT_DIR])`` and writes the
timings, peak RSS and exit codes to RESULT as JSON.  With TRACE = 1 the
public callables of qflab are wrapped before the first run and the spans
go into RESULT too.

setup_s runs from the first line of this file to the end of loading the
specs; run_s from the first pipeline call to the return of the last one.
The clock starts before anything but ``time`` is imported.  Between the
two, and again after the last call, the process times ``reference_s``, a
fixed computation that tells how fast the machine runs at that moment.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MB (2^20 bytes).

    Read from /proc/self/status (VmHWM) rather than getrusage: ru_maxrss
    of a freshly executed child starts at the parent's peak, since Linux
    folds the pre-exec address space into it, so it would report the
    memory of run.py, the parent, whenever that is the larger.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def reference_s() -> float:
    """Wall time of a fixed pure-Python computation, in seconds.

    A tight arithmetic loop, then argparse and json on small documents:
    the second part runs a lot of varied library code, as qflab's CLI
    does, and slows with the machine where the loop alone does not.  It
    uses only the standard library, so it loads nothing that qflab might
    otherwise load during the run.
    """
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    for k in range(30):
        parser = argparse.ArgumentParser(prog="reference")
        for j in range(20):
            parser.add_argument(f"--opt{j}", type=float, default=float(j))
        parser.parse_args([f"--opt{j}={k + j}" for j in range(0, 20, 2)])
        doc = {f"k{i}": [float(i), i * 0.5, {"k": [k, 2.0, 3.0]}] for i in range(300)}
        json.loads(json.dumps(doc, sort_keys=True))
    return time.perf_counter() - start


def main(argv) -> int:
    src, spec_dir, out_dir, result_path, trace = argv
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    modules_before = len(sys.modules)
    import_start = time.perf_counter()
    import qflab
    from qflab import cli

    import_s = time.perf_counter() - import_start
    import_modules = len(sys.modules) - modules_before
    if Path(qflab.__file__).resolve().parent != src / "qflab":
        print(f"imported qflab from {qflab.__file__}, not from {src}", file=sys.stderr)
        return 4

    spec_paths = sorted(Path(spec_dir).glob("*.json"))
    for path in spec_paths:
        qflab.ExperimentSpec.from_json(json.loads(path.read_text(encoding="utf-8")))

    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install(qflab)

    setup_end = time.perf_counter()
    reference_before = reference_s()
    codes, errors = [], []
    first_call = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for path in spec_paths:
            try:
                codes.append(cli.main(["run", str(path), "--out-dir", out_dir]))
            except Exception:  # a traceback is a failed operation, not a benchmark crash
                codes.append(1)
                errors.append(f"{path.name}: {traceback.format_exc()}")
    last_return = time.perf_counter()
    reference_after = reference_s()

    result = {
        "setup_s": setup_end - START,
        "run_s": last_return - first_call,
        "reference_s": [reference_before, reference_after],
        "peak_rss_mb": peak_rss_mb(),
        "import_s": import_s,
        "import_modules": import_modules,
        "specs": [p.name for p in spec_paths],
        "codes": codes,
        "errors": errors,
    }
    if tracer is not None:
        result["trace"] = tracer.to_json()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
