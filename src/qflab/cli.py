"""Command-line front end.

Subcommands: run a spec file, run or emit a preset, validate a spec,
summarize a manifest.  Exit codes: 0 everything passed, 2 a pipeline test
failed, 3 the spec (or invocation) was invalid.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import experiments
from .artifacts import canonical_json

EXIT_PASS = 0
EXIT_FAILURE = 2
EXIT_INVALID = 3


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument(
        "--out-dir", default=None,
        help=f"output root (default: spec value, then ${experiments.OUT_DIR_ENV}, then ./qflab-runs)",
    )
    p.add_argument(
        "--tolerance-scale", type=float, default=None,
        help="multiply all pipeline tolerances by this factor",
    )


def _load_spec(path: str) -> experiments.ExperimentSpec:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise experiments.SpecValidationError(
            [experiments.Finding("error", "file", f"cannot read {path}: {exc}")]
        )
    except json.JSONDecodeError as exc:
        raise experiments.SpecValidationError(
            [experiments.Finding("error", "file", f"{path} is not valid JSON: {exc}")]
        )
    if not isinstance(obj, dict):
        raise experiments.SpecValidationError(
            [experiments.Finding("error", "file", f"{path} holds no JSON object")]
        )
    try:
        return experiments.ExperimentSpec.from_json(obj)
    except (TypeError, ValueError) as exc:
        raise experiments.SpecValidationError(
            [experiments.Finding("error", "spec", str(exc))]
        )


def _print_findings(findings):
    for f in findings:
        print(f"{f.severity.upper():7s} {f.field}: {f.message}")


def _print_run_findings(out: Path):
    """The findings a run recorded in its findings.json, if it wrote one."""
    path = out / "findings.json"
    if not path.exists():
        return
    try:
        findings = [experiments.Finding(**f) for f in json.loads(path.read_text("utf-8"))]
    except (OSError, ValueError, TypeError) as exc:
        message = f"{path} holds no findings ({exc!r})"
        findings = [experiments.Finding("warning", "findings", message)]
    _print_findings(findings)


def _print_tests(tests: dict, spec_hash):
    """PASS or FAIL for each test, by name, then the spec hash."""
    for name in sorted(tests):
        print(f"{'PASS' if tests[name] else 'FAIL'} {name}")
    print(f"spec hash {spec_hash}")


def _run_and_report(spec: experiments.ExperimentSpec, args) -> int:
    spec = spec.with_overrides(args.seed, args.out_dir, args.tolerance_scale)
    manifest = experiments.run(spec)
    out = experiments._out_dir_for(spec)
    _print_run_findings(out)
    _print_tests(manifest.tests, manifest.spec_hash)
    print(f"artifacts in {out}")
    return EXIT_PASS if manifest.passed else EXIT_FAILURE


def _run(args) -> int:
    return _run_and_report(_load_spec(args.spec), args)


def _preset(args) -> int:
    try:
        spec = experiments.preset(args.name)
    except ValueError as exc:
        print(f"ERROR   name: {exc}")
        return EXIT_INVALID
    if args.emit:
        print(canonical_json(spec.to_json()))
        return EXIT_PASS
    return _run_and_report(spec, args)


def _validate(args) -> int:
    findings = experiments.validate(_load_spec(args.spec))
    _print_findings(findings)
    if any(f.severity == "error" for f in findings):
        return EXIT_INVALID
    print("spec is runnable")
    return EXIT_PASS


def _report(args) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"ERROR   manifest: {exc}")
        return EXIT_INVALID
    if not (isinstance(manifest, dict) and isinstance(manifest.get("tests", {}), dict)
            and isinstance(manifest.get("artifacts", []), list)):
        print(f"ERROR   manifest: {args.manifest} is not a run manifest (a JSON object)")
        return EXIT_INVALID
    _print_tests(manifest.get("tests", {}), manifest.get("spec_hash"))
    print(f"tool version {manifest.get('tool_version')}")
    wall = manifest.get("wall_clock_seconds")
    if isinstance(wall, (int, float)):
        print(f"wall clock {wall:.3f} s")
    for name in manifest.get("artifacts", []):
        print(f"artifact {name}")
    diagnostics = Path(args.manifest).parent / "diagnostics.json"
    if diagnostics.exists():
        _print_march(diagnostics)
    _print_run_findings(Path(args.manifest).parent)
    return EXIT_PASS if manifest.get("passed") else EXIT_FAILURE


def _print_march(path: Path):
    """The march record of a run's diagnostics.json."""
    try:
        march = json.loads(path.read_text(encoding="utf-8"))["march"]
        error, tol = march["max_error"], march["tolerance"]
        line = (f"march {march['steps']} steps, {march['steps_taken_again']} taken again, "
                f"stride {march['min_stride']}-{march['max_stride']} frames, max error "
                f"{'none' if error is None else format(error, '.1e')} (tolerance {tol:.1e})")
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"WARNING diagnostics: {path} holds no march record ({exc!r})")
        return
    print(line)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a run of many specs
    in one process calls main once per spec."""
    parser = argparse.ArgumentParser(
        prog="qflab",
        description="wave-function experiments, particle dynamics, and finite ontological models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a spec file")
    p_run.add_argument("spec", help="path to a spec JSON document")
    _add_common_flags(p_run)
    p_run.set_defaults(handler=_run)

    p_preset = sub.add_parser("preset", help="run (or emit) a canonical experiment")
    p_preset.add_argument(
        "name", help=f"one of: {', '.join(experiments.preset_names())}"
    )
    p_preset.add_argument(
        "--emit", action="store_true",
        help="print the preset's spec JSON instead of running it",
    )
    _add_common_flags(p_preset)
    p_preset.set_defaults(handler=_preset)

    p_val = sub.add_parser("validate", help="check a spec file without running it")
    p_val.add_argument("spec", help="path to a spec JSON document")
    p_val.set_defaults(handler=_validate)

    p_rep = sub.add_parser("report", help="summarize a run manifest")
    p_rep.add_argument("manifest", help="path to a manifest.json")
    p_rep.set_defaults(handler=_report)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except experiments.SpecValidationError as exc:
        _print_findings(exc.findings)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
