"""Command-line entry point.

Subcommands run the full pipeline or a single stage from a JSON config, or the
built-in verification suite.  Failures exit nonzero after printing a
machine-readable error record to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, reports
from .config import ConfigError, RunConfig
from .pipeline import STAGES, run_pipeline
from .verification import run_all_checks

_STAGE_COMMANDS = {
    "oracle": ("oracle",),
    "bands": ("bands",),
    "quasiparticle": ("bands", "quasiparticle"),
    "dyson": ("bands", "dyson"),
    "spectrum": ("spectrum",),
}

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_DEGRADED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpbench",
        description="Desk-scale quasiparticle workbench on 1D model systems",
    )
    parser.add_argument("--version", action="version", version=f"qpbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON run config")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--threads", type=int, default=1, help="parallel workers per stage")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--mixing", type=float, default=None, help="override scf.mixing")
    common.add_argument("--tol", type=float, default=None, help="override scf.tol")
    common.add_argument("--max-iter", type=int, default=None, help="override scf.max_iter")
    common.add_argument(
        "--k-count", type=int, default=None, help="override system.kpoints"
    )

    sub.add_parser("run", parents=[common], help="run every enabled stage")
    for name in _STAGE_COMMANDS:
        sub.add_parser(name, parents=[common], help=f"run the {name} stage")

    verify = sub.add_parser("verify", help="run the full invariant suite")
    verify.add_argument("--out", default=None, help="optional directory for the report")
    return parser


def _fail(kind: str, message: str, code: int) -> int:
    print(json.dumps({"error": {"type": kind, "message": message}}, sort_keys=True))
    return code


def _load_config(args) -> RunConfig:
    raw = json.loads(Path(args.config).read_text())
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    if args.seed is not None:
        raw["seed"] = args.seed
    overrides = {
        ("scf", "mixing"): args.mixing,
        ("scf", "tol"): args.tol,
        ("scf", "max_iter"): args.max_iter,
        ("system", "kpoints"): args.k_count,
    }
    for (section, key), value in overrides.items():
        if value is not None:
            raw.setdefault(section, {})[key] = value
    return RunConfig.from_dict(raw)


def _run_verify(args) -> int:
    results = run_all_checks()
    for result in results:
        # timings vary run to run, so they go to stdout, not the report
        print(f"{result.line()} [{result.timing()}]")
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "measured": r.measured,
                    "tolerance": r.tolerance,
                    "detail": r.detail,
                }
                for r in results
            ]
        }
        reports.write_json(out_dir / "verify_report.json", payload, "verify")
    failed = [r.name for r in results if not r.passed]
    if failed:
        return _fail("VerificationFailure", f"checks failed: {', '.join(failed)}", EXIT_FAILURE)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return _run_verify(args)

    try:
        config = _load_config(args)
    except FileNotFoundError as exc:
        return _fail("ConfigError", f"config file not found: {exc.filename}", EXIT_CONFIG)
    except json.JSONDecodeError as exc:
        return _fail("ConfigError", f"config is not valid JSON: {exc}", EXIT_CONFIG)
    except ConfigError as exc:
        return _fail("ConfigError", str(exc), EXIT_CONFIG)

    stages = STAGES if args.command == "run" else _STAGE_COMMANDS[args.command]
    try:
        report = run_pipeline(config, args.out, threads=args.threads, stages=stages)
    except Exception as exc:  # unexpected: no report was written
        return _fail(type(exc).__name__, str(exc), EXIT_FAILURE)

    failed = [
        name
        for name, record in report["stages"].items()
        if record["status"] in ("failed", "skipped")
    ]
    if failed:
        return _fail(
            "StageFailure",
            f"stages failed or skipped: {', '.join(failed)}; see report.json",
            EXIT_DEGRADED,
        )
    print(json.dumps({"status": "ok", "out": str(args.out)}, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
