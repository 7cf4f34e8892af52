"""Run every workload untraced and traced, and print one table of results.

    python3 perfbench/suite.py --seed 1 --seconds 35

Each workload runs in its own process (``run.py``), first with tracing off
for the end-to-end metrics, then with tracing on for the per-layer metrics.
The table lists every end-to-end metric with its unit, ``failed_frac`` with
each failing config and its reason, each layer's share of the traced
operation time, and the tracing overhead (traced minus untraced
``run_s.p50``).  Last, the two-well cell that stalls the SCF today runs once,
untimed and outside every workload, and its exit code and failed checks are
listed.  The combined record goes to ``.perfbench-out/suite-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads
from run import THREAD_VARS

HERE = Path(__file__).resolve().parent
OUT_ROOT = HERE.parent / ".perfbench-out"


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    json.loads(proc.stdout.strip().splitlines()[-1])  # the result line must parse
    return json.loads((OUT_ROOT / f"{workload}-seed{seed}-trace{trace}" / "result.json").read_text())


def stall_record(seed: int) -> dict:
    """Run the two-well cell once, untimed, in a fresh interpreter; return its outcome."""
    work = OUT_ROOT / f"stall-seed{seed}"
    config = workloads.stall_config(seed)
    work.mkdir(parents=True, exist_ok=True)
    (work / "config.json").write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"), **dict.fromkeys(THREAD_VARS, "1"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qpbench.cli", "run", "--config", str(work / "config.json"),
         "--out", str(work / "out")],
        env=env, capture_output=True, text=True,
    )
    seconds = time.perf_counter() - start
    return {"exit_code": proc.returncode, "seconds": seconds,
            "reasons": checks.check_output(work / "out", config)}


def layer_shares(metrics: dict) -> dict:
    """Each layer's share of the summed per-layer self time."""
    per_layer = {}
    for name in spans.TIME_METRICS:
        layer = name.split(".")[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + metrics[name]["value"]
    total = sum(per_layer.values())
    return {layer: seconds / total for layer, seconds in per_layer.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args(argv)

    results = {}
    for workload in workloads.WORKLOADS:
        untraced = _run(workload, args.seed, args.seconds, 0)
        traced = _run(workload, args.seed, args.seconds, 1)
        ops = untraced["operations"]
        failed = [op for op in ops if not op["ok"]]
        results[workload] = {
            "end_to_end": untraced["metrics"],
            "run_s.p90": untraced["run_s.p90"],
            "attempted": len(ops),
            "failed": len(failed),
            "failed_frac": len(failed) / len(ops),
            "failures": sorted({(op["config"], "; ".join(op["reasons"])) for op in failed}),
            "correct": untraced["correct"] and traced["correct"],
            "per_layer": traced["metrics"],
            "layer_shares": layer_shares(traced["metrics"]),
            "trace_overhead_s": traced["end_to_end"]["run_s.p50"] - untraced["end_to_end"]["run_s.p50"],
            "machine": untraced["machine"],
        }

    names = list(workloads.WORKLOADS)
    print(f"seed {args.seed}, {args.seconds:g} s per run; one client, closed loop")
    print(f"{'metric':30s}{'unit':>10s}" + "".join(f"{w:>14s}" for w in names))
    first = results[names[0]]
    for metric, entry in first["end_to_end"].items():
        row = "".join(f"{results[w]['end_to_end'][metric]['value']:14.5g}" for w in names)
        print(f"{metric:30s}{entry['unit']:>10s}{row}")
    rows = {
        "run_s.p90": ("s", lambda r: r["run_s.p90"]),
        "failed_frac": ("fraction", lambda r: r["failed_frac"]),
        "operations": ("count", lambda r: r["attempted"]),
        "trace_overhead_s": ("s", lambda r: r["trace_overhead_s"]),
    }
    for metric, (unit, get) in rows.items():
        row = "".join(f"{'-':>14s}" if get(results[w]) is None else f"{get(results[w]):14.5g}"
                      for w in names)
        print(f"{metric:30s}{unit:>10s}{row}")

    print("\nlayer share of traced operation time")
    for layer in first["layer_shares"]:
        print(f"{layer:30s}{'':>10s}" + "".join(f"{results[w]['layer_shares'][layer]:14.1%}" for w in names))
    for w in names:
        shares = results[w]["layer_shares"]
        print(f"dominant on {w}: {max(shares, key=shares.get)}")

    print("\nper-layer metrics per operation")
    for metric, entry in first["per_layer"].items():
        row = "".join(f"{results[w]['per_layer'][metric]['value']:14.5g}" for w in names)
        print(f"{metric:36s}{entry['unit']:>6s}{row}")

    print()
    for w in names:
        print(f"{w}: {results[w]['failed']} of {results[w]['attempted']} operations failed")
        for config, reason in results[w]["failures"]:
            print(f"  {config}: {reason}")

    stall = stall_record(args.seed)
    print(f"\nknown stall, in no timed pass: two-well cell (32 points, 8 k, N = 2), "
          f"exit code {stall['exit_code']}, {stall['seconds']:.2f} s")
    for reason in stall["reasons"]:
        print(f"  {reason}")

    path = OUT_ROOT / f"suite-seed{args.seed}.json"
    path.write_text(json.dumps(dict(results, stall=stall), indent=2, sort_keys=True) + "\n")
    print(f"\nrecord: {path}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
