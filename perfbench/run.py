"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The workload runs in this process as a closed loop with a single client:
each operation is one in-process ``qpbench run`` on a generated config file,
and the next starts when the previous one returns.  Whole passes over the
workload's configs repeat for about ``--seconds`` of wall time.  Every
operation's output tree is checked and digested.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps qpbench's
public functions (see ``spans.py``) and prints the per-layer metrics instead.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (machine, per-operation outcomes
and digests, spans) goes to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS thread, whatever the caller's environment: the setting must be the
# same on every commit compared, and on a 2-core machine OpenBLAS's default of
# one thread per core ran the SCF slower than a single thread.  It has to be
# set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench-out"
# Fresh-interpreter imports are timed half before and half after the measured
# loop, so that the median spans more than one short phase of host load.
SETUP_REPEATS = 5
P90_MIN_OPS = 100  # at least ten samples beyond the 90th percentile

E2E_UNITS = {
    "setup_s": "s",
    "run_s.p50": "s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


def _import_times(repeats: int) -> list:
    """Wall times of fresh interpreters that each import ``qpbench.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import qpbench.cli"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def _generate_seconds(workload: str, seed: int, directory: Path, repeats: int):
    """Median time to write and validate one pass of configs; returns (seconds, pass)."""
    from qpbench.config import RunConfig

    times = []
    for _ in range(repeats):
        shutil.rmtree(directory, ignore_errors=True)
        start = time.perf_counter()
        written = workloads.write_configs(workload, seed, directory)
        for _, path in written:
            RunConfig.from_file(path)
        times.append(time.perf_counter() - start)
    configs = [(name, path, json.loads(path.read_text())) for name, path in written]
    return statistics.median(times), configs


def _run_one(cli, name, path, config, out_dir: Path, tracer=None) -> dict:
    """One operation: ``qpbench run`` on ``path``, then the output checks."""
    shutil.rmtree(out_dir, ignore_errors=True)
    stdout = io.StringIO()
    error = None
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code = cli.main(["run", "--config", str(path), "--out", str(out_dir)])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an escaped exception is one failed operation
            code = None
            error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        seconds = time.perf_counter() - start
    qp_warnings = sum(
        1
        for w in caught
        if issubclass(w.category, UserWarning) and Path(w.filename).name == "quasiparticle.py"
    )
    if tracer is not None:
        tracer.count(spans.QUASIPARTICLE_WARNINGS, qp_warnings)
    reasons = []
    if code != 0:
        lines = stdout.getvalue().strip().splitlines()
        reasons.append(f"exit code {code}: {error or (lines[-1] if lines else '')}")
    reasons += checks.check_output(out_dir, config)
    return {
        "config": name,
        "seconds": seconds,
        "exit_code": code,
        "ok": not reasons,
        "reasons": reasons,
        "warnings": len(caught),
        "digest": checks.tree_digest(out_dir) if out_dir.exists() else None,
    }


def _run_loop(cli, configs, seconds: float, out_dir: Path, tracer=None) -> list:
    """Whole passes over ``configs`` for as close to ``seconds`` of wall time as they allow.

    Another pass starts only if it is expected to end less than half a pass
    past ``seconds``, so a run measures about ``seconds`` on average and
    overruns by at most about half a pass.
    """
    records = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for name, path, config in configs:
            if tracer is not None:
                tracer.op = len(records)
            records.append(_run_one(cli, name, path, config, out_dir, tracer))
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 >= seconds:
            return records


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space, in MB.

    ``ru_maxrss`` is not used: it survives ``execve``, so it can report the
    peak of whatever process launched the benchmark.  ``VmHWM`` starts afresh
    with each program image.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("VmHWM not found in /proc/self/status")


def machine_record() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")}
    except TypeError:  # numpy < 1.26 only prints its configuration
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            numpy.show_config()
        blas = {"show_config": text.getvalue()}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qpbench" / "__init__.py").is_file():
        print(f"qpbench sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    _import_times(1)  # untimed: writes bytecode, warms the file cache
    import_times = _import_times(SETUP_REPEATS)
    from qpbench import cli

    generate_s, configs = _generate_seconds(
        args.workload, args.seed, work / "configs", SETUP_REPEATS
    )

    warm_path = work / "warmup.json"
    warm_config = workloads.warmup_config(args.seed)
    warm_path.write_text(json.dumps(warm_config, sort_keys=True, indent=2) + "\n")
    warm = _run_one(cli, "warmup", warm_path, warm_config, work / "out")

    tracer = spans.Tracer() if args.trace else None
    with tracer if tracer is not None else contextlib.nullcontext():
        records = _run_loop(cli, configs, args.seconds, work / "out", tracer)
    shutil.rmtree(work / "out", ignore_errors=True)
    import_times += _import_times(SETUP_REPEATS)
    import_s = statistics.median(import_times)

    times = [r["seconds"] for r in records]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    e2e = {
        "setup_s": import_s + generate_s,
        "run_s.p50": statistics.median(times),
        "runs_per_s": attempted / sum(times),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (attempted - failed) / attempted,
    }
    if tracer is not None:
        metrics = {
            name: _metric(value, spans.UNITS[name])
            for name, value in tracer.per_op_metrics(attempted).items()
        }
    else:
        metrics = {name: _metric(value, E2E_UNITS[name]) for name, value in e2e.items()}
    # the program never reported success on an output tree that fails a check
    correct = not any(r["exit_code"] == 0 and not r["ok"] for r in records)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "setup": {"import_s": import_s, "import_times": import_times, "generate_s": generate_s},
        "warmup": warm,
        "end_to_end": e2e,
        "run_s.p90": (
            statistics.quantiles(times, n=10, method="inclusive")[8]
            if attempted >= P90_MIN_OPS else None
        ),
        "operations": records,
        "metrics": metrics,
        "correct": correct,
    }
    if tracer is not None:
        record["trace_errors"] = sorted(tracer.errors)
        (work / "spans.json").write_text(json.dumps(tracer.spans) + "\n")
    (work / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{attempted} operations, {failed} failed (failed_frac {failed / attempted:.4f})")
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:.6g} {entry['unit']}")
    if record["run_s.p90"] is not None:
        print(f"  {'run_s.p90':36s} {record['run_s.p90']:.6g} s (n={attempted})")
    for name in sorted({r["config"] for r in records if not r["ok"]}):
        reasons = next(r["reasons"] for r in records if r["config"] == name and not r["ok"])
        print(f"  FAILED {name}: {'; '.join(reasons)}")
    for error in record.get("trace_errors", []):
        print(f"  TRACE {error}")
    print(f"  record: {work / 'result.json'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
