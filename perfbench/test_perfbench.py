"""Tests of the benchmark itself: generator, output checks and span tracing."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GEOMETRY = ("spacing", "well_depth", "softening")


def _shape(config: dict) -> dict:
    shape = json.loads(json.dumps(config))
    for key in GEOMETRY:
        del shape["system"][key]
    return shape


def _small_configs(seed: int) -> list:
    """The warm-up config plus the cheapest sweep configs, for running end to end."""
    sweep = workloads.generate("sweep", seed)
    small = [c for _, c in sweep if c["system"]["electrons"] < 4 and c["dyson"]["count"] <= 800]
    return [workloads.warmup_config(seed)] + small[:2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload, tmp_path):
    first = workloads.write_configs(workload, 7, tmp_path / "a")
    second = workloads.write_configs(workload, 7, tmp_path / "b")
    assert [name for name, _ in first] == [name for name, _ in second]
    for (_, a), (_, b) in zip(first, second):
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_changes_geometry_not_shapes(workload):
    one = workloads.generate(workload, 1)
    two = workloads.generate(workload, 2)
    assert [name for name, _ in one] == [name for name, _ in two]
    assert [_shape(c) for _, c in one] == [_shape(c) for _, c in two]
    for (_, a), (_, b) in zip(one, two):
        assert all(a["system"][key] != b["system"][key] for key in GEOMETRY)
    for _, config in one:
        lo, hi = workloads.SPACING
        assert lo <= config["system"]["spacing"] <= hi


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_configs_avoid_options_that_may_be_deleted(workload):
    from qpbench.config import RunConfig

    for _, config in workloads.generate(workload, 3):
        assert "method" not in config.get("dyson", {})
        assert "threads" not in json.dumps(config)
        RunConfig.from_dict(config)


def test_tracer_restores_every_wrapped_attribute():
    import qpbench.cli  # noqa: F401  (loads every qpbench module)

    modules = {k: m for k, m in sys.modules.items() if k == "qpbench" or k.startswith("qpbench.")}
    before = {k: dict(vars(m)) for k, m in modules.items()}
    tracer = spans.Tracer()
    with tracer:
        import qpbench.green_dyson
        import qpbench.pipeline

        # both places the name is bound are patched
        assert qpbench.pipeline.free_green is qpbench.green_dyson.free_green
        assert qpbench.pipeline.free_green.__wrapped__ is before["qpbench.green_dyson"]["free_green"]
        assert len(tracer._patched) > len(spans.LAYERS)
    for key, module in modules.items():
        after = vars(module)
        changed = [name for name, value in before[key].items() if after.get(name) is not value]
        assert changed == [], f"{key} not restored: {changed}"


def test_tracer_skips_a_deleted_function(monkeypatch):
    import qpbench.cli  # noqa: F401

    monkeypatch.setitem(spans.LAYERS, ("qpbench.green_dyson", "deleted_kernel"),
                        ("green_dyson.free_green_s", None))
    tracer = spans.Tracer()
    with tracer:
        pass
    assert tracer.errors == {"green_dyson.deleted_kernel not found; not traced"}


def test_self_times_add_up_to_operation_wall_time(tmp_path):
    from qpbench import cli

    tracer = spans.Tracer()
    walls = []
    with tracer:
        for op, config in enumerate(_small_configs(5)):
            path = tmp_path / f"{op}.json"
            path.write_text(json.dumps(config))
            tracer.op = op
            start = time.perf_counter()
            assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / f"out{op}")]) == 0
            walls.append(time.perf_counter() - start)
    self_times = tracer.self_times()
    assert min(self_times.values()) >= -1e-9
    for op, wall in enumerate(walls):
        layers = {name: s for (o, name), s in self_times.items() if o == op}
        assert {"cli.self_s", "pipeline.self_s", "hartree_fock.scf_s",
                "many_body.full_ci_s", "green_dyson.dyson_solve_s"} <= set(layers)
        total = sum(layers.values())
        assert total <= wall
        assert wall - total <= 0.05 * wall + 0.002
    metrics = tracer.per_op_metrics(len(walls))
    assert set(metrics) == set(spans.TIME_METRICS + spans.COUNT_METRICS)
    assert metrics["hartree_fock.scf_iterations"] > 0


def test_output_checks_pass_a_good_tree_and_catch_a_bad_one(tmp_path):
    from qpbench import cli

    config = _small_configs(11)[0]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert checks.check_output(out, config) == []
    digest = checks.tree_digest(out)
    assert digest == checks.tree_digest(out)

    dyson = json.loads((out / "dyson.json").read_text())
    dyson["dyson_residual"] = 1e-6
    (out / "dyson.json").write_text(json.dumps(dyson))
    assert checks.tree_digest(out) != digest
    assert any("dyson: residual" in r for r in checks.check_output(out, config))

    oracle = json.loads((out / "oracle.json").read_text())
    oracle["natural_occupations"][0] += 1e-6
    (out / "oracle.json").write_text(json.dumps(oracle))
    assert any("natural occupations" in r for r in checks.check_output(out, config))


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""


def test_peak_rss_ignores_the_launchers_memory():
    """A child started from a large process reports its own peak, not the launcher's.

    On Linux ``ru_maxrss`` survives ``execve``, so it would read at least 200 MB here.
    """
    import numpy

    ballast = numpy.ones(25_000_000)  # 200 MB resident in this process
    result = subprocess.run([sys.executable, "-c", "import run; print(run.peak_rss_mb())"],
                            cwd=HERE, capture_output=True, text=True, timeout=60, check=True)
    assert float(result.stdout) < 100 < ballast.nbytes / 1e6
