"""Seeded config generator for the three benchmark workloads.

A workload is a fixed list of config *shapes* (grid size, electron count,
stage switches, kernel kind).  The seed only draws the geometry of each
config -- ``spacing``, ``well_depth`` and ``softening`` -- so runs on
different seeds do the same kind of work and stay comparable.  Configs are
written as JSON files; the program under test sees nothing else.

Every config keeps the program's defaults for anything not listed here.  No
config sets a thread count or ``dyson.method``: both may be deleted later, and
a deletion must not register as a failure.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("crystal", "oracle", "sweep")

# geometry ranges drawn per config from the workload seed
SPACING = (0.45, 0.55)
WELL_DEPTH = (1.8, 2.2)
SOFTENING = (0.9, 1.1)

# The stages `crystal` is not about still run at token size (6 determinants,
# 16 frequencies) so every layer is measured on every workload instead of
# reading as an exact zero.
_TOKEN_ORACLE = {"enabled": True, "orbital_cutoff": 2}
_TOKEN_DYSON = {"enabled": True, "count": 16}

_SWEEP_SIZE = 40
_SWEEP_SHAPE_SEED = 20060119  # fixed: the sweep's mix never depends on the workload seed


def _crystal_cell() -> dict:
    return {
        "system": {"points": 64, "electrons": 2, "boundary": "periodic", "kpoints": 16},
        "oracle": dict(_TOKEN_ORACLE),
        "dyson": dict(_TOKEN_DYSON),
        "self_energy": {"kind": "cosine", "scale": 0.3},
    }


def _crystal_shapes() -> list:
    return [(f"single-{c}", _crystal_cell()) for c in "abcd"]


def _oracle_shapes() -> list:
    return [
        (
            "box-n4",
            {
                "system": {"points": 16, "electrons": 4, "boundary": "box"},
                "oracle": {"enabled": True, "orbital_cutoff": 8},
                "dyson": {"count": 200},
            },
        )
    ]


def _sweep_shapes() -> list:
    rng = random.Random(_SWEEP_SHAPE_SEED)
    kernels = ("zero", "constant", "cosine")
    # CI cost grows as C(2 * cutoff, N)^2, so the cutoff range shrinks with N
    cutoffs = {1: (4, 10), 2: (4, 10), 4: (4, 5)}
    shapes = []
    for i in range(_SWEEP_SIZE):
        periodic = i % 2 == 0
        electrons = rng.choice((1, 2) if periodic else (1, 2, 4))
        points = rng.randint(12, 20)
        kind = kernels[i % 3]
        system = {
            "points": points,
            "electrons": electrons,
            "boundary": "periodic" if periodic else "box",
        }
        if periodic:
            system["kpoints"] = rng.randint(4, 8)
        shapes.append(
            (
                f"{system['boundary']}-n{electrons}-g{points}-{kind}",
                {
                    "system": system,
                    "oracle": {"enabled": True, "orbital_cutoff": rng.randint(*cutoffs[electrons])},
                    "self_energy": {"kind": kind, "scale": 0.0 if kind == "zero" else 0.3},
                    "dyson": {"count": rng.randrange(400, 2001, 100)},
                },
            )
        )
    return shapes


_SHAPES = {
    "crystal": _crystal_shapes,
    "oracle": _oracle_shapes,
    "sweep": _sweep_shapes,
}


def _draw(rng: random.Random, bounds: tuple) -> float:
    return round(rng.uniform(*bounds), 6)


def generate(workload: str, seed: int) -> list:
    """``[(name, config dict), ...]`` for one pass of ``workload`` at ``seed``."""
    if workload not in _SHAPES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    configs = []
    for i, (shape_name, shape) in enumerate(_SHAPES[workload]()):
        config = json.loads(json.dumps(shape))
        config["system"].update(
            spacing=_draw(rng, SPACING),
            well_depth=_draw(rng, WELL_DEPTH),
            softening=_draw(rng, SOFTENING),
        )
        configs.append((f"{i:03d}-{shape_name}", config))
    return configs


def warmup_config(seed: int) -> dict:
    """A small config with every stage on, run untimed before measuring."""
    rng = random.Random(f"warmup:{seed}")
    return {
        "system": {
            "points": 12,
            "electrons": 2,
            "boundary": "periodic",
            "kpoints": 4,
            "spacing": _draw(rng, SPACING),
            "well_depth": _draw(rng, WELL_DEPTH),
            "softening": _draw(rng, SOFTENING),
        },
        "oracle": {"enabled": True, "orbital_cutoff": 4},
        "self_energy": {"kind": "cosine", "scale": 0.3},
        "dyson": {"count": 200},
    }


def stall_config(seed: int) -> dict:
    """The two-well N = 2 cell, which stalls the linear-mixing SCF today.

    It runs 500 iterations at every k and exits 3 (degraded).  A benchmark
    operation must not fail, so the cell is in no timed pass; ``suite.py`` runs
    it once, untimed, and lists its outcome, so a convergence fix still shows.
    """
    rng = random.Random(f"stall:{seed}")
    config = _crystal_cell()
    config["system"].update(
        points=32,
        kpoints=8,
        wells=2,
        spacing=_draw(rng, SPACING),
        well_depth=_draw(rng, WELL_DEPTH),
        softening=_draw(rng, SOFTENING),
    )
    return config


def write_configs(workload: str, seed: int, directory) -> list:
    """Write one pass of configs as JSON files; return ``[(name, path), ...]``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, config in generate(workload, seed):
        path = directory / f"{name}.json"
        path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
        written.append((name, path))
    return written
