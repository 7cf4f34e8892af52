"""Output checks and digests for one operation's output tree.

An operation passes only if the CLI exited 0 and its output tree satisfies
every gate below.  ``peak_alignment_error`` is deliberately not gated: it
depends on the frequency-grid resolution, not on correctness.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

MAX_SYMMETRY_RESIDUAL = 1e-8
MAX_DYSON_RESIDUAL = 1e-10
NORMALIZATION_TOL = 1e-10


def _read(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text())


def check_output(out_dir, config: dict) -> list:
    """Reasons the output tree fails its gates; an empty list means it passes."""
    out_dir = Path(out_dir)
    try:
        report = _read(out_dir, "report.json")
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"]
    reasons = []
    stages = report["stages"]
    enabled = [name for name, record in stages.items() if record["status"] != "disabled"]
    for name in enabled:
        record = stages[name]
        if record["status"] != "completed":
            reasons.append(f"{name} {record['status']}: {record.get('error', '')}")
    for section in ("oracle", "quasiparticle", "dyson", "spectrum"):
        if config.get(section, {}).get("enabled", True) and section not in enabled:
            reasons.append(f"{section} enabled in the config but reported disabled")

    bands = stages["bands"].get("metrics", {})
    if stages["bands"]["status"] == "completed":
        if not bands["all_converged"]:
            reasons.append("bands: SCF not converged at every k")
        if not bands["max_symmetry_residual"] <= MAX_SYMMETRY_RESIDUAL:
            reasons.append(f"bands: symmetry residual {bands['max_symmetry_residual']:.3e}")

    if stages["dyson"]["status"] == "completed":
        dyson = _read(out_dir, "dyson.json")
        if not dyson["dyson_residual"] <= MAX_DYSON_RESIDUAL:
            reasons.append(f"dyson: residual {dyson['dyson_residual']:.3e}")
        if dyson["flagged_frequencies"]:
            reasons.append(f"dyson: {len(dyson['flagged_frequencies'])} flagged frequencies")

    if stages["oracle"]["status"] == "completed":
        oracle = _read(out_dir, "oracle.json")
        electrons = report["config"]["system"]["electrons"]
        total = sum(oracle["natural_occupations"])
        if not abs(total - electrons) <= NORMALIZATION_TOL:
            reasons.append(f"oracle: natural occupations sum to {total!r}, not {electrons}")
        for rdm in oracle["reduced_density_matrices"]:
            target = rdm["normalization_target"]
            if not abs(rdm["trace"] - target) <= NORMALIZATION_TOL * max(1.0, target):
                reasons.append(
                    f"oracle: order-{rdm['order']} trace {rdm['trace']!r} != {target!r}"
                )
    return reasons


def tree_digest(out_dir) -> str:
    """sha256 over the sorted relative paths and bytes of every file in the tree."""
    out_dir = Path(out_dir)
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()
