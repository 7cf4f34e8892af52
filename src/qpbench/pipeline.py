"""Pipeline orchestration: build a system, run the requested stages, persist results.

Stages run in dependency order; a stage failure is recorded, its dependents
are skipped, and all completed outputs stay on disk with the report marked
degraded.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import reports
from .config import RunConfig, system_hash
from .density_matrix import band_projector, trace_energy_identity
from .green_dyson import (
    default_frequency_grid,
    dressed_eigenproblem,
    dyson_solve,
    free_green,
    lehmann_spectral_function,
    peak_alignment_error,
    residual_subsample,
)
from .hartree_fock import BandStructure, SCFResult, band_structure
from .hydrogenic import BosonSpectrumParams, boson_energy, mass_operator_limit
from .many_body import (
    exact_reduced_density_matrix,
    full_ci_ground_state,
    natural_occupations,
)
from .model_system import ModelSystem, build_soft_coulomb_system, core_hamiltonian
from .quasiparticle import assemble_level, band_midpoint, mass_shift, reference_point


def build_system(config: RunConfig) -> ModelSystem:
    sc = config["system"]
    return build_soft_coulomb_system(
        (sc["points"], sc["spacing"]),
        sc["well_depth"],
        sc["softening"],
        sc["electrons"],
        sc["boundary"],
        kpoints=sc["kpoints"],
        wells=sc["wells"],
    )


def _self_energy_kernel(config: RunConfig, dim: int, k: float) -> np.ndarray:
    """The configured (dim, dim) self-energy kernel at momentum ``k``."""
    spec = config["self_energy"]
    if spec["kind"] == "zero":
        return np.zeros((dim, dim))
    if spec["kind"] == "constant":
        return spec["scale"] * np.eye(dim)
    return spec["scale"] * np.cos(k) * np.eye(dim)


def band_trace_residual(bands: BandStructure, n_electrons: int, spacing: float) -> float:
    """Residual of the band-0 trace identity over every sampled momentum.

    Projects onto the lowest band orbital at each momentum and traces it
    against that momentum's core and mean-field (Coulomb minus exchange)
    operators; the reference point is the band-0 minimum.
    """
    projectors, h_ops, v_ops = [], [], []
    for res in bands.scf_results:
        vec = res.orbitals[:, 0] * np.sqrt(spacing)
        projectors.append(band_projector(vec))
        h_ops.append(res.fock.h_core)
        v_ops.append(res.fock.hartree - res.fock.exchange)
    eps0 = reference_point(bands.bands[0], n_electrons, "min")
    return trace_energy_identity(
        projectors, h_ops, v_ops, bands.bands[0], eps0, n_electrons
    )


def _stage_oracle(system, config, out_dir, chash, state):
    energy, wavefunction = full_ci_ground_state(
        system, config["oracle"]["orbital_cutoff"]
    )
    shash = system_hash(system.snapshot())
    rdms = [
        exact_reduced_density_matrix(wavefunction, order)
        for order in range(1, min(system.n_electrons, 2) + 1)
    ]
    record = {
        "system_hash": shash,
        "orbital_cutoff": config["oracle"]["orbital_cutoff"],
        "sz": wavefunction.sz,
        "determinants": len(wavefunction.determinants),
        "energy": energy,
        "natural_occupations": natural_occupations(rdms[0]),
        "reduced_density_matrices": [
            reports.density_matrix_record(rho, shash) for rho in rdms
        ],
    }
    path = reports.write_json(out_dir / "oracle.json", record, chash)
    return [path], {"ci_energy": energy}


def _stage_bands(system, config, out_dir, chash, state):
    scf = config["scf"]
    bands = band_structure(system, max_iter=scf["max_iter"], tol=scf["tol"])
    state["bands"] = bands
    nk = bands.kgrid.size
    columns = {
        "k": np.tile(bands.kgrid, bands.n_bands),
        "band": np.repeat(np.arange(bands.n_bands), nk),
        "energy": bands.bands.ravel(),
        "occupation": np.repeat(bands.occupations, nk),
    }
    csv_path = reports.write_csv(out_dir / "bands.csv", columns, chash)
    svg_path = Path(out_dir / "bands.svg")
    svg_path.write_text(
        reports.band_plot_svg(bands.kgrid, bands.bands, [], chash)
    )
    log = []
    for res in bands.scf_results:
        log.append(
            {
                "k": res.momentum,
                "converged": res.converged,
                "iterations": res.iterations,
                "final_residual": res.final_residual,
                "residual_history": list(res.residual_history),
                "energy_history": list(res.energy_history),
                "energy": res.energy,
                "monotone_after_3": res.monotone_after_3,
            }
        )
    log_path = reports.write_json(
        out_dir / "scf_log.json",
        {"records": log, "symmetry_residuals": bands.symmetry_residuals},
        chash,
    )
    metrics = {
        "all_converged": bool(np.all(bands.converged_per_k)),
        "hf_energy": bands.scf_results[0].energy,
        "max_symmetry_residual": float(np.max(bands.symmetry_residuals)),
    }
    if system.n_electrons == 1:
        worst = 0.0
        for res in bands.scf_results:
            bare = float(
                np.linalg.eigvalsh(core_hamiltonian(system, res.momentum))[0]
            )
            worst = max(worst, abs(float(res.eigenvalues[0]) - bare))
        metrics["self_action_residual"] = worst
    return [csv_path, svg_path, log_path], metrics


def _scf_gate_error(res: SCFResult, rejected: str) -> ValueError:
    """The error of a stage that needs the SCF at ``res.momentum`` converged."""
    return ValueError(
        f"SCF at k={res.momentum!r} is not converged (final residual "
        f"{res.final_residual!r}); {rejected} rejected"
    )


def _stage_quasiparticle(system, config, out_dir, chash, state):
    bands: BandStructure = state["bands"]
    qp = config["quasiparticle"]
    band = qp["band"]
    # a failed SCF at any momentum invalidates every band at that momentum
    unconverged = next((res for res in bands.scf_results if not res.converged), None)
    if unconverged is not None:
        raise _scf_gate_error(unconverged, "quasiparticle levels")
    dim = system.grid.npoints
    sigma = np.array([_self_energy_kernel(config, dim, k) for k in bands.kgrid])
    shift = mass_shift(band, sigma, list(bands.scf_results), bands.kgrid)
    level = assemble_level(
        bands.bands[band],
        shift,
        system.n_electrons,
        extremum_kind=qp["extremum"],
        offset_constant=qp["offset_constant"],
    )
    # residual of the averaged band-trace identity: single-band accounting,
    # meaningful when one spatial band carries all electrons
    identity_residual = None
    if system.n_electrons <= 2:
        identity_residual = band_trace_residual(
            bands, system.n_electrons, system.grid.spacing
        )
    record = {
        "band": band,
        "reference_epsilon0": level.reference_epsilon0,
        "shifted_reference": level.shifted_reference,
        "pair_energy": level.pair_energy,
        "plus_level": level.plus_level,
        "minus_level": level.minus_level,
        "regime": level.regime,
        "offset_constant": qp["offset_constant"],
        "delta_m0": shift.delta_m0,
        "delta_mk": shift.delta_mk,
        "kgrid": bands.kgrid,
        "band_midpoint": band_midpoint(bands.bands[band]),
        "trace_identity_residual": identity_residual,
    }
    path = reports.write_json(out_dir / "quasiparticle.json", record, chash)
    svg_path = Path(out_dir / "quasiparticle.svg")
    svg_path.write_text(
        reports.band_plot_svg(bands.kgrid, bands.bands, [level], chash)
    )
    metrics = {
        "delta_m0": shift.delta_m0,
        "pair_energy": level.pair_energy,
        "regime": level.regime,
        "trace_identity_residual": identity_residual,
    }
    return [path, svg_path], metrics


def _stage_dyson(system, config, out_dir, chash, state):
    bands: BandStructure = state["bands"]
    dy = config["dyson"]
    # dress the solution at the momentum nearest the zone center
    idx = int(np.argmin(np.abs(bands.kgrid)))
    res = bands.scf_results[idx]
    if not res.converged:
        raise _scf_gate_error(res, "Dyson dressing")
    hamiltonian = res.fock.total
    kernel = _self_energy_kernel(config, system.grid.npoints, bands.kgrid[idx])
    levels = dressed_eigenproblem(hamiltonian, kernel)
    # frequency window spans both the bare and the dressed spectra
    omegas = default_frequency_grid(
        np.concatenate([res.eigenvalues, levels]), count=dy["count"], pad=dy["pad"]
    )
    # the kernel is static and Hermitian: the spectrum is a sum over the levels
    weights = lehmann_spectral_function(levels, omegas, dy["eta"])
    alignment = peak_alignment_error(omegas, weights, levels)
    # the direct solve runs on a pinned subsample only; its defects are the
    # solver's own, and verification recomputes them through dyson_residual
    sample = residual_subsample(omegas, levels)
    g0 = free_green(hamiltonian, omegas[sample], eta=dy["eta"])
    dressed = dyson_solve(g0, kernel)
    residual = float(np.max(dressed.defects[dressed.retained()], initial=0.0))
    csv_path = reports.write_csv(
        out_dir / "spectral.csv", {"omega": omegas, "spectral_weight": weights}, chash
    )
    svg_path = Path(out_dir / "spectral.svg")
    svg_path.write_text(reports.spectral_plot_svg(omegas, weights, chash))
    record = {
        "momentum": float(bands.kgrid[idx]),
        "eta": dy["eta"],
        "frequency_count": dy["count"],
        "dyson_residual": residual,
        "flagged_frequencies": sample[list(dressed.flagged)],
        "dressed_levels": levels,
        "peak_alignment_error": alignment,
        "grid_spacing": float(omegas[1] - omegas[0]),
    }
    json_path = reports.write_json(out_dir / "dyson.json", record, chash)
    metrics = {"dyson_residual": residual, "peak_alignment_error": alignment}
    return [csv_path, svg_path, json_path], metrics


def _stage_spectrum(system, config, out_dir, chash, state):
    sp = config["spectrum"]
    ns = np.repeat(sp["n_values"], len(sp["k_values"]))
    ks = np.tile(sp["k_values"], len(sp["n_values"]))
    energy = np.array(
        [
            boson_energy(BosonSpectrumParams(mass=sp["mass"], gamma=sp["gamma"], n=n, k=k))
            for n, k in zip(ns.tolist(), ks.tolist())
        ]
    )
    columns = {
        "n": ns,
        "k": ks,
        "gamma": np.full(ns.size, sp["gamma"]),
        "mass": np.full(ns.size, sp["mass"]),
        "energy": energy,
        "twice_energy": 2.0 * energy,
    }
    csv_path = reports.write_csv(out_dir / "spectrum.csv", columns, chash)
    metrics = {}
    if len(sp["n_values"]) >= 3:
        metrics["mass_limit"] = mass_operator_limit(
            sp["mass"], sp["gamma"], sp["k_values"][0], sorted(sp["n_values"])
        )
    return [csv_path], metrics


# name -> (runner, stages it needs), in run order; the one stage graph.  A stage
# runs unless its config section sets ``enabled: false``.
STAGE_TABLE = {
    "oracle": (_stage_oracle, ()),
    "bands": (_stage_bands, ()),
    "quasiparticle": (_stage_quasiparticle, ("bands",)),
    "dyson": (_stage_dyson, ("bands",)),
    "spectrum": (_stage_spectrum, ()),
}

STAGES = tuple(STAGE_TABLE)


def run_pipeline(
    config: RunConfig,
    out_dir,
    stages: tuple = STAGES,
) -> dict:
    """Execute the requested stages and persist a run report.

    Returns the report dict (also written to ``report.json``): per-stage
    status, artifact paths and summary metrics, plus a ``degraded`` flag when
    any stage failed.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    chash = config.hash()
    system = build_system(config)
    reports.write_json(out_dir / "system.json", system.snapshot(), chash)

    state: dict = {}
    stage_report: dict = {}
    degraded = False
    for name, (runner, needs) in STAGE_TABLE.items():
        section = config.data.get(name, {})
        if name not in stages or not section.get("enabled", True):
            stage_report[name] = {"status": "disabled"}
            continue
        failed_dep = next(
            (dep for dep in needs if stage_report[dep]["status"] != "completed"),
            None,
        )
        if failed_dep is not None:
            stage_report[name] = {
                "status": "skipped",
                "error": f"dependency {failed_dep!r} did not complete",
            }
            degraded = True
            continue
        try:
            artifacts, metrics = runner(system, config, out_dir, chash, state)
            stage_report[name] = {
                "status": "completed",
                "artifacts": [p.name for p in artifacts],
                "metrics": metrics,
            }
        except Exception as exc:  # stage isolation: record, keep going
            stage_report[name] = {"status": "failed", "error": f"{type(exc).__name__}: {exc}"}
            degraded = True

    report = {
        "config": config.data,
        "system_hash": system_hash(system.snapshot()),
        "stages": stage_report,
        "degraded": degraded,
        "seed": config["seed"],
    }
    reports.write_json(out_dir / "report.json", report, chash)
    return report
