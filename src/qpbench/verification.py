"""Runnable acceptance suite: every workbench-level guarantee as one check.

Each check builds its own fixtures, computes the quantity both ways (module
under test vs. an independent route wherever one exists) and returns a
pass/fail record with the measured value and its tolerance.  The CLI
``verify`` subcommand and the acceptance tests both run this suite.
"""

from __future__ import annotations

import filecmp
import math
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import RunConfig
from .density_matrix import (
    determinant_density_matrices,
    energy_from_density_matrices,
    hf_decomposition,
)
from .green_dyson import (
    default_frequency_grid,
    dressed_eigenproblem,
    dyson_residual,
    dyson_solve,
    free_green,
    peak_alignment_error,
)
from .hartree_fock import band_structure, scf_solve
from .hydrogenic import BosonSpectrumParams, boson_energy, mass_operator_limit
from .many_body import (
    exact_reduced_density_matrix,
    full_ci_ground_state,
    reduced_density_matrix_on_grid,
)
from .model_system import build_soft_coulomb_system, core_hamiltonian
from .pipeline import band_trace_residual, run_pipeline
from .quasiparticle import zone_reference


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str
    elapsed: float | None = None  # wall seconds, set by run_check

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"

    def timing(self) -> str:
        """Elapsed wall time, next to the runtime budget when there is one."""
        bound = RUNTIME_BOUNDS.get(self.name)
        text = f"{self.elapsed:.2f}s"
        return text if bound is None else f"{text} of {bound:.0f}s budget"


# wall-clock budgets (seconds) attached to the criteria that carry one
RUNTIME_BOUNDS = {
    "rdm_normalization": 10.0,
    "energy_functional_equivalence": 30.0,
    "dyson_correctness": 20.0,
    "boson_spectrum": 1.0,
}


def _result(name, measured, tolerance, detail_fmt="measured {m:.3e} (tol {t:.1e})"):
    return CheckResult(
        name=name,
        passed=bool(measured <= tolerance),
        measured=float(measured),
        tolerance=float(tolerance),
        detail=detail_fmt.format(m=measured, t=tolerance),
    )


def check_rdm_normalization() -> CheckResult:
    """Sp rho_n = N!/(N-n)! for N up to 4 on a 16-point grid."""
    worst = 0.0
    for n_elec in (1, 2, 3, 4):
        system = build_soft_coulomb_system((16, 0.5), 2.0, 1.0, n_elec, "box")
        _, state = full_ci_ground_state(system, orbital_cutoff=3)
        for order in range(1, n_elec + 1):
            rho = exact_reduced_density_matrix(state, order)
            target = math.factorial(n_elec) / math.factorial(n_elec - order)
            worst = max(worst, abs(rho.trace() - target) / target)
    return _result("rdm_normalization", worst, 1e-10)


def check_energy_functional(seed: int = 20240) -> CheckResult:
    """Two-term density-matrix energy equals the exact eigenvalue, 5 random systems."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        points = int(rng.integers(12, 17))
        system = build_soft_coulomb_system(
            (points, float(rng.uniform(0.4, 0.6))),
            float(rng.uniform(1.0, 3.0)),
            float(rng.uniform(0.8, 1.5)),
            2,
            "box",
        )
        e_ci, state = full_ci_ground_state(system, orbital_cutoff=points)
        rho1 = reduced_density_matrix_on_grid(state, 1)
        rho2 = reduced_density_matrix_on_grid(state, 2)
        e_func = energy_from_density_matrices(
            rho1, rho2, core_hamiltonian(system), system.interaction_kernel
        )
        worst = max(worst, abs(e_func - e_ci))
    return _result("energy_functional_equivalence", worst, 1e-10)


def _one_electron_fixtures():
    yield build_soft_coulomb_system((16, 0.5), 2.0, 1.0, 1, "box"), None
    yield build_soft_coulomb_system((24, 0.4), 1.5, 1.2, 1, "box"), None
    crystal = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 1, "periodic", kpoints=5)
    yield crystal, float(crystal.kgrid[2])  # zone center
    yield crystal, float(crystal.kgrid[0])  # finite momentum


def check_self_action() -> CheckResult:
    """One-electron SCF eigenvalue equals the bare one-body ground eigenvalue."""
    worst = 0.0
    for system, k in _one_electron_fixtures():
        res = scf_solve(system, k=k)
        bare = float(np.linalg.eigvalsh(core_hamiltonian(system, k))[0])
        worst = max(worst, abs(res.eigenvalues[0] - bare))
    return _result("self_action_cancellation", worst, 1e-12)


def _crystal_bands():
    system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 2, "periodic", kpoints=8)
    return system, band_structure(system)


def check_band_symmetry() -> CheckResult:
    """Every converged band satisfies e_n(k) = e_n(-k)."""
    _, bands = _crystal_bands()
    if not np.all(bands.converged_per_k):
        return CheckResult("band_symmetry", False, float("inf"), 1e-8, "SCF unconverged")
    worst = float(np.max(bands.symmetry_residuals))
    return _result("band_symmetry", worst, 1e-8)


def check_variational_ordering() -> CheckResult:
    """Mean-field energy sits above the exact one, and close to it on the default well.

    The mean-field total is assembled through the one-determinant split of the
    density-matrix functional, not from the solver's own accumulator.
    """
    slack = 1e-10
    fixtures = [
        ((16, 0.5), 2.0, 1.0),
        ((14, 0.55), 1.4, 0.9),
        ((12, 0.45), 2.6, 1.3),
    ]
    worst_violation = 0.0
    default_ratio = None
    for i, (gspec, depth, soft) in enumerate(fixtures):
        system = build_soft_coulomb_system(gspec, depth, soft, 2, "box")
        res = scf_solve(system)
        rho1, rho2 = determinant_density_matrices(
            res.orbitals[:, : res.n_occupied], 2, system.grid.spacing
        )
        one_body, excitation = hf_decomposition(
            rho2, system.interaction_kernel, rho1, core_hamiltonian(system)
        )
        e_mf = one_body + excitation
        e_ci, _ = full_ci_ground_state(system, orbital_cutoff=gspec[0])
        worst_violation = max(worst_violation, e_ci - e_mf)
        if i == 0:
            default_ratio = (e_mf - e_ci) / abs(e_ci)
    ordering_ok = worst_violation <= slack
    ratio_ok = default_ratio <= 0.1
    return CheckResult(
        name="variational_ordering",
        passed=bool(ordering_ok and ratio_ok),
        measured=float(default_ratio),
        tolerance=0.1,
        detail=(
            f"max(E_exact - E_mf) = {worst_violation:.3e} (slack {slack:.0e}); "
            f"default-well correlation ratio {default_ratio:.3e} (bound 0.1)"
        ),
    )


def check_trace_identity() -> CheckResult:
    """Band-averaged trace identity on the 2-electron crystal, 8 momenta."""
    system, bands = _crystal_bands()
    residual = band_trace_residual(bands, 2, system.grid.spacing)
    return _result("trace_energy_identity", residual, 1e-8)


def _dyson_fixture():
    system = build_soft_coulomb_system((16, 0.5), 2.0, 1.0, 2, "box")
    res = scf_solve(system)
    omegas = default_frequency_grid(res.eigenvalues, count=2000, pad=1.0)
    g0 = free_green(res.fock.total, omegas, eta=1e-3)
    return res, g0


def check_dyson() -> CheckResult:
    """Dyson defect below 1e-10 for zero, constant and tabulated kernels; zero is bitwise."""
    res, g0 = _dyson_fixture()
    dim = g0.dim
    rng = np.random.default_rng(11)
    herm = rng.normal(size=(dim, dim))
    herm = 0.05 * (herm + herm.T)
    kernels = {
        "zero": np.zeros((dim, dim)),
        "constant": herm,
        "tabulated": np.array([0.1 * np.tanh(w) * np.eye(dim) for w in g0.omegas]),
    }
    worst = 0.0
    bitwise = True
    for name, sigma in kernels.items():
        dressed = dyson_solve(g0, sigma)
        if dressed.flagged:
            return CheckResult(
                "dyson_correctness", False, float("inf"), 1e-10,
                f"flagged frequencies under {name} kernel",
            )
        worst = max(worst, dyson_residual(dressed, g0, sigma))
        if name == "zero":
            bitwise = bool(np.array_equal(dressed.matrices, g0.matrices))
    result = _result("dyson_correctness", worst, 1e-10)
    if not bitwise:
        return CheckResult(
            "dyson_correctness", False, result.measured, 1e-10,
            "zero-kernel propagator not bitwise equal to the free one",
        )
    return result


def check_dressing_consistency() -> CheckResult:
    """Spectral peaks align with the static dressed eigenvalues within one grid step."""
    res, g0 = _dyson_fixture()
    dim = g0.dim
    rng = np.random.default_rng(13)
    herm = rng.normal(size=(dim, dim))
    herm = 0.05 * (herm + herm.T)
    dressed = dyson_solve(g0, herm)
    levels = dressed_eigenproblem(res.fock.total, herm)
    step = float(g0.omegas[1] - g0.omegas[0])
    err = peak_alignment_error(dressed.omegas, dressed.spectral_function(), levels)
    return _result(
        "dressing_consistency",
        err,
        step,
        detail_fmt="peak offset {m:.3e} (one grid step {t:.3e})",
    )


def check_quasiparticle_algebra(seed: int = 515) -> CheckResult:
    """Pair-energy relations over 100 randomized (extremum, mass-shift) draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        extr = float(rng.uniform(-5.0, 5.0))
        dm = float(rng.uniform(1.0, 4.0))  # heavy branch
        plus, minus, pair = zone_reference(extr, dm)
        if pair != 0.5 * (plus - minus):
            return CheckResult(
                "quasiparticle_algebra", False, float("inf"), 1e-12,
                "pair energy is not half the level splitting",
            )
        worst = max(worst, abs(pair + 0.5 * dm))
        _, _, pair_light = zone_reference(extr, 0.0)
        worst = max(worst, abs(pair_light))
    return _result("quasiparticle_algebra", worst, 1e-12)


def check_boson_spectrum() -> CheckResult:
    """Closed-form boson energies and the extrapolated rest-mass limit."""
    failures = []
    for n, k in ((1, 1), (2, 1), (7, 3)):
        if boson_energy(BosonSpectrumParams(1.0, 0.0, n, k)) != 0.5:
            failures.append(f"gamma=0 value not exactly 1/2 at n={n}, k={k}")
    frozen = 0.494987625  # term-by-term arithmetic for m=1, gamma=0.1, n=1, k=1
    err = abs(boson_energy(BosonSpectrumParams(1.0, 0.1, 1, 1)) - frozen)
    limit_err = max(
        abs(mass_operator_limit(m, 0.1, 1, [10, 100, 1000]) - m) for m in (1.0, 2.0)
    )
    passed = not failures and err <= 1e-15 and limit_err <= 1e-8
    detail = (
        f"series error {err:.2e} (tol 1e-15), mass-limit error {limit_err:.2e} (tol 1e-8)"
    )
    if failures:
        detail += "; " + "; ".join(failures)
    return CheckResult("boson_spectrum", passed, max(err, limit_err), 1e-8, detail)


def check_truncation_order() -> CheckResult:
    """Residual after removing the quadratic term scales at least like gamma^4."""
    n, k = 2, 1
    gammas = np.array([0.2, 0.1, 0.05, 0.025])
    resid = []
    for g in gammas:
        e = boson_energy(BosonSpectrumParams(1.0, float(g), n, k))
        resid.append(abs(e - 0.5 + g * g / (2.0 * n * n)))
    slope = np.polyfit(np.log(gammas), np.log(resid), 1)[0]
    return CheckResult(
        name="truncation_order",
        passed=bool(slope >= 4.0),
        measured=float(slope),
        tolerance=4.0,
        detail=f"fitted log-log exponent {slope:.4f} (needs >= 4)",
    )


def check_determinism() -> CheckResult:
    """Two identical pipeline runs produce byte-identical output trees."""
    config = RunConfig.from_dict(
        {
            "system": {
                "points": 12,
                "spacing": 0.5,
                "electrons": 2,
                "boundary": "periodic",
                "kpoints": 8,
            },
            "oracle": {"orbital_cutoff": 6},
            "self_energy": {"kind": "constant", "scale": 1.5},
            "dyson": {"count": 400},
        }
    )
    with tempfile.TemporaryDirectory() as tmp:
        dir_a = Path(tmp) / "a"
        dir_b = Path(tmp) / "b"
        run_pipeline(config, dir_a)
        run_pipeline(config, dir_b)
        names_a = sorted(p.name for p in dir_a.iterdir())
        names_b = sorted(p.name for p in dir_b.iterdir())
        if names_a != names_b:
            return CheckResult(
                "determinism", False, float("inf"), 0.0, "output trees differ in files"
            )
        _, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names_a, shallow=False)
        ok = not mismatch and not errors
        detail = (
            f"{len(names_a)} files byte-identical"
            if ok
            else f"files differ: {sorted(mismatch + errors)}"
        )
        return CheckResult("determinism", ok, float(len(mismatch)), 0.0, detail)


_CHECKS = (
    check_rdm_normalization,
    check_energy_functional,
    check_self_action,
    check_band_symmetry,
    check_variational_ordering,
    check_trace_identity,
    check_dyson,
    check_dressing_consistency,
    check_quasiparticle_algebra,
    check_boson_spectrum,
    check_truncation_order,
    check_determinism,
)


def run_check(check) -> CheckResult:
    """Run one check under its wall-clock budget, if it carries one."""
    start = time.perf_counter()
    result = check()
    elapsed = time.perf_counter() - start
    bound = RUNTIME_BOUNDS.get(result.name)
    if bound is not None and elapsed > bound:
        result = replace(
            result,
            passed=False,
            detail=result.detail + f"; runtime {elapsed:.1f}s over the {bound:.0f}s budget",
        )
    return replace(result, elapsed=elapsed)


def run_all_checks() -> list[CheckResult]:
    return [run_check(check) for check in _CHECKS]
