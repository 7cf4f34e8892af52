"""Band reference points, mass shifts and pair-creation energies.

The mass shift of a band is the expectation of a model correlation self-energy
in the converged band orbitals, split into its zone-center limit and a
momentum-dependent remainder.  Reference points, particle/antiparticle levels
and the light/heavy regime are simple algebra on those two numbers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .green_dyson import check_hermitian, kernel_stack
from .hartree_fock import SCFResult

LIGHT = "light"
HEAVY = "heavy"

_LIGHT_TOL = 1e-6


@dataclass(frozen=True)
class MassShift:
    """Zone-center mass shift and its momentum-dependent remainder for one band."""

    band: int
    delta_m0: float
    delta_mk: np.ndarray  # per momentum, vanishing toward k = 0
    kgrid: np.ndarray
    raw: np.ndarray  # full per-momentum expectation delta_m0 + delta_mk


@dataclass(frozen=True)
class QuasiparticleLevel:
    """Reference-point bookkeeping for one band."""

    band: int
    reference_epsilon0: float
    shifted_reference: float
    pair_energy: float
    plus_level: float
    minus_level: float
    regime: str
    offset_constant: float


def reference_point(
    band_energies: np.ndarray,
    n_electrons: int,
    extremum_kind: str = "min",
    converged: bool = True,
) -> float:
    """Band reference point: the chosen extremum of the samples divided by N."""
    e = np.asarray(band_energies, dtype=float)
    if e.size == 0:
        raise ValueError("band has no samples")
    if not converged:
        raise ValueError("band is not converged; reference point rejected")
    if extremum_kind == "min":
        extr = float(np.min(e))
    elif extremum_kind == "max":
        extr = float(np.max(e))
    else:
        raise ValueError(f"unknown extremum kind {extremum_kind!r}")
    return extr / n_electrons


def band_midpoint(band_energies: np.ndarray) -> float:
    """Diagnostic band center (min + max) / 2."""
    e = np.asarray(band_energies, dtype=float)
    return 0.5 * (float(np.min(e)) + float(np.max(e)))


def mass_shift(
    band: int,
    sigma_c: np.ndarray,
    scf_results: list[SCFResult],
    kgrid: np.ndarray,
) -> MassShift:
    """Per-momentum self-energy expectation split into zone-center and remainder.

    ``sigma_c`` is a static Hermitian (d, d) kernel or an (nk, d, d) table
    aligned with ``kgrid``.  The zone-center value is a quadratic
    extrapolation through the three sampled momenta nearest k = 0 (exact when
    the zone center is sampled); the remainder is the per-momentum value minus
    that limit.
    """
    kgrid = np.asarray(kgrid, dtype=float)
    if len(scf_results) != kgrid.size:
        raise ValueError("one SCF result per momentum required")
    kernels = kernel_stack(sigma_c, kgrid.size, scf_results[0].orbitals.shape[0])
    w = None
    raw = np.empty(kgrid.size)
    for i, (k, res, kernel) in enumerate(zip(kgrid, scf_results, kernels)):
        check_hermitian(kernel, f"self-energy kernel at k={float(k)!r}")
        vec = res.orbitals[:, band]
        if w is None:
            w = 1.0 / float(np.real(vec.conj() @ vec))  # quadrature weight
        raw[i] = float(np.real(vec.conj() @ kernel @ vec) * w)
    delta_m0 = _extrapolate_to_zero(kgrid, raw)
    return MassShift(
        band=band,
        delta_m0=delta_m0,
        delta_mk=raw - delta_m0,
        kgrid=kgrid,
        raw=raw,
    )


def _extrapolate_to_zero(kgrid: np.ndarray, values: np.ndarray) -> float:
    order = sorted(range(kgrid.size), key=lambda i: (abs(kgrid[i]), kgrid[i]))
    pick = order[: min(3, kgrid.size)]
    ks = kgrid[pick]
    ys = values[pick]
    if len(pick) == 1:
        return float(ys[0])
    if len(pick) == 2:
        slope = (ys[1] - ys[0]) / (ks[1] - ks[0])
        return float(ys[0] - slope * ks[0])
    vander = np.vander(ks, 3)  # columns k^2, k, 1
    coeffs = np.linalg.solve(vander, ys)
    return float(coeffs[2])


def zone_reference(extr_tilde: float, delta_m0: float) -> tuple[float, float, float]:
    """Particle and antiparticle reference levels and the pair-creation energy.

    plus = (Extr - dM0)/2 and minus = (Extr + dM0)/2, so the pair energy
    (plus - minus)/2 equals -dM0/2 regardless of the gauge offset.
    """
    plus_level = 0.5 * (extr_tilde - delta_m0)
    minus_level = 0.5 * (extr_tilde + delta_m0)
    pair_energy = 0.5 * (plus_level - minus_level)
    return plus_level, minus_level, pair_energy


def strict_reference(extr_over_n: float, delta_m0: float) -> float:
    """Interaction-corrected reference point Extr E/N - dM(0)."""
    return extr_over_n - delta_m0


def classify_regime(delta_m0: float, threshold: float = 1.0) -> str:
    """Light electron for vanishing mass shift, heavy at or above the threshold.

    Intermediate values have no sharp classification; they are flagged with a
    warning and treated as light.
    """
    if abs(delta_m0) < _LIGHT_TOL * threshold:
        return LIGHT
    if delta_m0 >= threshold:
        return HEAVY
    warnings.warn(
        f"mass shift {delta_m0!r} between the light and heavy regimes; treating as light",
        stacklevel=2,
    )
    return LIGHT


def assemble_level(
    band: int,
    band_energies: np.ndarray,
    shift: MassShift,
    n_electrons: int,
    extremum_kind: str = "min",
    offset_constant: float = 0.0,
    converged: bool = True,
) -> QuasiparticleLevel:
    """Combine a band with its mass shift into the full reference-point record."""
    extr_over_n = reference_point(band_energies, n_electrons, extremum_kind, converged)
    extr = extr_over_n * n_electrons
    eps0 = strict_reference(extr_over_n, shift.delta_m0)
    plus_level, minus_level, pair_energy = zone_reference(
        extr - offset_constant, shift.delta_m0
    )
    return QuasiparticleLevel(
        band=band,
        reference_epsilon0=eps0,
        shifted_reference=eps0 + shift.delta_m0,
        pair_energy=pair_energy,
        plus_level=plus_level,
        minus_level=minus_level,
        regime=classify_regime(shift.delta_m0),
        offset_constant=offset_constant,
    )
