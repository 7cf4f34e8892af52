"""Frequency-domain one-particle propagators and the Dyson equation.

The free propagator is built from a converged mean-field Hamiltonian as
G0(w) = (w + i eta - H)^-1 on a broadened real-frequency grid; the dressed
propagator solves G = G0 + G0 Sigma G under a model correlation self-energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZERO = "zero"
CONSTANT = "constant"
TABULATED = "tabulated"

_HERMITICITY_TOL = 1e-12


def _hermiticity_error(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


@dataclass(frozen=True)
class SelfEnergyModel:
    """Model correlation self-energy, evaluable per momentum or per frequency.

    ``zero`` and ``constant`` kinds work on either axis; tabulated models
    carry explicit kernels aligned with a momentum grid and/or a frequency
    grid.  Frequency-independent kernels must be Hermitian.
    """

    kind: str
    dim: int
    kernel: np.ndarray | None = None
    momentum_grid: np.ndarray | None = None
    momentum_kernels: np.ndarray | None = None
    frequency_kernels: np.ndarray | None = None

    @classmethod
    def zero(cls, dim: int) -> "SelfEnergyModel":
        return cls(kind=ZERO, dim=dim)

    @classmethod
    def constant(cls, kernel: np.ndarray) -> "SelfEnergyModel":
        k = np.asarray(kernel)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError("constant kernel must be a square matrix")
        err = _hermiticity_error(k)
        if err > _HERMITICITY_TOL:
            raise ValueError(f"constant self-energy kernel not Hermitian (error {err:.2e})")
        return cls(kind=CONSTANT, dim=k.shape[0], kernel=k)

    @classmethod
    def scaled_identity(cls, coefficient: float, dim: int) -> "SelfEnergyModel":
        return cls.constant(coefficient * np.eye(dim))

    @classmethod
    def separable(cls, coefficient: float, vector: np.ndarray) -> "SelfEnergyModel":
        """Rank-1 kernel c |v><v| for a normalized vector."""
        v = np.asarray(vector)
        return cls.constant(coefficient * np.outer(v, v.conj()))

    @classmethod
    def tabulated_momentum(
        cls, kgrid: np.ndarray, kernels: np.ndarray
    ) -> "SelfEnergyModel":
        kg = np.asarray(kgrid, dtype=float)
        ks = np.asarray(kernels)
        if ks.ndim != 3 or ks.shape[0] != kg.size or ks.shape[1] != ks.shape[2]:
            raise ValueError("momentum kernels must be (nk, d, d) aligned with kgrid")
        return cls(
            kind=TABULATED, dim=ks.shape[1], momentum_grid=kg, momentum_kernels=ks
        )

    @classmethod
    def tabulated_frequency(cls, kernels: np.ndarray) -> "SelfEnergyModel":
        ks = np.asarray(kernels)
        if ks.ndim != 3 or ks.shape[1] != ks.shape[2]:
            raise ValueError("frequency kernels must be (nw, d, d)")
        return cls(kind=TABULATED, dim=ks.shape[1], frequency_kernels=ks)

    def at_momentum(self, index: int, k: float) -> np.ndarray:
        if self.kind == ZERO:
            return np.zeros((self.dim, self.dim))
        if self.kind == CONSTANT:
            return self.kernel
        if self.momentum_kernels is None:
            raise ValueError("tabulated model carries no momentum kernels")
        if abs(self.momentum_grid[index] - k) > 1e-12:
            raise ValueError(
                f"momentum mismatch at index {index}: "
                f"table holds k={self.momentum_grid[index]!r}, requested {k!r}"
            )
        return self.momentum_kernels[index]

    def at_frequency(self, index: int, n_frequencies: int) -> np.ndarray:
        if self.kind == ZERO:
            return np.zeros((self.dim, self.dim))
        if self.kind == CONSTANT:
            return self.kernel
        if self.frequency_kernels is None:
            raise ValueError("tabulated model carries no frequency kernels")
        if self.frequency_kernels.shape[0] != n_frequencies:
            raise ValueError("frequency table does not match the propagator grid")
        return self.frequency_kernels[index]


@dataclass(frozen=True)
class GreenFunction:
    """Frequency-sampled matrix propagator.

    ``matrices[i]`` is the propagator at ``omegas[i] + 1j * eta``, normalized
    to an identity source.
    """

    omegas: np.ndarray
    eta: float
    matrices: np.ndarray
    kind: str  # "free" | "dressed"
    flagged: tuple = ()

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def spectral_function(self) -> np.ndarray:
        """-Im Tr G / pi at each sampled frequency."""
        return -np.imag(np.trace(self.matrices, axis1=1, axis2=2)) / np.pi


def default_frequency_grid(
    eigenvalues: np.ndarray, count: int = 2000, pad: float = 1.0
) -> np.ndarray:
    lo = float(np.min(eigenvalues)) - pad
    hi = float(np.max(eigenvalues)) + pad
    return np.linspace(lo, hi, count)


def free_green(
    hf_hamiltonian: np.ndarray,
    omega_grid: np.ndarray,
    eta: float = 1e-3,
) -> GreenFunction:
    """Free propagator (w + i eta - H)^-1 of a Hermitian mean-field operator."""
    h = np.asarray(hf_hamiltonian)
    if eta <= 0:
        raise ValueError("broadening eta must be positive")
    err = _hermiticity_error(h)
    if err > _HERMITICITY_TOL:
        raise ValueError(f"mean-field Hamiltonian not Hermitian (error {err:.2e})")
    omegas = np.asarray(omega_grid, dtype=float)
    d = h.shape[0]
    eye = np.eye(d)
    shifted = (omegas[:, None, None] + 1j * eta) * eye[None, :, :] - h[None, :, :]
    matrices = np.linalg.inv(shifted)
    return GreenFunction(omegas=omegas, eta=eta, matrices=matrices, kind="free")


def _defect(g: np.ndarray, g0: np.ndarray, sig: np.ndarray) -> float:
    """Max-norm defect of G - G0 - G0 Sigma G at one frequency."""
    return float(np.max(np.abs(g - g0 - g0 @ sig @ g)))


def dyson_solve(
    g0: GreenFunction,
    sigma: SelfEnergyModel,
    residual_tol: float = 1e-10,
) -> GreenFunction:
    """Dressed propagator satisfying G = G0 + G0 Sigma G at every frequency.

    Solves (I - G0 Sigma) G = G0 per frequency.  Frequencies where the solve
    is singular or leaves a defect above ``residual_tol`` are flagged rather
    than silently dropped.
    """
    if sigma.dim != g0.dim:
        raise ValueError("self-energy dimension does not match the propagator")
    if sigma.kind == ZERO:
        # identical assembly: the dressed propagator is the free one
        return GreenFunction(
            omegas=g0.omegas,
            eta=g0.eta,
            matrices=g0.matrices.copy(),
            kind="dressed",
        )
    nw = g0.omegas.size
    eye = np.eye(g0.dim)
    out = np.empty_like(g0.matrices)
    flagged = []
    for i in range(nw):
        g0i = g0.matrices[i]
        sig = sigma.at_frequency(i, nw)
        try:
            out[i] = np.linalg.solve(eye - g0i @ sig, g0i)
        except np.linalg.LinAlgError:
            flagged.append(i)
            out[i] = np.nan
            continue
        if _defect(out[i], g0i, sig) > residual_tol:
            flagged.append(i)
    return GreenFunction(
        omegas=g0.omegas,
        eta=g0.eta,
        matrices=out,
        kind="dressed",
        flagged=tuple(flagged),
    )


def dyson_residual(g: GreenFunction, g0: GreenFunction, sigma: SelfEnergyModel) -> float:
    """Max-norm defect of G - G0 - G0 Sigma G over all retained frequencies."""
    nw = g0.omegas.size
    worst = 0.0
    for i in range(nw):
        if i in g.flagged:
            continue
        worst = max(worst, _defect(g.matrices[i], g0.matrices[i], sigma.at_frequency(i, nw)))
    return worst


def dressed_eigenproblem(
    hf_hamiltonian: np.ndarray, sigma_kernel: np.ndarray
) -> np.ndarray:
    """Spectrum of H + Sigma for a frequency-independent Hermitian kernel."""
    h = np.asarray(hf_hamiltonian)
    s = np.asarray(sigma_kernel)
    if s.shape != h.shape:
        raise ValueError("kernel dimension does not match the Hamiltonian")
    err = _hermiticity_error(s)
    if err > _HERMITICITY_TOL:
        raise ValueError(f"self-energy kernel not Hermitian (error {err:.2e})")
    return np.linalg.eigvalsh(h + s)


def spectral_peaks(green: GreenFunction) -> np.ndarray:
    """Frequencies of the local maxima of the spectral function."""
    a = green.spectral_function()
    idx = [
        i
        for i in range(1, a.size - 1)
        if a[i] > a[i - 1] and a[i] >= a[i + 1]
    ]
    return green.omegas[idx]


def peak_alignment_error(green: GreenFunction, levels: np.ndarray) -> float:
    """Largest distance from a level to its nearest spectral peak."""
    peaks = spectral_peaks(green)
    if peaks.size == 0:
        return float("inf")
    return float(max(np.min(np.abs(peaks - e)) for e in np.asarray(levels)))
