"""Frequency-domain one-particle propagators and the Dyson equation.

The free propagator is built from a converged mean-field Hamiltonian as
G0(w) = (w + i eta - H)^-1 on a broadened real-frequency grid; the dressed
propagator solves G = G0 + G0 Sigma G under a model correlation self-energy.
For a static Hermitian self-energy the pipeline takes the spectral function
as a Lehmann sum over the levels of H + Sigma and checks the direct Dyson
solve only on a pinned subsample of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZERO = "zero"
CONSTANT = "constant"
TABULATED = "tabulated"

_HERMITICITY_TOL = 1e-12
# complex elements per (frequency block, d, d) temporary: about 64 KB.  A block
# holds _BLOCK_ELEMENTS // d**2 frequencies, and at least one.
_BLOCK_ELEMENTS = 1 << 12
# the pipeline's Dyson check visits every ceil(nw / _SUBSAMPLE_POINTS)-th frequency
_SUBSAMPLE_POINTS = 64


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
        if not err <= _HERMITICITY_TOL:  # NaN is rejected too
            raise ValueError(f"constant self-energy kernel not Hermitian (error {err:.2e})")
        return cls(kind=CONSTANT, dim=k.shape[0], kernel=k)

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
        return self.frequency_table(n_frequencies)[index]

    def frequency_table(self, n_frequencies: int) -> np.ndarray:
        """The (n_frequencies, d, d) kernels of a tabulated model."""
        if self.frequency_kernels is None:
            raise ValueError("tabulated model carries no frequency kernels")
        if self.frequency_kernels.shape[0] != n_frequencies:
            raise ValueError("frequency table does not match the propagator grid")
        return self.frequency_kernels


@dataclass(frozen=True)
class GreenFunction:
    """Frequency-sampled matrix propagator.

    ``matrices[i]`` is the propagator at ``omegas[i] + 1j * eta``, normalized
    to an identity source.  A dressed propagator carries ``defects[i]``, the
    max-norm of G - G0 - G0 Sigma G at each frequency (NaN where the solve
    failed), and ``flagged``, the frequencies whose defect is not within the
    solver's tolerance.
    """

    omegas: np.ndarray
    eta: float
    matrices: np.ndarray
    kind: str  # "free" | "dressed"
    flagged: tuple = ()
    defects: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def retained(self) -> np.ndarray:
        """Boolean mask of the frequencies that are not flagged."""
        mask = np.ones(self.omegas.size, dtype=bool)
        mask[list(self.flagged)] = False
        return mask

    def spectral_function(self) -> np.ndarray:
        """-Im Tr G / pi at each sampled frequency."""
        return -np.imag(np.trace(self.matrices, axis1=1, axis2=2)) / np.pi


def default_frequency_grid(
    eigenvalues: np.ndarray, count: int = 2000, pad: float = 1.0
) -> np.ndarray:
    lo = float(np.min(eigenvalues)) - pad
    hi = float(np.max(eigenvalues)) + pad
    return np.linspace(lo, hi, count)


def _blocks(nw: int, d: int):
    """Slices of a frequency axis of length ``nw`` in blocks of d x d matrices."""
    step = max(1, _BLOCK_ELEMENTS // (d * d))
    return (slice(start, min(start + step, nw)) for start in range(0, nw, step))


def free_green(
    hf_hamiltonian: np.ndarray,
    omega_grid: np.ndarray,
    eta: float = 1e-3,
) -> GreenFunction:
    """Free propagator (w + i eta - H)^-1 of a Hermitian mean-field operator.

    Inverts block by block into one preallocated (nw, d, d) result, so no
    temporary the size of the propagator is made.
    """
    h = np.asarray(hf_hamiltonian)
    if eta <= 0:
        raise ValueError("broadening eta must be positive")
    err = _hermiticity_error(h)
    if not err <= _HERMITICITY_TOL:  # NaN is rejected too
        raise ValueError(f"mean-field Hamiltonian not Hermitian (error {err:.2e})")
    omegas = np.asarray(omega_grid, dtype=float)
    d = h.shape[0]
    eye = np.eye(d)
    matrices = np.empty((omegas.size, d, d), dtype=complex)
    for b in _blocks(omegas.size, d):
        matrices[b] = np.linalg.inv((omegas[b, None, None] + 1j * eta) * eye - h)
    return GreenFunction(omegas=omegas, eta=eta, matrices=matrices, kind="free")


def _defect(g: np.ndarray, g0: np.ndarray, sig: np.ndarray) -> float:
    """Max-norm defect of G - G0 - G0 Sigma G at one frequency."""
    return float(np.max(np.abs(g - g0 - g0 @ sig @ g)))


def _solve_block(g0: np.ndarray, sig: np.ndarray, out: np.ndarray, defects: np.ndarray) -> None:
    """Solve (I - G0 Sigma) G = G0 for a stack of frequencies into ``out``.

    ``defects`` receives each frequency's max-norm defect of G - G0 - G0 Sigma G.
    A singular frequency raises ``LinAlgError`` for the whole stack.
    """
    g0_sig = g0 @ sig
    out[...] = np.linalg.solve(np.eye(g0.shape[-1]) - g0_sig, g0)
    defects[...] = np.max(np.abs(out - g0 - g0_sig @ out), axis=(1, 2))


def dyson_solve(
    g0: GreenFunction,
    sigma: SelfEnergyModel,
    residual_tol: float = 1e-10,
) -> GreenFunction:
    """Dressed propagator satisfying G = G0 + G0 Sigma G at every frequency.

    Solves (I - G0 Sigma) G = G0 in blocks of frequencies.  Frequencies where
    the solve is singular, or whose defect is not within ``residual_tol``
    (NaN included), are flagged rather than silently dropped.
    """
    if sigma.dim != g0.dim:
        raise ValueError("self-energy dimension does not match the propagator")
    nw = g0.omegas.size
    if sigma.kind == ZERO:
        # identical assembly: the dressed propagator is the free one
        return GreenFunction(
            omegas=g0.omegas,
            eta=g0.eta,
            matrices=g0.matrices.copy(),
            kind="dressed",
            defects=np.zeros(nw),
        )
    if sigma.kind == CONSTANT:  # a read-only view, not nw copies
        kernels = np.broadcast_to(sigma.kernel, (nw,) + sigma.kernel.shape)
    else:
        kernels = sigma.frequency_table(nw)
    out = np.empty_like(g0.matrices)
    defects = np.empty(nw)
    for b in _blocks(nw, g0.dim):
        try:
            _solve_block(g0.matrices[b], kernels[b], out[b], defects[b])
        except np.linalg.LinAlgError:
            # redo this block one frequency at a time; only the singular ones fail
            for i in range(b.start, b.stop):
                one = slice(i, i + 1)
                try:
                    _solve_block(g0.matrices[one], kernels[one], out[one], defects[one])
                except np.linalg.LinAlgError:
                    out[i] = np.nan
                    defects[i] = np.nan
    flagged = np.flatnonzero(~(defects <= residual_tol))
    return GreenFunction(
        omegas=g0.omegas,
        eta=g0.eta,
        matrices=out,
        kind="dressed",
        flagged=tuple(flagged.tolist()),
        defects=defects,
    )


def dyson_residual(g: GreenFunction, g0: GreenFunction, sigma: SelfEnergyModel) -> float:
    """Max-norm defect of G - G0 - G0 Sigma G over all retained frequencies.

    Recomputes each defect frequency by frequency, independently of the
    solver's own; a non-finite defect makes the result NaN.
    """
    nw = g0.omegas.size
    retained = g.retained()
    defects = [
        _defect(g.matrices[i], g0.matrices[i], sigma.at_frequency(i, nw))
        for i in range(nw)
        if retained[i]
    ]
    return float(np.max(defects, initial=0.0))


def dressed_eigenproblem(
    hf_hamiltonian: np.ndarray, sigma_kernel: np.ndarray
) -> np.ndarray:
    """Spectrum of H + Sigma for a frequency-independent Hermitian kernel."""
    h = np.asarray(hf_hamiltonian)
    s = np.asarray(sigma_kernel)
    if s.shape != h.shape:
        raise ValueError("kernel dimension does not match the Hamiltonian")
    err = _hermiticity_error(s)
    if not err <= _HERMITICITY_TOL:  # NaN is rejected too
        raise ValueError(f"self-energy kernel not Hermitian (error {err:.2e})")
    return np.linalg.eigvalsh(h + s)


def lehmann_spectral_function(
    levels: np.ndarray, omega_grid: np.ndarray, eta: float
) -> np.ndarray:
    """-Im Tr G / pi of G(w) = (w + i eta - H - Sigma)^-1 from the levels of H + Sigma.

    Valid for a frequency-independent Hermitian Sigma, where
    Tr G(w) = sum_n 1 / (w + i eta - lambda_n): a sum of Lorentzians in
    O(nw d), with no propagator built.
    """
    detuning = np.asarray(omega_grid, dtype=float)[:, None] - np.asarray(levels, dtype=float)
    return np.sum(eta / (detuning * detuning + eta * eta), axis=1) / np.pi


def residual_subsample(omega_grid: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Ascending grid indices on which the pipeline checks the direct Dyson solve.

    Every ceil(nw / 64)-th frequency from index 0, plus the grid point nearest
    each level, where the propagator is largest.
    """
    omegas = np.asarray(omega_grid, dtype=float)
    keep = np.zeros(omegas.size, dtype=bool)
    keep[:: -(-omegas.size // _SUBSAMPLE_POINTS)] = True
    keep[np.argmin(np.abs(omegas[:, None] - np.asarray(levels, dtype=float)), axis=0)] = True
    return np.flatnonzero(keep)


def _spectrum(spectrum) -> tuple[np.ndarray, np.ndarray]:
    """(omegas, weights) of a ``GreenFunction`` or of an (omegas, weights) pair."""
    if isinstance(spectrum, GreenFunction):
        return spectrum.omegas, spectrum.spectral_function()
    omegas, weights = spectrum
    return np.asarray(omegas, dtype=float), np.asarray(weights, dtype=float)


def spectral_peaks(spectrum) -> np.ndarray:
    """Frequencies of the local maxima of a spectral function.

    ``spectrum`` is a ``GreenFunction`` or an (omegas, weights) pair.
    """
    omegas, a = _spectrum(spectrum)
    inner = a[1:-1]
    return omegas[1:-1][(inner > a[:-2]) & (inner >= a[2:])]


def peak_alignment_error(spectrum, levels: np.ndarray) -> float:
    """Largest distance from a level to its nearest spectral peak."""
    peaks = spectral_peaks(spectrum)
    if peaks.size == 0:
        return float("inf")
    distances = np.abs(peaks[None, :] - np.asarray(levels)[:, None])
    return float(np.max(np.min(distances, axis=1)))
