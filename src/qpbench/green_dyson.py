"""Frequency-domain one-particle propagators and the Dyson equation.

The free propagator is built from a converged mean-field Hamiltonian as
G0(w) = (w + i eta - H)^-1 on a broadened real-frequency grid.  It is taken
in closed form from one ``eigh`` of H, G0(w) = U diag(1 / (w + i eta -
lambda)) U^H, so no matrix is inverted.  The dressed propagator solves
G = G0 + G0 Sigma G under a model correlation self-energy.  A self-energy is
a plain array: a static Hermitian (d, d) kernel, or an (n, d, d) table
aligned with the grid it is sampled on (frequencies here, momenta in
``quasiparticle.mass_shift``).  For a static Hermitian self-energy the
pipeline takes the spectral function as a Lehmann sum over the levels of
H + Sigma and checks the direct Dyson solve only on a pinned subsample of
the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_HERMITICITY_TOL = 1e-12
# complex elements per (frequency block, d, d) temporary: about 64 KB.  A block
# holds _BLOCK_ELEMENTS // d**2 frequencies, and at least one.
_BLOCK_ELEMENTS = 1 << 12
# the pipeline's Dyson check visits every ceil(nw / _SUBSAMPLE_POINTS)-th frequency
_SUBSAMPLE_POINTS = 64
# dyson_solve flags a frequency whose max-norm defect exceeds this
_RESIDUAL_TOL = 1e-10


def check_hermitian(m: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless ``m`` is Hermitian to 1e-12; NaN is rejected too."""
    m = np.asarray(m)
    err = float(np.max(np.abs(m - m.conj().T)))
    if not err <= _HERMITICITY_TOL:
        raise ValueError(f"{what} not Hermitian (error {err:.2e})")


def kernel_stack(sigma: np.ndarray, n: int, d: int) -> np.ndarray:
    """A self-energy as n (d, d) kernels, one per point of the grid it is sampled on.

    ``sigma`` is a static (d, d) kernel, returned as a read-only view rather
    than n copies, or an (n, d, d) table aligned with the grid.
    """
    s = np.asarray(sigma)
    if s.shape not in ((d, d), (n, d, d)):
        raise ValueError(
            f"self-energy of shape {s.shape} does not match dimension {d} on {n} grid points"
        )
    return np.broadcast_to(s, (n, d, d))


@dataclass(frozen=True)
class GreenFunction:
    """Frequency-sampled matrix propagator.

    ``matrices[i]`` is the propagator at ``omegas[i] + 1j * eta``, normalized
    to an identity source.  A dressed propagator carries ``defects[i]``, the
    max-norm of G - G0 - G0 Sigma G at each frequency (NaN where the solve
    failed), and ``flagged``, the frequencies whose defect is not within
    ``_RESIDUAL_TOL``.
    """

    omegas: np.ndarray
    eta: float
    matrices: np.ndarray
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

    One ``eigh`` of H = U diag(lambda) U^H gives every frequency in closed
    form, G0(w) = U diag(1 / (w + i eta - lambda)) U^H, so no matrix is
    inverted.  The products are written block by block into one preallocated
    (nw, d, d) result, so no temporary the size of the propagator is made.
    """
    h = np.asarray(hf_hamiltonian)
    if eta <= 0:
        raise ValueError("broadening eta must be positive")
    check_hermitian(h, "mean-field Hamiltonian")
    omegas = np.asarray(omega_grid, dtype=float)
    levels, u = np.linalg.eigh(h)
    u_h = u.conj().T
    d = h.shape[0]
    matrices = np.empty((omegas.size, d, d), dtype=complex)
    for b in _blocks(omegas.size, d):
        poles = 1.0 / ((omegas[b, None] + 1j * eta) - levels)
        np.matmul(u * poles[:, None, :], u_h, out=matrices[b])
    return GreenFunction(omegas=omegas, eta=eta, matrices=matrices)


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


def dyson_solve(g0: GreenFunction, sigma: np.ndarray) -> GreenFunction:
    """Dressed propagator satisfying G = G0 + G0 Sigma G at every frequency.

    ``sigma`` is a static Hermitian (d, d) kernel or an (nw, d, d) table
    aligned with the frequencies of ``g0``.  Solves (I - G0 Sigma) G = G0 in
    blocks of frequencies.  Frequencies where the solve is singular, or whose
    defect is not within ``_RESIDUAL_TOL`` (NaN included), are flagged rather
    than silently dropped.
    """
    nw = g0.omegas.size
    kernels = kernel_stack(sigma, nw, g0.dim)
    if np.ndim(sigma) == 2:
        check_hermitian(sigma, "self-energy kernel")
    if not np.any(sigma):
        # identical assembly: the dressed propagator is the free one
        return GreenFunction(
            omegas=g0.omegas,
            eta=g0.eta,
            matrices=g0.matrices.copy(),
            defects=np.zeros(nw),
        )
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
    flagged = np.flatnonzero(~(defects <= _RESIDUAL_TOL))
    return GreenFunction(
        omegas=g0.omegas,
        eta=g0.eta,
        matrices=out,
        flagged=tuple(flagged.tolist()),
        defects=defects,
    )


def dyson_residual(g: GreenFunction, g0: GreenFunction, sigma: np.ndarray) -> float:
    """Max-norm defect of G - G0 - G0 Sigma G over all retained frequencies.

    ``sigma`` is as for ``dyson_solve``.  Recomputes each defect frequency by
    frequency, independently of the solver's own; a non-finite defect makes
    the result NaN.
    """
    kernels = kernel_stack(sigma, g0.omegas.size, g0.dim)
    defects = [
        _defect(g.matrices[i], g0.matrices[i], kernels[i])
        for i in np.flatnonzero(g.retained())
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
    check_hermitian(s, "self-energy kernel")
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


def spectral_peaks(omegas: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Frequencies of the local maxima of a spectral function sampled at ``omegas``."""
    omegas = np.asarray(omegas, dtype=float)
    a = np.asarray(weights, dtype=float)
    inner = a[1:-1]
    return omegas[1:-1][(inner > a[:-2]) & (inner >= a[2:])]


def peak_alignment_error(omegas: np.ndarray, weights: np.ndarray, levels: np.ndarray) -> float:
    """Largest distance from a level to its nearest spectral peak."""
    peaks = spectral_peaks(omegas, weights)
    if peaks.size == 0:
        return float("inf")
    distances = np.abs(peaks[None, :] - np.asarray(levels)[:, None])
    return float(np.max(np.min(distances, axis=1)))
