"""Reduced density matrices, band projectors and the two-term energy functional.

An order-n reduced matrix is stored densely over ordered n-tuples of
spin-orbitals, or, for order 1, over grid points, with a quadrature weight per
coordinate so that traces reproduce their continuum normalization N!/(N-n)!.
On the grid the order-2 matrix enters only through its diagonal, the pair
density n2(x1, x2), held as a (g, g) array.
:func:`energy_from_density_matrices` is the one route from density matrices
to an energy, for a correlated state and a determinant alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# basis tags for DensityMatrix.basis
ORBITAL = "orbital"
GRID = "grid"

_MAX_MATRIX_ENTRIES = 8_000_000


def normalization_target(n_electrons: int, order: int) -> float:
    """Continuum trace of an order-n reduced matrix: N!/(N-n)!."""
    return float(math.factorial(n_electrons) // math.factorial(n_electrons - order))


@dataclass(frozen=True)
class DensityMatrix:
    """Dense order-n reduced density matrix over ordered coordinate tuples."""

    order: int
    n_electrons: int
    matrix: np.ndarray
    dim_single: int
    weight: float = 1.0
    basis: str = ORBITAL

    def __post_init__(self):
        m = np.asarray(self.matrix)
        object.__setattr__(self, "matrix", m)
        if self.order > self.n_electrons:
            raise ValueError(f"order {self.order} exceeds the electron count {self.n_electrons}")
        dim = self.dim_single**self.order
        if m.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match dim_single**order = {dim}"
            )

    @property
    def target(self) -> float:
        """Continuum normalization N!/(N-n)! that :meth:`trace` should reproduce."""
        return normalization_target(self.n_electrons, self.order)

    def trace(self) -> float:
        """Grid-weighted trace over the diagonal coordinate tuples."""
        return float(np.real(np.trace(self.matrix)) * self.weight**self.order)

    def hermiticity_error(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))


def check_matrix_size(dim: int, order: int) -> None:
    entries = (dim**order) ** 2
    if entries > _MAX_MATRIX_ENTRIES:
        raise ValueError(
            f"density matrix too large: dim {dim}^{order} squared = {entries} entries "
            f"(limit {_MAX_MATRIX_ENTRIES}); reduce the orbital cutoff"
        )


# ---------------------------------------------------------------------------
# projectors


@dataclass(frozen=True)
class Projector:
    """Projector |v><v| onto one grid vector, stored as the vector alone."""

    vector: np.ndarray

    def trace_with(self, operator: np.ndarray) -> complex:
        """tr(P . operator) = <v|operator|v>."""
        v = self.vector
        if operator.shape != (v.size, v.size):
            raise ValueError("operator dimension does not match the projector vector")
        return complex(v.conj() @ operator @ v)


def band_projector(vector: np.ndarray) -> Projector:
    """Diagonal projector |n;k><n;k| onto a single band state's orbital."""
    return Projector(vector=np.asarray(vector))


# ---------------------------------------------------------------------------
# energy functional


def energy_from_density_matrices(
    rho1: DensityMatrix,
    pair_density: np.ndarray | None,
    h_matrix: np.ndarray,
    v_kernel: np.ndarray,
) -> float:
    """Total energy Sp(h rho1) + (1/2) sum v n2 on the grid.

    ``h_matrix`` acts on point-value vectors; ``v_kernel`` is diagonal in the
    pair coordinates, so of rho2 only the pair density
    n2(x1, x2) = rho2(x1, x2; x1, x2) enters.  A one electron system carries
    no pairs and may pass ``pair_density = None``.
    """
    if rho1.order != 1:
        raise ValueError("rho1 must have order 1")
    g = rho1.dim_single
    if h_matrix.shape != (g, g):
        raise ValueError("one-body operator dimension mismatch with rho1")
    w = rho1.weight
    e_one = float(np.real(np.sum(h_matrix * rho1.matrix.T)) * w)  # Tr(h rho1)
    if pair_density is None:
        return e_one
    if pair_density.shape != (g, g) or v_kernel.shape != (g, g):
        raise ValueError("two-body kernel dimension mismatch with rho1")
    e_two = 0.5 * float(np.sum(v_kernel * pair_density) * w**2)
    return e_one + e_two


def determinant_density_matrices(
    occupied_orbitals: np.ndarray, n_electrons: int, spacing: float
) -> tuple[DensityMatrix, np.ndarray | None]:
    """Spin-summed grid rho1 and pair density of a closed-shell determinant.

    ``occupied_orbitals`` holds quadrature-normalized spatial orbitals as
    columns; each is doubly occupied except in the one-electron case.  The
    pair density follows the determinant factorization
    n2(x1, x2) = n(x1) n(x2) - |P(x1, x2)|^2 / 2 with P the spin-summed
    kernel and n its diagonal.
    """
    phi = np.asarray(occupied_orbitals)
    g, nocc = phi.shape
    if n_electrons == 1:
        if nocc != 1:
            raise ValueError("one-electron determinant takes exactly one orbital")
        occ = 1.0
    else:
        if n_electrons % 2 != 0 or nocc != n_electrons // 2:
            raise ValueError("closed shell requires N even with N/2 occupied orbitals")
        occ = 2.0
    p = occ * (phi @ phi.conj().T)
    rho1 = DensityMatrix(
        order=1,
        n_electrons=n_electrons,
        matrix=p,
        dim_single=g,
        weight=spacing,
        basis=GRID,
    )
    if n_electrons == 1:
        return rho1, None
    n = np.real(np.diagonal(p))
    return rho1, np.outer(n, n) - 0.5 * np.abs(p) ** 2


# ---------------------------------------------------------------------------
# band-averaged trace identity


def trace_energy_identity(
    projectors: list[Projector],
    h_operators: list[np.ndarray],
    v_operators: list[np.ndarray],
    band_energies: np.ndarray,
    epsilon0: float,
    n_electrons: int,
) -> float:
    """Residual of the band-trace identity Sp rho(h + v) = eps_n(0) N + eps.

    All sequences are aligned with the sampled momenta and averaged with the
    normalized uniform zone measure.  ``v_operators`` carry the converged
    mean-field interaction (Coulomb minus exchange) at each momentum, and
    ``band_energies`` the full occupied-band eigenvalues; ``eps`` accumulates
    the quasiparticle energies measured from the reference point.
    """
    nk = len(projectors)
    if not (len(h_operators) == len(v_operators) == nk and len(band_energies) == nk):
        raise ValueError("projector, operator and energy sequences must align")
    acc = 0.0
    for proj, h_op, v_op in zip(projectors, h_operators, v_operators):
        if h_op.shape != v_op.shape:
            raise ValueError("h and v operator dimensions differ")
        acc += float(np.real(proj.trace_with(h_op + v_op)))
    lhs = n_electrons * acc / nk
    eps = n_electrons * float(np.mean(np.asarray(band_energies) - epsilon0))
    rhs = epsilon0 * n_electrons + eps
    return abs(lhs - rhs)
