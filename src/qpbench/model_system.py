"""Discretized 1D model systems: uniform grids, soft-Coulomb wells and periodic crystal cells.

Everything downstream (mean-field solver, exact few-body oracle, propagators)
operates on the immutable :class:`ModelSystem` defined here.  Atomic units
(hbar = m = e = 1) are used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BOX = "box"
PERIODIC = "periodic"

_UNIFORMITY_RTOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform 1D real-space grid: strictly increasing ``points`` a constant ``spacing`` apart.

    :attr:`length` is derived, not stored: the periodic cell length
    ``spacing * npoints`` (one spacing past the last point), so a periodic
    wrap maps point ``npoints - 1`` onto point ``0`` at distance ``spacing``.
    """

    points: np.ndarray
    spacing: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least 2 points")
        deltas = np.diff(pts)
        if np.any(deltas <= 0):
            raise ValueError("grid points must be strictly increasing")
        if np.max(np.abs(deltas - self.spacing)) > _UNIFORMITY_RTOL * abs(self.spacing):
            raise ValueError("grid points must be uniformly spaced")
        pts.setflags(write=False)

    @property
    def npoints(self) -> int:
        return self.points.size

    @property
    def length(self) -> float:
        return self.spacing * self.points.size


def make_grid(npoints: int, spacing: float) -> Grid:
    """Uniform grid of ``npoints`` points centered on the origin."""
    if npoints < 2:
        raise ValueError("npoints must be >= 2")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    start = -0.5 * spacing * (npoints - 1)
    points = start + spacing * np.arange(npoints)
    return Grid(points=points, spacing=float(spacing))


@dataclass(frozen=True)
class ModelSystem:
    """Grid, external potential, pair-interaction kernel and electron count.

    ``external_potential[i]`` is the one-body potential at ``grid.points[i]``;
    ``interaction_kernel[i, j]`` the pair interaction between electrons at
    points ``i`` and ``j``.  For periodic systems ``kgrid`` holds the sampled
    crystal momenta, symmetric under ``k -> -k``.
    """

    grid: Grid
    external_potential: np.ndarray
    interaction_kernel: np.ndarray
    n_electrons: int
    boundary: str
    kgrid: np.ndarray = field(default_factory=lambda: np.zeros(0))
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        u = np.asarray(self.external_potential, dtype=float)
        v = np.asarray(self.interaction_kernel, dtype=float)
        kg = np.asarray(self.kgrid, dtype=float)
        object.__setattr__(self, "external_potential", u)
        object.__setattr__(self, "interaction_kernel", v)
        object.__setattr__(self, "kgrid", kg)
        n = self.grid.npoints
        if u.shape != (n,):
            raise ValueError("external potential length must match grid")
        if v.shape != (n, n):
            raise ValueError("interaction kernel must be square over the grid")
        if not np.array_equal(v, v.T):
            raise ValueError("interaction kernel must be exactly symmetric")
        if not np.all(np.isfinite(v)):
            raise ValueError("interaction kernel must be finite (use a softened kernel)")
        if self.boundary not in (BOX, PERIODIC):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.n_electrons < 1:
            raise ValueError("n_electrons must be >= 1")
        if self.boundary == PERIODIC:
            if kg.size == 0:
                raise ValueError("periodic system requires a nonempty kgrid")
            if not np.array_equal(np.sort(kg), np.sort(-kg)):
                raise ValueError("kgrid must be symmetric under k -> -k")
        for arr in (u, v, kg):
            arr.setflags(write=False)

    def snapshot(self) -> dict:
        """Self-describing record of the system for serialization."""
        return {
            "npoints": int(self.grid.npoints),
            "spacing": float(self.grid.spacing),
            "length": float(self.grid.length),
            "boundary": self.boundary,
            "n_electrons": int(self.n_electrons),
            "kgrid": [float(k) for k in self.kgrid],
            "external_potential": [float(x) for x in self.external_potential],
            "kernel": dict(self.metadata),
        }


def symmetric_kgrid(count: int, length: float) -> np.ndarray:
    """Uniform Brillouin-zone sampling, exactly symmetric under negation.

    Odd counts include the zone center k = 0; even counts use a half-step
    shifted mesh so every point pairs with its negative.
    """
    if count < 1:
        raise ValueError("k-point count must be >= 1")
    step = 2.0 * np.pi / (length * count)
    if count % 2 == 1:
        offsets = np.arange(count) - (count - 1) / 2
    else:
        offsets = np.arange(count) + 0.5 - count / 2
    return offsets * step


def soft_coulomb_kernel(points: np.ndarray, softening: float) -> np.ndarray:
    """Pairwise softened Coulomb interaction 1/sqrt(dr^2 + s^2)."""
    dr = points[:, None] - points[None, :]
    return 1.0 / np.sqrt(dr * dr + softening * softening)


def _min_image(delta: np.ndarray, length: float) -> np.ndarray:
    return delta - length * np.round(delta / length)


def build_soft_coulomb_system(
    grid_spec,
    well_depth: float,
    softening: float,
    n_electrons: int,
    boundary: str = BOX,
    kpoints: int = 8,
    wells: int = 1,
) -> ModelSystem:
    """Assemble a soft-Coulomb well (box) or a lattice of soft wells (periodic).

    ``grid_spec`` is either a :class:`Grid` or an ``(npoints, spacing)`` pair.
    The external potential is an attractive softened well of depth
    ``well_depth`` per center; periodic systems place ``wells`` equally spaced
    centers per cell and measure distances with the minimum-image convention
    so the potential carries the lattice period exactly.

    The pair kernel is :func:`soft_coulomb_kernel` of the grid points for
    both boundaries: periodic systems keep open-chain in-cell distances
    ``|x - x'|``, not minimum-image ones, so electrons interact as on one
    isolated cell.  This is a modelling choice; wrapping the kernel would
    change every periodic output.
    """
    if softening <= 0:
        raise ValueError("softening must be positive (kernel singularity otherwise)")
    grid = grid_spec if isinstance(grid_spec, Grid) else make_grid(*grid_spec)
    if grid.npoints < 8:
        raise ValueError("grid too small: need at least 8 points")
    if wells < 1:
        raise ValueError("wells must be >= 1")

    pts = grid.points
    if boundary == PERIODIC:
        centers = pts[0] + grid.length * (np.arange(wells) + 0.5) / wells
        u = np.zeros(grid.npoints)
        for c in centers:
            d = _min_image(pts - c, grid.length)
            u -= well_depth / np.sqrt(d * d + softening * softening)
        kgrid = symmetric_kgrid(kpoints, grid.length)
    else:
        u = -well_depth / np.sqrt(pts * pts + softening * softening)
        kgrid = np.zeros(0)

    kernel = soft_coulomb_kernel(pts, softening)
    kernel = 0.5 * (kernel + kernel.T)  # exact symmetry regardless of rounding
    meta = {
        "kind": "soft_coulomb",
        "well_depth": float(well_depth),
        "softening": float(softening),
        "wells": int(wells),
    }
    return ModelSystem(
        grid=grid,
        external_potential=u,
        interaction_kernel=kernel,
        n_electrons=n_electrons,
        boundary=boundary,
        kgrid=kgrid,
        metadata=meta,
    )


def laplacian_matrix(grid: Grid, boundary: str = BOX) -> np.ndarray:
    """Three-point finite-difference Laplacian; periodic boundary wraps the stencil."""
    n = grid.npoints
    h2 = grid.spacing * grid.spacing
    lap = np.zeros((n, n))
    idx = np.arange(n)
    lap[idx, idx] = -2.0 / h2
    lap[idx[:-1], idx[:-1] + 1] = 1.0 / h2
    lap[idx[:-1] + 1, idx[:-1]] = 1.0 / h2
    if boundary == PERIODIC:
        lap[0, n - 1] += 1.0 / h2
        lap[n - 1, 0] += 1.0 / h2
    elif boundary != BOX:
        raise ValueError(f"unknown boundary {boundary!r}")
    return lap


def bloch_laplacian(grid: Grid, k: float) -> np.ndarray:
    """Phase-twisted periodic Laplacian for crystal momentum ``k``.

    The wrap-around hop from the last cell point to the first picks up the
    Bloch phase exp(+i k L); its Hermitian partner the conjugate phase.
    """
    n = grid.npoints
    h2 = grid.spacing * grid.spacing
    lap = laplacian_matrix(grid, BOX).astype(complex)
    phase = np.exp(1j * k * grid.length)
    lap[n - 1, 0] += phase / h2
    lap[0, n - 1] += np.conj(phase) / h2
    return lap


def core_hamiltonian(system: ModelSystem, k: float | None = None) -> np.ndarray:
    """One-body operator -laplacian/2 + U on the system grid.

    For periodic systems a crystal momentum may be supplied; ``k = None``
    falls back to the unphased wrap (zone center).
    """
    if k is not None and k != 0.0:
        if system.boundary != PERIODIC:
            raise ValueError("crystal momentum only applies to periodic systems")
        lap = bloch_laplacian(system.grid, k)
    else:
        lap = laplacian_matrix(system.grid, system.boundary)
    return -0.5 * lap + np.diag(system.external_potential)
