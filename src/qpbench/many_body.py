"""Exact solver for tiny electron counts.

Full configuration interaction over the lowest one-body orbitals, used as the
ground-truth oracle for density matrices, energies and mean-field comparisons.
Spin is bookkept through explicit spin-orbital indices (even = up, odd = down)
so antisymmetry checks stay direct.  The dense CI matrix of a sector is built
in full; its lowest eigenpair comes from a Davidson loop whose eigenvalue is
certified by a Cholesky factorization, with a full ``eigh`` as the fallback.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .density_matrix import (
    GRID,
    ORBITAL,
    DensityMatrix,
    check_matrix_size,
)
from .model_system import ModelSystem, core_hamiltonian

_MAX_ELECTRONS = 4
_MAX_DETERMINANTS = 20_000
# determinant pairs per row block of the CI build, bounding its intermediates
_PAIR_BLOCK = 1 << 20
# Davidson settings for the lowest CI eigenpair (see _lowest_eigenpair)
_DAVIDSON_MIN_DETERMINANTS = 128  # below this a full eigh is as fast
_DAVIDSON_MAX_ITER = 50  # the oracle sectors converge in about 20
_DAVIDSON_TOL = 1e-12  # residual norm |H x - theta x|, times max(1, |theta|)
_DAVIDSON_MIN_GAP = 1e-3  # hartree; a closer second eigenvalue is near-degenerate


@dataclass(frozen=True)
class OrbitalBasis:
    """Lowest eigenfunctions of the one-body operator, quadrature-normalized."""

    functions: np.ndarray  # (grid, m), columns phi_m(x)
    spacing: float

    @property
    def size(self) -> int:
        return self.functions.shape[1]


@dataclass(frozen=True)
class NBodyWavefunction:
    """Antisymmetric N-electron state expanded over spin-orbital determinants.

    ``determinants`` holds sorted spin-orbital index tuples; ``coefficients``
    the expansion amplitudes.  The amplitude attached to any permuted tuple is
    the sorted-tuple coefficient times the permutation sign.  ``sz`` is the
    total spin projection shared by every determinant.
    """

    n_electrons: int
    determinants: tuple
    coefficients: np.ndarray
    basis: OrbitalBasis
    sz: float

    @cached_property
    def _positions(self) -> dict:
        return {det: pos for pos, det in enumerate(self.determinants)}

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))

    def amplitude(self, indices) -> complex:
        """Signed coefficient of an (arbitrarily ordered) spin-orbital tuple."""
        idx = tuple(indices)
        if len(set(idx)) != len(idx):
            return 0.0
        order = tuple(np.argsort(idx, kind="stable"))
        key = tuple(sorted(idx))
        pos = self._positions.get(key)
        if pos is None:
            return 0.0
        return _permutation_sign(order) * complex(self.coefficients[pos])

    def amplitude_tensor(self) -> np.ndarray:
        """First-quantized amplitudes A(p1..pN), unit norm over ordered tuples."""
        n = self.n_electrons
        m = 2 * self.basis.size
        dets = np.array(self.determinants, dtype=int).reshape(len(self.determinants), n)
        tensor = np.zeros((m,) * n, dtype=complex)
        scale = 1.0 / math.sqrt(math.factorial(n))
        for perm in itertools.permutations(range(n)):
            sign = _permutation_sign(perm)
            cols = tuple(dets[:, p] for p in perm)
            tensor[cols] = sign * scale * self.coefficients
        return tensor


def _permutation_sign(perm) -> int:
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def orbital_basis(system: ModelSystem, cutoff: int) -> OrbitalBasis:
    """Lowest ``cutoff`` eigenfunctions of kinetic + external potential."""
    g = system.grid.npoints
    if not 1 <= cutoff <= g:
        raise ValueError(f"orbital cutoff must lie in [1, {g}]")
    h = core_hamiltonian(system)
    phi = np.linalg.eigh(h)[1][:, :cutoff] / math.sqrt(system.grid.spacing)
    return OrbitalBasis(functions=phi, spacing=system.grid.spacing)


def two_body_integrals(basis: OrbitalBasis, v_kernel: np.ndarray) -> np.ndarray:
    """Spatial Coulomb tensor <pq|v|rs> with electron 1 in p->r, electron 2 in q->s."""
    phi = basis.functions
    w = basis.spacing
    pair = np.einsum("ip,ir->ipr", phi, phi)
    return w * w * np.einsum("ipr,ij,jqs->pqrs", pair, v_kernel, pair)


def one_body_integrals(basis: OrbitalBasis, system: ModelSystem) -> np.ndarray:
    h = core_hamiltonian(system)
    phi = basis.functions
    return basis.spacing * (phi.T @ h @ phi)


def enumerate_determinants(n_spin_orbitals: int, n_electrons: int, sz: float | None = None):
    """Sorted spin-orbital tuples; optionally restricted to total Sz."""
    dets = []
    for det in itertools.combinations(range(n_spin_orbitals), n_electrons):
        if sz is not None:
            total = sum(0.5 if p % 2 == 0 else -0.5 for p in det)
            if abs(total - sz) > 1e-12:
                continue
        dets.append(det)
    return tuple(dets)


def ci_hamiltonian(dets, t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dense CI matrix over sorted spin-orbital determinants (Slater-Condon rules).

    Pairs are classed by how many spin orbitals they differ in (0, 1 or 2;
    more gives zero).  The spin-orbital integrals of each class are gathered
    from the spatial ``t`` and ``v`` with spin masks, and each sign comes from
    the positions of the differing orbitals in their sorted determinants, i.e.
    the number of occupied orbitals below them.  Only the upper triangle is
    evaluated, in row blocks, and mirrored.
    """
    n_det = len(dets)
    h = np.zeros((n_det, n_det))
    if n_det == 0:
        return h
    occupied = np.array(dets, dtype=np.intp).reshape(n_det, -1)
    n = occupied.shape[1]
    n_so = 2 * t.shape[0]
    occ = np.zeros((n_det, n_so), dtype=bool)
    occ[np.arange(n_det)[:, None], occupied] = True
    occ_f = occ.astype(float)
    spatial, spin = occupied >> 1, occupied & 1

    diag = t[spatial, spatial].sum(axis=1)
    for a, b in itertools.combinations(range(n), 2):
        pa, pb = spatial[:, a], spatial[:, b]
        diag += v[pa, pb, pa, pb] - (spin[:, a] == spin[:, b]) * v[pa, pb, pb, pa]
    h[np.diag_indices(n_det)] = diag

    rows_per_block = max(1, _PAIR_BLOCK // n_det)
    for start in range(0, n_det, rows_per_block):
        stop = min(start + rows_per_block, n_det)
        shared = occ_f[start:stop] @ occ_f[start:].T
        upper = np.arange(start, stop)[:, None] < np.arange(start, n_det)[None, :]
        for n_diff in (1, 2):
            i, j = np.nonzero(upper & (shared == n - n_diff))
            i += start
            j += start
            h[i, j] = h[j, i] = _excitation_elements(occupied, occ, i, j, n_diff, t, v)
    return h


def _excitation_elements(occupied, occ, i, j, n_diff, t, v) -> np.ndarray:
    """<D_i|H|D_j> for pairs that differ in exactly ``n_diff`` spin orbitals."""
    n_pairs = i.size
    n = occupied.shape[1]
    d_i, d_j = occupied[i], occupied[j]
    kept_i = occ[j[:, None], d_i]  # which orbitals of D_i also sit in D_j
    kept_j = occ[i[:, None], d_j]
    # positions within the sorted determinants = occupied orbitals below them
    pos_i = np.nonzero(~kept_i)[1].reshape(n_pairs, n_diff)
    pos_j = np.nonzero(~kept_j)[1].reshape(n_pairs, n_diff)
    rows = np.arange(n_pairs)[:, None]
    p, q = d_i[rows, pos_i], d_j[rows, pos_j]
    sign = 1.0 - 2.0 * ((pos_i.sum(axis=1) + pos_j.sum(axis=1)) & 1)
    if n_diff == 1:
        p, q = p[:, 0], q[:, 0]
        common = d_i[kept_i].reshape(n_pairs, n - 1)
        P, Q, K = p >> 1, q >> 1, common >> 1
        coulomb = v[P[:, None], K, Q[:, None], K].sum(axis=1)
        parallel = (common & 1) == (p & 1)[:, None]
        exchange = (parallel * v[P[:, None], K, K, Q[:, None]]).sum(axis=1)
        # every term needs p and q to carry the same spin
        return sign * ((p & 1) == (q & 1)) * (t[P, Q] + coulomb - exchange)
    p1, p2, q1, q2 = p[:, 0], p[:, 1], q[:, 0], q[:, 1]
    s1, s2, r1, r2 = p1 & 1, p2 & 1, q1 & 1, q2 & 1
    P1, P2, Q1, Q2 = p1 >> 1, p2 >> 1, q1 >> 1, q2 >> 1
    direct = ((s1 == r1) & (s2 == r2)) * v[P1, P2, Q1, Q2]
    exchange = ((s1 == r2) & (s2 == r1)) * v[P1, P2, Q2, Q1]
    return sign * (direct - exchange)


def _lowest_eigenpair(h: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue and unit eigenvector of the dense symmetric matrix ``h``.

    Sectors of at least ``_DAVIDSON_MIN_DETERMINANTS`` run :func:`_davidson`;
    smaller ones, and every sector where the loop gives up, take the lowest
    pair of a full ``eigh``.
    """
    if h.shape[0] >= _DAVIDSON_MIN_DETERMINANTS:
        pair = _davidson(h)
        if pair is not None:
            return pair
    eigvals, eigvecs = np.linalg.eigh(h)
    return float(eigvals[0]), eigvecs[:, 0]


def _davidson(h: np.ndarray):
    """Certified lowest eigenpair by Davidson's method, or None to fall back.

    E. R. Davidson, J. Comput. Phys. 17, 87 (1975): the subspace starts from
    the lowest diagonal determinant and grows by the diagonally preconditioned
    residual, orthogonalized in two Gram-Schmidt passes.  H and the
    preconditioner both keep spatial parity and spin flip, so the loop never
    leaves its start vector's symmetry sector: it may converge to a higher
    eigenvalue, and its Ritz values cannot see a degenerate partner from
    another sector.  A converged pair (theta, x) is therefore accepted only if
    H + s x x^T - (theta + gap) I has a Cholesky factor (s > gap).  On the
    complement of x that matrix equals H - (theta + gap) I, so by
    Courant-Fischer the second eigenvalue of H lies above theta + gap; the
    eigenvalue within |H x - theta x| of theta is then the lowest, and it is
    separated from the rest by at least ``_DAVIDSON_MIN_GAP``, so x is unique.
    None when the loop does not converge within ``_DAVIDSON_MAX_ITER``
    iterations or when the certificate fails.
    """
    n = h.shape[0]
    diag = np.diagonal(h)
    basis = np.zeros((n, _DAVIDSON_MAX_ITER))
    images = np.zeros_like(basis)  # h @ basis
    basis[np.argmin(diag), 0] = 1.0
    for m in range(1, _DAVIDSON_MAX_ITER + 1):
        images[:, m - 1] = h @ basis[:, m - 1]
        ritz, vectors = np.linalg.eigh(basis[:, :m].T @ images[:, :m])
        theta, x = ritz[0], basis[:, :m] @ vectors[:, 0]
        scale = max(1.0, abs(theta))
        residual = images[:, :m] @ vectors[:, 0] - theta * x
        if np.linalg.norm(residual) < _DAVIDSON_TOL * scale:
            break
        if m == _DAVIDSON_MAX_ITER:
            return None
        # the start vector stays in the subspace, so theta never exceeds the
        # smallest diagonal element; the preconditioner is then positive
        # definite, and the step keeps a part outside the subspace, since its
        # overlap with the residual (orthogonal to the subspace) is positive
        step = residual / np.maximum(diag - theta, 1e-8)
        for _ in range(2):
            step -= basis[:, :m] @ (basis[:, :m].T @ step)
        basis[:, m] = step / np.linalg.norm(step)
    x /= np.linalg.norm(x)
    deflated = np.outer(x, scale * x)  # lifts theta by scale > gap
    deflated += h
    deflated[np.diag_indices(n)] -= theta + _DAVIDSON_MIN_GAP
    try:
        np.linalg.cholesky(deflated)
    except np.linalg.LinAlgError:
        return None
    return float(theta), x


def full_ci_ground_state(
    system: ModelSystem,
    orbital_cutoff: int,
    sz: float | None = None,
) -> tuple[float, NBodyWavefunction]:
    """Lowest eigenpair of the exact N-body Hamiltonian in the truncated orbital set.

    The pair comes from :func:`_lowest_eigenpair`: a certified Davidson loop
    on sectors of at least ``_DAVIDSON_MIN_DETERMINANTS`` determinants, a full
    ``eigh`` below that or wherever the loop gives up.  The overall sign makes
    the largest-magnitude coefficient positive.  The energy is variational: it
    can only decrease when ``orbital_cutoff`` grows.  Only determinants of
    total spin projection ``sz`` enter (e.g. ``sz=1.0`` for two aligned
    electrons).  The default is the lowest-|Sz| sector, 0 for even N and +1/2
    for odd N, which holds the exact ground state: H does not act on spin, so
    it commutes with S+ and S-, and every spin multiplet has a member there.
    """
    n = system.n_electrons
    if n > _MAX_ELECTRONS:
        raise ValueError(f"oracle supports N <= {_MAX_ELECTRONS}, got {n}")
    basis = orbital_basis(system, orbital_cutoff)
    n_so = 2 * basis.size
    n_dets = math.comb(n_so, n)
    if n_dets > _MAX_DETERMINANTS:
        raise ValueError(
            f"configuration space too large: C({n_so}, {n}) = {n_dets} "
            f"exceeds the {_MAX_DETERMINANTS} determinant limit"
        )
    if sz is None:
        sz = 0.5 * (n % 2)
    dets = enumerate_determinants(n_so, n, sz=sz)
    if not dets:
        raise ValueError("no determinants satisfy the requested spin projection")
    t = one_body_integrals(basis, system)
    v = two_body_integrals(basis, system.interaction_kernel)
    energy, coeff = _lowest_eigenpair(ci_hamiltonian(dets, t, v))
    # fix the overall phase for reproducibility
    pivot = int(np.argmax(np.abs(coeff)))
    if coeff[pivot] < 0:
        coeff = -coeff
    state = NBodyWavefunction(
        n_electrons=n,
        determinants=dets,
        coefficients=coeff.astype(complex),
        basis=basis,
        sz=float(sz),
    )
    return energy, state


def exact_reduced_density_matrix(state: NBodyWavefunction, order: int) -> DensityMatrix:
    """Order-n reduced matrix by direct contraction over the remaining coordinates.

    Carries the N!/(N-n)! prefactor, so the trace over ordered spin-orbital
    tuples reproduces that normalization.
    """
    n = state.n_electrons
    if not 1 <= order <= n:
        raise ValueError(f"order must lie in [1, {n}], got {order}")
    m = 2 * state.basis.size
    check_matrix_size(m, order)
    amp = state.amplitude_tensor()
    kept = order
    contracted_axes = tuple(range(kept, n))
    rho = np.tensordot(amp, amp.conj(), axes=(contracted_axes, contracted_axes))
    prefactor = math.factorial(n) / math.factorial(n - order)
    dim = m**order
    return DensityMatrix(
        order=order,
        n_electrons=n,
        matrix=prefactor * rho.reshape(dim, dim),
        dim_single=m,
        weight=1.0,
        basis=ORBITAL,
    )


def reduced_density_matrix_on_grid(
    state: NBodyWavefunction, order: int
) -> DensityMatrix:
    """Spin-traced grid-space reduced matrix of the oracle state (order 1 or 2)."""
    if order not in (1, 2):
        raise ValueError("grid-space reduction implemented for orders 1 and 2")
    rho_orb = exact_reduced_density_matrix(state, order)
    phi = state.basis.functions
    g = phi.shape[0]
    m_so = rho_orb.dim_single
    m = m_so // 2
    if order == 1:
        mat = rho_orb.matrix
        out = np.zeros((g, g), dtype=complex)
        for s in (0, 1):
            block = mat[s::2, s::2]
            out += phi @ block @ phi.conj().T
        result = out
    else:
        check_matrix_size(g, 2)
        tens = rho_orb.matrix.reshape(m_so, m_so, m_so, m_so)
        out = np.zeros((g, g, g, g), dtype=complex)
        for s1 in (0, 1):
            for s2 in (0, 1):
                block = tens[s1::2, s2::2, s1::2, s2::2]
                # contract one spatial index at a time to keep intermediates small
                step = np.einsum("ip,pqrs->iqrs", phi, block)
                step = np.einsum("jq,iqrs->ijrs", phi, step)
                step = np.einsum("kr,ijrs->ijks", phi, step)
                out += np.einsum("ls,ijks->ijkl", phi, step)
        result = out.reshape(g * g, g * g)
    return DensityMatrix(
        order=order,
        n_electrons=state.n_electrons,
        matrix=result,
        dim_single=g,
        weight=state.basis.spacing,
        basis=GRID,
    )


def natural_occupations(state: NBodyWavefunction) -> np.ndarray:
    """Eigenvalues of the spin-orbital one-matrix, descending; they sum to N."""
    rho1 = exact_reduced_density_matrix(state, 1)
    occ = np.linalg.eigvalsh(rho1.matrix)[::-1]
    return np.real(occ)
