"""Mean-field operator construction, self-consistent iteration and band structures.

Closed-shell occupation throughout: each spatial orbital holds two electrons,
with the one-electron system treated specially (its Coulomb and exchange
self-interaction cancel identically, so both terms are dropped).  Exchange is
nonlocal: a full matrix wherever an operator is assembled, and a sum of
orbital products where only its action on the occupied orbitals is needed.

One SCF loop serves every caller.  It iterates a stack of momenta in lockstep
(a band structure passes its momenta k > 0, :func:`scf_solve` one momentum),
accelerated by Pulay DIIS on the commutator error [F, gamma] (Pulay, Chem.
Phys. Lett. 73, 393 (1980); J. Comput. Chem. 3, 556 (1982)).  The residual
and energy of an iterate need only F[gamma] psi, which
:func:`_fock_on_orbitals` takes from orbital products without forming the
g x g operator; only the extrapolated operator of each DIIS step and the
final record are assembled (:func:`_mean_field`).  Each DIIS step needs only
the occupied orbitals of the extrapolated operator.  With one occupied
orbital on a grid of at least ``_LOWEST_ORBITAL_MIN_POINTS`` points,
:func:`_lowest_orbital` finds it by Rayleigh-quotient iteration from the
previous iterate, and a complex stack (k != 0) takes its start the same way,
from the real zone-centre core orbital times the Bloch ramp e^{ik(x - x0)}.
Every other eigensolve is a full ``eigh``: the core start of a box or a zone
centre, every step with more than one occupied orbital, and the final
all-band solve.  Intermediate iterates only steer the path, so no step
checks that its orbitals are the lowest: one aufbau verdict on the converged
occupation does, on every route.

The external potential and the interaction are real, so H(-k) = H(k)*: a
band structure solves only k >= 0 and fills each -k result by complex
conjugation of its +k partner (time reversal).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .model_system import PERIODIC, ModelSystem, core_hamiltonian

_DIIS_SIZE = 8  # error vectors kept per momentum
_DIIS_MAX_COND = 1e12  # oldest vectors are dropped above this condition number
# Rayleigh-quotient route for the one occupied orbital (see _lowest_orbital)
_LOWEST_ORBITAL_MIN_POINTS = 48  # below this grid size a full eigh is as fast
_LOWEST_ORBITAL_MAX_SOLVES = 8  # shifted solves per momentum; one to three suffice
# sine of the largest angle between the occupied space and the lowest
# eigenvectors of F[gamma]: 45 degrees, halfway between the lowest space (0)
# and an excited exit (1); a converged momentum sits within about tol / gap of one
_AUFBAU_MAX_DEFICIT = 0.5**0.5


@dataclass(frozen=True)
class FockOperator:
    """One-particle mean-field operator h + hartree - exchange at one momentum."""

    h_core: np.ndarray
    hartree: np.ndarray
    exchange: np.ndarray
    total: np.ndarray


@dataclass(frozen=True)
class SCFResult:
    """Converged (or best-effort) self-consistent solution at one momentum."""

    orbitals: np.ndarray  # quadrature-normalized columns
    eigenvalues: np.ndarray  # ascending
    iterations: int
    final_residual: float
    converged: bool
    residual_history: tuple
    energy_history: tuple
    energy: float
    momentum: float | None
    n_occupied: int
    # energy non-increasing from iteration 3 on; a diagnostic only, since a
    # DIIS iterate's energy may rise (by ~4e-6 on two-well cells) on the way
    # to convergence.  ``converged`` and ``final_residual`` are the verdict.
    monotone_after_3: bool
    fock: FockOperator


@dataclass(frozen=True)
class BandStructure:
    """Band samples over a symmetric momentum grid (the single point k = 0 for a box)."""

    kgrid: np.ndarray
    bands: np.ndarray  # (n_bands, nk)
    occupations: np.ndarray  # (n_bands,)
    converged_per_k: np.ndarray  # bool (nk,)
    scf_results: tuple

    @property
    def n_bands(self) -> int:
        return self.bands.shape[0]

    @property
    def symmetry_residuals(self) -> np.ndarray:
        """Max |e_n(k) - e_n(-k)| per band: zero, since -k is filled from +k."""
        return np.zeros(self.n_bands)


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _mean_field(system: ModelSystem, h: np.ndarray, density: np.ndarray, kernel: np.ndarray):
    """Hartree potential, exchange matrix and total operator, stacked over leading axes.

    ``density`` (..., g) is the total electron density and ``kernel``
    (..., g, g) the same-spin density kernel gamma(x, x'), a float or complex
    array that is overwritten with the exchange matrix, which saves one g x g
    buffer per momentum.
    """
    if system.n_electrons == 1:
        # both self-interaction terms vanish for a lone electron
        kernel[...] = 0.0
        return np.zeros(density.shape), kernel, h.copy()
    w = system.grid.spacing
    v = system.interaction_kernel
    # one product per momentum: a row inside a larger GEMM may round differently,
    # which would make a momentum's result depend on its stack neighbours
    hartree = (density[..., None, :] @ v)[..., 0, :] * w
    exchange = kernel
    exchange *= v
    exchange *= w
    total = h - exchange
    diag = np.arange(h.shape[-1])
    total[..., diag, diag] += hartree
    return hartree, exchange, total


def build_fock(
    system: ModelSystem,
    rho1_diag: np.ndarray,
    rho1_full: np.ndarray,
    k: float | None = None,
) -> FockOperator:
    """Assemble kinetic + external + Coulomb - exchange for a given density.

    ``rho1_diag`` is the total electron density on the grid and feeds the
    local Coulomb term; ``rho1_full`` is the same-spin density kernel
    gamma(x, x') and feeds the nonlocal exchange,
    exchange[i, j] = v[i, j] gamma(x_i, x_j) * spacing.
    """
    g = system.grid.npoints
    rho1_diag = np.asarray(rho1_diag)
    rho1_full = np.asarray(rho1_full)
    if rho1_diag.shape != (g,) or rho1_full.shape != (g, g):
        raise ValueError("density dimensions do not match the grid")
    h = core_hamiltonian(system, k)
    kernel = np.array(rho1_full, dtype=np.result_type(rho1_full, float))
    hartree, exchange, total = _mean_field(system, h, rho1_diag, kernel)
    return FockOperator(h_core=h, hartree=np.diag(hartree), exchange=exchange, total=total)


def _occupied_count(n_electrons: int) -> int:
    if n_electrons == 1:
        return 1
    if n_electrons % 2 != 0:
        raise ValueError("closed-shell solver requires an even electron count (or N = 1)")
    return n_electrons // 2


def _fock_on_orbitals(system: ModelSystem, h_occ: np.ndarray, occ: np.ndarray) -> np.ndarray:
    """F[gamma] psi from the occupied orbitals alone, gamma = psi psi^H, stacked over momenta.

    ``occ`` (..., g, nocc) holds the orbitals psi_a and ``h_occ`` the products
    h psi.  With n = 2 sum_a |psi_a|^2 and q_ab = v (psi_a^* psi_b),
    F psi_b = h psi_b + w (v n) psi_b - w sum_a psi_a q_ab, so no g x g
    operator is formed.  The pair products take one product with v per
    momentum: a row inside a larger GEMM may round differently, which would
    make a momentum's result depend on its stack neighbours.
    """
    if system.n_electrons == 1:
        return h_occ  # both self-interaction terms vanish for a lone electron
    w = system.grid.spacing
    v = system.interaction_kernel
    nocc = occ.shape[-1]
    pairs = occ.conj()[..., :, None] * occ[..., None, :]
    q = (v @ pairs.reshape(occ.shape[:-1] + (nocc * nocc,))).reshape(occ.shape + (nocc,))
    hartree = 2.0 * np.real(np.trace(q, axis1=-2, axis2=-1))  # v n
    return h_occ + w * (hartree[..., None] * occ - np.einsum("...ia,...iab->...ib", occ, q))


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of every column real and positive, in place (stacked)."""
    # |v| laid out column-major, so argmax runs along a contiguous axis without a copy
    mag = np.empty(vectors.shape[:-2] + vectors.shape[:-3:-1])
    np.abs(vectors.swapaxes(-1, -2), out=mag)
    pivot = np.argmax(mag, axis=-1)[..., None, :]
    del mag
    val = np.take_along_axis(vectors, pivot, axis=-2)
    if np.iscomplexobj(vectors):
        mag = np.abs(val)
        vectors *= np.where(mag > 0, np.conj(val) / np.where(mag > 0, mag, 1.0), 1.0)
    else:
        vectors *= np.where(val < 0, -1.0, 1.0)
    return vectors


def _lowest_orbital(f: np.ndarray, guess: np.ndarray) -> np.ndarray:
    """An eigenvector of each Hermitian ``f`` (n, g, g) as phase-fixed unit columns (n, g, 1).

    Batched Rayleigh-quotient iteration (Parlett, The Symmetric Eigenvalue
    Problem, section 4.6) from ``guess`` (n, g), the previous SCF iterate:
    theta = x^H F x and r = F x - theta x; a momentum stops once
    |r| <= 64 eps max|F|, otherwise x <- (F - theta I)^-1 x, normalized.  Only
    the momenta still iterating stay in the stack, so a momentum's result does
    not depend on its neighbours.  The iteration converges to whichever
    eigenvector lies nearest its start, not necessarily the lowest; the
    aufbau verdict of :func:`_scf` checks the converged orbital.  A result is
    accepted if |r| <= 1024 eps max|F|.  A singular shifted solve ends the
    iteration of the whole stack.  Every momentum not accepted takes the
    lowest column of a full ``eigh``.
    """
    n, g, _ = f.shape
    eps = np.finfo(float).eps
    scale = np.max(np.abs(f), axis=(1, 2))
    x = np.array(guess, dtype=np.result_type(f, guess))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    theta = np.zeros(n)
    residual = np.zeros(n)
    rows = np.arange(n)
    diag = np.arange(g)
    for solves in range(_LOWEST_ORBITAL_MAX_SOLVES + 1):
        xs = x[rows]
        fx = (f[rows] @ xs[..., None])[..., 0]
        theta[rows] = np.real(np.sum(xs.conj() * fx, axis=-1))
        residual[rows] = np.linalg.norm(fx - theta[rows, None] * xs, axis=-1)
        rows = rows[residual[rows] > 64 * eps * scale[rows]]
        if rows.size == 0 or solves == _LOWEST_ORBITAL_MAX_SOLVES:
            break
        shifted = f[rows]
        shifted[:, diag, diag] -= theta[rows, None]
        try:
            y = np.linalg.solve(shifted, x[rows][..., None])[..., 0]
        except np.linalg.LinAlgError:
            break
        x[rows] = y / np.linalg.norm(y, axis=-1, keepdims=True)

    accepted = residual <= 1024 * eps * scale
    x = x[..., None]
    if not np.all(accepted):
        x[~accepted] = np.linalg.eigh(f[~accepted])[1][..., :1]
    return _fix_phases(x)


def hf_total_energy(
    system: ModelSystem, orbitals_occ: np.ndarray, k: float | None = None
) -> float:
    """Closed-shell determinant energy of the given occupied orbitals."""
    w = system.grid.spacing
    h = core_hamiltonian(system, k)
    v = system.interaction_kernel
    if system.n_electrons == 1:
        psi = orbitals_occ[:, 0]
        return float(np.real(psi.conj() @ h @ psi) * w)
    kernel = orbitals_occ @ orbitals_occ.conj().T  # same-spin kernel
    p = 2.0 * kernel
    density = np.real(np.diag(p))
    e_one = float(np.real(np.sum(h * p.T)) * w)  # Tr(h p)
    e_hartree = 0.5 * float(density @ v @ density) * w * w
    e_exchange = 0.25 * float(np.real(np.sum(v * np.abs(p) ** 2))) * w * w
    return e_one + e_hartree - e_exchange


class _PulayHistory:
    """DIIS subspace of every momentum, kept as orbital factors, not g x g matrices.

    Entry i holds the occupied orbitals psi_i of gamma_i = psi_i psi_i^H and the
    projected error R_i = (1 - P_i) F[gamma_i] psi_i, P_i the occupied-space
    projector.  The commutator error is then e_i = R_i psi_i^H - psi_i R_i^H,
    and B_ij = Tr(e_i^H e_j) = 2 Re Tr(R_i^H R_j psi_j^H psi_i - R_i^H psi_j R_j^H psi_i)
    needs only n_occ x n_occ products.  Since F is affine in gamma and the
    coefficients sum to one, sum_i c_i F[gamma_i] = F[sum_i c_i gamma_i], so the
    extrapolated operator is rebuilt from the stored orbitals.
    """

    def __init__(self, nk: int, g: int, nocc: int, dtype):
        self.size = size = _DIIS_SIZE  # read when constructed, not at import
        self.psi = np.zeros((nk, size, g, nocc), dtype=dtype)
        self.err = np.zeros_like(self.psi)
        self.b = np.zeros((nk, size, size))
        self.valid = np.zeros((nk, size), dtype=bool)
        self.stamp = np.zeros(size, dtype=int)  # push count when each slot was written
        self.pushes = 0

    def push(self, rows: np.ndarray, psi: np.ndarray, err: np.ndarray) -> np.ndarray:
        """Store one entry for each momentum in ``rows``, replacing its oldest.

        Returns the squared Frobenius norm of each new commutator error, B_ii.
        """
        slot = self.pushes % self.size
        self.pushes += 1
        self.stamp[slot] = self.pushes
        self.psi[rows, slot] = psi
        self.err[rows, slot] = err
        self.valid[rows, slot] = True
        hist_psi = self.psi[rows]
        hist_err = self.err[rows]
        err_h = _adjoint(err)[:, None]
        t1 = np.einsum("kmij,kmji->km", err_h @ hist_err, _adjoint(hist_psi) @ psi[:, None])
        t2 = np.einsum("kmij,kmji->km", err_h @ hist_psi, _adjoint(hist_err) @ psi[:, None])
        row = 2.0 * np.real(t1 - t2)
        self.b[rows, slot, :] = row
        self.b[rows, :, slot] = row
        return row[:, slot]

    def _bordered(self, b: np.ndarray, valid: np.ndarray) -> np.ndarray:
        m = self.size
        diag = np.arange(m)
        scale = np.max(np.where(valid, b[:, diag, diag], 0.0), axis=1)
        scale = np.where(scale > 0, scale, 1.0)
        pair = valid[:, :, None] & valid[:, None, :]
        a = np.zeros((b.shape[0], m + 1, m + 1))
        a[:, :m, :m] = np.where(pair, b / scale[:, None, None], 0.0)
        a[:, diag, diag] += ~valid  # unused slots solve to a zero coefficient
        a[:, :m, m] = valid
        a[:, m, :m] = valid
        return a

    def coefficients(self, rows: np.ndarray) -> np.ndarray:
        """Coefficients (len(rows), size), summing to one, minimizing |sum_i c_i e_i|."""
        b = self.b[rows]
        valid = self.valid[rows]
        while True:
            a = self._bordered(b, valid)
            # a is symmetric, so its 2-norm condition number is max|lambda| / min|lambda|
            lam = np.abs(np.linalg.eigvalsh(a))
            ill = np.max(lam, axis=1) > _DIIS_MAX_COND * np.min(lam, axis=1)
            bad = ill & (np.sum(valid, axis=1) > 1)
            if not np.any(bad):
                break
            oldest = np.argmin(np.where(valid, self.stamp, np.iinfo(int).max), axis=1)
            valid[bad, oldest[bad]] = False
        self.valid[rows] = valid
        rhs = np.zeros((len(rows), self.size + 1, 1))
        rhs[:, -1] = 1.0
        return np.linalg.solve(a, rhs)[:, : self.size, 0]

    def extrapolated_kernel(self, rows: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """sum_i c_i psi_i psi_i^H for each momentum in ``rows``."""
        psi = self.psi[rows]
        na, m, g, nocc = psi.shape
        left = (psi * coeffs[:, :, None, None]).transpose(0, 2, 1, 3).reshape(na, g, m * nocc)
        right = psi.transpose(0, 2, 1, 3).reshape(na, g, m * nocc)
        return left @ _adjoint(right)


def _scf(
    system: ModelSystem,
    momenta: list,
    max_iter: int,
    tol: float,
    guess_orbitals: np.ndarray | None = None,
) -> list[SCFResult]:
    """Lockstep Pulay-DIIS SCF over a stack of momenta; one result per momentum.

    Every momentum starts from its lowest core-Hamiltonian orbitals, or from
    the first n_occ columns of ``guess_orbitals`` when given.  Where the
    Rayleigh-quotient route applies (one occupied orbital, at least
    ``_LOWEST_ORBITAL_MIN_POINTS`` points), a complex stack finds that
    orbital with :func:`_lowest_orbital` from the real zone-centre core
    orbital times e^{ik(x - x0)}, x0 the first grid point, so no complex
    ``eigh`` of the core stack is made; elsewhere a full ``eigh`` gives it.
    Each iterate's F[gamma] psi comes from :func:`_fock_on_orbitals`.  Each
    momentum stops updating once its residual, the Frobenius norm of the
    commutator F P - P F of its Fock operator with the occupied-space
    projector P = gamma * spacing, drops below ``tol``.  The reported
    eigenpairs and Fock operator are those of the un-extrapolated F[gamma] at
    the last density.

    Aufbau verdict: a small commutator only says that P is nearly an
    invariant subspace of F[gamma], possibly an excited one.  So a momentum
    is reported converged only if, besides, the spectral norm of P minus the
    projector onto the lowest n_occ eigenvectors of F[gamma], the sine of
    the largest angle between the two spaces, is below
    ``_AUFBAU_MAX_DEFICIT``.  A momentum that fails is reported not
    converged with a ``UserWarning`` naming its momentum, that deficit and
    the HOMO-LUMO gap.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    nocc = _occupied_count(system.n_electrons)
    w = system.grid.spacing
    g = system.grid.npoints
    if nocc > g:
        raise ValueError("more occupied orbitals than grid points")
    occ_factor = 1.0 if system.n_electrons == 1 else 2.0

    def fock_of(h_rows, kernel):
        density = occ_factor * np.real(np.diagonal(kernel, axis1=-2, axis2=-1))
        return _mean_field(system, h_rows, density, kernel)

    h = np.stack([core_hamiltonian(system, k) for k in momenta])
    nk = h.shape[0]
    lowest_route = nocc == 1 and g >= _LOWEST_ORBITAL_MIN_POINTS
    if guess_orbitals is None and lowest_route and np.iscomplexobj(h):
        # the real zone-centre core orbital times the Bloch ramp seeds the
        # Rayleigh-quotient route, in place of a complex eigh of the stack
        centre = np.linalg.eigh(core_hamiltonian(system, 0.0))[1][:, 0]
        x = system.grid.points
        ramp = np.exp(1j * np.multiply.outer(momenta, x - x[0]))
        psi = _lowest_orbital(h, centre * ramp) / np.sqrt(w)
    elif guess_orbitals is None:
        psi = np.linalg.eigh(h)[1][..., :nocc] / np.sqrt(w)
    else:
        guess = np.asarray(guess_orbitals)[:, :nocc]
        psi = np.empty((nk, g, nocc), dtype=np.result_type(h, guess))
        psi[:] = guess
    history = _PulayHistory(nk, g, nocc, psi.dtype)
    residuals = [[] for _ in range(nk)]
    energies = [[] for _ in range(nk)]
    converged = np.zeros(nk, dtype=bool)
    active = np.arange(nk)
    h_active = h

    for iteration in range(1, max_iter + 1):
        occ = psi[active]
        h_occ = h_active @ occ
        f_occ = _fock_on_orbitals(system, h_occ, occ)
        err = f_occ - occ @ (_adjoint(occ) @ f_occ * w)
        residual = w * np.sqrt(np.maximum(history.push(active, occ, err), 0.0))
        # E = (occupation / 2) Tr[(h + F) gamma] * spacing
        energy = 0.5 * occ_factor * w * np.real(
            np.sum(occ.conj() * (h_occ + f_occ), axis=(-2, -1))
        )
        for i, r, e in zip(active, residual, energy):
            residuals[i].append(float(r))
            energies[i].append(float(e))
        done = residual < tol
        converged[active[done]] = True
        if iteration == max_iter or np.all(done):
            break
        if np.any(done):
            active, h_active = active[~done], h_active[~done]
        kernel = history.extrapolated_kernel(active, history.coefficients(active))
        fock = fock_of(h_active, kernel)[2]
        del kernel
        if lowest_route:
            vectors = _lowest_orbital(fock, psi[active, :, 0] * np.sqrt(w))
        else:
            vectors = _fix_phases(np.linalg.eigh(fock)[1][..., :nocc])
        del fock
        psi[active] = vectors / np.sqrt(w)

    # eigenpairs of the un-extrapolated operator at each momentum's last density
    hartree, exchange, total = fock_of(h, psi @ _adjoint(psi))
    eigenvalues, orbitals = np.linalg.eigh(total)
    _fix_phases(orbitals)
    orbitals /= np.sqrt(w)
    # aufbau verdict: |P_occ - P_lowest| = |(1 - P_lowest) psi| in the spectral norm
    lowest = orbitals[..., :nocc]
    deficit = np.sqrt(w) * np.linalg.norm(
        psi - lowest @ (_adjoint(lowest) @ psi * w), ord=2, axis=(-2, -1)
    )
    for i in np.flatnonzero(converged & (deficit >= _AUFBAU_MAX_DEFICIT)):
        converged[i] = False
        gap = eigenvalues[i, nocc] - eigenvalues[i, nocc - 1]
        warnings.warn(  # a UserWarning, shown at the caller of scf_solve or band_structure
            f"SCF at k={momenta[i]!r} converged off the aufbau occupation (occupied-projector "
            f"deficit {deficit[i]:.3g}, HOMO-LUMO gap {gap:.3g}); marked not converged",
            stacklevel=3,
        )

    results = []
    for i, k in enumerate(momenta):
        history_e = energies[i]
        monotone = all(b <= a + 1e-12 for a, b in zip(history_e[3:], history_e[4:]))
        results.append(
            SCFResult(
                orbitals=orbitals[i],
                eigenvalues=eigenvalues[i],
                iterations=len(residuals[i]),
                final_residual=residuals[i][-1],
                converged=bool(converged[i]),
                residual_history=tuple(residuals[i]),
                energy_history=tuple(history_e),
                energy=history_e[-1],
                momentum=k,
                n_occupied=nocc,
                monotone_after_3=monotone,
                fock=FockOperator(
                    h_core=h[i],
                    hartree=np.diag(hartree[i]),
                    exchange=exchange[i],
                    total=total[i],
                ),
            )
        )
    return results


def scf_solve(
    system: ModelSystem, k: float | None = None, max_iter: int = 500, tol: float = 1e-10
) -> SCFResult:
    """Self-consistent fixed point of the density -> Fock -> density map at one momentum.

    Starts from the core-Hamiltonian orbitals.  Pulay DIIS on the commutator
    error; convergence is declared when the Frobenius norm of F P - P F, P the
    occupied-space projector, drops below ``tol`` and the occupation passes
    the aufbau verdict of :func:`_scf`.  Non-convergence is reported through
    the result flags and residual history rather than raised.
    """
    return _scf(system, [k], max_iter, tol)[0]


def _time_reversed(res: SCFResult, k: float) -> SCFResult:
    """The solution at ``k`` = -res.momentum: the potential is real, so H(-k) = H(k)*.

    Orbitals and the complex Fock parts are conjugated; the real Hartree
    potential, the eigenvalues and the convergence record are shared.
    """
    fock = res.fock
    return replace(
        res,
        orbitals=res.orbitals.conj(),
        momentum=k,
        fock=replace(
            fock,
            h_core=fock.h_core.conj(),
            exchange=fock.exchange.conj(),
            total=fock.total.conj(),
        ),
    )


def band_structure(system: ModelSystem, max_iter: int = 500, tol: float = 1e-10) -> BandStructure:
    """Solve the SCF at every sampled momentum k >= 0 and fill -k by time reversal.

    A box system has no crystal momentum: its band structure is one record at
    k = 0, the :func:`scf_solve` solution.  A periodic system solves the zone
    center, when sampled, on its own, so it stays in real arithmetic, and the
    momenta k > 0 in lockstep.  Each -k result is the complex conjugate of its
    +k partner (the grid is symmetric by construction), so e(k) = e(-k) holds
    exactly and the symmetry residuals are zero by construction.  Momenta
    whose SCF failed are marked unconverged so downstream analysis can
    exclude the band.
    """
    kgrid = system.kgrid if system.boundary == PERIODIC else np.zeros(1)
    results = [None] * kgrid.size
    for i in np.flatnonzero(kgrid == 0.0):
        results[i] = scf_solve(system, 0.0, max_iter, tol)
    positive = np.flatnonzero(kgrid > 0.0)
    if positive.size:
        for i, res in zip(positive, _scf(system, kgrid[positive].tolist(), max_iter, tol)):
            results[i] = res
    solved = {float(k): results[i] for i, k in enumerate(kgrid) if k >= 0.0}
    for i in np.flatnonzero(kgrid < 0.0):
        k = float(kgrid[i])
        results[i] = _time_reversed(solved[-k], k)

    bands = np.array([res.eigenvalues for res in results]).T
    converged = np.array([res.converged for res in results], dtype=bool)
    occupations = np.zeros(bands.shape[0], dtype=int)
    occupations[: results[0].n_occupied] = 1 if system.n_electrons == 1 else 2

    return BandStructure(
        kgrid=kgrid,
        bands=bands,
        occupations=occupations,
        converged_per_k=converged,
        scf_results=tuple(results),
    )
