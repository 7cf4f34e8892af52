"""Exact solver for tiny electron counts.

Full configuration interaction over the lowest one-body orbitals, used as the
ground-truth oracle for density matrices, energies and mean-field comparisons.
The m spatial orbitals give 2m spin orbitals, numbered alpha 0 ... m - 1, then
beta m ... 2m - 1.  A determinant of fixed Sz is the product
A+(I_a) B+(I_b) |0> of an alpha string I_a and a beta string I_b (the sorted
spatial orbitals of each spin).  In that numbering its occupied spin orbitals
are the alpha string followed by the shifted beta string, already ascending,
so it carries no sign; with b beta strings it is determinant I_a b + I_b of
its sector.  The CI matrix of a sector is built in that string-product basis
from single-replacement string operators, and an element between two
determinants is read from it directly.  H keeps spin flip (at
Sz = 0) and, when the orbitals and integrals show it, reflection parity; a
sector of at least ``_DAVIDSON_MIN_DETERMINANTS`` determinants is split into
those symmetry blocks, each gathered straight from the string products.  A
Davidson loop finds the lowest Ritz pair of the block with the lowest
diagonal element, and one rule certifies it: every block, that one first
lifted along the Ritz vector, must have a Cholesky factor once shifted
above the Ritz value by a gap.  The dense sector matrix is formed in one
place, for a full ``eigh`` of smaller sectors and of every sector whose
loop or certificate fails.  Reduced density matrices of every
order come from annihilation strings: a_pn ... a_p1 |Psi> for each ordered
tuple p, over the (N - n)-electron strings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

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
# Davidson settings for the lowest CI eigenpair (see _lowest_eigenpair)
_DAVIDSON_MIN_DETERMINANTS = 128  # below this a full eigh is as fast
_DAVIDSON_MAX_ITER = 50  # the oracle sectors converge in about 20
_DAVIDSON_TOL = 1e-12  # residual norm |H x - theta x|, times max(1, |theta|)
_DAVIDSON_MIN_GAP = 1e-3  # hartree; a closer second eigenvalue is near-degenerate
_PARITY_TOL = 1e-8  # max |R phi - p phi| of a unit orbital of definite parity p
_SYMMETRY_RTOL = 1e-12  # largest parity-breaking integral, relative to the largest


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

    Row d of the (n_det, N) array ``determinants`` holds the ascending
    spin-orbital indices p1 < ... < pN of a+_p1 ... a+_pN |0>, alpha orbitals
    0 ... m - 1 before beta orbitals m ... 2m - 1; ``coefficients`` holds the
    expansion amplitudes.  ``sz`` is the total spin projection shared by every
    determinant.
    """

    n_electrons: int
    determinants: np.ndarray
    coefficients: np.ndarray
    basis: OrbitalBasis
    sz: float


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
    g, m = phi.shape
    pair = (phi[:, :, None] * phi[:, None, :]).reshape(g, m * m)  # [x, (p, r)]
    return (w * w * (pair.T @ v_kernel @ pair)).reshape(m, m, m, m).transpose(0, 2, 1, 3)


def one_body_integrals(basis: OrbitalBasis, system: ModelSystem) -> np.ndarray:
    h = core_hamiltonian(system)
    phi = basis.functions
    return basis.spacing * (phi.T @ h @ phi)


def _strings(m: int, n: int) -> np.ndarray:
    """The C(m, n) occupation strings of n same-spin electrons in m orbitals.

    Rows hold ascending orbital indices, in lexicographic order, so row I is
    the string of rank I (see :func:`_string_rank`).
    """
    count = math.comb(m, n)
    flat = itertools.chain.from_iterable(itertools.combinations(range(m), n))
    return np.fromiter(flat, dtype=np.intp, count=count * n).reshape(count, n)


def _determinants(m: int, n_a: int, n_b: int) -> np.ndarray:
    """Occupied spin orbitals of every determinant of a sector, one ascending row each.

    Row I_a b + I_b, for b beta strings, is alpha string I_a followed by beta
    string I_b shifted by m, so the rows are in lexicographic order.
    """
    alpha, beta = _strings(m, n_a), _strings(m, n_b) + m
    return np.concatenate(
        [np.repeat(alpha, len(beta), axis=0), np.tile(beta, (len(alpha), 1))], axis=1
    )


def _string_rank(strings: np.ndarray, m: int) -> np.ndarray:
    """Lexicographic rank of each row of ascending orbital indices among C(m, n).

    Reflecting c -> m - 1 - c turns lexicographic into colexicographic order,
    whose rank is the combinatorial number sum_p C(m - 1 - c_p, n - p).
    """
    n = strings.shape[-1]
    binom = np.array([[math.comb(x, y) for y in range(n + 1)] for x in range(m)], dtype=np.intp)
    return math.comb(m, n) - 1 - binom[m - 1 - strings, n - np.arange(n)].sum(axis=-1)


class _StringOperators(NamedTuple):
    """Every nonzero <I|a+_i a_k|J> between strings of n same-spin electrons.

    Row J lists the n (m - n + 1) replacements of an occupied k by an empty
    i or by k itself; ``target`` is the rank of the resulting string I.
    """

    target: np.ndarray
    create: np.ndarray  # i
    annihilate: np.ndarray  # k
    sign: np.ndarray  # +1.0 or -1.0


def _string_operators(m: int, n: int) -> _StringOperators:
    strings = _strings(m, n)
    count = len(strings)
    occ = np.zeros((count, m), dtype=bool)
    occ[np.arange(count)[:, None], strings] = True
    below = np.cumsum(occ, axis=1) - occ  # occupied orbitals below each orbital
    allowed = ~occ[:, None, :] | (np.arange(m) == strings[:, :, None])
    source, pos, create = np.nonzero(allowed)  # row-major: grouped by source
    annihilate = strings[source, pos]
    replaced = strings[source]
    replaced[np.arange(source.size), pos] = create
    replaced.sort(axis=1)
    # a_k passes the pos orbitals below k; a+_i then passes those below i but k
    parity = pos + below[source, create] - (annihilate < create)
    shape = (count, n * (m - n + 1))
    return _StringOperators(
        target=_string_rank(replaced, m).reshape(shape),
        create=create.reshape(shape),
        annihilate=annihilate.reshape(shape),
        sign=(1.0 - 2.0 * (parity & 1)).reshape(shape),
    )


def _same_spin_hamiltonian(ops: _StringOperators, n: int, t: np.ndarray, v: np.ndarray):
    """H_s = sum t_ik E_ik + 1/2 sum v_ijkl E_ik E_jl - 1/2 sum v_ijjl E_il on one spin's strings.

    The last two terms are the same-spin pair interaction a+_i a+_j a_l a_k;
    for a single electron they cancel exactly and are skipped.
    """
    count = ops.target.shape[0]
    source = np.arange(count)[:, None]
    t_eff = t if n < 2 else t - 0.5 * np.einsum("ijjl->il", v)
    h = np.bincount(
        (ops.target * count + source).ravel(),
        weights=(ops.sign * t_eff[ops.create, ops.annihilate]).ravel(),
        minlength=count * count,
    )
    if n >= 2:
        # (E_ik E_jl)[I, K] summed over the intermediate string J: E_ik[I, J] is
        # an entry of row J, and E_jl[J, K] = E_lj[K, J] is another, read backwards
        i, k, sign = ops.create, ops.annihilate, ops.sign
        pair = v[i[:, :, None], k[:, None, :], k[:, :, None], i[:, None, :]]
        pair *= 0.5 * sign[:, :, None] * sign[:, None, :]
        flat = ops.target[:, :, None] * count + ops.target[:, None, :]
        h += np.bincount(flat.ravel(), weights=pair.ravel(), minlength=count * count)
    return h.reshape(count, count)


def _excitation_matrix(ops: _StringOperators, m: int) -> np.ndarray:
    """Dense E[(I, J), (i, k)] = <I|a+_i a_k|J> over string pairs and orbital pairs."""
    count = ops.target.shape[0]
    e = np.zeros((count * count, m * m))
    e[ops.target * count + np.arange(count)[:, None], ops.create * m + ops.annihilate] = ops.sign
    return e


def _sector_entries(string_h: np.ndarray):
    """Reader entries(rows, cols) of the CI matrix of a sector, from its string products.

    ``string_h`` is H[I_a, J_a, I_b, J_b] of :func:`_string_hamiltonian`
    (Knowles & Handy, Chem. Phys. Lett. 111, 315 (1984); Olsen et al.,
    J. Chem. Phys. 89, 2185 (1988)).  Determinant d is the string pair
    (d // b, d % b) for b beta strings, so the reader gathers H[rows][:, cols]
    as string_h[r // b, c // b, r % b, c % b].  The indices broadcast, so no
    index array of the size of the result is formed.
    """
    b = string_h.shape[2]

    def entries(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        r = rows[:, None]
        return string_h[r // b, cols // b, r % b, cols % b]

    return entries


def _string_hamiltonian(m: int, n_a: int, n_b: int, t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H[I_a, J_a, I_b, J_b] in the product basis of alpha and beta strings.

        H = H_a x 1 + 1 x H_b + sum_ijkl v_ijkl E^a_ik x E^b_jl,

    with E_ik = <I|a+_i a_k|J> a string matrix and H_a, H_b the same-spin
    Hamiltonians of :func:`_same_spin_hamiltonian`.  The opposite-spin sum is
    one GEMM, (a^2 x m^2)(m^2 x m^2)(m^2 x b^2) for a alpha and b beta strings
    over m orbitals.
    """
    ops = {k: _string_operators(m, k) for k in {n_a, n_b}}
    same = {k: _same_spin_hamiltonian(ops[k], k, t, v) for k in ops}
    a, b = same[n_a].shape[0], same[n_b].shape[0]
    if n_a and n_b:
        e = {k: _excitation_matrix(ops[k], m) for k in ops}
        pair_v = v.transpose(0, 2, 1, 3).reshape(m * m, m * m)  # [(i, k), (j, l)]
        string_h = (e[n_a] @ pair_v) @ e[n_b].T  # [(I_a, J_a), (I_b, J_b)]
    else:
        string_h = np.zeros((a * a, b * b))
    string_h[:, :: b + 1] += same[n_a].reshape(-1, 1)
    string_h[:: a + 1] += same[n_b].reshape(1, -1)
    return string_h.reshape(a, a, b, b)


def _orbital_parity(basis: OrbitalBasis, t: np.ndarray, v: np.ndarray):
    """Reflection parity (+1 or -1) of each orbital, or None where H does not keep it.

    The reflection reverses the grid.  Parity blocks are used only if every
    unit orbital phi has |R phi - p phi| <= ``_PARITY_TOL`` and the integrals
    that blocking drops are measured to be negligible: every t_ik between
    parity classes and every v_ijkl of odd total parity lies below
    ``_SYMMETRY_RTOL`` times the largest element of its tensor.  A periodic
    cell (well centred half a spacing off the kernel's centre), degenerate
    +-G orbitals, or a reflection-asymmetric pair kernel give None.
    """
    unit = basis.functions * math.sqrt(basis.spacing)
    reflected = unit[::-1]
    parity = np.where(np.einsum("gi,gi->i", unit, reflected) < 0, -1, 1)
    if np.max(np.abs(reflected - parity * unit)) > _PARITY_TOL:
        return None
    odd = np.multiply.outer(parity, parity) < 0
    for tensor, dropped in ((t, odd), (v, np.not_equal.outer(odd, odd))):
        if np.max(np.abs(tensor[dropped]), initial=0.0) > _SYMMETRY_RTOL * np.max(np.abs(tensor)):
            return None
    return parity


class _Block(NamedTuple):
    """One symmetry block of a CI sector, in the determinant basis.

    Basis vector k is weight[k] (|rows[k]> + phase[k] |partners[k]>), with
    weight 1/sqrt(2) for a determinant paired with its spin flip and 1/2 for a
    determinant that is its own partner (phase 1), so the vector is |rows[k]>.
    """

    rows: np.ndarray
    partners: np.ndarray
    phase: np.ndarray
    weight: np.ndarray


def _symmetry_blocks(m: int, n_a: int, n_b: int, parity) -> list:
    """Split the determinants of a sector by spin flip (Sz = 0) and by ``parity``.

    Spin flip F swaps the alpha and beta strings: it maps determinant
    d = I_a b + I_b to sigma |d'>, d' = I_b b + I_a, with one sign
    sigma = (-1)^(n_a n_b) for the whole sector, that of moving the n_a alpha
    creators past the n_b beta ones.  F commutes with the spin-free H and
    F^2 = 1, so for each phase c = +-1 the vectors (|d> + c |d'>)/sqrt(2), one
    per pair, are eigenvectors of F of the one eigenvalue c sigma and span a
    block of H.  A self-paired determinant (d = d') has eigenvalue sigma, so
    it joins the block of c = 1.  Parity, when not None, splits each block
    again by a determinant's parity, the product of its two strings'
    parities, each the product of its orbitals' parities.  Empty blocks are
    left out.
    """
    a, b = math.comb(m, n_a), math.comb(m, n_b)
    index = np.arange(a * b)
    if n_a == n_b:
        partner = (index % b) * b + index // b
        phases = (1.0, -1.0)
    else:
        partner, phases = index, (1.0,)
    det_parity = 1
    if parity is not None:
        string_parity = [np.prod(parity[_strings(m, k)], axis=1) for k in (n_a, n_b)]
        det_parity = np.multiply.outer(*string_parity).ravel()
    blocks = []
    for c in phases:
        kept = index <= partner if c > 0 else index < partner
        for p in (1, -1):
            rows = np.flatnonzero(kept & (det_parity == p))
            if rows.size:
                partners = partner[rows]
                weight = np.where(partners == rows, 0.5, math.sqrt(0.5))
                blocks.append(_Block(rows, partners, np.full(rows.size, c), weight))
    return blocks


def _block_matrix(entries, block: _Block) -> np.ndarray:
    """<u_j|H|u_k> = 2 w_j w_k (H[r_j, r_k] + phase_k H[r_j, r'_k]) when F H F = H.

    ``entries(rows, cols)`` reads H[rows][:, cols] (:func:`_sector_entries`).
    """
    b = entries(block.rows, block.rows)
    b += entries(block.rows, block.partners) * block.phase
    b *= 2.0 * np.outer(block.weight, block.weight)
    return b


def _unblock(block: _Block, y: np.ndarray, n: int) -> np.ndarray:
    """The determinant-basis vector sum_k y_k u_k of a block vector ``y``."""
    x = np.zeros(n)
    x[block.rows] = block.weight * y
    x[block.partners] += block.phase * block.weight * y
    return x


def _lowest_eigenpair(entries, n: int, blocks: list):
    """Certified lowest eigenvalue and unit eigenvector of an n x n H, or None.

    ``entries(rows, cols)`` reads H[rows][:, cols], and ``blocks`` are the
    symmetry blocks of H (:func:`_symmetry_blocks`).  :func:`_davidson` runs
    on the block with the lowest diagonal element, and its Ritz pair
    (theta, y) is accepted by one rule: every block B, the Davidson block
    first lifted to B + s y y^T with s = max(1, |theta|) > gap, must have a
    Cholesky factor of B - (theta + gap) I, so all its eigenvalues lie above
    theta + gap.  The lifted block equals B on the complement of y, so by
    Courant-Fischer the second eigenvalue of B lies above theta + gap, and
    the eigenvalue within |B y - theta y| of theta is its lowest; a further
    symmetry that kept the loop in its start vector's sector fails here.
    Every other block lies wholly above theta + gap.  Together these prove
    theta the lowest eigenvalue of the blocked operator, separated from the
    next by ``_DAVIDSON_MIN_GAP``, so y is unique.  None when the loop does
    not converge or any factor fails.
    """
    matrices = [_block_matrix(entries, block) for block in blocks]
    ground = int(np.argmin([np.min(np.diagonal(b)) for b in matrices]))
    pair = _davidson(matrices[ground])
    if pair is None:
        return None
    theta, y = pair
    matrices[ground] += np.outer(y, max(1.0, abs(theta)) * y)
    if all(_exceeds(b, theta + _DAVIDSON_MIN_GAP) for b in matrices):
        return theta, _unblock(blocks[ground], y, n)
    return None


def _exceeds(a: np.ndarray, shift: float) -> bool:
    """Whether every eigenvalue of the symmetric ``a`` exceeds ``shift``; overwrites ``a``.

    True when a - shift I has a Cholesky factor.
    """
    a[np.diag_indices(a.shape[0])] -= shift
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _davidson(h: np.ndarray):
    """Converged lowest Ritz pair (theta, x) by Davidson's method, x of unit norm.

    E. R. Davidson, J. Comput. Phys. 17, 87 (1975): the subspace starts from
    the lowest diagonal element and grows by the diagonally preconditioned
    residual, orthogonalized in two Gram-Schmidt passes.  ``h`` is one
    symmetry block of a CI sector.  Should it hold a further symmetry, the loop
    never leaves its start vector's sector: it may converge to a higher
    eigenvalue, and its Ritz values cannot see a degenerate partner from
    another sector, so the pair is not certified here (see
    :func:`_lowest_eigenpair`).  None when the loop does not converge within
    ``_DAVIDSON_MAX_ITER`` iterations.
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
    return float(theta), x


def check_configuration_space(n_spin_orbitals: int, n_electrons: int) -> None:
    """Raise ValueError when C(n_spin_orbitals, n_electrons) exceeds ``_MAX_DETERMINANTS``."""
    n_dets = math.comb(n_spin_orbitals, n_electrons)
    if n_dets > _MAX_DETERMINANTS:
        raise ValueError(
            f"configuration space too large: C({n_spin_orbitals}, {n_electrons}) = {n_dets} "
            f"exceeds the {_MAX_DETERMINANTS} determinant limit"
        )


def full_ci_ground_state(
    system: ModelSystem,
    orbital_cutoff: int,
    sz: float | None = None,
) -> tuple[float, NBodyWavefunction]:
    """Lowest eigenpair of the exact N-body Hamiltonian in the truncated orbital set.

    A sector of at least ``_DAVIDSON_MIN_DETERMINANTS`` determinants is split
    by spin flip and orbital parity (:func:`_symmetry_blocks`), each block
    gathered from the string products, and the pair comes from
    :func:`_lowest_eigenpair`: a Davidson loop on the block with the lowest
    diagonal element, certified by one Cholesky rule applied to every block.
    Smaller sectors, and every sector whose loop or certificate fails, take
    a full ``eigh`` of the dense sector matrix, which only this function
    forms.  The overall sign makes the largest-magnitude coefficient
    positive.  The energy is variational: it
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
    check_configuration_space(2 * basis.size, n)
    if sz is None:
        sz = 0.5 * (n % 2)
    m = basis.size
    n_a = round(0.5 * n + sz)
    n_b = n - n_a
    if abs(n_a - 0.5 * n - sz) > 1e-12 or not (0 <= n_a <= m and 0 <= n_b <= m):
        raise ValueError("no determinants satisfy the requested spin projection")
    t = one_body_integrals(basis, system)
    v = two_body_integrals(basis, system.interaction_kernel)
    string_h = _string_hamiltonian(m, n_a, n_b, t, v)
    size = string_h.shape[0] * string_h.shape[2]
    pair = None
    if size >= _DAVIDSON_MIN_DETERMINANTS:
        blocks = _symmetry_blocks(m, n_a, n_b, _orbital_parity(basis, t, v))
        pair = _lowest_eigenpair(_sector_entries(string_h), size, blocks)
    if pair is None:
        eigvals, eigvecs = np.linalg.eigh(string_h.transpose(0, 2, 1, 3).reshape(size, size))
        pair = float(eigvals[0]), eigvecs[:, 0]
    energy, coeff = pair
    # fix the overall phase for reproducibility
    pivot = int(np.argmax(np.abs(coeff)))
    if coeff[pivot] < 0:
        coeff = -coeff
    state = NBodyWavefunction(
        n_electrons=n,
        determinants=_determinants(m, n_a, n_b),
        coefficients=coeff.astype(complex),
        basis=basis,
        sz=float(sz),
    )
    return energy, state


def exact_reduced_density_matrix(state: NBodyWavefunction, order: int) -> DensityMatrix:
    """Order-n reduced matrix rho[p, q] = <Psi|a+_q1 ... a+_qn a_pn ... a_p1|Psi>.

    Rows and columns run over ordered spin-orbital tuples p = (p1, ..., pn),
    p1 slowest, each p_i numbered alpha 0 ... m - 1, then beta m ... 2m - 1.
    A determinant's row of ascending spin orbitals is a string of N electrons
    in those 2m orbitals, so its rank places its coefficient.  Row p of D
    holds D_p = a_pn ... a_p1 |Psi> over the (N - n)-electron strings, and
    rho = D D^H.  This equals the first-quantized contraction over the
    remaining N - n coordinates with the N!/(N-n)! prefactor, so the trace
    over ordered tuples reproduces that normalization.

    Every determinant has the state's alpha count, so row p of D is nonzero
    only on the strings whose alpha count is the state's less the alpha
    orbitals in p.  Rows that remove different alpha counts therefore never
    meet, and rho is formed block by block, one product per removed alpha count.
    """
    n = state.n_electrons
    if not 1 <= order <= n:
        raise ValueError(f"order must lie in [1, {n}], got {order}")
    m = 2 * state.basis.size
    check_matrix_size(m, order)
    d = np.zeros((1, math.comb(m, n)), dtype=complex)
    d[0, _string_rank(state.determinants, m)] = state.coefficients
    for remaining in range(n, n - order, -1):
        d = _annihilate(d, m, remaining)
    alpha = np.arange(m) < m // 2
    removed = np.zeros(1, dtype=int)  # alpha orbitals in each row's tuple, p1 slowest
    for _ in range(order):
        removed = (removed[:, None] + alpha).ravel()
    n_alpha = np.sum(alpha[state.determinants[0]])
    string_alpha = np.sum(alpha[_strings(m, n - order)], axis=1)
    rho = np.zeros((d.shape[0], d.shape[0]), dtype=complex)
    for count in range(order + 1):
        rows = np.flatnonzero(removed == count)
        block = d[rows][:, string_alpha == n_alpha - count]
        rho[rows[:, None], rows] = block @ block.conj().T
    return DensityMatrix(
        order=order,
        n_electrons=n,
        matrix=rho,
        dim_single=m,
        weight=1.0,
        basis=ORBITAL,
    )


def _annihilate(d: np.ndarray, m: int, k: int) -> np.ndarray:
    """Apply a_p for every p to each row of ``d``, a state over k-electron strings.

    Row j of the result is row j // m of ``d`` acted on by a_(j % m), over
    the (k - 1)-electron strings of m orbitals.  Removing the orbital at
    position i of a string passes the i orbitals before it: sign (-1)^i.
    """
    strings = _strings(m, k)
    rest = np.array([[j for j in range(k) if j != i] for i in range(k)], dtype=np.intp)
    target = _string_rank(strings[:, rest], m)  # (string, position removed)
    sign = 1.0 - 2.0 * (np.arange(k) & 1)
    out = np.zeros((d.shape[0], m, math.comb(m, k - 1)), dtype=d.dtype)
    out[:, strings, target] = d[:, :, None] * sign
    return out.reshape(d.shape[0] * m, -1)


def grid_density_matrices(state: NBodyWavefunction) -> tuple[DensityMatrix, np.ndarray]:
    """Spin-summed grid rho1 and pair density n2(x1, x2) of the oracle state.

    Spin orbital s m + i of :func:`exact_reduced_density_matrix` is spatial
    orbital i with spin s (0 alpha, 1 beta), so each spin index is split off
    by a reshape to (2, m) and summed on the diagonal.  With R[p, q, r, s]
    the spin-summed order-2 matrix and pair[x, (p, r)] = phi_p(x) phi_r(x)*,
    n2 = pair R[(p, r), (q, s)] pair^T, the pair product of
    :func:`two_body_integrals`.
    """
    phi = state.basis.functions
    g, m = phi.shape
    spins = exact_reduced_density_matrix(state, 1).matrix.reshape(2, m, 2, m)
    rho1 = DensityMatrix(
        order=1,
        n_electrons=state.n_electrons,
        matrix=phi @ (spins[0, :, 0] + spins[1, :, 1]) @ phi.conj().T,
        dim_single=g,
        weight=state.basis.spacing,
        basis=GRID,
    )
    spins = exact_reduced_density_matrix(state, 2).matrix.reshape(2, m, 2, m, 2, m, 2, m)
    r = np.einsum("apbqarbs->prqs", spins).reshape(m * m, m * m)
    pair = (phi[:, :, None] * phi.conj()[:, None, :]).reshape(g, m * m)  # [x, (p, r)]
    return rho1, np.real(pair @ r @ pair.T)


def natural_occupations(rho1: DensityMatrix) -> np.ndarray:
    """Eigenvalues of the spin-orbital one-matrix, descending; they sum to N.

    ``rho1`` is the order-1 matrix of :func:`exact_reduced_density_matrix`.
    """
    if rho1.order != 1 or rho1.basis != ORBITAL:
        raise ValueError(
            f"natural occupations need an order-1 {ORBITAL} matrix, "
            f"got order {rho1.order} in the {rho1.basis} basis"
        )
    occ = np.linalg.eigvalsh(rho1.matrix)[::-1]
    return np.real(occ)
