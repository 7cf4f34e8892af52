import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qpbench import many_body
from qpbench.many_body import (
    NBodyWavefunction,
    exact_reduced_density_matrix,
    full_ci_ground_state,
    grid_density_matrices,
    natural_occupations,
    orbital_basis,
)
from qpbench.model_system import (
    BOX,
    PERIODIC,
    ModelSystem,
    build_soft_coulomb_system,
    core_hamiltonian,
    make_grid,
    soft_coulomb_kernel,
)


def noninteracting_system(n_electrons, npoints=12, spacing=0.5, depth=2.0):
    grid = make_grid(npoints, spacing)
    u = -depth / np.sqrt(grid.points**2 + 1.0)
    return ModelSystem(
        grid, u, np.zeros((npoints, npoints)), n_electrons, BOX
    )


@pytest.fixture(scope="module")
def well2():
    return build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 2, BOX)


class TestNoninteractingLimits:
    def test_opposite_spins_fill_lowest_orbital(self):
        system = noninteracting_system(2)
        levels = np.linalg.eigvalsh(core_hamiltonian(system))
        energy, _ = full_ci_ground_state(system, orbital_cutoff=6)
        assert energy == pytest.approx(2 * levels[0], abs=1e-12)

    def test_aligned_spins_obey_exclusion(self):
        system = noninteracting_system(2)
        levels = np.linalg.eigvalsh(core_hamiltonian(system))
        energy, state = full_ci_ground_state(system, orbital_cutoff=6, sz=1.0)
        assert energy == pytest.approx(levels[0] + levels[1], abs=1e-12)
        assert state.sz == 1.0
        # spin orbitals below m = 6 are spin up: both electrons sit there
        assert np.all(state.determinants < 6)


class TestVariationalBehavior:
    def test_energy_monotone_in_cutoff(self, well2):
        energies = [
            full_ci_ground_state(well2, orbital_cutoff=c)[0] for c in (2, 4, 6, 8)
        ]
        for higher, lower in zip(energies, energies[1:]):
            assert lower <= higher + 1e-12

    def test_overflow_rejected_with_size(self):
        system = build_soft_coulomb_system((64, 0.25), 2.0, 1.0, 4, BOX)
        with pytest.raises(ValueError, match="configuration space"):
            full_ci_ground_state(system, orbital_cutoff=64)

    def test_too_many_electrons_rejected(self):
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 6, BOX)
        with pytest.raises(ValueError, match="N <= 4"):
            full_ci_ground_state(system, orbital_cutoff=4)


def permutation_sign(perm) -> int:
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def amplitude_tensor(state):
    """First-quantized amplitudes A(p1..pN), unit norm over ordered tuples.

    The reference route: every ordering of a determinant holds its
    coefficient times the permutation sign, over sqrt(N!).
    """
    n = state.n_electrons
    m = 2 * state.basis.size
    dets = np.array(state.determinants, dtype=int).reshape(len(state.determinants), n)
    tensor = np.zeros((m,) * n, dtype=complex)
    scale = 1.0 / math.sqrt(math.factorial(n))
    for perm in itertools.permutations(range(n)):
        cols = tuple(dets[:, p] for p in perm)
        tensor[cols] = permutation_sign(perm) * scale * state.coefficients
    return tensor


def reference_density_matrix(state, order):
    """N!/(N-n)! times the contraction of A with A* over the last N - n coordinates."""
    n = state.n_electrons
    amp = amplitude_tensor(state)
    contracted = tuple(range(order, n))
    rho = np.tensordot(amp, amp.conj(), axes=(contracted, contracted))
    dim = (2 * state.basis.size) ** order
    return math.factorial(n) / math.factorial(n - order) * rho.reshape(dim, dim)


class TestWavefunction:
    def test_normalized(self, well2):
        _, state = full_ci_ground_state(well2, orbital_cutoff=6)
        assert abs(np.linalg.norm(state.coefficients) - 1.0) < 1e-12

    def test_amplitudes_antisymmetric_under_transposition(self):
        for n_elec, cutoff in ((2, 6), (3, 4), (4, 3)):
            system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, n_elec, BOX)
            _, state = full_ci_ground_state(system, orbital_cutoff=cutoff)
            amp = amplitude_tensor(state)
            # each sorted determinant carries its coefficient over sqrt(N!), and
            # its N! orderings are the only other nonzero entries
            scale = math.sqrt(math.factorial(n_elec))
            for det, c in zip(state.determinants, state.coefficients):
                assert amp[tuple(det)] == pytest.approx(c / scale, rel=1e-15, abs=0)
            nonzero = np.count_nonzero(state.coefficients)
            assert nonzero > 1
            assert np.count_nonzero(amp) == math.factorial(n_elec) * nonzero
            for a, b in itertools.combinations(range(n_elec), 2):
                # swapping two electrons negates every amplitude
                assert np.array_equal(np.swapaxes(amp, a, b), -amp)
                # and a repeated spin orbital annihilates
                assert not np.any(np.diagonal(amp, axis1=a, axis2=b))

    def test_tensor_norm_is_one(self, well2):
        _, state = full_ci_ground_state(well2, orbital_cutoff=5)
        amp = amplitude_tensor(state)
        assert np.sum(np.abs(amp) ** 2) == pytest.approx(1.0, abs=1e-12)


def spin_orbital_integrals(t, v):
    """Spin-orbital t_so[p, q] and <pq|v|rs>, built apart from the CI code.

    Spin orbital p is spatial orbital p % m with spin p // m (0 up, 1 down).
    """
    m = t.shape[0]
    spatial = np.arange(2 * m) % m
    spin = np.arange(2 * m) // m
    same = spin[:, None] == spin[None, :]
    t_so = same * t[np.ix_(spatial, spatial)]
    v_so = (
        v[np.ix_(spatial, spatial, spatial, spatial)]
        * same[:, None, :, None]
        * same[None, :, None, :]
    )
    return t_so, v_so


def loop_slater_condon(d1, d2, t_so, v_so):
    """Per-pair Slater-Condon element between two sorted spin-orbital tuples."""
    s1, s2 = set(d1), set(d2)
    diff1, diff2 = sorted(s1 - s2), sorted(s2 - s1)
    if len(diff1) > 2:
        return 0.0
    if not diff1:
        val = sum(t_so[p, p] for p in d1)
        for p, q in itertools.combinations(d1, 2):
            val += v_so[p, q, p, q] - v_so[p, q, q, p]
        return val
    if len(diff1) == 1:
        p, q = diff1[0], diff2[0]
        val = t_so[p, q]
        for k in s1 & s2:
            val += v_so[p, k, q, k] - v_so[p, k, k, q]
        return (-1) ** (d1.index(p) + d2.index(q)) * val
    (p1, p2), (q1, q2) = diff1, diff2
    sign = (-1) ** (d1.index(p1) + d1.index(p2) + d2.index(q1) + d2.index(q2))
    return sign * (v_so[p1, p2, q1, q2] - v_so[p1, p2, q2, q1])


def loop_hamiltonian(dets, t, v):
    t_so, v_so = spin_orbital_integrals(t, v)
    dets = [tuple(det) for det in dets]
    return np.array([[loop_slater_condon(a, b, t_so, v_so) for b in dets] for a in dets])


def sector(t, v, n_a, n_b):
    """Rows and dense CI matrix of the sector with n_a up and n_b down electrons."""
    m = t.shape[0]
    string_h = many_body._string_hamiltonian(m, n_a, n_b, t, v)
    size = string_h.shape[0] * string_h.shape[2]
    h = string_h.transpose(0, 2, 1, 3).reshape(size, size)
    return many_body._determinants(m, n_a, n_b), h


def integrals(system, cutoff):
    """One- and two-body integrals t and v over the lowest ``cutoff`` orbitals."""
    return many_body._integrals(system, cutoff)[1:]


class TestDeterminantEnumeration:
    def test_sector_matches_full_space_filter(self):
        # the reference walks every combination and keeps those with n_a up
        # electrons (spin orbitals below the cutoff), in their order
        for cutoff in range(1, 7):
            for n_elec in range(5):
                full = list(itertools.combinations(range(2 * cutoff), n_elec))
                for n_a in range(n_elec + 1):
                    expect = [det for det in full if sum(p < cutoff for p in det) == n_a]
                    rows = many_body._determinants(cutoff, n_a, n_elec - n_a)
                    assert rows.shape == (len(expect), n_elec)
                    assert [tuple(row) for row in rows.tolist()] == expect

    @pytest.mark.parametrize(
        "n_elec,cutoff,sz", [(2, 4, 0.25), (2, 4, 1.5), (4, 3, 2.0)]
    )
    def test_unreachable_spin_projection_rejected(self, n_elec, cutoff, sz):
        # half-integer Sz for even N, |Sz| above N/2, and four up electrons in
        # three orbitals
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, n_elec, BOX)
        with pytest.raises(ValueError, match="no determinants satisfy"):
            full_ci_ground_state(system, orbital_cutoff=cutoff, sz=sz)


class TestSlaterCondonAgainstDenseHamiltonian:
    def test_matrix_elements_match_first_quantized_route(self):
        # independent oracle: apply H on the full ordered-tuple space and
        # sandwich it between explicitly antisymmetrized amplitude tensors.
        # N = 3 checks the single-excitation sign with spectator electrons;
        # N = 4 puts two electrons of each spin through the opposite-spin
        # product and the same-spin pair term of the string build.  Every
        # nonempty sector of N = 2 and N = 4 in three orbitals is covered.
        cases = [(2, 0), (2, 1), (2, 2), (3, 2), (4, 1), (4, 2), (4, 3)]
        for n_elec, n_a in cases:
            system = build_soft_coulomb_system((10, 0.5), 1.5, 1.0, n_elec, BOX)
            t, v = integrals(system, 3)
            t_so, v_so = spin_orbital_integrals(t, v)
            n_so = 6
            dets, h_ci = sector(t, v, n_a, n_elec - n_a)

            def apply_h(amp):
                out = np.zeros_like(amp)
                for a in range(n_elec):
                    out += np.moveaxis(np.tensordot(t_so, amp, axes=([1], [a])), 0, a)
                for a, b in itertools.combinations(range(n_elec), 2):
                    step = np.tensordot(v_so, amp, axes=([2, 3], [a, b]))
                    out += np.moveaxis(step, (0, 1), (a, b))
                return out

            def tensor(det):
                amp = np.zeros((n_so,) * n_elec)
                for perm in itertools.permutations(range(n_elec)):
                    sign = np.linalg.det(np.eye(n_elec)[list(perm)])
                    amp[tuple(det[k] for k in perm)] = sign
                return amp / math.sqrt(math.factorial(n_elec))

            tensors = [tensor(det) for det in dets]
            applied = [apply_h(amp) for amp in tensors]
            for i, left in enumerate(tensors):
                for j, right in enumerate(applied):
                    expect = np.sum(left * right)
                    assert h_ci[i, j] == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("n_elec", [1, 2, 3, 4])
    def test_matrix_matches_per_pair_loop_in_every_sector(self, n_elec):
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, n_elec, BOX)
        t, v = integrals(system, 4)
        for n_a in range(n_elec + 1):
            dets, h = sector(t, v, n_a, n_elec - n_a)
            assert np.max(np.abs(h - loop_hamiltonian(dets, t, v))) < 1e-13


def eigh_pair(h):
    """Reference lowest eigenpair, signed by the oracle's phase rule."""
    eigvals, eigvecs = np.linalg.eigh(h)
    vec = eigvecs[:, 0]
    return eigvals[0], vec if vec[np.argmax(np.abs(vec))] > 0 else -vec


def sector_hamiltonian(system, cutoff):
    """The default sector (ceil(N/2) up electrons): its rows and dense CI matrix."""
    n = system.n_electrons
    return sector(*integrals(system, cutoff), (n + 1) // 2, n // 2)


@pytest.fixture
def davidson_spy(monkeypatch):
    """Record what each ``_davidson`` call returns: a pair, or None on fallback."""
    returned = []
    inner = many_body._davidson

    def spy(h):
        returned.append(inner(h))
        return returned[-1]

    monkeypatch.setattr(many_body, "_davidson", spy)
    return returned


@pytest.fixture
def block_spy(monkeypatch):
    """Record the blocks each ``_symmetry_blocks`` call returns."""
    returned = []
    inner = many_body._symmetry_blocks

    def spy(*args):
        returned.append(inner(*args))
        return returned[-1]

    monkeypatch.setattr(many_body, "_symmetry_blocks", spy)
    return returned


def plain_blocks(sizes):
    """Consecutive index ranges as blocks without spin-flip partners."""
    edges = np.cumsum([0, *sizes])
    blocks = []
    for lo, hi in zip(edges, edges[1:]):
        rows = np.arange(lo, hi)
        blocks.append(many_body._Block(rows, rows, np.ones(rows.size), np.full(rows.size, 0.5)))
    return blocks


def dense_entries(h):
    """The ``entries(rows, cols)`` reader of a hand-built dense matrix."""
    return lambda rows, cols: h[np.ix_(rows, cols)]


def cut_block(h, block):
    """<u_j|H|u_k> = 2 w_j w_k (H[r_j, r_k] + phase_k H[r_j, r'_k]), cut from a dense H."""
    picked = h[block.rows]
    b = np.take(picked, block.rows, axis=1)
    b += np.take(picked, block.partners, axis=1) * block.phase
    b *= 2.0 * np.outer(block.weight, block.weight)
    return b


def block_transform(blocks, n):
    """Columns u_k = w_k (e_r + c_k e_r'), built entry by entry from the block fields."""
    columns = []
    for block in blocks:
        for r, p, c, w in zip(block.rows, block.partners, block.phase, block.weight):
            u = np.zeros(n)
            u[r] += w
            u[p] += c * w
            columns.append(u)
    return np.array(columns).T


def symmetric_with_spectrum(levels, seed):
    """Q diag(levels) Q^T for a random orthogonal Q near the identity."""
    rng = np.random.default_rng(seed)
    n = len(levels)
    q, r = np.linalg.qr(np.eye(n) + 0.05 * rng.normal(size=(n, n)))
    q *= np.sign(np.diag(r))
    h = (q * np.asarray(levels)) @ q.T
    return 0.5 * (h + h.T)


def assert_is_eigh_result(energy, state, h):
    """The oracle's pair is bitwise the phase-fixed pair of a full ``eigh``."""
    ref_energy, ref_vec = eigh_pair(h)
    assert energy == ref_energy
    assert np.array_equal(state.coefficients, ref_vec.astype(complex))


def double_well():
    """N = 2 in two deep soft wells at +-3 bohr: singlet and triplet lie 3e-7 apart."""
    grid = make_grid(24, 0.5)
    x = grid.points
    u = -2.0 / np.sqrt((x - 3.0) ** 2 + 0.25) - 2.0 / np.sqrt((x + 3.0) ** 2 + 0.25)
    return ModelSystem(grid, u, soft_coulomb_kernel(x, 1.0), 2, BOX)


def tilted_kernel_system():
    """A symmetric well whose pair kernel is not reflection symmetric."""
    grid = make_grid(16, 0.5)
    x = grid.points
    u = -2.0 / np.sqrt(x * x + 1.0)
    kernel = soft_coulomb_kernel(x, 1.0) * (1.0 + 0.05 * (x[:, None] + x[None, :]))
    return ModelSystem(grid, u, kernel, 2, BOX)


class TestLowestEigenpair:
    def test_other_symmetry_block_is_caught_by_the_certificate(self, davidson_spy):
        # The lowest diagonal element sits in sub-block a, the lowest eigenvalue
        # in sub-block b, and both lie in one block.  A diagonal preconditioner
        # never couples them, so the loop converges inside a; only the factor
        # of the lifted block can tell.
        n = many_body._DAVIDSON_MIN_DETERMINANTS
        rng = np.random.default_rng(3)

        def block(low):
            c = 0.01 * rng.normal(size=(n, n))
            return np.diag(np.linspace(low, low + 5.0, n)) + 0.5 * (c + c.T)

        a, b = block(0.0), block(0.5) - 0.02
        h = np.zeros((2 * n, 2 * n))
        h[:n, :n], h[n:, n:] = a, b
        assert np.argmin(np.diag(h)) < n
        assert np.linalg.eigvalsh(b)[0] < np.linalg.eigvalsh(a)[0] - 0.3
        pair = many_body._lowest_eigenpair(dense_entries(h), 2 * n, plain_blocks([2 * n]))
        assert pair is None
        assert davidson_spy[0][0] == pytest.approx(np.linalg.eigvalsh(a)[0], abs=1e-10)

    @pytest.mark.parametrize("lowest", [1, 2, 3])
    def test_every_other_block_is_factored(self, lowest, davidson_spy):
        # Block 0 holds the lowest diagonal element, so the loop runs there and
        # converges to its own lowest level; the lower level of block ``lowest``
        # is caught only by that block's Cholesky factor.
        size = 64
        rng = np.random.default_rng(7)
        blocks = []
        for k in range(4):
            c = 0.01 * rng.normal(size=(size, size))
            low = 0.5 + 0.1 * k if k else 0.0
            blocks.append(np.diag(np.linspace(low, low + 5.0, size)) + 0.5 * (c + c.T))
        blocks[lowest][0, 1] = blocks[lowest][1, 0] = -1.0  # a level near low - 1
        h = np.zeros((4 * size, 4 * size))
        for k, b in enumerate(blocks):
            h[k * size:(k + 1) * size, k * size:(k + 1) * size] = b
        assert np.argmin(np.diag(h)) < size
        pair = many_body._lowest_eigenpair(dense_entries(h), 4 * size, plain_blocks([size] * 4))
        assert pair is None
        assert davidson_spy[0][0] == pytest.approx(np.linalg.eigvalsh(blocks[0])[0], abs=1e-10)
        assert np.linalg.eigvalsh(blocks[lowest])[0] < davidson_spy[0][0] - 0.1

    @pytest.mark.parametrize("gap", [0.0, 1e-4])
    def test_degenerate_lowest_pair_falls_back_to_eigh(self, gap, davidson_spy):
        # the loop converges, and the factor of its lifted block rejects a
        # second level within the gap; on None full_ci_ground_state takes the
        # full eigh (test_iteration_cap_falls_back_to_eigh)
        n = many_body._DAVIDSON_MIN_DETERMINANTS + 72
        levels = np.concatenate([[-1.0, -1.0 + gap], np.linspace(0.0, 5.0, n - 2)])
        h = symmetric_with_spectrum(levels, seed=5)
        assert many_body._lowest_eigenpair(dense_entries(h), n, plain_blocks([n])) is None
        assert davidson_spy[0][0] == pytest.approx(-1.0, abs=1e-10)

    def test_separated_lowest_pair_is_accepted(self, davidson_spy):
        n = many_body._DAVIDSON_MIN_DETERMINANTS + 72
        levels = np.concatenate([[-1.0, -0.99], np.linspace(0.0, 5.0, n - 2)])
        h = symmetric_with_spectrum(levels, seed=5)
        energy, vec = many_body._lowest_eigenpair(dense_entries(h), n, plain_blocks([n]))
        assert davidson_spy[0] is not None
        ref_energy, ref_vec = eigh_pair(h)
        assert energy == pytest.approx(ref_energy, abs=1e-12)
        assert abs(vec @ ref_vec) == pytest.approx(1.0, abs=1e-12)

    def test_iteration_cap_falls_back_to_eigh(self, monkeypatch, davidson_spy):
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 2, BOX)
        _, h = sector_hamiltonian(system, 12)  # 144 determinants
        monkeypatch.setattr(many_body, "_DAVIDSON_MAX_ITER", 1)
        energy, state = full_ci_ground_state(system, orbital_cutoff=12)
        assert davidson_spy == [None]
        assert_is_eigh_result(energy, state, h)

    def test_near_degenerate_levels_in_two_blocks_fall_back_to_eigh(
        self, davidson_spy, block_spy
    ):
        # The triplet's block holds the lowest diagonal element; the loop
        # certifies the triplet there, and the singlet block, 3e-7 lower,
        # fails its Cholesky factor.
        system = double_well()
        dets, h = sector_hamiltonian(system, 12)
        assert len(dets) == 144
        energy, state = full_ci_ground_state(system, orbital_cutoff=12)
        assert len(block_spy[0]) == 4
        assert davidson_spy[0] is not None
        levels = sorted(np.linalg.eigvalsh(cut_block(h, b))[0] for b in block_spy[0])
        assert levels[1] - levels[0] < many_body._DAVIDSON_MIN_GAP
        assert abs(davidson_spy[0][0] - levels[0]) > 1e-8
        assert_is_eigh_result(energy, state, h)

    def test_odd_electron_sector_matches_eigh(self, davidson_spy, block_spy):
        system = build_soft_coulomb_system((16, 0.5), 2.0, 1.0, 3, BOX)
        dets, h = sector_hamiltonian(system, 8)
        assert len(dets) == 224
        energy, state = full_ci_ground_state(system, orbital_cutoff=8)
        (blocks,) = block_spy
        assert len(blocks) == 2  # parity alone: Sz = 1/2 has no spin flip
        assert all(np.array_equal(b.rows, b.partners) for b in blocks)
        assert sum(b.rows.size for b in blocks) == 224
        assert davidson_spy[0] is not None
        assert state.sz == 0.5
        ref_energy, ref_vec = eigh_pair(h)
        assert energy == pytest.approx(ref_energy, abs=1e-12)
        assert np.max(np.abs(state.coefficients - ref_vec)) < 1e-10

    def test_small_sectors_never_enter_the_loop(self, monkeypatch, davidson_spy, block_spy):
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 2, BOX)
        default = many_body._DAVIDSON_MIN_DETERMINANTS
        for threshold in (145, 144):  # the sector holds 144 determinants
            monkeypatch.setattr(many_body, "_DAVIDSON_MIN_DETERMINANTS", threshold)
            full_ci_ground_state(system, orbital_cutoff=12)
        assert len(davidson_spy) == len(block_spy) == 1
        # the largest benchmark sweep sectors hold 100 determinants
        monkeypatch.setattr(many_body, "_DAVIDSON_MIN_DETERMINANTS", default)
        for n_elec, orbitals in ((2, 10), (4, 5)):
            system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, n_elec, BOX)
            _, state = full_ci_ground_state(system, orbital_cutoff=orbitals)
            assert len(state.determinants) == 100
        assert len(davidson_spy) == 1


class TestSymmetryBlocks:
    @pytest.mark.parametrize(
        "system",
        [build_soft_coulomb_system((16, 0.5), 2.0, 1.0, 2, PERIODIC), tilted_kernel_system()],
        ids=["periodic", "tilted-kernel"],
    )
    def test_no_parity_takes_spin_flip_alone(self, system, davidson_spy, block_spy):
        dets, h = sector_hamiltonian(system, 12)
        basis = orbital_basis(system, 12)
        assert many_body._orbital_parity(basis, *integrals(system, 12)) is None
        energy, state = full_ci_ground_state(system, orbital_cutoff=12)
        (blocks,) = block_spy
        assert len(blocks) == 2
        assert davidson_spy[0] is not None
        ref_energy, ref_vec = eigh_pair(h)
        assert energy == pytest.approx(ref_energy, abs=1e-12)
        assert np.max(np.abs(state.coefficients - ref_vec)) < 1e-10

    def test_tilted_kernel_fails_only_the_integral_check(self):
        system = tilted_kernel_system()
        unit = orbital_basis(system, 12).functions * math.sqrt(system.grid.spacing)
        parity = np.resize([1, -1], 12)
        assert np.max(np.abs(unit[::-1] - parity * unit)) < 1e-10
        t, v = integrals(system, 12)
        odd = np.multiply.outer(parity, parity) < 0
        assert np.max(np.abs(t[odd])) < 1e-12 * np.max(np.abs(t))
        odd_total = np.einsum("i,j,k,l->ijkl", parity, parity, parity, parity) < 0
        assert np.max(np.abs(v[odd_total])) > 1e-3 * np.max(np.abs(v))

@pytest.fixture(
    scope="module",
    params=[(0.5, 2.0, 1.0), (0.45, 2.2, 0.9), (0.55, 1.8, 1.1)],
    ids=["default", "deep", "shallow"],
)
def oracle_shape(request):
    """The benchmark oracle shape: 16 points, N = 4, cutoff 8 (784 determinants)."""
    spacing, depth, softening = request.param
    system = build_soft_coulomb_system((16, spacing), depth, softening, 4, BOX)
    return system, *sector_hamiltonian(system, 8)


class TestOracleShapeRegression:
    def test_matches_eigh_reference(self, oracle_shape, davidson_spy):
        system, dets, h = oracle_shape
        assert len(dets) == 784
        energy, state = full_ci_ground_state(system, orbital_cutoff=8)
        assert davidson_spy[0] is not None
        ref_energy, ref_vec = eigh_pair(h)
        reference = NBodyWavefunction(
            n_electrons=4,
            determinants=dets,
            coefficients=ref_vec.astype(complex),
            basis=state.basis,
            sz=0.0,
        )
        assert energy == pytest.approx(ref_energy, abs=1e-12)
        assert np.max(np.abs(state.coefficients - reference.coefficients)) < 1e-10
        occupations = [
            natural_occupations(exact_reduced_density_matrix(s, 1)) for s in (state, reference)
        ]
        assert np.max(np.abs(occupations[0] - occupations[1])) < 1e-12
        for order in (1, 2):
            trace = exact_reduced_density_matrix(state, order).trace()
            ref_trace = exact_reduced_density_matrix(reference, order).trace()
            assert trace == pytest.approx(ref_trace, abs=1e-12)

    def test_blocks_reassemble_the_hamiltonian(self, oracle_shape):
        system, dets, h = oracle_shape
        basis = orbital_basis(system, 8)
        parity = many_body._orbital_parity(basis, *integrals(system, 8))
        assert parity is not None
        blocks = many_body._symmetry_blocks(8, 2, 2, parity)
        assert sorted(b.rows.size for b in blocks) == [186, 192, 192, 214]
        u = block_transform(blocks, len(dets))
        assert np.max(np.abs(u.T @ u - np.eye(len(dets)))) < 1e-15
        blocked = u.T @ h @ u
        edges = np.cumsum([0] + [b.rows.size for b in blocks])
        kept = np.zeros_like(blocked, dtype=bool)
        for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
            kept[lo:hi, lo:hi] = True
            block = cut_block(h, blocks[k])
            assert np.max(np.abs(block - blocked[lo:hi, lo:hi])) < 1e-13
        assert np.max(np.abs(blocked[~kept])) <= 1e-13
        spectra = np.sort(
            np.concatenate([np.linalg.eigvalsh(cut_block(h, b)) for b in blocks])
        )
        assert np.max(np.abs(spectra - np.linalg.eigvalsh(h))) < 1e-12

    def test_gathered_blocks_equal_blocks_cut_from_the_dense_matrix(self, oracle_shape):
        system, dets, h = oracle_shape
        sector = many_body._sector(*many_body._integrals(system, 8), 2, 2)
        assert len(sector.blocks) == 4
        assert any(not np.array_equal(b.rows, b.partners) for b in sector.blocks)
        for block in sector.blocks:
            assert np.array_equal(many_body._block_matrix(sector.entries, block), cut_block(h, block))
        assert np.array_equal(sector.dense(), h)

    def test_ground_state_peak_memory_stays_under_8_mb(self, oracle_shape):
        # the string products are one 784 x 784 matrix (4.9 MB); the blocks
        # are gathered from them, and the sector matrix in determinant order
        # is never formed unless a certificate fails
        system, dets, h = oracle_shape
        full_ci_ground_state(system, orbital_cutoff=8)  # first-call allocations
        tracemalloc.start()
        try:
            full_ci_ground_state(system, orbital_cutoff=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_build_memory_stays_within_a_few_matrices(self):
        # tracemalloc sees numpy's buffers; the build peaks near 2.0 matrices
        # here, the result included (string products and their transposed copy)
        system = build_soft_coulomb_system((16, 0.5), 2.0, 1.0, 4, BOX)
        t, v = integrals(system, 8)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _, h = sector(t, v, 2, 2)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert h.shape == (784, 784)
        assert peak < 4.0 * h.nbytes


class TestSpinSector:
    @pytest.mark.parametrize("n_elec", [1, 2, 3, 4])
    def test_default_sector_holds_the_full_space_ground_state(self, n_elec):
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, n_elec, BOX)
        t, v = integrals(system, 4)
        full = loop_hamiltonian(tuple(itertools.combinations(range(8), n_elec)), t, v)
        energy, state = full_ci_ground_state(system, orbital_cutoff=4)
        assert energy == pytest.approx(np.linalg.eigvalsh(full)[0], abs=1e-12)
        assert state.sz == 0.5 * (n_elec % 2)
        assert len(state.determinants) < full.shape[0]


class TestReducedDensityMatrices:
    @pytest.mark.parametrize(
        "n_elec,cutoff,sz",
        [
            (1, 6, None),
            (2, 5, None),
            (2, 5, 1.0),
            (3, 4, None),
            (3, 4, 1.5),
            (4, 3, None),
            (4, 3, 1.0),
        ],
    )
    def test_every_order_matches_the_first_quantized_route(self, n_elec, cutoff, sz):
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, n_elec, BOX)
        _, state = full_ci_ground_state(system, orbital_cutoff=cutoff, sz=sz)
        for order in range(1, n_elec + 1):
            rho = exact_reduced_density_matrix(state, order).matrix
            assert np.max(np.abs(rho - reference_density_matrix(state, order))) < 1e-13

    @pytest.mark.parametrize(
        "n_elec,cutoff,sz,complex_phase",
        [(3, 4, None, False), (3, 4, 1.5, False), (4, 8, None, False), (4, 3, None, True)],
    )
    def test_spin_blocks_match_the_dense_product(self, n_elec, cutoff, sz, complex_phase):
        # rho is assembled from one product per removed alpha count; the dense
        # D D^H over every string pair is the reference, complex amplitudes included
        system = build_soft_coulomb_system((16, 0.5), 2.0, 1.0, n_elec, BOX)
        _, state = full_ci_ground_state(system, orbital_cutoff=cutoff, sz=sz)
        if complex_phase:
            rng = np.random.default_rng(7)
            phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, state.coefficients.size))
            state = dataclasses.replace(state, coefficients=state.coefficients * phases)
            assert np.max(np.abs(state.coefficients.imag)) > 0.1
        m = 2 * state.basis.size
        d = np.zeros((1, math.comb(m, n_elec)), dtype=complex)
        d[0, many_body._string_rank(state.determinants, m)] = state.coefficients
        for order in (1, 2):
            d = many_body._annihilate(d, m, n_elec - order + 1)
            rho = exact_reduced_density_matrix(state, order).matrix
            assert np.max(np.abs(rho - d @ d.conj().T)) < 1e-14

    def test_one_matrix_never_forms_the_amplitude_tensor(self):
        # the first-quantized route holds all m^N = 16^4 amplitudes (1.05 MB)
        system = build_soft_coulomb_system((16, 0.5), 2.0, 1.0, 4, BOX)
        _, state = full_ci_ground_state(system, orbital_cutoff=8)
        tracemalloc.start()
        try:
            exact_reduced_density_matrix(state, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16**4 * 16

    @pytest.mark.parametrize(
        "n_elec,order,target",
        [(2, 1, 2.0), (3, 2, 6.0), (1, 1, 1.0), (3, 1, 3.0), (2, 2, 2.0)],
    )
    def test_trace_normalization(self, n_elec, order, target):
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, n_elec, BOX)
        _, state = full_ci_ground_state(system, orbital_cutoff=3)
        rho = exact_reduced_density_matrix(state, order)
        assert rho.trace() == pytest.approx(target, rel=1e-10)

    def test_single_particle_is_projector(self):
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 1, BOX)
        _, state = full_ci_ground_state(system, orbital_cutoff=4)
        rho = exact_reduced_density_matrix(state, 1)
        m = rho.matrix
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(m @ m - m)) < 1e-12

    def test_hermiticity_and_positivity(self, well2):
        _, state = full_ci_ground_state(well2, orbital_cutoff=6)
        rho1 = exact_reduced_density_matrix(state, 1)
        m = rho1.matrix
        assert rho1.hermiticity_error() < 1e-12
        assert np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] >= -1e-10

    def test_contraction_consistency(self):
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 3, BOX)
        _, state = full_ci_ground_state(system, orbital_cutoff=3)
        rho1 = exact_reduced_density_matrix(state, 1)
        rho2 = exact_reduced_density_matrix(state, 2)
        # integrate out the last coordinate pair: (N - 1) rho1
        d = rho2.dim_single
        contracted = np.einsum("aibi->ab", rho2.matrix.reshape(d, d, d, d)) * rho2.weight
        expect = (state.n_electrons - 1) * rho1.matrix
        assert np.max(np.abs(contracted - expect)) < 1e-10

    def test_out_of_range_order_rejected(self, well2):
        _, state = full_ci_ground_state(well2, orbital_cutoff=4)
        with pytest.raises(ValueError, match="order"):
            exact_reduced_density_matrix(state, 3)

    def test_natural_occupations_sum_to_n(self, well2):
        _, state = full_ci_ground_state(well2, orbital_cutoff=6)
        occ = natural_occupations(exact_reduced_density_matrix(state, 1))
        assert np.sum(occ) == pytest.approx(2.0, abs=1e-10)
        assert occ[0] > occ[-1]

    def test_natural_occupations_need_the_spin_orbital_one_matrix(self, well2):
        _, state = full_ci_ground_state(well2, orbital_cutoff=4)
        for rho in (exact_reduced_density_matrix(state, 2), grid_density_matrices(state)[0]):
            with pytest.raises(ValueError, match="order-1 orbital matrix"):
                natural_occupations(rho)
