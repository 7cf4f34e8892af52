import numpy as np
import pytest

from qpbench.density_matrix import (
    DensityMatrix,
    band_projector,
    determinant_density_matrices,
    energy_from_density_matrices,
    trace_energy_identity,
)
from qpbench.hartree_fock import hf_total_energy, scf_solve
from qpbench.many_body import (
    exact_reduced_density_matrix,
    full_ci_ground_state,
    grid_density_matrices,
)
from qpbench.model_system import (
    BOX,
    PERIODIC,
    ModelSystem,
    build_soft_coulomb_system,
    core_hamiltonian,
    make_grid,
)


@pytest.fixture(scope="module")
def well2():
    return build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 2, BOX)


@pytest.fixture(scope="module")
def hf2(well2):
    return scf_solve(well2)


def outer(proj):
    return np.outer(proj.vector, proj.vector.conj())


class TestPureStateProjector:
    """The band projector |v><v| of one state, and its trace against an operator."""

    def test_basis_vector(self):
        proj = band_projector(np.array([1.0, 0.0, 0.0]))
        expect = np.zeros((3, 3))
        expect[0, 0] = 1.0
        assert np.array_equal(outer(proj), expect)
        op = np.arange(9.0).reshape(3, 3)
        assert proj.trace_with(op) == op[0, 0]

    def test_equal_superposition(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        proj = band_projector(v)
        assert np.max(np.abs(outer(proj) - 0.5)) < 1e-15
        # <v|op|v> averages every element
        op = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert proj.trace_with(op) == pytest.approx(5.0, abs=1e-15)

    def test_random_vector_idempotent(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=7) + 1j * rng.normal(size=7)
        v /= np.linalg.norm(v)
        proj = band_projector(v)
        m = outer(proj)
        product = m @ m  # direct multiply oracle
        assert np.max(np.abs(product - m)) < 1e-12
        # tr(P op) by the dense trace, for the identity and a complex operator
        assert proj.trace_with(np.eye(7)) == pytest.approx(1.0, abs=1e-12)
        op = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        assert proj.trace_with(op) == pytest.approx(np.trace(m @ op), abs=1e-12)
        with pytest.raises(ValueError, match="dimension"):
            proj.trace_with(np.eye(6))


class TestBandProjectors:
    def test_diagonal_projector_idempotent(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        v /= np.linalg.norm(v)
        proj = band_projector(v)
        assert np.array_equal(proj.vector, v)
        m = outer(proj)
        assert np.max(np.abs(m @ m - m)) < 1e-10


class TestEnergyFunctional:
    def test_noninteracting_pair(self):
        grid = make_grid(12, 0.5)
        u = -2.0 / np.sqrt(grid.points**2 + 1.0)
        system = ModelSystem(grid, u, np.zeros((12, 12)), 2, BOX)
        h = core_hamiltonian(system)
        levels, vectors = np.linalg.eigh(h)
        occ = vectors[:, :1] / np.sqrt(grid.spacing)
        rho1, n2 = determinant_density_matrices(occ, 2, grid.spacing)
        energy = energy_from_density_matrices(rho1, n2, h, system.interaction_kernel)
        assert energy == pytest.approx(2 * levels[0], abs=1e-12)

    def test_matches_exact_eigenvalue(self, well2):
        e_ci, state = full_ci_ground_state(well2, orbital_cutoff=12)
        rho1, n2 = grid_density_matrices(state)
        e_func = energy_from_density_matrices(
            rho1, n2, core_hamiltonian(well2), well2.interaction_kernel
        )
        assert e_func == pytest.approx(e_ci, abs=1e-10)

    def test_matches_slater_rule_expectation(self, well2, hf2):
        # independent oracle: one-body sum + direct double-sum Coulomb integral
        w = well2.grid.spacing
        h = core_hamiltonian(well2)
        v = well2.interaction_kernel
        phi = hf2.orbitals[:, 0].real
        t00 = w * phi @ h @ phi
        dens = phi * phi
        j00 = w * w * dens @ v @ dens
        expect = 2.0 * t00 + j00

        rho1, n2 = determinant_density_matrices(hf2.orbitals[:, :1], 2, w)
        energy = energy_from_density_matrices(rho1, n2, h, v)
        assert energy == pytest.approx(expect, abs=1e-10)

    def test_linear_in_interaction(self, well2, hf2):
        w = well2.grid.spacing
        h = core_hamiltonian(well2)
        v = well2.interaction_kernel
        rho1, n2 = determinant_density_matrices(hf2.orbitals[:, :1], 2, w)
        e_one = energy_from_density_matrices(rho1, None, h, v)
        base = energy_from_density_matrices(rho1, n2, h, v) - e_one
        for c in (0.25, 3.0):
            scaled = energy_from_density_matrices(rho1, n2, h, c * v) - e_one
            assert scaled == pytest.approx(c * base, abs=1e-12)

    def test_complex_hermitian_one_body_is_expectation(self):
        # Sp(h rho1) = <psi|h|psi>; a transposed trace gives <psi*|h|psi*> instead
        rng = np.random.default_rng(21)
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = h + h.conj().T
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
        rho1 = DensityMatrix(order=1, n_electrons=1, matrix=np.outer(psi, psi.conj()), dim_single=6)
        expect = float(np.real(psi.conj() @ h @ psi))
        assert abs(expect - float(np.real(psi @ h @ psi.conj()))) > 1e-3
        zero = np.zeros((6, 6))
        assert energy_from_density_matrices(rho1, None, h, zero) == pytest.approx(
            expect, abs=1e-12
        )

    def test_dimension_mismatch_rejected(self, well2, hf2):
        rho1, n2 = determinant_density_matrices(
            hf2.orbitals[:, :1], 2, well2.grid.spacing
        )
        h = core_hamiltonian(well2)
        v = well2.interaction_kernel
        with pytest.raises(ValueError, match="dimension"):
            energy_from_density_matrices(rho1, n2, np.eye(5), v)
        # a (g - 1, g - 1) pair density or kernel would not broadcast against the other
        with pytest.raises(ValueError, match="two-body kernel dimension"):
            energy_from_density_matrices(rho1, n2[:-1, :-1], h, v)
        with pytest.raises(ValueError, match="two-body kernel dimension"):
            energy_from_density_matrices(rho1, n2, h, v[:-1, :-1])


class TestDeterminantSplit:
    """The functional on a determinant: its one-body term Sp(h rho1) and pair term."""

    def test_zero_interaction_gives_zero_excitation(self, well2, hf2):
        w = well2.grid.spacing
        h = core_hamiltonian(well2)
        zero = np.zeros_like(well2.interaction_kernel)
        rho1, n2 = determinant_density_matrices(hf2.orbitals[:, :1], 2, w)
        one_body = energy_from_density_matrices(rho1, None, h, zero)
        assert energy_from_density_matrices(rho1, n2, h, zero) == one_body

    def test_single_electron_has_no_pairs(self):
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 1, BOX)
        res = scf_solve(system)
        rho1, n2 = determinant_density_matrices(
            res.orbitals[:, :1], 1, system.grid.spacing
        )
        assert n2 is None
        energy = energy_from_density_matrices(
            rho1, n2, core_hamiltonian(system), system.interaction_kernel
        )
        # a lone electron's energy is its orbital eigenvalue
        assert energy == pytest.approx(res.eigenvalues[0], abs=1e-12)

    def test_split_reproduces_total(self, well2, hf2):
        # one-body plus pair term against the orbital route E = Tr(h P) + E_H - E_x
        w = well2.grid.spacing
        occupied = hf2.orbitals[:, :1]
        rho1, n2 = determinant_density_matrices(occupied, 2, w)
        total = energy_from_density_matrices(
            rho1, n2, core_hamiltonian(well2), well2.interaction_kernel
        )
        assert total == pytest.approx(hf_total_energy(well2, occupied), abs=1e-12)

    def test_matches_determinant_one_matrix(self, well2, hf2):
        w = well2.grid.spacing
        rho1, _ = determinant_density_matrices(hf2.orbitals[:, :1], 2, w)
        phi = hf2.orbitals[:, :1]
        kernel = phi @ phi.conj().T
        # the spin-summed one-matrix is twice the per-spin construction
        assert np.max(np.abs(rho1.matrix - 2.0 * kernel)) < 1e-10


def bloch_determinant(n_electrons):
    """SCF determinant at the k != 0 momentum kgrid[-2] of the 12-point, 8-k crystal."""
    system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, n_electrons, PERIODIC, kpoints=8)
    k = float(system.kgrid[-2])
    res = scf_solve(system, k=k)
    occupied = res.orbitals[:, : res.n_occupied]
    assert k != 0.0 and np.max(np.abs(occupied.imag)) > 1e-2
    return system, k, res, occupied


class TestBlochDeterminant:
    """Pair density and energy of a determinant of complex Bloch orbitals."""

    def test_pair_density_sum_rule(self):
        # integrating out x2 leaves (N - 1) n(x1); Re(P^2) in place of |P|^2 breaks it
        for n_electrons in (2, 4):
            system, _, _, occupied = bloch_determinant(n_electrons)
            w = system.grid.spacing
            rho1, n2 = determinant_density_matrices(occupied, n_electrons, w)
            density = np.real(np.diagonal(rho1.matrix))
            assert np.max(np.abs(n2.sum(axis=1) * w - (n_electrons - 1) * density)) < 1e-12

    def test_energy_matches_orbital_route(self):
        system, k, res, occupied = bloch_determinant(2)
        rho1, n2 = determinant_density_matrices(occupied, 2, system.grid.spacing)
        energy = energy_from_density_matrices(
            rho1, n2, core_hamiltonian(system, k), system.interaction_kernel
        )
        assert energy == pytest.approx(hf_total_energy(system, occupied, k), abs=1e-12)
        assert energy == pytest.approx(res.energy, abs=1e-12)


class TestGridReducedMatrices:
    """Grid rho1 and pair density of the oracle state, against their sum rules."""

    def test_grid_traces(self, well2):
        _, state = full_ci_ground_state(well2, orbital_cutoff=8)
        rho1, _ = grid_density_matrices(state)
        assert rho1.trace() == pytest.approx(2.0, rel=1e-10)
        assert rho1.hermiticity_error() < 1e-12

    def test_pair_density_sum_rules(self, well2):
        three = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 3, BOX)
        for system, cutoff in ((well2, 8), (three, 5)):
            _, state = full_ci_ground_state(system, orbital_cutoff=cutoff)
            rho1, n2 = grid_density_matrices(state)
            n = state.n_electrons
            w = rho1.weight
            density = np.real(np.diagonal(rho1.matrix))
            assert np.sum(n2) * w**2 == pytest.approx(n * (n - 1), rel=1e-10)
            # integrate out x2 with its quadrature weight
            assert np.max(np.abs(n2.sum(axis=1) * w - (n - 1) * density)) < 1e-10
            assert np.max(np.abs(n2 - n2.T)) < 1e-12
            assert np.min(n2) > -1e-12


class TestTraceIdentity:
    def test_single_orbital_no_interaction(self):
        grid = make_grid(12, 0.5)
        u = -2.0 / np.sqrt(grid.points**2 + 1.0)
        system = ModelSystem(grid, u, np.zeros((12, 12)), 1, BOX)
        res = scf_solve(system)
        vec = res.orbitals[:, 0] * np.sqrt(grid.spacing)
        residual = trace_energy_identity(
            [band_projector(vec)],
            [res.fock.h_core],
            [res.fock.hartree - res.fock.exchange],
            np.array([res.eigenvalues[0]]),
            res.eigenvalues[0],
            1,
        )
        # reduces to the eigenvalue equation; residual is pure rounding
        assert residual <= 1e-13

    def test_one_electron_system(self):
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 1, BOX)
        res = scf_solve(system)
        vec = res.orbitals[:, 0] * np.sqrt(system.grid.spacing)
        residual = trace_energy_identity(
            [band_projector(vec)],
            [res.fock.h_core],
            [res.fock.hartree - res.fock.exchange],
            np.array([res.eigenvalues[0]]),
            res.eigenvalues[0],
            1,
        )
        assert residual <= 1e-10

    def test_misaligned_sequences_rejected(self):
        with pytest.raises(ValueError, match="align"):
            trace_energy_identity([], [np.eye(2)], [np.eye(2)], np.zeros(1), 0.0, 1)


class TestDensityMatrixContainer:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            DensityMatrix(order=2, n_electrons=2, matrix=np.eye(3), dim_single=2)

    def test_order_above_electron_count_rejected(self):
        # the normalization target N!/(N-n)! needs n <= N
        with pytest.raises(ValueError, match="exceeds the electron count"):
            DensityMatrix(order=2, n_electrons=1, matrix=np.eye(4), dim_single=2)
