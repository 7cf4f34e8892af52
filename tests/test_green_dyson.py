import numpy as np
import pytest

from qpbench.green_dyson import (
    SelfEnergyModel,
    default_frequency_grid,
    dressed_eigenproblem,
    dyson_residual,
    dyson_solve,
    free_green,
    peak_alignment_error,
    spectral_peaks,
)


def random_hermitian(dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (m + m.conj().T)


class TestFreeGreen:
    def test_single_level_off_resonance(self):
        eta = 1e-9
        g = free_green(np.array([[0.0]]), np.array([1.0]), eta=eta)
        # 1/(omega - e) in the vanishing-broadening limit
        assert g.matrices[0, 0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_single_level_on_pole(self):
        eta = 1e-3
        g = free_green(np.array([[0.7]]), np.array([0.7]), eta=eta)
        assert g.matrices[0, 0, 0] == pytest.approx(-1j / eta, rel=1e-12)

    def test_multiply_back_residual(self):
        h = random_hermitian(4, seed=1)
        omegas = np.linspace(-3, 3, 50)
        g = free_green(h, omegas, eta=1e-3)
        eye = np.eye(4)
        worst = 0.0
        for i, w in enumerate(omegas):
            lhs = ((w + 1j * 1e-3) * eye - h) @ g.matrices[i]
            worst = max(worst, np.max(np.abs(lhs - eye)))
        assert worst < 1e-10

    def test_diagonal_input_gives_diagonal_resolvent(self):
        levels = np.array([-1.0, 0.2, 1.5])
        omegas = np.linspace(-2, 2, 21)
        g = free_green(np.diag(levels), omegas, eta=1e-3)
        for i, w in enumerate(omegas):
            expect = np.diag(1.0 / (w + 1j * 1e-3 - levels))
            assert np.max(np.abs(g.matrices[i] - expect)) < 1e-12

    def test_diagonal_in_eigenbasis(self):
        h = random_hermitian(5, seed=4)
        _, vecs = np.linalg.eigh(h)
        omegas = np.linspace(-2, 2, 11)
        g = free_green(h, omegas, eta=1e-3)
        for i in range(omegas.size):
            rotated = vecs.conj().T @ g.matrices[i] @ vecs
            off = rotated - np.diag(np.diag(rotated))
            assert np.max(np.abs(off)) < 1e-12

    def test_causality_proxy(self):
        h = random_hermitian(4, seed=6)
        g = free_green(h, np.linspace(-4, 4, 101), eta=1e-3)
        diag_imag = np.imag(np.diagonal(g.matrices, axis1=1, axis2=2))
        assert np.all(diag_imag < 0)

    def test_broadening_keeps_matrices_finite_on_resonance(self):
        levels = np.array([-1.0, 0.0, 1.0])
        g = free_green(np.diag(levels), levels.copy(), eta=1e-3)
        assert np.all(np.isfinite(g.matrices))

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            free_green(bad, np.array([0.0]), eta=1e-3)

    def test_nonpositive_broadening_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            free_green(np.eye(2), np.array([0.0]), eta=0.0)


class TestDysonSolve:
    def test_zero_kernel_returns_free_propagator_bitwise(self):
        h = random_hermitian(4, seed=7)
        g0 = free_green(h, np.linspace(-3, 3, 64), eta=1e-3)
        g = dyson_solve(g0, SelfEnergyModel.zero(4))
        assert np.array_equal(g.matrices, g0.matrices)
        assert g.kind == "dressed"

    def test_single_level_closed_form(self):
        e, s, eta = 0.3, 0.45, 1e-3
        omegas = np.linspace(-2, 2, 101)
        g0 = free_green(np.array([[e]]), omegas, eta=eta)
        g = dyson_solve(g0, SelfEnergyModel.constant(np.array([[s]])))
        expect = 1.0 / (omegas + 1j * eta - e - s)
        assert np.max(np.abs(g.matrices[:, 0, 0] - expect)) < 1e-12

    def test_residual_contract(self):
        h = random_hermitian(4, seed=8)
        g0 = free_green(h, np.linspace(-4, 4, 200), eta=1e-3)
        sigma = SelfEnergyModel.constant(random_hermitian(4, seed=9, scale=0.1))
        g = dyson_solve(g0, sigma)
        assert not g.flagged
        assert dyson_residual(g, g0, sigma) <= 1e-10

    def test_poles_shift_to_dressed_eigenvalues(self):
        h = np.diag(np.array([-1.5, -0.5, 0.5, 1.5]))
        sigma_kernel = random_hermitian(4, seed=10, scale=0.08)
        omegas = default_frequency_grid(np.linalg.eigvalsh(h), count=3000, pad=1.0)
        g0 = free_green(h, omegas, eta=1e-3)
        g = dyson_solve(g0, SelfEnergyModel.constant(sigma_kernel))
        levels = np.linalg.eigvalsh(h + sigma_kernel)  # independent eigensolve
        step = omegas[1] - omegas[0]
        assert peak_alignment_error(g, levels) <= step

    def test_singular_frequency_flagged_not_dropped(self):
        # rigged table makes (I - G0 Sigma) exactly singular at omega = 0
        eta = 1e-3
        omegas = np.array([-0.5, 0.0, 0.5])
        g0 = free_green(np.array([[0.0]]), omegas, eta=eta)
        kernels = np.array([[[w + 1j * eta]] for w in omegas])
        sigma = SelfEnergyModel.tabulated_frequency(kernels)
        g = dyson_solve(g0, sigma)
        assert 1 in g.flagged
        assert g.matrices.shape == g0.matrices.shape  # flagged, not dropped

    def test_defect_above_tolerance_flagged_and_excluded(self):
        h = random_hermitian(3, seed=12)
        g0 = free_green(h, np.linspace(-4, 4, 40), eta=0.5)
        sigma = SelfEnergyModel.constant(random_hermitian(3, seed=13, scale=0.05))
        # a negative tolerance fails every frequency's defect test
        g = dyson_solve(g0, sigma, residual_tol=-1.0)
        assert g.flagged == tuple(range(40))
        assert np.all(np.isfinite(g.matrices))  # solved and kept, only flagged
        assert dyson_residual(g, g0, sigma) == 0.0
        assert dyson_solve(g0, sigma).flagged == ()

    def test_frequency_table_length_enforced(self):
        g0 = free_green(np.eye(2), np.linspace(-1, 1, 10), eta=1e-3)
        sigma = SelfEnergyModel.tabulated_frequency(np.zeros((5, 2, 2)))
        with pytest.raises(ValueError, match="does not match"):
            dyson_solve(g0, sigma)

    def test_dimension_mismatch_rejected(self):
        g0 = free_green(np.eye(2), np.array([0.0]), eta=1e-3)
        with pytest.raises(ValueError, match="dimension"):
            dyson_solve(g0, SelfEnergyModel.zero(3))


class TestDressedEigenproblem:
    def test_zero_kernel_keeps_spectrum(self):
        h = random_hermitian(5, seed=14)
        base = np.linalg.eigvalsh(h)
        assert np.max(np.abs(dressed_eigenproblem(h, np.zeros((5, 5))) - base)) < 1e-12

    def test_identity_kernel_shifts_uniformly(self):
        h = random_hermitian(5, seed=15)
        base = np.linalg.eigvalsh(h)
        shifted = dressed_eigenproblem(h, 0.3 * np.eye(5))
        assert np.max(np.abs(shifted - base - 0.3)) < 1e-12

    def test_rank_one_kernel_on_exact_eigenvector(self):
        h = random_hermitian(5, seed=16)
        vals, vecs = np.linalg.eigh(h)
        ground = vecs[:, 0]
        kernel = 0.2 * np.outer(ground, ground.conj())
        dressed = dressed_eigenproblem(h, kernel)
        expect = np.sort(np.concatenate([[vals[0] + 0.2], vals[1:]]))
        assert np.max(np.abs(dressed - expect)) < 1e-10

    def test_non_hermitian_kernel_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            dressed_eigenproblem(np.eye(2), bad)


class TestSelfEnergyModel:
    def test_constant_requires_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            SelfEnergyModel.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_separable_builds_rank_one(self):
        v = np.array([1.0, 0.0])
        sigma = SelfEnergyModel.separable(0.5, v)
        assert sigma.kernel[0, 0] == 0.5
        assert np.count_nonzero(sigma.kernel) == 1

    def test_momentum_table_mismatch_detected(self):
        sigma = SelfEnergyModel.tabulated_momentum(
            np.array([-0.1, 0.1]), np.zeros((2, 3, 3))
        )
        with pytest.raises(ValueError, match="momentum mismatch"):
            sigma.at_momentum(0, 0.3)


class TestSpectralFunction:
    def test_peaks_found_at_levels(self):
        levels = np.array([-1.0, 0.5])
        omegas = np.linspace(-2, 2, 2001)
        g = free_green(np.diag(levels), omegas, eta=1e-3)
        peaks = spectral_peaks(g)
        step = omegas[1] - omegas[0]
        for e in levels:
            assert np.min(np.abs(peaks - e)) <= step
