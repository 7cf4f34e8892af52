import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from qpbench import green_dyson, pipeline
from qpbench.config import RunConfig
from qpbench.green_dyson import (
    default_frequency_grid,
    dressed_eigenproblem,
    dyson_residual,
    dyson_solve,
    free_green,
    kernel_stack,
    lehmann_spectral_function,
    peak_alignment_error,
    residual_subsample,
    spectral_peaks,
)
from qpbench.hartree_fock import band_structure
from qpbench.quasiparticle import mass_shift


def random_hermitian(dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (m + m.conj().T)


def reference_free_green(h, omegas, eta):
    """One inverse per frequency: an independent route."""
    eye = np.eye(h.shape[0])
    return np.array([np.linalg.inv((w + 1j * eta) * eye - h) for w in omegas])


def spectral_free_green(h, omegas, eta):
    """U diag(1 / (w + i eta - lambda)) U^H one frequency at a time: the unblocked route."""
    levels, u = np.linalg.eigh(h)
    u_h = u.conj().T
    return np.array([(u * (1.0 / ((w + 1j * eta) - levels))) @ u_h for w in omegas])


def reference_dyson(g0, kernels, tol=1e-10):
    """One solve per frequency: matrices, defects and flagged indices."""
    eye = np.eye(g0.dim)
    out = np.empty_like(g0.matrices)
    defects = np.empty(g0.omegas.size)
    for i, g0i in enumerate(g0.matrices):
        sig = kernels[i]
        try:
            out[i] = np.linalg.solve(eye - g0i @ sig, g0i)
        except np.linalg.LinAlgError:
            out[i] = np.nan
            defects[i] = np.nan
            continue
        defects[i] = np.max(np.abs(out[i] - g0i - g0i @ sig @ out[i]))
    flagged = tuple(i for i, dfc in enumerate(defects) if not dfc <= tol)
    return out, defects, flagged


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

    def test_nan_hamiltonian_rejected(self):
        h = np.eye(3)
        h[1, 2] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            free_green(h, np.array([0.0]), eta=1e-3)

    def test_nonpositive_broadening_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            free_green(np.eye(2), np.array([0.0]), eta=0.0)


class TestDysonSolve:
    def test_zero_kernel_returns_free_propagator_bitwise(self):
        h = random_hermitian(4, seed=7)
        g0 = free_green(h, np.linspace(-3, 3, 64), eta=1e-3)
        g = dyson_solve(g0, np.zeros((4, 4)))
        assert np.array_equal(g.matrices, g0.matrices)

    def test_single_level_closed_form(self):
        e, s, eta = 0.3, 0.45, 1e-3
        omegas = np.linspace(-2, 2, 101)
        g0 = free_green(np.array([[e]]), omegas, eta=eta)
        g = dyson_solve(g0, np.array([[s]]))
        expect = 1.0 / (omegas + 1j * eta - e - s)
        assert np.max(np.abs(g.matrices[:, 0, 0] - expect)) < 1e-12

    def test_residual_contract(self):
        h = random_hermitian(4, seed=8)
        g0 = free_green(h, np.linspace(-4, 4, 200), eta=1e-3)
        sigma = random_hermitian(4, seed=9, scale=0.1)
        g = dyson_solve(g0, sigma)
        assert not g.flagged
        assert dyson_residual(g, g0, sigma) <= 1e-10

    def test_poles_shift_to_dressed_eigenvalues(self):
        h = np.diag(np.array([-1.5, -0.5, 0.5, 1.5]))
        sigma_kernel = random_hermitian(4, seed=10, scale=0.08)
        omegas = default_frequency_grid(np.linalg.eigvalsh(h), count=3000, pad=1.0)
        g0 = free_green(h, omegas, eta=1e-3)
        g = dyson_solve(g0, sigma_kernel)
        levels = np.linalg.eigvalsh(h + sigma_kernel)  # independent eigensolve
        step = omegas[1] - omegas[0]
        assert peak_alignment_error(g.omegas, g.spectral_function(), levels) <= step

    def test_singular_frequency_flagged_not_dropped(self):
        # rigged table makes (I - G0 Sigma) exactly singular at omega = 0
        eta = 1e-3
        omegas = np.array([-0.5, 0.0, 0.5])
        g0 = free_green(np.array([[0.0]]), omegas, eta=eta)
        kernels = np.array([[[w + 1j * eta]] for w in omegas])
        g = dyson_solve(g0, kernels)
        assert 1 in g.flagged
        assert g.matrices.shape == g0.matrices.shape  # flagged, not dropped

    def test_defect_above_tolerance_flagged_and_excluded(self, monkeypatch):
        h = random_hermitian(3, seed=12)
        g0 = free_green(h, np.linspace(-4, 4, 40), eta=0.5)
        sigma = random_hermitian(3, seed=13, scale=0.05)
        assert dyson_solve(g0, sigma).flagged == ()
        # a negative tolerance fails every frequency's defect test
        monkeypatch.setattr(green_dyson, "_RESIDUAL_TOL", -1.0)
        g = dyson_solve(g0, sigma)
        assert g.flagged == tuple(range(40))
        assert np.all(np.isfinite(g.matrices))  # solved and kept, only flagged
        assert dyson_residual(g, g0, sigma) == 0.0

    def test_non_finite_defect_flagged(self):
        # a kernel that is NaN at one frequency leaves a non-finite G there
        g0 = free_green(np.diag([-1.0, 0.0, 1.0]), np.linspace(-2, 2, 6), eta=1e-2)
        kernels = np.zeros((6, 3, 3))
        kernels[2, 0, 0] = np.nan
        g = dyson_solve(g0, kernels)
        assert not np.all(np.isfinite(g.matrices[2]))
        assert g.flagged == (2,)
        assert np.isnan(g.defects[2])

    def test_residual_propagates_non_finite_defect(self):
        g0 = free_green(np.diag([-1.0, 0.0, 1.0]), np.linspace(-2, 2, 6), eta=1e-2)
        sigma = 0.1 * np.eye(3)
        g = dyson_solve(g0, sigma)
        broken = g.matrices.copy()
        broken[2] = np.nan
        unflagged = dataclasses.replace(g, matrices=broken, flagged=())
        assert np.isnan(dyson_residual(unflagged, g0, sigma))

    def test_table_length_enforced(self):
        g0 = free_green(np.eye(2), np.linspace(-1, 1, 10), eta=1e-3)
        with pytest.raises(ValueError, match="does not match"):
            dyson_solve(g0, np.zeros((5, 2, 2)))

    def test_dimension_mismatch_rejected(self):
        g0 = free_green(np.eye(2), np.array([0.0]), eta=1e-3)
        with pytest.raises(ValueError, match="dimension"):
            dyson_solve(g0, np.zeros((3, 3)))

    def test_non_hermitian_static_kernel_rejected(self):
        g0 = free_green(np.eye(2), np.array([0.0]), eta=1e-3)
        with pytest.raises(ValueError, match="Hermitian"):
            dyson_solve(g0, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nan_static_kernel_rejected(self):
        g0 = free_green(np.eye(2), np.array([0.0]), eta=1e-3)
        with pytest.raises(ValueError, match="Hermitian"):
            dyson_solve(g0, np.array([[0.1, np.nan], [np.nan, 0.1]]))

    def test_zero_table_returns_free_propagator_bitwise(self):
        g0 = free_green(random_hermitian(3, seed=26), np.linspace(-2, 2, 8), eta=1e-2)
        g = dyson_solve(g0, np.zeros((8, 3, 3)))
        assert np.array_equal(g.matrices, g0.matrices)
        assert g.flagged == () and np.array_equal(g.defects, np.zeros(8))


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

    def test_nan_kernel_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            dressed_eigenproblem(np.eye(2), np.full((2, 2), np.nan))


class TestKernelStack:
    def test_static_kernel_is_a_read_only_view(self):
        kernel = random_hermitian(3, seed=25)
        stack = kernel_stack(kernel, 4, 3)
        assert stack.shape == (4, 3, 3)
        assert np.shares_memory(stack, kernel) and not stack.flags.writeable
        for row in stack:
            np.testing.assert_array_equal(row, kernel)

    def test_misaligned_shapes_rejected(self):
        for sigma, n, d in (
            (np.zeros((2, 3, 3)), 3, 3),  # table shorter than the grid
            (np.zeros((3, 3)), 2, 4),  # static kernel of the wrong dimension
            (np.zeros((2, 3, 4)), 2, 3),  # kernels not square
            (np.zeros(3), 3, 3),
        ):
            with pytest.raises(ValueError, match="does not match"):
                kernel_stack(sigma, n, d)


class TestSpectralFunction:
    def test_peaks_found_at_levels(self):
        levels = np.array([-1.0, 0.5])
        omegas = np.linspace(-2, 2, 2001)
        g = free_green(np.diag(levels), omegas, eta=1e-3)
        peaks = spectral_peaks(g.omegas, g.spectral_function())
        step = omegas[1] - omegas[0]
        for e in levels:
            assert np.min(np.abs(peaks - e)) <= step

    def test_peaks_match_reference_loop(self):
        h = random_hermitian(6, seed=17)
        g = free_green(h, np.linspace(-4, 4, 777), eta=5e-2)
        a = g.spectral_function()
        idx = [i for i in range(1, a.size - 1) if a[i] > a[i - 1] and a[i] >= a[i + 1]]
        peaks = spectral_peaks(g.omegas, g.spectral_function())
        np.testing.assert_array_equal(peaks, g.omegas[idx])
        levels = np.linalg.eigvalsh(h)
        expect = max(np.min(np.abs(peaks - e)) for e in levels)
        assert peak_alignment_error(g.omegas, a, levels) == expect

    def test_free_spectral_function_is_lehmann_sum(self):
        # -Im Tr G0 / pi of a 64-point operator against the sum over its levels;
        # measured at most 3.9e-12 relative over five seeds: the imaginary part
        # of each diagonal product carries the rounding of the far larger real part
        h = random_hermitian(64, seed=64)
        omegas = np.linspace(-25, 25, 2001)
        weights = free_green(h, omegas, eta=1e-2).spectral_function()
        expect = lehmann_spectral_function(np.linalg.eigvalsh(h), omegas, 1e-2)
        np.testing.assert_allclose(weights, expect, rtol=1e-11, atol=0)

    def test_plateau_and_short_grids(self):
        omegas = np.arange(7.0)
        spectral = np.array([0.0, 1.0, 1.0, 0.5, 2.0, 2.0, 3.0])
        # the first point of a plateau is the peak
        np.testing.assert_array_equal(spectral_peaks(omegas, spectral), [1.0, 4.0])
        for n in range(3):
            assert spectral_peaks(np.zeros(n), np.ones(n)).size == 0


class TestBlockedFrequencyAxis:
    """The blocked routes against one-frequency-at-a-time reference loops."""

    # (dimension, frequencies): 455 frequencies per block at d = 3, so 1000 is
    # not a multiple of the block and 100 is less than one; d = 64 puts one
    # frequency in each block
    SHAPES = [(3, 1000), (3, 100), (20, 37), (64, 5)]

    @pytest.mark.parametrize("dim,count", SHAPES)
    def test_free_green_matches_reference(self, dim, count):
        h = random_hermitian(dim, seed=dim)
        omegas = np.linspace(-3, 3, count)
        g = free_green(h, omegas, eta=1e-2)
        # blocking changes no bit of the closed form
        np.testing.assert_array_equal(g.matrices, spectral_free_green(h, omegas, 1e-2))
        # against per-frequency inversion: at most 5.3e-13 of each frequency's
        # largest element, measured over d = 2 ... 64 and five seeds each
        inverted = reference_free_green(h, omegas, 1e-2)
        scale = np.max(np.abs(inverted), axis=(1, 2))
        assert np.all(np.max(np.abs(g.matrices - inverted), axis=(1, 2)) <= 2e-12 * scale)

    @pytest.mark.parametrize("dim,count", SHAPES)
    def test_dyson_solve_matches_reference(self, dim, count):
        g0 = free_green(random_hermitian(dim, seed=dim), np.linspace(-3, 3, count), eta=1e-2)
        kernel = random_hermitian(dim, seed=dim + 1, scale=0.1)
        g = dyson_solve(g0, kernel)
        out, defects, flagged = reference_dyson(g0, [kernel] * count)
        np.testing.assert_array_equal(g.matrices, out)
        np.testing.assert_array_equal(g.defects, defects)
        assert g.flagged == flagged == ()

    def test_kernel_table_across_block_boundaries(self):
        # 256 frequencies per block at d = 4: 600 spans three blocks
        count = 600
        g0 = free_green(random_hermitian(4, seed=18), np.linspace(-3, 3, count), eta=1e-2)
        kernels = np.array([random_hermitian(4, seed=s, scale=0.05) for s in range(count)])
        g = dyson_solve(g0, kernels)
        out, defects, flagged = reference_dyson(g0, kernels)
        np.testing.assert_array_equal(g.matrices, out)
        np.testing.assert_array_equal(g.defects, defects)
        assert g.flagged == flagged

    def test_singular_frequency_inside_a_block(self):
        # (I - G0 Sigma) is singular at index 4 of 9, all in one block
        eta = 1e-2
        omegas = np.linspace(-1, 1, 9)
        g0 = free_green(np.diag([0.0, 0.5]), omegas, eta=eta)
        kernels = np.zeros((9, 2, 2), dtype=complex)
        kernels[:, 0, 0] = 0.1
        kernels[4, 0, 0] = omegas[4] + 1j * eta  # Sigma = 1 / G0 on level 0
        g = dyson_solve(g0, kernels)
        assert g.flagged == (4,)
        assert np.all(np.isnan(g.matrices[4])) and np.isnan(g.defects[4])
        out, defects, _ = reference_dyson(g0, kernels)
        keep = np.arange(9) != 4
        np.testing.assert_array_equal(g.matrices[keep], out[keep])
        np.testing.assert_array_equal(g.defects[keep], defects[keep])

    def test_peak_memory_within_one_propagator(self):
        # temporaries stay block-sized: neither route holds a second propagator
        dim, count = 20, 2000
        propagator = count * dim * dim * 16
        h = random_hermitian(dim, seed=20)
        sigma = random_hermitian(dim, seed=21, scale=0.1)
        omegas = np.linspace(-3, 3, count)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            g0 = free_green(h, omegas, eta=1e-2)
            free_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            dyson_solve(g0, sigma)
            solve_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert free_peak < propagator + 2**20
        assert solve_peak < propagator + 2**20


def test_pipeline_residual_matches_independent_recomputation(tmp_path, monkeypatch):
    calls = []

    def recording_solve(g0, sigma, *args, **kwargs):
        dressed = dyson_solve(g0, sigma, *args, **kwargs)
        calls.append((dressed, g0, sigma))
        return dressed

    monkeypatch.setattr(pipeline, "dyson_solve", recording_solve)
    config = RunConfig.from_dict(
        {
            "system": {"points": 12, "spacing": 0.5, "electrons": 2},
            "oracle": {"enabled": False},
            "self_energy": {"kind": "constant", "scale": 1.5},
            "dyson": {"count": 700},
        }
    )
    pipeline.run_pipeline(config, tmp_path)
    (dressed, g0, sigma), = calls
    record = json.loads((tmp_path / "dyson.json").read_text())
    recomputed = dyson_residual(dressed, g0, sigma)
    assert 0.0 < recomputed <= 1e-10
    assert record["dyson_residual"] == recomputed


def test_pipeline_residual_keeps_its_margin_on_a_crystal_sized_cell(tmp_path):
    # the benchmark's crystal cell (64 points, 16 k) with the README's grid of
    # 2000 frequencies at eta 1e-3: the solve reads about 4e-13, far below the
    # 1e-10 flag tolerance; a route whose rounding grows with d or 1/eta
    # (an eigh of h + Sigma in closed form read 1.8e-11 here) fails
    config = RunConfig.from_dict(
        {
            "system": {"points": 64, "spacing": 0.5, "well_depth": 2.0, "softening": 1.0,
                       "electrons": 2, "boundary": "periodic", "kpoints": 16},
            "oracle": {"enabled": False},
            "self_energy": {"kind": "cosine", "scale": 0.3},
            "dyson": {"count": 2000, "eta": 1e-3},
        }
    )
    report = pipeline.run_pipeline(config, tmp_path)
    assert report["stages"]["dyson"]["status"] == "completed"
    record = json.loads((tmp_path / "dyson.json").read_text())
    assert record["dyson_residual"] < 2e-12
    assert record["flagged_frequencies"] == []


class TestLehmannSpectralFunction:
    def test_matches_dressed_propagator(self):
        h = random_hermitian(6, seed=22)
        kernel = random_hermitian(6, seed=23, scale=0.1)
        omegas = np.linspace(-4, 4, 301)
        dressed = dyson_solve(free_green(h, omegas, eta=1e-2), kernel)
        weights = lehmann_spectral_function(np.linalg.eigvalsh(h + kernel), omegas, 1e-2)
        np.testing.assert_allclose(weights, dressed.spectral_function(), rtol=1e-10, atol=0)

    def test_single_level_is_a_lorentzian(self):
        omegas = np.array([-1.0, 0.25, 2.0])
        weights = lehmann_spectral_function(np.array([0.25]), omegas, 0.5)
        expect = 0.5 / ((omegas - 0.25) ** 2 + 0.25) / np.pi
        np.testing.assert_allclose(weights, expect, rtol=1e-15)

    def test_pair_and_propagator_give_the_same_peaks(self):
        # the Lehmann weights and -Im Tr G / pi of the propagator peak alike
        h = random_hermitian(5, seed=24)
        g = free_green(h, np.linspace(-4, 4, 555), eta=5e-2)
        levels = np.linalg.eigvalsh(h)
        weights = lehmann_spectral_function(levels, g.omegas, g.eta)
        propagator = g.spectral_function()
        np.testing.assert_array_equal(
            spectral_peaks(g.omegas, weights), spectral_peaks(g.omegas, propagator)
        )
        assert peak_alignment_error(g.omegas, weights, levels) == peak_alignment_error(
            g.omegas, propagator, levels
        )


class TestResidualSubsample:
    # stride ceil(count / 64): 1000 is not a multiple of 64, 640 is
    @pytest.mark.parametrize("count,stride", [(1000, 16), (640, 10)])
    def test_holds_stride_points_and_nearest_levels(self, count, stride):
        omegas = np.linspace(-3, 3, count)
        levels = np.array([-2.9, -0.1234, 0.0, 1.5, 2.999])
        sample = residual_subsample(omegas, levels)
        assert sample[0] == 0
        assert set(range(0, count, stride)) <= set(sample.tolist())
        nearest = [int(np.argmin(np.abs(omegas - e))) for e in levels]
        assert set(nearest) <= set(sample.tolist())
        assert set(sample.tolist()) == set(range(0, count, stride)) | set(nearest)
        assert np.all(np.diff(sample) > 0)  # ascending, no duplicates

    def test_short_grid_keeps_every_frequency(self):
        omegas = np.linspace(-1, 1, 16)
        np.testing.assert_array_equal(residual_subsample(omegas, np.array([0.0])), np.arange(16))


def _stage_config(boundary, kind, count=600):
    system = {"points": 12, "spacing": 0.5, "electrons": 2, "boundary": boundary}
    if boundary == "periodic":
        system["kpoints"] = 4
    return RunConfig.from_dict(
        {
            "system": system,
            "oracle": {"enabled": False},
            "quasiparticle": {"enabled": False},
            "spectrum": {"enabled": False},
            "self_energy": {"kind": kind, "scale": 0.3},
            "dyson": {"count": count},
        }
    )


def _full_grid_route(config):
    """The dressed propagator on the whole grid, rebuilt outside the stage."""
    system = pipeline.build_system(config)
    bands = band_structure(system)
    idx = int(np.argmin(np.abs(bands.kgrid)))
    h = bands.scf_results[idx].fock.total
    scale = config["self_energy"]["scale"]
    kernel = {
        "zero": 0.0,
        "constant": scale,
        "cosine": scale * np.cos(bands.kgrid[idx]),
    }[config["self_energy"]["kind"]] * np.eye(h.shape[0])
    return h, kernel


@pytest.mark.parametrize("boundary", ["box", "periodic"])
@pytest.mark.parametrize("kind", ["zero", "constant", "cosine"])
def test_stage_spectrum_matches_full_grid_dyson_solve(tmp_path, boundary, kind):
    config = _stage_config(boundary, kind)
    pipeline.run_pipeline(config, tmp_path)
    table = np.loadtxt(tmp_path / "spectral.csv", delimiter=",", skiprows=3)
    record = json.loads((tmp_path / "dyson.json").read_text())
    omegas, weights = table[:, 0], table[:, 1]
    h, kernel = _full_grid_route(config)
    levels = np.asarray(record["dressed_levels"])
    np.testing.assert_array_equal(levels, dressed_eigenproblem(h, kernel))
    full = dyson_solve(free_green(h, omegas, eta=record["eta"]), kernel)
    assert full.flagged == ()
    full_weights = full.spectral_function()
    np.testing.assert_allclose(weights, full_weights, rtol=1e-10, atol=0)
    assert record["peak_alignment_error"] == peak_alignment_error(omegas, full_weights, levels)


@pytest.mark.parametrize("boundary", ["box", "periodic"])
def test_unconverged_scf_is_not_dressed(tmp_path, boundary):
    data = _stage_config(boundary, "constant").data
    data["scf"]["max_iter"] = 1
    report = pipeline.run_pipeline(RunConfig.from_dict(data), tmp_path)
    assert report["stages"]["bands"]["status"] == "completed"
    assert not report["stages"]["bands"]["metrics"]["all_converged"]
    dyson = report["stages"]["dyson"]
    assert dyson["status"] == "failed"
    # the error names the dressed momentum, the one nearest the zone center,
    # and its final residual, both as in scf_log.json
    records = json.loads((tmp_path / "scf_log.json").read_text())["records"]
    dressed = min(records, key=lambda record: abs(record["k"]))
    assert not dressed["converged"]
    assert dyson["error"] == (
        f"ValueError: SCF at k={dressed['k']!r} is not converged (final residual "
        f"{dressed['final_residual']!r}); Dyson dressing rejected"
    )
    assert not (tmp_path / "dyson.json").exists()
    assert not (tmp_path / "spectral.csv").exists()


def test_stage_solves_on_the_subsample_and_flags_in_grid_indices(tmp_path, monkeypatch):
    calls = []

    def one_flagged_solve(g0, sigma, *args, **kwargs):
        calls.append(g0)
        dressed = dyson_solve(g0, sigma, *args, **kwargs)
        return dataclasses.replace(dressed, flagged=(3,))

    monkeypatch.setattr(pipeline, "dyson_solve", one_flagged_solve)
    config = _stage_config("box", "constant", count=1000)
    pipeline.run_pipeline(config, tmp_path)
    record = json.loads((tmp_path / "dyson.json").read_text())
    omegas = np.loadtxt(tmp_path / "spectral.csv", delimiter=",", skiprows=3)[:, 0]
    sample = residual_subsample(omegas, np.asarray(record["dressed_levels"]))
    (g0,) = calls
    np.testing.assert_array_equal(g0.omegas, omegas[sample])
    assert sample.size < omegas.size
    assert record["flagged_frequencies"] == [int(sample[3])]


@pytest.mark.parametrize("kind", ["zero", "constant", "cosine"])
def test_model_table_is_built_from_the_stage_kernel(tmp_path, monkeypatch, kind):
    # the quasiparticle stage hands mass_shift one stage kernel per band momentum
    calls = []

    def recording_shift(band, sigma, results, kgrid):
        calls.append((sigma, kgrid))
        return mass_shift(band, sigma, results, kgrid)

    monkeypatch.setattr(pipeline, "mass_shift", recording_shift)
    config = _stage_config("periodic", kind)
    system = pipeline.build_system(config)
    state = {"bands": band_structure(system)}
    pipeline._stage_quasiparticle(system, config, tmp_path, config.hash(), state)
    ((table, kgrid),) = calls
    dim = system.grid.npoints
    assert kgrid is state["bands"].kgrid
    assert table.shape == (kgrid.size, dim, dim)
    for kernel, k in zip(table, kgrid):
        np.testing.assert_array_equal(kernel, pipeline._self_energy_kernel(config, dim, k))


def test_stage_never_holds_a_propagator(tmp_path):
    dim, count = 20, 2000
    config = RunConfig.from_dict(
        {
            "system": {"points": dim, "spacing": 0.5, "electrons": 2},
            "self_energy": {"kind": "constant", "scale": 0.3},
            "dyson": {"count": count},
        }
    )
    system = pipeline.build_system(config)
    state = {"bands": band_structure(system)}
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        pipeline._stage_dyson(system, config, tmp_path, config.hash(), state)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < count * dim * dim * 16
