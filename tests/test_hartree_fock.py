import dataclasses

import numpy as np
import pytest

from qpbench import hartree_fock
from qpbench.hartree_fock import (
    _fix_phases,
    _lowest_orbital,
    _PulayHistory,
    band_structure,
    build_fock,
    hf_total_energy,
    scf_solve,
)
from qpbench.many_body import full_ci_ground_state
from qpbench.model_system import (
    BOX,
    PERIODIC,
    ModelSystem,
    build_soft_coulomb_system,
    core_hamiltonian,
    make_grid,
)
from qpbench.pipeline import band_trace_residual


def free_lattice(npoints=12, spacing=0.5, kpoints=8, n_electrons=2):
    grid = make_grid(npoints, spacing)
    from qpbench.model_system import symmetric_kgrid

    return ModelSystem(
        grid,
        np.zeros(npoints),
        np.zeros((npoints, npoints)),
        n_electrons,
        PERIODIC,
        kgrid=symmetric_kgrid(kpoints, grid.length),
    )


@pytest.fixture(scope="module")
def well2():
    return build_soft_coulomb_system((16, 0.5), 2.0, 1.0, 2, BOX)


@pytest.fixture(scope="module")
def crystal2():
    return build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 2, PERIODIC, kpoints=8)


class TestBuildFock:
    def test_one_electron_total_is_bare(self):
        system = build_soft_coulomb_system((16, 0.5), 2.0, 1.0, 1, BOX)
        res = scf_solve(system)
        kernel = np.outer(res.orbitals[:, 0], res.orbitals[:, 0].conj())
        fock = build_fock(system, np.real(np.diag(kernel)), kernel)
        assert np.max(np.abs(fock.total - fock.h_core)) < 1e-12
        assert np.max(np.abs(np.diag(fock.hartree_potential) - fock.exchange)) < 1e-12
        mean_field = np.diag(fock.hartree_potential) - fock.exchange
        assert np.max(np.abs(mean_field @ res.orbitals[:, 0])) < 1e-12

    def test_empty_density_gives_bare_operator(self, well2):
        g = well2.grid.npoints
        fock = build_fock(well2, np.zeros(g), np.zeros((g, g)))
        assert np.array_equal(np.diag(fock.hartree_potential), np.zeros((g, g)))
        assert np.array_equal(fock.exchange, np.zeros((g, g)))
        assert np.array_equal(fock.total, fock.h_core)

    def test_hartree_expectation_is_direct_coulomb_integral(self):
        # independent double-sum quadrature oracle
        system = build_soft_coulomb_system((64, 0.25), 2.0, 1.0, 2, BOX)
        res = scf_solve(system)
        phi = res.orbitals[:, 0].real
        w = system.grid.spacing
        kernel = np.outer(phi, phi)
        fock = build_fock(system, 2.0 * phi * phi, kernel)
        expect = 0.0
        for i in range(64):
            for j in range(64):
                expect += (
                    phi[i] ** 2
                    * system.interaction_kernel[i, j]
                    * 2.0
                    * phi[j] ** 2
                    * w
                    * w
                )
        value = w * phi @ np.diag(fock.hartree_potential) @ phi
        assert value == pytest.approx(expect, abs=1e-10)

    def test_hermitian_at_finite_momentum(self, crystal2):
        g = crystal2.grid.npoints
        rng = np.random.default_rng(2)
        kernel = rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g))
        kernel = kernel @ kernel.conj().T
        kernel /= np.trace(kernel).real
        for k in crystal2.kgrid:
            fock = build_fock(crystal2, np.real(np.diag(kernel)), kernel, float(k))
            assert np.max(np.abs(fock.total - fock.total.conj().T)) < 1e-12

    def test_dimension_mismatch_rejected(self, well2):
        with pytest.raises(ValueError, match="dimension"):
            build_fock(well2, np.zeros(4), np.zeros((4, 4)))


class TestScfSolve:
    def test_noninteracting_converges_immediately(self):
        grid = make_grid(12, 0.5)
        u = -2.0 / np.sqrt(grid.points**2 + 1.0)
        system = ModelSystem(grid, u, np.zeros((12, 12)), 2, BOX)
        res = scf_solve(system)
        assert res.converged
        assert res.iterations == 1
        bare = np.linalg.eigvalsh(core_hamiltonian(system))
        assert np.max(np.abs(res.eigenvalues - bare)) < 1e-12

    def test_one_electron_matches_bare_ground_state(self):
        system = build_soft_coulomb_system((16, 0.5), 2.0, 1.0, 1, BOX)
        res = scf_solve(system)
        bare = np.linalg.eigvalsh(core_hamiltonian(system))[0]
        assert abs(res.eigenvalues[0] - bare) < 1e-12

    def test_mean_field_bounded_by_exact(self, well2):
        res = scf_solve(well2)
        e_ci, _ = full_ci_ground_state(well2, orbital_cutoff=16)
        assert res.energy >= e_ci - 1e-10
        assert res.energy - e_ci <= 0.1 * abs(e_ci)

    def test_orbitals_orthonormal_under_quadrature(self, well2):
        res = scf_solve(well2)
        w = well2.grid.spacing
        overlap = res.orbitals.conj().T @ res.orbitals * w
        assert np.max(np.abs(overlap - np.eye(overlap.shape[0]))) < 1e-10

    def test_eigenvalues_sorted(self, well2):
        res = scf_solve(well2)
        assert np.all(np.diff(res.eigenvalues) >= 0)

    def test_energy_monotone_flag_on_default_well(self, well2):
        res = scf_solve(well2)
        assert res.monotone_after_3

    def test_nonconvergence_reported_with_history(self, well2):
        res = scf_solve(well2, max_iter=2, tol=1e-15)
        assert not res.converged
        assert len(res.residual_history) == 2
        assert res.final_residual == res.residual_history[-1]

    def test_odd_electron_count_rejected(self):
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 3, BOX)
        with pytest.raises(ValueError, match="even"):
            scf_solve(system)

    def test_more_occupied_orbitals_than_grid_points_rejected(self):
        # 18 electrons fill 9 orbitals, and an 8-point grid has only 8
        system = build_soft_coulomb_system((8, 0.5), 2.0, 1.0, 18, BOX)
        with pytest.raises(ValueError, match="more occupied orbitals than grid points"):
            scf_solve(system)

    def test_bad_tolerance_and_iteration_limit_rejected(self, well2):
        with pytest.raises(ValueError, match="tolerance"):
            scf_solve(well2, tol=0.0)
        with pytest.raises(ValueError, match="max_iter"):
            scf_solve(well2, max_iter=0)

    def test_diis_converges_default_well_quickly(self, well2):
        # linear mixing at 0.5 needed 44 iterations here
        res = scf_solve(well2)
        assert res.converged
        assert res.iterations <= 12

    def test_guess_orbitals_reach_same_solution(self, well2):
        w = well2.grid.spacing
        _, vecs = np.linalg.eigh(core_hamiltonian(well2))
        guess = vecs[:, 1:2] / np.sqrt(w)  # deliberately the wrong orbital
        seeded = hartree_fock._scf(well2, [None], 500, 1e-10, guess)[0]
        default = scf_solve(well2)
        assert seeded.converged
        assert seeded.energy == pytest.approx(default.energy, abs=1e-9)

    @pytest.mark.parametrize(
        "points, electrons, ground",
        # 16 points: the eigh route; 64 points: the Rayleigh-quotient route
        [(16, 1, -1.4890944511), (64, 2, -2.2316412714)],
        ids=["eigh", "rayleigh-quotient"],
    )
    def test_excited_guess_fails_aufbau_verdict(self, points, electrons, ground):
        system = build_soft_coulomb_system((points, 0.5), 2.0, 1.0, electrons, BOX)
        # the excited start converges on an excited self-consistent state: its
        # residual passes tol, and only the verdict marks it not converged
        with pytest.warns(UserWarning, match=AUFBAU_WARNING):
            res = hartree_fock._scf(system, [None], 500, 1e-10, _excited_guess(system))[0]
        assert res.final_residual < 1e-10
        assert not res.converged
        default = scf_solve(system)
        assert default.converged
        assert default.energy == pytest.approx(ground, abs=1e-9)
        assert res.energy > default.energy + 0.1

    def test_total_energy_matches_eigenvalue_bookkeeping(self, well2):
        # E = 2 sum(eps_occ) - interaction double counting; recompute directly
        res = scf_solve(well2)
        assert hf_total_energy(well2, res.orbitals[:, :1]) == pytest.approx(
            res.energy, abs=1e-12
        )


class TestBandStructure:
    def test_free_lattice_matches_stencil_dispersion(self):
        # the odd grid samples k = 0, where every band above the lowest is an
        # exactly degenerate +-G pair
        for kpoints in (8, 7):
            system = free_lattice(kpoints=kpoints)
            bands = band_structure(system)
            h, g = system.grid.spacing, system.grid.npoints
            assert np.all(bands.converged_per_k)
            # band n at k: the n-th lowest (1 - cos((k + G) h)) / h^2 over G = 2 pi m / L
            shifts = 2.0 * np.pi * np.arange(g) / system.grid.length
            q = bands.kgrid[None, :] + shifts[:, None]
            expect = np.sort((1.0 - np.cos(q * h)) / h**2, axis=0)
            assert np.max(np.abs(bands.bands - expect)) < 1e-10

    def test_band_symmetry_under_momentum_reversal(self, crystal2):
        # a filled -k result is self-consistent at -k: the Fock operator rebuilt
        # at -k from its occupied orbitals has its orbitals and energies as eigenpairs
        bands = band_structure(crystal2)
        assert np.all(bands.converged_per_k)
        for res in bands.scf_results:
            if res.momentum > 0.0:
                continue
            occ = res.orbitals[:, : res.n_occupied]
            kernel = occ @ occ.conj().T
            fock = build_fock(crystal2, 2.0 * np.real(np.diag(kernel)), kernel, res.momentum)
            assert np.max(np.abs(fock.total - res.fock.total)) < 1e-8
            residual = fock.total @ res.orbitals - res.orbitals * res.eigenvalues
            assert np.max(np.abs(residual)) < 1e-8

    def test_single_zone_center_point_reduces_to_scf(self, crystal2):
        system = build_soft_coulomb_system(
            (12, 0.5), 2.0, 1.0, 2, PERIODIC, kpoints=1
        )
        bands = band_structure(system)
        assert bands.kgrid.size == 1
        assert bands.kgrid[0] == 0.0
        res = scf_solve(system, k=0.0)
        assert np.max(np.abs(bands.bands[:, 0] - res.eigenvalues)) < 1e-12

    def test_occupations_mark_valence_band(self, crystal2):
        bands = band_structure(crystal2)
        assert bands.occupations[0] == 2
        assert np.all(bands.occupations[1:] == 0)

    def test_lockstep_matches_single_momentum_solves(self, crystal2):
        bands = band_structure(crystal2)
        for i, k in enumerate(crystal2.kgrid):
            res = scf_solve(crystal2, k=float(k))
            assert res.iterations == bands.scf_results[i].iterations
            assert np.array_equal(res.eigenvalues, bands.bands[:, i])

    def test_zone_center_stays_real_in_odd_grid(self):
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 2, PERIODIC, kpoints=5)
        bands = band_structure(system)
        center = int(np.flatnonzero(system.kgrid == 0.0)[0])
        assert not np.iscomplexobj(bands.scf_results[center].orbitals)
        assert np.iscomplexobj(bands.scf_results[0].orbitals)
        assert np.all(bands.converged_per_k)

    def test_two_well_cell_converges(self):
        # two wells per cell, N = 2: near-degenerate bonding/antibonding levels
        # stalled linear mixing at a residual of 0.3-0.5 for 500 iterations
        system = build_soft_coulomb_system(
            (32, 0.47776), 1.91828, 1.035695, 2, PERIODIC, kpoints=8, wells=2
        )
        bands = band_structure(system)
        assert np.all(bands.converged_per_k)
        assert max(res.iterations for res in bands.scf_results) <= 40
        assert np.max(bands.symmetry_residuals) <= 1e-8

    @pytest.mark.parametrize(
        "kpoints, n_electrons", [(8, 2), (5, 2), (1, 2), (2, 2), (4, 1)]
    )
    def test_solves_nonnegative_momenta_and_conjugates_the_rest(
        self, monkeypatch, kpoints, n_electrons
    ):
        system = build_soft_coulomb_system(
            (12, 0.5), 2.0, 1.0, n_electrons, PERIODIC, kpoints=kpoints
        )
        solved = []
        real_scf = hartree_fock._scf

        def spy(system, momenta, *args, **kwargs):
            solved.extend(momenta)
            return real_scf(system, momenta, *args, **kwargs)

        monkeypatch.setattr(hartree_fock, "_scf", spy)
        bands = band_structure(system)
        kgrid = system.kgrid
        assert all(k >= 0.0 for k in solved)
        assert sorted(solved) == sorted(float(k) for k in kgrid if k >= 0.0)
        assert len(solved) == (kgrid.size + 1) // 2
        assert np.all(bands.converged_per_k)
        assert np.array_equal(bands.symmetry_residuals, np.zeros(bands.n_bands))
        by_momentum = {res.momentum: res for res in bands.scf_results}
        for k, res in zip(kgrid, bands.scf_results):
            assert res.momentum == float(k)
            if k == 0.0:
                assert not np.iscomplexobj(res.orbitals)
            if k >= 0.0:
                continue
            plus = by_momentum[-float(k)]
            assert np.array_equal(res.orbitals, plus.orbitals.conj())
            assert np.array_equal(res.eigenvalues, plus.eigenvalues)
            assert np.array_equal(res.fock.h_core, plus.fock.h_core.conj())
            assert np.array_equal(res.fock.exchange, plus.fock.exchange.conj())
            assert np.array_equal(res.fock.total, plus.fock.total.conj())
            assert np.array_equal(
                np.diag(res.fock.hartree_potential), np.diag(plus.fock.hartree_potential)
            )
            assert res.residual_history == plus.residual_history
            assert res.energy_history == plus.energy_history
            assert (res.iterations, res.converged, res.energy) == (
                plus.iterations,
                plus.converged,
                plus.energy,
            )
            # the conjugated core operator is the one at -k itself
            assert np.array_equal(res.fock.h_core, core_hamiltonian(system, float(k)))

    def test_box_system_is_one_zone_center_point(self, well2):
        bands = band_structure(well2)
        res = scf_solve(well2, 0.0)
        assert bands.kgrid.tolist() == [0.0]
        assert bands.scf_results[0].momentum == 0.0
        assert np.array_equal(bands.bands[:, 0], res.eigenvalues)
        assert np.all(bands.symmetry_residuals == 0.0)


class TestMeanFieldRecord:
    """The per-momentum Fock record: its parts, the sum read from them, their bytes."""

    @pytest.mark.parametrize("n_electrons", [1, 2])
    def test_total_equals_the_operator_the_scf_assembled(self, monkeypatch, n_electrons):
        # 5 momenta: the zone centre alone, two in a stack and their -k fills
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, n_electrons, PERIODIC, kpoints=5)
        assembled = []
        real_mean_field = hartree_fock._mean_field

        def mean_field_spy(model, h, density, kernel):
            parts = real_mean_field(model, h, density, kernel)
            assembled.append(parts[2].copy())
            return parts

        final = {}
        real_scf = hartree_fock._scf

        def scf_spy(model, momenta, *args, **kwargs):
            results = real_scf(model, momenta, *args, **kwargs)
            final.update(zip(momenta, assembled[-1]))  # the record's operator comes last
            return results

        monkeypatch.setattr(hartree_fock, "_mean_field", mean_field_spy)
        monkeypatch.setattr(hartree_fock, "_scf", scf_spy)
        bands = band_structure(system)
        assert sorted(final) == sorted(float(k) for k in system.kgrid if k >= 0.0)
        for k, res in zip(system.kgrid, bands.scf_results):
            expected = final[float(k)] if k >= 0.0 else final[-float(k)].conj()
            assert np.array_equal(res.fock.total, expected)

    def test_crystal_record_keeps_two_operators_per_momentum(self):
        # the benchmark's crystal cell: 64 points, 16 momenta, N = 2
        system = build_soft_coulomb_system((64, 0.5), 2.0, 1.0, 2, PERIODIC, kpoints=16)
        bands = band_structure(system)
        g, nk = system.grid.npoints, system.kgrid.size
        buffers = {}  # every array a record's fields keep alive, by identity
        for res in bands.scf_results:
            for field in dataclasses.fields(res.fock):
                part = getattr(res.fock, field.name)
                while part.base is not None:
                    part = part.base
                buffers[id(part)] = part.nbytes
        # h_core and exchange as complex g x g matrices, and a g vector
        assert sum(buffers.values()) <= nk * (2 * g * g + g) * 16

    def test_band_trace_residual_reads_the_potential_as_a_diagonal(self, crystal2):
        bands = band_structure(crystal2)
        w = crystal2.grid.spacing
        assert band_trace_residual(bands, 2, w) < 1e-12
        # the (g,) potential minus the (g, g) exchange broadcasts over rows
        # without an error, and moves every band-0 expectation by order one
        for res in bands.scf_results:
            psi = res.orbitals[:, 0] * np.sqrt(w)
            fock = res.fock
            diagonal = psi.conj() @ (np.diag(fock.hartree_potential) - fock.exchange) @ psi
            broadcast = psi.conj() @ (fock.hartree_potential - fock.exchange) @ psi
            assert abs(broadcast - diagonal) > 1.0


def _random_kernel(g, rank, rng):
    """Positive definite same-spin kernel and a square-root factor of it."""
    a = rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g))
    q, _ = np.linalg.qr(a)
    weights = rng.uniform(0.1, 1.0, size=g) / rank
    return (q * weights) @ q.conj().T


class TestComplexOrbitals:
    """Invariants of complex Bloch orbitals at k != 0, where a transpose is not a conjugate."""

    @pytest.mark.parametrize("n_electrons", [2, 4])
    def test_closed_shell_energy_identity_at_finite_momentum(self, n_electrons):
        system = build_soft_coulomb_system(
            (12, 0.5), 2.0, 1.0, n_electrons, PERIODIC, kpoints=8
        )
        w = system.grid.spacing
        for k in (float(system.kgrid[0]), float(system.kgrid[2])):
            res = scf_solve(system, k=k)
            assert res.converged
            occ = res.orbitals[:, : res.n_occupied]
            assert np.max(np.abs(occ.imag)) > 1e-3  # genuinely complex
            h = core_hamiltonian(system, k)
            h_ii = np.real(np.einsum("gi,gh,hi->i", occ.conj(), h, occ)) * w
            expect = float(np.sum(h_ii + res.eigenvalues[: res.n_occupied]))
            assert hf_total_energy(system, occ, k) == pytest.approx(expect, abs=1e-9)
            assert res.energy == pytest.approx(expect, abs=1e-9)

    def test_fock_is_energy_gradient_at_finite_momentum(self, crystal2):
        # E(gamma) is quadratic, so central differences are exact up to rounding;
        # for Hermitian d: dE = 2 w Re Tr(F d)
        g = crystal2.grid.npoints
        w = crystal2.grid.spacing
        k = float(crystal2.kgrid[1])
        rng = np.random.default_rng(5)
        gamma = _random_kernel(g, 1, rng)

        def energy(kernel):
            lam, u = np.linalg.eigh(kernel)
            return hf_total_energy(crystal2, u * np.sqrt(lam), k)

        step = 1e-3
        grad = np.zeros((g, g), dtype=complex)
        for j in range(g):
            for l in range(j, g):
                for phase in ((1.0,) if j == l else (1.0, 1j)):
                    d = np.zeros((g, g), dtype=complex)
                    d[j, l] += phase
                    d[l, j] += np.conj(phase)
                    slope = (energy(gamma + step * d) - energy(gamma - step * d)) / (2 * step)
                    if j == l:
                        grad[j, j] = slope / (4 * w)
                    elif phase == 1.0:
                        grad[j, l] += slope / (4 * w)
                    else:
                        grad[j, l] += 1j * slope / (4 * w)
        grad = np.triu(grad) + np.triu(grad, 1).conj().T
        fock = build_fock(crystal2, 2.0 * np.real(np.diag(gamma)), gamma, k)
        assert np.max(np.abs(fock.total.imag)) > 1e-3
        assert np.max(np.abs(grad - fock.total)) < 1e-7

    def test_energy_monotone_on_acceptance_crystal(self, crystal2):
        bands = band_structure(crystal2)
        assert np.all(bands.converged_per_k)
        assert all(res.monotone_after_3 for res in bands.scf_results)


class TestOrbitalRoute:
    """F[gamma] psi from orbital products against the assembled g x g operator."""

    @staticmethod
    def _operator_times_orbitals(system, h, occ):
        kernel = occ @ hartree_fock._adjoint(occ)
        occupation = 1.0 if system.n_electrons == 1 else 2.0
        density = occupation * np.real(np.diagonal(kernel, axis1=-2, axis2=-1))
        return hartree_fock._mean_field(system, h, density, kernel)[2] @ occ

    @pytest.mark.parametrize("n_electrons", [1, 2, 4, 6])
    def test_complex_stack_matches_operator(self, n_electrons):
        # nocc = 1, 1, 2 and 3; the lone electron has no mean field
        system = build_soft_coulomb_system((16, 0.5), 2.0, 1.0, n_electrons, PERIODIC, kpoints=6)
        nocc = hartree_fock._occupied_count(n_electrons)
        g, w = system.grid.npoints, system.grid.spacing
        h = np.stack([core_hamiltonian(system, float(k)) for k in system.kgrid])
        rng = np.random.default_rng(n_electrons)
        a = rng.normal(size=(len(h), g, nocc)) + 1j * rng.normal(size=(len(h), g, nocc))
        occ = np.linalg.qr(a)[0] / np.sqrt(w)
        got = hartree_fock._fock_on_orbitals(system, h @ occ, occ)
        expect = self._operator_times_orbitals(system, h, occ)
        assert np.max(np.abs(got - expect)) < 1e-13
        assert np.max(np.abs(expect)) > 1.0

    def test_real_box_matches_operator(self):
        system = build_soft_coulomb_system((16, 0.5), 2.0, 1.0, 4, BOX)
        h = core_hamiltonian(system)[None]
        occ = np.linalg.eigh(h)[1][..., :2] / np.sqrt(system.grid.spacing)
        got = hartree_fock._fock_on_orbitals(system, h @ occ, occ)
        assert not np.iscomplexobj(got)
        assert np.max(np.abs(got - self._operator_times_orbitals(system, h, occ))) < 1e-13


def _fix_phases_loop(vectors):
    """Per-column reference for the stacked phase convention."""
    out = vectors.copy()
    for col in range(out.shape[1]):
        pivot = int(np.argmax(np.abs(out[:, col])))
        val = out[pivot, col]
        if np.iscomplexobj(out):
            mag = abs(val)
            if mag > 0:
                out[:, col] *= np.conj(val) / mag
        elif val < 0:
            out[:, col] = -out[:, col]
    return out


class TestSolverInternals:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stacked_phase_fix_matches_column_loop(self, dtype):
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(4, 6, 6)).astype(dtype)
        if dtype is complex:
            vecs += 1j * rng.normal(size=(4, 6, 6))
        vecs[1, :, 2] = 0.0  # a zero column keeps its (absent) phase
        got = _fix_phases(vecs.copy())
        # same products, but a broadcast complex multiply may round differently
        tol = 4 * np.finfo(float).eps * np.max(np.abs(vecs))
        for i in range(4):
            assert np.max(np.abs(got[i] - _fix_phases_loop(vecs[i]))) <= tol

    def test_pulay_matrix_matches_explicit_commutators(self, monkeypatch):
        # B_ij = Tr(e_i^H e_j) with e_i = [F_i, gamma_i] built as full matrices
        rng = np.random.default_rng(6)
        g, nocc, w = 7, 2, 0.5
        monkeypatch.setattr(hartree_fock, "_DIIS_SIZE", 3)
        history = _PulayHistory(1, g, nocc, complex)
        errors = []
        for _ in range(4):  # one more push than slots: the oldest is replaced
            q, _ = np.linalg.qr(rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g)))
            psi = q[:, :nocc] / np.sqrt(w)
            f = rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g))
            f = f + f.conj().T
            fpsi = f @ psi
            err = fpsi - psi @ (psi.conj().T @ fpsi * w)
            norm2 = history.push(np.array([0]), psi[None], err[None])
            gamma = psi @ psi.conj().T
            errors.append(f @ gamma - gamma @ f)
            assert norm2[0] == pytest.approx(np.sum(np.abs(errors[-1]) ** 2), rel=1e-12)
        slots = [3, 1, 2]  # slot i holds push slots[i]
        expect = np.array(
            [[np.trace(errors[a].conj().T @ errors[b]).real for b in slots] for a in slots]
        )
        assert np.allclose(history.b[0], expect, rtol=1e-12, atol=1e-10)

    def test_pulay_drops_oldest_on_linear_dependence(self, monkeypatch):
        monkeypatch.setattr(hartree_fock, "_DIIS_SIZE", 4)
        history = _PulayHistory(1, 3, 1, float)
        psi = np.array([[[1.0], [0.0], [0.0]]])
        err = np.array([[[0.0], [1e-3], [0.0]]])
        history.push(np.array([0]), psi, err)
        history.push(np.array([0]), psi, err)  # identical: B is singular
        coeffs = history.coefficients(np.array([0]))
        assert np.allclose(coeffs, [[0.0, 1.0, 0.0, 0.0]])
        assert history.valid.tolist() == [[False, True, False, False]]


def _hermitian_stack(spectra, rng):
    """Complex Hermitian matrices with the given spectra, and their eigenvectors."""
    mats, vecs = [], []
    for spectrum in spectra:
        g = len(spectrum)
        q, _ = np.linalg.qr(rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g)))
        f = (q * spectrum) @ q.conj().T
        f = 0.5 * (f + f.conj().T)
        mats.append(f)
        vecs.append(np.linalg.eigh(f)[1])
    return np.array(mats), np.array(vecs)


def _eigh_lowest(f):
    return _fix_phases(np.linalg.eigh(f)[1][..., :1])


def _excited_guess(system, k=None):
    """The second core-Hamiltonian eigenvector at ``k``, quadrature-normalized."""
    return np.linalg.eigh(core_hamiltonian(system, k))[1][:, 1:2] / np.sqrt(system.grid.spacing)


def _no_eigh(monkeypatch):
    """Make every later np.linalg.eigh call fail the test."""

    def forbidden(a):
        raise AssertionError("eigh fallback taken")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)


AUFBAU_WARNING = "converged off the aufbau occupation"


class TestLowestOrbital:
    """The Rayleigh-quotient route returns the eigenvector its start leads to;
    the SCF's aufbau verdict, not the route, rejects a non-lowest exit."""

    GAPPED = np.linspace(-1.0, 2.0, 12)

    def test_second_eigenvector_guess_returns_second(self, monkeypatch):
        f, vecs = _hermitian_stack([self.GAPPED, self.GAPPED + 0.3], np.random.default_rng(11))
        # the iteration stops at once on the second eigenpair
        _no_eigh(monkeypatch)
        got = _lowest_orbital(f, vecs[:, :, 1])
        monkeypatch.undo()
        assert np.max(np.abs(got - _fix_phases(vecs[:, :, 1:2].copy()))) < 1e-12
        # on a grid that takes the route, the same kind of start leads the SCF
        # to an excited self-consistent state, which the verdict rejects
        system = build_soft_coulomb_system((64, 0.5), 2.0, 1.0, 2, BOX)
        assert system.grid.npoints >= hartree_fock._LOWEST_ORBITAL_MIN_POINTS
        with pytest.warns(UserWarning, match=f"{AUFBAU_WARNING} .occupied-projector deficit 1,"):
            res = hartree_fock._scf(system, [None], 500, 1e-10, _excited_guess(system))[0]
        assert res.final_residual < 1e-10
        assert res.energy == pytest.approx(-1.0471287395, abs=1e-9)
        assert not res.converged

    def test_near_degenerate_pair_needs_no_gap(self, monkeypatch):
        close = self.GAPPED.copy()
        close[1] = close[0] + 5e-4
        f, vecs = _hermitian_stack([close, self.GAPPED], np.random.default_rng(12))
        rng = np.random.default_rng(13)
        guess = vecs[:, :, 0] + 1e-3 * rng.normal(size=(2, 12))
        # a pair 5e-4 apart stays on the route
        _no_eigh(monkeypatch)
        got = _lowest_orbital(f, guess)
        monkeypatch.undo()
        assert np.max(np.abs(got - _eigh_lowest(f))) < 1e-12
        # two far wells hold one electron: the lowest pair is 2.0e-6 apart.
        # The verdict accepts the ground state and rejects the upper level.
        grid = make_grid(48, 0.5)
        u = sum(-2.0 / np.sqrt((grid.points - c) ** 2 + 1.0) for c in (-6.0, 6.0))
        system = ModelSystem(grid, u, np.zeros((48, 48)), 1, BOX)
        ground = hartree_fock._scf(system, [None], 500, 1e-10)[0]
        assert ground.converged
        assert ground.eigenvalues[1] - ground.eigenvalues[0] < 1e-5
        with pytest.warns(UserWarning, match=f"{AUFBAU_WARNING} .occupied-projector deficit 1,"):
            upper = hartree_fock._scf(system, [None], 500, 1e-10, _excited_guess(system))[0]
        assert upper.final_residual < 1e-10
        assert not upper.converged

    def test_singular_shifted_solve_falls_back(self):
        # theta = x^T F x = 1 exactly, an eigenvalue, while x is no eigenvector,
        # so F - theta I is exactly singular at the first solve
        f = np.diag([0.0, 1.0, 1.0, 2.0])[None]
        got = _lowest_orbital(f, np.full((1, 4), 0.5))
        assert np.array_equal(got[0, :, 0], [1.0, 0.0, 0.0, 0.0])

    def test_stopped_momentum_is_independent_of_its_neighbours(self, monkeypatch):
        f, vecs = _hermitian_stack([self.GAPPED] * 3, np.random.default_rng(14))
        rng = np.random.default_rng(15)
        guess = np.stack(
            [
                vecs[0, :, 0],  # converged: stops at the first check
                vecs[1, :, 0] + 1e-3 * rng.normal(size=12),  # needs solves
                vecs[2, :, 1] + 1e-3 * rng.normal(size=12),  # converges to the second pair
            ]
        )
        solved = []
        real_solve = np.linalg.solve

        def spy(a, b):
            solved.append(a.shape[0])
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        got = _lowest_orbital(f, guess)
        monkeypatch.undo()
        assert solved[0] == 2  # the first momentum left the stack before any solve
        expected = [0, 0, 1]  # the eigenpair each start leads to
        for i in range(3):
            alone = _lowest_orbital(f[i : i + 1], guess[i : i + 1])
            assert np.array_equal(got[i], alone[0])
            column = vecs[i, :, expected[i] : expected[i] + 1].copy()
            assert np.max(np.abs(got[i] - _fix_phases(column))) < 1e-12
        # the SCF verdict judges each momentum of a lockstep stack alone: a
        # start that is an eigenvector of F at k1 only stays excited there
        system = build_soft_coulomb_system((16, 0.5), 2.0, 1.0, 1, PERIODIC, kpoints=8)
        k1, k2 = (float(k) for k in system.kgrid[system.kgrid > 0][:2])
        with pytest.warns(UserWarning, match=f"SCF at k={k1!r} {AUFBAU_WARNING}") as caught:
            stack = hartree_fock._scf(system, [k1, k2], 500, 1e-10, _excited_guess(system, k1))
        assert len(caught) == 1
        assert [res.final_residual < 1e-10 for res in stack] == [True, True]
        assert [res.converged for res in stack] == [False, True]

    def test_core_guess_takes_no_eigh_of_the_complex_core_stack(self, monkeypatch):
        system = build_soft_coulomb_system((64, 0.5), 2.0, 1.0, 2, PERIODIC, kpoints=8)
        momenta = [float(k) for k in system.kgrid if k > 0]
        core = np.stack([core_hamiltonian(system, k) for k in momenta])
        eigh_inputs, guesses = [], []
        real_eigh, real_route = np.linalg.eigh, hartree_fock._lowest_orbital

        def eigh_spy(a):
            eigh_inputs.append(np.array(a))
            return real_eigh(a)

        def route_spy(f, guess):
            out = real_route(f, guess)
            guesses.append((np.array(f), out.copy()))
            return out

        monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
        monkeypatch.setattr(hartree_fock, "_lowest_orbital", route_spy)
        hartree_fock._scf(system, momenta, 500, 1e-10)
        monkeypatch.undo()
        # the seed is the real zone-centre core orbital; no core matrix at k > 0
        # reaches eigh, alone or in a stack
        assert any(not np.iscomplexobj(a) and a.ndim == 2 for a in eigh_inputs)
        for a in eigh_inputs:
            matrices = a.reshape(-1, *a.shape[-2:])
            assert not any(np.array_equal(m, c) for m in matrices for c in core)
        # the first route call solves the core stack: its result is the lowest column
        f, guess = guesses[0]
        assert np.array_equal(f, core)
        assert np.max(np.abs(guess - _eigh_lowest(core))) < 1e-12

    @pytest.mark.parametrize(
        "n_electrons,kpoints,depth", [(1, 8, 2.0), (2, 3, 2.0), (2, 8, 1.0), (2, 16, 2.2)]
    )
    def test_core_guess_keeps_iteration_counts(self, monkeypatch, n_electrons, kpoints, depth):
        # against the complex eigh of the core stack and an eigh every step
        system = build_soft_coulomb_system(
            (64, 0.5), depth, 1.0, n_electrons, PERIODIC, kpoints=kpoints
        )
        routed = band_structure(system)
        monkeypatch.setattr(hartree_fock, "_LOWEST_ORBITAL_MIN_POINTS", 65)
        reference = band_structure(system)
        assert np.all(routed.converged_per_k)
        for a, b in zip(routed.scf_results, reference.scf_results):
            assert (a.iterations, a.converged) == (b.iterations, b.converged)
        assert np.max(np.abs(routed.bands - reference.bands)) < 1e-12

    def test_route_matches_eigh_on_a_large_cell(self, monkeypatch):
        system = build_soft_coulomb_system((64, 0.5), 2.0, 1.0, 2, PERIODIC, kpoints=8)
        assert system.grid.npoints >= hartree_fock._LOWEST_ORBITAL_MIN_POINTS
        calls = []
        real_route = hartree_fock._lowest_orbital

        def spy(f, guess):
            calls.append(f.shape[0])
            return real_route(f, guess)

        monkeypatch.setattr(hartree_fock, "_lowest_orbital", spy)
        routed = band_structure(system)
        assert calls
        # band_structure solves the momenta k > 0 as one lockstep stack
        for res in routed.scf_results:
            if res.momentum <= 0.0:
                continue
            alone = hartree_fock._scf(system, [res.momentum], 500, 1e-10)[0]
            assert np.array_equal(alone.orbitals, res.orbitals)
            assert np.array_equal(alone.eigenvalues, res.eigenvalues)
            assert alone.residual_history == res.residual_history
            assert alone.energy_history == res.energy_history

        monkeypatch.setattr(hartree_fock, "_LOWEST_ORBITAL_MIN_POINTS", 65)
        calls.clear()
        reference = band_structure(system)
        assert not calls
        for a, b in zip(routed.scf_results, reference.scf_results):
            assert (a.iterations, a.converged) == (b.iterations, b.converged)
            assert abs(a.energy - b.energy) < 1e-13
        assert np.all(routed.converged_per_k)
        assert np.max(np.abs(routed.bands - reference.bands)) < 1e-13
