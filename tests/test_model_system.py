import numpy as np
import pytest

from qpbench.model_system import (
    BOX,
    PERIODIC,
    Grid,
    ModelSystem,
    bloch_laplacian,
    build_soft_coulomb_system,
    laplacian_matrix,
    make_grid,
    soft_coulomb_kernel,
    symmetric_kgrid,
)


class TestGrid:
    def test_make_grid_centered_and_uniform(self):
        grid = make_grid(16, 0.5)
        assert grid.npoints == 16
        assert grid.length == pytest.approx(8.0)
        assert np.allclose(np.diff(grid.points), 0.5)
        assert abs(grid.points[0] + grid.points[-1]) < 1e-14

    def test_nonuniform_points_rejected(self):
        pts = np.array([0.0, 1.0, 2.5])
        with pytest.raises(ValueError, match="uniform"):
            Grid(points=pts, spacing=1.0)

    def test_decreasing_points_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            Grid(points=np.array([0.0, -1.0]), spacing=1.0)


class TestSoftCoulombKernel:
    def test_zero_separation_is_inverse_softening(self):
        v = soft_coulomb_kernel(np.array([0.3, 0.3 + 4.0]), softening=1.0)
        assert v[0, 0] == 1.0
        assert v[1, 1] == 1.0

    def test_root_three_separation(self):
        v = soft_coulomb_kernel(np.array([0.0, np.sqrt(3.0)]), softening=1.0)
        assert v[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_box_construction_scanned_directly(self):
        system = build_soft_coulomb_system((64, 0.25), 2.0, 1.0, 2, BOX)
        v = system.interaction_kernel
        assert np.array_equal(v, v.T)
        # independent scan: every entry against the closed form
        pts = system.grid.points
        for i in (0, 13, 40, 63):
            for j in (0, 7, 31, 63):
                expect = 1.0 / np.sqrt((pts[i] - pts[j]) ** 2 + 1.0)
                assert v[i, j] == pytest.approx(expect, rel=1e-14)
        # well minimum sits at the grid center
        center = np.argmin(system.external_potential)
        assert abs(pts[center]) <= system.grid.spacing / 2

    def test_nonpositive_softening_rejected(self):
        with pytest.raises(ValueError, match="softening"):
            build_soft_coulomb_system((16, 0.5), 2.0, 0.0, 2, BOX)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError, match="grid too small"):
            build_soft_coulomb_system((6, 0.5), 2.0, 1.0, 2, BOX)


class TestModelSystemInvariants:
    def test_asymmetric_kernel_rejected(self):
        grid = make_grid(8, 0.5)
        v = np.zeros((8, 8))
        v[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            ModelSystem(grid, np.zeros(8), v, 2, BOX)

    def test_periodic_needs_kgrid(self):
        grid = make_grid(8, 0.5)
        with pytest.raises(ValueError, match="kgrid"):
            ModelSystem(grid, np.zeros(8), np.zeros((8, 8)), 2, PERIODIC)

    def test_periodic_potential_has_lattice_period(self):
        system = build_soft_coulomb_system(
            (16, 0.5), 2.0, 1.0, 2, PERIODIC, kpoints=4, wells=2
        )
        u = system.external_potential
        # two wells per cell: the potential repeats after half a cell
        assert np.max(np.abs(u - np.roll(u, 8))) < 1e-12

    def test_periodic_pair_kernel_uses_open_chain_distances(self):
        # a documented choice: only the external potential wraps by minimum
        # image; switching the kernel too would change every periodic output
        system = build_soft_coulomb_system(
            (16, 0.5), 2.0, 1.0, 2, PERIODIC, kpoints=4
        )
        pts = system.grid.points
        v = system.interaction_kernel
        assert np.array_equal(v, soft_coulomb_kernel(pts, 1.0))
        # the grid ends sit one spacing apart by minimum image, 7.5 apart here
        assert v[0, -1] == pytest.approx(1.0 / np.sqrt(7.5**2 + 1.0), rel=1e-14)

    def test_snapshot_roundtrips_key_fields(self):
        system = build_soft_coulomb_system((16, 0.5), 2.0, 1.0, 2, BOX)
        snap = system.snapshot()
        assert snap["npoints"] == 16
        assert snap["boundary"] == "box"
        assert snap["kernel"]["softening"] == 1.0


class TestKgrid:
    @pytest.mark.parametrize("count", [1, 4, 5, 8, 9])
    def test_symmetric_under_negation(self, count):
        kg = symmetric_kgrid(count, 8.0)
        assert kg.size == count
        assert np.array_equal(np.sort(kg), np.sort(-kg))

    def test_empty_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            symmetric_kgrid(0, 8.0)

    def test_odd_count_contains_zone_center(self):
        kg = symmetric_kgrid(5, 8.0)
        assert 0.0 in kg

    def test_inside_first_zone(self):
        kg = symmetric_kgrid(8, 8.0)
        assert np.all(np.abs(kg) < np.pi / 8.0)


class TestLaplacian:
    def test_three_point_box_stencil(self):
        grid = make_grid(3, 0.5)
        lap = laplacian_matrix(grid, BOX)
        h2 = 0.25
        expect = np.array([[-2, 1, 0], [1, -2, 1], [0, 1, -2]]) / h2
        assert np.array_equal(lap, expect)

    def test_periodic_annihilates_constants(self):
        grid = make_grid(12, 0.5)
        lap = laplacian_matrix(grid, PERIODIC)
        assert np.max(np.abs(lap @ np.ones(12))) < 1e-12

    def test_plane_wave_eigenvalue(self):
        # analytic stencil eigenvalue -(2/h^2)(1 - cos kh), by direct multiplication
        grid = make_grid(16, 0.5)
        lap = laplacian_matrix(grid, PERIODIC)
        k = 2.0 * np.pi * 3 / grid.length  # commensurate wave
        wave = np.exp(1j * k * grid.points)
        expect = -(2.0 / grid.spacing**2) * (1.0 - np.cos(k * grid.spacing))
        assert np.max(np.abs(lap @ wave - expect * wave)) < 1e-10

    def test_kinetic_positive_semidefinite(self):
        for boundary in (BOX, PERIODIC):
            grid = make_grid(20, 0.3)
            kinetic = -0.5 * laplacian_matrix(grid, boundary)
            assert np.array_equal(kinetic, kinetic.T)
            assert np.linalg.eigvalsh(kinetic)[0] >= -1e-10

    def test_bloch_twist_is_hermitian(self):
        grid = make_grid(10, 0.5)
        lap = bloch_laplacian(grid, 0.37)
        assert np.max(np.abs(lap - lap.conj().T)) < 1e-14

    def test_momentum_rejected_on_box_systems(self):
        from qpbench.model_system import core_hamiltonian

        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 2, BOX)
        with pytest.raises(ValueError, match="periodic"):
            core_hamiltonian(system, k=0.3)
