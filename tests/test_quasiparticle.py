import numpy as np
import pytest

from qpbench.hartree_fock import band_structure
from qpbench.model_system import build_soft_coulomb_system
from qpbench.quasiparticle import (
    HEAVY,
    LIGHT,
    assemble_level,
    band_midpoint,
    classify_regime,
    mass_shift,
    reference_point,
    strict_reference,
    zone_reference,
)


@pytest.fixture(scope="module")
def crystal_bands():
    system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 2, "periodic", kpoints=8)
    return system, band_structure(system)


@pytest.fixture(scope="module")
def crystal_bands_gamma():
    # odd momentum count puts the zone center on the grid
    system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 2, "periodic", kpoints=9)
    return system, band_structure(system)


class TestReferencePoint:
    def test_cosine_maximum(self):
        samples = np.cos(np.linspace(-np.pi, np.pi, 41))
        assert reference_point(samples, 1, "max") == pytest.approx(1.0)

    def test_cosine_minimum_scaled_by_electron_count(self):
        samples = np.cos(np.linspace(-np.pi, np.pi, 41))
        assert reference_point(samples, 2, "min") == pytest.approx(-0.5)

    def test_matches_exhaustive_scan(self, crystal_bands):
        _, bands = crystal_bands
        ref = reference_point(bands.bands[0], 2, "min")
        assert ref == min(e / 2 for e in bands.bands[0])

    def test_unconverged_band_rejected(self):
        with pytest.raises(ValueError, match="not converged"):
            reference_point(np.array([1.0]), 1, "min", converged=False)

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            reference_point(np.array([]), 1, "min")

    def test_midpoint_diagnostic(self):
        assert band_midpoint(np.array([1.0, 3.0, 2.0])) == 2.0


class TestMassShift:
    def test_zero_kernel(self, crystal_bands):
        system, bands = crystal_bands
        sigma = np.zeros((system.grid.npoints, system.grid.npoints))
        shift = mass_shift(0, sigma, list(bands.scf_results), bands.kgrid)
        assert shift.delta_m0 == 0.0
        assert np.max(np.abs(shift.delta_mk)) == 0.0

    def test_constant_kernel_shifts_zone_center_only(self, crystal_bands):
        system, bands = crystal_bands
        sigma = 0.7 * np.eye(system.grid.npoints)
        shift = mass_shift(0, sigma, list(bands.scf_results), bands.kgrid)
        assert shift.delta_m0 == pytest.approx(0.7, abs=1e-12)
        assert np.max(np.abs(shift.delta_mk)) < 1e-12

    def test_cosine_kernel_is_even_in_momentum(self, crystal_bands):
        system, bands = crystal_bands
        dim = system.grid.npoints
        kernels = np.array([0.4 * np.cos(k) * np.eye(dim) for k in bands.kgrid])
        shift = mass_shift(0, kernels, list(bands.scf_results), bands.kgrid)
        # symmetric momentum grid: entry i pairs with the mirrored entry
        assert np.max(np.abs(shift.delta_mk - shift.delta_mk[::-1])) < 1e-12

    def test_even_nondiagonal_kernel_is_even_in_momentum(self, crystal_bands):
        system, bands = crystal_bands
        dim = system.grid.npoints
        rng = np.random.default_rng(31)
        base = rng.normal(size=(dim, dim))
        base = 0.1 * (base + base.T)
        kernels = np.array([np.cos(k) * base for k in bands.kgrid])
        shift = mass_shift(0, kernels, list(bands.scf_results), bands.kgrid)
        assert np.max(np.abs(shift.delta_mk - shift.delta_mk[::-1])) < 1e-10

    def test_zone_center_sample_agrees_with_extrapolation(self, crystal_bands_gamma):
        system, bands = crystal_bands_gamma
        dim = system.grid.npoints
        kernels = np.array([0.4 * np.cos(k) * np.eye(dim) for k in bands.kgrid])
        shift = mass_shift(0, kernels, list(bands.scf_results), bands.kgrid)
        center = int(np.argmin(np.abs(bands.kgrid)))
        assert bands.kgrid[center] == 0.0
        assert shift.raw[center] == pytest.approx(shift.delta_m0, abs=1e-8)
        assert abs(shift.delta_mk[center]) < 1e-8

    def test_non_hermitian_kernel_rejected(self, crystal_bands):
        system, bands = crystal_bands
        dim = system.grid.npoints
        bad = np.zeros((dim, dim))
        bad[0, 1] = 1.0
        kernels = np.array([bad for _ in bands.kgrid])
        with pytest.raises(ValueError, match="Hermitian"):
            mass_shift(0, kernels, list(bands.scf_results), bands.kgrid)

    def test_nan_kernel_rejected(self, crystal_bands):
        # a NaN shift would otherwise reach classify_regime and read as light
        system, bands = crystal_bands
        dim = system.grid.npoints
        kernel = 0.2 * np.eye(dim)
        kernel[1, 2] = kernel[2, 1] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            mass_shift(0, kernel, list(bands.scf_results), bands.kgrid)

    def test_nan_table_row_rejected(self, crystal_bands):
        system, bands = crystal_bands
        dim = system.grid.npoints
        kernels = np.array([0.4 * np.cos(k) * np.eye(dim) for k in bands.kgrid])
        kernels[3, 0, 0] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            mass_shift(0, kernels, list(bands.scf_results), bands.kgrid)

    def test_table_not_aligned_with_kgrid_rejected(self, crystal_bands):
        system, bands = crystal_bands
        dim = system.grid.npoints
        kernels = np.zeros((bands.kgrid.size - 1, dim, dim))
        with pytest.raises(ValueError, match="does not match"):
            mass_shift(0, kernels, list(bands.scf_results), bands.kgrid)
        with pytest.raises(ValueError, match="does not match"):
            mass_shift(0, np.zeros((dim + 1, dim + 1)), list(bands.scf_results), bands.kgrid)


class TestZoneReference:
    def test_heavy_pair_from_shift_of_two(self):
        plus, minus, pair = zone_reference(0.0, 2.0)
        assert (plus, minus, pair) == (-1.0, 1.0, -1.0)

    def test_vanishing_shift_degenerates_levels(self):
        plus, minus, pair = zone_reference(0.7, 0.0)
        assert plus == minus == pytest.approx(0.35)
        assert pair == 0.0

    def test_degenerate_pair_at_half_extremum(self):
        plus, minus, pair = zone_reference(4.0, 0.0)
        assert plus == 2.0 and minus == 2.0 and pair == 0.0

    def test_pair_is_half_level_splitting(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            plus, minus, pair = zone_reference(rng.uniform(-4, 4), rng.uniform(-4, 4))
            assert pair == 0.5 * (plus - minus)


class TestStrictReference:
    def test_reduces_to_plain_reference_without_interaction(self):
        assert strict_reference(-0.7, 0.0) == -0.7

    def test_arithmetic(self):
        assert strict_reference(-0.5, 0.1) == pytest.approx(-0.6)

    def test_affine_in_both_arguments(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a, b, da, db = rng.uniform(-3, 3, size=4)
            lhs = strict_reference(a + da, b + db)
            rhs = strict_reference(a, b) + da - db
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_constant_kernel_shifts_reference_by_its_scale(self, crystal_bands):
        # paired runs differing only in the kernel scale
        system, bands = crystal_bands
        dim = system.grid.npoints
        results = list(bands.scf_results)
        shift0 = mass_shift(0, np.zeros((dim, dim)), results, bands.kgrid)
        shiftc = mass_shift(0, 0.3 * np.eye(dim), results, bands.kgrid)
        extr = reference_point(bands.bands[0], 2, "min")
        ref0 = strict_reference(extr, shift0.delta_m0)
        refc = strict_reference(extr, shiftc.delta_m0)
        assert refc - ref0 == pytest.approx(-0.3, abs=1e-12)


class TestRegime:
    def test_zero_shift_is_light(self):
        assert classify_regime(0.0) == LIGHT

    def test_heavy_above_threshold(self):
        assert classify_regime(2.0) == HEAVY

    def test_boundary_inclusive(self):
        assert classify_regime(1.0) == HEAVY

    def test_intermediate_warns_and_defaults_light(self):
        with pytest.warns(UserWarning, match="between"):
            assert classify_regime(0.5) == LIGHT


class TestAssembledLevel:
    def test_invariants(self, crystal_bands):
        system, bands = crystal_bands
        dim = system.grid.npoints
        shift = mass_shift(
            0,
            1.5 * np.eye(dim),
            list(bands.scf_results),
            bands.kgrid,
        )
        level = assemble_level(0, bands.bands[0], shift, 2)
        assert level.pair_energy == 0.5 * (level.plus_level - level.minus_level)
        assert level.regime == HEAVY
        assert level.pair_energy == pytest.approx(-0.75, abs=1e-12)
        assert level.shifted_reference == pytest.approx(
            level.reference_epsilon0 + shift.delta_m0, abs=1e-12
        )

    def test_light_regime_has_no_pair_cost(self, crystal_bands):
        system, bands = crystal_bands
        shift = mass_shift(
            0,
            np.zeros((system.grid.npoints, system.grid.npoints)),
            list(bands.scf_results),
            bands.kgrid,
        )
        level = assemble_level(0, bands.bands[0], shift, 2)
        assert level.regime == LIGHT
        assert abs(level.pair_energy) <= 1e-10

    def test_gauge_constant_moves_levels_not_pair_energy(self, crystal_bands):
        system, bands = crystal_bands
        dim = system.grid.npoints
        shift = mass_shift(
            0,
            1.2 * np.eye(dim),
            list(bands.scf_results),
            bands.kgrid,
        )
        base = assemble_level(0, bands.bands[0], shift, 2, offset_constant=0.0)
        moved = assemble_level(0, bands.bands[0], shift, 2, offset_constant=0.5)
        assert moved.pair_energy == pytest.approx(base.pair_energy, abs=1e-14)
        assert moved.plus_level == pytest.approx(base.plus_level - 0.25, abs=1e-14)
