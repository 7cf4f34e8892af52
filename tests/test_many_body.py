import itertools
import math

import numpy as np
import pytest

from qpbench import many_body
from qpbench.many_body import (
    ci_hamiltonian,
    enumerate_determinants,
    exact_reduced_density_matrix,
    full_ci_ground_state,
    natural_occupations,
    one_body_integrals,
    orbital_basis,
    two_body_integrals,
)
from qpbench.model_system import (
    BOX,
    ModelSystem,
    build_soft_coulomb_system,
    core_hamiltonian,
    make_grid,
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
        assert all(label == "up" for p, label in enumerate(state.spin_labels) if p % 2 == 0)


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


class TestWavefunction:
    def test_normalized(self, well2):
        _, state = full_ci_ground_state(well2, orbital_cutoff=6)
        assert abs(state.norm() - 1.0) < 1e-12

    def test_amplitudes_antisymmetric_under_transposition(self, well2):
        _, state = full_ci_ground_state(well2, orbital_cutoff=6)
        rng = np.random.default_rng(3)
        checked = 0
        for det in state.determinants:
            if abs(state.amplitude(det)) < 1e-12:
                continue
            swapped = (det[1], det[0])
            assert state.amplitude(swapped) == pytest.approx(
                -state.amplitude(det), rel=1e-12
            )
            checked += 1
            if checked >= 10:
                break
        assert checked > 0
        # repeated index annihilates
        assert state.amplitude((3, 3)) == 0.0

    def test_tensor_norm_is_one(self, well2):
        _, state = full_ci_ground_state(well2, orbital_cutoff=5)
        amp = state.amplitude_tensor()
        assert np.sum(np.abs(amp) ** 2) == pytest.approx(1.0, abs=1e-12)


def spin_orbital_integrals(t, v):
    """Spin-orbital t_so[p, q] and <pq|v|rs>, built apart from the CI code."""
    n_so = 2 * t.shape[0]
    spatial = np.arange(n_so) // 2
    spin = np.arange(n_so) % 2
    same = spin[:, None] == spin[None, :]
    t_so = same * t[np.ix_(spatial, spatial)]
    v_so = (
        v[np.ix_(spatial, spatial, spatial, spatial)]
        * same[:, None, :, None]
        * same[None, :, None, :]
    )
    return t_so, v_so


def loop_slater_condon(d1, d2, t_so, v_so):
    """Per-pair Slater-Condon element: the loop reference for ``ci_hamiltonian``."""
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
    return np.array([[loop_slater_condon(a, b, t_so, v_so) for b in dets] for a in dets])


def integrals(system, cutoff):
    basis = orbital_basis(system, cutoff)
    return (
        one_body_integrals(basis, system),
        two_body_integrals(basis, system.interaction_kernel),
    )


class TestSlaterCondonAgainstDenseHamiltonian:
    def test_matrix_elements_match_first_quantized_route(self):
        # independent oracle: apply H on the full ordered-tuple space and
        # sandwich it between explicitly antisymmetrized amplitude tensors.
        # N = 3 checks the single-excitation sign with spectator electrons.
        for n_elec, sz in ((2, None), (3, 0.5)):
            system = build_soft_coulomb_system((10, 0.5), 1.5, 1.0, n_elec, BOX)
            t, v = integrals(system, 3)
            t_so, v_so = spin_orbital_integrals(t, v)
            n_so = 6
            dets = enumerate_determinants(n_so, n_elec, sz=sz)
            h_ci = ci_hamiltonian(dets, t, v)

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
        sectors = [None] + [0.5 * k for k in range(-n_elec, n_elec + 1, 2)]
        for sz in sectors:
            dets = enumerate_determinants(8, n_elec, sz=sz)
            expect = loop_hamiltonian(dets, t, v)
            assert np.max(np.abs(ci_hamiltonian(dets, t, v) - expect)) < 1e-13

    def test_row_blocks_do_not_change_the_matrix(self, monkeypatch):
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 4, BOX)
        t, v = integrals(system, 5)
        dets = enumerate_determinants(10, 4)
        whole = ci_hamiltonian(dets, t, v)
        monkeypatch.setattr(many_body, "_PAIR_BLOCK", 97)
        assert np.array_equal(ci_hamiltonian(dets, t, v), whole)


class TestSpinSector:
    @pytest.mark.parametrize("n_elec", [1, 2, 3, 4])
    def test_default_sector_holds_the_full_space_ground_state(self, n_elec):
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, n_elec, BOX)
        t, v = integrals(system, 4)
        full = loop_hamiltonian(enumerate_determinants(8, n_elec), t, v)
        energy, state = full_ci_ground_state(system, orbital_cutoff=4)
        assert energy == pytest.approx(np.linalg.eigvalsh(full)[0], abs=1e-12)
        assert state.sz == 0.5 * (n_elec % 2)
        assert len(state.determinants) < full.shape[0]


class TestReducedDensityMatrices:
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
        assert rho1.hermiticity_error() < 1e-12
        assert rho1.min_eigenvalue() >= -1e-10

    def test_contraction_consistency(self):
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 3, BOX)
        _, state = full_ci_ground_state(system, orbital_cutoff=3)
        rho1 = exact_reduced_density_matrix(state, 1)
        rho2 = exact_reduced_density_matrix(state, 2)
        contracted = rho2.contract_last_coordinate()
        expect = (state.n_electrons - 1) * rho1.matrix
        assert np.max(np.abs(contracted.matrix - expect)) < 1e-10

    def test_out_of_range_order_rejected(self, well2):
        _, state = full_ci_ground_state(well2, orbital_cutoff=4)
        with pytest.raises(ValueError, match="order"):
            exact_reduced_density_matrix(state, 3)

    def test_natural_occupations_sum_to_n(self, well2):
        _, state = full_ci_ground_state(well2, orbital_cutoff=6)
        occ = natural_occupations(state)
        assert np.sum(occ) == pytest.approx(2.0, abs=1e-10)
        assert occ[0] > occ[-1]
