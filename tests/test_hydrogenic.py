import numpy as np
import pytest

from qpbench.hydrogenic import (
    BosonSpectrumParams,
    boson_energy,
    mass_operator_limit,
)


class TestBosonEnergy:
    def test_free_coupling_gives_half_mass(self):
        for n, k in ((1, 1), (4, -2), (9, 3)):
            assert boson_energy(BosonSpectrumParams(1.0, 0.0, n, k)) == 0.5
        assert boson_energy(BosonSpectrumParams(3.0, 0.0, 2, 1)) == 1.5

    def test_frozen_reference_value(self):
        # independent term-by-term arithmetic, then the frozen literal
        m, g, n, k = 1.0, 0.1, 1, 1
        oracle = (
            m / 2
            - m * g**2 / (2 * n**2)
            - m * g**4 / (8 * n**3) * (4 / abs(k) - 3 / n)
            - m * g**6 / (8 * n**4) * (3 / n**2 - 8 / (n * abs(k)) + 4 / k**2)
        )
        value = boson_energy(BosonSpectrumParams(m, g, n, k))
        assert abs(oracle - 0.494987625) < 1e-15
        assert abs(value - 0.494987625) < 1e-15

    def test_large_n_limit(self):
        value = boson_energy(BosonSpectrumParams(1.0, 0.1, 10**6, 1))
        assert abs(value - 0.5) < 1e-11

    def test_linear_in_mass(self):
        base = boson_energy(BosonSpectrumParams(1.0, 0.3, 3, 2))
        for c in (0.5, 2.0, 7.25):
            scaled = boson_energy(BosonSpectrumParams(c, 0.3, 3, 2))
            assert abs(scaled - c * base) <= 1e-14 * abs(c * base)

    def test_monotone_in_principal_number(self):
        values = [
            boson_energy(BosonSpectrumParams(1.0, 0.1, n, 1)) for n in range(1, 101)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_sign_of_k_irrelevant(self):
        plus = boson_energy(BosonSpectrumParams(1.0, 0.2, 3, 2))
        minus = boson_energy(BosonSpectrumParams(1.0, 0.2, 3, -2))
        assert plus == minus

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(mass=0.0, gamma=0.1, n=1, k=1), "mass"),
            (dict(mass=1.0, gamma=1.0, n=1, k=1), "gamma"),
            (dict(mass=1.0, gamma=0.1, n=0, k=1), "principal"),
            (dict(mass=1.0, gamma=0.1, n=1, k=0), "nonzero"),
        ],
    )
    def test_parameter_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            BosonSpectrumParams(**kwargs)


class TestTruncationOrder:
    def test_residual_scales_at_least_quartically(self):
        n, k = 2, 1
        gammas = np.array([0.2, 0.1, 0.05, 0.025])
        resid = [
            abs(
                boson_energy(BosonSpectrumParams(1.0, float(g), n, k))
                - 0.5
                + g * g / (2 * n * n)
            )
            for g in gammas
        ]
        slope = np.polyfit(np.log(gammas), np.log(resid), 1)[0]
        assert slope >= 4.0


class TestMassOperatorLimit:
    def test_recovers_rest_mass(self):
        assert abs(mass_operator_limit(1.0, 0.1, 1, [10, 100, 1000]) - 1.0) < 1e-8

    def test_scales_with_mass(self):
        assert abs(mass_operator_limit(2.0, 0.1, 1, [10, 100, 1000]) - 2.0) < 1e-8

    def test_free_coupling_exact(self):
        assert abs(mass_operator_limit(1.0, 0.0, 3, [3, 7, 19]) - 1.0) < 1e-13

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError, match="three"):
            mass_operator_limit(1.0, 0.1, 1, [10, 100])

    def test_non_increasing_sequence_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            mass_operator_limit(1.0, 0.1, 1, [10, 10, 100])

