"""Workbench-level acceptance gate.

Each criterion from the verification suite runs at its stated tolerance and
prints one pass/fail line; the whole module must be green for a release.
"""

import dataclasses

import pytest

from qpbench import hartree_fock, verification


@pytest.mark.parametrize(
    "check",
    [
        verification.check_rdm_normalization,
        verification.check_energy_functional,
        verification.check_self_action,
        verification.check_band_symmetry,
        verification.check_variational_ordering,
        verification.check_trace_identity,
        verification.check_dyson,
        verification.check_dressing_consistency,
        verification.check_quasiparticle_algebra,
        verification.check_boson_spectrum,
        verification.check_truncation_order,
        verification.check_determinism,
    ],
    ids=lambda fn: fn.__name__.removeprefix("check_"),
)
def test_criterion(check):
    result = verification.run_check(check)
    print(result.line())
    assert result.passed, result.detail


def test_band_symmetry_catches_a_corrupted_minus_k_fill(monkeypatch):
    # the band structure's own symmetry residuals stay zero whatever the fill
    # does; the check solves -k itself and sees the shifted bands
    real_fill = hartree_fock._time_reversed

    def shifted_fill(res, k):
        filled = real_fill(res, k)
        return dataclasses.replace(filled, eigenvalues=filled.eigenvalues + 1e-6)

    monkeypatch.setattr(hartree_fock, "_time_reversed", shifted_fill)
    result = verification.check_band_symmetry()
    assert not result.passed
    assert result.measured == pytest.approx(1e-6, rel=1e-3)


def test_trace_identity_catches_a_mean_field_without_exchange(monkeypatch):
    # the SCF's own Fock parts agree with its eigenvalues whatever the mean
    # field is; the J - K that the check rebuilds from the orbitals does not
    real_mean_field = hartree_fock._mean_field

    def without_exchange(system, h, density, kernel):
        hartree, exchange, total = real_mean_field(system, h, density, kernel)
        total += exchange
        exchange[...] = 0.0
        return hartree, exchange, total

    monkeypatch.setattr(hartree_fock, "_mean_field", without_exchange)
    result = verification.check_trace_identity()
    assert not result.passed
    assert result.measured < result.tolerance  # the Fock-part route alone passes
