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
