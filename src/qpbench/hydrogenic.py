"""The charged vector-boson energy expansion and its asymptotic mass shift.

The boson energy is the closed-form quasirelativistic series truncated at
sixth order in the coupling; extrapolating twice its large-n limit recovers
the rest mass, which downstream code reads as the asymptotic mass shift.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BosonSpectrumParams:
    """Mass, coupling and quantum numbers of the bound-boson level."""

    mass: float
    gamma: float
    n: int
    k: int

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("coupling gamma must lie in [0, 1)")
        if self.n < 1:
            raise ValueError("principal quantum number must be >= 1")
        if self.k == 0:
            raise ValueError("quantum number k must be nonzero")


def boson_energy(params: BosonSpectrumParams) -> float:
    """Bound charged-boson energy, truncated at sixth order in the coupling.

    E = m/2 - m g^2/(2 n^2) - (m g^4 / 8 n^3)(4/|k| - 3/n)
        - (m g^6 / 8 n^4)(3/n^2 - 8/(n |k|) + 4/k^2)
    """
    m = params.mass
    g = params.gamma
    n = float(params.n)
    ak = float(abs(params.k))
    term0 = m / 2.0
    term2 = m * g**2 / (2.0 * n**2)
    term4 = (m * g**4 / (8.0 * n**3)) * (4.0 / ak - 3.0 / n)
    term6 = (m * g**6 / (8.0 * n**4)) * (3.0 / n**2 - 8.0 / (n * ak) + 4.0 / ak**2)
    return term0 - term2 - term4 - term6


def mass_operator_limit(
    mass: float, gamma: float, k: int, n_sequence: list[int]
) -> float:
    """Asymptotic mass shift: limit of twice the boson energy as n grows.

    Two-level Richardson extrapolation on the last three sequence members,
    eliminating the 1/n^2 and then the 1/n^3 finite-n corrections.
    """
    ns = list(n_sequence)
    if len(ns) < 3:
        raise ValueError("need at least three n values to extrapolate")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_sequence must be strictly increasing")
    n0, n1, n2 = ns[-3:]
    y = [
        2.0 * boson_energy(BosonSpectrumParams(mass=mass, gamma=gamma, n=n, k=k))
        for n in (n0, n1, n2)
    ]
    u = [1.0 / n0, 1.0 / n1, 1.0 / n2]

    def eliminate_quadratic(i: int, j: int) -> float:
        return (u[i] ** 2 * y[j] - u[j] ** 2 * y[i]) / (u[i] ** 2 - u[j] ** 2)

    def cubic_weight(i: int, j: int) -> float:
        return u[i] ** 2 * u[j] ** 2 / (u[i] + u[j])

    z01 = eliminate_quadratic(0, 1)
    z12 = eliminate_quadratic(1, 2)
    f01 = cubic_weight(0, 1)
    f12 = cubic_weight(1, 2)
    return (f12 * z01 - f01 * z12) / (f12 - f01)
