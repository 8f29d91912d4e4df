"""Quantum Fisher information for phase estimation under covariant noise.

A phase omega is imprinted by the Hamiltonian (omega/2) sigma_z while the
qubit decoheres under a phase-covariant generator.  Because the rotation
commutes with the noise, the transverse Bloch components rotate rigidly at
rate omega while contracting by alpha(t); the Fisher information for omega
reduces to t^2 C(t)^2 with C the l1-norm of coherence, so preserving
coherence directly preserves metrological power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import covariant, qstate
from .errors import SingularPureState, ZeroInformation

PURE_TOL = 1e-12
TANGENT_TOL = 1e-9


@dataclass(frozen=True)
class PhaseEstimationSetup:
    """Phase to estimate, covariant noise, and the probe's initial Bloch vector."""

    omega: float
    rates: covariant.CovariantRates
    initial: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self):
        qstate.bloch_to_density(self.initial)  # raises BlochOutOfBall outside the ball


def fisher_information_bloch(r, dr) -> float:
    """Fisher information from a Bloch vector and its parameter derivative.

    F = |dr|^2 + (r . dr)^2 / (1 - |r|^2); for pure states (|r| = 1) the
    derivative must be tangent to the sphere, otherwise the formula is
    singular and :class:`SingularPureState` is raised.
    """
    r = np.asarray(r, dtype=float)
    dr = np.asarray(dr, dtype=float)
    squared = float(r @ r)
    radial = float(r @ dr)
    value = float(dr @ dr)
    if squared >= 1.0 - PURE_TOL:
        if abs(radial) > TANGENT_TOL:
            raise SingularPureState("|r| = 1 with non-tangent derivative")
        return value
    return value + radial**2 / (1.0 - squared)


def bloch_with_phase(setup: PhaseEstimationSetup, t: float) -> np.ndarray:
    """Bloch vector at time t including the phase rotation."""
    ch = covariant.channel_at(setup.rates, t)
    r0 = setup.initial
    angle = setup.omega * t
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    return np.array(
        [
            ch.alpha * (cos_a * r0[0] - sin_a * r0[1]),
            ch.alpha * (sin_a * r0[0] + cos_a * r0[1]),
            ch.beta * r0[2] - ch.shift,
        ]
    )


def bloch_phase_derivative(setup: PhaseEstimationSetup, t: float) -> np.ndarray:
    """Analytic d r(t) / d omega: t times the z-rotation generator on r."""
    r = bloch_with_phase(setup, t)
    return t * np.array([-r[1], r[0], 0.0])


def fisher_from_coherence(t: float, c: float) -> float:
    """Fisher information t^2 C^2 of a probe with l1-coherence C at time t.

    Exactly 0 when C = 0, also at times where t^2 overflows.
    """
    if c == 0.0:
        return 0.0
    return float(t * t * c * c)


def fisher_information(setup: PhaseEstimationSetup, t: float) -> float:
    """Fisher information t^2 C(t)^2 of the covariant phase estimation.

    The radial term of the Bloch formula vanishes identically here because
    the derivative is a pure rotation of the transverse components.
    """
    r0 = setup.initial
    c0 = float(np.hypot(r0[0], r0[1]))
    return fisher_from_coherence(t, c0 * covariant.channel_at(setup.rates, t).alpha)


def cramer_rao_bound(fisher: float) -> float:
    """Lower bound 1 / F on the variance of any unbiased estimator."""
    if fisher <= 1e-300:
        raise ZeroInformation("Fisher information is zero")
    return 1.0 / float(fisher)
