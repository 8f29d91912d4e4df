"""Quantum Fisher information for phase estimation under covariant noise.

A phase omega is imprinted by the Hamiltonian (omega/2) sigma_z while the
qubit decoheres under a phase-covariant generator.  Because the rotation
commutes with the noise, the transverse Bloch components rotate rigidly at
rate omega while contracting by alpha(t); the Fisher information for omega
reduces to t^2 C(t)^2 with C the l1-norm of coherence, so preserving
coherence directly preserves metrological power.

The module evaluates no channel: its formulas take the coefficients that
``covariant.channel_grid`` returns, elementwise over arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularPureState

PURE_TOL = 1e-12
TANGENT_TOL = 1e-9


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


def bloch_with_phase(alpha, shift, omega, t) -> np.ndarray:
    """Bloch vector at time t of the |+> probe, including the phase rotation.

    ``alpha`` and ``shift`` are the channel's coefficients at t.  Elementwise
    over arrays, with the three components along the last axis.
    """
    angle = omega * t
    return np.stack([alpha * np.cos(angle), alpha * np.sin(angle), -shift], axis=-1)


def fisher_from_coherence(t, c):
    """Fisher information t^2 C^2 of a probe with l1-coherence C at time t.

    For the |+> probe C = alpha and this is its Fisher information for any
    phase omega: the derivative of :func:`bloch_with_phase` is a pure
    rotation of the transverse components, so the radial term of
    :func:`fisher_information_bloch` vanishes.  Elementwise over arrays.
    Exactly 0 where C = 0, also at times where t^2 overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(c == 0.0, 0.0, t * t * c * c)[()]


def cramer_rao_bound(fisher):
    """Lower bound 1 / F on the variance of any unbiased estimator.

    Elementwise over arrays; inf where F <= 1e-300.
    """
    fisher = np.asarray(fisher, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(fisher <= 1e-300, np.inf, 1.0 / fisher)[()]
