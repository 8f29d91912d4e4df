"""Process-matrix characterization and the optical channel construction.

The process matrix of a qubit channel is F_ij = Tr[G_i Lambda(G_j)] in the
orthonormal basis G_i = sigma_i / sqrt(2); for an affine Bloch map (M, v)
it has the block form [[1, 0], [v, M]].  The moduli of its eigenvalues
diagnose divisibility of the dynamics.

The module also simulates, exactly and without shot noise, a linear-optics
realization of the coherence-optimal channel: a balanced two-path
interferometer whose branches conjugate the polarization by fixed wave
plates around a birefringent-crystal dephasing with Gaussian decoherence
factor kappa.  Mixing the branches yields the Bloch action

    r -> ((1 + |kappa|) r1 / 2, (1 + |kappa|) r2 / 2, |kappa| r3),

the x = 0 optimal covariant channel with exp(-2 a t) = |kappa|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lindblad, qstate

#: Refractive index difference between the two polarizations.
INDEX_DIFFERENCE = 0.0089
#: Standard deviation of the photon frequency distribution, Hz.
FREQUENCY_SPREAD = 1.44e12
#: Central frequency of the photons, rad/s (only enters the kappa phase).
CENTRAL_FREQUENCY = 2.42e15


@dataclass(frozen=True)
class ProcessMatrix:
    """Real 4x4 process matrix and its eigenvalues."""

    matrix: np.ndarray
    eigenvalues: np.ndarray

    @property
    def moduli(self) -> np.ndarray:
        """Eigenvalue moduli sorted descending, ties broken by real part."""
        order = np.lexsort((-self.eigenvalues.real, -np.abs(self.eigenvalues)))
        return np.abs(self.eigenvalues)[order]


def f_matrix(matrix, shift=None) -> ProcessMatrix:
    """Process matrix F_ij = Tr[G_i Lambda(G_j)] of an affine Bloch map."""
    m = np.asarray(matrix, dtype=float)
    v = np.zeros(3) if shift is None else np.asarray(shift, dtype=float)
    f = np.zeros((4, 4))
    f[0, 0] = 1.0
    f[1:, 0] = v
    f[1:, 1:] = m
    return ProcessMatrix(matrix=f, eigenvalues=np.linalg.eigvals(f))


def basis_decomposition(index: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Two physical states whose scaled difference is G_index.

    For index in {1, 2, 3} returns (rho1, rho2, c) with
    (rho1 - rho2) / c = sigma_index / sqrt(2); both states are the pure
    eigenstates of sigma_index and c = sqrt(2).  This is what makes the
    process matrix measurable from channel outputs on physical states.
    """
    if index not in (1, 2, 3):
        raise ValueError("index must be 1, 2 or 3")
    axis = np.zeros(3)
    axis[index - 1] = 1.0
    rho1 = qstate.bloch_to_density(axis)
    rho2 = qstate.bloch_to_density(-axis)
    return rho1, rho2, float(np.sqrt(2.0))


def exponent(t: float) -> float:
    """Dimensionless decoherence exponent s = delta^2 dn^2 t^2 / 2.

    delta is ``FREQUENCY_SPREAD`` and dn is ``INDEX_DIFFERENCE``.
    """
    return 0.5 * (FREQUENCY_SPREAD * INDEX_DIFFERENCE * t) ** 2


def time_for_exponent(s: float) -> float:
    """Interaction time realizing a given decoherence exponent."""
    if s < 0:
        raise ValueError("exponent must be nonnegative")
    return float(np.sqrt(2.0 * s) / (FREQUENCY_SPREAD * INDEX_DIFFERENCE))


def decoherence_factor(t: float) -> complex:
    """kappa(t) = exp(-s - i dn omega0 t), omega0 = ``CENTRAL_FREQUENCY``."""
    return complex(
        np.exp(-exponent(t)) * np.exp(-1j * INDEX_DIFFERENCE * CENTRAL_FREQUENCY * t)
    )


def channel_from_exponent(s: float) -> tuple[np.ndarray, np.ndarray]:
    """Affine Bloch map of the optical channel at decoherence exponent s."""
    mag = float(np.exp(-s))
    matrix = np.diag([0.5 * (1.0 + mag), 0.5 * (1.0 + mag), mag])
    return matrix, np.zeros(3)


def optical_channel(t: float) -> tuple[np.ndarray, np.ndarray]:
    """Affine Bloch map realized by the interferometer after time t.

    Path phases are removed by compensators, so only |kappa| enters; the
    phased decoherence factor is available from :func:`decoherence_factor`.
    """
    return channel_from_exponent(exponent(t))


def half_wave(angle_deg: float) -> np.ndarray:
    """Jones matrix of a half-wave plate at the given plate angle (degrees)."""
    a = np.deg2rad(angle_deg)
    return np.array(
        [[np.cos(2 * a), np.sin(2 * a)], [np.sin(2 * a), -np.cos(2 * a)]],
        dtype=complex,
    )


def quarter_wave(angle_deg: float) -> np.ndarray:
    """Jones matrix of a quarter-wave plate at the given plate angle (degrees)."""
    a = np.deg2rad(angle_deg)
    rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]], dtype=complex)
    return rot @ np.diag([1.0, 1.0j]).astype(complex) @ rot.conj().T


def _dephase(rho: np.ndarray, mag: float) -> np.ndarray:
    out = rho.copy()
    out[0, 1] *= mag
    out[1, 0] *= mag
    return out


def beam_splitter_map(kappa_mag: float) -> tuple[np.ndarray, np.ndarray]:
    """Bloch map of the balanced two-branch construction, built explicitly.

    Each branch conjugates the state into the crystal frame, dephases the
    off-diagonal elements by |kappa|, and undoes the conjugation; the two
    outputs are mixed with equal weight.  The branch unitaries are the
    half-wave plate at 22.5 degrees and that plate preceded by a
    quarter-wave plate at 0 degrees.
    """
    u1 = half_wave(22.5)
    u2 = half_wave(22.5) @ quarter_wave(0.0)

    def channel(rho):
        total = np.zeros((2, 2), dtype=complex)
        for u in (u1, u2):
            total += 0.5 * u.conj().T @ _dephase(u @ rho @ u.conj().T, kappa_mag) @ u
        return total

    matrix = np.zeros((3, 3))
    image_zero = channel(qstate.SIGMA_0 / 2.0)
    shift = qstate.density_to_bloch(image_zero)
    for k in range(3):
        plus = channel(qstate.bloch_to_density(np.eye(3)[k]))
        matrix[:, k] = qstate.density_to_bloch(plus) - shift
    return matrix, shift


def spectrum_moduli(s: float) -> np.ndarray:
    """Moduli of the process-matrix spectrum at decoherence exponent s.

    Equals {1, (1 + e^-s)/2, (1 + e^-s)/2, e^-s}, sorted descending.
    """
    if s < 0:
        raise ValueError("exponent must be nonnegative")
    mag = float(np.exp(-s))
    return np.array([1.0, 0.5 * (1.0 + mag), 0.5 * (1.0 + mag), mag])


def choi_of_optical_channel(s: float) -> np.ndarray:
    """Choi matrix of the optical channel at decoherence exponent s."""
    matrix, shift = channel_from_exponent(s)
    return lindblad.choi_of_map(matrix, shift)
