"""Process-matrix characterization and the optical channel construction.

The process matrix of a qubit channel is F_ij = Tr[G_i Lambda(G_j)] in the
orthonormal basis G_i = sigma_i / sqrt(2); for an affine Bloch map (M, v)
it has the block form [[1, 0], [v, M]].  The moduli of its eigenvalues
diagnose divisibility of the dynamics.  Both are plain arrays, and a stack
of maps gives a stack of process matrices and of moduli.

The module also simulates, exactly and without shot noise, a linear-optics
realization of the coherence-optimal channel: a balanced two-path
interferometer whose branches conjugate the polarization by fixed wave
plates around a birefringent-crystal dephasing with Gaussian decoherence
factor kappa.  Mixing the branches yields the Bloch action

    r -> ((1 + |kappa|) r1 / 2, (1 + |kappa|) r2 / 2, |kappa| r3),

the x = 0 optimal covariant channel with exp(-2 a t) = |kappa|.
"""

from __future__ import annotations

import numpy as np

from . import qstate

#: Refractive index difference between the two polarizations.
INDEX_DIFFERENCE = 0.0089
#: Standard deviation of the photon frequency distribution, Hz.
FREQUENCY_SPREAD = 1.44e12


def f_matrix(matrix, shift=None) -> np.ndarray:
    """Process matrix F_ij = Tr[G_i Lambda(G_j)] of an affine Bloch map.

    Stacks of maps, of shapes (..., 3, 3) and (..., 3), give a stack.
    """
    m = np.asarray(matrix, dtype=float)
    v = np.zeros(3) if shift is None else np.asarray(shift, dtype=float)
    f = np.zeros(m.shape[:-2] + (4, 4))
    f[..., 0, 0] = 1.0
    f[..., 1:, 0] = v
    f[..., 1:, 1:] = m
    return f


def process_moduli(f) -> np.ndarray:
    """Moduli of the eigenvalues of a process matrix, sorted descending.

    A stack of process matrices gives one row of four moduli per matrix.
    """
    return np.sort(np.abs(np.linalg.eigvals(f)), axis=-1)[..., ::-1]


def exponent(t: float) -> float:
    """Dimensionless decoherence exponent s = delta^2 dn^2 t^2 / 2.

    delta is ``FREQUENCY_SPREAD`` and dn is ``INDEX_DIFFERENCE``.
    """
    return 0.5 * (FREQUENCY_SPREAD * INDEX_DIFFERENCE * t) ** 2


def channel_from_exponent(s) -> tuple[np.ndarray, np.ndarray]:
    """Affine Bloch map of the optical channel at decoherence exponent s;
    an array of exponents gives a stack of maps."""
    mag = np.exp(-np.asarray(s, dtype=float))
    matrix = np.zeros(mag.shape + (3, 3))
    matrix[..., 0, 0] = matrix[..., 1, 1] = 0.5 * (1.0 + mag)
    matrix[..., 2, 2] = mag
    return matrix, np.zeros(mag.shape + (3,))


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


def spectrum_moduli(s) -> np.ndarray:
    """Moduli of the process-matrix spectrum at decoherence exponent s.

    Equals {1, (1 + e^-s)/2, (1 + e^-s)/2, e^-s}, sorted descending; an
    array of exponents gives one row of four moduli per exponent.
    """
    s = np.asarray(s, dtype=float)
    if (s < 0).any():
        raise ValueError("exponent must be nonnegative")
    mag = np.exp(-s)
    half = 0.5 * (1.0 + mag)
    return np.stack([np.ones_like(mag), half, half, mag], axis=-1)

