"""State algebra for one and two qubits.

Density matrices are plain complex numpy arrays; a single qubit is
rho = (1 + r . sigma) / 2 for its Bloch vector r.  Entropies are in bits
(base-2 logarithms throughout the package).  The entropy, partial trace,
partial transpose and Pauli expansion also map a (..., d, d) stack.
"""

from __future__ import annotations

import numpy as np

from .errors import BlochOutOfBall, NotAState

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Identity plus the three Pauli matrices, indexed 0..3.
PAULI = np.stack([SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z])

#: Two-qubit Pauli products, PAULI2[mu, nu] = kron(sigma_mu, sigma_nu).
PAULI2 = np.einsum("mab,ncd->mnacbd", PAULI, PAULI).reshape(4, 4, 4, 4)

_bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
#: Projector onto the maximally entangled state (|00> + |11>) / sqrt(2).
BELL_PROJECTOR = np.outer(_bell, _bell.conj())

BLOCH_TOL = 1e-9
PSD_TOL = 1e-9


def bloch_to_density(r) -> np.ndarray:
    """The qubit density matrix (1 + r . sigma) / 2 of a Bloch vector."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError("Bloch vector must have exactly 3 components")
    norm = float(np.linalg.norm(r))
    if not norm <= 1.0 + BLOCH_TOL:  # written so that a NaN norm fails too
        raise BlochOutOfBall(f"|r| = {norm} exceeds 1")
    return 0.5 * (SIGMA_0 + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z)


def density_to_bloch(rho) -> np.ndarray:
    """Bloch vector r_k = Tr[sigma_k rho] of a qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    return np.array([np.trace(s @ rho).real for s in PAULI[1:]])


def von_neumann_entropy(rho):
    """Von Neumann entropy -Tr[rho log2 rho] in bits.

    Nonpositive eigenvalues add nothing to the sum; an eigenvalue below
    -1e-9, or a non-finite entry, raises :class:`NotAState`.
    """
    rho = finite_states(rho)
    eig = np.linalg.eigvalsh(rho)
    if (eig < -PSD_TOL).any():
        raise NotAState(f"negative eigenvalue {eig.min()}")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(eig > 0.0, eig * np.log2(eig), 0.0)
    return -terms.sum(axis=-1)[()]


def partial_trace(rho, subsystem: str) -> np.ndarray:
    """Trace out one qubit of a two-qubit state.

    ``subsystem`` names the qubit that is removed ("A" is the first tensor
    factor); the reduced 2x2 state of the other qubit is returned.
    """
    rho = np.asarray(rho, dtype=complex).reshape(np.shape(rho)[:-2] + (2, 2, 2, 2))
    if subsystem == "B":
        return np.einsum("...abcb->...ac", rho)
    if subsystem == "A":
        return np.einsum("...abad->...bd", rho)
    raise ValueError("subsystem must be 'A' or 'B'")


def partial_transpose(rho) -> np.ndarray:
    """Partial transpose of a two-qubit state over the second qubit."""
    r = np.asarray(rho, dtype=complex).reshape(np.shape(rho)[:-2] + (2, 2, 2, 2))
    return r.swapaxes(-3, -1).reshape(np.shape(rho))


def trace_norm(m) -> float:
    """Trace norm ||M||_1, the sum of singular values."""
    m = np.asarray(m, dtype=complex)
    return float(np.linalg.svd(m, compute_uv=False).sum())


def finite_states(rho) -> np.ndarray:
    """A state or a stack of states as a complex array with finite entries.

    NaN compares false, so it would pass every tolerance check downstream;
    any non-finite entry raises :class:`NotAState` instead.
    """
    rho = np.asarray(rho, dtype=complex)
    if not np.isfinite(rho).all():
        raise NotAState("state must have finite entries")
    return rho


def check_two_qubit_state(rho) -> np.ndarray:
    """Validate a 4x4 density matrix and return it as an array."""
    if np.shape(rho) != (4, 4):
        raise NotAState("two-qubit state must be 4x4")
    rho = finite_states(rho)
    if abs(np.trace(rho) - 1.0) > 1e-9:
        raise NotAState("two-qubit state must have unit trace")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
        raise NotAState("two-qubit state must be Hermitian")
    if np.linalg.eigvalsh(rho).min() < -PSD_TOL:
        raise NotAState("two-qubit state must be positive semidefinite")
    return rho


def pauli_tensor(rho) -> np.ndarray:
    """Pauli expansion R[mu, nu] = Tr[(sigma_mu x sigma_nu) rho] of a 4x4 matrix."""
    rho = np.asarray(rho, dtype=complex)
    return np.einsum("mnij,...ji->...mn", PAULI2, rho).real


def density_from_pauli_tensor(tensor) -> np.ndarray:
    """Inverse of :func:`pauli_tensor`: rho = (1/4) sum R[mu,nu] sigma_mu x sigma_nu.

    A stack of tensors of shape (..., 4, 4) gives a stack of matrices.
    """
    return 0.25 * np.einsum("...mn,mnij->...ij", np.asarray(tensor, dtype=float), PAULI2)
