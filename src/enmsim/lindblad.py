"""Propagation of a qubit under a time-dependent decoherence matrix.

The dissipator is specified by a 3x3 Hermitian matrix gamma(t) in the Pauli
basis.  With states written as rho = (1 + r . sigma) / 2, the equation of
motion is the affine linear system

    dr/dt = (gamma_S(t) - tr[gamma(t)] 1) r + xi(t),

where gamma_S is the symmetric part of gamma and xi collects its imaginary
antisymmetric part.  The full map r(t) = M_t r(0) + v_t is integrated as a
12-dimensional ODE, which yields Choi matrices, divisibility diagnostics and
intermediate maps directly.  An optional Hamiltonian term (omega/2) sigma_z
adds a rotation of (r1, r2) at rate omega.

The operator-level generator corresponding to this convention is

    L rho = -i[(omega/2) sigma_z, rho]
            + (1/2) sum_ij gamma_ij (sigma_j rho sigma_i
                                     - {sigma_i sigma_j, rho} / 2),

i.e. the dissipator in the normalized basis sigma_i / sqrt(2), ordered so
that the phase-covariant matrix [[a, -ix, 0], [ix, a, 0], [0, 0, f]] drives
r3 toward -x/a:  dr3/dt = -2a r3 - 2x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

from . import qstate
from .errors import (
    IntegratorDiverged,
    NonHermitianGamma,
    OptimizerFailed,
    SingularIntermediateMap,
)

HERMITICITY_TOL = 1e-12
CONDITION_LIMIT = 1e12

_ROTATION_Z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class DecoherenceMatrix:
    """Time-dependent generator data: gamma(t) plus an optional sigma_z rate.

    ``gamma`` maps a time to a 3x3 Hermitian matrix (units 1/time).  Only
    H = (omega/2) sigma_z is supported as a Hamiltonian part; it rotates the
    transverse Bloch components at rate ``hamiltonian_rate``.
    """

    gamma: Callable[[float], np.ndarray]
    hamiltonian_rate: float = 0.0

    @classmethod
    def constant(cls, matrix, hamiltonian_rate: float = 0.0) -> "DecoherenceMatrix":
        matrix = np.asarray(matrix, dtype=complex)
        return cls(gamma=lambda t: matrix, hamiltonian_rate=hamiltonian_rate)

    def at(self, t: float) -> np.ndarray:
        g = np.asarray(self.gamma(t), dtype=complex)
        if g.shape != (3, 3):
            raise NonHermitianGamma("gamma(t) must be a 3x3 matrix")
        if np.max(np.abs(g - g.conj().T)) > HERMITICITY_TOL:
            raise NonHermitianGamma(f"gamma({t}) is not Hermitian")
        return g


def bloch_generator(gamma) -> tuple[np.ndarray, np.ndarray]:
    """Drift matrix and inhomogeneity of the Bloch equation for one gamma.

    Returns (A, xi) with A = gamma_S - tr(gamma) 1 and
    xi_k = i sum_ij eps_ijk gamma_ji, so that dr/dt = A r + xi.
    """
    gamma = np.asarray(gamma, dtype=complex)
    if np.max(np.abs(gamma - gamma.conj().T)) > HERMITICITY_TOL:
        raise NonHermitianGamma("gamma is not Hermitian")
    sym = 0.5 * (gamma + gamma.T)
    drift = sym.real - np.trace(gamma).real * np.eye(3)
    xi = np.array(
        [
            (1j * (gamma[2, 1] - gamma[1, 2])).real,
            (1j * (gamma[0, 2] - gamma[2, 0])).real,
            (1j * (gamma[1, 0] - gamma[0, 1])).real,
        ]
    )
    return drift, xi


def apply_generator(gamma, rho) -> np.ndarray:
    """One application of the dissipator: d(rho)/dt for the given gamma.

    The returned 2x2 matrix is traceless and Hermitian.  The Hamiltonian
    part is :attr:`DecoherenceMatrix.hamiltonian_rate`, used by :func:`propagate`.
    """
    gamma = np.asarray(gamma, dtype=complex)
    drift, xi = bloch_generator(gamma)
    r = qstate.density_to_bloch(np.asarray(rho, dtype=complex))
    rdot = drift @ r + xi
    return 0.5 * (
        rdot[0] * qstate.SIGMA_X + rdot[1] * qstate.SIGMA_Y + rdot[2] * qstate.SIGMA_Z
    )


@dataclass(frozen=True)
class PropagatedMap:
    """Affine Bloch maps r(t) = M_t r(0) + v_t on an ascending time grid."""

    times: np.ndarray
    matrices: np.ndarray  # shape (n, 3, 3)
    shifts: np.ndarray  # shape (n, 3)
    bloch: np.ndarray | None = field(default=None)  # optional trajectory of r0

    def index_of(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"time {t} is not on the propagation grid")
        return idx

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        idx = self.index_of(t)
        return self.matrices[idx], self.shifts[idx]

    def apply(self, r0) -> np.ndarray:
        """Trajectory M_t r0 + v_t for every grid time."""
        r0 = np.asarray(r0, dtype=float)
        return np.einsum("nij,j->ni", self.matrices, r0) + self.shifts

    def choi_at(self, t: float) -> np.ndarray:
        m, v = self.at(t)
        return choi_of_map(m, v)


def propagate(gen: DecoherenceMatrix, grid: Sequence[float], r0=None) -> PropagatedMap:
    """Integrate the full affine Bloch map of the dynamics along ``grid``.

    The 12 unknowns (M_t columns and v_t) are integrated jointly with an
    adaptive 4th/5th order Runge-Kutta scheme (rtol 1e-10, atol 1e-12) up to
    the last grid time.  ``grid`` fixes the output times (strictly
    ascending and nonnegative; 0 is prepended if missing).  If ``r0`` is
    given the trajectory of that initial Bloch vector is attached to the
    result.
    """
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) <= 0):
        raise ValueError("grid must be strictly ascending")
    if times[0] < 0:
        raise ValueError("grid times must be nonnegative")
    if times[0] > 0.0:
        times = np.concatenate([[0.0], times])
    t_final = float(times[-1])
    omega = gen.hamiltonian_rate

    def rhs(t, y):
        drift, xi = bloch_generator(gen.at(t))
        if omega != 0.0:
            drift = drift + omega * _ROTATION_Z
        m = y[:9].reshape(3, 3)
        v = y[9:]
        return np.concatenate([(drift @ m).ravel(), drift @ v + xi])

    y0 = np.concatenate([np.eye(3).ravel(), np.zeros(3)])
    if t_final == 0.0:
        sol_y = y0[:, None]
    else:
        sol = solve_ivp(
            rhs,
            (0.0, t_final),
            y0,
            method="RK45",
            rtol=1e-10,
            atol=1e-12,
            t_eval=times,
            dense_output=False,
        )
        if not sol.success:
            raise IntegratorDiverged(sol.message)
        sol_y = sol.y
    matrices = sol_y[:9].T.reshape(-1, 3, 3)
    shifts = sol_y[9:].T.copy()
    pm = PropagatedMap(times=times, matrices=matrices, shifts=shifts)
    if r0 is not None:
        pm = PropagatedMap(
            times=times, matrices=matrices, shifts=shifts, bloch=pm.apply(r0)
        )
    return pm


def choi_of_map(matrix, shift=None) -> np.ndarray:
    """Choi matrix of the affine Bloch map (M, v).

    The channel acts on the second qubit of the maximally entangled pair;
    the first qubit is the untouched reference, so the reduced state of the
    reference is always maximally mixed.
    """
    m = np.asarray(matrix, dtype=float)
    v = np.zeros(3) if shift is None else np.asarray(shift, dtype=float)
    tensor = np.zeros((4, 4))
    tensor[0, 0] = 1.0
    tensor[0, 1:] = v
    signs = np.array([1.0, -1.0, 1.0])
    for k in range(3):
        tensor[k + 1, 1:] = signs[k] * m[:, k]
    return qstate.density_from_pauli_tensor(tensor)


def apply_to_subsystem(rho, matrix, shift=None, subsystem: str = "A") -> np.ndarray:
    """Apply an affine Bloch map to one qubit of a two-qubit state."""
    m = np.asarray(matrix, dtype=float)
    v = np.zeros(3) if shift is None else np.asarray(shift, dtype=float)
    tensor = qstate.pauli_tensor(rho)
    out = tensor.copy()
    if subsystem == "A":
        out[1:, :] = m @ tensor[1:, :] + np.outer(v, tensor[0, :])
    elif subsystem == "B":
        out[:, 1:] = tensor[:, 1:] @ m.T + np.outer(tensor[:, 0], v)
    else:
        raise ValueError("subsystem must be 'A' or 'B'")
    return qstate.density_from_pauli_tensor(out)


def is_cp_divisible(
    gen: DecoherenceMatrix, grid: Sequence[float]
) -> tuple[bool, float | None]:
    """Check gamma(t) >= 0 on a grid; the witness of Markovianity.

    Returns (True, None) if the smallest eigenvalue of gamma stays above
    -1e-9 at every grid point, else (False, first violating time).
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly ascending")
    for t in grid:
        eig = np.linalg.eigvalsh(gen.at(float(t)))
        if eig.min() < -1e-9:
            return False, float(t)
    return True, None


@dataclass(frozen=True)
class IntermediateMap:
    """The two-time map V with Lambda_t = V o Lambda_s, plus its Choi floor."""

    matrix: np.ndarray
    shift: np.ndarray
    choi_min_eigenvalue: float


def intermediate_map(pm: PropagatedMap, s: float, t: float) -> IntermediateMap:
    """Intermediate map V_{t,s} = (M_t M_s^{-1}, v_t - M_t M_s^{-1} v_s).

    Its Choi minimum eigenvalue certifies (>= -1e-9) or refutes complete
    positivity of the step from s to t.
    """
    if not 0.0 <= s <= t:
        raise ValueError("need 0 <= s <= t")
    m_s, v_s = pm.at(s)
    m_t, v_t = pm.at(t)
    if np.linalg.cond(m_s) > CONDITION_LIMIT:
        raise SingularIntermediateMap(f"map at s={s} has condition number > 1e12")
    v_mat = m_t @ np.linalg.inv(m_s)
    v_shift = v_t - v_mat @ v_s
    eig_min = float(np.linalg.eigvalsh(choi_of_map(v_mat, v_shift)).min())
    return IntermediateMap(matrix=v_mat, shift=v_shift, choi_min_eigenvalue=eig_min)


# ---------------------------------------------------------------------------
# Distance to the closest product state and the exponential decay bound
# ---------------------------------------------------------------------------

_GRID_LEVELS = np.linspace(-1.0, 1.0, 9)


def _ball_grid() -> np.ndarray:
    pts = np.array(
        [
            (x, y, z)
            for x in _GRID_LEVELS
            for y in _GRID_LEVELS
            for z in _GRID_LEVELS
            if x * x + y * y + z * z <= 1.0 + 1e-12
        ]
    )
    return pts


_BALL = _ball_grid()


def _product_tensor(r_a, r_b) -> np.ndarray:
    u = np.concatenate([[1.0], r_a])
    w = np.concatenate([[1.0], r_b])
    return np.outer(u, w)


def closest_product_state(rho) -> tuple[float, np.ndarray, np.ndarray]:
    """Minimize || rho - sigma_A x sigma_B ||_1 over product states.

    A coarse 9-level Bloch grid per qubit seeds a Nelder-Mead search over
    the six Bloch parameters.  Returns (distance, r_A, r_B).
    """
    tensor = qstate.pauli_tensor(rho)

    # batch evaluation of all grid product states via the Pauli expansion
    n_a = _BALL.shape[0]
    u = np.concatenate([np.ones((n_a, 1)), _BALL], axis=1)  # (n, 4)
    coeff = tensor[None, :, :] - np.einsum("am,bn->abmn", u, u).reshape(-1, 4, 4)
    mats = 0.25 * (coeff.reshape(-1, 16) @ qstate.PAULI2.reshape(16, 16)).reshape(
        -1, 4, 4
    )
    dists = np.abs(np.linalg.eigvalsh(mats)).sum(axis=1)
    best = int(np.argmin(dists))
    best_a, best_b = divmod(best, n_a)
    x0 = np.concatenate([_BALL[best_a], _BALL[best_b]])
    grid_val = float(dists[best])

    def clip_to_ball(p):
        r_a, r_b = p[:3].copy(), p[3:].copy()
        penalty = 0.0
        for r in (r_a, r_b):
            n = np.linalg.norm(r)
            if n > 1.0:
                penalty += 10.0 * (n - 1.0)
                r /= n
        return r_a, r_b, penalty

    def objective(p):
        r_a, r_b, penalty = clip_to_ball(p)
        diff = tensor - _product_tensor(r_a, r_b)
        mat = qstate.density_from_pauli_tensor(diff)
        return np.abs(np.linalg.eigvalsh(mat)).sum() + penalty

    res = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={"maxiter": 600, "fatol": 1e-10, "xatol": 1e-8},
    )
    if not np.isfinite(res.fun):
        raise OptimizerFailed("product-state search returned a non-finite value")
    if res.fun <= grid_val:
        p, val = res.x, float(res.fun)
    else:
        p, val = x0, grid_val
    r_a, r_b, _ = clip_to_ball(p)
    return val, r_a, r_b


@dataclass(frozen=True)
class DecayRecord:
    """Per-time result of the exponential correlation decay check."""

    t: float
    distance: float
    bound: float
    witness_distance: float
    satisfied: bool


def correlation_decay_report(
    gen: DecoherenceMatrix, rho_ab, grid: Sequence[float], rate: float
) -> list[DecayRecord]:
    """Check the exponential loss of correlations for gamma(t) >= rate * 1.

    For each grid time the channel is applied to qubit A of ``rho_ab``, the
    trace distance to the closest product state is minimized numerically,
    and compared with the bound 2 exp(-2 rate t); a record is satisfied
    when the distance exceeds the bound by at most 1e-6.  The replacer
    product state built from the inhomogeneous part of the solution is also
    evaluated as an independent upper bound (``witness_distance``).
    """
    rho_ab = qstate.check_two_qubit_state(rho_ab)
    grid = np.asarray(grid, dtype=float)
    rho_b = qstate.partial_trace(rho_ab, "A")
    pm = propagate(gen, grid=grid)
    records = []
    for t in grid:
        m, v = pm.at(float(t))
        evolved = apply_to_subsystem(rho_ab, m, v, "A")
        distance, _, _ = closest_product_state(evolved)
        replacer = qstate.bloch_to_density(v)
        witness = float(qstate.trace_norm(evolved - np.kron(replacer, rho_b)))
        distance = min(distance, witness)
        bound = 2.0 * np.exp(-2.0 * rate * t)
        records.append(
            DecayRecord(
                t=float(t),
                distance=distance,
                bound=float(bound),
                witness_distance=witness,
                satisfied=bool(distance <= bound + 1e-6),
            )
        )
    return records
