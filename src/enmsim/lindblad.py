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

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import qstate
from .errors import (
    IntegratorDiverged,
    NonHermitianGamma,
    OptimizerFailed,
    SingularIntermediateMap,
)

HERMITICITY_TOL = 1e-12
CONDITION_LIMIT = 1e12
MAP_LIMIT = 1e12  # largest |entry| of a propagated map; a channel's stay within 1

_ROTATION_Z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
# xi = (Im gamma_12 - Im gamma_21, Im gamma_20 - Im gamma_02, Im gamma_01 - Im gamma_10)
_XI_ROWS, _XI_COLS = np.array([1, 2, 0]), np.array([2, 0, 1])


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
        # NaN fails the comparison, and inf - inf is NaN: both are refused
        with np.errstate(invalid="ignore"):
            gap = abs(g - g.conj().T).max()
        if not gap <= HERMITICITY_TOL:
            raise NonHermitianGamma(f"gamma({t}) is not finite and Hermitian")
        return g


def bloch_generator(gamma) -> tuple[np.ndarray, np.ndarray]:
    """Drift matrix and inhomogeneity of the Bloch equation for one gamma.

    Returns (A, xi) with A = gamma_S - tr(gamma) 1 and
    xi_k = i sum_ij eps_ijk gamma_ji, so that dr/dt = A r + xi.  gamma is
    taken to be Hermitian: :meth:`DecoherenceMatrix.at` checks it.
    """
    gamma = np.asarray(gamma, dtype=complex)
    re, im = gamma.real, gamma.imag
    drift = re + re.T
    drift *= 0.5
    drift.reshape(9)[::4] -= re.trace()  # the diagonal, in place
    return drift, (im - im.T)[_XI_ROWS, _XI_COLS]


@dataclass(frozen=True)
class PropagatedMap:
    """Affine Bloch maps r(t) = M_t r(0) + v_t on an ascending time grid."""

    times: np.ndarray
    matrices: np.ndarray  # shape (n, 3, 3)
    shifts: np.ndarray  # shape (n, 3)
    bloch: np.ndarray | None = None  # optional trajectory of r0

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        idx = int(np.argmin(np.abs(self.times - t)))
        # a NaN t fails the comparison, and an infinite one is on no grid
        if not (np.isfinite(t) and abs(self.times[idx] - t) <= 1e-9 * max(1.0, abs(t))):
            raise ValueError(f"time {t} is not on the propagation grid")
        return self.matrices[idx], self.shifts[idx]


def propagate(gen: DecoherenceMatrix, grid: Sequence[float], r0=None) -> PropagatedMap:
    """Integrate the full affine Bloch map of the dynamics along ``grid``.

    The 12 unknowns (M_t columns and v_t) are integrated jointly with the
    adaptive 8th order Dormand-Prince scheme DOP853 (rtol 1e-10, atol 1e-12)
    up to the last grid time.  ``grid`` fixes the output times (strictly
    ascending, finite and nonnegative; 0 is prepended if missing).  If ``r0`` is
    given the trajectory of that initial Bloch vector is attached to the
    result.  The solve stops with :class:`IntegratorDiverged` when it fails
    or when an entry of the map exceeds ``MAP_LIMIT``: a channel's Bloch
    map has no entry above 1, so such a map has left the channels for good.
    """
    from scipy.integrate import solve_ivp

    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) <= 0):
        raise ValueError("grid must be strictly ascending")
    if not np.all(np.isfinite(times)) or times[0] < 0:
        raise ValueError("grid times must be finite and nonnegative")
    if times[0] > 0.0:
        times = np.concatenate([[0.0], times])
    t_final = float(times[-1])
    omega = gen.hamiltonian_rate
    rotation = omega * _ROTATION_Z

    def rhs(t, y):
        drift, xi = bloch_generator(gen.at(t))
        if omega != 0.0:
            drift += rotation
        m = y[:9].reshape(3, 3)
        v = y[9:]
        return np.concatenate([(drift @ m).ravel(), drift @ v + xi])

    def blowup(t, y):
        return np.abs(y).max() - MAP_LIMIT

    blowup.terminal = True
    y0 = np.concatenate([np.eye(3).ravel(), np.zeros(3)])
    if t_final == 0.0:
        sol_y = y0[:, None]
    else:
        sol = solve_ivp(
            rhs,
            (0.0, t_final),
            y0,
            method="DOP853",
            rtol=1e-10,
            atol=1e-12,
            t_eval=times,
            events=blowup,
            dense_output=False,
        )
        if not sol.success:
            raise IntegratorDiverged(sol.message)
        if sol.status == 1:
            t_blowup = sol.t_events[0][0]
            raise IntegratorDiverged(f"a map entry exceeds {MAP_LIMIT:g} at t = {t_blowup:.6g}")
        sol_y = sol.y
    matrices = sol_y[:9].T.reshape(-1, 3, 3)
    shifts = sol_y[9:].T.copy()
    bloch = None
    if r0 is not None:  # the trajectory M_t r0 + v_t at every grid time
        bloch = np.einsum("nij,j->ni", matrices, np.asarray(r0, dtype=float)) + shifts
    return PropagatedMap(times=times, matrices=matrices, shifts=shifts, bloch=bloch)


def choi_of_map(matrix, shift=None) -> np.ndarray:
    """Choi matrix of the affine Bloch map (M, v).

    The channel acts on the second qubit of the maximally entangled pair;
    the first qubit is the untouched reference, so the reduced state of the
    reference is always maximally mixed.  Stacks of maps, of shapes
    (..., 3, 3) and (..., 3), give stacks of Choi matrices.
    """
    m = np.asarray(matrix, dtype=float)
    v = np.zeros(3) if shift is None else np.asarray(shift, dtype=float)
    tensor = np.zeros(m.shape[:-2] + (4, 4))
    tensor[..., 0, 0] = 1.0
    tensor[..., 0, 1:] = v
    signs = np.array([[1.0], [-1.0], [1.0]])  # row k is signs[k] times column k of M
    tensor[..., 1:, 1:] = signs * np.swapaxes(m, -1, -2)
    return qstate.density_from_pauli_tensor(tensor)


def apply_to_first_qubit(rho, matrix, shift) -> np.ndarray:
    """Apply an affine Bloch map to the first qubit of a two-qubit state."""
    m = np.asarray(matrix, dtype=float)
    v = np.asarray(shift, dtype=float)
    tensor = qstate.pauli_tensor(rho)
    out = tensor.copy()
    out[1:, :] = m @ tensor[1:, :] + np.outer(v, tensor[0, :])
    return qstate.density_from_pauli_tensor(out)


def is_cp_divisible(
    gen: DecoherenceMatrix, grid: Sequence[float]
) -> tuple[bool, float | None]:
    """Check gamma(t) >= 0 on a grid; the witness of Markovianity.

    Returns (True, None) if the smallest eigenvalue of gamma stays above
    -1e-9 at every grid point, else (False, first violating time).
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0) or not np.all(np.isfinite(grid)):
        raise ValueError("grid must be finite and strictly ascending")
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


#: [1, r] for each point r of ``_BALL``.
_BALL_U = np.concatenate([np.ones((len(_BALL), 1)), _BALL], axis=1)
#: Grid pairs whose distance is computed to set the sign-witness bounds.
_SEED_WITNESSES = 32
#: Allowance for rounding in the seed bounds and in the computed distances.
_SEED_MARGIN = 1e-9
#: Grid pairs evaluated per eigvalsh call.
_SEED_CHUNK = 4096


def _grid_matrices(tensor, pairs) -> np.ndarray:
    """rho - sigma_a x sigma_b for the grid pairs ``pairs``, pair p = (p // n, p % n).

    numpy's matmul sends a single row to gemv, which rounds differently from
    the gemm that a stack of rows gets, so a lone pair is evaluated twice.
    """
    rows = np.resize(pairs, max(len(pairs), 2))
    a, b = np.divmod(rows, len(_BALL))
    coeff = tensor - _BALL_U[a, :, None] * _BALL_U[b, None, :]
    mats = 0.25 * (coeff.reshape(-1, 16) @ qstate.PAULI2.reshape(16, 16))
    return mats.reshape(-1, 4, 4)[: len(pairs)]


def _grid_seed(tensor) -> tuple[int, float]:
    """Pair index and distance of the grid's closest product state to rho.

    ``tensor`` is the Pauli tensor of rho.  The pairs are bounded as the
    :func:`closest_product_state` docstring sets out, and only those whose
    bound is within ``_SEED_MARGIN`` of the best probed distance are evaluated.
    """
    u = _BALL_U
    sq = np.einsum("am,am->a", u, u)
    frob2 = 0.25 * (np.sum(tensor * tensor) - 2.0 * (u @ tensor @ u.T) + np.outer(sq, sq))
    # the expansion cancels near rho, so its rounding is taken off before the root
    bound = np.sqrt(np.maximum(frob2 - _SEED_MARGIN, 0.0))
    probes = np.argpartition(bound, _SEED_WITNESSES, axis=None)[:_SEED_WITNESSES]
    vals, vecs = np.linalg.eigh(_grid_matrices(tensor, probes))
    best = np.abs(vals).sum(axis=1).min()
    signs = np.einsum("kij,kj,klj->kil", vecs, np.sign(vals), vecs.conj())
    for a in qstate.pauli_tensor(signs):
        np.maximum(bound, 0.25 * (np.sum(tensor * a) - u @ a @ u.T), out=bound)
    candidates = np.flatnonzero(bound <= best + _SEED_MARGIN)
    dists = np.concatenate(
        [
            np.abs(np.linalg.eigvalsh(_grid_matrices(tensor, chunk))).sum(axis=1)
            for chunk in np.split(candidates, range(_SEED_CHUNK, len(candidates), _SEED_CHUNK))
        ]
    )
    i = int(np.argmin(dists))
    return int(candidates[i]), float(dists[i])


def closest_product_state(rho) -> tuple[float, np.ndarray, np.ndarray]:
    """Minimize || rho - sigma_A x sigma_B ||_1 over product states.

    The best product state of a 9-level Bloch grid per qubit seeds a
    Nelder-Mead search over the six Bloch parameters.  Returns
    (distance, r_A, r_B); rho must pass :func:`qstate.check_two_qubit_state`.

    The seed is found without building all n^2 grid pairs.  Each pair gets
    a lower bound on ||X_ab||_1, X_ab = rho - sigma_a x sigma_b, from (n, n)
    matrix products, with T the Pauli tensor of rho and u = [1, r]:

    * Frobenius: ||X||_1 >= ||X||_F, and
      ||X_ab||_F^2 = (||T||^2 - 2 u_a.T.u_b + |u_a|^2 |u_b|^2) / 4.
    * Sign witnesses: tr(A X) <= ||X||_1 whenever ||A||_op <= 1.  The 32
      pairs cd with the lowest Frobenius bound are evaluated, and each
      A = sign(X_cd) gives tr(A X_ab) = (<T, a> - u_a.a.u_b) / 4, where a
      is the Pauli tensor of A.

    The least of those 32 distances caps the minimum, so only pairs whose
    bound is within 1e-9 of it are evaluated, with the same arithmetic as a
    full-grid evaluation.  Every pair that ties the minimum is among them,
    so the seed, its first-index tie-break and its distance equal the full
    grid's bit for bit.
    """
    from scipy.optimize import minimize

    tensor = qstate.pauli_tensor(qstate.check_two_qubit_state(rho))
    best, grid_val = _grid_seed(tensor)
    best_a, best_b = divmod(best, len(_BALL))
    x0 = np.concatenate([_BALL[best_a], _BALL[best_b]])

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
    witness_distance: float


def correlation_decay_report(
    gen: DecoherenceMatrix, rho_ab, grid: Sequence[float]
) -> list[DecayRecord]:
    """Distance of the evolved state to the product states at each grid time.

    For each grid time the channel is applied to qubit A of ``rho_ab`` and
    the trace distance to the closest product state is minimized
    numerically; for gamma(t) >= c 1 it must stay below 2 exp(-2 c t).  The
    replacer product state built from the inhomogeneous part of the
    solution is also evaluated as an independent upper bound
    (``witness_distance``).
    """
    rho_ab = qstate.check_two_qubit_state(rho_ab)
    grid = np.asarray(grid, dtype=float)
    rho_b = qstate.partial_trace(rho_ab, "A")
    pm = propagate(gen, grid=grid)
    records = []
    for t in grid:
        m, v = pm.at(float(t))
        evolved = apply_to_first_qubit(rho_ab, m, v)
        distance, _, _ = closest_product_state(evolved)
        replacer = qstate.bloch_to_density(v)
        witness = float(qstate.trace_norm(evolved - np.kron(replacer, rho_b)))
        distance = min(distance, witness)
        records.append(
            DecayRecord(t=float(t), distance=distance, witness_distance=witness)
        )
    return records
