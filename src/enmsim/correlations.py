"""Correlation and coherence quantifiers on two-qubit states.

Includes entanglement negativity, quantum mutual information, quantum
discord of X states with a maximally mixed first marginal (measurement on
the second qubit), a brute-force projective-measurement oracle that cross
checks it, geometric discord, and the closed-form trajectories and limits
of these under the correlation-optimal covariant channel.  Every measure but
the oracle maps one 4x4 state or a (..., 4, 4) stack of states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import covariant, qstate
from .errors import NotXState

X_SHAPE_TOL = 1e-10
MIXED_MARGINAL_TOL = 1e-9


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p), with h(0) = h(1) = 0."""
    p = float(p)
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))


def negativity(rho):
    """Entanglement negativity (||rho^T_B||_1 - 1) / 2."""
    eig = np.linalg.eigvalsh(qstate.partial_transpose(rho))
    return np.maximum((np.abs(eig).sum(axis=-1) - 1.0) / 2.0, 0.0)[()]


def mutual_information(rho):
    """Quantum mutual information S(A) + S(B) - S(AB) in bits."""
    s_a = qstate.von_neumann_entropy(qstate.partial_trace(rho, "B"))
    s_b = qstate.von_neumann_entropy(qstate.partial_trace(rho, "A"))
    return np.maximum(s_a + s_b - qstate.von_neumann_entropy(rho), 0.0)[()]


# ---------------------------------------------------------------------------
# X-state discord
# ---------------------------------------------------------------------------


_X_PATTERN = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]
_CANDIDATE_POLARS = (0.0, np.pi, np.pi / 2.0)  # z from either pole, equatorial


def _conditional_entropy(t33: float, w3: float, m_eq: float, polar: float) -> float:
    """Conditional entropy of an X state measured at one polar angle on qubit B.

    Valid when the first marginal is maximally mixed.  The azimuthal angle
    is already optimized out: the best equatorial direction aligns with the
    largest singular value ``m_eq`` = 2(|rho14| + |rho23|) of the transverse
    correlation block; ``t33`` and ``w3`` are the zz correlation and the
    second qubit's Bloch z component.
    """
    cos_t, sin_t = np.cos(polar), np.sin(polar)
    length = np.sqrt((m_eq * sin_t) ** 2 + (t33 * cos_t) ** 2)
    entropy = 0.0
    for sign in (+1.0, -1.0):
        p = 0.5 * (1.0 + sign * w3 * cos_t)
        if p > 1e-15:
            theta = min(length / (2.0 * p), 1.0)
            entropy += p * binary_entropy((1.0 + theta) / 2.0)
    return entropy


def _min_conditional_entropy(t33: float, w3: float, m_eq: float) -> float:
    """Least conditional entropy over the candidate measurements and a polish.

    A bounded one-dimensional search over the polar angle guards against
    the rare X states whose optimum is at an interior angle.
    """
    from scipy.optimize import minimize_scalar

    best = min(_conditional_entropy(t33, w3, m_eq, polar) for polar in _CANDIDATE_POLARS)
    res = minimize_scalar(
        lambda polar: _conditional_entropy(t33, w3, m_eq, polar),
        bounds=(0.0, np.pi / 2.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return min(best, res.fun)


def _measurement_stats(rho):
    """Local Bloch vectors and correlation matrix of a two-qubit state."""
    tensor = qstate.pauli_tensor(rho)
    s = tensor[..., 1:, 0]
    w = tensor[..., 0, 1:]
    t_mat = tensor[..., 1:, 1:]
    return s, w, t_mat


def _brute_force_conditional_entropy(rho) -> float:
    """Minimal conditional entropy over projective measurements on qubit B.

    Measurement directions are sampled on a 200 x 200 polar/azimuth grid
    with golden-ratio offsets, then the best direction is polished with a
    local simplex search.
    """
    from scipy.optimize import minimize

    s, w, t_mat = _measurement_stats(rho)

    def entropy_of(directions):
        tn = t_mat @ directions  # (3, K)
        wn = w @ directions  # (K,)
        total = np.zeros(directions.shape[1])
        for sign in (+1.0, -1.0):
            p = 0.5 * (1.0 + sign * wn)
            u = s[:, None] + sign * tn
            length = np.linalg.norm(u, axis=0)
            with np.errstate(divide="ignore", invalid="ignore"):
                theta = np.where(p > 1e-15, length / np.maximum(2.0 * p, 1e-300), 0.0)
            theta = np.clip(theta, 0.0, 1.0)
            hi = np.clip((1.0 + theta) / 2.0, 1e-300, 1.0)
            lo = np.clip((1.0 - theta) / 2.0, 1e-300, 1.0)
            h = -(hi * np.log2(hi) + np.where(lo > 1e-299, lo * np.log2(lo), 0.0))
            total += p * h
        return total

    golden = 0.6180339887498949
    polar = np.pi * (np.arange(200) + golden) / 200
    azimuth = 2.0 * np.pi * (np.arange(200) + golden) / 200
    pp, aa = np.meshgrid(polar, azimuth, indexing="ij")
    directions = np.stack(
        [np.sin(pp) * np.cos(aa), np.sin(pp) * np.sin(aa), np.cos(pp)]
    ).reshape(3, -1)
    values = entropy_of(directions)
    best = int(np.argmin(values))
    best_val = float(values[best])
    x0 = np.array([pp.ravel()[best], aa.ravel()[best]])

    def objective(angles):
        p, a = angles
        d = np.array(
            [[np.sin(p) * np.cos(a)], [np.sin(p) * np.sin(a)], [np.cos(p)]]
        )
        return float(entropy_of(d)[0])

    res = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={"maxiter": 200, "fatol": 1e-12, "xatol": 1e-10},
    )
    if np.isfinite(res.fun):
        best_val = min(best_val, float(res.fun))
    return best_val


def discord_brute_force(rho) -> float:
    """Quantum discord by direct minimization over measurements on qubit B."""
    rho = np.asarray(rho, dtype=complex)
    s_a = qstate.von_neumann_entropy(qstate.partial_trace(rho, "B"))
    cond = _brute_force_conditional_entropy(rho)
    classical = s_a - cond
    return max(0.0, mutual_information(rho) - classical)


def xstate_discord(rho):
    """Quantum discord in bits of an X state or a (..., 4, 4) stack of them.

    The measurement is on qubit B, and the first marginal must be maximally
    mixed: a matrix with entries outside the X pattern, a trace other than
    one or a biased first marginal raises :class:`NotXState`.
    """
    rho = np.asarray(rho, dtype=complex)
    if np.any(np.abs(rho[..., ~_X_PATTERN]) > X_SHAPE_TOL):
        raise NotXState("matrix has entries outside the X pattern")
    d = np.real(np.diagonal(rho, axis1=-2, axis2=-1))
    if np.any(np.abs(d.sum(axis=-1) - 1.0) > 1e-9):
        raise NotXState("X state must have unit trace")
    d1, d2, d3, d4 = np.moveaxis(d, -1, 0)
    if np.any(np.abs((d1 + d2) - 0.5) > MIXED_MARGINAL_TOL):
        raise NotXState("first marginal of the X state is not maximally mixed")
    r14, r23 = rho[..., 0, 3], rho[..., 1, 2]
    m_eq = 2.0 * (np.hypot(r14.real, r14.imag) + np.hypot(r23.real, r23.imag))
    per_state = zip(
        (d1 - d2 - d3 + d4).ravel().tolist(),
        (d1 - d2 + d3 - d4).ravel().tolist(),
        m_eq.ravel().tolist(),
    )
    cond = np.reshape([_min_conditional_entropy(*args) for args in per_state], d1.shape)
    return np.maximum(mutual_information(rho) - (1.0 - cond), 0.0)[()]


def geometric_discord(rho):
    """Geometric discord (||x||^2 + ||T||^2 - lambda_max) / 4.

    ``x`` is the Bloch vector of the first qubit, T the correlation matrix
    T_ij = Tr[(sigma_i x sigma_j) rho], and lambda_max the largest
    eigenvalue of K = x x^T + T T^T.
    """
    s, _, t_mat = _measurement_stats(rho)
    k_mat = s[..., :, None] * s[..., None, :] + t_mat @ np.swapaxes(t_mat, -1, -2)
    lam_max = np.linalg.eigvalsh(k_mat).max(axis=-1)
    s_norm2 = (s[..., None, :] @ s[..., :, None])[..., 0, 0]  # bit-equal to s @ s
    value = 0.25 * (s_norm2 + np.sum(t_mat**2, axis=(-2, -1)) - lam_max)
    return np.maximum(value, 0.0)[()]


# ---------------------------------------------------------------------------
# Closed-form trajectories and limits under the optimal covariant channel
# ---------------------------------------------------------------------------


def asymptotic_mutual_information(ratio: float) -> float:
    """Large-time mutual information h((1 + x/a) / 2) / 2 of the Choi state."""
    return binary_entropy((1.0 + ratio) / 2.0) / 2.0


def asymptotic_discord(ratio: float) -> float:
    """Large-time discord of the Choi state of the optimal channel.

    Equals h(p)/2 + h((1 + sqrt(1 - (x/a)^2)/2) / 2) - 1 with p = (1+x/a)/2.
    """
    half_disk = 0.5 * np.sqrt(max(0.0, 1.0 - ratio**2))
    return (
        asymptotic_mutual_information(ratio)
        + binary_entropy((1.0 + half_disk) / 2.0)
        - 1.0
    )


@dataclass(frozen=True)
class CorrelationPoint:
    t: float
    negativity: float
    mutual_information: float
    discord: float
    geometric_discord: float
    coherence: float


def correlation_points(times, alpha, beta, shift) -> list[CorrelationPoint]:
    """Correlation measures of the Choi states of the channels along a grid.

    Each measure is evaluated once on the stack of closed-form Choi states;
    the coherence is the transverse contraction alpha(t), the l1-coherence
    of the channel's image of a state with unit initial coherence.
    """
    omegas = covariant.choi_states(alpha, beta, shift)
    e, i, d = negativity(omegas), mutual_information(omegas), geometric_discord(omegas)
    q = xstate_discord(omegas)
    return [
        CorrelationPoint(
            t=float(times[k]),
            negativity=float(e[k]),
            mutual_information=float(i[k]),
            discord=float(q[k]),
            geometric_discord=float(d[k]),
            coherence=float(alpha[k]),
        )
        for k in range(len(omegas))
    ]


def correlation_table(rates: covariant.CovariantRates, times) -> list[CorrelationPoint]:
    """:func:`correlation_points` of the channel over a time grid."""
    return correlation_points(times, *covariant.channel_grid(rates, times))
