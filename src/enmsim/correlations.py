"""Correlation and coherence quantifiers on two-qubit states.

Includes entanglement negativity, quantum mutual information, quantum
discord of X states with a maximally mixed first marginal (measurement on
the second qubit), a brute-force projective-measurement oracle that cross
checks it, geometric discord, and the closed-form trajectories and limits
of these under the correlation-optimal covariant channel.  Every measure,
the oracle included, maps one 4x4 state or a (..., 4, 4) stack of states.
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
    eig = np.linalg.eigvalsh(qstate.partial_transpose(qstate.finite_states(rho)))
    return np.maximum((np.abs(eig).sum(axis=-1) - 1.0) / 2.0, 0.0)[()]


def mutual_information(rho):
    """Quantum mutual information S(A) + S(B) - S(AB) in bits."""
    rho = qstate.finite_states(rho)
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


# ---------------------------------------------------------------------------
# Brute-force discord oracle
# ---------------------------------------------------------------------------

_ORACLE_GRID = 200  # polar and azimuth points of the golden-offset grid
_ORACLE_BLOCK = 2000  # grid directions per block: a (4, 2 x 2000) array is below 128 KiB
_ZOOM_POINTS = 11  # per angle in each local zoom grid
_ZOOM_ROUNDS = 14
_ZOOM_SHRINK = 0.3  # span factor per round


def _outcomes(directions):
    """Vectors (1, n) and (1, -n) of both outcomes of measuring along directions.

    ``directions`` is ``(..., 3, K)``; the result is ``(..., 4, 2K)``, the
    ``+n`` outcomes first.
    """
    signed = np.concatenate([directions, -directions], axis=-1)
    ones = np.ones(signed.shape[:-2] + (1, signed.shape[-1]))
    return np.concatenate([ones, signed], axis=-2)


def _measured_entropy(tensor, outcomes):
    """Conditional entropy of qubit A after measuring qubit B along directions.

    ``tensor`` is the Pauli tensor of one state, or a stack with leading
    shape ``(...)``; ``outcomes`` is :func:`_outcomes` of ``(3, K)`` or
    ``(..., 3, K)`` directions.  Returns the ``(..., K)`` entropies.  One
    matrix product gives, for each outcome ``+n`` or ``-n``, twice its
    probability ``2p = 1 +/- w.n`` and the unnormalized Bloch vector
    ``s +/- T n`` of qubit A, whose length is ``2p theta``.  The outcome adds
    ``p h((1 + theta) / 2) = 2p (2 - (1+theta) log2(1+theta)
    - (1-theta) log2(1-theta)) / 4``, which vanishes with ``p``.
    """
    moments = tensor @ outcomes
    two_p = moments[..., 0, :]
    bloch = moments[..., 1:, :]
    length = np.sqrt(np.einsum("...ik,...ik->...k", bloch, bloch))
    theta = np.minimum(length / np.maximum(two_p, 1e-300), 1.0)
    up, down = 1.0 + theta, np.maximum(1.0 - theta, 1e-300)
    entropy = two_p * (2.0 - up * np.log2(up) - down * np.log2(down))
    half = entropy.shape[-1] // 2
    return (entropy[..., :half] + entropy[..., half:]) / 4.0


def _directions(polar, azimuth):
    """Unit vectors (..., 3, K) at the given polar and azimuth angles."""
    return np.stack(
        [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)],
        axis=-2,
    )


def _oracle_angles():
    """Polar and azimuth angles of the 200 x 200 golden-offset grid, flattened."""
    golden = 0.6180339887498949
    steps = np.arange(_ORACLE_GRID) + golden
    pp, aa = np.meshgrid(
        np.pi * steps / _ORACLE_GRID, 2.0 * np.pi * steps / _ORACLE_GRID, indexing="ij"
    )
    return pp.ravel(), aa.ravel()


def _brute_force_conditional_entropy(rho):
    """Minimal conditional entropy over projective measurements on qubit B.

    ``rho`` is a (N, 4, 4) stack.  Each state's measurement directions are
    first sampled on a 200 x 200 polar/azimuth grid with golden-ratio
    offsets.  The grid is scanned in blocks of ``_ORACLE_BLOCK`` directions,
    one state at a time within a block, so every temporary stays small and
    the whole grid is never held at once.  A block's minimum replaces a
    state's running best only when it is strictly lower, so the first grid
    index wins a tie.  Then all states are zoomed together: each round
    evaluates an 11 x 11 grid around every state's best direction, with
    spans that start at the grid spacing and shrink by a factor 0.3 per
    round.  The running best never rises above the grid value.
    """
    tensor = qstate.pauli_tensor(rho)
    pp, aa = _oracle_angles()
    rows = np.arange(len(rho))
    best_k = np.zeros(len(rho), dtype=int)
    best = np.full(len(rho), np.inf)
    for start in range(0, len(pp), _ORACLE_BLOCK):
        block = slice(start, start + _ORACLE_BLOCK)
        outcomes = _outcomes(_directions(pp[block], aa[block]))
        for n in rows:
            values = _measured_entropy(tensor[n], outcomes)
            k = np.argmin(values)
            if values[k] < best[n]:
                best[n], best_k[n] = values[k], start + k
    polar, azimuth = pp[best_k], aa[best_k]
    offsets = np.linspace(-1.0, 1.0, _ZOOM_POINTS)
    dp, da = (g.ravel() for g in np.meshgrid(offsets, offsets, indexing="ij"))
    span_p, span_a = np.pi / _ORACLE_GRID, 2.0 * np.pi / _ORACLE_GRID
    for _ in range(_ZOOM_ROUNDS):
        local_p = polar[:, None] + span_p * dp
        local_a = azimuth[:, None] + span_a * da
        values = _measured_entropy(tensor, _outcomes(_directions(local_p, local_a)))
        k = np.argmin(values, axis=-1)
        better = values[rows, k] < best
        best = np.where(better, values[rows, k], best)
        polar = np.where(better, local_p[rows, k], polar)
        azimuth = np.where(better, local_a[rows, k], azimuth)
        span_p *= _ZOOM_SHRINK
        span_a *= _ZOOM_SHRINK
    return best


def discord_brute_force(rho):
    """Quantum discord of a state or a (..., 4, 4) stack, by direct search.

    The conditional entropy is minimized over projective measurements on
    qubit B (see :func:`_brute_force_conditional_entropy`); nothing is
    shared with the closed-form :func:`xstate_discord` it cross checks.
    """
    rho = qstate.finite_states(rho)
    flat = rho.reshape(-1, 4, 4)
    s_a = qstate.von_neumann_entropy(qstate.partial_trace(flat, "B"))
    classical = s_a - _brute_force_conditional_entropy(flat)
    value = np.maximum(mutual_information(flat) - classical, 0.0)
    return value.reshape(rho.shape[:-2])[()]


def xstate_discord(rho):
    """Quantum discord in bits of an X state or a (..., 4, 4) stack of them.

    The measurement is on qubit B, and the first marginal must be maximally
    mixed: a matrix with entries outside the X pattern, a trace other than
    one or a biased first marginal raises :class:`NotXState`.
    """
    rho = qstate.finite_states(rho)
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
    tensor = qstate.pauli_tensor(qstate.finite_states(rho))
    s, t_mat = tensor[..., 1:, 0], tensor[..., 1:, 1:]
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
