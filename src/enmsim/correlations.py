"""Correlation and coherence quantifiers on two-qubit states.

Includes entanglement negativity, quantum mutual information, quantum
discord of X states with a maximally mixed first marginal (measurement on
the second qubit), a brute-force projective-measurement oracle that cross
checks it, geometric discord, and the closed-form trajectories and limits
of these under the correlation-optimal covariant channel.  Every measure,
the oracle included, maps one 4x4 state or a (..., 4, 4) stack of states.
"""

from __future__ import annotations

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
    the rare X states whose optimum is at an interior angle.  It cannot win
    when ``w3`` is exactly 0, so it is skipped there.  Both outcomes then
    have probability exactly 1/2, and the entropy is ``h((1 + min(L, 1))/2)``
    with ``L^2 = t33^2 + (m_eq^2 - t33^2) sin^2(polar)``.  ``L^2`` is
    monotone in ``sin^2(polar)``, which runs over [0, 1], and ``h`` falls as
    ``L`` grows, so the least entropy sits at ``sin^2(polar)`` = 0 or 1: the
    candidates 0 and pi/2.
    """
    best = min(_conditional_entropy(t33, w3, m_eq, polar) for polar in _CANDIDATE_POLARS)
    if w3 == 0.0:
        return best
    from scipy.optimize import minimize_scalar

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

_ORACLE_GRID = 50  # polar and azimuth points of the golden-offset grid
_ORACLE_CHUNK = 8  # states per chunk: a zoom round's (8 x 2, 4, 242) arrays are below 128 KiB
_ORACLE_BLOCK = 5  # polar rows per grid block: (8, 4, 2 x 250) moments are below 128 KiB
_ZOOM_POINTS = 11  # per angle in each local zoom grid
_ZOOM_ROUNDS = 22
_ZOOM_SHRINK = 0.3  # span factor after a round whose best is inside the zoom grid
_ZOOM_GROW = 2.0  # span factor after a round that moved to the zoom grid's edge


def _outcomes(directions):
    """Vectors (1, n) and (1, -n) of both outcomes of measuring along directions.

    ``directions`` is ``(..., 3, K)``; the result is ``(..., 4, 2K)``, the
    ``+n`` outcomes first.
    """
    k = directions.shape[-1]
    out = np.empty(directions.shape[:-2] + (4, 2 * k))
    out[..., 0, :] = 1.0
    out[..., 1:, :k] = directions
    np.negative(directions, out=out[..., 1:, k:])
    return out


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
    """Unit vectors (..., 3, P A) at all pairs of (..., P) polar and (..., A) azimuths.

    The polar angle is the slow index: column ``i * A + j`` is polar ``i``
    and azimuth ``j``.  Each sine and cosine is taken once per angle, not
    once per pair.
    """
    lead = np.broadcast_shapes(polar.shape[:-1], azimuth.shape[:-1])
    out = np.empty(lead + (3, polar.shape[-1], azimuth.shape[-1]))
    sin_p = np.sin(polar)[..., :, None]
    np.multiply(sin_p, np.cos(azimuth)[..., None, :], out=out[..., 0, :, :])
    np.multiply(sin_p, np.sin(azimuth)[..., None, :], out=out[..., 1, :, :])
    out[..., 2, :, :] = np.cos(polar)[..., :, None]
    return out.reshape(lead + (3, -1))


def _oracle_angles():
    """Polar and azimuth angles of the 50 x 50 golden-offset grid.

    The grid covers the whole sphere; :func:`_directions` of the two axes
    has polar row ``i`` and azimuth column ``j`` at index ``i * 50 + j``.
    """
    steps = np.arange(_ORACLE_GRID) + 0.6180339887498949  # golden-ratio offset
    return np.pi * steps / _ORACLE_GRID, 2.0 * np.pi * steps / _ORACLE_GRID


def _correlation_axes(tensor):
    """Polar and azimuth angles of the direction n that maximizes |T n|, per state.

    ``tensor`` is a (C, 4, 4) stack of Pauli tensors and T its correlation
    block, so n is the measurement on qubit B that moves qubit A's Bloch
    vector most.  An X state's optimal measurement lies in the plane of z
    and n, and is often n itself, in an equatorial basin that can be
    narrower than an azimuth spacing of the grid.
    """
    corr = tensor[:, 1:, 1:]
    x, y, z = np.linalg.eigh(np.swapaxes(corr, -1, -2) @ corr)[1][:, :, -1].T
    return np.arccos(np.clip(z, -1.0, 1.0)), np.arctan2(y, x)


def _brute_force_conditional_entropy(rho):
    """Minimal conditional entropy over projective measurements on qubit B.

    ``rho`` is a (N, 4, 4) stack, searched in chunks of ``_ORACLE_CHUNK``
    states so that every temporary stays below 128 KiB.  Each state's
    measurement directions are first sampled on a 50 x 50 polar/azimuth
    grid with golden-ratio offsets over the whole sphere, scanned in blocks
    of ``_ORACLE_BLOCK`` polar rows; a block's minimum replaces a state's
    running best only when it is strictly lower, so the first grid index
    wins a tie.  Then each state is zoomed from 2 starts, its best grid
    direction and its correlation axis (see :func:`_correlation_axes`).
    Each of 22 rounds evaluates an 11 x 11 grid around every start's best
    direction; its span starts at the grid spacing, shrinks by 0.3 after a
    round whose best is inside that grid and doubles after a move to its
    edge, so a start can walk down a valley that the coarse grid does not
    resolve.  A start's best moves only to a strictly lower value, so the
    first zoom index wins a tie, and the grid start never rises above its
    grid value.  The result is the better of the 2 zooms.
    """
    tensor = qstate.pauli_tensor(rho)
    grid_p, grid_a = _oracle_angles()
    block = _ORACLE_BLOCK * _ORACLE_GRID
    outcomes = [
        _outcomes(_directions(grid_p[r : r + _ORACLE_BLOCK], grid_a))
        for r in range(0, _ORACLE_GRID, _ORACLE_BLOCK)
    ]
    offsets = np.linspace(-1.0, 1.0, _ZOOM_POINTS)
    result = np.empty(len(rho))
    for first in range(0, len(rho), _ORACLE_CHUNK):
        chunk = tensor[first : first + _ORACLE_CHUNK]
        states = np.arange(len(chunk))
        grid_best, grid_k = np.full(len(chunk), np.inf), np.zeros(len(chunk), dtype=int)
        for start, block_outcomes in zip(range(0, _ORACLE_GRID**2, block), outcomes):
            values = _measured_entropy(chunk, block_outcomes)
            k = np.argmin(values, axis=-1)
            lower = values[states, k] < grid_best  # strictly: the first grid index wins a tie
            grid_best = np.where(lower, values[states, k], grid_best)
            grid_k = np.where(lower, start + k, grid_k)
        axis_p, axis_a = _correlation_axes(chunk)
        row, col = divmod(grid_k, _ORACLE_GRID)
        polar = np.column_stack([grid_p[row], axis_p]).ravel()
        azimuth = np.column_stack([grid_a[col], axis_a]).ravel()
        best = np.column_stack([grid_best, np.full(len(chunk), np.inf)]).ravel()
        tensors = np.repeat(chunk, 2, axis=0)  # one per start
        searches = np.arange(len(best))
        span = np.ones(len(best))  # in grid spacings
        for _ in range(_ZOOM_ROUNDS):
            local_p = polar[:, None] + (np.pi / _ORACLE_GRID) * span[:, None] * offsets
            local_a = azimuth[:, None] + (2.0 * np.pi / _ORACLE_GRID) * span[:, None] * offsets
            local = _measured_entropy(tensors, _outcomes(_directions(local_p, local_a)))
            k = np.argmin(local, axis=-1)
            row, col = divmod(k, _ZOOM_POINTS)
            better = local[searches, k] < best
            best = np.where(better, local[searches, k], best)
            polar = np.where(better, local_p[searches, row], polar)
            azimuth = np.where(better, local_a[searches, col], azimuth)
            edge = (np.minimum(row, col) == 0) | (np.maximum(row, col) == _ZOOM_POINTS - 1)
            span = span * np.where(better & edge, _ZOOM_GROW, _ZOOM_SHRINK)
        result[first : first + _ORACLE_CHUNK] = best.reshape(len(chunk), 2).min(axis=-1)
    return result


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
    one or a biased first marginal raises :class:`NotXState`.  Each state
    takes the best of the candidate polar angles; only a state whose second
    qubit has a Bloch z component ``w3`` other than 0 also runs the angle
    polish (see :func:`_min_conditional_entropy`) and imports scipy.
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


def correlation_points(times, alpha, beta, shift) -> np.recarray:
    """Correlation measures of the Choi states of the channels along a grid.

    Each measure is evaluated once on the stack of closed-form Choi states;
    the coherence is the transverse contraction alpha(t), the l1-coherence
    of the channel's image of a state with unit initial coherence.  The
    record array has one field per column (``table.discord``) and one
    record per time (``table[k].discord``).
    """
    omegas = covariant.choi_states(alpha, beta, shift)
    columns = (times, negativity(omegas), mutual_information(omegas),
               xstate_discord(omegas), geometric_discord(omegas), alpha)
    names = "t,negativity,mutual_information,discord,geometric_discord,coherence"
    return np.rec.fromarrays(columns, names=names)


def correlation_table(rates: covariant.CovariantRates, times) -> np.recarray:
    """:func:`correlation_points` of the channel over a time grid."""
    return correlation_points(times, *covariant.channel_grid(rates, times))
