"""Correlation and coherence quantifiers on two-qubit states.

Includes entanglement negativity, quantum mutual information, quantum
discord of X states (measurement on the second qubit, with a brute-force
projective-measurement oracle as fallback and cross check), geometric
discord, and the closed-form trajectories and limits of all of these under
the correlation-optimal covariant channel.  Negativity, mutual information
and geometric discord also map a (..., 4, 4) stack of states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

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


@dataclass(frozen=True)
class XState:
    """Two-qubit state with only diagonal and anti-diagonal entries."""

    diag: np.ndarray  # (rho11, rho22, rho33, rho44)
    rho14: complex
    rho23: complex

    @classmethod
    def from_density(cls, rho) -> "XState":
        rho = np.asarray(rho, dtype=complex)
        mask = np.array(
            [
                [1, 0, 0, 1],
                [0, 1, 1, 0],
                [0, 1, 1, 0],
                [1, 0, 0, 1],
            ],
            dtype=bool,
        )
        if np.max(np.abs(rho[~mask])) > X_SHAPE_TOL:
            raise NotXState("matrix has entries outside the X pattern")
        diag = np.real(np.diag(rho)).copy()
        if abs(diag.sum() - 1.0) > 1e-9:
            raise NotXState("X state must have unit trace")
        if abs(rho[0, 3]) > np.sqrt(max(diag[0] * diag[3], 0.0)) + 1e-9:
            raise NotXState("|rho14| exceeds sqrt(rho11 rho44)")
        if abs(rho[1, 2]) > np.sqrt(max(diag[1] * diag[2], 0.0)) + 1e-9:
            raise NotXState("|rho23| exceeds sqrt(rho22 rho33)")
        return cls(diag=diag, rho14=complex(rho[0, 3]), rho23=complex(rho[1, 2]))

    def to_density(self) -> np.ndarray:
        rho = np.diag(self.diag).astype(complex)
        rho[0, 3] = self.rho14
        rho[3, 0] = np.conj(self.rho14)
        rho[1, 2] = self.rho23
        rho[2, 1] = np.conj(self.rho23)
        return rho

    @property
    def marginal_a_is_mixed(self) -> bool:
        d = self.diag
        return abs((d[0] + d[1]) - 0.5) <= MIXED_MARGINAL_TOL


@dataclass(frozen=True)
class DiscordWitness:
    """Measurement parameters achieving the conditional-entropy minimum.

    ``k`` and ``l`` = 1 - k parametrize the projective measurement on the
    second qubit (k = 1 or 0 is the z measurement, k = 1/2 equatorial);
    ``theta`` and ``theta_prime`` are the Bloch lengths of the two
    conditional states of the first qubit.
    """

    k: float
    l: float
    theta: float
    theta_prime: float


@dataclass(frozen=True)
class DiscordResult:
    value: float
    method: str  # "candidates" or "brute-force"
    witness: DiscordWitness | None


def _conditional_entropy_mixed_a(x: XState, polar: float) -> tuple[float, float, float]:
    """Conditional entropy for measurement direction at given polar angle.

    Valid for X states whose first marginal is maximally mixed.  The
    azimuthal angle is already optimized out: the best equatorial direction
    aligns with the largest singular value 2(|rho14| + |rho23|) of the
    transverse correlation block.  Returns (entropy, theta, theta_prime).
    """
    d = x.diag
    t33 = d[0] - d[1] - d[2] + d[3]
    w3 = d[0] - d[1] + d[2] - d[3]
    m_eq = 2.0 * (abs(x.rho14) + abs(x.rho23))
    cos_t, sin_t = np.cos(polar), np.sin(polar)
    length = np.sqrt((m_eq * sin_t) ** 2 + (t33 * cos_t) ** 2)
    entropy = 0.0
    thetas = []
    for sign in (+1.0, -1.0):
        p = 0.5 * (1.0 + sign * w3 * cos_t)
        if p <= 1e-15:
            thetas.append(0.0)
            continue
        theta = min(length / (2.0 * p), 1.0)
        thetas.append(theta)
        entropy += p * binary_entropy((1.0 + theta) / 2.0)
    return entropy, thetas[0], thetas[1]


def _discord_candidates(x: XState) -> tuple[float, DiscordWitness]:
    """Discord of an X state with maximally mixed first marginal.

    The conditional entropy is evaluated at the three candidate
    measurements (k, l) in {(1,0), (0,1), (1/2,1/2)} and the minimum taken;
    a bounded one-dimensional search over the polar angle then guards
    against the rare X states whose optimum is at an interior angle.
    """
    candidates = [(0.0, 1.0, 0.0), (np.pi, 0.0, 1.0), (np.pi / 2.0, 0.5, 0.5)]
    best = None
    for polar, k, l in candidates:
        entropy, theta, theta_p = _conditional_entropy_mixed_a(x, polar)
        if best is None or entropy < best[0]:
            best = (entropy, k, l, theta, theta_p)
    res = minimize_scalar(
        lambda p: _conditional_entropy_mixed_a(x, p)[0],
        bounds=(0.0, np.pi / 2.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    if np.isfinite(res.fun) and res.fun < best[0]:
        entropy, theta, theta_p = _conditional_entropy_mixed_a(x, float(res.x))
        k = (1.0 + np.cos(res.x)) / 2.0
        best = (entropy, float(k), float(1.0 - k), theta, theta_p)
    cond_entropy, k, l, theta, theta_p = best
    rho = x.to_density()
    classical = 1.0 - cond_entropy
    value = max(0.0, mutual_information(rho) - classical)
    return value, DiscordWitness(k=k, l=l, theta=theta, theta_prime=theta_p)


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


def xstate_discord_details(rho) -> DiscordResult:
    """Quantum discord of an X state, with method metadata.

    The closed-form candidate evaluation applies when the first marginal is
    maximally mixed (measurements on the second qubit); otherwise the value
    silently falls back to the brute-force minimization and the result is
    flagged accordingly.
    """
    if isinstance(rho, XState):
        x = rho
    else:
        x = XState.from_density(rho)
    if x.marginal_a_is_mixed:
        value, witness = _discord_candidates(x)
        return DiscordResult(value=value, method="candidates", witness=witness)
    value = discord_brute_force(x.to_density())
    return DiscordResult(value=value, method="brute-force", witness=None)


def xstate_discord(rho) -> float:
    """Quantum discord of an X state in bits (measurement on qubit B)."""
    return xstate_discord_details(rho).value


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

    Negativity, mutual information and geometric discord are evaluated on
    the stack of closed-form Choi states, the discord state by state; the
    coherence is the transverse contraction alpha(t), the l1-coherence of
    the channel's image of a state with unit initial coherence.
    """
    omegas = covariant.choi_states(alpha, beta, shift)
    e, i, d = negativity(omegas), mutual_information(omegas), geometric_discord(omegas)
    return [
        CorrelationPoint(
            t=float(times[k]),
            negativity=float(e[k]),
            mutual_information=float(i[k]),
            discord=xstate_discord(omegas[k]),
            geometric_discord=float(d[k]),
            coherence=float(alpha[k]),
        )
        for k in range(len(omegas))
    ]


def correlation_table(rates: covariant.CovariantRates, times) -> list[CorrelationPoint]:
    """:func:`correlation_points` of the channel over a time grid."""
    return correlation_points(times, *covariant.channel_grid(rates, times))
