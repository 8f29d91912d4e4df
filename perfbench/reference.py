"""Independent reference values and output checks for the benchmark.

Every expected number is rebuilt here with numpy from the paper's closed
forms.  Nothing in this module imports enmsim, so a fault in the package
cannot hide inside its own reference.

Two kinds of problem are told apart:

* :class:`OpFailed` -- the operation did not produce a usable result
  (nonzero exit code, output that does not parse, an exception).  It is
  counted in ``failed``.
* :class:`Mismatch` -- the output parsed but a value disagrees with the
  reference or violates a physical property.  It makes ``correct`` false.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: Pauli matrices sigma_0..sigma_3.
PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
PAULI2 = np.einsum("mab,ncd->mnacbd", PAULI, PAULI).reshape(4, 4, 4, 4)

#: Tolerance on the minimum Choi eigenvalue of any valid channel.
PSD_FLOOR = -1e-9
#: |min Choi eigenvalue| allowed when the optimal rate saturates CP.
SATURATION_TOL = 1e-7


class OpFailed(Exception):
    """The operation produced no usable output."""


class Mismatch(Exception):
    """The output disagrees with the independent reference."""


# ---------------------------------------------------------------------------
# Output parsing (strict)
# ---------------------------------------------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def parse_table(text: str, fmt: str, headers) -> np.ndarray:
    """Parse a CSV or JSON table into a float array of shape (rows, cols).

    CSV must have exactly the expected header and one final newline; JSON
    must parse under a strict parser (no NaN or Infinity).  A JSON null or
    a string naming infinity is read as +inf, the encodings a strict
    writer may choose for an unbounded value.
    """
    headers = list(headers)
    if fmt == "csv":
        if not text.endswith("\n") or text.endswith("\n\n"):
            raise OpFailed("CSV must end with exactly one newline")
        lines = text[:-1].split("\n")
        if lines[0] != ",".join(headers):
            raise OpFailed(f"CSV header {lines[0]!r} != {','.join(headers)!r}")
        try:
            rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        except ValueError as exc:
            raise OpFailed(f"CSV value does not parse: {exc}") from exc
        if any(len(r) != len(headers) for r in rows):
            raise OpFailed("CSV row has the wrong number of fields")
        return np.array(rows, dtype=float).reshape(-1, len(headers))
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise OpFailed(f"JSON does not parse strictly: {exc}") from exc
    if not isinstance(data, list) or any(
        not isinstance(d, dict) or list(d) != headers for d in data
    ):
        raise OpFailed("JSON must be a list of objects with the table headers")
    return np.array(
        [[_json_number(d[h]) for h in headers] for d in data], dtype=float
    ).reshape(-1, len(headers))


def _json_number(value) -> float:
    if value is None or (isinstance(value, str) and "inf" in value.lower()):
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise OpFailed(f"JSON value {value!r} is not a number")
    return float(value)


def close(label: str, got, want, atol: float = 1e-10, rtol: float = 1e-9) -> None:
    """Raise :class:`Mismatch` unless got matches want elementwise."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{label}: shape {got.shape} != {want.shape}")
    same_inf = np.isinf(want) & (got == want)
    with np.errstate(invalid="ignore"):
        err = np.where(same_inf, 0.0, np.abs(got - want))
    limit = atol + rtol * np.where(np.isinf(want), 0.0, np.abs(want))
    bad = ~(err <= limit)
    if np.any(bad):
        i = int(np.flatnonzero(bad.ravel())[0])
        raise Mismatch(
            f"{label}: got {got.ravel()[i]!r}, want {want.ravel()[i]!r} "
            f"(|err| {err.ravel()[i]:.3e} > {limit.ravel()[i]:.3e})"
        )


def time_grid(t_min: float, t_max: float, points: int, spacing: str) -> np.ndarray:
    if spacing == "log":
        return np.geomspace(t_min, t_max, points)
    return np.linspace(t_min, t_max, points)


# ---------------------------------------------------------------------------
# Channel coefficients
# ---------------------------------------------------------------------------


def constant_rate_channel(a: float, x: float, f, t):
    """(alpha, beta, c) of the covariant channel with constant a and x.

    ``f`` is a number (constant dephasing rate) or ``"optimal"``.  The
    optimal rate saturates 4 alpha^2 + c^2 = (1 + beta)^2, which gives
    alpha = sqrt((1 + u)^2 - c^2) / 2 with u = exp(-2 a t).
    """
    t = np.asarray(t, dtype=float)
    u = np.exp(-2.0 * a * t)
    c = (x / a) * (1.0 - u) if a > 0.0 else 2.0 * x * t
    if f == "optimal":
        alpha = saturated_alpha(u, c)
    else:
        alpha = np.exp(-a * t - float(f) * t)
    return alpha, u, c


def saturated_alpha(u, c):
    """Transverse contraction that makes the second CP condition an equality."""
    return 0.5 * np.sqrt(np.maximum((1.0 + u) ** 2 - np.asarray(c) ** 2, 0.0))


def longitudinal_integrals(x_fn, big_a_fn, times, nodes: int = 24):
    """A(t) and lz(t) = -2 exp(-2A) int_0^t x exp(2A) on an ascending grid.

    ``big_a_fn`` is the exact antiderivative A(t) = int_0^t a of the
    transverse rate.
    Each grid interval is integrated by Gauss-Legendre quadrature, so the
    result is accurate to rounding for smooth rates.
    """
    times = np.asarray(times, dtype=float)
    knots = np.concatenate([[0.0], times])
    lo, hi = knots[:-1], knots[1:]
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * (hi - lo)[:, None] * xg[None, :] + 0.5 * (hi + lo)[:, None]
    integrand = x_fn(s) * np.exp(2.0 * big_a_fn(s))
    pieces = 0.5 * (hi - lo) * (integrand * wg[None, :]).sum(axis=1)
    big_a = big_a_fn(times)
    lz = -2.0 * np.exp(-2.0 * big_a) * np.cumsum(pieces)
    return big_a, lz


def optimal_rate(a, x, u, lz):
    """f = -a + [2a u(1+u) - 2a lz^2 - 2x lz] / ((1+u)^2 - lz^2)."""
    return -a + (2.0 * a * u * (1.0 + u) - 2.0 * a * lz**2 - 2.0 * x * lz) / (
        (1.0 + u) ** 2 - lz**2
    )


# ---------------------------------------------------------------------------
# Choi states and their measures
# ---------------------------------------------------------------------------


def choi(alpha, beta, c) -> np.ndarray:
    """Choi matrix (reference qubit first) of r -> (alpha r1, alpha r2, beta r3 - c)."""
    alpha, beta, c = np.broadcast_arrays(*(np.asarray(v, float) for v in (alpha, beta, c)))
    m = np.zeros(alpha.shape + (4, 4))
    m[..., 0, 0] = (1.0 + beta - c) / 4.0
    m[..., 1, 1] = (1.0 - beta + c) / 4.0
    m[..., 2, 2] = (1.0 - beta - c) / 4.0
    m[..., 3, 3] = (1.0 + beta + c) / 4.0
    m[..., 0, 3] = m[..., 3, 0] = alpha / 2.0
    return m


def _entropy_bits(eig) -> np.ndarray:
    p = np.clip(eig, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, -p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    return terms.sum(axis=-1)


def binary_entropy(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    return _entropy_bits(np.stack([p, 1.0 - p], axis=-1))


def _marginals(rho):
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    return np.einsum("...abcb->...ac", r), np.einsum("...abad->...bd", r)


def pauli_tensor(rho) -> np.ndarray:
    """R[mu, nu] = Tr[(sigma_mu x sigma_nu) rho]."""
    return np.einsum("mnij,...ji->...mn", PAULI2, rho).real


def min_eigenvalue(rho) -> np.ndarray:
    return np.linalg.eigvalsh(rho).min(axis=-1)


def negativity(rho) -> np.ndarray:
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    pt = np.swapaxes(r, -3, -1).reshape(rho.shape)
    return np.maximum(0.0, (np.abs(np.linalg.eigvalsh(pt)).sum(axis=-1) - 1.0) / 2.0)


def mutual_information(rho) -> np.ndarray:
    rho_a, rho_b = _marginals(rho)
    s = (
        _entropy_bits(np.linalg.eigvalsh(rho_a))
        + _entropy_bits(np.linalg.eigvalsh(rho_b))
        - _entropy_bits(np.linalg.eigvalsh(rho))
    )
    return np.maximum(0.0, s)


def geometric_discord(rho) -> np.ndarray:
    """(|s|^2 + ||T||^2 - lambda_max(s s^T + T T^T)) / 4."""
    tensor = pauli_tensor(rho)
    s = tensor[..., 1:, 0]
    t = tensor[..., 1:, 1:]
    k = np.einsum("...i,...j->...ij", s, s) + t @ np.swapaxes(t, -1, -2)
    lam = np.linalg.eigvalsh(k)[..., -1]
    total = (s**2).sum(axis=-1) + (t**2).sum(axis=(-1, -2))
    return np.maximum(0.0, 0.25 * (total - lam))


def luo_discord(c1, c2, c3) -> np.ndarray:
    """Discord of the Bell-diagonal state (1 + sum_i c_i sigma_i x sigma_i) / 4 (Luo 2008)."""
    c1, c2, c3 = (np.asarray(v, float) for v in (c1, c2, c3))
    lam = 0.25 * np.stack(
        [1 - c1 - c2 - c3, 1 - c1 + c2 + c3, 1 + c1 - c2 + c3, 1 + c1 + c2 - c3],
        axis=-1,
    )
    mutual = 2.0 - _entropy_bits(lam)
    c = np.maximum(np.maximum(np.abs(c1), np.abs(c2)), np.abs(c3))
    classical = 1.0 - binary_entropy((1.0 + c) / 2.0)
    return np.maximum(0.0, mutual - classical)


def _conditional_entropy(t_perp, t_zz, s_z, w_z, theta):
    """S(A | projective measurement on B along polar angle theta).

    For the covariant Choi states the correlation matrix is
    diag(t_perp, -t_perp, t_zz) and both local Bloch vectors lie on z, so
    the azimuth of the measurement direction drops out exactly.
    """
    cos, sin = np.cos(theta), np.sin(theta)
    total = 0.0
    for sign in (1.0, -1.0):
        p = 0.5 * (1.0 + sign * w_z * cos)
        length = np.sqrt((t_perp * sin) ** 2 + (s_z + sign * t_zz * cos) ** 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(p > 1e-300, np.minimum(length / (2.0 * p), 1.0), 0.0)
        total = total + p * binary_entropy((1.0 + r) / 2.0)
    return total


def search_discord(rho, grid_points: int = 257, iterations: int = 64) -> np.ndarray:
    """Discord by minimizing the conditional entropy over measurement angles.

    A uniform grid on [0, pi] brackets the minimum; golden-section steps
    then shrink the bracket of width 2 pi / 256 below 1e-14.
    """
    tensor = pauli_tensor(rho)
    t_perp = np.abs(tensor[..., 1, 1])[..., None]
    t_zz = tensor[..., 3, 3][..., None]
    s_z = tensor[..., 3, 0][..., None]
    w_z = tensor[..., 0, 3][..., None]
    thetas = np.linspace(0.0, np.pi, grid_points)
    values = _conditional_entropy(t_perp, t_zz, s_z, w_z, thetas[None, :])
    best = np.argmin(values, axis=-1)
    step = thetas[1]
    lo = np.maximum(thetas[best] - step, 0.0)[..., None]
    hi = np.minimum(thetas[best] + step, np.pi)[..., None]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(iterations):
        m1 = hi - g * (hi - lo)
        m2 = lo + g * (hi - lo)
        f1 = _conditional_entropy(t_perp, t_zz, s_z, w_z, m1)
        f2 = _conditional_entropy(t_perp, t_zz, s_z, w_z, m2)
        lo = np.where(f1 <= f2, lo, m1)
        hi = np.where(f1 <= f2, m2, hi)
    refined = _conditional_entropy(t_perp, t_zz, s_z, w_z, 0.5 * (lo + hi))[..., 0]
    cond = np.minimum(values.min(axis=-1), refined)
    rho_a, _ = _marginals(rho)
    s_a = _entropy_bits(np.linalg.eigvalsh(rho_a))
    return np.maximum(0.0, mutual_information(rho) - (s_a - cond))


def covariant_discord(alpha, beta, c, chunk: int = 32) -> np.ndarray:
    """Discord of the covariant Choi state: Luo's formula when c = 0, else the search.

    The search runs on chunks of states so that the check adds little to
    the worker's peak memory.
    """
    alpha, beta, c = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, float))
                                           for v in (alpha, beta, c)))
    if np.all(c == 0.0):
        return luo_discord(alpha, -alpha, beta)
    rho = choi(alpha, beta, c)
    return np.concatenate([search_discord(rho[i:i + chunk]) for i in range(0, len(rho), chunk)])


def spectrum(s) -> np.ndarray:
    """Process-matrix moduli {1, (1+e^-s)/2, (1+e^-s)/2, e^-s} of the optical channel."""
    s = np.asarray(s, dtype=float)
    e = np.exp(-s)
    return np.stack([np.ones_like(s), (1 + e) / 2, (1 + e) / 2, e], axis=-1)


# ---------------------------------------------------------------------------
# Table checks: each takes a parsed table and the channel it should show
# ---------------------------------------------------------------------------


def check_channel_table(label, table, times, alpha, beta, c, saturated: bool):
    """choi table: t, alpha, beta, c, min_eigenvalue."""
    close(f"{label} t", table[:, 0], times, atol=1e-12, rtol=1e-11)
    close(f"{label} alpha", table[:, 1], alpha)
    close(f"{label} beta", table[:, 2], beta)
    close(f"{label} c", table[:, 3], c)
    check_choi_floor(label, table[:, 4], saturated)
    close(f"{label} min eigenvalue", table[:, 4], min_eigenvalue(choi(alpha, beta, c)), atol=1e-9)


def check_choi_floor(label, floors, saturated: bool):
    floors = np.asarray(floors, dtype=float)
    if np.any(floors < PSD_FLOOR):
        raise Mismatch(f"{label}: Choi eigenvalue {floors.min():.3e} < {PSD_FLOOR}")
    if saturated and np.any(np.abs(floors) > SATURATION_TOL):
        raise Mismatch(
            f"{label}: optimal rate leaves a Choi floor {np.abs(floors).max():.3e} "
            f"> {SATURATION_TOL}"
        )


def check_correlation_table(label, table, times, alpha, beta, c, optimal: bool,
                            initial_coherence: float = 1.0):
    """correlations table: t, E, I, Q, D, C."""
    rho = choi(alpha, beta, c)
    close(f"{label} t", table[:, 0], times, atol=1e-12, rtol=1e-11)
    negativity_want = beta / 2.0 if optimal else negativity(rho)
    close(f"{label} E", table[:, 1], negativity_want)
    close(f"{label} I", table[:, 2], mutual_information(rho), atol=1e-9)
    close(f"{label} Q", table[:, 3], covariant_discord(alpha, beta, c), atol=1e-8)
    close(f"{label} D", table[:, 4], geometric_discord(rho))
    close(f"{label} C", table[:, 5], initial_coherence * np.asarray(alpha))


def check_trajectory_table(label, table, times, alpha, beta, c, r0):
    close(f"{label} t", table[:, 0], times, atol=1e-12, rtol=1e-11)
    close(f"{label} r1", table[:, 1], alpha * r0[0])
    close(f"{label} r2", table[:, 2], alpha * r0[1])
    close(f"{label} r3", table[:, 3], beta * r0[2] - c)


def check_coherence_table(label, table, times, alpha):
    close(f"{label} t", table[:, 0], times, atol=1e-12, rtol=1e-11)
    close(f"{label} C", table[:, 1], alpha)


def check_qfi_table(label, table, times, alpha):
    """qfi table: Fisher information t^2 alpha^2 and its Cramer-Rao bound."""
    fisher = np.asarray(times) ** 2 * np.asarray(alpha) ** 2
    close(f"{label} t", table[:, 0], times, atol=1e-12, rtol=1e-11)
    close(f"{label} qfi", table[:, 1], fisher)
    with np.errstate(divide="ignore"):
        bound = np.where(fisher > 1e-300, 1.0 / np.where(fisher > 0, fisher, 1.0), np.inf)
    close(f"{label} cramer_rao", table[:, 2], bound, atol=0.0, rtol=1e-9)


def check_spectrum_table(label, table, s_values):
    moduli = spectrum(s_values)
    close(f"{label} s", table[:, 0], s_values, atol=1e-12, rtol=1e-11)
    close(f"{label} moduli", table[:, 1:5], moduli)
    close(f"{label} product", table[:, 5], moduli.prod(axis=-1))
