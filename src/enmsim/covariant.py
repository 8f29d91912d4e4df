"""Closed-form treatment of phase-covariant qubit channels.

A phase-covariant generator is fixed by three rate functions (a, x, f)
through the decoherence matrix

    gamma(t) = [[a(t), -i x(t), 0],
                [i x(t), a(t),  0],
                [0,      0,     f(t)]],

whose eigenvalues are a +- x and f.  The Bloch equations decouple:

    dr_perp/dt = -(a + f) r_perp,      dr3/dt = -2 a r3 - 2 x,

so everything is controlled by the integrals A = int a, F = int f and the
longitudinal shift lz(t) = -2 exp(-2A(t)) int_0^t x exp(2A), the solution
of dlz/dt = -2 a lz - 2 x with lz(0) = 0 (the fixed point of r3 for
constant rates is -x/a).  The channel at time t contracts the transverse
plane by alpha = exp(-A - F), the axis by beta = u = exp(-2A), and shifts
it by -c with c = -lz.

For constant (a, x) all of these have closed forms.  Otherwise A(t) and a
callable non-optimal F(t) are single adaptive quadratures, and lz(t) is
read from one dense DOP853 solve of its ODE (rtol 1e-13, atol 1e-15)
cached on the rates object.  The solve is extended over the fixed
segments [0, 1], [1, 2], [2, 4], [4, 8], ... as later times are asked
for, so a value never depends on which times were queried before.

Complete positivity requires

    exp(-2A) + |lz| <= 1     and     4 alpha^2 + c^2 <= (1 + beta)^2.

With m = (1 + u + lz)/2 and p = (1 + u - lz)/2, the populations that |0>
and |1> keep, the second inequality reads alpha^2 <= m p.  Saturating it
at every time, alpha = sqrt(m p), singles out the unique dephasing rate f
that minimizes the loss of correlations and coherence.  With
dm/dt = a - x - 2 a m and dp/dt = a + x - 2 a p it is

    f = a - (a - x) / (2 m) - (a + x) / (2 p),

which is 0 for |x| = a and negative for all t > 0 whenever |x| < a, so the
optimal dynamics is then non-Markovian at all times.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from . import lindblad
from .errors import InfeasibleRates, IntegratorDiverged, QuadratureFailed

QUAD_TOL = 1e-10
#: Slack allowed on the complete-positivity conditions.
CPTP_TOL = 1e-9

RateLike = Union[float, Callable[[float], float]]


def _as_rate(value: RateLike) -> tuple[Callable[[float], float], float | None]:
    if callable(value):
        return value, None
    const = float(value)
    return (lambda t: const), const


@dataclass(frozen=True)
class CovariantRates:
    """Rate functions (a, x, f) of a phase-covariant generator.

    ``a`` must be nonnegative; ``f`` may be negative (non-Markovian noise).
    Constant rates are tracked so the rate integrals can use closed forms.
    """

    a: Callable[[float], float]
    x: Callable[[float], float]
    f: Callable[[float], float]
    a_const: float | None = None
    x_const: float | None = None
    f_const: float | None = None
    f_is_optimal: bool = False
    # (end, lz(end), dense solution) of dlz/dt = -2 a lz - 2 x on the
    # segments [0, 1], [1, 2], [2, 4], ...
    _lz_segments: list = field(
        init=False, default_factory=list, repr=False, compare=False
    )

    @classmethod
    def optimal(cls, a: RateLike, x: RateLike) -> "CovariantRates":
        """Rates (a, x) with f set to the correlation-optimal dephasing rate.

        Requires |x(t)| <= a(t) wherever the channel is evaluated.
        """
        a_fn, a_const = _as_rate(a)
        x_fn, x_const = _as_rate(x)
        if a_const is not None and x_const is not None and abs(x_const) > a_const:
            raise InfeasibleRates("optimal dephasing requires |x| <= a")
        rates = cls(
            a=a_fn,
            x=x_fn,
            f=lambda t: 0.0,
            a_const=a_const,
            x_const=x_const,
            f_is_optimal=True,
        )
        object.__setattr__(rates, "f", lambda t: optimal_dephasing_rate(rates, t))
        return rates

    @classmethod
    def from_callables(
        cls, a: RateLike, x: RateLike, f: RateLike
    ) -> "CovariantRates":
        a_fn, a_const = _as_rate(a)
        x_fn, x_const = _as_rate(x)
        f_fn, f_const = _as_rate(f)
        return cls(
            a=a_fn,
            x=x_fn,
            f=f_fn,
            a_const=a_const,
            x_const=x_const,
            f_const=f_const,
        )

    @property
    def is_constant_ax(self) -> bool:
        return self.a_const is not None and self.x_const is not None


def gamma_matrix(rates: CovariantRates, t: float) -> np.ndarray:
    """The 3x3 decoherence matrix of the covariant family at time t."""
    a, x, f = rates.a(t), rates.x(t), rates.f(t)
    return np.array(
        [[a, -1j * x, 0.0], [1j * x, a, 0.0], [0.0, 0.0, f]], dtype=complex
    )


def decoherence_matrix(
    rates: CovariantRates, hamiltonian_rate: float = 0.0
) -> lindblad.DecoherenceMatrix:
    """Wrap the covariant rates as a generic time-dependent generator."""
    return lindblad.DecoherenceMatrix(
        gamma=lambda t: gamma_matrix(rates, t), hamiltonian_rate=hamiltonian_rate
    )


def _quad(fn, lo, hi):
    # scipy is the only function-local import: commands that never call it start without it
    from scipy.integrate import quad

    # full_output returns QUADPACK's warning as a fourth item instead of printing it
    val, err, _, *problem = quad(
        fn, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200, full_output=1
    )
    if problem:
        raise QuadratureFailed(
            f"quadrature on [{lo:.12g}, {hi:.12g}] failed: {problem[0].splitlines()[0]}"
        )
    if err > max(QUAD_TOL, 1e-10 * abs(val)):
        raise QuadratureFailed(f"quadrature error {err} too large")
    return val


def _int_a(rates: CovariantRates, t: float) -> float:
    if rates.a_const is not None:
        return rates.a_const * t
    return _quad(rates.a, 0.0, t)


def _lz(rates: CovariantRates, t: float) -> float:
    if rates.is_constant_ax:
        a, x = rates.a_const, rates.x_const
        if a == 0.0:
            return -2.0 * (x * t)
        return -(x / a) * (1.0 - np.exp(-2.0 * (a * t)))
    if not 0.0 <= t < np.inf:
        raise ValueError(f"lz needs a finite time t >= 0, got {t}")
    if t == 0.0:
        return 0.0
    from scipy.integrate import solve_ivp

    segments = rates._lz_segments
    while not segments or segments[-1][0] < t:
        start, lz0 = segments[-1][:2] if segments else (0.0, 0.0)
        end = max(1.0, 2.0 * start)
        sol = solve_ivp(
            lambda s, y: [-2.0 * rates.a(s) * y[0] - 2.0 * rates.x(s)],
            (start, end),
            [lz0],
            method="DOP853",
            rtol=1e-13,
            atol=1e-15,
            dense_output=True,
        )
        if sol.status != 0 or not np.all(np.isfinite(sol.y)):
            raise IntegratorDiverged(f"lz solve failed: {sol.message}")
        segments.append((end, float(sol.y[0, -1]), sol.sol))
    k = bisect.bisect_left([end for end, _, _ in segments], t)
    return float(segments[k][2](t)[0])


def _dephasing_vanishes(rates: CovariantRates) -> bool:
    """Constant |x| = a (a = 0 included): CP is saturated with f = F = 0."""
    return rates.is_constant_ax and abs(rates.x_const) == rates.a_const


def _populations(rates: CovariantRates, u, lz):
    """(m, p) = ((1 + u + lz)/2, (1 + u - lz)/2) with u = exp(-2A).

    These are the populations that |0> and |1> keep, and the optimal
    channel has alpha = sqrt(m p).  Constant (a, x) are checked against
    |x| <= a and, after :func:`_dephasing_vanishes`, are written in q = x/a
    with only positive terms, m = ((1 - q) + u (1 + q))/2 and
    p = ((1 + q) + u (1 - q))/2, so both stay positive once u underflows.
    """
    if rates.is_constant_ax:
        if abs(rates.x_const) > rates.a_const:
            raise InfeasibleRates("optimal dephasing requires |x| <= a")
        q = rates.x_const / rates.a_const
        return 0.5 * ((1.0 - q) + u * (1.0 + q)), 0.5 * ((1.0 + q) + u * (1.0 - q))
    m, p = 0.5 * (1.0 + u + lz), 0.5 * (1.0 + u - lz)
    if m <= 0.0 or p <= 0.0:
        raise InfeasibleRates("1 + e^{-2A} <= |lz|: no admissible dephasing")
    return m, p


def optimal_dephasing_integral(rates: CovariantRates, t: float) -> float:
    """Integral F(t) of the correlation-optimal dephasing rate.

    Chosen so that alpha = exp(-A - F) equals sqrt(m p) at every time, which
    makes the complete-positivity inequality an equality:

        F(t) = -A(t) - log(m p) / 2.
    """
    if _dephasing_vanishes(rates):
        return 0.0
    big_a = _int_a(rates, t)
    m, p = _populations(rates, np.exp(-2.0 * big_a), _lz(rates, t))
    return -big_a - 0.5 * np.log(m * p)


def optimal_dephasing_rate(rates: CovariantRates, t: float) -> float:
    """The unique dephasing rate minimizing correlation loss at every time.

    This is dF/dt of :func:`optimal_dephasing_integral`, taken analytically
    with dm/dt = a - x - 2 a m and dp/dt = a + x - 2 a p:

        f = a - (a - x) / (2 m) - (a + x) / (2 p).

    It equals -a tanh(a t) for constant a and x = 0, and it is exactly 0 at
    every time for constant |x| = a.  Rates with |x| > a raise
    :class:`InfeasibleRates`.
    """
    if _dephasing_vanishes(rates):
        return 0.0
    a, x = rates.a(t), rates.x(t)
    m, p = _populations(rates, np.exp(-2.0 * _int_a(rates, t)), _lz(rates, t))
    return a - (a - x) / (2.0 * m) - (a + x) / (2.0 * p)


def _coefficients(rates: CovariantRates, t):
    """(alpha, beta, shift) at time t; elementwise on an array t when every
    integral has a closed form (constant a and x, constant or optimal f).
    Every rate kind refuses a negative or non-finite time, which has no channel."""
    if isinstance(t, np.ndarray):
        valid = np.all((0.0 <= t) & (t < np.inf))
    else:  # a per-time caller pays one float comparison, not a numpy reduction
        valid = 0.0 <= t < np.inf
    if not valid:
        raise ValueError("channel times must be finite and >= 0")
    big_a = _int_a(rates, t)
    beta, lz = np.exp(-2.0 * big_a), _lz(rates, t)
    if rates.f_is_optimal and not _dephasing_vanishes(rates):
        m, p = _populations(rates, beta, lz)
        alpha = np.sqrt(m * p)
    elif rates.f_is_optimal:
        alpha = np.exp(-big_a)
    elif rates.f_const is not None:
        alpha = np.exp(-big_a - rates.f_const * t)
    else:
        alpha = np.exp(-big_a - _quad(rates.f, 0.0, t))
    return alpha, beta, -lz


@dataclass(frozen=True)
class CovariantChannelAt:
    """Snapshot of the covariant channel at one time.

    ``alpha`` contracts the transverse plane, ``beta`` the z-axis, and the
    Bloch action is r -> (alpha r1, alpha r2, beta r3 - shift).
    """

    alpha: float
    beta: float
    shift: float


def channel_at(rates: CovariantRates, t: float) -> CovariantChannelAt:
    """Contraction coefficients (alpha, beta) and longitudinal shift at t."""
    alpha, beta, shift = _coefficients(rates, t)
    return CovariantChannelAt(alpha=float(alpha), beta=float(beta), shift=float(shift))


def channel_grid(rates: CovariantRates, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (alpha, beta, shift) of the channel at every time of a grid.

    Closed forms run once on the whole array; a rate without one (a
    callable a, x or non-optimal f) is integrated time by time.
    """
    times = np.asarray(times, dtype=float)
    if rates.is_constant_ax and (rates.f_is_optimal or rates.f_const is not None):
        return _coefficients(rates, times)
    values = [_coefficients(rates, float(t)) for t in times]
    return tuple(np.array(values, dtype=float).reshape(-1, 3).T)


def cptp_conditions(alpha, beta, shift):
    """Both complete-positivity conditions, elementwise over coefficient arrays.

    Returns (cond_a, cond_b, slack_b) where cond_a is beta + |c| <= 1,
    cond_b is 4 alpha^2 + c^2 <= (1 + beta)^2 and slack_b is the right-hand
    side minus the left-hand side of the latter (zero when the optimal
    dephasing rate saturates it), with c = shift and slack ``CPTP_TOL`` on
    both.  An inf or NaN coefficient makes the condition it enters fail,
    so such a channel is never reported CPTP.
    """
    slack = (1.0 + beta) * (1.0 + beta) - (4.0 * alpha * alpha + shift * shift)
    return beta + np.abs(shift) <= 1.0 + CPTP_TOL, slack >= -CPTP_TOL, slack


def bloch_maps(alpha, beta, shift) -> tuple[np.ndarray, np.ndarray]:
    """Affine Bloch maps (diag(alpha, alpha, beta), (0, 0, -shift)) of covariant
    channels, stacked along the coefficients' shape: (..., 3, 3) and (..., 3)."""
    shape = np.shape(alpha)
    matrix = np.zeros(shape + (3, 3))
    matrix[..., 0, 0] = matrix[..., 1, 1] = alpha
    matrix[..., 2, 2] = beta
    shift_vector = np.zeros(shape + (3,))
    shift_vector[..., 2] = -np.asarray(shift)
    return matrix, shift_vector


def choi_states(alpha, beta, shift) -> np.ndarray:
    """Choi matrices of covariant channels, stacked along the coefficients' shape.

    With alpha, beta, c = shift each is

        (1/4) [[1+b, 0,   0,   2a ],
               [0,   1-b, 0,   0  ],
               [0,   0,   1-b, 0  ],
               [2a,  0,   0,   1+b]]  -  (c/4) diag(1, -1, 1, -1),

    which is positive semidefinite exactly when the CPTP conditions hold.
    """
    return lindblad.choi_of_map(*bloch_maps(alpha, beta, shift))


def choi_state(rates: CovariantRates, t: float) -> np.ndarray:
    """Choi matrix of the covariant channel at time t."""
    return choi_states(*_coefficients(rates, t))
