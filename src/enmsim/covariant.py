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
plane by alpha = exp(-A - F), the axis by beta = exp(-2A), and shifts it
by -c with c = -lz.

For constant (a, x) all of these have closed forms.  Otherwise A(t) and a
callable non-optimal F(t) are single adaptive quadratures, and lz(t) is
read from one dense DOP853 solve of its ODE (rtol 1e-13, atol 1e-15)
cached on the rates object.  The solve is extended over the fixed
segments [0, 1], [1, 2], [2, 4], [4, 8], ... as later times are asked
for, so a value never depends on which times were queried before.

Complete positivity requires

    exp(-2A) + |lz| <= 1     and     4 alpha^2 + c^2 <= (1 + beta)^2.

Saturating the second inequality at every time singles out the unique
dephasing rate f that minimizes the loss of correlations and coherence,

    f = -a + [2 a u (1 + u) - 2 a lz^2 - 2 x lz] / ((1 + u)^2 - lz^2),

with u = exp(-2A); that rate is negative for all t > 0 whenever |x| <= a,
so the optimal dynamics is non-Markovian at all times.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
from scipy.integrate import quad, solve_ivp

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
    def constant(cls, a: float, x: float = 0.0, f: float = 0.0) -> "CovariantRates":
        a_fn, _ = _as_rate(a)
        x_fn, _ = _as_rate(x)
        f_fn, _ = _as_rate(f)
        return cls(
            a=a_fn,
            x=x_fn,
            f=f_fn,
            a_const=float(a),
            x_const=float(x),
            f_const=float(f),
        )

    @classmethod
    def optimal(cls, a: RateLike, x: RateLike = 0.0) -> "CovariantRates":
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


@dataclass(frozen=True)
class RateIntegrals:
    """Integrated rates at one time: int a, int f and the longitudinal shift."""

    int_a: float
    int_f: float
    lz: float


def _quad(fn, lo, hi):
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
            return -2.0 * x * t
        return -(x / a) * (1.0 - np.exp(-2.0 * a * t))
    if not 0.0 <= t < np.inf:
        raise ValueError(f"lz needs a finite time t >= 0, got {t}")
    if t == 0.0:
        return 0.0
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


def _optimal_integral(rates: CovariantRates, big_a: float, lz: float) -> float:
    u = np.exp(-2.0 * big_a)
    if rates.is_constant_ax and rates.a_const > 0.0:
        q = rates.x_const / rates.a_const
        if abs(q) > 1.0 + 1e-12:
            raise InfeasibleRates("optimal dephasing requires |x| <= a")
        if abs(abs(q) - 1.0) < 1e-15:
            return 0.0
        # expanded form with only positive terms: stable for u -> 0, |q| -> 1
        arg = ((1.0 - q * q) * (1.0 + u * u) + 2.0 * u * (1.0 + q * q)) / 4.0
    else:
        arg = ((1.0 + u) ** 2 - lz**2) / 4.0
    if arg <= 0.0:
        raise InfeasibleRates("(1 + e^{-2A})^2 <= lz^2: no admissible dephasing")
    return -0.5 * (2.0 * big_a + np.log(arg))


def optimal_dephasing_integral(rates: CovariantRates, t: float) -> float:
    """Integral F(t) of the correlation-optimal dephasing rate.

    Chosen so the complete-positivity inequality
    4 exp(-2A - 2F) + lz^2 <= (1 + exp(-2A))^2 is an equality at every time:

        F(t) = -[2 A(t) + log(((1 + e^{-2A})^2 - lz^2) / 4)] / 2.
    """
    return _optimal_integral(rates, _int_a(rates, t), _lz(rates, t))


def optimal_dephasing_rate(rates: CovariantRates, t: float) -> float:
    """The unique dephasing rate minimizing correlation loss at every time.

    This is dF/dt of :func:`optimal_dephasing_integral`, taken analytically
    with dA/dt = a and dlz/dt = -2 a lz - 2 x:

        f = -a + [2 a u (1 + u) - 2 a lz^2 - 2 x lz] / ((1 + u)^2 - lz^2),

    with u = exp(-2A).  For constant (a, x) the closed form

        f(t) = -a (1 - q^2) (1 - u^2) / ((1 + u)^2 - q^2 (1 - u)^2),

    with q = x/a and u = exp(-2 a t), is used; it equals -a tanh(a t) for
    x = 0 and vanishes identically for |x| = a.
    """
    if rates.is_constant_ax:
        a, x = rates.a_const, rates.x_const
        if abs(x) > a:
            raise InfeasibleRates("optimal dephasing requires |x| <= a")
        if a == 0.0:
            return 0.0
        q = x / a
        u = np.exp(-2.0 * a * t)
        denom = (1.0 + u) ** 2 - q**2 * (1.0 - u) ** 2
        return -a * (1.0 - q**2) * (1.0 - u**2) / denom
    a, x = rates.a(t), rates.x(t)
    u = np.exp(-2.0 * _int_a(rates, t))
    lz = _lz(rates, t)
    denom = (1.0 + u) ** 2 - lz**2
    if denom <= 0.0:
        raise InfeasibleRates("(1 + e^{-2A})^2 <= lz^2: no admissible dephasing")
    return -a + (2.0 * a * u * (1.0 + u) - 2.0 * a * lz**2 - 2.0 * x * lz) / denom


def rate_integrals(rates: CovariantRates, t: float) -> RateIntegrals:
    """A(t) = int a, F(t) = int f and lz(t), each evaluated once."""
    big_a = _int_a(rates, t)
    lz = _lz(rates, t)
    if rates.f_is_optimal:
        int_f = _optimal_integral(rates, big_a, lz)
    elif rates.f_const is not None:
        int_f = rates.f_const * t
    else:
        int_f = _quad(rates.f, 0.0, t)
    return RateIntegrals(int_a=big_a, int_f=int_f, lz=lz)


@dataclass(frozen=True)
class CovariantChannelAt:
    """Snapshot of the covariant channel at one time.

    ``alpha`` contracts the transverse plane, ``beta`` the z-axis, and the
    Bloch action is r -> (alpha r1, alpha r2, beta r3 - shift).
    """

    alpha: float
    beta: float
    shift: float

    @property
    def matrix(self) -> np.ndarray:
        return np.diag([self.alpha, self.alpha, self.beta])

    @property
    def shift_vector(self) -> np.ndarray:
        return np.array([0.0, 0.0, -self.shift])

    def apply(self, r0) -> np.ndarray:
        """Image (alpha r1, alpha r2, beta r3 - shift) of a Bloch vector."""
        return np.array(
            [self.alpha * r0[0], self.alpha * r0[1], self.beta * r0[2] - self.shift]
        )


def channel_at(rates: CovariantRates, t: float) -> CovariantChannelAt:
    """Contraction coefficients (alpha, beta) and longitudinal shift at t."""
    ints = rate_integrals(rates, t)
    return CovariantChannelAt(
        alpha=float(np.exp(-ints.int_a - ints.int_f)),
        beta=float(np.exp(-2.0 * ints.int_a)),
        shift=float(-ints.lz),
    )


def cptp_conditions(ch: CovariantChannelAt) -> tuple[bool, bool, float]:
    """Both complete-positivity conditions of a channel snapshot.

    Returns (cond_a, cond_b, slack_b) where cond_a is beta + |c| <= 1,
    cond_b is 4 alpha^2 + c^2 <= (1 + beta)^2 and slack_b is the right-hand
    side minus the left-hand side of the latter (zero when the optimal
    dephasing rate saturates it), with c = shift and slack ``CPTP_TOL`` on
    both.  The products are plain float multiplications, which overflow to
    inf instead of raising: an inf or NaN coefficient makes the condition
    it enters fail, so such a channel is never reported CPTP.
    """
    beta, c = ch.beta, ch.shift
    slack = (1.0 + beta) * (1.0 + beta) - (4.0 * ch.alpha * ch.alpha + c * c)
    return bool(beta + abs(c) <= 1.0 + CPTP_TOL), bool(slack >= -CPTP_TOL), slack


def choi_state(rates: CovariantRates, t: float) -> np.ndarray:
    """Choi matrix of the covariant channel at time t.

    With alpha, beta, c = shift this is

        (1/4) [[1+b, 0,   0,   2a ],
               [0,   1-b, 0,   0  ],
               [0,   0,   1-b, 0  ],
               [2a,  0,   0,   1+b]]  -  (c/4) diag(1, -1, 1, -1),

    which is positive semidefinite exactly when the CPTP conditions hold.
    """
    ch = channel_at(rates, t)
    return lindblad.choi_of_map(ch.matrix, ch.shift_vector)


def asymptotic_image(rates: CovariantRates) -> tuple[float, float]:
    """Limit geometry of the Bloch ball under the optimal channel.

    For constant rates with |x| <= a and the optimal dephasing rate, the
    ball flattens onto a disk of radius sqrt(1 - (x/a)^2) / 2 centered at
    -x/a on the z-axis.  Returns (radius, center_z).
    """
    if not rates.is_constant_ax:
        raise ValueError("asymptotic image requires constant a, x")
    a, x = rates.a_const, rates.x_const
    if a <= 0.0:
        raise InfeasibleRates("asymptotic image requires a > 0")
    q = x / a
    if abs(q) > 1.0 + 1e-12:
        raise InfeasibleRates("asymptotic image requires |x| <= a")
    radius = 0.5 * np.sqrt(max(0.0, 1.0 - q**2))
    return float(radius), float(-q)
