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

For constant (a, x) all of these have closed forms.  Otherwise A(t) is a
single adaptive quadrature, and lz(t) is read from one dense DOP853 solve
of its ODE (rtol 1e-13, atol 1e-15) cached on the rates object.  The
solve is extended over the fixed segments [0, 1], [1, 2], [2, 4],
[4, 8], ... as later times are asked for, so a value never depends on
which times were queried before.  A callable non-optimal F(t) is an
adaptive Gauss-Kronrod integral over [0, t] that runs on numpy alone and
is evaluated for a whole grid at once (:func:`_dephasing_integrals`).

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
    """QUADPACK's adaptive integral of fn over [lo, hi], for a callable ``a``.

    A callable non-optimal ``f`` goes through :func:`_dephasing_integrals`
    instead.  The two integrators stay apart for now: ``A`` is to move into
    the cached DOP853 solve next to ``lz``, and the benchmark's counters
    still read the calls of this one.
    """
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


# The 21-point Gauss-Kronrod rule on [-1, 1] of QUADPACK's qk21 (Piessens et
# al., QUADPACK, 1983): its nodes and weights, and the weights of the 10-point
# Gauss rule that it extends, whose nodes are every second Kronrod node.
_GK21_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
    -0.148874338981631210884826001129720, -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784, -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874, -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493, -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452, -0.995657163025808080735527280689003,
])
_GK21_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068, 0.142775938577060080797094273138717,
    0.134709217311473325928054001771707, 0.123491976262065851077958109831074,
    0.109387158802297641899210590325805, 0.093125454583697605535065465083366,
    0.075039674810919952767043140916190, 0.054755896574351996031381300244580,
    0.032558162307964727478818972459390, 0.011694638867371874278064396062192,
])
_G10_WEIGHTS = np.zeros(21)
_G10_WEIGHTS[1::2] = [
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338, 0.295524224714752870173892994651338,
    0.269266719309996355091226921569469, 0.219086362515982043995534934228163,
    0.149451349150580593145776339657697, 0.066671344308688137593568809893332,
]
#: Absolute and relative tolerance, and subinterval limit, of each F(t).
_GK_TOL = 1e-12
_GK_LIMIT = 200
#: Times integrated together.  It bounds the node arrays, and a divergent
#: integral fails before the later blocks of a large grid are evaluated.
_GK_BLOCK = 512
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _gk21(f, lo, hi):
    """QUADPACK's qk21 on every panel [lo, hi], lo <= hi: (integrals, error estimates).

    The rate is called once per node as a scalar function, because numpy's
    array exp and tanh differ from math's by an ulp.  The weights are
    applied by products and row sums, not a BLAS product, whose rounding
    depends on how many rows it holds: a panel's value depends on the panel
    alone.  The error estimate is qk21's, |K - G| scaled by resasc, the
    Kronrod integral of |f - K/2|, and bounded below by 50 eps resabs.
    """
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = center[:, None] + half[:, None] * _GK21_NODES
    values = np.array(list(map(f, nodes.ravel().tolist())), dtype=float)
    values = values.reshape(nodes.shape)
    with np.errstate(all="ignore"):
        kronrod = (values * _GK21_WEIGHTS).sum(axis=-1)
        gauss = (values * _G10_WEIGHTS).sum(axis=-1)
        resabs = (np.abs(values) * _GK21_WEIGHTS).sum(axis=-1) * half
        resasc = (np.abs(values - 0.5 * kronrod[:, None]) * _GK21_WEIGHTS).sum(axis=-1) * half
        err = np.abs(kronrod - gauss) * half
        scaled = resasc * np.minimum(1.0, 200.0 * err / resasc) ** 1.5
        err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
        err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
        integral = kronrod * half
    bad = ~(np.isfinite(integral) & np.isfinite(err))
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise QuadratureFailed(
            f"dephasing rate integral on [{lo[k]:.12g}, {hi[k]:.12g}] is not finite"
        )
    return integral, err


def _dephasing_integrals(f, times):
    """F(t) = int_0^t f for every time t >= 0 of an array (or one time).

    Each time is integrated over its own [0, t], so F is a function of t
    alone: a grid column equals the same time asked alone.  The times go in
    blocks of ``_GK_BLOCK``, and each round of a block evaluates the new
    panels of all its unfinished times with one pass of rate calls.  A time
    is done when its panels' summed error estimate is at most
    max(_GK_TOL, _GK_TOL |F|), QUADPACK's rule; otherwise its worst panel is
    bisected.  A time that needs more than ``_GK_LIMIT`` panels, or a panel
    too narrow to bisect, raises :class:`QuadratureFailed`.
    """
    times = np.asarray(times, dtype=float)
    flat = times.ravel()
    out = np.zeros(flat.shape)
    for start in range(0, flat.size, _GK_BLOCK):
        out[start:start + _GK_BLOCK] = _dephasing_block(f, flat[start:start + _GK_BLOCK])
    return out.reshape(times.shape)[()]


def _dephasing_block(f, times):
    owner = np.flatnonzero(times > 0.0)  # F(0) = 0 needs no rate call
    lo, hi = np.zeros(owner.size), times[owner]
    value, err = _gk21(f, lo, hi)
    while True:
        # bincount adds each time's panels in an order set by that time alone
        area = np.bincount(owner, value, minlength=times.size)
        errsum = np.bincount(owner, err, minlength=times.size)
        todo = errsum > np.maximum(_GK_TOL, _GK_TOL * np.abs(area))
        if not todo.any():
            return area
        full = todo & (np.bincount(owner, minlength=times.size) >= _GK_LIMIT)
        if full.any():
            k = np.flatnonzero(full)[0]
            raise QuadratureFailed(
                f"dephasing rate integral up to t={times[k]:.12g} not resolved in "
                f"{_GK_LIMIT} subintervals (error estimate {errsum[k]:.3g})"
            )
        # the panel with the largest error of each unfinished time
        cand = np.flatnonzero(todo[owner])
        cand = cand[np.lexsort((-err[cand], owner[cand]))]
        worst = cand[np.r_[True, owner[cand][1:] != owner[cand][:-1]]]
        a, b = lo[worst], hi[worst]
        mid = 0.5 * (a + b)
        narrow = b <= (1.0 + 100.0 * _EPS) * (mid + 1000.0 * _TINY)  # QUADPACK's test
        if narrow.any():
            k = np.flatnonzero(narrow)[0]
            raise QuadratureFailed(
                f"dephasing rate integral up to t={times[owner[worst[k]]]:.12g} does not "
                f"converge near t={mid[k]:.12g}"
            )
        # the left half takes the worst panel's place, the right half is appended
        n = worst.size
        new_value, new_err = _gk21(f, np.concatenate([a, mid]), np.concatenate([mid, b]))
        value[worst], err[worst], hi[worst] = new_value[:n], new_err[:n], mid
        owner = np.concatenate([owner, owner[worst]])
        lo, hi = np.concatenate([lo, mid]), np.concatenate([hi, b])
        value, err = np.concatenate([value, new_value[n:]]), np.concatenate([err, new_err[n:]])


def _int_a(rates: CovariantRates, t):
    if rates.a_const is not None:
        return rates.a_const * t
    if isinstance(t, np.ndarray):  # a callable a is integrated time by time
        return np.array([_int_a(rates, s) for s in t.tolist()])
    return _quad(rates.a, 0.0, t)


def _lz(rates: CovariantRates, t):
    if rates.is_constant_ax:
        a, x = rates.a_const, rates.x_const
        if a == 0.0:
            return -2.0 * (x * t)
        return -(x / a) * (1.0 - np.exp(-2.0 * (a * t)))
    if isinstance(t, np.ndarray):  # read from the cached dense solve time by time
        return np.array([_lz(rates, s) for s in t.tolist()])
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
    if isinstance(m, np.ndarray):
        infeasible = ((m <= 0.0) | (p <= 0.0)).any()
    else:  # per-time callers (the ODE right-hand side) skip a numpy reduction
        infeasible = m <= 0.0 or p <= 0.0
    if infeasible:
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
    """(alpha, beta, shift) at time t, or elementwise on an array t.  Every
    rate kind refuses a negative or non-finite time, which has no channel."""
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
        alpha = np.exp(-big_a - _dephasing_integrals(rates.f, t))
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

    Closed forms run once on the whole array, and a callable non-optimal f
    is one batched integral; a callable a, and lz for a callable a or x,
    are read time by time.
    """
    return _coefficients(rates, np.asarray(times, dtype=float))


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
