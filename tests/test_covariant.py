import decimal
import io
import json

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from enmsim import cli, covariant, lindblad
from enmsim.errors import InfeasibleRates
from enmsim.expressions import compile_rate_expression


def _int_a(ch):
    """A = int a, read from beta = e^{-2A}."""
    return -0.5 * np.log(ch.beta)


def _int_f(ch):
    """F = int f, read from alpha = e^{-A-F}."""
    return -np.log(ch.alpha) - _int_a(ch)


def test_gamma_matrix_eigenvalues():
    rates = covariant.CovariantRates.from_callables(1.2, 0.4, -0.3)
    gamma = covariant.gamma_matrix(rates, 0.0)
    assert np.max(np.abs(gamma - gamma.conj().T)) < 1e-12
    eig = np.sort(np.linalg.eigvalsh(gamma))
    np.testing.assert_allclose(eig, sorted([1.2 + 0.4, 1.2 - 0.4, -0.3]), atol=1e-12)


def test_integrals_constant_rate():
    rates = covariant.CovariantRates.from_callables(1.0, 0.0, 0.0)
    ch = covariant.channel_at(rates, 2.5)
    assert _int_a(ch) == pytest.approx(2.5, abs=1e-12)
    assert ch.shift == pytest.approx(0.0, abs=1e-15)


def test_integrals_longitudinal_shift_sign():
    # lz must match the fixed point of dr3/dt = -2a r3 - 2x
    rates = covariant.CovariantRates.from_callables(1.0, 0.5, 0.0)
    for t in (0.3, 1.0, 4.0):
        lz = -covariant.channel_at(rates, t).shift
        assert lz == pytest.approx(-0.5 * (1 - np.exp(-2 * t)), abs=1e-12)

    # independent oracle: integrate r3 from 0
    def rhs(t, r3):
        return -2.0 * r3 - 2.0 * 0.5

    sol = solve_ivp(rhs, (0, 4.0), [0.0], rtol=1e-11, atol=1e-13)
    assert -covariant.channel_at(rates, 4.0).shift == pytest.approx(
        sol.y[0, -1], abs=1e-9
    )


def test_identity_at_time_zero_for_the_largest_rates():
    # a t and x t are formed before they are doubled, so t = 0 gives no -inf * 0
    for a, x in ((1e308, 0.0), (1e308, -1e308), (0.0, 1e308)):
        ch = covariant.channel_at(covariant.CovariantRates.from_callables(a, x, 0.0), 0.0)
        assert (ch.alpha, ch.beta, ch.shift) == (1.0, 1.0, 0.0), (a, x)


def test_integrals_general_rates_match_quadrature():
    a = lambda t: 1.0 + 0.5 * np.sin(t)
    x = lambda t: 0.3 * np.cos(t)
    rates = covariant.CovariantRates.from_callables(a, x, 0.2)
    t = 2.0
    ch = covariant.channel_at(rates, t)
    big_a = quad(a, 0, t, epsabs=1e-13)[0]
    assert _int_a(ch) == pytest.approx(big_a, abs=1e-10)
    assert _int_f(ch) == pytest.approx(0.4, abs=1e-12)
    # oracle for lz: direct ODE for the shift
    sol = solve_ivp(
        lambda s, r: [-2 * a(s) * r[0] - 2 * x(s)],
        (0, t),
        [0.0],
        rtol=1e-12,
        atol=1e-14,
    )
    assert -ch.shift == pytest.approx(sol.y[0, -1], abs=1e-9)


def _trajectory(flags):
    """(t, r1, r2, r3) rows of the ``trajectory`` command, at full precision."""
    sink = io.StringIO()
    code = cli.run(cli.parse_config(["trajectory", *flags.split(), "--format", "json"]), sink)
    assert code == cli.EXIT_OK
    rows = json.loads(sink.getvalue())
    return np.array([[row[k] for k in ("t", "r1", "r2", "r3")] for row in rows])


def test_evolve_bloch_examples():
    rows = _trajectory("--a 1 --x 0 --f zero --r0 0.3,-0.4,0.5 --t-max 1 --points 2")
    np.testing.assert_allclose(rows[0, 1:], [0.3, -0.4, 0.5], atol=1e-14)
    rows = _trajectory("--a 1 --x 0 --f zero --r0 1,0,0 --t-max 1 --points 2")
    np.testing.assert_allclose(rows[1, 1:], [np.exp(-1.0), 0.0, 0.0], atol=1e-12)
    rows = _trajectory("--a 1 --x 0 --f zero --r0 0,0,1 --t-max 1 --points 2")
    np.testing.assert_allclose(rows[1, 1:], [0.0, 0.0, np.exp(-2.0)], atol=1e-12)
    rows = _trajectory("--a 1 --x 1 --f zero --r0 0,0,0 --t-max 40 --points 2")
    np.testing.assert_allclose(rows[1, 1:], [0, 0, -1], atol=1e-12)


def test_evolve_bloch_matches_ode():
    r0 = np.array([0.6, -0.3, 0.5])
    for f_mode, rates in (
        ("zero", covariant.CovariantRates.from_callables(1.0, 0.5, 0.0)),
        ("optimal", covariant.CovariantRates.optimal(1.0, 0.5)),
    ):
        gen = covariant.decoherence_matrix(rates)
        grid = np.linspace(0.0, 10.0, 21)
        pm = lindblad.propagate(gen, grid=grid, r0=r0)
        rows = _trajectory(
            f"--a 1 --x 0.5 --f {f_mode} --r0 0.6,-0.3,0.5 --t-max 10 --points 21"
        )
        np.testing.assert_array_equal(rows[:, 0], grid)
        np.testing.assert_allclose(rows[:, 1:], pm.bloch, atol=1e-7)


def test_cptp_conditions_free_dephasing():
    rates = covariant.CovariantRates.from_callables(1.0, 0.0, 0.0)
    ts = np.array([0.5, 1.0, 3.0])
    cond_a, cond_b, slack = covariant.cptp_conditions(*covariant.channel_grid(rates, ts))
    assert cond_a.all() and cond_b.all()
    u = np.exp(-2 * ts)
    np.testing.assert_allclose(slack, (1 + u) ** 2 - 4 * u, rtol=0, atol=1e-12)
    assert (slack > 0).all()


def test_cptp_saturated_by_optimal_rate():
    for x in (0.0, 0.5, 1.0):
        rates = covariant.CovariantRates.optimal(1.0, x)
        grid = covariant.channel_grid(rates, [0.1, 0.7, 2.0, 5.0])
        _, cond_b, slack = covariant.cptp_conditions(*grid)
        assert cond_b.all()
        assert (np.abs(slack) < 1e-8).all()


def test_cptp_violated_by_overly_negative_dephasing():
    rates = covariant.CovariantRates.from_callables(1.0, 0.0, -2.0)
    ch = covariant.channel_at(rates, 1.0)
    _, cond_b, slack = covariant.cptp_conditions(ch.alpha, ch.beta, ch.shift)
    assert not cond_b
    assert slack < 0


def test_optimal_integral_examples():
    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    assert covariant.optimal_dephasing_integral(rates, 0.0) == pytest.approx(0.0)
    # x = 0: F(t) = -log cosh t, hence f = -tanh t
    for t in (0.4, 1.0, 2.7):
        assert covariant.optimal_dephasing_integral(rates, t) == pytest.approx(
            -np.log(np.cosh(t)), abs=1e-12
        )


def test_optimal_integral_saturates_cp_bound():
    for a, x in ((1.0, 0.0), (1.0, 0.5), (2.0, 1.0)):
        rates = covariant.CovariantRates.optimal(a, x)
        for t in (0.2, 1.0, 3.0):
            ch = covariant.channel_at(rates, t)
            lhs = 4.0 * ch.alpha**2 + ch.shift**2
            assert lhs == pytest.approx((1.0 + ch.beta) ** 2, abs=1e-10)


def test_optimal_rate_examples():
    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    assert covariant.optimal_dephasing_rate(rates, 1.0) == pytest.approx(
        -np.tanh(1.0), abs=1e-12
    )
    # negative for all t > 0 when |x| < a
    for x in (0.0, 0.3, 0.9):
        r = covariant.CovariantRates.optimal(1.0, x)
        assert all(
            covariant.optimal_dephasing_rate(r, t) < 0 for t in (0.01, 0.5, 2.0)
        )
    # |x| = a degenerates to zero dephasing, also once e^{-2at} underflows
    for a, x in ((1.0, 1.0), (1.3, -1.3)):
        flat = covariant.CovariantRates.optimal(a, x)
        for t in (1.3, 19.0, 40.0, 500.0):
            assert covariant.optimal_dephasing_rate(flat, t) == 0.0, (a, x, t)


def _closed_form_rate(a, x, t):
    """The constant-rate optimal rate over the denominator (1+u)^2 - q^2 (1-u)^2.

    That denominator cancels to 0 at |q| = 1 once u < 2^-53, so the
    reference is NaN there; its rounding grows like 1/(1 - q^2), which is
    why the pairs compared with it keep |q| <= 3/4 off the edge.
    """
    q, u = x / a, np.exp(-2.0 * a * t)
    return -a * (1.0 - q**2) * (1.0 - u**2) / ((1.0 + u) ** 2 - q**2 * (1.0 - u) ** 2)


def test_constant_optimal_rate_matches_closed_form_reference():
    pairs = ((1.0, 0.0), (1.0, 0.3), (1.0, -0.75), (1.0, 1.0), (2.0, -2.0),
             (0.5, 0.25), (3.0, 1.5), (0.1, -0.05), (7.5, 2.0), (1e-3, 5e-4))
    for a, x in pairs:
        rates = covariant.CovariantRates.optimal(a, x)
        for t in np.linspace(0.0, 40.0, 401):
            got = covariant.optimal_dephasing_rate(rates, t)
            assert np.isfinite(got), (a, x, t)
            with np.errstate(invalid="ignore"):
                want = _closed_form_rate(a, x, t)
            if np.isfinite(want):
                assert abs(got - want) <= 1e-15 * a, (a, x, t)


def _decimal_alpha(a, x, t):
    """sqrt(m p) of the constant-rate optimal channel, to 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a, x, t = decimal.Decimal(a), decimal.Decimal(x), decimal.Decimal(t)
        u = (-2 * a * t).exp()
        lz = -(x / a) * (1 - u)
        return ((1 + u + lz) * (1 + u - lz) / 4).sqrt()


def test_optimal_alpha_matches_decimal_reference():
    times = np.linspace(0.0, 5.0, 101)
    for a, x in ((1.0, 0.3), (1.0, 0.0), (0.97, -0.51), (1.3, 0.9)):
        alpha, _, _ = covariant.channel_grid(covariant.CovariantRates.optimal(a, x), times)
        for t, got in zip(times, alpha):
            want = _decimal_alpha(a, x, t)
            error = float(abs(decimal.Decimal(got) - want) / want)
            assert error <= 1.5 * 2.0**-52, (a, x, t, error / 2.0**-52)


def test_optimal_rate_value_at_one():
    # evaluate the hyperbolic closed form by hand for a=1, x=0.5, t=1
    s2, c1, s1 = np.sinh(2.0), np.cosh(1.0), np.sinh(1.0)
    expected = -0.5 * 0.75 * s2 / (c1**2 - 0.25 * s1**2)
    rates = covariant.CovariantRates.optimal(1.0, 0.5)
    assert covariant.optimal_dephasing_rate(rates, 1.0) == pytest.approx(
        expected, abs=1e-12
    )
    assert expected == pytest.approx(-0.668070, abs=1e-6)


def test_optimal_rate_matches_integral_derivative():
    for a, x in ((1.0, 0.0), (1.0, 0.5), (2.0, 1.0)):
        rates = covariant.CovariantRates.optimal(a, x)
        for t in np.linspace(0.1, 3.0, 7):
            h = 1e-6 * max(1.0, t)
            fd = (
                covariant.optimal_dephasing_integral(rates, t + h)
                - covariant.optimal_dephasing_integral(rates, t - h)
            ) / (2 * h)
            assert covariant.optimal_dephasing_rate(rates, t) == pytest.approx(
                fd, abs=1e-6
            )


def test_optimal_rate_general_time_dependent():
    # x = 0 with a(t) varying: the optimal rate is -a(t) tanh(int a)
    a = lambda t: 1.0 + 0.5 * np.sin(t)
    rates = covariant.CovariantRates.optimal(a, 0.0)
    for t in (0.3, 1.0, 2.2):
        big_a = quad(a, 0, t, epsabs=1e-13)[0]
        assert covariant.optimal_dephasing_rate(rates, t) == pytest.approx(
            -a(t) * np.tanh(big_a), abs=1e-5
        )


def _osc_a(t):
    return 1.0 + 0.5 * np.sin(t)


def _osc_x(t):
    return 0.3 * np.cos(t)


def _oscillating_optimal_rates():
    return covariant.CovariantRates.optimal(_osc_a, _osc_x)


# one case per rate kind: each integral in closed form, by quadrature or by ODE
RATE_KINDS = pytest.mark.parametrize(
    "make_rates",
    [
        lambda: covariant.CovariantRates.from_callables(1.0, 0.4, 0.0),
        lambda: covariant.CovariantRates.from_callables(0.8, -0.3, 0.35),
        lambda: covariant.CovariantRates.from_callables(0.0, 0.4, -0.1),
        lambda: covariant.CovariantRates.optimal(1.0, 0.0),
        lambda: covariant.CovariantRates.optimal(1.2, -0.5),
        lambda: covariant.CovariantRates.optimal(1.3, -1.3),
        lambda: covariant.CovariantRates.from_callables(
            1.0, 0.2, compile_rate_expression("-0.9*tanh(t)")
        ),
        _oscillating_optimal_rates,
    ],
    ids=["zero-f", "constant-f", "a-zero", "optimal-x0", "optimal-inside",
         "optimal-edge", "expr", "time-dependent-optimal"],
)


@RATE_KINDS
def test_channel_at_is_one_column_of_channel_grid(make_rates):
    rates = make_rates()
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 5.0, 12)])
    alpha, beta, shift = covariant.channel_grid(rates, grid)
    assert alpha.shape == beta.shape == shift.shape == grid.shape
    for k, t in enumerate(grid):
        ch = covariant.channel_at(rates, float(t))
        assert (ch.alpha, ch.beta, ch.shift) == (alpha[k], beta[k], shift[k])


@RATE_KINDS
@pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
def test_every_rate_kind_refuses_negative_or_non_finite_times(make_rates, t):
    rates = make_rates()
    with pytest.raises(ValueError, match="finite and >= 0"):
        covariant.channel_at(rates, t)
    with pytest.raises(ValueError, match="finite and >= 0"):
        covariant.channel_grid(rates, [0.0, 0.5, t])


def test_bloch_maps_of_a_stack_are_the_single_maps():
    rng = np.random.default_rng(12)
    alpha, beta, shift = rng.uniform(-1.0, 1.0, (3, 2, 4))
    matrices, shifts = covariant.bloch_maps(alpha, beta, shift)
    assert matrices.shape == (2, 4, 3, 3) and shifts.shape == (2, 4, 3)
    for idx in np.ndindex(2, 4):
        matrix, vector = covariant.bloch_maps(alpha[idx], beta[idx], shift[idx])
        np.testing.assert_array_equal(matrices[idx], matrix)
        np.testing.assert_array_equal(shifts[idx], vector)
        np.testing.assert_array_equal(
            matrix, np.diag([alpha[idx], alpha[idx], beta[idx]])
        )
        np.testing.assert_array_equal(vector, [0.0, 0.0, -shift[idx]])


def test_choi_states_are_the_choi_matrices_of_bloch_maps():
    rates = covariant.CovariantRates.optimal(1.0, 0.3)
    coeffs = covariant.channel_grid(rates, np.linspace(0.0, 4.0, 9))
    np.testing.assert_array_equal(
        covariant.choi_states(*coeffs), lindblad.choi_of_map(*covariant.bloch_maps(*coeffs))
    )


def test_time_dependent_channel_independent_of_query_order():
    fresh = _oscillating_optimal_rates()
    warmed = _oscillating_optimal_rates()
    covariant.channel_at(warmed, 5.0)
    covariant.channel_at(warmed, 0.3)
    assert covariant.channel_at(fresh, 2.0) == covariant.channel_at(warmed, 2.0)


def test_time_dependent_lz_matches_ode_reference():
    rates = _oscillating_optimal_rates()
    ts = np.linspace(0.0, 6.0, 41)
    sol = solve_ivp(
        lambda s, r: [-2 * _osc_a(s) * r[0] - 2 * _osc_x(s)],
        (0.0, 6.0),
        [0.0],
        method="DOP853",
        rtol=1e-13,
        atol=1e-15,
        t_eval=ts,
    )
    _, _, shift = covariant.channel_grid(rates, ts)
    np.testing.assert_allclose(-shift, sol.y[0], rtol=0.0, atol=1e-12)


def test_time_dependent_optimal_rate_matches_integral_derivative():
    rates = _oscillating_optimal_rates()
    for t in np.linspace(0.1, 4.0, 9):
        h = 1e-6 * max(1.0, t)
        fd = (
            covariant.optimal_dephasing_integral(rates, t + h)
            - covariant.optimal_dephasing_integral(rates, t - h)
        ) / (2 * h)
        assert covariant.optimal_dephasing_rate(rates, t) == pytest.approx(
            fd, abs=1e-6
        )


def test_optimal_rate_requires_feasible_asymmetry():
    with pytest.raises(InfeasibleRates):
        covariant.CovariantRates.optimal(1.0, 1.5)
    # constant rates that skipped the constructor are refused by f and F alike
    for a, x, f in ((1.0, 1.5, 0.0), (0.0, 0.4, -0.1)):
        bad = covariant.CovariantRates.from_callables(a, x, f)
        for t in (0.01, 1.0):
            with pytest.raises(InfeasibleRates):
                covariant.optimal_dephasing_rate(bad, t)
            with pytest.raises(InfeasibleRates):
                covariant.optimal_dephasing_integral(bad, t)


def test_choi_state_examples():
    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    omega0 = covariant.choi_state(rates, 0.0)
    from enmsim.qstate import BELL_PROJECTOR

    np.testing.assert_allclose(omega0, BELL_PROJECTOR, atol=1e-12)
    omega_inf = covariant.choi_state(rates, 40.0)
    expected = 0.25 * np.array(
        [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]], dtype=complex
    )
    np.testing.assert_allclose(omega_inf, expected, atol=1e-12)

    pole = covariant.CovariantRates.optimal(1.0, 1.0)
    omega_pole = covariant.choi_state(pole, 40.0)
    np.testing.assert_allclose(
        omega_pole, np.diag([0.0, 0.5, 0.0, 0.5]).astype(complex), atol=1e-12
    )
    # the noisy qubit relaxed onto the pole, the reference stays mixed
    from enmsim.qstate import partial_trace

    np.testing.assert_allclose(
        partial_trace(omega_pole, "A"), np.diag([0.0, 1.0]), atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(omega_pole, "B"), np.eye(2) / 2, atol=1e-12
    )


def test_choi_state_literal_matrix():
    # oracle: assemble the 4x4 from (alpha, beta, c) by hand
    rates = covariant.CovariantRates.optimal(1.0, 0.4)
    t = 0.8
    ch = covariant.channel_at(rates, t)
    alpha, beta, c = ch.alpha, ch.beta, ch.shift
    expected = 0.25 * np.array(
        [
            [1 + beta, 0, 0, 2 * alpha],
            [0, 1 - beta, 0, 0],
            [0, 0, 1 - beta, 0],
            [2 * alpha, 0, 0, 1 + beta],
        ],
        dtype=complex,
    ) - (c / 4.0) * np.diag([1.0, -1.0, 1.0, -1.0])
    np.testing.assert_allclose(covariant.choi_state(rates, t), expected, atol=1e-12)


def test_choi_psd_iff_cptp():
    good = covariant.CovariantRates.from_callables(1.0, 0.3, 0.1)
    bad = covariant.CovariantRates.from_callables(1.0, 0.3, -1.5)
    for t in (0.5, 1.5):
        assert np.linalg.eigvalsh(covariant.choi_state(good, t)).min() >= -1e-9
    assert np.linalg.eigvalsh(covariant.choi_state(bad, 1.5)).min() < -1e-4
    assert not covariant.cptp_conditions(*covariant.channel_grid(bad, [1.5]))[1][0]


def test_channel_invariants():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.uniform(0.2, 2.0)
        x = rng.uniform(-a, a)
        rates = covariant.CovariantRates.optimal(a, x)
        ch = covariant.channel_at(rates, rng.uniform(0.0, 5.0))
        assert ch.alpha >= 0
        assert 0 <= ch.beta <= 1
        assert abs(ch.shift) + ch.beta <= 1 + 1e-9
        assert 4 * ch.alpha**2 + ch.shift**2 <= (1 + ch.beta) ** 2 + 1e-9


def test_dephasing_splitting_commutes():
    # a channel with rate f equals the optimal channel followed by pure
    # dephasing with integrated rate F - F_opt
    a, x = 1.0, 0.4
    opt = covariant.CovariantRates.optimal(a, x)
    other = covariant.CovariantRates.from_callables(a, x, 0.2)
    times = np.array([0.5, 1.5, 3.0])
    other_m, other_v = covariant.bloch_maps(*covariant.channel_grid(other, times))
    opt_m, opt_v = covariant.bloch_maps(*covariant.channel_grid(opt, times))
    for k, t in enumerate(times):
        extra = 0.2 * t - covariant.optimal_dephasing_integral(opt, t)
        dephase = np.diag([np.exp(-extra), np.exp(-extra), 1.0])
        np.testing.assert_allclose(other_m[k], dephase @ opt_m[k], atol=1e-8)
        np.testing.assert_allclose(other_v[k], dephase @ opt_v[k], atol=1e-8)


def test_unphysical_asymmetry_leaves_ball():
    # an eigenvalue a - x < -margin must break positivity of the dynamics
    rates = covariant.CovariantRates.from_callables(1.0, 1.5, 0.0)
    margin = 0.5
    horizon = 2.0 / margin
    coeffs = covariant.channel_grid(rates, np.linspace(0.05, horizon, 40))
    cond_a, _, _ = covariant.cptp_conditions(*coeffs)
    eig_min = np.linalg.eigvalsh(covariant.choi_states(*coeffs)).min(axis=-1)
    assert (~cond_a | (eig_min < -1e-9)).any()


def test_asymptotic_values_are_converged():
    # values at t = 30/a and t = 40/a agree to 1e-8
    rates = covariant.CovariantRates.optimal(1.0, 0.5)
    ch30 = covariant.channel_at(rates, 30.0)
    ch40 = covariant.channel_at(rates, 40.0)
    assert abs(ch30.alpha - ch40.alpha) < 1e-8
    assert abs(ch30.beta - ch40.beta) < 1e-8
    assert abs(ch30.shift - ch40.shift) < 1e-8
