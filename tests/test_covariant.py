import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from enmsim import covariant, lindblad
from enmsim.errors import InfeasibleRates


def test_gamma_matrix_eigenvalues():
    rates = covariant.CovariantRates.constant(1.2, 0.4, -0.3)
    gamma = covariant.gamma_matrix(rates, 0.0)
    assert np.max(np.abs(gamma - gamma.conj().T)) < 1e-12
    eig = np.sort(np.linalg.eigvalsh(gamma))
    np.testing.assert_allclose(eig, sorted([1.2 + 0.4, 1.2 - 0.4, -0.3]), atol=1e-12)


def test_integrals_constant_rate():
    rates = covariant.CovariantRates.constant(1.0, 0.0, 0.0)
    ints = covariant.rate_integrals(rates, 2.5)
    assert ints.int_a == pytest.approx(2.5, abs=1e-12)
    assert ints.lz == pytest.approx(0.0, abs=1e-15)


def test_integrals_longitudinal_shift_sign():
    # lz must match the fixed point of dr3/dt = -2a r3 - 2x
    rates = covariant.CovariantRates.constant(1.0, 0.5, 0.0)
    for t in (0.3, 1.0, 4.0):
        ints = covariant.rate_integrals(rates, t)
        assert ints.lz == pytest.approx(-0.5 * (1 - np.exp(-2 * t)), abs=1e-12)

    # independent oracle: integrate r3 from 0
    def rhs(t, r3):
        return -2.0 * r3 - 2.0 * 0.5

    sol = solve_ivp(rhs, (0, 4.0), [0.0], rtol=1e-11, atol=1e-13)
    assert covariant.rate_integrals(rates, 4.0).lz == pytest.approx(
        sol.y[0, -1], abs=1e-9
    )


def test_integrals_general_rates_match_quadrature():
    a = lambda t: 1.0 + 0.5 * np.sin(t)
    x = lambda t: 0.3 * np.cos(t)
    rates = covariant.CovariantRates.from_callables(a, x, 0.2)
    t = 2.0
    ints = covariant.rate_integrals(rates, t)
    big_a = quad(a, 0, t, epsabs=1e-13)[0]
    assert ints.int_a == pytest.approx(big_a, abs=1e-10)
    assert ints.int_f == pytest.approx(0.4, abs=1e-12)
    # oracle for lz: direct ODE for the shift
    sol = solve_ivp(
        lambda s, r: [-2 * a(s) * r[0] - 2 * x(s)],
        (0, t),
        [0.0],
        rtol=1e-12,
        atol=1e-14,
    )
    assert ints.lz == pytest.approx(sol.y[0, -1], abs=1e-9)


def test_evolve_bloch_examples():
    rates = covariant.CovariantRates.constant(1.0, 0.0, 0.0)
    np.testing.assert_allclose(
        covariant.channel_at(rates, 0.0).apply([0.3, -0.4, 0.5]),
        [0.3, -0.4, 0.5],
        atol=1e-14,
    )
    np.testing.assert_allclose(
        covariant.channel_at(rates, 1.0).apply([1.0, 0.0, 1.0]),
        [np.exp(-1.0), 0.0, np.exp(-2.0)],
        atol=1e-12,
    )
    pole = covariant.CovariantRates.constant(1.0, 1.0, 0.0)
    np.testing.assert_allclose(
        covariant.channel_at(pole, 40.0).apply([0.0, 0.0, 0.0]), [0, 0, -1], atol=1e-12
    )


def test_evolve_bloch_matches_ode():
    for rates in (
        covariant.CovariantRates.constant(1.0, 0.5, 0.0),
        covariant.CovariantRates.optimal(1.0, 0.5),
    ):
        gen = covariant.decoherence_matrix(rates)
        grid = np.linspace(0.0, 10.0, 21)
        pm = lindblad.propagate(gen, grid=grid)
        r0 = np.array([0.6, -0.3, 0.5])
        for t in grid:
            m, v = pm.at(t)
            np.testing.assert_allclose(
                m @ r0 + v, covariant.channel_at(rates, t).apply(r0), atol=1e-7
            )


def test_cptp_conditions_free_dephasing():
    rates = covariant.CovariantRates.constant(1.0, 0.0, 0.0)
    for t in (0.5, 1.0, 3.0):
        cond_a, cond_b, slack = covariant.cptp_conditions(covariant.channel_at(rates, t))
        assert cond_a and cond_b
        u = np.exp(-2 * t)
        assert slack == pytest.approx((1 + u) ** 2 - 4 * u, abs=1e-12)
        assert slack > 0


def test_cptp_saturated_by_optimal_rate():
    for x in (0.0, 0.5, 1.0):
        rates = covariant.CovariantRates.optimal(1.0, x)
        for t in (0.1, 0.7, 2.0, 5.0):
            _, cond_b, slack = covariant.cptp_conditions(covariant.channel_at(rates, t))
            assert cond_b
            assert abs(slack) < 1e-8


def test_cptp_violated_by_overly_negative_dephasing():
    rates = covariant.CovariantRates.constant(1.0, 0.0, -2.0)
    _, cond_b, slack = covariant.cptp_conditions(covariant.channel_at(rates, 1.0))
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
            ints = covariant.rate_integrals(rates, t)
            u = np.exp(-2.0 * ints.int_a)
            lhs = 4.0 * np.exp(-2.0 * ints.int_a - 2.0 * ints.int_f) + ints.lz**2
            assert lhs == pytest.approx((1.0 + u) ** 2, abs=1e-10)


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
    # x = a degenerates to zero dephasing
    flat = covariant.CovariantRates.optimal(1.0, 1.0)
    assert covariant.optimal_dephasing_rate(flat, 1.3) == pytest.approx(0.0, abs=1e-12)


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
    lz = [covariant.rate_integrals(rates, float(t)).lz for t in ts]
    np.testing.assert_allclose(lz, sol.y[0], rtol=0.0, atol=1e-12)


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
    bad = covariant.CovariantRates.constant(1.0, 1.5, 0.0)
    with pytest.raises(InfeasibleRates):
        covariant.optimal_dephasing_rate(bad, 1.0)


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
    good = covariant.CovariantRates.constant(1.0, 0.3, 0.1)
    bad = covariant.CovariantRates.constant(1.0, 0.3, -1.5)
    for t in (0.5, 1.5):
        assert np.linalg.eigvalsh(covariant.choi_state(good, t)).min() >= -1e-9
    assert np.linalg.eigvalsh(covariant.choi_state(bad, 1.5)).min() < -1e-4
    assert not covariant.cptp_conditions(covariant.channel_at(bad, 1.5))[1]


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
    other = covariant.CovariantRates.constant(a, x, 0.2)
    for t in (0.5, 1.5, 3.0):
        ch_other = covariant.channel_at(other, t)
        ch_opt = covariant.channel_at(opt, t)
        extra = covariant.rate_integrals(other, t).int_f - covariant.rate_integrals(
            opt, t
        ).int_f
        dephase = np.diag([np.exp(-extra), np.exp(-extra), 1.0])
        np.testing.assert_allclose(
            ch_other.matrix, dephase @ ch_opt.matrix, atol=1e-8
        )
        np.testing.assert_allclose(
            ch_other.shift_vector, dephase @ ch_opt.shift_vector, atol=1e-8
        )


def test_unphysical_asymmetry_leaves_ball():
    # an eigenvalue a - x < -margin must break positivity of the dynamics
    rates = covariant.CovariantRates.constant(1.0, 1.5, 0.0)
    margin = 0.5
    horizon = 2.0 / margin
    failed = False
    for t in np.linspace(0.05, horizon, 40):
        cond_a, _, _ = covariant.cptp_conditions(covariant.channel_at(rates, t))
        eig_min = np.linalg.eigvalsh(covariant.choi_state(rates, t)).min()
        if not cond_a or eig_min < -1e-9:
            failed = True
            break
    assert failed


def test_asymptotic_image():
    radius, center = covariant.asymptotic_image(covariant.CovariantRates.optimal(1.0, 0.0))
    assert radius == pytest.approx(0.5)
    assert center == pytest.approx(0.0)

    radius, center = covariant.asymptotic_image(covariant.CovariantRates.optimal(1.0, 1.0))
    assert radius == pytest.approx(0.0)
    assert abs(center) == pytest.approx(1.0)

    rates = covariant.CovariantRates.optimal(1.0, 0.6)
    radius, center = covariant.asymptotic_image(rates)
    assert radius == pytest.approx(0.4)
    assert center == pytest.approx(-0.6)
    # cross-check by propagating random Bloch vectors far in time
    rng = np.random.default_rng(1)
    for _ in range(100):
        r = rng.uniform(-1, 1, 3)
        if r @ r > 1:
            r /= np.linalg.norm(r)
        image = covariant.channel_at(rates, 30.0).apply(r)
        assert abs(image[2] - center) < 1e-6
        assert np.hypot(image[0], image[1]) <= radius + 1e-6


def test_asymptotic_values_are_converged():
    # values at t = 30/a and t = 40/a agree to 1e-8
    rates = covariant.CovariantRates.optimal(1.0, 0.5)
    ch30 = covariant.channel_at(rates, 30.0)
    ch40 = covariant.channel_at(rates, 40.0)
    assert abs(ch30.alpha - ch40.alpha) < 1e-8
    assert abs(ch30.beta - ch40.beta) < 1e-8
    assert abs(ch30.shift - ch40.shift) < 1e-8
