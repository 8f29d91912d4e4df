import numpy as np
import pytest

from enmsim import covariant, lindblad, metrology
from enmsim.errors import BlochOutOfBall, SingularPureState, ZeroInformation

OPT = covariant.CovariantRates.optimal(1.0, 0.0)


def test_fisher_bloch_mixed_center():
    assert metrology.fisher_information_bloch([0, 0, 0], [0.3, 0, 0]) == pytest.approx(
        0.09
    )


def test_fisher_bloch_pure_equatorial():
    phi, t = 0.8, 1.7
    r = np.array([np.cos(phi), -np.sin(phi), 0.0])
    dr = t * np.array([-np.sin(phi), -np.cos(phi), 0.0])
    assert metrology.fisher_information_bloch(r, dr) == pytest.approx(t * t)


def test_fisher_bloch_radial_term():
    r = np.array([0.5, 0.0, 0.0])
    dr = np.array([0.2, 0.1, 0.0])
    expected = dr @ dr + (r @ dr) ** 2 / (1 - r @ r)
    assert metrology.fisher_information_bloch(r, dr) == pytest.approx(expected)


def test_fisher_bloch_singular_pure():
    with pytest.raises(SingularPureState):
        metrology.fisher_information_bloch([1, 0, 0], [0.1, 0, 0])


def test_fisher_information_examples():
    setup = metrology.PhaseEstimationSetup(omega=1.0, rates=OPT)
    assert metrology.fisher_information(setup, 0.0) == 0.0
    value = metrology.fisher_information(setup, 1.0)
    coherence = 0.5 * (1 + np.exp(-2.0))
    assert value == pytest.approx(coherence**2, abs=1e-12)
    assert value == pytest.approx(0.322247, abs=1e-6)
    assert metrology.cramer_rao_bound(value) == pytest.approx(1.0 / value)
    assert metrology.cramer_rao_bound(value) == pytest.approx(3.103214, abs=1e-6)


def test_fisher_information_growth_without_bound():
    setup = metrology.PhaseEstimationSetup(omega=1.0, rates=OPT)
    t = 30.0
    assert metrology.fisher_information(setup, t) / t**2 == pytest.approx(
        0.25, abs=1e-6
    )


@pytest.mark.parametrize(
    "x, times, omegas",
    [
        (0.4, (0.5, 1.5), (0.3, 2.0)),
        (0.3, np.linspace(0.2, 3.0, 5), (0.1, 0.5, 1.0, 10.0)),
    ],
    ids=["x0.4", "x0.3-wide"],
)
def test_fisher_matches_finite_difference_of_ode(x, times, omegas):
    rates = covariant.CovariantRates.optimal(1.0, x)
    h = 1e-6
    r0 = np.array([1.0, 0.0, 0.0])
    for t in times:
        for omega in omegas:
            branches = []
            for w in (omega + h, omega - h):
                gen = covariant.decoherence_matrix(rates, hamiltonian_rate=w)
                pm = lindblad.propagate(gen, grid=[t], r0=r0)
                branches.append(pm.bloch[-1])
            dr = (branches[0] - branches[1]) / (2 * h)
            setup = metrology.PhaseEstimationSetup(omega=omega, rates=rates)
            r = metrology.bloch_with_phase(setup, t)
            fd = metrology.fisher_information_bloch(r, dr)
            analytic = metrology.fisher_information(setup, t)
            assert abs(fd - analytic) <= 1e-4 * analytic
            assert abs(r @ dr) < 1e-9


def test_fisher_independent_of_omega():
    rates = covariant.CovariantRates.optimal(1.0, 0.3)
    values = [
        metrology.fisher_information(
            metrology.PhaseEstimationSetup(omega=w, rates=rates), 1.2
        )
        for w in (0.1, 1.0, 10.0)
    ]
    assert max(values) - min(values) < 1e-9


def test_analytic_derivative_matches_closed_form():
    setup = metrology.PhaseEstimationSetup(omega=0.7, rates=OPT)
    h = 1e-7
    for t in (0.4, 2.0):
        plus = metrology.bloch_with_phase(
            metrology.PhaseEstimationSetup(omega=0.7 + h, rates=OPT), t
        )
        minus = metrology.bloch_with_phase(
            metrology.PhaseEstimationSetup(omega=0.7 - h, rates=OPT), t
        )
        np.testing.assert_allclose(
            metrology.bloch_phase_derivative(setup, t),
            (plus - minus) / (2 * h),
            atol=1e-6,
        )


def test_optimal_rate_maximizes_fisher():
    a, x = 1.0, 0.4
    opt = covariant.CovariantRates.optimal(a, x)
    opt_rate = lambda t: covariant.optimal_dephasing_rate(opt, t)
    rivals = [
        covariant.CovariantRates.constant(a, x, 0.0),
        covariant.CovariantRates.constant(a, x, a),
        covariant.CovariantRates.from_callables(a, x, lambda t: 0.5 * opt_rate(t)),
    ]
    for t in (0.3, 1.0, 2.5):
        best = metrology.fisher_information(
            metrology.PhaseEstimationSetup(omega=1.0, rates=opt), t
        )
        for rival in rivals:
            value = metrology.fisher_information(
                metrology.PhaseEstimationSetup(omega=1.0, rates=rival), t
            )
            assert value <= best + 1e-9


def test_cramer_rao_examples():
    assert metrology.cramer_rao_bound(4.0) == pytest.approx(0.25)
    assert metrology.cramer_rao_bound(1e12) == pytest.approx(1e-12)
    with pytest.raises(ZeroInformation):
        metrology.cramer_rao_bound(0.0)


def test_custom_initial_state():
    setup = metrology.PhaseEstimationSetup(
        omega=1.0, rates=OPT, initial=(0.5, 0.0, 0.2)
    )
    t = 1.0
    c_t = 0.5 * covariant.channel_at(OPT, t).alpha
    assert metrology.fisher_information(setup, t) == pytest.approx(
        t**2 * c_t**2, abs=1e-12
    )
    with pytest.raises(BlochOutOfBall):
        metrology.PhaseEstimationSetup(omega=1.0, rates=OPT, initial=(1.1, 0.0, 0.0))
