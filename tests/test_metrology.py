import numpy as np
import pytest

from enmsim import covariant, lindblad, metrology
from enmsim.errors import SingularPureState

OPT = covariant.CovariantRates.optimal(1.0, 0.0)


def _fisher(rates, times):
    """Fisher information t^2 alpha^2 of the |+> probe on a time grid."""
    times = np.asarray(times, dtype=float)
    return metrology.fisher_from_coherence(times, covariant.channel_grid(rates, times)[0])


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
    zero, value = _fisher(OPT, [0.0, 1.0])
    assert zero == 0.0
    coherence = 0.5 * (1 + np.exp(-2.0))
    assert value == pytest.approx(coherence**2, abs=1e-12)
    assert value == pytest.approx(0.322247, abs=1e-6)
    assert metrology.cramer_rao_bound(value) == pytest.approx(1.0 / value)
    assert metrology.cramer_rao_bound(value) == pytest.approx(3.103214, abs=1e-6)


def test_fisher_information_growth_without_bound():
    t = 30.0
    assert _fisher(OPT, [t])[0] / t**2 == pytest.approx(
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
    alpha, _, shift = covariant.channel_grid(rates, times)
    fisher = _fisher(rates, times)
    for t, a, c, analytic in zip(times, alpha, shift, fisher):
        for omega in omegas:
            branches = []
            for w in (omega + h, omega - h):
                gen = covariant.decoherence_matrix(rates, hamiltonian_rate=w)
                pm = lindblad.propagate(gen, grid=[t], r0=r0)
                branches.append(pm.bloch[-1])
            dr = (branches[0] - branches[1]) / (2 * h)
            r = metrology.bloch_with_phase(a, c, omega, t)
            fd = metrology.fisher_information_bloch(r, dr)
            assert abs(fd - analytic) <= 1e-4 * analytic
            assert abs(r @ dr) < 1e-9


def test_optimal_rate_maximizes_fisher():
    a, x = 1.0, 0.4
    opt = covariant.CovariantRates.optimal(a, x)
    opt_rate = lambda t: covariant.optimal_dephasing_rate(opt, t)
    rivals = [
        covariant.CovariantRates.from_callables(a, x, 0.0),
        covariant.CovariantRates.from_callables(a, x, a),
        covariant.CovariantRates.from_callables(a, x, lambda t: 0.5 * opt_rate(t)),
    ]
    times = (0.3, 1.0, 2.5)
    best = _fisher(opt, times)
    for rival in rivals:
        assert np.all(_fisher(rival, times) <= best + 1e-9)


def test_bloch_with_phase_is_elementwise():
    times, omega = np.linspace(0.2, 3.0, 5), 0.5
    alpha, _, shift = covariant.channel_grid(covariant.CovariantRates.optimal(1.0, 0.3), times)
    stacked = metrology.bloch_with_phase(alpha, shift, omega, times)
    assert stacked.shape == (5, 3)
    for k, t in enumerate(times):
        np.testing.assert_array_equal(
            stacked[k], metrology.bloch_with_phase(alpha[k], shift[k], omega, t)
        )


def test_cramer_rao_examples():
    assert metrology.cramer_rao_bound(4.0) == pytest.approx(0.25)
    assert metrology.cramer_rao_bound(1e12) == pytest.approx(1e-12)
    assert metrology.cramer_rao_bound(0.0) == np.inf
    t, c = np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.0])
    fisher = metrology.fisher_from_coherence(t, c)
    np.testing.assert_array_equal(fisher, [0.0, 0.25, 0.0])
    np.testing.assert_array_equal(metrology.cramer_rao_bound(fisher), [np.inf, 4.0, np.inf])
