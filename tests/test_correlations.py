import numpy as np
import pytest

from enmsim import correlations, covariant, lindblad, qstate
from enmsim.errors import NotXState
from enmsim.verification import (
    random_covariant_channel,
    random_density,
    random_x_state_mixed_marginal,
)

BELL = qstate.BELL_PROJECTOR


def test_binary_entropy():
    assert correlations.binary_entropy(0.0) == 0.0
    assert correlations.binary_entropy(1.0) == 0.0
    assert correlations.binary_entropy(0.5) == pytest.approx(1.0)
    p = 0.75
    assert correlations.binary_entropy(p) == pytest.approx(
        -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
    )


def test_negativity_examples():
    rng = np.random.default_rng(0)
    product = np.kron(random_density(rng, 2), random_density(rng, 2))
    assert correlations.negativity(product) == pytest.approx(0.0, abs=1e-12)
    assert correlations.negativity(BELL) == pytest.approx(0.5, abs=1e-12)
    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    value = correlations.negativity(covariant.choi_state(rates, 0.5))
    assert value == pytest.approx(0.5 * np.exp(-1.0), abs=1e-12)
    assert value == pytest.approx(0.183940, abs=1e-6)


def test_negativity_law_all_times():
    for x in (0.0, 0.5):
        rates = covariant.CovariantRates.optimal(1.0, x)
        for t in np.geomspace(1e-3, 5.0, 20):
            assert correlations.negativity(
                covariant.choi_state(rates, t)
            ) == pytest.approx(0.5 * np.exp(-2.0 * t), abs=1e-8)


def test_mutual_information_examples():
    rng = np.random.default_rng(1)
    product = np.kron(random_density(rng, 2), random_density(rng, 2))
    assert correlations.mutual_information(product) == pytest.approx(0.0, abs=1e-9)
    assert correlations.mutual_information(BELL) == pytest.approx(2.0, abs=1e-12)
    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    limit = correlations.mutual_information(covariant.choi_state(rates, 30.0))
    assert limit == pytest.approx(0.5, abs=1e-9)


def test_l1_coherence_examples():
    assert correlations.l1_coherence(np.diag([0.3, 0.7])) == pytest.approx(0.0)
    plus = qstate.bloch_to_density([1, 0, 0])
    assert correlations.l1_coherence(plus) == pytest.approx(1.0)
    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    out = qstate.bloch_to_density(covariant.channel_at(rates, 1.0).apply([1, 0, 0]))
    value = correlations.l1_coherence(out)
    assert value == pytest.approx(0.5 * (1 + np.exp(-2.0)), abs=1e-12)
    assert value == pytest.approx(0.567668, abs=1e-6)


def test_l1_coherence_equals_transverse_radius():
    rng = np.random.default_rng(2)
    for _ in range(20):
        r = rng.uniform(-1, 1, 3)
        if r @ r > 1:
            r /= np.linalg.norm(r)
        rho = qstate.bloch_to_density(r)
        assert correlations.l1_coherence(rho) == pytest.approx(
            np.hypot(r[0], r[1]), abs=1e-12
        )


def test_coherence_law_closed_form():
    rates = covariant.CovariantRates.optimal(1.0, 0.5)
    for t in (0.2, 1.0, 3.0):
        u = np.exp(-2.0 * t)
        expected = 0.5 * np.sqrt((1 + u) ** 2 - 0.25 * (1 - u) ** 2)
        assert covariant.channel_at(rates, t).alpha == pytest.approx(
            expected, abs=1e-10
        )
    # nonzero in the limit for |x| < a
    assert covariant.channel_at(rates, 30.0).alpha == pytest.approx(
        0.5 * np.sqrt(0.75), abs=1e-8
    )


def test_xstate_shape_validation():
    bad = BELL.copy()
    bad[0, 1] = 0.1
    bad[1, 0] = 0.1
    with pytest.raises(NotXState):
        correlations.XState.from_density(bad)


def test_xstate_discord_trivial_and_bell():
    assert correlations.xstate_discord(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)
    assert correlations.xstate_discord(BELL) == pytest.approx(1.0, abs=1e-9)
    assert correlations.discord_brute_force(BELL) == pytest.approx(1.0, abs=1e-7)


def test_xstate_discord_limit_values():
    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    value = correlations.xstate_discord(covariant.choi_state(rates, 30.0))
    expected = correlations.asymptotic_discord(0.0)
    assert value == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(0.311278, abs=1e-6)

    rates5 = covariant.CovariantRates.optimal(1.0, 0.5)
    value5 = correlations.xstate_discord(covariant.choi_state(rates5, 30.0))
    assert value5 == pytest.approx(correlations.asymptotic_discord(0.5), abs=1e-9)


def test_asymptotic_formulas():
    # evaluate the limit expressions independently
    for ratio in (0.0, 0.3, 0.5, 0.7):
        p = (1 + ratio) / 2
        h = correlations.binary_entropy
        assert correlations.asymptotic_mutual_information(ratio) == pytest.approx(
            h(p) / 2
        )
        theta = 0.5 * np.sqrt(1 - ratio**2)
        assert correlations.asymptotic_discord(ratio) == pytest.approx(
            h(p) / 2 + h((1 + theta) / 2) - 1
        )
    assert correlations.asymptotic_mutual_information(0.5) == pytest.approx(
        0.405639, abs=1e-6
    )


def test_discord_details_and_witness():
    rates = covariant.CovariantRates.optimal(1.0, 0.5)
    result = correlations.xstate_discord_details(covariant.choi_state(rates, 30.0))
    assert result.method == "candidates"
    w = result.witness
    assert 0 <= w.theta <= 1 and 0 <= w.theta_prime <= 1
    assert w.k == pytest.approx(0.5, abs=1e-6)
    assert w.l == pytest.approx(1.0 - w.k)
    # at the equatorial optimum both conditional states have the disk radius
    assert w.theta == pytest.approx(0.5 * np.sqrt(0.75), abs=1e-6)


def test_discord_brute_force_fallback_for_biased_marginal():
    # X state whose first marginal is not maximally mixed
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.05
    result = correlations.xstate_discord_details(rho)
    assert result.method == "brute-force"
    assert result.witness is None
    assert result.value == pytest.approx(correlations.discord_brute_force(rho), abs=1e-12)


def test_discord_candidates_match_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = random_x_state_mixed_marginal(rng)
        fast = correlations.xstate_discord(x)
        slow = correlations.discord_brute_force(x.to_density())
        assert fast == pytest.approx(slow, abs=1e-5)


def test_geometric_discord_examples():
    assert correlations.geometric_discord(np.eye(4) / 4) == pytest.approx(0.0)
    sep = np.kron(np.diag([0.7, 0.3]), np.diag([0.2, 0.8])).astype(complex)
    assert correlations.geometric_discord(sep) == pytest.approx(0.0, abs=1e-12)
    assert correlations.geometric_discord(BELL) == pytest.approx(0.5, abs=1e-12)


def test_geometric_discord_direct_formula():
    rng = np.random.default_rng(4)
    for _ in range(10):
        rho = random_density(rng, 4)
        tensor = qstate.pauli_tensor(rho)
        s, t_mat = tensor[1:, 0], tensor[1:, 1:]
        k_mat = np.outer(s, s) + t_mat @ t_mat.T
        expected = 0.25 * (s @ s + (t_mat**2).sum() - np.linalg.eigvalsh(k_mat).max())
        assert correlations.geometric_discord(rho) == pytest.approx(
            max(0.0, expected), abs=1e-12
        )


def test_correlation_table_values():
    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    table = correlations.correlation_table(rates, [0.0, 30.0])
    first, last = table[0], table[-1]
    assert first.negativity == pytest.approx(0.5, abs=1e-12)
    assert first.mutual_information == pytest.approx(2.0, abs=1e-9)
    assert first.discord == pytest.approx(1.0, abs=1e-9)
    assert first.coherence == pytest.approx(1.0, abs=1e-12)
    # entanglement dies in the limit while I and Q survive
    assert last.negativity < 1e-6
    assert last.mutual_information > 0.49
    assert last.discord > 0.31
    assert last.geometric_discord == pytest.approx(1.0 / 16.0, abs=1e-9)


def test_local_noise_monotonicity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = random_density(rng, 4)
        matrix, shift = random_covariant_channel(rng)
        out = lindblad.apply_to_subsystem(rho, matrix, shift, "A")
        e1, i1 = correlations.negativity(out), correlations.mutual_information(out)
        assert e1 <= correlations.negativity(rho) + 1e-9
        assert i1 <= correlations.mutual_information(rho) + 1e-9
