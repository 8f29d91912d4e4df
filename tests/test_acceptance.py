"""Acceptance suite: every headline claim of the paper, one verify suite each.

The claims and their tolerances live in one place, the ``verify`` registry
(:mod:`enmsim.verification`); this module runs each suite at a fixed seed,
prints its PASS/FAIL line (visible with ``pytest -s``) and asserts it. The two
asymptotic-limit criteria are also kept as direct checks of the library.
"""

import pytest

from enmsim import correlations, covariant, verification

SEED = 7


@pytest.mark.parametrize("name", verification.available_suites())
def test_verify_suite(name):
    if name == "decay-bound":
        # two more Nelder-Mead times than a verify pass pays for
        result = verification.check_decay_bound(seed=SEED, ts=(0.5, 1.0, 2.0, 4.0))
    else:
        (result,) = verification.run_suites([name], seed=SEED)
    print(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}")
    assert result.passed, result.detail


def test_discord_oracle_is_seed_deterministic():
    first = verification.check_discord_oracle(seed=SEED)
    assert verification.check_discord_oracle(seed=SEED) == first


def test_criterion_04_mutual_information_limit():
    worst = max(
        abs(
            correlations.mutual_information(
                covariant.choi_state(covariant.CovariantRates.optimal(1.0, ratio), 30.0)
            )
            - correlations.asymptotic_mutual_information(ratio)
        )
        for ratio in (0.0, 0.3, 0.7)
    )
    print(f"mutual information limit at t = 30/a: max error {worst:.2e}, tol 1e-4")
    assert worst <= 1e-4


def test_criterion_05_discord_limit():
    worst = worst_oracle = 0.0
    for ratio in (0.0, 0.5):
        omega = covariant.choi_state(covariant.CovariantRates.optimal(1.0, ratio), 30.0)
        value = correlations.xstate_discord(omega)
        worst = max(worst, abs(value - correlations.asymptotic_discord(ratio)))
        worst_oracle = max(
            worst_oracle, abs(correlations.discord_brute_force(omega) - value)
        )
        if ratio == 0.0:
            worst = max(worst, abs(value - 0.311278))
    print(
        f"discord limit at t = 30/a: formula error {worst:.2e}, "
        f"oracle gap {worst_oracle:.2e}, tol 1e-4"
    )
    assert worst <= 1e-4
    assert worst_oracle <= 1e-4
