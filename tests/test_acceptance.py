"""Acceptance suite: every headline claim of the paper, one verify suite each.

The claims and their tolerances live in one place, the ``verify`` registry
(:mod:`enmsim.verification`); this module runs each suite at a fixed seed,
prints its PASS/FAIL line (visible with ``pytest -s``) and asserts it. The two
asymptotic-limit criteria are also kept as direct checks of the library, reduced
through the same NaN-safe :func:`enmsim.verification._result`.
"""

import numpy as np
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


def test_discord_oracle_is_seed_deterministic(monkeypatch):
    draw = verification.random_x_state_mixed_marginal
    runs = []

    def recording(rng):
        rho = draw(rng)
        runs[-1].append(rho.copy())
        return rho

    monkeypatch.setattr(verification, "random_x_state_mixed_marginal", recording)
    # only the drawn states matter here, not the slow oracle
    monkeypatch.setattr(correlations, "discord_brute_force", lambda rho: 0.0)
    for seed in (SEED, SEED, SEED + 1):
        runs.append([])
        verification.check_discord_oracle(seed=seed)
    assert len(runs[0]) == 100
    assert np.array_equal(runs[0], runs[1])
    assert not np.array_equal(runs[2], runs[0])


def test_criterion_04_mutual_information_limit():
    gaps = [
        abs(
            correlations.mutual_information(
                covariant.choi_state(covariant.CovariantRates.optimal(1.0, ratio), 30.0)
            )
            - correlations.asymptotic_mutual_information(ratio)
        )
        for ratio in (0.0, 0.3, 0.7)
    ]
    result = verification._result(
        "mutual information limit at t = 30/a", ("max |I - limit|", gaps, 1e-4)
    )
    print(f"{result.name}: {result.detail}")
    assert result.passed, result.detail


def test_criterion_05_discord_limit():
    formula, omegas, values = [], [], []
    for ratio in (0.0, 0.5):
        omega = covariant.choi_state(covariant.CovariantRates.optimal(1.0, ratio), 30.0)
        value = correlations.xstate_discord(omega)
        formula.append(abs(value - correlations.asymptotic_discord(ratio)))
        omegas.append(omega)
        values.append(value)
        if ratio == 0.0:
            formula.append(abs(value - 0.311278))
    oracle = np.abs(correlations.discord_brute_force(np.array(omegas)) - np.array(values))
    result = verification._result(
        "discord limit at t = 30/a",
        ("formula error", formula, 1e-4),
        ("oracle gap", oracle, 1e-4),
    )
    print(f"{result.name}: {result.detail}")
    assert result.passed, result.detail


def test_criterion_04_fails_on_nan_mutual_information(monkeypatch):
    mutual_information = correlations.mutual_information
    calls = []

    def nan_after_first(rho):
        calls.append(rho)
        return mutual_information(rho) if len(calls) == 1 else np.nan

    monkeypatch.setattr(correlations, "mutual_information", nan_after_first)
    with pytest.raises(AssertionError):
        test_criterion_04_mutual_information_limit()


def test_criterion_05_fails_on_nan_discord(monkeypatch):
    monkeypatch.setattr(correlations, "xstate_discord", lambda rho: np.nan)
    with pytest.raises(AssertionError):
        test_criterion_05_discord_limit()
