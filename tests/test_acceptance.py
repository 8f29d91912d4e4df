"""Acceptance suite: every headline claim of the paper, one verify suite each.

The claims and their tolerances live in one place, the ``verify`` registry
(:mod:`enmsim.verification`); this module runs each suite at a fixed seed,
prints its PASS/FAIL line (visible with ``pytest -s``) and asserts it.
"""

import numpy as np
import pytest

from enmsim import correlations, verification

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
