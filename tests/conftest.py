import numpy as np
import pytest

from enmsim import covariant
from enmsim.verification import random_density


@pytest.fixture(scope="session")
def state_stacks():
    """Two (T, 4, 4) stacks: 2,000 Ginibre states, and the Choi states of
    the optimal channel at (a, x) = (1, 0.4) over 500 log-spaced times."""
    rng = np.random.default_rng(12)
    ginibre = np.array([random_density(rng, 4) for _ in range(2000)])
    rates = covariant.CovariantRates.optimal(1.0, 0.4)
    times = np.geomspace(1e-3, 30.0, 500)
    return ginibre, covariant.choi_states(*covariant.channel_grid(rates, times))
