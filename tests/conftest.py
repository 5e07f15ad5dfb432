import numpy as np
import pytest

from cranpower.netmodel import NetworkConfig


@pytest.fixture
def table1_config():
    """The default 8-RRH / 4-user cell with the standard constants."""
    return NetworkConfig()


@pytest.fixture
def tiny_config():
    """2 RRHs, 1 user; fast enough for exhaustive checks."""
    return NetworkConfig(num_rrhs=2, num_users=1)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class FixedAnswer:
    """A reward source that answers every state with `answer`, the
    (transmit power, feasible) pair a test sets."""

    answer = (0.0, True)

    def solve(self, gains, patterns, demands_mbps):
        count = len(gains)
        return np.full(count, self.answer[0]), np.full(count, self.answer[1]), {}


@pytest.fixture
def fixed_answer():
    return FixedAnswer()
