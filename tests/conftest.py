import numpy as np
import pytest

import compbss as cb


@pytest.fixture(scope="session")
def layout():
    return cb.build_layout()


@pytest.fixture(scope="session")
def models(layout):
    """System models for the four shipped CoMP configurations."""
    return {
        name: cb.build_system_model(layout, name)
        for name in ("none", "C1", "C2", "C3")
    }


def make_realization(layout, density=60.0, seed=0):
    """One drop plus gains, seeded off a single integer."""
    drop = cb.drop_users(layout, density, np.random.SeedSequence(seed, spawn_key=(0,)))
    gains = cb.build_gain_matrix(layout, drop, np.random.SeedSequence(seed, spawn_key=(1,)))
    return drop, gains


@pytest.fixture(scope="session")
def realization(layout):
    drop, gains = make_realization(layout, density=60.0, seed=123)
    rx = cb.received_power_w(gains)
    return drop, gains, rx
