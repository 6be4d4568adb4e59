"""The drop and fading stages run in place: bit identity with the expression
forms they replace, and a bound on the memory each stage allocates."""

import tracemalloc

import numpy as np
import pytest

import compbss as cb
from compbss.channel import draw_gain_matrix, drop_link_budget, received_power_w
from compbss.geometry import build_layout

from helpers import expression_gain_matrix, expression_link_budget, same_bits

ISDS = [500.0, 250.0, 1732.05]
DENSITIES = [20.0, 60.0, 160.0]


def _check_stages(layout, params, drop, seeds):
    """Both stages and the in-place power scaling equal their oracles bit for
    bit, and leave their inputs untouched."""
    dist, az = drop.link_dist_m.copy(), drop.link_az_deg.copy()
    budget = drop_link_budget(layout, drop, params)
    assert same_bits(budget, expression_link_budget(layout, drop, params))
    assert same_bits(drop.link_dist_m, dist) and same_bits(drop.link_az_deg, az)
    kept = budget.copy()
    for seed in seeds:
        gains = draw_gain_matrix(budget, params, seed)
        want = expression_gain_matrix(budget, params, seed)
        assert same_bits(gains, want)
        rx = received_power_w(gains, params, out=gains)
        assert rx is gains
        assert same_bits(rx, cb.channel.per_subchannel_power_w(params) * want)
    assert same_bits(budget, kept)


@pytest.fixture(scope="module")
def layouts():
    return {isd: build_layout(isd) for isd in ISDS}


@pytest.mark.parametrize("isd", ISDS)
@pytest.mark.parametrize("density", DENSITIES)
def test_stages_match_expression_oracles(layouts, params, isd, density):
    layout = layouts[isd]
    for d in range(2):
        drop = cb.drop_users(layout, density, np.random.SeedSequence(d, spawn_key=(7,)))
        _check_stages(layout, params, drop, seeds=[(d, 0), (d, 1)])


def test_empty_drop(layout, params):
    drop = cb.drop_users(layout, 1e-4, 0)
    assert drop.n_users == 0
    budget = drop_link_budget(layout, drop, params)
    assert budget.shape == (0, layout.n_sectors)
    _check_stages(layout, params, drop, seeds=[0])
    assert draw_gain_matrix(budget, params, 0).shape == (0, layout.n_sectors)


@pytest.mark.parametrize("seed", [0, 1, 17, 2**40 + 3])
@pytest.mark.parametrize("sigma", [8.0, 0.1, 13.7])
def test_scaled_standard_normal_is_normal(seed, sigma):
    want = np.random.default_rng(seed).normal(0.0, sigma, size=(301, 147))
    got = np.random.default_rng(seed).standard_normal(size=(301, 147))
    got *= sigma
    assert same_bits(got, want)


def _traced_peak(fn, *args):
    """Bytes allocated at the peak of one call, above what was live before."""
    fn(*args)   # warm-up: first-call caches are not the stage's own
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    del out
    return peak


def _sizes(layout, density):
    """A drop with the bytes of one (U, S) and one (U, B) float64 array."""
    drop = cb.drop_users(layout, density, 5)
    return drop, drop.n_users * layout.n_sectors * 8, drop.n_users * layout.n_bs * 8


SLACK = 64 * 1024


@pytest.mark.parametrize("density", [60.0, 160.0])
def test_fading_stage_allocates_one_array(layout, params, density):
    drop, us, _ = _sizes(layout, density)
    budget = drop_link_budget(layout, drop, params)
    assert _traced_peak(draw_gain_matrix, budget, params, 9) <= us + SLACK


@pytest.mark.parametrize("density", [60.0, 160.0])
def test_drop_stage_allocates_two_arrays_and_the_path_loss(layout, params, density):
    drop, us, ub = _sizes(layout, density)
    assert _traced_peak(drop_link_budget, layout, drop, params) <= 2 * us + ub + SLACK
