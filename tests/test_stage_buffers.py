"""The drop and fading stages run in place: bit identity with the expression
forms they replace, and a bound on the memory each stage allocates."""

import tracemalloc

import numpy as np
import pytest

import compbss as cb
from compbss.channel import (directivity_gain_db, draw_gain_matrix, drop_link_budget,
                             link_budget_db, received_power_w, shadowed_gain)
from compbss.geometry import LayoutConfig, build_layout, layout_from_file, wrap_angle_deg

from helpers import expression_gain_matrix, expression_link_budget

ISDS = [500.0, 250.0, 1732.05]
DENSITIES = [20.0, 60.0, 160.0]


def _same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype == np.float64
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


def _check_stages(layout, params, drop, seeds):
    """Both stages and the in-place power scaling equal their oracles bit for
    bit, and leave their inputs untouched."""
    dist, az = drop.link_dist_m.copy(), drop.link_az_deg.copy()
    budget = drop_link_budget(layout, drop, params)
    assert _same_bits(budget, expression_link_budget(layout, drop, params))
    assert _same_bits(drop.link_dist_m, dist) and _same_bits(drop.link_az_deg, az)
    kept = budget.copy()
    for seed in seeds:
        gains = draw_gain_matrix(budget, params, seed)
        want = expression_gain_matrix(budget, params, seed)
        assert _same_bits(gains, want)
        rx = received_power_w(gains, params, out=gains)
        assert rx is gains
        assert _same_bits(rx, cb.channel.per_subchannel_power_w(params) * want)
    assert _same_bits(budget, kept)


@pytest.fixture(scope="module")
def layouts():
    return {isd: build_layout(LayoutConfig(inter_site_distance_m=isd)) for isd in ISDS}


@pytest.mark.parametrize("isd", ISDS)
@pytest.mark.parametrize("density", DENSITIES)
def test_stages_match_expression_oracles(layouts, params, isd, density):
    layout = layouts[isd]
    for d in range(2):
        drop = cb.drop_users(layout, density, np.random.SeedSequence(d, spawn_key=(7,)))
        _check_stages(layout, params, drop, seeds=[(d, 0), (d, 1)])


@pytest.mark.parametrize("boresights", [(720.0, 840.0, 960.0), (-600.0, -480.0, -360.0)])
def test_offsets_outside_one_turn_take_the_remainder(tmp_path, params, boresights):
    """Boresights a turn or more away put y = offset + 180 outside [-360, 720),
    where the wrap falls back to %; the stages still match the oracle."""
    path = tmp_path / "layout.yaml"
    path.write_text(f"boresights_deg: {list(boresights)}\n")
    layout = layout_from_file(path)
    drop = cb.drop_users(layout, 60.0, 3)
    y = drop.link_az_deg[:, layout.sector_bs] - layout.sector_boresight_deg + 180.0
    assert y.min() < -360.0 or y.max() >= 720.0
    _check_stages(layout, params, drop, seeds=[4])


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
    assert _same_bits(got, want)


def test_public_wrappers_copy_their_input():
    rng = np.random.default_rng(2)
    for lo, hi in ((-540.0, 540.0), (-1000.0, 1000.0)):   # float shift, then %
        x = rng.uniform(lo, hi, size=(50, 30))
        x[0, :3] = [-540.0, 180.0, np.nextafter(540.0, 0.0)]
        kept = x.copy()
        want = (x + 180.0) % 360.0 - 180.0
        want[want == 180.0] = -180.0
        assert _same_bits(wrap_angle_deg(x), want)
        assert _same_bits(x, kept)
    assert _same_bits(directivity_gain_db(x), 25.0 - np.minimum(12.0 * (x / 70.0) ** 2, 20.0))
    gain = rng.uniform(5.0, 25.0, size=30)
    assert _same_bits(link_budget_db(x, gain, 1.5, 20.0), -x + gain + 1.5 - 20.0)
    assert _same_bits(shadowed_gain(gain, x), 10.0 ** ((gain - x) / 10.0))
    assert _same_bits(x, kept)
    for fn in (wrap_angle_deg, directivity_gain_db):
        assert isinstance(fn(30.0), np.float64)
    assert isinstance(link_budget_db(100.0, 25.0, 0.0, 20.0), np.float64)
    assert isinstance(shadowed_gain(-80.0, 3.0), np.float64)


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
