"""The drop and fading stages run in place, and the conversion to watts
allocates its rows once: bit identity with the expression forms they replace,
and a bound on the memory each stage allocates.  With a campaign's scratch
the stages write into it, and keep every bit, also when a drop's draws are
made on a helper thread into the scratch's two draw slots in turn."""

import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import compbss as cb
from compbss import campaign
from compbss.campaign import CampaignConfig, build_context
from compbss.channel import (build_gain_matrix, draw_gain_matrix, drop_link_budget,
                             received_power_w)
from compbss.geometry import DropScratch, build_layout

from helpers import (expression_gain_matrix, expression_link_budget,
                     expression_received_power, same_bits)

ISDS = [500.0, 250.0, 1732.05]
DENSITIES = [20.0, 60.0, 160.0]


def _check_stages(layout, drop, seeds):
    """Both stages and the received power of the whole draw and of some of
    its rows equal their oracles bit for bit, and leave their inputs
    untouched."""
    dist, az = drop.link_dist_m.copy(), drop.link_az_deg.copy()
    budget = drop_link_budget(layout, drop)
    assert same_bits(budget, expression_link_budget(layout, drop))
    assert same_bits(drop.link_dist_m, dist) and same_bits(drop.link_az_deg, az)
    kept = budget.copy()
    for seed in seeds:
        gain_db = draw_gain_matrix(budget, seed)
        assert same_bits(gain_db, expression_gain_matrix(budget, seed))
        drawn = gain_db.copy()
        want = expression_received_power(gain_db)
        assert same_bits(received_power_w(gain_db), want)
        for rows in (np.arange(0, gain_db.shape[0], 3), np.arange(gain_db.shape[0])[::-2]):
            assert same_bits(received_power_w(gain_db, rows=rows), want[rows])
        assert same_bits(gain_db, drawn)
    assert same_bits(budget, kept)


@pytest.fixture(scope="module")
def layouts():
    return {isd: build_layout(isd) for isd in ISDS}


@pytest.mark.parametrize("isd", ISDS)
@pytest.mark.parametrize("density", DENSITIES)
def test_stages_match_expression_oracles(layouts, isd, density):
    layout = layouts[isd]
    for d in range(2):
        drop = cb.drop_users(layout, density, np.random.SeedSequence(d, spawn_key=(7,)))
        _check_stages(layout, drop, seeds=[(d, 0), (d, 1)])


def test_empty_drop(layout):
    drop = cb.drop_users(layout, 1e-4, 0)
    assert drop.n_users == 0
    budget = drop_link_budget(layout, drop)
    assert budget.shape == (0, layout.n_sectors)
    _check_stages(layout, drop, seeds=[0])
    assert draw_gain_matrix(budget, 0).shape == (0, layout.n_sectors)


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
def test_fading_stage_allocates_one_array(layout, density):
    drop, us, _ = _sizes(layout, density)
    budget = drop_link_budget(layout, drop)
    assert _traced_peak(draw_gain_matrix, budget, 9) <= us + SLACK


@pytest.mark.parametrize("density", [60.0, 160.0])
def test_power_of_some_rows_allocates_those_rows(layout, density):
    drop, us, _ = _sizes(layout, density)
    gain_db = draw_gain_matrix(drop_link_budget(layout, drop), 9)
    rows = np.arange(0, drop.n_users, 4)
    row_bytes = rows.size * layout.n_sectors * 8
    assert _traced_peak(received_power_w, gain_db, rows) <= row_bytes + SLACK


@pytest.mark.parametrize("density", [60.0, 160.0])
def test_drop_stage_allocates_two_arrays_and_the_path_loss(layout, density):
    drop, us, ub = _sizes(layout, density)
    assert _traced_peak(drop_link_budget, layout, drop) <= 2 * us + ub + SLACK


DROP_FIELDS = ("positions", "link_dist_m", "link_az_deg")

# (ISD, density) of drops that grow, shrink and empty one scratch in turn
SCRATCH_DROPS = [(500.0, 160.0), (500.0, 20.0), (500.0, 60.0), (500.0, 1e-4),
                 (250.0, 160.0), (250.0, 20.0), (500.0, 60.0)]


def _same_drop(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) and
               getattr(a, f).dtype == getattr(b, f).dtype for f in DROP_FIELDS) and \
        same_bits(a.link_dist_m, b.link_dist_m) and same_bits(a.link_az_deg, b.link_az_deg)


def test_scratch_reuse_keeps_every_bit(layouts):
    """One scratch through drops that grow and shrink it, an empty one and
    two ISDs: each drop, its budget and two draws equal the calls without a
    scratch bit for bit, and the drop and its budget still do after both
    draws."""
    scratch = DropScratch.for_density(layouts[500.0], 20.0)   # the first drop grows it
    for i, (isd, density) in enumerate(SCRATCH_DROPS):
        layout = layouts[isd]
        seed = np.random.SeedSequence(i, spawn_key=(11,))
        want = cb.drop_users(layout, density, seed)
        drop = cb.drop_users(layout, density, seed, scratch)
        assert _same_drop(drop, want)
        want_budget = drop_link_budget(layout, want)
        budget = drop_link_budget(layout, drop, scratch)
        assert same_bits(budget, want_budget)
        for f in range(2):
            gain_db = draw_gain_matrix(budget, (i, f), scratch)
            assert same_bits(gain_db, draw_gain_matrix(want_budget, (i, f)))
        assert _same_drop(drop, want) and same_bits(budget, want_budget)
        if drop.n_users:
            for arr in (drop.link_dist_m, drop.link_az_deg, budget, gain_db):
                assert np.shares_memory(arr, scratch._buf)
    # both stages in one call, as the traffic campaign makes them
    gain_db = build_gain_matrix(layout, drop, 3, scratch)
    assert same_bits(gain_db, build_gain_matrix(layout, want, 3))


def test_calls_without_a_scratch_share_no_memory(layout):
    arrays = []
    for seed in (1, 2):
        drop = cb.drop_users(layout, 60.0, seed)
        budget = drop_link_budget(layout, drop)
        arrays += [getattr(drop, f) for f in DROP_FIELDS]
        arrays += [budget, draw_gain_matrix(budget, seed),
                   draw_gain_matrix(budget, seed + 10),
                   build_gain_matrix(layout, drop, seed)]
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)


def test_scratch_sized_for_the_largest_density_keeps_its_buffer(layout):
    """A profile that ramps up to the density the scratch was sized for does
    not grow it."""
    scratch = DropScratch.for_density(layout, 160.0)
    buf = scratch._buf
    for t, density in enumerate([20.0, 60.0, 160.0, 160.0, 100.0, 20.0]):
        drop = cb.drop_users(layout, density, t, scratch)
        draw_gain_matrix(drop_link_budget(layout, drop, scratch), t, scratch)
    assert scratch._buf is buf


@pytest.mark.parametrize("density", [60.0, 160.0])
def test_warm_scratch_drop_allocates_less_than_a_table(layout, density):
    """On a warm scratch a second drop, its budget and one draw allocate less
    than one (U, B) float table: the candidate positions and the index arrays
    of the region test and the image search, none of the stages' tables."""
    scratch = DropScratch.for_density(layout, density)
    seeds = iter(range(5, 7))

    def stages():
        drop = cb.drop_users(layout, density, next(seeds), scratch)
        return draw_gain_matrix(drop_link_budget(layout, drop, scratch), 9, scratch)

    _, _, ub = _sizes(layout, density)
    n_users = cb.drop_users(layout, density, 6).n_users
    assert _traced_peak(stages) <= n_users * layout.n_bs * 8 + SLACK
    assert n_users * layout.n_bs * 8 <= 1.2 * ub    # the drops have about one size


def _pipelined_context(n_fading, density=60.0):
    cfg = CampaignConfig(densities_per_km2=[density], n_drops=2, n_fading=n_fading,
                         comp_configs=["C3"], master_seed=29, output="unused.csv")
    return build_context(cfg)


def _drop_keys(ctx, d):
    """The drop key and draw keys of sweep drop ``d``, as ``_drop_records``
    derives them."""
    key = (campaign._mu_key(ctx.cfg.densities_per_km2[0]), d)
    return (0,) + key, [(1,) + key + (f,) for f in range(ctx.cfg.n_fading)]


def _draws_without_scratch(ctx, d):
    """The bytes of each fading draw of sweep drop ``d``, each made by
    itself in fresh arrays."""
    seed, mu = ctx.cfg.master_seed, ctx.cfg.densities_per_km2[0]
    drop_key, draw_keys = _drop_keys(ctx, d)
    drop = cb.drop_users(ctx.layout, mu, campaign._seed_key(seed, *drop_key))
    budget = drop_link_budget(ctx.layout, drop)
    return [draw_gain_matrix(budget, campaign._seed_key(seed, *key)).tobytes()
            for key in draw_keys]


@pytest.mark.parametrize("n_fading", [1, 2, 3, 10])
def test_pipelined_draws_keep_their_bits(monkeypatch, n_fading):
    """Every draw that the prologue yields, from either slot of a warm or a
    fresh scratch, has the bits of the draw made without a scratch, and keeps
    them after the helper has finished the draw that follows."""
    ctx = _pipelined_context(n_fading)
    mu = ctx.cfg.densities_per_km2[0]
    done = threading.Semaphore(0)

    def draw_and_signal(*args):
        gain_db = draw_gain_matrix(*args)
        done.release()
        return gain_db

    monkeypatch.setattr(campaign, "draw_gain_matrix", draw_and_signal)
    for d in range(2):
        want = _draws_without_scratch(ctx, d)
        n_done = 0
        last = None
        for i, (gain_db, _, _) in enumerate(campaign._draws(ctx, mu, *_drop_keys(ctx, d))):
            while n_done < min(i + 2, n_fading):    # the draw after this one is made
                assert done.acquire(timeout=60)
                n_done += 1
            assert gain_db.tobytes() == want[i]
            assert np.shares_memory(gain_db, ctx.scratch._buf)
            assert last is None or not np.shares_memory(gain_db, last)
            last = gain_db
        assert n_done == n_fading and not done.acquire(blocking=False)


@pytest.mark.parametrize("density", [60.0, 160.0])
def test_warm_scratch_pipelined_drop_allocates_no_draw_array(layout, density):
    """A drop of 10 draws on a warm scratch allocates less than one (U, B)
    table: neither slot of the draws is a fresh (U, S) array."""
    ctx = _pipelined_context(10, density)
    drops = iter(range(2))

    def prologue():
        d = next(drops)
        for _ in campaign._draws(ctx, density, *_drop_keys(ctx, d)):
            pass

    n_users = cb.drop_users(layout, density, campaign._seed_key(
        ctx.cfg.master_seed, *_drop_keys(ctx, 1)[0])).n_users
    assert _traced_peak(prologue) <= n_users * layout.n_bs * 8 + SLACK


def test_pipelined_draws_keep_their_bits_under_fast_thread_switches():
    """With the interpreter switching threads every microsecond and the
    caller reading each draw at once, every draw still has its bits."""
    ctx = _pipelined_context(10)
    want = [_draws_without_scratch(ctx, d) for d in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [[gain_db.tobytes() for gain_db, _, _ in
                campaign._draws(ctx, ctx.cfg.densities_per_km2[0], *_drop_keys(ctx, d))]
               for d in range(2)]
    finally:
        sys.setswitchinterval(interval)
    assert got == want
