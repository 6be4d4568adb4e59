"""The drop and fading stages run in place, and the conversion to watts
allocates its rows once: bit identity with the expression forms they replace,
and a bound on the memory each stage allocates.  With a campaign's scratch
the stages write into it, and keep every bit, also when the realization
stream makes each next draw on a helper thread, into the first-draw buffer
and the drop buffer's draw table in turn, a drop's first draw while the drop
is built, and when it makes them on the caller's thread."""

import itertools
import math
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


def _stream_context(monkeypatch, densities, n_fading, helper=True):
    """A context of a process with (``helper``) or without a free core for
    the draw helper, whose scratch buffers are filled with a byte pattern,
    as a perturbed allocator fills them, so that a stage that read a part it
    never wrote would read neither zeros nor an earlier drop's values."""
    cfg = CampaignConfig(densities_per_km2=densities, n_drops=2, n_fading=n_fading,
                         comp_configs=["C3"], master_seed=29, output="unused.csv")
    monkeypatch.setattr(campaign, "_usable_cores", lambda: 2 if helper else 1)
    ctx = build_context(cfg)
    assert ctx.draw_helper == helper
    ctx.scratch.first_draw((1, ctx.layout.n_sectors))
    for buf in (ctx.scratch._buf, ctx.scratch._first):
        buf.view(np.uint8).fill(0xA5)
    return ctx


def _sweep_plan(ctx):
    """The stream plan of every sweep drop, with the keys that
    ``_drop_records`` derives."""
    cfg = ctx.cfg
    return [(mu, (0, campaign._mu_key(mu), d),
             [(1, campaign._mu_key(mu), d, f) for f in range(cfg.n_fading)])
            for mu in cfg.densities_per_km2 for d in range(cfg.n_drops)]


def _profile_plan(profile):
    """The stream plan of a traffic profile, with the keys that
    ``run_traffic_profile`` derives."""
    return [(mu, (2, campaign._mu_key(mu), t), [(3, campaign._mu_key(mu), t)])
            for t, mu in enumerate(profile)]


def _draws_without_scratch(ctx, plan):
    """Each fading draw of the plan, made by itself in fresh arrays,
    without a helper."""
    seed = ctx.cfg.master_seed
    want = []
    for mu, drop_key, draw_keys in plan:
        drop = cb.drop_users(ctx.layout, mu, campaign._seed_key(seed, *drop_key))
        budget = drop_link_budget(ctx.layout, drop)
        want += [draw_gain_matrix(budget, campaign._seed_key(seed, *key)) for key in draw_keys]
    return want


def _record_bytes(record):
    """The bytes of a streamed (strongest, vq, pool) record."""
    strongest, vq, pool = record
    return [a.tobytes() for a in (strongest, vq) + (() if pool is None else pool)]


def _records_without_scratch(ctx, plan):
    """The bytes of the record of each fading draw of the plan, read from
    the draw made without a scratch."""
    models = list(ctx.models.values())
    want = []
    for gain_db in _draws_without_scratch(ctx, plan):
        strongest = campaign.strongest_sectors(gain_db)
        vq = campaign.center_cluster_users(models[0], strongest, ctx.center_sector_idx)
        pool = (campaign.draw_pool(gain_db, strongest, vq, ctx.active_sectors, models)
                if vq.any() else None)
        want.append(_record_bytes((strongest, vq, pool)))
    return want


def _check_stream(monkeypatch, ctx, plan):
    """Read the stream of the plan.  Each draw has the bits of the draw
    made without a scratch when the stream starts to read it, and still has
    them once the helper has made every draw handed to it before, which in a
    drop of several draws is the next one.  Each record has the bits of the
    one read from that draw, and keeps them after the next record.  Every
    draw lies in the scratch, whose buffers do not grow, and no two draws in
    a row of one drop share memory.  A context without the helper starts no
    thread.  Returns the buffers."""
    want = _draws_without_scratch(ctx, plan)
    want_records = _records_without_scratch(ctx, plan)
    # a drop's draws before its last one are read after the next is handed out
    before_last = [f < len(keys) - 1 for _, _, keys in plan for f in range(len(keys))]
    handed = [i + 1 + b for i, b in enumerate(before_last)]
    buf, first = ctx.scratch._buf, ctx.scratch._first
    done = threading.Semaphore(0)
    n_done = 0
    read = []

    def signal(make):
        def made(*args):
            out = make(*args)
            done.release()
            return out
        return made

    def read_and_wait(gain_db):
        nonlocal n_done
        i = len(read)
        assert same_bits(gain_db, want[i])
        while n_done < handed[i]:
            assert done.acquire(timeout=60)
            n_done += 1
        assert same_bits(gain_db, want[i])
        assert np.shares_memory(gain_db, buf) or np.shares_memory(gain_db, first)
        assert not (read and before_last[i - 1] and np.shares_memory(gain_db, read[-1]))
        read.append(gain_db)
        return cb.strongest_sectors(gain_db)

    monkeypatch.setattr(campaign, "draw_gain_matrix", signal(draw_gain_matrix))
    monkeypatch.setattr(campaign, "_standard_normal", signal(campaign._standard_normal))
    monkeypatch.setattr(campaign, "strongest_sectors", read_and_wait)
    if not ctx.draw_helper:
        monkeypatch.setattr(threading.Thread, "start", _refuse_to_start)
    last = None
    for i, record in enumerate(campaign._realizations(ctx, plan, list(ctx.models.values()))):
        assert _record_bytes(record) == want_records[i]
        assert last is None or _record_bytes(last) == want_records[i - 1]
        last = record
    assert i + 1 == len(read) == n_done == len(want) and not done.acquire(blocking=False)
    assert ctx.scratch._buf is buf and ctx.scratch._first is first
    return buf, first


def _refuse_to_start(thread):
    raise AssertionError(f"thread {thread.name} started")


def _with_and_without_helper(values):
    """Parameters ``(value, helper)``: each value with the helper, under the
    value's own id, and without it."""
    return ([pytest.param(v, True, id=str(v)) for v in values] +
            [pytest.param(v, False, id=f"{v}-no-helper") for v in values])


@pytest.mark.parametrize("n_fading, helper", _with_and_without_helper([1, 2, 3, 10]))
def test_pipelined_draws_keep_their_bits(monkeypatch, n_fading, helper):
    """Every draw that the stream reads over two drops, from the draw table
    or the first-draw buffer of a warm or a fresh scratch, has the bits of
    the draw made without a scratch, and keeps them while the helper, or the
    caller's thread, makes the draw after it."""
    ctx = _stream_context(monkeypatch, [60.0], n_fading, helper)
    _check_stream(monkeypatch, ctx, _sweep_plan(ctx))


def _tables(layout, density):
    """Floats of one (users, BSs) table of the drop size that a scratch for
    ``density`` holds."""
    mean = density * layout.region_area_m2 / 1e6
    return math.ceil(mean + 4.0 * math.sqrt(mean)) * layout.n_bs


@pytest.mark.parametrize("fast_switches, helper", [
    pytest.param(False, True, id="False"), pytest.param(True, True, id="True"),
    pytest.param(False, False, id="no-helper")])
@pytest.mark.parametrize("n_fading", [1, 3])
@pytest.mark.parametrize("kind", ["profile", "sweep"])
def test_stream_over_drops_that_grow_and_shrink(monkeypatch, kind, n_fading, fast_switches,
                                                helper):
    """Drops of 20, 160 and 20 users per km^2 in turn (a profile; a sweep of
    two densities in order, two drops each): every draw keeps its bits while
    the helper, or the caller's thread, makes the next one, also a next
    drop's first draw while that drop is built.  The scratch holds twelve
    tables of the largest density's drops, nine for a drop and three for
    the first-draw buffer; a second drop layout would need eighteen."""
    ctx = _stream_context(monkeypatch, [20.0, 160.0], n_fading, helper)
    if kind == "profile":
        plan = [(mu, drop_key, [(*key, f) for f in range(n_fading)])
                for mu, drop_key, (key,) in _profile_plan([20.0, 160.0, 20.0, 160.0, 20.0])]
    else:
        plan = _sweep_plan(ctx) + _sweep_plan(ctx)[:2]
    interval = sys.getswitchinterval()
    if fast_switches:
        sys.setswitchinterval(1e-6)
    try:
        buf, first = _check_stream(monkeypatch, ctx, plan)
    finally:
        sys.setswitchinterval(interval)
    assert (buf.size, first.size) == (9 * _tables(ctx.layout, 160.0),
                                      3 * _tables(ctx.layout, 160.0))


def _stream_without_pools(monkeypatch, ctx, plans):
    """A call that runs the stream of the next of ``plans`` without making
    the pools, whose rows are the scheduler's arrays, not the stream's."""
    monkeypatch.setattr(campaign, "draw_pool", lambda *args: None)
    plans = iter(plans)

    def stream():
        for _ in campaign._realizations(ctx, next(plans), list(ctx.models.values())):
            pass

    return stream


@pytest.mark.parametrize("density", [60.0, 160.0])
def test_warm_scratch_pipelined_drop_allocates_no_draw_array(monkeypatch, layout, density):
    """A stream over a drop of 10 draws on a warm scratch allocates less
    than one (U, B) table: no draw is a fresh (U, S) array."""
    ctx = _stream_context(monkeypatch, [density], 10)
    stream = _stream_without_pools(monkeypatch, ctx, [[p] for p in _sweep_plan(ctx)])
    n_users = cb.drop_users(layout, density, campaign._seed_key(
        ctx.cfg.master_seed, *_sweep_plan(ctx)[1][1])).n_users
    assert _traced_peak(stream) <= n_users * layout.n_bs * 8 + SLACK


def test_warm_scratch_stream_of_single_draws_allocates_no_draw_array(monkeypatch, layout):
    """A stream over single-draw drops of 160 and 20 users per km^2 in turn
    on a warm scratch allocates less than one (U, B) table of the larger
    drops: no drop, budget or draw of it is a fresh array."""
    profile = [160.0, 20.0, 160.0, 20.0, 160.0]
    ctx = _stream_context(monkeypatch, [20.0, 160.0], 1)
    stream = _stream_without_pools(monkeypatch, ctx,
                                   [_profile_plan(profile), _profile_plan(profile)[::-1]])
    n_users = max(cb.drop_users(layout, mu, campaign._seed_key(ctx.cfg.master_seed, *key)).n_users
                  for mu, key, _ in _profile_plan(profile))
    assert _traced_peak(stream) <= n_users * layout.n_bs * 8 + SLACK


def test_pipelined_draws_keep_their_bits_under_fast_thread_switches(monkeypatch):
    """With the interpreter switching threads every microsecond and the
    caller reading each record at once, every record still has its bits."""
    ctx = _stream_context(monkeypatch, [60.0], 10)
    plan = _sweep_plan(ctx)
    want = _records_without_scratch(ctx, plan)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [_record_bytes(record)
               for record in campaign._realizations(ctx, plan, list(ctx.models.values()))]
    finally:
        sys.setswitchinterval(interval)
    assert got == want
