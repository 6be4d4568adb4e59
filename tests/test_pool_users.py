"""Scheduling the pool users alone gives the full-field bits.

After the gain matrix, the campaign and the selections schedule only the
users that share a pool with the metric set (``scheduler.pool_users``).  These
tests replay the same draws over every user of the field through the oracles
in ``helpers`` and compare with ``np.array_equal``.
"""

import dataclasses

import numpy as np
import pytest

import compbss as cb
from compbss.bss import all_patterns, exhaustive_oracle, heuristic_select
from compbss.campaign import CampaignConfig, _drop_records, build_context
from compbss.scheduler import (SystemModel, allocate, cluster_members, draw_pool, draw_rates,
                               pool_users,
                               strongest_sectors)

from conftest import make_realization
from helpers import (full_field_drop_records, full_field_patterns, linear_serving,
                     pattern_bs_mask, pattern_sector_masks, patterns_to_file)

DENSITIES = (20.0, 60.0, 160.0)
PATTERN_SETS = ("default", "all")


def _context(tmp_path, pattern_set, configs, **overrides):
    raw = dict(densities_per_km2=list(DENSITIES), n_drops=2, n_fading=2,
               alphas=[0.5, 1.0, 3.0], gamma_ds_db=[-6.0, 4.0],
               rate_thresholds_bps=[1e5, 5e5], comp_configs=list(configs), master_seed=3)
    if pattern_set == "all":
        patterns_to_file(all_patterns(7), tmp_path / "all.csv")
        raw.update(pattern_file=str(tmp_path / "all.csv"), n_fading=1)
    raw.update(overrides)
    return build_context(CampaignConfig(**raw))


def _assert_records_equal(ctx, mu, d):
    (values, skipped, n_scheduled, n_dropped), = _drop_records(ctx, [(mu, d)])
    want, want_skipped = full_field_drop_records(ctx, mu, d)
    assert skipped == want_skipped
    assert values.shape == want.shape
    assert np.array_equal(values, want), (mu, d)
    assert n_scheduled <= n_dropped
    return values.shape[0], n_scheduled, n_dropped


@pytest.mark.parametrize("pattern_set", PATTERN_SETS)
@pytest.mark.parametrize("config", ["none", "C1", "C2", "C3"])
def test_drop_records_equal_full_field_oracle(tmp_path, pattern_set, config):
    """Every STAT_FIELDS value of every sweep point, alpha 0.5, 1 and 3."""
    ctx = _context(tmp_path, pattern_set, [config])
    n_draws = n_scheduled = n_dropped = 0
    for mu in DENSITIES:
        for d in range(ctx.cfg.n_drops):
            n, s, u = _assert_records_equal(ctx, mu, d)
            n_draws, n_scheduled, n_dropped = n_draws + n, n_scheduled + s, n_dropped + u
    assert n_draws >= 5
    assert 0 < n_scheduled < n_dropped


def test_drop_records_with_every_preset_in_one_pass(tmp_path):
    """All four configurations share one pool-user set per draw."""
    ctx = _context(tmp_path, "default", ["none", "C1", "C2", "C3"])
    for mu in DENSITIES:
        _assert_records_equal(ctx, mu, 0)


def _off_centre_model(layout):
    """C3 plus one multi-sector cluster of the three sectors of BS 8, which
    serve no metric-set user unless a sleeping sector hands one over."""
    base = cb.build_system_model(layout, "C3")
    vc = base.vc_of_sector.copy()
    outer = np.flatnonzero(layout.sector_bs == 7)
    vc[outer] = vc[outer[0]]
    _, vc = np.unique(vc, return_inverse=True)
    sizes = np.bincount(vc)
    return SystemModel(sector_bs=base.sector_bs, vc_of_sector=vc, vc_sizes=sizes,
                       multi_vc_ids=np.flatnonzero(sizes > 1))


@pytest.mark.parametrize("pattern_set", PATTERN_SETS)
def test_off_centre_cluster_keeps_its_theta(tmp_path, layout, pattern_set):
    """The theta of a multi-sector cluster no metric-set user reaches is read
    by theta_mean, so every user of its sectors is a pool user.  The first
    configuration has no such cluster."""
    ctx = _context(tmp_path, pattern_set, ["none", "C3"], gamma_ds_db=[4.0])
    model = _off_centre_model(layout)
    ctx = dataclasses.replace(
        ctx, models={"none": ctx.models["none"], "C3": model},
        members=[ctx.members[0], cluster_members(model, ctx.active_sectors)])
    for mu in DENSITIES:
        for d in range(ctx.cfg.n_drops):
            _assert_records_equal(ctx, mu, d)


def _draws(layout, model, seeds=range(2)):
    center_idx = layout.center_cluster_sector_ids - 1
    for density in DENSITIES:
        for seed in seeds:
            _, gain_db = make_realization(layout, density=density, seed=seed)
            rx = cb.received_power_w(gain_db)
            vq = cb.center_cluster_users(model, rx.argmax(axis=1), center_idx)
            if vq.any():
                yield density, seed, gain_db, rx, vq


def _check_pick(got, patterns, want_rates, k, feasible, n_eval, where):
    assert got.pattern == patterns[k], where
    assert got.feasible is feasible, where
    assert np.array_equal(got.min_rate_bps, want_rates[k].min()), where
    assert np.array_equal(got.rates_bps, want_rates[k]), where
    assert got.patterns_evaluated == n_eval, where


@pytest.mark.parametrize("config", ["none", "C1", "C2", "C3"])
def test_selections_equal_full_field_oracle(layout, models, config):
    """The pattern-list pass of ``draw_rates`` on 5 and 127 patterns, with
    every row's rates, coverage SINR and cluster theta, and the heuristic and
    exhaustive oracle picks."""
    model = models[config]
    cb_idx = layout.center_cluster_bs_ids - 1
    n_checked = 0
    for density, seed, gain_db, rx, vq in _draws(layout, model, seeds=range(1)):
        for alpha, gamma_d in ((1.0, -1.0), (3.0, 4.0)):
            for patterns in (cb.default_pattern_list(), all_patterns(7)):
                want = full_field_patterns(model, rx, cb_idx, patterns, alpha, gamma_d)
                want_rates = want.lam[:, vq]
                active = np.array([pattern_bs_mask(layout.n_bs, cb_idx, p)
                                   for p in patterns])[:, model.sector_bs]
                pool = draw_pool(gain_db, strongest_sectors(gain_db), vq, active, [model])
                users, rates = draw_rates([model], [cluster_members(model, active)], pool,
                                          active, [gamma_d])
                got = allocate(rates, alpha)
                where = (config, density, seed, alpha, len(patterns))
                assert np.array_equal(got.lam[:, vq[users]], want_rates), where
                assert np.array_equal(got.coverage_sinr[:, vq[users]],
                                      want.coverage_sinr[:, vq]), where
                ids = model.multi_vc_ids
                assert np.array_equal(got.theta[:, ids], want.theta[:, ids]), where
                # thresholds at the row minima make the picks differ
                minima = np.unique(want_rates.min(axis=1))
                for thr in (minima[0], minima[minima.size // 2], 1e12):
                    feasible = want_rates.min(axis=1) >= thr
                    k = int(feasible.argmax()) if feasible.any() else len(patterns) - 1
                    pick = heuristic_select(model, gain_db, vq, cb_idx, patterns, alpha, gamma_d,
                                            thr)
                    _check_pick(pick, patterns, want_rates, k, bool(feasible[k]), k + 1,
                                where + (thr,))
                    if len(patterns) == 127:
                        pick = exhaustive_oracle(model, gain_db, vq, cb_idx, alpha, gamma_d, thr)
                        _check_pick(pick, patterns, want_rates, k, bool(feasible[k]), 127,
                                    where + (thr, "oracle"))
                    n_checked += 1
    assert n_checked >= 30


def test_pool_users_are_sorted_and_hold_the_metric_set(layout, models):
    act = pattern_sector_masks(layout, all_patterns(7))
    shares = []
    for _, _, gain_db, rx, vq in _draws(layout, models["C1"]):
        strongest = strongest_sectors(gain_db)
        assert np.array_equal(strongest, rx.argmax(axis=1))
        users, serving = pool_users(gain_db, strongest, vq, act, list(models.values()))
        assert np.array_equal(users, np.unique(users))
        assert np.array_equal(serving, linear_serving(rx, act)[:, users])
        assert vq[users].sum() == vq.sum()
        shares.append(users.size / rx.shape[0])
    assert 0.0 < min(shares) and max(shares) < 1.0


def test_single_pool_user_keeps_a_second_row(models):
    """One metric-set user alone in its sector: the association still sums
    two users' columns, and the rates equal the full-field ones."""
    model = models["none"]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        gain_db = rng.normal(-120.0, 15.0, size=(3, model.n_sectors))
        gain_db[np.arange(3), [0, 60, 90]] = -60.0    # strongest: centre, then two outer
        rx = cb.received_power_w(gain_db)
        vq = np.array([True, False, False])
        users, _ = pool_users(gain_db, strongest_sectors(gain_db), vq,
                              np.ones((1, model.n_sectors), bool), [model])
        assert users.tolist() == [0, 1]
        sp = (1.0, -1.0)
        pattern = cb.default_pattern_list()[-1]
        got = cb.evaluate_pattern(model, gain_db, vq, np.arange(7), pattern, *sp, 0.0)
        want = full_field_patterns(model, rx, np.arange(7), [pattern], *sp)
        assert np.array_equal(got.solution.coverage_sinr[:1],
                              want.coverage_sinr[0, :1]), seed
        assert np.array_equal(got.rates_bps, want.lam[0, vq]), seed


def test_manifest_counts_pool_users_for_any_worker_count():
    cfg = CampaignConfig(densities_per_km2=[20.0, 60.0], n_drops=3, n_fading=2,
                         comp_configs=["none", "C3"], master_seed=11)
    serial = cb.campaign.run_campaign(cfg, jobs=1).manifest["scheduled_user_frac"]
    parallel = cb.campaign.run_campaign(cfg, jobs=2).manifest["scheduled_user_frac"]
    assert serial == parallel
    assert 0.0 < serial < 1.0
    traffic = CampaignConfig(traffic_profile=[20.0, 160.0], comp_configs=["C3"],
                             master_seed=11)
    frac = cb.campaign.run_traffic_profile(traffic).manifest["scheduled_user_frac"]
    assert 0.0 < frac < 1.0
