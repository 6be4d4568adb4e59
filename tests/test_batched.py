"""Batched scheduling stages equal the per-pattern, per-point oracles bit for bit.

A campaign schedules every (pattern, configuration, gamma_d, alpha) point of
a fading draw as one row of a batched pass, and the heuristic and the
exhaustive oracle score their whole pattern list in one pass; these tests
replay each row through the single-point stage bodies kept in ``helpers``
and compare with ``np.array_equal``.
"""

import numpy as np
import pytest

import compbss as cb
from compbss.bss import all_patterns, exhaustive_oracle, heuristic_select, realization_stats
from compbss.metrics import STAT_FIELDS, aggregate
from compbss.scheduler import (Association, ClusterLinks, allocate, associate,
                               center_cluster_users, cluster_links, cluster_members,
                               link_rates, serving_sectors, strongest_sectors)

from conftest import make_realization
from helpers import (pattern_bs_mask, pattern_sector_masks, point_allocate, point_associate,
                     point_cluster_links, point_link_rates, point_realization_stats,
                     point_summary, walk_heuristic, walk_oracle)

CONFIGS = ("none", "C1", "C2", "C3")
GAMMAS = (-6.0, -1.0, 4.0)
ALPHAS = (0.5, 1.0, 2.0, 3.0)   # 0.5 takes the exponent-1 and square fast paths
THRESHOLDS = (1e5, 5e5)


def _setups(layout, params, model, densities=(20.0, 160.0), seeds=range(3)):
    for density in densities:
        for seed in seeds:
            _, gain_db = make_realization(layout, params, density=density, seed=seed)
            rx = cb.received_power_w(gain_db, params)
            vq = center_cluster_users(model, rx.argmax(axis=1),
                                      layout.center_cluster_sector_ids - 1)
            if vq.any():
                yield density, seed, gain_db, rx, vq


def _serving(gain_db, act, params):
    """Library serving sectors of the dB draw, strongest sector first."""
    return serving_sectors(gain_db, act, strongest_sectors(gain_db, params), params)


def test_batched_associate_equals_point_oracle(layout, params, models):
    """All 127 patterns in one pass, including users whose strongest sector sleeps."""
    act = pattern_sector_masks(layout, all_patterns(7))
    n_asleep = 0
    for density, seed, gain_db, rx, _ in _setups(layout, params, models["C3"]):
        strongest = rx.argmax(axis=1)
        assoc = associate(rx, act, params.noise_w, _serving(gain_db, act, params))
        assert assoc.total_w.shape == assoc.sector.shape == (len(act), rx.shape[0])
        n_asleep += np.count_nonzero(~act[:, strongest])
        for p, a in enumerate(act):
            ref = point_associate(rx, a, params.noise_w, strongest)
            for name in ("total_w", "sector", "sinr"):
                assert np.array_equal(getattr(assoc, name)[p], getattr(ref, name)), (
                    name, density, seed, p)
    assert n_asleep > 0


def test_batched_cluster_links_equal_point_oracle(layout, params, models):
    act = pattern_sector_masks(layout, all_patterns(7))
    for density, seed, gain_db, rx, _ in _setups(layout, params, models["C3"],
                                                 seeds=range(2)):
        assoc = associate(rx, act, params.noise_w, _serving(gain_db, act, params))
        for name in CONFIGS:
            model = models[name]
            links = cluster_links(model, rx, assoc, cluster_members(model, act))
            for p, a in enumerate(act):
                ref = point_cluster_links(
                    model, rx, point_associate(rx, a, params.noise_w, rx.argmax(axis=1)), a)
                where = (name, density, seed, p)
                assert np.array_equal(links.joint_sinr[p], ref.joint_sinr), where
                assert np.array_equal(links.capable[p], ref.capable), where
                assert np.array_equal(links.vc[p], ref.vc), where


@pytest.mark.parametrize("pattern", cb.default_pattern_list()[::2],
                         ids=lambda p: p.describe())
def test_batched_rows_equal_point_oracles(layout, params, models, pattern):
    """The rows of ``pattern`` in a pass over all 5 shipped patterns: every
    (config, gamma_d) row, for each alpha."""
    patterns = cb.default_pattern_list()
    p = patterns.index(pattern)
    model_list = [models[c] for c in CONFIGS]
    act = pattern_sector_masks(layout, patterns)
    row_points = [(q, c, g) for q in range(len(patterns)) for c in range(len(CONFIGS))
                  for g in GAMMAS]
    row_energy = [patterns[q].energy_saving_pct for q, _, _ in row_points]
    row_multi = [model_list[c].multi_vc_ids for _, c, _ in row_points]
    n_checked = 0
    for density, seed, gain_db, rx, vq in _setups(layout, params, models["C3"]):
        strongest = rx.argmax(axis=1)
        assoc = associate(rx, act, params.noise_w, _serving(gain_db, act, params))
        links = [cluster_links(m, rx, assoc, cluster_members(m, act)) for m in model_list]
        rates = link_rates(model_list[0], assoc, links, GAMMAS)
        point_assoc = point_associate(rx, act[p], params.noise_w, strongest)
        for alpha in ALPHAS:
            sol = allocate(rates, alpha)
            stats = realization_stats(sol, vq, row_energy, row_multi, THRESHOLDS, alpha)
            assert sol.lam.shape == (len(row_points), rx.shape[0])
            for r, (q, c, gamma_d) in enumerate(row_points):
                if q != p:
                    continue
                model = model_list[c]
                p_links = point_cluster_links(model, rx, point_assoc, act[p])
                ref = point_allocate(model, p_links,
                                     point_link_rates(model, point_assoc, p_links, gamma_d),
                                     alpha)
                row = sol.row(r)
                where = f"mu={density} seed={seed} {CONFIGS[c]} gamma_d={gamma_d} alpha={alpha}"
                assert np.array_equal(row.assoc_sector, point_assoc.sector), where
                assert np.array_equal(row.vc, p_links.vc), where
                for name in ("comp", "outage", "beta", "lam", "coverage_sinr"):
                    assert np.array_equal(getattr(row, name), getattr(ref, name)), (name, where)
                k = model.n_vclusters
                assert np.array_equal(row.theta[:k], ref.theta), where
                assert not row.theta[k:].any(), where
                for t, r_thr in enumerate(THRESHOLDS):
                    want = point_realization_stats(ref, vq, model.multi_vc_ids, r_thr, alpha,
                                                   pattern.energy_saving_pct)
                    for i, name in enumerate(STAT_FIELDS):
                        assert np.array_equal(stats[r, t, i], want[name]), (name, r_thr, where)
        n_checked += 1
    assert n_checked >= 4


def test_single_point_schedule_equals_oracle(layout, params, models):
    """``schedule`` and ``realization_stats`` with one row, as a selection uses them."""
    pattern = cb.default_pattern_list()[1]
    active_bs = pattern_bs_mask(layout.n_bs, layout.center_cluster_bs_ids - 1, pattern)
    act = active_bs[layout.sector_bs]
    for density, seed, gain_db, rx, vq in _setups(layout, params, models["C3"]):
        assoc = point_associate(rx, act, params.noise_w, rx.argmax(axis=1))
        for name in CONFIGS:
            model = models[name]
            links = point_cluster_links(model, rx, assoc, act)
            for alpha, gamma_d in ((0.5, 4.0), (1.0, -1.0), (3.0, -6.0)):
                sp = cb.SchedulerParams(alpha=alpha, gamma_d_db=gamma_d)
                sol = cb.schedule(model, rx, active_bs, sp)
                ref = point_allocate(model, links,
                                     point_link_rates(model, assoc, links, gamma_d), alpha)
                assert np.array_equal(sol.assoc_sector, assoc.sector)
                assert np.array_equal(sol.vc, links.vc)
                for field in ("comp", "outage", "beta", "theta", "lam", "coverage_sinr"):
                    assert np.array_equal(getattr(sol, field), getattr(ref, field)), field
                ev = cb.evaluate_pattern(model, gain_db, vq, layout.center_cluster_bs_ids - 1,
                                         pattern, sp, 0.0)
                assert np.array_equal(ev.solution.lam, sol.lam[ev.users])
                stats = realization_stats(ev.solution, vq[ev.users], [pattern.energy_saving_pct],
                                          [model.multi_vc_ids], 2e5, alpha)
                want = point_realization_stats(ref, vq, model.multi_vc_ids, 2e5, alpha,
                                               pattern.energy_saving_pct)
                assert stats.shape == (1, len(STAT_FIELDS))
                for i, field in enumerate(STAT_FIELDS):
                    assert np.array_equal(stats[0, i], want[field]), field


@pytest.mark.parametrize("threshold", [0.0, 1e5, 2e5, 4e5, 1e12])
def test_one_pass_selection_equals_sequential_walk(layout, params, models, threshold):
    """The batched heuristic and exhaustive oracle pick the pattern a walk
    down the list picks, with the same minimum rate and evaluation count."""
    cb_idx = layout.center_cluster_bs_ids - 1
    full = all_patterns(7)
    for density, seed, gain_db, rx, vq in _setups(layout, params, models["C3"],
                                                  densities=(60.0,), seeds=range(2)):
        for name, alpha in (("C3", 1.0), ("C1", 2.0)):
            model = models[name]
            sp = cb.SchedulerParams(alpha=alpha, gamma_d_db=-1.0)
            for patterns in (cb.default_pattern_list(), full):
                got = heuristic_select(model, gain_db, vq, cb_idx, patterns, sp, threshold)
                want = walk_heuristic(model, rx, vq, cb_idx, patterns, sp, threshold)
                _check_selection(got, want, (name, seed, len(patterns)))
            got = exhaustive_oracle(model, gain_db, vq, cb_idx, sp, threshold)
            want = walk_oracle(model, rx, vq, cb_idx, sp, threshold)
            _check_selection(got, want, (name, seed, "oracle"))


def _check_selection(got, want, where):
    pattern, min_rate, feasible, n_eval = want
    assert got.pattern == pattern, where
    assert got.feasible is feasible, where
    assert isinstance(got.min_rate_bps, float), where
    assert np.array_equal(got.min_rate_bps, min_rate), where
    assert got.patterns_evaluated == n_eval, where
    assert got.rates_bps.min() == got.min_rate_bps, where


def test_each_threshold_is_converted_as_one_point_converts_it(models):
    """A serving SINR equal to a point's linear threshold stays CoMP in the
    batch.  At these gamma_d values a vectorised from_db lands one ulp below
    the scalar conversion a single point uses."""
    model = models["C3"]
    gammas = [-6.41, -5.76, -4.17]
    thr = np.array([cb.channel.from_db(g) for g in gammas])
    n = thr.size
    assoc = Association(active_sector=np.ones((1, model.n_sectors), bool),
                        total_w=np.ones((1, n)), sector=np.zeros((1, n), int),
                        sinr=thr[None])
    links = ClusterLinks(vc=np.zeros((1, n), int), capable=np.ones((1, n), bool),
                         joint_sinr=np.full((1, n), 2.0), n_vclusters=model.n_vclusters)
    rates = link_rates(model, assoc, [links], gammas)
    for g, t in enumerate(thr):
        assert np.array_equal(rates.comp[g], thr <= t)


@pytest.mark.parametrize("n", [1, 2, 9, 130])
def test_batched_aggregate_equals_per_key_summaries(n):
    rng = np.random.default_rng(n)
    n_keys = 23
    values = rng.lognormal(0.0, 3.0, size=(n_keys, len(STAT_FIELDS), n))
    values[:, STAT_FIELDS.index("n_users")] = rng.integers(1, 400, size=(n_keys, n))
    summ = aggregate(values)
    assert summ.shape == (3, n_keys, len(STAT_FIELDS))
    for k in range(n_keys):
        for i, name in enumerate(STAT_FIELDS):
            want = point_summary(values[k, i])
            for part in range(3):
                assert np.array_equal(summ[part, k, i], want[part]), (k, name, part)
