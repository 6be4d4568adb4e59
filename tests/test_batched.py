"""Row-batched scheduling stages equal the per-point oracles bit for bit.

A campaign schedules every (configuration, gamma_d, alpha) point of a sleep
pattern as one row of a batched pass; these tests replay each row through
the single-point stage bodies kept in ``helpers`` and compare with
``np.array_equal``.
"""

import numpy as np
import pytest

import compbss as cb
from compbss.bss import active_bs_mask, pattern_evaluation, realization_stats
from compbss.metrics import STAT_FIELDS, aggregate
from compbss.scheduler import (Association, ClusterLinks, allocate, associate,
                               center_cluster_users, cluster_links, cluster_members,
                               link_rates)

from conftest import make_realization
from helpers import (point_allocate, point_link_rates, point_realization_stats,
                     point_summary)

CONFIGS = ("none", "C1", "C2", "C3")
GAMMAS = (-6.0, -1.0, 4.0)
ALPHAS = (0.5, 1.0, 2.0, 3.0)   # 0.5 takes the exponent-1 and square fast paths
THRESHOLDS = (1e5, 5e5)


def _setups(layout, params, model):
    for density in (20.0, 160.0):
        for seed in range(3):
            _, gains = make_realization(layout, params, density=density, seed=seed)
            rx = cb.received_power_w(gains, params)
            vq = center_cluster_users(model, rx.argmax(axis=1),
                                      layout.center_cluster_sector_ids - 1)
            if vq.any():
                yield density, seed, rx, vq


@pytest.mark.parametrize("pattern", cb.default_pattern_list()[::2],
                         ids=lambda p: p.describe())
def test_batched_rows_equal_point_oracles(layout, params, models, pattern):
    model_list = [models[c] for c in CONFIGS]
    act = layout.sector_active_mask(
        active_bs_mask(layout.n_bs, layout.center_cluster_bs_ids - 1, pattern))
    row_points = [(a, c, g) for a in ALPHAS for c in range(len(CONFIGS)) for g in GAMMAS]
    row_multi = [model_list[c].multi_vc_ids for _, c, _ in row_points]
    row_alpha = [a for a, _, _ in row_points]
    n_checked = 0
    for density, seed, rx, vq in _setups(layout, params, models["C3"]):
        strongest = rx.argmax(axis=1)
        assoc = associate(rx, act, params.noise_w, strongest)
        links = [cluster_links(m, rx, assoc, cluster_members(m, act)) for m in model_list]
        sol = allocate(assoc, link_rates(model_list[0], assoc, links, GAMMAS), ALPHAS)
        ev = pattern_evaluation(pattern, sol, vq, 0.0)
        stats = realization_stats(ev, vq, row_multi, THRESHOLDS, row_alpha)
        assert sol.lam.shape == (len(row_points), rx.shape[0])
        for r, (alpha, c, gamma_d) in enumerate(row_points):
            model = model_list[c]
            rates = point_link_rates(model, assoc, links[c], gamma_d)
            ref = point_allocate(model, links[c], rates, alpha)
            row = sol.row(r)
            where = f"mu={density} seed={seed} {CONFIGS[c]} gamma_d={gamma_d} alpha={alpha}"
            for name in ("comp", "outage", "beta", "lam", "coverage_sinr"):
                assert np.array_equal(getattr(row, name), getattr(ref, name)), (name, where)
            k = model.n_vclusters
            assert np.array_equal(row.theta[:k], ref.theta), where
            assert not row.theta[k:].any(), where
            assert np.array_equal(row.n_comp[:k], ref.n_comp), where
            assert np.array_equal(row.n_noncomp[:k], ref.n_noncomp), where
            for t, r_thr in enumerate(THRESHOLDS):
                want = point_realization_stats(ref, vq, model.multi_vc_ids, r_thr, alpha,
                                               pattern.energy_saving_pct)
                for name in STAT_FIELDS:
                    got = getattr(stats, name)[r, t]
                    assert np.array_equal(got, want[name]), (name, r_thr, where)
        n_checked += 1
    assert n_checked >= 4


def test_single_point_schedule_equals_oracle(layout, params, models):
    """``schedule`` and ``realization_stats`` with one row, as the heuristic uses them."""
    for density, seed, rx, vq in _setups(layout, params, models["C3"]):
        for name in CONFIGS:
            model = models[name]
            for alpha, gamma_d in ((0.5, 4.0), (1.0, -1.0), (3.0, -6.0)):
                sp = cb.SchedulerParams(alpha=alpha, gamma_d_db=gamma_d)
                sol = cb.schedule(model, rx, np.ones(layout.n_bs, bool), sp)
                act = np.ones(layout.n_sectors, bool)
                assoc = associate(rx, act, params.noise_w, rx.argmax(axis=1))
                links = cluster_links(model, rx, assoc, cluster_members(model, act))
                ref = point_allocate(model, links,
                                     point_link_rates(model, assoc, links, gamma_d), alpha)
                for field in ("comp", "outage", "beta", "theta", "lam", "coverage_sinr",
                              "n_comp", "n_noncomp"):
                    assert np.array_equal(getattr(sol, field), getattr(ref, field)), field
                pattern = cb.default_pattern_list()[-1]
                stats = realization_stats(pattern_evaluation(pattern, sol, vq, 0.0), vq,
                                          [model.multi_vc_ids], 2e5, alpha)
                want = point_realization_stats(ref, vq, model.multi_vc_ids, 2e5, alpha, 0.0)
                for field in STAT_FIELDS:
                    got = getattr(stats, field)
                    assert got.shape == (1,) and np.array_equal(got[0], want[field]), field


def test_each_threshold_is_converted_as_one_point_converts_it(models):
    """A serving SINR equal to a point's linear threshold stays CoMP in the
    batch.  At these gamma_d values a vectorised from_db lands one ulp below
    the scalar conversion a single point uses."""
    model = models["C3"]
    gammas = [-6.41, -5.76, -4.17]
    thr = np.array([cb.channel.from_db(g) for g in gammas])
    n = thr.size
    assoc = Association(active_sector=np.ones(model.n_sectors, bool), total_w=np.ones(n),
                        sector=np.zeros(n, int), sinr=thr)
    links = ClusterLinks(vc=np.zeros(n, int), capable=np.ones(n, bool),
                         joint_sinr=np.full(n, 2.0), n_vclusters=model.n_vclusters)
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
    for k in range(n_keys):
        for i, name in enumerate(STAT_FIELDS):
            mean, std, ci95 = point_summary(values[k, i])
            assert summ[name].n == n
            assert np.array_equal(summ[name].mean[k], mean), (k, name)
            assert np.array_equal(summ[name].std[k], std), (k, name)
            assert np.array_equal(summ[name].ci95[k], ci95), (k, name)
