import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import compbss as cb
from compbss.metrics import alpha_fair_throughputs
from compbss.scheduler import (ALPHA_RANGE, DEFAULT_GAMMA_D_RANGE_DB, TIE_MARGIN_DB,
                               SchedulerParams, SystemModel, allocate, associate,
                               cluster_links, cluster_members, link_rates, schedule,
                               serving_sectors, strongest_sectors)

from conftest import make_realization

from helpers import (closed_form_lambdas, instance_rates, linear_serving, make_instance,
                     numeric_theta, random_feasible_utilities, same_bits, utility_oracle)

positive_rates = arrays(np.float64, st.integers(1, 8),
                        elements=st.floats(1e3, 1e9, allow_nan=False))


@functools.lru_cache(maxsize=None)
def _realization_rx(layout, params, density, seed):
    _, gain_db = make_realization(layout, params, density=density, seed=seed)
    return cb.received_power_w(gain_db, params)


def allocated_fractions(rates, alpha):
    """Time fractions that ``allocate`` gives the users of one sector pool."""
    return allocate(instance_rates([np.asarray(rates, dtype=float)], np.empty(0)),
                    alpha).beta[0]


def allocated_theta(nc_rates, c_rates, alpha):
    """Theta that ``allocate`` gives a cluster of one non-CoMP pool and one
    CoMP pool."""
    return closed_form_lambdas([np.asarray(nc_rates, dtype=float)],
                               np.asarray(c_rates, dtype=float), alpha)[1]


def _all_on_stages(rx, noise_w, model):
    """Association and cluster links of every user with every sector on."""
    act = np.ones((1, rx.shape[1]), bool)
    assoc = associate(rx, act, noise_w, linear_serving(rx, act))
    return assoc, cluster_links(model, rx, assoc, cluster_members(model, act))


class TestTimeFractions:
    def test_proportional_fair_equal_split(self):
        beta = allocated_fractions(np.array([5e6, 1e6, 3e6, 9e6]), alpha=1.0)
        assert np.array_equal(beta, np.full(4, 0.25))

    def test_alpha2_hand_value(self):
        beta = allocated_fractions(np.array([4.0, 1.0]), alpha=2.0)
        assert beta == pytest.approx([1 / 3, 2 / 3], rel=1e-12)

    def test_alpha2_comp_hand_value(self):
        beta = allocated_fractions(np.array([9.0, 1.0]), alpha=2.0)
        assert beta == pytest.approx([1 / 4, 3 / 4], rel=1e-12)

    def test_single_user_gets_everything(self):
        for alpha in (0.5, 1.0, 2.0, 3.0):
            assert allocated_fractions(np.array([7e6]), alpha) == pytest.approx([1.0])

    def test_zero_rate_user_leaves_the_pool(self):
        beta = allocated_fractions(np.array([1.0, 0.0, 3.0]), 2.0)
        assert beta[1] == 0.0
        assert beta[[0, 2]] == pytest.approx([3 ** 0.5 / (1 + 3 ** 0.5),
                                              1 / (1 + 3 ** 0.5)], rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(rates=positive_rates, alpha=st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    def test_normalization_exact(self, rates, alpha):
        beta = allocated_fractions(rates, alpha)
        assert np.all(beta >= 0)
        assert abs(beta.sum() - 1.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(rates=positive_rates, alpha=st.sampled_from([0.5, 2.0, 3.0]))
    def test_equal_rates_equal_fractions(self, rates, alpha):
        r = np.full(rates.size, float(rates[0]))
        beta = allocated_fractions(r, alpha)
        assert beta == pytest.approx(np.full(r.size, 1.0 / r.size), rel=1e-12)


class TestCompShare:
    def test_proportional_fair_counts(self):
        nc = np.full(7, 1e6)
        c = np.full(3, 1e6)
        assert allocated_theta(nc, c, alpha=1.0) == 0.3

    def test_alpha2_symmetric(self):
        assert allocated_theta(np.array([5e6]), np.array([5e6]), 2.0) == pytest.approx(0.5)

    def test_empty_comp_pool(self):
        assert allocated_theta(np.array([1e6]), np.empty(0), 2.0) == 0.0

    def test_empty_noncomp_pool(self):
        assert allocated_theta(np.empty(0), np.array([1e6]), 2.0) == 1.0

    def test_matches_numeric_maximum(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            nc_rates, c_rates = make_instance(rng, require_both=True)
            for alpha in (0.5, 1.0, 2.0, 3.0):
                _, theta, nc_prod, c_prod = closed_form_lambdas(nc_rates, c_rates, alpha)
                assert theta == pytest.approx(numeric_theta(nc_prod, c_prod, alpha),
                                              abs=1e-6)

    def test_kkt_stationarity_residual(self):
        """First-order condition of the theta objective at the closed form."""
        rng = np.random.default_rng(23)
        for _ in range(60):
            nc_rates, c_rates = make_instance(rng, require_both=True)
            for alpha in (0.5, 1.0, 2.0, 3.0):
                _, theta, nc_prod, c_prod = closed_form_lambdas(nc_rates, c_rates, alpha)
                lhs = (1 - theta) ** (-alpha) * np.sum(nc_prod ** (1 - alpha))
                rhs = theta ** (-alpha) * np.sum(c_prod ** (1 - alpha))
                assert abs(lhs - rhs) / (abs(lhs) + abs(rhs)) < 1e-9

    def test_beta_stationarity_within_pool(self):
        rng = np.random.default_rng(29)
        for alpha in (0.5, 2.0, 3.0):
            rates = 10 ** rng.uniform(5, 8, size=6)
            beta = allocated_fractions(rates, alpha)
            marginal = rates ** (1 - alpha) * beta ** (-alpha)
            spread = (marginal.max() - marginal.min()) / marginal.max()
            assert spread < 1e-9

    def test_dominates_random_allocations(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            nc_rates, c_rates = make_instance(rng, require_both=True)
            for alpha in (0.5, 1.0, 2.0, 3.0):
                lams, _, _, _ = closed_form_lambdas(nc_rates, c_rates, alpha)
                u_star = utility_oracle(lams, alpha)
                u_rand = random_feasible_utilities(nc_rates, c_rates, alpha, 2000, rng)
                assert u_star >= u_rand.max() - abs(u_star) * 1e-12


class TestUtility:
    """The utility oracle that the optimality checks compare against."""

    def test_log_of_ones(self):
        assert utility_oracle(np.array([1.0, 1.0]), 1.0) == 0.0

    def test_alpha2_hand_value(self):
        assert utility_oracle(np.array([1.0, 2.0]), 2.0) == pytest.approx(-1.5)


class TestAssociation:
    def test_argmax_matches_exhaustive_scan(self, realization, params, layout, models):
        """Oracle: plain scan of the SINR over all 147 sectors."""
        _, _, rx = realization
        assoc, _ = _all_on_stages(rx, params.noise_w, models["none"])
        for u in range(min(40, rx.shape[0])):
            total = sum(rx[u])
            best, best_g = 0, -np.inf
            for s in range(layout.n_sectors):
                g = rx[u, s] / (total - rx[u, s] + params.noise_w)
                if g > best_g:
                    best, best_g = s, g
            assert assoc.sector[0, u] == best
            assert assoc.sinr[0, u] == pytest.approx(best_g, rel=1e-9)

    def test_association_moves_when_serving_bs_off(self, realization, params,
                                                   layout, models):
        _, _, rx = realization
        model = models["none"]
        sp = SchedulerParams(alpha=1.0, gamma_d_db=0.0)
        all_on = np.ones(49, bool)
        sol_on = schedule(model, rx, all_on, sp)
        # switch BS 4 (centre) off and verify its users moved to active sectors
        mask = all_on.copy()
        mask[3] = False
        sol_off = schedule(model, rx, mask, sp)
        was_b4 = model.sector_bs[sol_on.assoc_sector] == 3
        assert was_b4.any()
        assert np.all(model.sector_bs[sol_off.assoc_sector[was_b4]] != 3)

    def test_ties_break_to_lowest_index(self):
        """A user whose strongest sector sleeps is re-served among the active
        ones; equal powers go to the lowest index."""
        gain_db = np.array([[2.0, 3.0, 3.0, 9.0]])
        act = np.array([[True, True, True, False]])
        params = cb.ChannelParams()
        strongest = strongest_sectors(gain_db, params)
        assert serving_sectors(gain_db, act, strongest, params)[0, 0] == 1

    def test_no_active_sector_raises(self):
        rx = np.ones((2, 3))
        with pytest.raises(ValueError, match="active"):
            associate(rx, np.zeros((1, 3), bool), 1e-3, np.zeros((1, 2), int))


def _collapsing_pairs(params, n=8):
    """dB gains g < h one ulp apart, at link-budget levels, whose received
    powers in watts are equal: over watts the lower index wins their tie."""
    g = np.random.default_rng(0).uniform(-128.0, -80.0, size=4000)
    h = np.nextafter(g, np.inf)
    same = cb.received_power_w(g[:, None], params) == cb.received_power_w(h[:, None], params)
    g, h = g[same[:, 0]], h[same[:, 0]]
    assert g.size >= n
    return g[:n], h[:n]


def _near_tie_rows(params, n_sectors=12):
    """Rows of a dB draw whose two largest entries, at sectors 3 and 8 (in
    either order), are equal, one ulp apart with equal watts, within
    TIE_MARGIN_DB, or just outside it."""
    g, h = _collapsing_pairs(params)
    pairs = [(g, g), (g, h), (h, g), (g, g + 0.5 * TIE_MARGIN_DB),
             (g + 0.5 * TIE_MARGIN_DB, g), (g, g + 2.0 * TIE_MARGIN_DB)]
    rows = []
    for lo_idx, hi_idx in pairs:
        block = np.random.default_rng(1).uniform(-220.0, -150.0, size=(g.size, n_sectors))
        block[:, 3], block[:, 8] = lo_idx, hi_idx
        rows.append(block)
    return np.concatenate(rows)


class TestCertifiedArgmax:
    """The strongest sector is taken on dB values and equals the argmax of
    the row in watts, ties to the lowest index, however close the two
    largest candidates lie."""

    def test_strongest_sector_equals_linear_argmax(self, params):
        gain_db = _near_tie_rows(params)
        drawn = gain_db.copy()
        rx = cb.received_power_w(gain_db, params)
        want = rx.argmax(axis=1)
        got = strongest_sectors(gain_db, params)
        assert same_bits(gain_db, drawn)
        assert np.array_equal(got, want)
        assert same_bits(rx[np.arange(rx.shape[0]), got], rx.max(axis=1))
        # the dB argmax alone picks sector 8 where watts tie at sector 3
        assert np.any(gain_db.argmax(axis=1) != want)

    def test_sleeping_repick_equals_linear_argmax(self, params):
        """Sector 0 is the strongest and sleeps; the re-pick among the active
        sectors meets the same near ties."""
        gain_db = _near_tie_rows(params)
        gain_db[:, 0] = -60.0
        act = np.ones((2, gain_db.shape[1]), bool)
        act[:, 0] = False
        act[1, 5] = False
        strongest = strongest_sectors(gain_db, params)
        assert not strongest.any()
        rx = cb.received_power_w(gain_db, params)
        want = linear_serving(rx, act)
        assert np.array_equal(serving_sectors(gain_db, act, strongest, params), want)
        masked = np.where(act[0], gain_db, -np.inf)
        assert np.any(masked.argmax(axis=1) != want[0])

    def test_draws_of_the_campaign(self, layout, params):
        for density in (20.0, 160.0):
            for seed in range(3):
                _, gain_db = make_realization(layout, params, density=density, seed=seed)
                rx = cb.received_power_w(gain_db, params)
                assert np.array_equal(strongest_sectors(gain_db, params), rx.argmax(axis=1))


class TestClassification:
    """CoMP flags of ``link_rates``: capable users at or below gamma_d."""

    def test_threshold_below_all_sinrs(self, realization, params, models):
        _, _, rx = realization
        model = models["C1"]
        assoc, links = _all_on_stages(rx, params.noise_w, model)
        assert not link_rates(model, assoc, [links], [-200.0]).comp.any()

    def test_threshold_above_all_sinrs_comps_everyone_in_c1(self, realization,
                                                            params, models):
        _, _, rx = realization
        model = models["C1"]
        assoc, links = _all_on_stages(rx, params.noise_w, model)
        z = link_rates(model, assoc, [links], [200.0]).comp[0]
        in_multi = model.vc_sizes[model.vc_of_sector[assoc.sector[0]]] > 1
        assert in_multi.any()
        assert np.array_equal(z, in_multi)

    def test_singletons_never_comp(self, realization, params, models):
        _, _, rx = realization
        model = models["none"]
        assoc, links = _all_on_stages(rx, params.noise_w, model)
        assert not link_rates(model, assoc, [links], [200.0]).comp.any()

    def test_partition_counts(self, realization, params, models):
        """Each user joins one pool: its sector's, or its cluster's when CoMP."""
        _, _, rx = realization
        model = models["C3"]
        assoc, links = _all_on_stages(rx, params.noise_w, model)
        rates = link_rates(model, assoc, [links], [0.0])
        comp, pool = rates.comp[0], rates.pool[0]
        assert comp.any() and not comp.all()
        n_per_pool = np.bincount(pool, minlength=rates.n_pools)
        assert np.array_equal(n_per_pool[:model.n_sectors],
                              np.bincount(assoc.sector[0][~comp], minlength=model.n_sectors))
        assert np.array_equal(n_per_pool[model.n_sectors:],
                              np.bincount(links.vc[0][comp], minlength=model.n_vclusters))


class TestSchedulePipeline:
    def test_time_budgets_respected(self, realization, models):
        _, _, rx = realization
        for name, model in models.items():
            for alpha in (1.0, 2.0):
                sol = schedule(model, rx, np.ones(49, bool),
                               SchedulerParams(alpha=alpha, gamma_d_db=0.0))
                sched = ~sol.outage
                # per-sector non-CoMP budget
                nc = sched & ~sol.comp
                sums = np.bincount(sol.assoc_sector[nc], weights=sol.beta[nc],
                                   minlength=model.n_sectors)
                assert np.all(sums <= 1.0 + 1e-9)
                nonempty = np.bincount(sol.assoc_sector[nc],
                                       minlength=model.n_sectors) > 0
                assert sums[nonempty] == pytest.approx(1.0, abs=1e-12)
                # per-cluster CoMP budget
                c = sched & sol.comp
                if c.any():
                    vc = model.vc_of_sector[sol.assoc_sector[c]]
                    csums = np.bincount(vc, weights=sol.beta[c],
                                        minlength=model.n_vclusters)
                    used = np.bincount(vc, minlength=model.n_vclusters) > 0
                    assert csums[used] == pytest.approx(1.0, abs=1e-12)

    def test_theta_zero_for_singletons(self, realization, models):
        _, _, rx = realization
        model = models["C3"]
        sol = schedule(model, rx, np.ones(49, bool),
                       SchedulerParams(alpha=2.0, gamma_d_db=2.0))
        multi = np.zeros(model.n_vclusters, bool)
        multi[model.multi_vc_ids] = True
        assert np.all(sol.theta[~multi] == 0.0)
        assert np.all((sol.theta >= 0) & (sol.theta <= 1))

    def test_lambda_composition(self, realization, models):
        _, _, rx = realization
        model = models["C3"]
        sol = schedule(model, rx, np.ones(49, bool),
                       SchedulerParams(alpha=1.0, gamma_d_db=0.0))
        th = sol.theta[model.vc_of_sector[sol.assoc_sector]]
        # CoMP user rate form: theta * beta * r;  non-CoMP: (1-theta) * beta * r
        assert np.all(sol.lam[sol.outage] == 0.0)
        live_c = sol.comp & ~sol.outage
        if live_c.any():
            assert np.all(sol.lam[live_c] <= th[live_c] * sol.beta[live_c] *
                          16.632e6 * 5.55 + 1e-6)

    def test_comp_rate_hand_value(self):
        # one CoMP user with beta=1 and theta=0.3 at the unit-efficiency rate
        assert 0.3 * 1.0 * 16.632e6 == pytest.approx(4.9896e6, rel=1e-9)

    def test_schedule_against_straightline_reimplementation(self, mcs):
        """Oracle: independent loop-based scheduler on a 2-BS, 3-user instance."""
        noise = 1e-15
        rate_scale = 16.632e6
        sector_bs = np.array([0, 0, 0, 1, 1, 1])
        # virtual clusters: sectors 0 and 3 cooperate, the rest are singletons
        vc_of_sector = np.array([0, 1, 2, 0, 3, 4])
        vc_sizes = np.array([2, 1, 1, 1, 1])
        model = SystemModel(sector_bs=sector_bs, vc_of_sector=vc_of_sector,
                            vc_sizes=vc_sizes, multi_vc_ids=np.array([0]),
                            channel=cb.ChannelParams(noise_w=noise), mcs=mcs)
        assert model.rate_per_bits_symbol == rate_scale
        rx = np.array([
            [5.0e-15, 1.0e-15, 0.2e-15, 4.0e-15, 0.1e-15, 0.1e-15],
            [9.0e-15, 0.5e-15, 0.1e-15, 0.4e-15, 0.2e-15, 0.1e-15],
            [0.3e-15, 0.1e-15, 0.1e-15, 8.0e-15, 1.0e-15, 0.2e-15],
        ])
        alpha, gamma_d_db = 2.0, 3.0
        sol = schedule(model, rx, np.ones(2, bool),
                       SchedulerParams(alpha=alpha, gamma_d_db=gamma_d_db))

        # straight-line reimplementation with plain python
        gamma_d = 10 ** (gamma_d_db / 10)
        users = range(3)
        serving, g_serv = [], []
        for u in users:
            tot = sum(rx[u])
            best = max(range(6), key=lambda s: rx[u, s])
            serving.append(best)
            g_serv.append(rx[u, best] / (tot - rx[u, best] + noise))
        z = [vc_of_sector[serving[u]] == 0 and g_serv[u] <= gamma_d for u in users]
        g_eff = []
        for u in users:
            if z[u]:
                num = rx[u, 0] + rx[u, 3]
                g_eff.append(num / (sum(rx[u]) - num + noise))
            else:
                g_eff.append(g_serv[u])
        r = [float(mcs.efficiency(10 * np.log10(g)) * rate_scale) for g in g_eff]
        # pools
        beta = [0.0] * 3
        comp_users = [u for u in users if z[u] and r[u] > 0]
        t_c = [r[u] ** ((1 - alpha) / alpha) for u in comp_users]
        for i, u in enumerate(comp_users):
            beta[u] = t_c[i] / sum(t_c)
        for s in range(6):
            pool = [u for u in users if not z[u] and serving[u] == s and r[u] > 0]
            t = [r[u] ** ((1 - alpha) / alpha) for u in pool]
            for i, u in enumerate(pool):
                beta[u] = t[i] / sum(t)
        num = sum((r[u] * beta[u]) ** (1 - alpha) for u in comp_users)
        den = sum((r[u] * beta[u]) ** (1 - alpha) for u in users
                  if not z[u] and vc_of_sector[serving[u]] == 0 and r[u] > 0)
        if not comp_users:
            theta0 = 0.0
        elif den == 0:
            theta0 = 1.0
        else:
            delta = (num / den) ** (1 / alpha)
            theta0 = delta / (1 + delta)
        lam = []
        for u in users:
            if r[u] <= 0:
                lam.append(0.0)
            elif z[u]:
                lam.append(theta0 * beta[u] * r[u])
            else:
                th = theta0 if vc_of_sector[serving[u]] == 0 else 0.0
                lam.append((1 - th) * beta[u] * r[u])

        assert list(sol.assoc_sector) == serving
        assert list(sol.comp) == z
        assert sol.theta[0] == pytest.approx(theta0, rel=1e-12)
        assert sol.lam == pytest.approx(np.array(lam), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(*ALPHA_RANGE), seed=st.integers(0, 7),
           density=st.sampled_from([20.0, 160.0]),
           gamma_d_db=st.floats(-6.5, 10.0),
           config=st.sampled_from(["C1", "C2", "C3"]))
    def test_alpha_range_gives_sound_allocations(self, layout, params, models, alpha,
                                                 seed, density, gamma_d_db, config):
        rx = _realization_rx(layout, params, density, seed)
        model = models[config]
        with np.errstate(over="raise", invalid="raise"):
            sol = schedule(model, rx, np.ones(49, bool),
                           SchedulerParams(alpha=alpha, gamma_d_db=gamma_d_db))
            live = sol.lam > 0
            if live.any():
                assert np.isfinite(alpha_fair_throughputs(sol.lam[live], [live.sum()],
                                                          alpha)).all()
        for arr in (sol.beta, sol.theta, sol.lam):
            assert np.all(np.isfinite(arr))
        assert np.all((sol.theta >= 0) & (sol.theta <= 1))
        sched = ~sol.outage
        pool = np.where(sol.comp, model.n_sectors + model.vc_of_sector[sol.assoc_sector],
                        sol.assoc_sector)[sched]
        sums = np.bincount(pool, weights=sol.beta[sched])
        assert sums[np.bincount(pool) > 0] == pytest.approx(1.0, abs=1e-12)
        # every scheduled user keeps a positive rate: nothing underflows to outage
        assert np.all(sol.lam[sched] > 0)

    @pytest.mark.parametrize("alpha", [0.0, 0.01, 0.0999, 10.01, 50.0])
    def test_alpha_outside_range_rejected(self, alpha):
        with pytest.raises(ValueError, match=f"alpha={alpha!r}"):
            SchedulerParams(alpha=alpha, gamma_d_db=0.0)

    def test_scheduler_params_validation(self):
        for alpha in ALPHA_RANGE:
            SchedulerParams(alpha=alpha, gamma_d_db=0.0)
        with pytest.raises(ValueError):
            SchedulerParams(alpha=0.0, gamma_d_db=0.0)
        with pytest.raises(ValueError, match=r"gamma_d_db=99.0 outside the permitted "
                                             r"range \[-6.5, 10.0\]"):
            SchedulerParams(alpha=1.0, gamma_d_db=99.0)
        for gamma_d in DEFAULT_GAMMA_D_RANGE_DB:
            SchedulerParams(alpha=1.0, gamma_d_db=gamma_d)


class TestPresets:
    def test_every_preset_partitions_cluster(self, layout):
        for name in ("none", "C1", "C2", "C3"):
            cfg = cb.preset(name, layout)
            cfg.validate_against(layout)
            sectors = sorted(s for g in cfg.groups for s in g)
            assert sectors == list(range(1, 22))

    def test_c1_groups_share_boresight(self, layout):
        cfg = cb.preset("C1", layout)
        multi = cfg.multi_groups
        assert len(multi) == 3
        for g in multi:
            assert len(g) == 7
            bores = {float(layout.sector_boresight_deg[s - 1]) for s in g}
            assert len(bores) == 1

    def test_c2_structure(self, layout):
        cfg = cb.preset("C2", layout)
        assert len(cfg.multi_groups) == 9
        assert all(len(g) == 2 for g in cfg.multi_groups)
        singles = {g[0] for g in cfg.groups if len(g) == 1}
        assert singles == {1, 15, 17}
        for a, b in cfg.multi_groups:
            assert layout.sector_bs[a - 1] != layout.sector_bs[b - 1]

    def test_c3_published_triples(self, layout):
        cfg = cb.preset("C3", layout)
        assert set(cfg.multi_groups) == {(2, 9, 10), (5, 12, 13), (11, 18, 19)}

    def test_unknown_preset(self, layout):
        with pytest.raises(ValueError):
            cb.preset("C9", layout)

    def test_config_file_roundtrip(self, layout, tmp_path):
        path = tmp_path / "comp.yaml"
        path.write_text("name: pairtest\ngroups:\n- [2, 9]\n- [5, 12]\n")
        cfg = cb.comp_config_from_file(path, layout)
        assert (2, 9) in cfg.multi_groups
        cfg.validate_against(layout)

    def test_config_file_rejects_overlap(self, layout, tmp_path):
        path = tmp_path / "comp.yaml"
        path.write_text("- [2, 9]\n- [9, 12]\n")
        with pytest.raises(ValueError):
            cb.comp_config_from_file(path, layout)
