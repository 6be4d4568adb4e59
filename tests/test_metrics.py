import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import compbss  # noqa: F401  (fixtures)

from compbss.campaign import CampaignConfig, _drop_records, build_context
from compbss.channel import MCS_TABLE
from compbss.metrics import (SINR_COVERAGE_THRESHOLD_DB, STAT_FIELDS, aggregate,
                             alpha_fair_throughputs, rate_coverage, sinr_coverage)
from compbss.scheduler import DEFAULT_GAMMA_D_RANGE_DB

rate_sets = arrays(np.float64, st.integers(1, 12),
                   elements=st.floats(1e3, 1e9, allow_nan=False))


def throughput_of(lams, alpha):
    """``alpha_fair_throughputs`` of one rate set."""
    return alpha_fair_throughputs(np.asarray(lams, dtype=float), [len(lams)], alpha)[0]


def summary_of(values):
    """``aggregate`` of one metric over the realizations ``values``: its
    mean, std and ci95."""
    return aggregate(np.tile(np.asarray(values, dtype=float), (len(STAT_FIELDS), 1)))[:, 0]


class TestThroughput:
    def test_geometric_mean(self):
        assert throughput_of(np.array([1.0, 4.0]), 1.0) == pytest.approx(2.0)

    def test_harmonic_mean(self):
        assert throughput_of(np.array([1.0, 4.0]), 2.0) == pytest.approx(1.6)

    def test_degenerate_equal_rates(self):
        for alpha in (0.5, 1.0, 2.0, 3.0):
            assert throughput_of(np.full(5, 7e6), alpha) == pytest.approx(
                7e6, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(lams=rate_sets, alpha=st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    def test_permutation_invariant(self, lams, alpha):
        shuffled = lams[::-1].copy()
        assert throughput_of(lams, alpha) == pytest.approx(
            throughput_of(shuffled, alpha), rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(lams=rate_sets, c=st.floats(0.1, 10.0))
    def test_geometric_mean_homogeneous(self, lams, c):
        assert throughput_of(c * lams, 1.0) == pytest.approx(
            c * throughput_of(lams, 1.0), rel=1e-9)


class TestCoverage:
    def test_sinr_coverage_floor(self):
        gam = 10 ** (np.array([-7.0, -6.5, 0.0, 10.0]) / 10)
        assert sinr_coverage(gam) == pytest.approx(0.75)

    def test_rate_coverage_zero_threshold(self):
        assert rate_coverage(np.array([0.0, 1e6]), 0.0) == 1.0

    def test_rate_coverage_infinite_threshold(self):
        assert rate_coverage(np.array([1e6, 1e9]), 1e15) == 0.0

    def test_empty_user_sets_cover_nothing(self):
        assert sinr_coverage(np.empty(0)) == 0.0
        assert np.array_equal(sinr_coverage(np.empty((3, 0))), np.zeros(3))
        assert np.array_equal(rate_coverage(np.empty((3, 0)), 1e5), np.zeros(3))
        thresholds = np.array([1e5, 2e5])[:, None]
        assert np.array_equal(rate_coverage(np.empty((3, 1, 0)), thresholds),
                              np.zeros((3, 2)))

    @settings(max_examples=60, deadline=None)
    @given(lams=rate_sets, a=st.floats(0, 1e9), b=st.floats(0, 1e9))
    def test_rate_coverage_nonincreasing(self, lams, a, b):
        lo, hi = sorted((a, b))
        assert rate_coverage(lams, lo) >= rate_coverage(lams, hi)

    def test_coverage_and_gamma_d_floors_are_the_mcs_floor(self):
        floor = MCS_TABLE.thresholds_db[0]
        assert SINR_COVERAGE_THRESHOLD_DB == floor and DEFAULT_GAMMA_D_RANGE_DB[0] == floor

    def test_sinr_coverage_is_the_share_out_of_outage(self):
        """With one MCS table a user clears the coverage floor exactly when its
        link rate is positive, so in every realization the SINR coverage is
        the share of metric-set users that are not in outage."""
        ctx = build_context(CampaignConfig(
            densities_per_km2=[20.0, 160.0], n_drops=4, n_fading=5,
            alphas=[0.5, 1.0, 3.0], gamma_ds_db=[-6.5, -1.0, 10.0],
            comp_configs=["none", "C1", "C2", "C3"], master_seed=5))
        tasks = [(mu, d) for mu in ctx.cfg.densities_per_km2 for d in range(ctx.cfg.n_drops)]
        values = np.concatenate([res[0] for res in _drop_records(ctx, tasks)])
        coverage, n_users, n_outage = (values[..., STAT_FIELDS.index(name)] for name in
                                       ("sinr_coverage", "n_users", "n_outage"))
        assert n_users.size == 7200 and n_outage.any()
        assert np.array_equal(coverage, (n_users - n_outage) / n_users)


class TestCoverageSuperposition:
    def test_c1_never_below_no_comp_on_same_realization(self, realization, models):
        """Joining sectors only adds received power, so the all-sector
        configuration covers at least every user the bare system covers."""
        from compbss.scheduler import SchedulerParams, schedule

        _, _, rx = realization
        sp = SchedulerParams(alpha=1.0, gamma_d_db=0.0)
        mask = np.ones(49, dtype=bool)
        sol_none = schedule(models["none"], rx, mask, sp)
        sol_c1 = schedule(models["C1"], rx, mask, sp)
        assert np.all(sol_c1.coverage_sinr >= sol_none.coverage_sinr - 1e-18)
        assert sinr_coverage(sol_c1.coverage_sinr) >= sinr_coverage(sol_none.coverage_sinr)


class TestAggregate:
    def test_single_realization_degenerate_ci(self):
        mean, std, ci95 = summary_of([0.4])
        assert mean == 0.4
        assert std == ci95 == 0.0

    def test_identical_realizations_zero_variance(self):
        _, std, ci95 = summary_of([2.0, 2.0, 2.0])
        assert std == 0.0
        assert ci95 == 0.0

    def test_mean_of_two(self):
        mean, std, _ = summary_of([0.2, 0.4])
        assert mean == pytest.approx(0.3)
        assert std == pytest.approx(0.02 ** 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summary_of([])

    def test_aggregate_all_fields(self):
        # two realizations, one row per metric in STAT_FIELDS order
        values = np.array([[1e6, 2e6], [0.9, 1.0], [0.8, 0.9], [0.0, 0.0], [0.2, 0.4],
                           [50, 60], [1, 0]])
        summ = aggregate(values)
        assert summ.shape == (3, len(STAT_FIELDS))
        mean = dict(zip(STAT_FIELDS, summ[0]))
        assert mean["t_alpha_bps"] == pytest.approx(1.5e6)
        assert mean["sinr_coverage"] == pytest.approx(0.95)
        assert mean["theta_mean"] == pytest.approx(0.3)
        assert mean["n_users"] == 55.0
