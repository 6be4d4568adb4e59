import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import compbss  # noqa: F401  (fixtures)

from compbss.metrics import (STAT_FIELDS, MetricSummary, RealizationStats, aggregate,
                             alpha_fair_throughputs, rate_coverage, sinr_coverage)

rate_sets = arrays(np.float64, st.integers(1, 12),
                   elements=st.floats(1e3, 1e9, allow_nan=False))


def throughput_of(lams, alpha):
    """``alpha_fair_throughputs`` of one rate set."""
    return alpha_fair_throughputs(np.asarray(lams, dtype=float), [len(lams)], alpha)[0]


def summary_of(values):
    """``aggregate`` of one metric over the realizations ``values``."""
    return aggregate(np.tile(np.asarray(values, dtype=float),
                             (len(STAT_FIELDS), 1)))["t_alpha_bps"]


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
        s = summary_of([0.4])
        assert s.mean == 0.4
        assert s.ci95 == 0.0
        assert s.n == 1

    def test_identical_realizations_zero_variance(self):
        s = summary_of([2.0, 2.0, 2.0])
        assert s.std == 0.0
        assert s.ci95 == 0.0

    def test_mean_of_two(self):
        s = summary_of([0.2, 0.4])
        assert s.mean == pytest.approx(0.3)
        assert s.n == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summary_of([])

    def test_aggregate_all_fields(self):
        stats = [
            RealizationStats(t_alpha_bps=1e6, sinr_coverage=0.9, rate_coverage=0.8,
                             energy_saving_pct=0.0, n_users=50, n_outage=1,
                             theta_mean=0.2),
            RealizationStats(t_alpha_bps=2e6, sinr_coverage=1.0, rate_coverage=0.9,
                             energy_saving_pct=0.0, n_users=60, n_outage=0,
                             theta_mean=0.4),
        ]
        summ = aggregate(np.array([[getattr(s, name) for s in stats]
                                   for name in STAT_FIELDS]))
        assert summ["t_alpha_bps"].mean == pytest.approx(1.5e6)
        assert summ["sinr_coverage"].mean == pytest.approx(0.95)
        assert summ["theta_mean"].mean == pytest.approx(0.3)
        assert isinstance(summ["n_users"], MetricSummary)
