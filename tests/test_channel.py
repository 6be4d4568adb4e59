import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compbss as cb
from compbss.channel import (MCS_TABLE, NOISE_W, NUM_SUBCHANNELS, P_BS_DBM,
                             PENETRATION_LOSS_DB, PER_SUBCHANNEL_POWER_W,
                             RATE_PER_BITS_SYMBOL, USER_ANTENNA_GAIN_DBI,
                             _directivity_gain_in_place, _link_budget_in_place,
                             build_gain_matrix, path_loss_db, received_power_w)
from compbss.scheduler import (SystemModel, associate, cluster_links, cluster_members,
                               link_rates)

from helpers import linear_serving, same_bits

MCS_THRESHOLDS = [-6.5, -4.0, -2.6, -1.0, 1.0, 3.0, 6.6, 10.0,
                  11.4, 11.8, 13.0, 13.8, 15.6, 16.8, 17.6]
MCS_EFFICIENCY = [0.15, 0.23, 0.38, 0.60, 0.88, 1.18, 1.48, 1.91,
                  2.41, 2.73, 3.32, 3.90, 4.52, 5.12, 5.55]


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss_db(1000.0) == pytest.approx(136.8245, rel=1e-9)

    def test_half_kilometre(self):
        # 136.8245 + 39.086*(log10(500) - 3)
        assert path_loss_db(500.0) == pytest.approx(136.8245 + 39.086 * (np.log10(500) - 3))
        assert path_loss_db(500.0) == pytest.approx(125.058, abs=5e-4)

    def test_hundred_metres(self):
        assert path_loss_db(100.0) == pytest.approx(97.7385, rel=1e-9)


def _floats(x):
    """A fresh float64 array of ``x`` for an in-place kernel to write over."""
    return np.array(x, dtype=float)


def _directivity(offset_deg):
    return _directivity_gain_in_place(_floats(offset_deg))


def _gain(pl_db, sector_gain_db, shadow_db):
    """The drop stage's link budget, shadowed as a fading draw shadows it and
    turned into a linear gain: the received power over P_s."""
    budget = _link_budget_in_place(_floats(pl_db), sector_gain_db)
    return received_power_w(_floats(budget - _floats(shadow_db))) / PER_SUBCHANNEL_POWER_W


class TestDirectivity:
    def test_boresight(self):
        assert _directivity(0.0) == pytest.approx(25.0)

    def test_half_power_angle(self):
        assert _directivity(70.0) == pytest.approx(13.0)
        assert _directivity(-70.0) == pytest.approx(13.0)

    def test_back_lobe_clamped(self):
        assert _directivity(180.0) == pytest.approx(5.0)
        assert _directivity(-180.0) == pytest.approx(5.0)

    def test_kernel_has_the_bits_of_the_expression(self):
        x = np.random.default_rng(2).uniform(-180.0, 180.0, size=(50, 30))
        assert same_bits(_directivity(x), 25.0 - np.minimum(12.0 * (x / 70.0) ** 2, 20.0))


class TestChannelGain:
    def test_identity(self):
        # a path "gain" of 20 dB cancels the penetration loss
        assert _gain(-PENETRATION_LOSS_DB, 0.0, 0.0) == pytest.approx(1.0)

    def test_hand_value(self):
        g = _gain(100.0, 25.0, 0.0)
        assert g == pytest.approx(10 ** (-9.5), rel=1e-12)

    def test_kernels_have_the_bits_of_the_expressions(self):
        rng = np.random.default_rng(2)
        pl, shadow = rng.uniform(60.0, 160.0, size=(2, 50, 30))
        gain = rng.uniform(5.0, 25.0, size=30)
        budget = _link_budget_in_place(pl.copy(), gain)
        assert same_bits(budget, -pl + gain + USER_ANTENNA_GAIN_DBI - PENETRATION_LOSS_DB)
        assert same_bits(received_power_w(budget - shadow),
                         PER_SUBCHANNEL_POWER_W * 10.0 ** ((budget - shadow) / 10.0))

    def test_shadow_determinism(self, layout):
        drop = cb.drop_users(layout, 20.0, 5)
        g1 = build_gain_matrix(layout, drop, 99)
        g2 = build_gain_matrix(layout, drop, 99)
        assert np.array_equal(g1, g2)
        g3 = build_gain_matrix(layout, drop, 100)
        assert not np.array_equal(g1, g3)

    def test_gains_positive_finite(self, layout):
        """Finite gains in dB, and positive, finite linear powers."""
        drop = cb.drop_users(layout, 20.0, 6)
        g = build_gain_matrix(layout, drop, 1)
        assert np.all(np.isfinite(g))
        assert g.shape == (drop.n_users, layout.n_sectors)
        rx = received_power_w(g)
        assert np.all(rx > 0)
        assert np.all(np.isfinite(rx))


class TestPower:
    def test_table_operating_point(self):
        assert PER_SUBCHANNEL_POWER_W == pytest.approx(10 ** 1.6 / 297.0, rel=1e-12)
        assert PER_SUBCHANNEL_POWER_W == pytest.approx(0.13404, abs=5e-6)

    def test_bs_power_budget_conserved(self):
        total = PER_SUBCHANNEL_POWER_W * 3 * NUM_SUBCHANNELS
        assert total == pytest.approx(10 ** ((P_BS_DBM - 30) / 10), rel=1e-9)

    def test_derived_constants_keep_their_bits(self):
        """The rate scale and the power per subchannel have the bits that
        every golden output was computed with."""
        assert RATE_PER_BITS_SYMBOL == 16632000.0
        assert PER_SUBCHANNEL_POWER_W == 10 ** 1.6 / 297


def _associate(rx, active):
    """``associate`` of every user under each row of the (P, S) masks."""
    act = np.atleast_2d(active)
    return associate(rx, act, linear_serving(rx, act))


def _model(vc_of_sector):
    """A field of one sector per BS, grouped into virtual clusters by
    ``vc_of_sector``."""
    sizes = np.bincount(vc_of_sector)
    return SystemModel(sector_bs=np.arange(vc_of_sector.size), vc_of_sector=vc_of_sector,
                       vc_sizes=sizes, multi_vc_ids=np.flatnonzero(sizes > 1))


def _stages(rx, active, model):
    """``associate`` and ``cluster_links`` of every user under the masks."""
    assoc = _associate(rx, active)
    return assoc, cluster_links(model, rx, assoc,
                                cluster_members(model, assoc.active_sector))


class TestSinr:
    """Serving SINR of ``associate`` and joint SINR of ``cluster_links``."""

    def test_unit_snr(self):
        rx = np.full((2, 1), NOISE_W)
        assert _associate(rx, [True]).sinr[0] == pytest.approx(1.0)

    def test_switching_interferer_off_increases_sinr(self):
        rx = np.array([[1.0, 0.5, 0.2], [0.1, 0.2, 0.4]]) * (NOISE_W / 1e-3)
        g = _associate(rx, [[True, True, True], [True, False, True]]).sinr
        assert g[1, 0] > g[0, 0]

    def test_matrix_matches_bruteforce_resummation(self, realization, layout):
        """Oracle: direct interference sum with plain loops, all sectors on and
        with the centre cluster's sectors 10-12 asleep."""
        _, _, rx = realization
        sub = rx[:5]
        act = np.ones((2, layout.n_sectors), bool)
        act[1, 9:12] = False
        assoc = _associate(sub, act)
        for p in range(2):
            for u in range(5):
                s = assoc.sector[p, u]
                assert act[p, s]
                interf = sum(sub[u, t] for t in range(layout.n_sectors)
                             if t != s and act[p, t])
                expect = sub[u, s] / (interf + NOISE_W)
                assert assoc.sinr[p, u] == pytest.approx(expect, rel=1e-9)

    def test_matrix_masks_inactive(self):
        rx = np.array([[1.0, 3.0, 2.0], [1.0, 1.0, 2.0]]) * (NOISE_W / 1e-3)
        assoc = _associate(rx, [True, False, True])
        assert assoc.sector[0, 0] == 2
        assert assoc.sinr[0, 0] == pytest.approx(2.0 / (1.0 + 1e-3))

    def test_comp_power_superposition(self):
        # two equal links at 0 dB SNR, no interference: joint SINR 3.01 dB
        rx = np.full((2, 2), NOISE_W)
        _, links = _stages(rx, [True, True], _model(np.array([0, 0])))
        assert 10 * np.log10(links.joint_sinr[0, 0]) == pytest.approx(3.0103, abs=1e-3)

    def test_comp_singleton_equals_single(self, realization):
        """A cluster with its serving sector as the only active member gives
        the serving SINR."""
        _, _, rx = realization
        sub = rx[:, :6]
        model = _model(np.array([0, 0, 1, 2, 3, 4]))
        assoc, links = _stages(sub, [True, False, True, True, True, True], model)
        served = assoc.sector[0] == 0
        assert served.any()
        assert np.array_equal(links.joint_sinr[0, served], assoc.sinr[0, served])

    def test_comp_beats_single_when_joining_dominant_interferers(self, realization,
                                                                 models):
        _, _, rx = realization
        assoc, links = _stages(rx, np.ones(rx.shape[1], bool), models["C1"])
        cap = links.capable
        assert cap.any()
        assert np.all(links.joint_sinr[cap] >= assoc.sinr[cap] - 1e-15)


class TestMcs:
    def test_table_bit_exact(self):
        for thr, eff in zip(MCS_THRESHOLDS, MCS_EFFICIENCY):
            assert MCS_TABLE.efficiency(thr) == eff

    def test_outage_below_floor(self):
        assert MCS_TABLE.efficiency(-7.0) == 0.0
        assert MCS_TABLE.efficiency(-6.5000001) == 0.0

    def test_between_thresholds_takes_lower(self):
        assert MCS_TABLE.efficiency(0.0) == 0.60
        assert MCS_TABLE.efficiency(17.5999) == 5.12
        assert MCS_TABLE.efficiency(50.0) == 5.55

    def test_table_strictly_increasing(self):
        for column in (MCS_TABLE.thresholds_db, MCS_TABLE.bits_per_symbol):
            assert column.dtype == np.float64 and column.shape == (15,)
            assert np.all(np.diff(column) > 0)

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(-30, 40), b=st.floats(-30, 40))
    def test_monotone_in_sinr(self, a, b):
        lo, hi = sorted((a, b))
        assert MCS_TABLE.efficiency(lo) <= MCS_TABLE.efficiency(hi)


class TestLinkRate:
    """Link rate = MCS efficiency x ``RATE_PER_BITS_SYMBOL``, as ``link_rates``
    computes it."""

    def test_unit_efficiency(self):
        assert 1.0 * RATE_PER_BITS_SYMBOL == pytest.approx(16.632e6, rel=1e-9)

    def test_lowest_mcs(self):
        assert 0.15 * RATE_PER_BITS_SYMBOL == pytest.approx(2.4948e6, rel=1e-9)

    def test_zero(self):
        """Below the MCS floor ``link_rates`` gives rate 0 and outage."""
        rx = np.array([[1e-20, 1e-21], [1e-12, 1e-21]]) * (NOISE_W / 1e-15)
        model = _model(np.array([0, 1]))
        assoc, links = _stages(rx, [True, True], model)
        rates = link_rates(model, assoc, [links], [-1.0])
        assert rates.rate[0, 0] == 0.0 and rates.outage[0, 0]
        assert rates.rate[0, 1] == 5.55 * RATE_PER_BITS_SYMBOL
        assert not rates.outage[0, 1]


def test_received_power_shape(realization):
    drop, gain_db, rx = realization
    assert rx.shape == gain_db.shape
    assert np.allclose(rx, PER_SUBCHANNEL_POWER_W * 10.0 ** (gain_db / 10.0))
    rows = np.array([5, 0, 5])
    assert same_bits(received_power_w(gain_db, rows=rows), rx[rows])
