import dataclasses
import re

import numpy as np
import pytest

import compbss as cb
from compbss.bss import (BssPattern, all_patterns, default_pattern_list,
                         evaluate_pattern, exhaustive_oracle, heuristic_select,
                         patterns_from_file, realization_stats, sector_masks,
                         sort_patterns, validate_pattern_list)
from compbss.metrics import STAT_FIELDS
from compbss.scheduler import SchedulerParams, cluster_members, strongest_sectors

from helpers import pattern_sector_masks, patterns_to_file


@pytest.fixture(scope="module")
def c3_setup(layout, params, models):
    drop = cb.drop_users(layout, 60.0, np.random.SeedSequence(0, spawn_key=(0,)))
    gain_db = cb.build_gain_matrix(layout, drop, params,
                                   np.random.SeedSequence(0, spawn_key=(1,)))
    model = models["C3"]
    vq = cb.center_cluster_users(model, strongest_sectors(gain_db, params),
                                 layout.center_cluster_sector_ids - 1)
    return model, gain_db, vq, layout.center_cluster_bs_ids - 1


SP = SchedulerParams(alpha=1.0, gamma_d_db=0.0)


def _same_fields(a, b) -> bool:
    """Equal dataclasses, field by field; arrays must match in shape, dtype
    and every bit."""
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same_fields(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return a == b


class TestPattern:
    def test_energy_saving_values(self):
        assert BssPattern.from_off_ids((1, 2, 3)).energy_saving_pct == pytest.approx(
            300.0 / 7.0, rel=1e-12)
        assert BssPattern.from_off_ids((1, 2, 3)).energy_saving_pct == pytest.approx(
            42.857, abs=5e-4)
        assert BssPattern.from_off_ids(()).energy_saving_pct == 0.0
        assert BssPattern.from_off_ids((5,)).energy_saving_pct == pytest.approx(
            100.0 / 7.0, rel=1e-12)

    def test_all_off_rejected(self):
        with pytest.raises(ValueError):
            BssPattern(off_flags=(1,) * 7)

    def test_bad_flag_rejected(self):
        with pytest.raises(ValueError):
            BssPattern(off_flags=(0, 2, 0, 0, 0, 0, 0))

    def test_auto_label(self):
        assert BssPattern.from_off_ids((1, 4)).label == "Z2/7"

    def test_sorting_contract(self):
        pats = sort_patterns([BssPattern.from_off_ids(o) for o in
                              [(), (1,), (1, 2), (2,), (1, 2, 3)]])
        a1s = [p.a1 for p in pats]
        assert a1s == sorted(a1s, reverse=True)
        validate_pattern_list(pats, 7)

    def test_validate_rejects_unsorted(self):
        pats = [BssPattern.from_off_ids(()), BssPattern.from_off_ids((1,))]
        with pytest.raises(ValueError):
            validate_pattern_list(pats, 7)

    def test_validate_requires_all_on_fallback(self):
        with pytest.raises(ValueError):
            validate_pattern_list([BssPattern.from_off_ids((1,))], 7)

    def test_default_list_is_nested_chain(self):
        pats = default_pattern_list()
        assert [p.a1 for p in pats] == [4, 3, 2, 1, 0]
        offs = [set(p.off_bs_ids) for p in pats]
        for bigger, smaller in zip(offs, offs[1:]):
            assert smaller < bigger
        validate_pattern_list(pats, 7)

    def test_all_patterns_enumeration(self):
        pats = all_patterns(7)
        assert len(pats) == 127
        assert len({p.off_flags for p in pats}) == 127
        validate_pattern_list(pats, 7)
        # within an energy level the bit value ascends
        for a, b in zip(pats, pats[1:]):
            if a.a1 == b.a1:
                assert a.bit_value < b.bit_value

    @pytest.mark.parametrize("patterns", [default_pattern_list(), all_patterns(7)],
                             ids=["shipped", "all"])
    def test_sector_masks_equal_the_per_pattern_oracle(self, layout, patterns):
        got = sector_masks(layout.sector_bs, layout.center_cluster_bs_ids - 1, patterns)
        assert got.shape == (len(patterns), layout.n_sectors) and got.dtype == bool
        assert np.array_equal(got, pattern_sector_masks(layout, patterns))

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "patterns.csv"
        pats = default_pattern_list()
        patterns_to_file(pats, path)
        loaded = patterns_from_file(path)
        assert [p.off_flags for p in loaded] == [p.off_flags for p in pats]
        assert [p.label for p in loaded] == [p.label for p in pats]


class TestEvaluate:
    def test_zero_threshold_always_feasible(self, c3_setup):
        model, gain_db, vq, cb_idx = c3_setup
        for pattern in default_pattern_list():
            ev = evaluate_pattern(model, gain_db, vq, cb_idx, pattern, SP, 0.0)
            assert ev.feasible

    def test_unreachable_threshold_infeasible(self, c3_setup):
        model, gain_db, vq, cb_idx = c3_setup
        for pattern in default_pattern_list():
            ev = evaluate_pattern(model, gain_db, vq, cb_idx, pattern, SP, 1e12)
            assert not ev.feasible

    def test_feasibility_monotone_in_threshold(self, c3_setup):
        model, gain_db, vq, cb_idx = c3_setup
        pattern = default_pattern_list()[2]
        ev = evaluate_pattern(model, gain_db, vq, cb_idx, pattern, SP, 0.0)
        feas = [evaluate_pattern(model, gain_db, vq, cb_idx, pattern, SP, r).feasible
                for r in [0.0, ev.min_rate_bps, ev.min_rate_bps + 1.0, 1e12]]
        assert feas == sorted(feas, reverse=True)

    def test_interference_never_grows_when_bs_sleeps(self, c3_setup, params):
        model, gain_db, vq, cb_idx = c3_setup
        rx = cb.received_power_w(gain_db, params)
        act1 = np.ones(49, bool)
        act1[cb_idx[0]] = False
        act2 = act1.copy()
        act2[cb_idx[2]] = False
        for act_few, act_more in [(act1, act2)]:
            sec_few = act_few[model.sector_bs]
            sec_more = act_more[model.sector_bs]
            interf_few = rx[:, sec_few].sum(1)[:, None] - rx
            interf_more = rx[:, sec_more].sum(1)[:, None] - rx
            live = sec_more[None, :] & np.ones((rx.shape[0], 1), bool)
            assert np.all(interf_more[live] <= interf_few[live] + 1e-20)

    def test_empty_metric_set_propagates(self, c3_setup):
        model, gain_db, _, cb_idx = c3_setup
        with pytest.raises(ValueError):
            evaluate_pattern(model, gain_db, np.zeros(gain_db.shape[0], bool), cb_idx,
                             default_pattern_list()[0], SP, 0.0)

    @pytest.mark.parametrize("off_flags", [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 1)])
    def test_flag_count_other_than_the_cluster_is_refused(self, c3_setup, off_flags):
        model, gain_db, vq, cb_idx = c3_setup
        pattern = BssPattern(off_flags=off_flags)
        shown = (f"pattern {pattern.describe()} has {len(off_flags)} off-flags; "
                 f"the cluster has 7 BSs")
        with pytest.raises(ValueError, match=re.escape(shown)):
            evaluate_pattern(model, gain_db, vq, cb_idx, pattern, SP, 0.0)


class TestHeuristic:
    def test_early_exit_on_first_feasible(self, c3_setup):
        model, gain_db, vq, cb_idx = c3_setup
        res = heuristic_select(model, gain_db, vq, cb_idx, default_pattern_list(), SP, 0.0)
        assert res.patterns_evaluated == 1
        assert res.pattern.a1 == 4
        assert res.feasible

    def test_only_all_on_feasible(self, c3_setup):
        """Cell-edge user forces every sleep pattern out; all-on just clears R."""
        model, gain_db, vq, cb_idx = c3_setup
        pats = default_pattern_list()
        mins = [evaluate_pattern(model, gain_db, vq, cb_idx, p, SP, 0.0).min_rate_bps
                for p in pats]
        assert mins[-1] > 0 and max(mins[:-1]) < mins[-1]
        r_mid = (max(mins[:-1]) + mins[-1]) / 2
        res = heuristic_select(model, gain_db, vq, cb_idx, pats, SP, r_mid)
        assert res.pattern.a1 == 0
        assert res.feasible
        assert res.patterns_evaluated == len(pats)

    def test_infeasible_fallback_flagged(self, c3_setup):
        model, gain_db, vq, cb_idx = c3_setup
        res = heuristic_select(model, gain_db, vq, cb_idx, default_pattern_list(), SP, 1e12)
        assert res.pattern.a1 == 0
        assert not res.feasible

    def test_empty_pattern_list_rejected(self, c3_setup):
        model, gain_db, vq, cb_idx = c3_setup
        with pytest.raises(ValueError):
            heuristic_select(model, gain_db, vq, cb_idx, [], SP, 0.0)

    @pytest.mark.parametrize("threshold", [0.0, 2e5, 1e12])
    def test_given_strongest_sectors_keep_the_result(self, c3_setup, params, threshold):
        """The draw's strongest sectors passed in, alone and with the patterns'
        sector masks and the model's cluster-member tables, give the result
        that taking them inside gives, bit for bit."""
        model, gain_db, vq, cb_idx = c3_setup
        pats = default_pattern_list()
        want = heuristic_select(model, gain_db, vq, cb_idx, pats, SP, threshold)
        strongest = strongest_sectors(gain_db, params)
        got = heuristic_select(model, gain_db, vq, cb_idx, pats, SP, threshold,
                               strongest=strongest)
        assert _same_fields(got, want)
        active = sector_masks(model.sector_bs, cb_idx, pats)
        got = heuristic_select(model, gain_db, vq, cb_idx, pats, SP, threshold,
                               strongest=strongest, active_sectors=active,
                               members=cluster_members(model, active))
        assert _same_fields(got, want)

    def test_matches_oracle_on_random_drops(self, layout, params, models):
        model = models["C3"]
        center_idx = layout.center_cluster_sector_ids - 1
        cb_idx = layout.center_cluster_bs_ids - 1
        full = all_patterns(7)
        checked = 0
        for seed in range(8):
            drop = cb.drop_users(layout, 60.0, np.random.SeedSequence(seed, spawn_key=(0,)))
            gain_db = cb.build_gain_matrix(layout, drop, params,
                                           np.random.SeedSequence(seed, spawn_key=(1,)))
            vq = cb.center_cluster_users(model, strongest_sectors(gain_db, params), center_idx)
            if not vq.any():
                continue
            h = heuristic_select(model, gain_db, vq, cb_idx, full, SP, 0.15e6)
            o = exhaustive_oracle(model, gain_db, vq, cb_idx, SP, 0.15e6)
            assert h.pattern.off_flags == o.pattern.off_flags
            assert h.feasible == o.feasible
            checked += 1
        assert checked >= 5


class TestOracle:
    def test_zero_threshold_max_switch_off(self, c3_setup):
        model, gain_db, vq, cb_idx = c3_setup
        res = exhaustive_oracle(model, gain_db, vq, cb_idx, SP, 0.0)
        assert res.pattern.a1 == 6
        assert res.feasible

    def test_enumeration_bound(self, c3_setup):
        model, gain_db, vq, _ = c3_setup
        with pytest.raises(ValueError):
            exhaustive_oracle(model, gain_db, vq, np.arange(11), SP, 0.0)

    def test_oracle_at_least_as_aggressive_as_restricted_heuristic(self, c3_setup):
        model, gain_db, vq, cb_idx = c3_setup
        r = 0.1e6
        h = heuristic_select(model, gain_db, vq, cb_idx, default_pattern_list(), SP, r)
        o = exhaustive_oracle(model, gain_db, vq, cb_idx, SP, r)
        if h.feasible:
            assert o.pattern.a1 >= h.pattern.a1


class TestResultExport:
    def test_realization_stats_fields(self, c3_setup):
        model, gain_db, vq, cb_idx = c3_setup
        ev = evaluate_pattern(model, gain_db, vq, cb_idx, default_pattern_list()[-1], SP, 0.0)
        st = dict(zip(STAT_FIELDS, realization_stats(
            ev.solution, vq[ev.users], [ev.pattern.energy_saving_pct],
            [model.multi_vc_ids], 0.2e6, 1.0)[0]))
        assert st["n_users"] == int(vq.sum())
        assert 0.0 <= st["sinr_coverage"] <= 1.0
        assert 0.0 <= st["rate_coverage"] <= 1.0
        assert st["energy_saving_pct"] == 0.0
        assert st["t_alpha_bps"] > 0
