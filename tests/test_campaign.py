import concurrent.futures
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

from compbss import campaign, channel, drop_users
from compbss.bss import default_pattern_list, heuristic_pick, heuristic_select, realization_stats
from compbss.campaign import (CampaignConfig, ConfigError, MissingAxisError,
                              RESULT_COLUMNS, TRAFFIC_COLUMNS, _mu_key, _realizations, _seed_key,
                              build_context, emit_figure_data, run_campaign,
                              run_traffic_profile, write_rows_csv)
from compbss.channel import build_gain_matrix
from compbss.metrics import STAT_FIELDS
from compbss.scheduler import center_cluster_users, draw_rates, strongest_sectors
from compbss.cli import main as cli_main

from helpers import patterns_to_file

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# The figure each shipped campaign config feeds
CONFIG_FIGURES = {"campaign_desk": "fig8", "fig4_theta_sweep": "fig4",
                  "fig8_tradeoffs": "fig8", "fig9_rate_coverage": "fig9",
                  "fig10_rate_coverage": "fig10", "traffic_day": "fig11"}

def tiny_config(**kw):
    base = dict(
        densities_per_km2=[60.0], n_drops=2, n_fading=1, alphas=[1.0],
        gamma_ds_db=[-1.0], rate_thresholds_bps=[2e5], comp_configs=["C3"],
        master_seed=11, output="unused.csv",
    )
    base.update(kw)
    return CampaignConfig(**base)


class TestConfig:
    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="bogus"):
            CampaignConfig.from_dict({"bogus": 1}, source="test.yaml")

    def test_rejects_empty_sweeps(self):
        with pytest.raises(ConfigError):
            tiny_config(alphas=[])

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            tiny_config(n_drops=0)

    def test_rejects_gamma_outside_range(self):
        with pytest.raises(ConfigError, match=r"gamma_ds_db entry: gamma_d_db=50.0 outside "
                                              r"the permitted range \[-6.5, 10.0\]"):
            tiny_config(gamma_ds_db=[50.0])
        tiny_config(gamma_ds_db=[-6.5, 10.0])

    @pytest.mark.parametrize("key, value, shown", [
        ("alphas", ["2"], "'2'"), ("gamma_ds_db", [None], "None"),
        ("densities_per_km2", [True], "True"),
        ("rate_thresholds_bps", [float("nan")], "nan"),
        ("traffic_profile", [20, "40"], "'40'"), ("alphas", 2.0, "2.0"),
        ("n_drops", 2.5, "2.5"), ("n_fading", "3", "'3'"), ("master_seed", 1.5, "1.5"),
        ("alphas", [1.0, 0.0], "0.0"), ("alphas", [1.0, 50.0], "50.0"),
        ("alphas", [0.01], "0.01"), ("master_seed", -1, "-1"),
        ("alphas", [1, 2.0, 1.0], "repeats"), ("gamma_ds_db", [0.0, 0.0], "repeats"),
        ("densities_per_km2", [60.0, 60], "repeats"),
        ("rate_thresholds_bps", [2e5, 2e5], "repeats"),
        ("densities_per_km2", [-5], "-5"), ("densities_per_km2", [60.0, 0], "0"),
        ("traffic_profile", [-20], "-20"), ("traffic_profile", [20, 0], "0"),
        ("rate_thresholds_bps", [-1], "-1"), ("inter_site_distance_m", 0, "0"),
        ("inter_site_distance_m", float("inf"), "inf"), ("output", 5, "5"),
        ("output", "", "''"), ("pattern_file", 3, "3"),
        ("comp_configs", ["C3", "C3"], "repeats"), ("traffic_profile", [], "[]"),
        ("inter_site_distance_m", 1.0e-200, "1e-200"), ("inter_site_distance_m", 0.5, "0.5"),
        ("inter_site_distance_m", 1.0e+155, "1e+155"),
        ("inter_site_distance_m", 1.7e+308, "1.7e+308"),
    ])
    def test_rejects_bad_sweep_values(self, key, value, shown):
        with pytest.raises(ConfigError) as info:
            CampaignConfig.from_dict({key: value}, source="test.yaml")
        assert key in str(info.value) and shown in str(info.value)

    def test_rejects_densities_sharing_a_seed(self):
        with pytest.raises(ConfigError, match=r"60\.0001 and 60\.0002"):
            tiny_config(densities_per_km2=[60.0001, 60.0002])
        tiny_config(densities_per_km2=[60.0, 60.001])

    @pytest.mark.parametrize("raw, shown", [
        ({"inter_site_distance_m": 1.0e7}, "densities_per_km2 entry 60.0 at "
                                           "inter_site_distance_m=10000000.0 expects 2.546e+11"),
        ({"densities_per_km2": [60.0, 1000.0]}, "densities_per_km2 entry 1000.0 at "
                                                "inter_site_distance_m=500.0 expects 1.061e+04"),
        ({"traffic_profile": [20.0, 160.0], "inter_site_distance_m": 1732.05},
         "traffic_profile entry 160.0 at inter_site_distance_m=1732.05 expects 2.037e+04"),
    ])
    def test_rejects_absurd_drop_sizes(self, raw, shown):
        """Density x drop-region area above the stated count is refused at
        load time; the config is only loaded, nothing is allocated."""
        with pytest.raises(ConfigError, match="above the limit of 10,000") as info:
            CampaignConfig.from_dict(raw, source="test.yaml")
        assert shown in str(info.value)

    def test_accepts_drop_sizes_up_to_the_limit(self):
        from compbss.campaign import MAX_USERS_PER_DROP
        from compbss.geometry import drop_region_area_m2
        densest = MAX_USERS_PER_DROP / (drop_region_area_m2(500.0) / 1e6)
        tiny_config(densities_per_km2=[densest * (1 - 1e-12)],
                    traffic_profile=[20.0, densest * (1 - 1e-12)])
        with pytest.raises(ConfigError):
            tiny_config(densities_per_km2=[densest * (1 + 1e-12)])

    def test_from_file(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("n_drops: 3\nn_fading: 2\ncomp_configs: [C1]\n")
        cfg = CampaignConfig.from_file(p)
        assert cfg.n_drops == 3 and cfg.comp_configs == ["C1"]

    def test_from_file_names_unknown_key_location(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("no_such_key: 3\n")
        with pytest.raises(ConfigError, match="c.yaml"):
            CampaignConfig.from_file(p)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml"))
                             + [CONFIGS.parent / "bench" / "theta_sweep.yaml"],
                             ids=lambda path: path.name)
    def test_libyaml_loader_reads_what_the_python_loader_reads(self, path):
        """The config loaders take libyaml's safe loader where it is installed;
        it gives the values that the pure-Python safe loader gives."""
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        with open(path) as f:
            fast = yaml.load(f, Loader=loader)
        with open(path) as f:
            assert fast == yaml.load(f, Loader=yaml.SafeLoader)

    def test_malformed_yaml_names_the_file(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("alphas: [1, 2\nn_drops: 3\n")
        with pytest.raises(ConfigError, match=r"bad\.yaml: malformed config"):
            CampaignConfig.from_file(p)


class TestRun:
    def test_realization_count(self):
        res = run_campaign(tiny_config(n_drops=2, n_fading=1,
                                       densities_per_km2=[20.0]))
        assert all(r["n_realizations"] == 2 for r in res.rows)

    def test_row_grid_size(self):
        res = run_campaign(tiny_config(alphas=[1.0, 2.0], gamma_ds_db=[-2.0, 0.0]))
        # 5 default patterns x 2 alphas x 2 gammas x 1 R x 1 config x 1 mu
        assert len(res.rows) == 20
        assert set(res.rows[0]) == set(RESULT_COLUMNS)

    def test_deterministic_csv(self, tmp_path):
        hashes = []
        for run in range(2):
            res = run_campaign(tiny_config())
            path = tmp_path / f"out{run}.csv"
            write_rows_csv(res.rows, RESULT_COLUMNS, path)
            hashes.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert hashes[0] == hashes[1]

    def test_seed_changes_output(self):
        r1 = run_campaign(tiny_config(master_seed=1))
        r2 = run_campaign(tiny_config(master_seed=2))
        assert r1.rows[0]["t_alpha_mean_bps"] != r2.rows[0]["t_alpha_mean_bps"]

    def test_sweep_point_independence(self, tmp_path):
        """Splitting any sweep axis into separate runs gives the same rows, so
        no stage result leaks from one sweep point into another."""
        chain = default_pattern_list()
        pattern_files = []
        for i, subset in enumerate(([chain[0], chain[-1]], chain[1:])):
            pattern_files.append(str(tmp_path / f"patterns{i}.csv"))
            patterns_to_file(subset, pattern_files[-1])
        splits = {
            "gamma_ds_db": [[-4.0], [0.0]],
            "comp_configs": [["C1"], ["C3"]],
            "alphas": [[1.0], [2.0]],
            "pattern_file": pattern_files,
        }
        base = dict(n_fading=2, gamma_ds_db=[-4.0, 0.0], comp_configs=["C1", "C3"],
                    alphas=[1.0, 2.0])

        def keyed(rows):
            return {(r["config"], r["pattern"], r["gamma_d_db"], r["alpha"]): r
                    for r in rows}

        full = keyed(run_campaign(tiny_config(**base)).rows)
        assert len(full) == 2 * 5 * 2 * 2
        for axis, parts in splits.items():
            for part in parts:
                rows = keyed(run_campaign(tiny_config(**{**base, axis: part})).rows)
                assert rows and all(full[k] == r for k, r in rows.items()), axis

    def test_parallel_matches_serial(self):
        cfg = tiny_config(n_drops=3)
        serial = run_campaign(cfg, jobs=1)
        parallel = run_campaign(cfg, jobs=2)
        assert serial.rows == parallel.rows

    def test_manifest_contents(self):
        res = run_campaign(tiny_config())
        assert res.manifest["master_seed"] == 11
        assert "compbss" in res.manifest["versions"]
        assert res.manifest["n_rows"] == len(res.rows)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_manifest_records_the_run_setup(self, monkeypatch, jobs):
        """The manifest, not the rows, records the worker count, the draw
        helper (only with a core free beside the workers), the Python
        version and the platform."""
        monkeypatch.setattr(campaign, "_usable_cores", lambda: 2)
        res = run_campaign(tiny_config(), jobs=jobs)
        manifest = res.manifest
        assert (manifest["jobs"], manifest["draw_helper"]) == (jobs, jobs == 1)
        assert manifest["versions"]["python"] == platform.python_version()
        assert manifest["platform"] == platform.platform()
        assert all(set(row) == set(RESULT_COLUMNS) for row in res.rows)

    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        """A process pool forks all its workers at its first task, so a run
        of two tasks at --jobs 5 asks for two."""
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(campaign, "_worker_ctx", None)
        cfg = tiny_config(n_drops=2)
        assert run_campaign(cfg, jobs=5).rows == run_campaign(cfg).rows
        assert sizes == [2]

    def test_theta_trend_visible_in_sweep_output(self):
        """Desk-scale rerun of the share-vs-threshold sweep keeps the trend."""
        cfg = tiny_config(n_drops=10, comp_configs=["C1"],
                          gamma_ds_db=[-4.0, 0.0, 4.0])
        rows = [r for r in run_campaign(cfg).rows if r["pattern"] == "Z0/7"]
        thetas = [r["theta_mean"] for r in sorted(rows, key=lambda r: r["gamma_d_db"])]
        assert thetas == sorted(thetas)


class TestTraffic:
    def test_profile_rows(self):
        cfg = tiny_config(traffic_profile=[20.0, 120.0])
        res = run_traffic_profile(cfg)
        assert [r["t"] for r in res.rows] == [0, 1]
        assert set(res.rows[0]) == set(TRAFFIC_COLUMNS)
        # heuristic sleeps more at low load
        assert res.rows[0]["a1"] >= res.rows[1]["a1"]

    def test_manifest_counts_skipped_steps(self):
        # 1e-3 users per km^2 drops nobody at this seed, so step 1 is skipped
        profile = [60.0, 1e-3, 60.0]
        res = run_traffic_profile(tiny_config(traffic_profile=profile))
        skipped = res.manifest["n_realizations_skipped"]
        assert skipped == 1
        assert [r["t"] for r in res.rows] == [0, 2]
        assert len(res.rows) + skipped == len(profile)

    @pytest.mark.parametrize("r_thr", [2e5, 1e12])
    def test_manifest_counts_evaluated_patterns_and_infeasible_steps(self, r_thr):
        profile = [20.0, 160.0, 1e-3, 60.0]
        res = run_traffic_profile(tiny_config(traffic_profile=profile,
                                              rate_thresholds_bps=[r_thr]))
        labels = [p.label for p in default_pattern_list()]
        walked = {}
        for row in res.rows:
            # a walk down the energy-sorted list stops at the chosen pattern
            n = labels.index(row["pattern"]) + 1
            walked[str(n)] = walked.get(str(n), 0) + 1
        assert res.manifest["patterns_evaluated"] == dict(sorted(walked.items()))
        assert sum(walked.values()) == len(res.rows) == len(profile) - 1
        n_infeasible = res.manifest["n_infeasible"]
        assert n_infeasible == sum(1 for r in res.rows if not r["feasible"])
        if r_thr == 1e12:
            assert n_infeasible == len(res.rows)
            assert res.manifest["patterns_evaluated"] == {str(len(labels)): len(res.rows)}
        assert set(res.rows[0]) == set(TRAFFIC_COLUMNS)

    def test_row_t_alpha_is_the_realization_stats_field(self):
        """A row's t_alpha is ``realization_stats``' field of the picked
        pattern, bit for bit, on feasible steps and on infeasible ones, whose
        fallback pattern leaves some of the metric set in outage; its
        pattern, minimum rate and feasibility are ``heuristic_select``'s on
        the step's draw."""
        cfg = tiny_config(traffic_profile=[20.0, 160.0, 60.0, 120.0],
                          rate_thresholds_bps=[3e5])
        res = run_traffic_profile(cfg)
        assert {r["feasible"] for r in res.rows} == {0, 1}
        ctx = build_context(cfg)
        model = ctx.models["C3"]
        for row in res.rows:
            mu, key = row["mu_per_km2"], (_mu_key(row["mu_per_km2"]), row["t"])
            drop = drop_users(ctx.layout, mu, _seed_key(cfg.master_seed, 2, *key))
            gain_db = build_gain_matrix(ctx.layout, drop, _seed_key(cfg.master_seed, 3, *key))
            vq = center_cluster_users(model, strongest_sectors(gain_db), ctx.center_sector_idx)
            sel = heuristic_select(model, gain_db, vq, ctx.layout.center_cluster_bs_ids - 1,
                                   ctx.patterns, 1.0, -1.0, 3e5)
            stats = realization_stats(sel.solution, vq[sel.users], [0.0],
                                      [model.multi_vc_ids], [3e5], 1.0)[0, 0]
            assert row["t_alpha_bps"] == float(stats[STAT_FIELDS.index("t_alpha_bps")])
            assert (row["pattern"], row["min_rate_bps"], row["feasible"]) == (
                sel.pattern.label, sel.min_rate_bps, int(sel.feasible))

    def test_manifest_echoes_no_drop_counts(self):
        echo = run_traffic_profile(tiny_config(traffic_profile=[20.0])).manifest["config"]
        assert echo["traffic_profile"] == [20.0]
        assert "n_drops" not in echo and "n_fading" not in echo
        assert "densities_per_km2" not in echo

    def test_requires_profile(self):
        with pytest.raises(ConfigError):
            run_traffic_profile(tiny_config())

    @pytest.mark.parametrize("key, values", [
        ("alphas", [1.0, 2.0]), ("gamma_ds_db", [-1.0, 0.0]),
        ("rate_thresholds_bps", [1e5, 2e5]), ("comp_configs", ["C3", "C1"]),
    ])
    def test_refuses_extra_sweep_values(self, key, values):
        """The profile runs one point; extra values would be dropped silently,
        so the config refuses them when it is made."""
        with pytest.raises(ConfigError, match=f"takes one {key} value"):
            tiny_config(traffic_profile=[60.0], **{key: values})
        tiny_config(**{key: values})    # a sweep takes them

    def test_step_without_candidate_but_with_metric_set_gets_a_row(self, layout):
        """At this seed the drop of step 28 holds 5 users and none of them lies
        in a centre-cluster cell, yet its fading draw puts one of them in the
        metric set: the step is scheduled like any draw with a metric set."""
        res = run_traffic_profile(tiny_config(traffic_profile=[0.5] * 40, master_seed=1))
        drop = drop_users(layout, 0.5, _seed_key(1, 2, _mu_key(0.5), 28))
        nearest_bs = drop.link_dist_m.argmin(axis=1)
        assert drop.n_users == 5 and not np.any(layout.cluster_id[nearest_bs] == 1)
        (row,) = [r for r in res.rows if r["t"] == 28]
        assert row["mu_per_km2"] == 0.5 and row["pattern"] == "Z4/7" and row["feasible"] == 1
        assert len(res.rows) == 18 and res.manifest["n_realizations_skipped"] == 22


class TestThreads:
    """The realization stream makes each next draw, of the drop or of the
    next drop, on one helper thread, which ends with the stream, when a core
    is free for it; on one core it starts none."""

    @pytest.fixture
    def four_cores(self, monkeypatch):
        monkeypatch.setattr(campaign, "_usable_cores", lambda: 4)

    @staticmethod
    def refuse_threads(monkeypatch):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)

    @staticmethod
    def count_threads(monkeypatch):
        """The thread count at each standard normal draw, one per fading
        draw, as a list that the draws fill."""
        seen = []
        standard_normal = channel._standard_normal

        def draw_and_count(*args):
            seen.append(threading.active_count())
            return standard_normal(*args)

        monkeypatch.setattr(channel, "_standard_normal", draw_and_count)
        monkeypatch.setattr(campaign, "_standard_normal", draw_and_count)
        return seen

    def test_helper_ends_with_the_campaign(self, monkeypatch, four_cores):
        baseline = threading.active_count()
        seen = self.count_threads(monkeypatch)
        run_campaign(tiny_config(n_fading=3))
        assert max(seen) == baseline + 1 and len(seen) == 2 * 3
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("run", ["profile", "sweep"])
    def test_single_draw_helper_ends_with_the_campaign(self, monkeypatch, four_cores, run):
        """A profile and a sweep of single-draw drops make each next drop's
        draw on the helper, which is gone when the campaign returns."""
        baseline = threading.active_count()
        seen = self.count_threads(monkeypatch)
        if run == "profile":
            assert run_traffic_profile(tiny_config(traffic_profile=[20.0, 160.0, 60.0])).rows
            n_draws = 3
        else:
            assert run_campaign(tiny_config(densities_per_km2=[20.0, 160.0], n_drops=3)).rows
            n_draws = 2 * 3
        assert max(seen) == baseline + 1 and len(seen) == n_draws
        assert threading.active_count() == baseline

    def test_helper_ends_when_scheduling_raises(self, monkeypatch, four_cores):
        baseline = threading.active_count()
        calls = []

        def fail_second_draw(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("scheduling failed")
            return draw_rates(*args)

        monkeypatch.setattr(campaign, "draw_rates", fail_second_draw)
        with pytest.raises(RuntimeError, match="scheduling failed"):
            run_campaign(tiny_config(n_fading=3))
        assert threading.active_count() == baseline

    def test_helper_ends_when_the_heuristic_raises(self, monkeypatch, four_cores):
        baseline = threading.active_count()
        seen = self.count_threads(monkeypatch)
        calls = []

        def fail_second_step(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("selection failed")
            return heuristic_pick(*args, **kwargs)

        monkeypatch.setattr(campaign, "heuristic_pick", fail_second_step)
        with pytest.raises(RuntimeError, match="selection failed"):
            run_traffic_profile(tiny_config(traffic_profile=[20.0, 60.0, 160.0, 60.0]))
        assert len(calls) == 2 and max(seen) == baseline + 1
        assert threading.active_count() == baseline

    def test_abandoned_stream_ends_the_helper(self, four_cores):
        baseline = threading.active_count()
        ctx = build_context(tiny_config(n_fading=3))
        stream = _realizations(ctx, [(60.0, (0, 1), [(1, 1, f) for f in range(3)]),
                                     (60.0, (0, 2), [(1, 2, 0)])], list(ctx.models.values()))
        next(stream)
        assert threading.active_count() == baseline + 1
        del stream
        assert threading.active_count() == baseline

    def test_single_draw_drops_start_no_thread(self, monkeypatch):
        """With one usable core the stream makes every draw on the caller's
        thread."""
        monkeypatch.setattr(campaign, "_usable_cores", lambda: 1)
        self.refuse_threads(monkeypatch)
        assert run_campaign(tiny_config(n_fading=1)).rows
        assert run_traffic_profile(tiny_config(traffic_profile=[20.0, 60.0])).rows

    def test_no_helper_without_a_free_core(self, monkeypatch):
        """One core runs the campaign on one thread, and a pool worker of a
        pool that fills the cores does too, with the streamed records."""
        cfg = tiny_config(n_fading=3)
        tasks = [(60.0, 0), (60.0, 1)]
        streamed = campaign._drop_records(build_context(cfg), tasks)
        monkeypatch.setattr(campaign, "_usable_cores", lambda: 1)
        monkeypatch.setattr(campaign, "_worker_ctx", None)
        self.refuse_threads(monkeypatch)
        assert run_campaign(cfg).rows
        campaign._start_worker(json.dumps(dataclasses.asdict(cfg), sort_keys=True), 1)
        pooled = [campaign._worker(task) for task in tasks]
        assert len(streamed) == 2
        for got, want in zip(pooled, streamed):
            assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]

    def test_forked_worker_builds_its_own_context(self, monkeypatch, four_cores):
        """A worker forked from a process that holds the worker context of
        another config builds its own in the pool initializer."""
        cfg = tiny_config(n_fading=3)
        other = dataclasses.replace(cfg, master_seed=cfg.master_seed + 1)
        monkeypatch.setattr(campaign, "_worker_ctx", None)
        campaign._start_worker(json.dumps(dataclasses.asdict(other), sort_keys=True), 2)
        rows = run_campaign(cfg).rows
        assert run_campaign(other).rows != rows
        assert run_campaign(cfg, jobs=2).rows == rows

    def test_process_pool_after_pipelined_campaign(self, tmp_path, four_cores):
        """Forked workers of a process that streamed a sweep and a profile in
        process run their own helpers, with the --jobs 1 run's bytes, for
        drops of one draw and of several."""
        assert run_campaign(tiny_config(n_fading=3)).rows
        assert run_traffic_profile(tiny_config(traffic_profile=[20.0, 60.0])).rows
        for n_fading in ("1", "3"):
            outs = []
            for jobs in ("1", "2"):
                out = tmp_path / f"jobs{jobs}.csv"
                assert cli_main(["--drops", "5", "--fading", n_fading, "--jobs", jobs,
                                 "--out", str(out)]) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def sweep_rows():
    cfg = tiny_config(alphas=[1.0, 2.0], gamma_ds_db=[-2.0, 0.0],
                      rate_thresholds_bps=[1e5, 5e5],
                      comp_configs=["none", "C3"])
    return run_campaign(cfg).rows


class TestFigures:
    def test_fig4_layout(self, sweep_rows):
        rows = [r for r in sweep_rows if r["config"] == "C3"]
        cols, data = emit_figure_data(rows, "fig4")
        assert cols == ("gamma_d_db", "alpha", "theta_star_mean")
        assert len(data) == 4  # 2 gammas x 2 alphas
        # a sweep of one sleep pattern holds no all-on share to report
        with pytest.raises(MissingAxisError, match="requires the all-on pattern"):
            emit_figure_data([r for r in rows if r["pattern"] == "Z2/7"], "fig4")

    def test_fig5_layout(self, sweep_rows):
        rows = [r for r in sweep_rows if r["alpha"] == 1.0]
        cols, data = emit_figure_data(rows, "fig5")
        assert cols == ("gamma_d_db", "pattern", "config", "t_alpha_bps")
        assert len(data) == 2 * 5 * 2

    def test_fig8_layout(self, sweep_rows):
        rows = [r for r in sweep_rows
                if r["alpha"] == 1.0 and r["gamma_d_db"] == 0.0]
        cols, data = emit_figure_data(rows, "fig8")
        assert cols == ("config", "pattern", "coverage", "t_alpha_bps", "energy_pct")
        assert {d["config"] for d in data} == {"none", "C3"}

    def test_fig9_layout(self, sweep_rows):
        rows = [r for r in sweep_rows
                if r["alpha"] == 1.0 and r["gamma_d_db"] == 0.0
                and r["config"] == "C3"]
        cols, data = emit_figure_data(rows, "fig9")
        assert cols == ("rate_threshold_bps", "pattern", "rate_coverage")
        assert len(data) == 2 * 5

    def test_fig10_requires_single_pattern(self, sweep_rows):
        rows = [r for r in sweep_rows
                if r["gamma_d_db"] == 0.0 and r["config"] == "C3"]
        with pytest.raises(MissingAxisError, match="ambiguous"):
            emit_figure_data(rows, "fig10")
        one = [r for r in rows if r["pattern"] == "Z2/7"]
        cols, data = emit_figure_data(one, "fig10")
        assert cols == ("rate_threshold_bps", "alpha", "rate_coverage")
        assert len(data) == 2 * 2

    def test_fig11_requires_traffic_rows(self, sweep_rows):
        with pytest.raises(MissingAxisError, match="t"):
            emit_figure_data(sweep_rows, "fig11")

    def test_unknown_figure(self, sweep_rows):
        with pytest.raises(MissingAxisError):
            emit_figure_data(sweep_rows, "fig99")


class TestCli:
    def test_end_to_end_csv_and_manifest(self, tmp_path):
        out = tmp_path / "res.csv"
        rc = cli_main(["--drops", "1", "--fading", "1", "--seed", "3",
                       "--out", str(out), "--comp", "C3"])
        assert rc == 0
        assert out.exists()
        manifest = json.loads((tmp_path / "res_manifest.json").read_text())
        assert manifest["master_seed"] == 3

    def test_reproducible_output_bytes(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = cli_main(["--drops", "1", "--fading", "1", "--seed", "9",
                           "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_config_is_exit_1(self, tmp_path):
        assert cli_main(["--config", str(tmp_path / "nope.yaml")]) == 1

    def test_bad_key_is_exit_1(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("whatever: 2\n")
        assert cli_main(["--config", str(p)]) == 1

    def test_string_sweep_value_is_exit_1(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text('alphas: ["2"]\n')
        assert cli_main(["--config", str(p)]) == 1
        assert "alphas entry '2'" in capsys.readouterr().err

    @pytest.mark.parametrize("line, shown", [
        ("densities_per_km2: [0]", "densities_per_km2"), ("output: 5", "output"),
        ("rate_thresholds_bps: [-1]", "rate_thresholds_bps"),
        ("inter_site_distance_m: 0", "inter_site_distance_m"),
        ("inter_site_distance_m: 1.0e-200", "inter_site_distance_m=1e-200"),
        ("inter_site_distance_m: 0.5", "inter_site_distance_m=0.5"),
        ("comp_configs: [C9]", "comp_configs entry 'C9'"),
        ("comp_configs: [configs/traffic_day.yaml]", "comp_configs entry"),
        ("pattern_file: nope.csv", "pattern_file 'nope.csv'"),
        ("pattern_file: configs/traffic_day.yaml", "pattern_file"),
        ("inter_site_distance_m: 1.0e+155", "inter_site_distance_m=1e+155"),
    ])
    def test_bad_config_value_is_exit_1(self, tmp_path, capsys, monkeypatch, line, shown):
        """Values that used to fail at run time are configuration errors, and
        a refusal leaves no output directory behind.  A pattern file is read
        next to the config, here given by a path relative to the working
        directory, beside a copy of a config that is no pattern list."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "configs").mkdir()
        shutil.copy(CONFIGS / "traffic_day.yaml", tmp_path / "configs")
        p = tmp_path / "c.yaml"
        p.write_text(f"n_drops: 1\nn_fading: 1\noutput: {tmp_path / 'new' / 'r.csv'}\n"
                     f"{line}\n")
        assert cli_main(["--config", p.name]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and shown in err and "Traceback" not in err
        assert not (tmp_path / "new").exists()

    def test_yaml_string_number_is_named(self, tmp_path, capsys):
        """YAML 1.1 reads 1e2 as a string: the error says so, and the form it
        suggests reads as a number."""
        p = tmp_path / "c.yaml"
        p.write_text(f"densities_per_km2: [1e2]\noutput: {tmp_path / 'r.csv'}\n")
        assert cli_main(["--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert ("densities_per_km2 entry '1e2' is not a finite number: YAML read it as a "
                "string; write a float with a point and a signed exponent, such as 1.0e+2"
                in err)
        p.write_text("densities_per_km2: [1.0e+2]\n")
        assert CampaignConfig.from_file(p).densities_per_km2 == [100.0]

    @pytest.mark.parametrize("rows, shown", [
        ("1,0,0,0,0,0\n0,0,0,0,0,0\n", "pattern 1 (Z1/6) has 6 off-flags; the cluster "
                                       "has 7 BSs"),
        ("1,1,0,0,0,0,0,0\n0,0,0,0,0,0,0,0\n", "pattern 1 (Z2/8) has 8 off-flags"),
        ("1,0,0,0,0,0,0\n1,0,0,0,0,0,0\n0,0,0,0,0,0,0\n",
         "pattern list repeats the pattern Z1/7[off=1]"),
    ], ids=["6-flags", "8-flags", "repeat"])
    def test_bad_pattern_file_is_exit_1(self, tmp_path, capsys, rows, shown):
        pf = tmp_path / "pats.csv"
        pf.write_text(rows)
        out = tmp_path / "r.csv"
        assert cli_main(["--drops", "1", "--fading", "1", "--out", str(out),
                         "--patterns", str(pf)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: pattern_file '{pf}': ") and shown in err
        assert not out.exists()

    @pytest.mark.parametrize("line, shown", [
        ("densities_per_km2: [0.001]\nn_drops: 2\nn_fading: 3",
         "densities_per_km2: 0.001 skipped 6 of 6"),
        ("densities_per_km2: [0.001, 0.002]\nn_drops: 2\nn_fading: 1",
         "densities_per_km2: 0.001 skipped 2 of 2, 0.002 skipped 2 of 2"),
        ("traffic_profile: [0.001, 0.002, 0.001]",
         "traffic_profile: 0.001 skipped 2 of 2, 0.002 skipped 1 of 1"),
    ])
    def test_run_that_skips_every_realization_is_exit_2(self, tmp_path, capsys, line, shown):
        p = tmp_path / "c.yaml"
        p.write_text(f"{line}\noutput: {tmp_path / 'out' / 'r.csv'}\n")
        assert cli_main(["--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: every realization was skipped") and shown in err
        assert not (tmp_path / "out").exists()

    def test_density_without_rows_is_named(self, tmp_path, capsys):
        """A density whose every draw is skipped writes no rows beside one
        that has rows: stderr names it and the manifest counts its skips."""
        p = tmp_path / "c.yaml"
        out = tmp_path / "r.csv"
        p.write_text(f"densities_per_km2: [0.001, 60]\nn_drops: 2\nn_fading: 1\n"
                     f"output: {out}\n")
        assert cli_main(["--config", str(p)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: no rows for densities_per_km2: 0.001 skipped 2 of 2")
        assert len(err.strip().splitlines()) == 1
        manifest = json.loads((tmp_path / "r_manifest.json").read_text())
        assert manifest["n_realizations_skipped_per_density"] == {"0.001": 2, "60": 0}
        assert manifest["n_realizations_skipped"] == 2
        assert {line.split(",")[3] for line in out.read_text().splitlines()[1:]} == {"60"}

    def test_traffic_step_without_rows_is_named(self, tmp_path, capsys):
        """Profile steps whose draw has no metric set write no rows: stderr
        names each one's step and density, and the manifest counts them."""
        p = tmp_path / "c.yaml"
        out = tmp_path / "t.csv"
        p.write_text(f"traffic_profile: [20, 0.2, 0.2, 0.2, 20]\nmaster_seed: 1\n"
                     f"output: {out}\n")
        assert cli_main(["--config", str(p), "--figure", "fig11"]) == 0
        err = capsys.readouterr().err
        assert err == ("warning: no rows for traffic_profile steps t=1 (mu 0.2), "
                       "t=2 (mu 0.2), t=3 (mu 0.2): the step's draw had no "
                       "centre-cluster user\n")
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["0", "4"]
        manifest = json.loads((tmp_path / "t_manifest.json").read_text())
        assert manifest["n_realizations_skipped"] == 3

    @pytest.mark.parametrize("flags", [["--drops", "2"], ["--fading", "3"], ["--full-scale"],
                                       ["--jobs", "4"]])
    def test_traffic_config_refuses_scale_flags(self, tmp_path, capsys, flags):
        out = tmp_path / "t.csv"
        rc = cli_main(["--config", str(CONFIGS / "traffic_day.yaml"), "--figure", "fig11",
                       "--out", str(out)] + flags)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flags[0]} does not apply to a config with "
                              f"traffic_profile")
        assert not out.exists()

    def test_gamma_d_range_is_no_config_key(self, tmp_path, capsys):
        """The gamma_d range is the constant DEFAULT_GAMMA_D_RANGE_DB."""
        p = tmp_path / "c.yaml"
        p.write_text(f"gamma_d_range_db: [-6.5, 10]\noutput: {tmp_path / 'r.csv'}\n")
        assert cli_main(["--config", str(p)]) == 1
        assert "unknown config keys ['gamma_d_range_db']" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("n_drops", 7), ("n_fading", 3), ("densities_per_km2", [5, 7]),
    ])
    def test_traffic_config_with_sweep_scale_key_is_exit_1(self, tmp_path, capsys, key, value):
        """A profile step draws one drop of its density and one fading draw,
        so a traffic config file that sets these keys is refused; a sweep
        config takes them."""
        p = tmp_path / "c.yaml"
        p.write_text(f"traffic_profile: [20, 60]\n{key}: {value}\n"
                     f"output: {tmp_path / 't.csv'}\n")
        assert cli_main(["--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {p}: {key} does not apply to a config with "
                              f"traffic_profile")
        assert sorted(tmp_path.iterdir()) == [p]
        assert getattr(CampaignConfig.from_dict({key: value}), key) == value

    def test_pattern_list_without_all_on(self, tmp_path, capsys):
        """A sweep list may lack the all-on pattern; the traffic profile's
        heuristic needs it as its fallback, so the same list is refused
        there before anything is written."""
        pf = tmp_path / "pats.csv"
        pf.write_text("1,1,0,0,0,0,0,Z2/7\n1,0,0,0,0,0,0,Z1/7\n")
        out = tmp_path / "r.csv"
        assert cli_main(["--drops", "1", "--fading", "1", "--out", str(out),
                         "--patterns", str(pf)]) == 0
        assert {line.split(",")[1] for line in out.read_text().splitlines()[1:]} == {
            "Z2/7", "Z1/7"}
        capsys.readouterr()
        out = tmp_path / "traffic" / "t.csv"
        assert cli_main(["--config", str(CONFIGS / "traffic_day.yaml"), "--figure", "fig11",
                         "--out", str(out), "--patterns", str(pf)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: pattern_file '{pf}': the heuristic's pattern "
                              f"list must end with the all-on fallback pattern")
        assert not out.parent.exists()

    def test_traffic_profile_extra_alpha_is_exit_1(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("traffic_profile: [60]\nalphas: [1, 2]\n"
                     "rate_thresholds_bps: [100000, 200000]\ncomp_configs: [C1, C3]\n")
        assert cli_main(["--config", str(p), "--out", str(tmp_path / "t.csv")]) == 1
        assert "alphas" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_negative_seed_is_exit_1(self, tmp_path, capsys):
        assert cli_main(["--drops", "1", "--fading", "1", "--seed", "-1",
                         "--out", str(tmp_path / "r.csv")]) == 1
        assert "master_seed=-1" in capsys.readouterr().err
        p = tmp_path / "c.yaml"
        p.write_text("master_seed: -1\n")
        assert cli_main(["--config", str(p)]) == 1
        assert "master_seed=-1" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_exit_1(self, tmp_path, capsys, jobs):
        out = tmp_path / "r.csv"
        assert cli_main(["--drops", "1", "--fading", "1", "--jobs", jobs,
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: --jobs {jobs} must be >= 1")
        assert not out.exists()

    def test_jobs_above_the_usable_cores_is_exit_1(self, monkeypatch, tmp_path, capsys):
        """A process pool forks all its workers at once, so --jobs may not
        exceed the usable cores; the run starts no process."""
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was made")

        monkeypatch.setattr(campaign, "_usable_cores", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        out = tmp_path / "r.csv"
        assert cli_main(["--drops", "1", "--fading", "1", "--jobs", "5000",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: --jobs 5000 exceeds the 2 usable cores\n")
        assert not out.exists()

    def test_unwritable_output_is_exit_1(self):
        assert cli_main(["--drops", "1", "--fading", "1",
                         "--out", "/proc/nope/x.csv"]) == 1

    def test_directory_output_is_exit_1_before_the_run(self, tmp_path, capsys):
        out = tmp_path / "results"
        out.mkdir()
        (out / "keep.txt").write_text("x")
        assert cli_main(["--drops", "3", "--fading", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: output location {out} ")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["keep.txt", "results"]
        assert (out / "keep.txt").read_text() == "x"

    @pytest.mark.parametrize("blocked, extra", [
        ("r_manifest.json", ["--fading", "1"]),
        ("r_fig4.csv", ["--config", str(CONFIGS / "fig4_theta_sweep.yaml"), "--figure", "fig4"]),
    ], ids=["manifest", "figure"])
    def test_directory_at_a_companion_path_is_exit_1_before_the_run(self, tmp_path, capsys,
                                                                    blocked, extra):
        out = tmp_path / "r.csv"
        (tmp_path / blocked).mkdir()
        assert cli_main(["--drops", "1", "--out", str(out), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: output location {tmp_path / blocked} ")
        assert not out.exists()

    def test_empty_traffic_profile_is_exit_1(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        out = tmp_path / "t.csv"
        p.write_text(f"traffic_profile: []\noutput: {out}\n")
        assert cli_main(["--config", str(p), "--figure", "fig11"]) == 1
        err = capsys.readouterr().err
        assert "traffic_profile must be a non-empty list, got []" in err
        assert sorted(tmp_path.iterdir()) == [p]

    def test_figure_flag_writes_companion_csv(self, tmp_path):
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(
            "n_drops: 1\nn_fading: 1\nalphas: [1]\ngamma_ds_db: [-2, 0]\n"
            f"comp_configs: [C1]\noutput: {tmp_path / 'f.csv'}\nmaster_seed: 2\n")
        rc = cli_main(["--config", str(cfgp), "--figure", "fig4"])
        assert rc == 0
        fig = (tmp_path / "f_fig4.csv").read_text().splitlines()
        assert fig[0] == "gamma_d_db,alpha,theta_star_mean"
        assert len(fig) == 3

    def test_patterns_file_flag(self, tmp_path):
        pf = tmp_path / "pats.csv"
        pf.write_text("0,0,1,0,0,0,0,Zcustom\n0,0,0,0,0,0,0,Zall\n")
        out = tmp_path / "r.csv"
        rc = cli_main(["--drops", "1", "--fading", "1", "--out", str(out),
                       "--patterns", str(pf)])
        assert rc == 0
        body = out.read_text()
        assert "Zcustom" in body and "Zall" in body

    def test_pattern_file_is_relative_to_the_config(self, tmp_path, monkeypatch):
        """The fig10 config names its pattern file next to it, and runs from
        any directory; ``--patterns`` stays relative to the working one."""
        monkeypatch.chdir(tmp_path)
        rc = cli_main(["--config", str(CONFIGS / "fig10_rate_coverage.yaml"), "--figure",
                       "fig10", "--drops", "1", "--out", "f.csv"])
        assert rc == 0
        assert {line.split(",")[1] for line in Path("f.csv").read_text().splitlines()[1:]} == {
            "Z2/7"}
        Path("pats.csv").write_text("0,0,1,0,0,0,0,Zcwd\n0,0,0,0,0,0,0,Zall\n")
        rc = cli_main(["--config", str(CONFIGS / "fig10_rate_coverage.yaml"), "--drops", "1",
                       "--patterns", "pats.csv", "--out", "p.csv"])
        assert rc == 0 and "Zcwd" in Path("p.csv").read_text()

    @pytest.mark.parametrize("figure", ["fig4", "fig8"])
    def test_traffic_config_refuses_sweep_figure(self, tmp_path, capsys, figure):
        out = tmp_path / "t.csv"
        rc = cli_main(["--config", str(CONFIGS / "traffic_day.yaml"), "--figure", figure,
                       "--drops", "1", "--fading", "1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "traffic_profile" in err and figure in err
        assert not out.exists()

    def test_sweep_config_refuses_fig11(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = cli_main(["--config", str(CONFIGS / "fig4_theta_sweep.yaml"),
                       "--figure", "fig11", "--drops", "1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "traffic_profile" in err and "fig11" in err
        assert not out.exists()

    def test_every_campaign_config_is_listed(self):
        for path in CONFIGS.glob("*.yaml"):
            assert path.stem in CONFIG_FIGURES, path.name

    @pytest.mark.parametrize("name", sorted(CONFIG_FIGURES))
    def test_shipped_config_runs(self, tmp_path, name):
        figure = CONFIG_FIGURES[name]
        out = tmp_path / f"{name}.csv"
        # a traffic profile draws one drop per step and takes no scale flags
        scale = [] if figure == "fig11" else ["--drops", "1", "--fading", "1"]
        rc = cli_main(["--config", str(CONFIGS / f"{name}.yaml"), "--figure", figure,
                       "--out", str(out)] + scale)
        assert rc == 0
        fig = (tmp_path / f"{name}_{figure}.csv").read_text().splitlines()
        assert len(fig) > 1


def test_cli_import_leaves_out_the_process_pool():
    """Only a parallel run imports the process pool: every CLI call's set-up
    would pay for ``multiprocessing`` otherwise."""
    code = ("import sys, compbss.cli\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src")})
    assert proc.stdout.strip() == "[]"
