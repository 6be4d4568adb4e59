"""Golden output pin: fixed-seed CSVs must not drift.

The hashes below are the SHA-256 of CSVs written by ``write_rows_csv``.  A
change that alters results on purpose re-pins them and records the old and
new values in CHANGES.md.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from compbss.bss import all_patterns
from compbss.campaign import (CampaignConfig, RESULT_COLUMNS, TRAFFIC_COLUMNS,
                              emit_figure_data, run_campaign, run_traffic_profile,
                              write_rows_csv)

from helpers import patterns_to_file

CAMPAIGN_SHA256 = "31100517b4e5a7706b9985466d0f4301acb867df70cf07701bf1b1d0bdbeff5f"
# case -> (config, CSV SHA-256, manifest fields)
TRAFFIC_CASES = {
    # the shipped pattern chain at alpha 1
    "chain": (dict(traffic_profile=[20.0, 60.0, 160.0, 100.0, 40.0], alphas=[1.0],
                   gamma_ds_db=[-1.0], rate_thresholds_bps=[2e5], comp_configs=["C3"],
                   master_seed=7),
              "ec0a66fa865d1100339143710c352e1c0fb169f7f6ce31157e8d5c02b593565a",
              {"patterns_evaluated": {"3": 1, "4": 1, "5": 3}, "n_infeasible": 2,
               "n_realizations_skipped": 0, "scheduled_user_frac": 0.2819306930693069}),
    # every pattern at alpha 3, with a step skipped for want of a metric set
    "all_patterns": (dict(traffic_profile=[20.0, 0.2, 60.0, 160.0, 100.0, 40.0],
                          alphas=[3.0], gamma_ds_db=[-4.0], rate_thresholds_bps=[5e5],
                          comp_configs=["C2"], pattern_file="all.csv", master_seed=7),
                     "7471b7b082812072ffd56ed1c8efc909105cb46ba6ce4d5bcf6e092be415c3c4",
                     {"patterns_evaluated": {"34": 1, "36": 1, "71": 1, "127": 2},
                      "n_infeasible": 2, "n_realizations_skipped": 1,
                      "scheduled_user_frac": 0.38629441624365485}),
}
ALL_PATTERNS_SHA256 = "6544a4825cc68da1703e2600a7a31566a2955530b1ca9cb94d9b2a3c8eda4994"
# The figure extracts of the shipped fig9 and fig10 configs at 2 drops, seed 7
FIGURE_SHA256 = {
    "fig9": "71175715909dcf921139707c1a882a7117a9dca1eb27653026e30e8c999d9b15",
    "fig10": "1a4995cf5328c64d1ebf1c38507d8210976546bbb63bd99a0887a8862b079903",
}
ROOT = Path(__file__).resolve().parent.parent


def _csv_sha256(rows, columns, path) -> str:
    write_rows_csv(rows, columns, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_campaign_csv_is_pinned(tmp_path):
    """All four CoMP configs, the shipped pattern chain, two alphas, two gamma_d."""
    cfg = CampaignConfig(densities_per_km2=[60.0], n_drops=2, n_fading=2,
                         alphas=[1.0, 2.0], gamma_ds_db=[-4.0, 0.0],
                         rate_thresholds_bps=[2e5],
                         comp_configs=["none", "C1", "C2", "C3"], master_seed=7)
    res = run_campaign(cfg)
    assert len(res.rows) == 4 * 5 * 2 * 2
    assert _csv_sha256(res.rows, RESULT_COLUMNS, tmp_path / "c.csv") == CAMPAIGN_SHA256


@pytest.mark.parametrize("case", sorted(TRAFFIC_CASES))
def test_traffic_profile_csv_is_pinned(tmp_path, case):
    """Short daily profiles through the pattern-selection heuristic, with the
    manifest's pattern-walk and skip counts."""
    kwargs, sha256, manifest = TRAFFIC_CASES[case]
    if "pattern_file" in kwargs:
        patterns_to_file(all_patterns(7), tmp_path / "all.csv")
        kwargs = dict(kwargs, pattern_file=str(tmp_path / "all.csv"))
    res = run_traffic_profile(CampaignConfig(**kwargs))
    assert _csv_sha256(res.rows, TRAFFIC_COLUMNS, tmp_path / "t.csv") == sha256
    assert {key: res.manifest[key] for key in manifest} == manifest


def test_all_patterns_campaign_csv_is_pinned(tmp_path):
    """Every sleep pattern at a sparse and a dense drop, with alpha != 1 pools.

    Deep patterns move users into the sectors of neighbour sites, and
    alpha 0.5 and 3 take the power forms of the pool fractions and theta.
    """
    patterns_to_file(all_patterns(7), tmp_path / "all.csv")
    cfg = CampaignConfig(densities_per_km2=[20.0, 160.0], n_drops=2, n_fading=2,
                         alphas=[0.5, 3.0], gamma_ds_db=[-6.0, 4.0],
                         rate_thresholds_bps=[2e5], comp_configs=["C2", "C3"],
                         pattern_file=str(tmp_path / "all.csv"), master_seed=7)
    res = run_campaign(cfg)
    assert len(res.rows) == 2 * 127 * 2 * 2 * 2
    assert _csv_sha256(res.rows, RESULT_COLUMNS, tmp_path / "a.csv") == ALL_PATTERNS_SHA256


@pytest.mark.parametrize("figure", sorted(FIGURE_SHA256))
def test_rate_coverage_extract_is_pinned(tmp_path, figure):
    """The rate-coverage curves of the shipped configs (fig9: every shipped
    pattern at alpha 1; fig10: the one pattern Z2/7 at alpha 1, 2 and 3)."""
    cfg = CampaignConfig.from_file(ROOT / "configs" / f"{figure}_rate_coverage.yaml")
    res = run_campaign(dataclasses.replace(cfg, n_drops=2, master_seed=7))
    columns, rows = emit_figure_data(res.rows, figure)
    assert _csv_sha256(rows, columns, tmp_path / "f.csv") == FIGURE_SHA256[figure]
