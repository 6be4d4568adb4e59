"""Golden output pin: fixed-seed CSVs must not drift.

The hashes below are the SHA-256 of CSVs written by ``write_rows_csv``.  A
change that alters results on purpose re-pins them and records the old and
new values in CHANGES.md.
"""

import hashlib

from compbss.campaign import (CampaignConfig, RESULT_COLUMNS, TRAFFIC_COLUMNS,
                              run_campaign, run_traffic_profile, write_rows_csv)

CAMPAIGN_SHA256 = "31100517b4e5a7706b9985466d0f4301acb867df70cf07701bf1b1d0bdbeff5f"
TRAFFIC_SHA256 = "ec0a66fa865d1100339143710c352e1c0fb169f7f6ce31157e8d5c02b593565a"


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


def test_traffic_profile_csv_is_pinned(tmp_path):
    """A short daily profile through the pattern-selection heuristic."""
    cfg = CampaignConfig(traffic_profile=[20.0, 60.0, 160.0, 100.0, 40.0],
                         alphas=[1.0], gamma_ds_db=[-1.0],
                         rate_thresholds_bps=[2e5], comp_configs=["C3"],
                         master_seed=7)
    res = run_traffic_profile(cfg)
    assert _csv_sha256(res.rows, TRAFFIC_COLUMNS, tmp_path / "t.csv") == TRAFFIC_SHA256
