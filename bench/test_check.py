"""Tests of the benchmark's output checker.

Run with: python3 -m pytest bench/test_check.py
"""

import json
import shutil
from pathlib import Path

import pytest

from check import check_output, max_rel_diff, read_table
from run import workload_grid

BENCH = Path(__file__).resolve().parent
REFS = BENCH / "refs"


def _output(tmp_path, workload):
    """A copy of the shipped reference output with a consistent manifest."""
    grid = workload_grid(workload)
    out = tmp_path / "out.csv"
    shutil.copyfile(REFS / f"{workload}.csv", out)
    table = read_table(out)
    if grid.traffic_steps is None:
        realizations = int(table[1][table[0].index("n_realizations")])
    else:
        realizations = len(table) - 1
    manifest = tmp_path / "out_manifest.json"
    manifest.write_text(json.dumps({"n_realizations_skipped": grid.attempted - realizations}))
    return out, manifest, grid


def _rewrite(path, table):
    path.write_text("".join(",".join(row) + "\n" for row in table))


@pytest.mark.parametrize("workload", ["desk", "theta_sweep", "traffic_day"])
def test_reference_outputs_pass(tmp_path, workload):
    out, manifest, grid = _output(tmp_path, workload)
    problems, realizations = check_output(out, manifest, grid)
    assert problems == []
    assert realizations > 0
    assert max_rel_diff(read_table(out), read_table(REFS / f"{workload}.csv")) == 0.0


@pytest.mark.parametrize("column,value", [("theta_mean", "1.5"), ("sinr_coverage_mean", "-0.1"),
                                          ("t_alpha_mean_bps", "nan"),
                                          ("energy_saving_pct", "50")])
def test_one_corrupted_cell_fails(tmp_path, column, value):
    out, manifest, grid = _output(tmp_path, "desk")
    table = read_table(out)
    table[3][table[0].index(column)] = value
    _rewrite(out, table)
    problems, _ = check_output(out, manifest, grid)
    assert len(problems) == 1 and column in problems[0]
    assert max_rel_diff(table, read_table(REFS / "desk.csv")) > 0.0


@pytest.mark.parametrize("workload", ["desk", "theta_sweep", "traffic_day"])
def test_one_missing_row_fails(tmp_path, workload):
    out, manifest, grid = _output(tmp_path, workload)
    table = read_table(out)
    del table[2]
    _rewrite(out, table)
    problems, _ = check_output(out, manifest, grid)
    assert problems
    assert max_rel_diff(table, read_table(REFS / f"{workload}.csv")) == 1.0


def test_realizations_must_add_up(tmp_path):
    out, manifest, grid = _output(tmp_path, "desk")
    manifest.write_text(json.dumps({"n_realizations_skipped": 1}))
    problems, _ = check_output(out, manifest, grid)
    assert any("attempted" in p for p in problems)


def test_changed_number_gives_its_relative_difference():
    ref = [["a", "b"], ["x", "2.0"]]
    assert max_rel_diff([["a", "b"], ["x", "2.5"]], ref) == pytest.approx(0.2)
    assert max_rel_diff([["a", "b"], ["y", "2.0"]], ref) == 1.0
