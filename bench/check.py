"""Output checks for benchmark campaigns.

`check_output` validates one CLI result (CSV plus manifest) against the
sweep grid the benchmark asked for; `max_rel_diff` compares a result CSV
with a reference CSV cell by cell.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

# The shipped default sleep-pattern chain has five patterns (Z4/7 .. Z0/7).
N_DEFAULT_PATTERNS = 5

PROBABILITY_COLUMNS = ("sinr_coverage_mean", "rate_coverage_mean", "theta_mean")
ENERGY_COLUMNS = ("energy_saving_pct", "energy_pct")
ENERGY_STEP_PCT = 100.0 / 7.0


@dataclass(frozen=True)
class Grid:
    """The sweep one CLI call was asked to run, read from its config."""

    densities: tuple
    n_drops: int
    n_fading: int
    n_points: int               # configs x patterns x gamma_d x alpha x rate threshold
    traffic_steps: int | None   # profile length in traffic mode, else None

    @classmethod
    def from_config(cls, cfg: dict) -> "Grid":
        profile = cfg.get("traffic_profile")
        n_points = (len(cfg["comp_configs"]) * N_DEFAULT_PATTERNS * len(cfg["gamma_ds_db"])
                    * len(cfg["alphas"]) * len(cfg["rate_thresholds_bps"]))
        return cls(densities=tuple(cfg.get("densities_per_km2", ())),
                   n_drops=int(cfg.get("n_drops", 0)), n_fading=int(cfg.get("n_fading", 0)),
                   n_points=n_points,
                   traffic_steps=len(profile) if profile else None)

    @property
    def attempted(self) -> int:
        """Drop x fading draws (traffic steps in traffic mode) one call attempts."""
        if self.traffic_steps is not None:
            return self.traffic_steps
        return self.n_drops * self.n_fading * len(self.densities)


def read_table(path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def check_output(csv_path, manifest_path, grid: Grid) -> tuple[list[str], int]:
    """Return (problems, realizations) for one campaign's output.

    A campaign passes when `problems` is empty.  `realizations` counts the
    non-skipped drop x fading draws the output reports.
    """
    try:
        table = read_table(csv_path)
        with open(manifest_path) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], 0
    if not table:
        return ["empty result file"], 0
    header, body = table[0], table[1:]
    problems = []
    for r, row in enumerate(body, start=1):
        if len(row) != len(header):
            problems.append(f"row {r}: {len(row)} cells, header has {len(header)}")
            continue
        for name, cell in zip(header, row):
            x = _number(cell)
            if x is None:
                continue
            if not math.isfinite(x):
                problems.append(f"row {r}: {name}={cell} is not finite")
            elif name in PROBABILITY_COLUMNS and not 0.0 <= x <= 1.0:
                problems.append(f"row {r}: {name}={cell} outside [0, 1]")
            elif name in ENERGY_COLUMNS:
                steps = x / ENERGY_STEP_PCT
                if abs(steps - round(steps)) > 1e-9:
                    problems.append(f"row {r}: {name}={cell} is not a multiple of 100/7")
    if problems:
        return problems, 0

    skipped = int(manifest.get("n_realizations_skipped", 0))
    if grid.traffic_steps is not None:
        realizations = len(body)
        expected_rows = grid.traffic_steps - skipped
    else:
        col = {name: i for i, name in enumerate(header)}
        per_mu: dict[float, set] = {}
        for row in body:
            per_mu.setdefault(float(row[col["mu_per_km2"]]), set()).add(
                int(float(row[col["n_realizations"]])))
        for mu, counts in per_mu.items():
            if len(counts) != 1:
                problems.append(f"mu={mu}: rows disagree on n_realizations {sorted(counts)}")
        realizations = sum(max(c) for c in per_mu.values())
        expected_rows = grid.n_points * len(grid.densities)
    if len(body) != expected_rows:
        problems.append(f"{len(body)} rows, grid has {expected_rows}")
    if realizations + skipped != grid.attempted:
        problems.append(f"{realizations} realizations + {skipped} skipped "
                        f"!= {grid.attempted} attempted")
    return problems, realizations


def max_rel_diff(table: list[list[str]], reference: list[list[str]]) -> float:
    """Largest relative cell difference; a changed text cell, a changed
    header or a missing or extra row counts as 1."""
    if not table or not reference or table[0] != reference[0]:
        return 1.0
    worst = 0.0 if len(table) == len(reference) else 1.0
    for row, ref in zip(table[1:], reference[1:]):
        if len(row) != len(ref):
            return 1.0
        for a, b in zip(row, ref):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
                return 1.0
            if x == y:
                continue
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst
