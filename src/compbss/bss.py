"""Base-station switching patterns, feasibility, heuristic, and oracle.

A pattern flags which of the centre-cluster BSs sleep (1 = off).  Switching
a1 of a2 BSs off saves (a1/a2)*100 percent energy; at least one BS must stay
on.  The selection heuristic walks a pattern list sorted from most to least
energy saving and keeps the first pattern whose worst user still clears the
operator rate threshold.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .metrics import RealizationStats, alpha_fair_throughput, rate_coverage, sinr_coverage
from .scheduler import SchedulerParams, SchedulingSolution, SystemModel, schedule

MAX_ORACLE_BS = 10


@dataclass(frozen=True)
class BssPattern:
    """Binary off-flags over the cluster BSs (w_b = 1 means OFF)."""

    off_flags: tuple[int, ...]
    label: str = ""

    def __post_init__(self):
        if any(f not in (0, 1) for f in self.off_flags):
            raise ValueError("off flags must be 0 or 1")
        if sum(self.off_flags) > len(self.off_flags) - 1:
            raise ValueError("at least one BS must stay on")
        if not self.label:
            object.__setattr__(self, "label", f"Z{self.a1}/{self.a2}")

    @property
    def a1(self) -> int:
        return sum(self.off_flags)

    @property
    def a2(self) -> int:
        return len(self.off_flags)

    @property
    def energy_saving_pct(self) -> float:
        return 100.0 * self.a1 / self.a2

    @property
    def bit_value(self) -> int:
        return sum(f << i for i, f in enumerate(self.off_flags))

    @property
    def off_bs_ids(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, f in enumerate(self.off_flags) if f)

    def describe(self) -> str:
        off = "+".join(str(i) for i in self.off_bs_ids)
        return f"{self.label}[off={off or 'none'}]"

    @classmethod
    def from_off_ids(cls, off_ids, n_bs: int = 7, label: str = "") -> "BssPattern":
        flags = [0] * n_bs
        for b in off_ids:
            flags[b - 1] = 1
        return cls(off_flags=tuple(flags), label=label)


def energy_saving_pct(pattern: BssPattern) -> float:
    return pattern.energy_saving_pct


def sort_patterns(patterns) -> list[BssPattern]:
    """Ascending energy consumption: most BSs off first, bit value breaks ties."""
    return sorted(patterns, key=lambda p: (-p.a1, p.bit_value))


def validate_pattern_list(patterns: list[BssPattern]) -> None:
    if not patterns:
        raise ValueError("pattern list is empty")
    for a, b in zip(patterns, patterns[1:]):
        if (-a.a1, a.bit_value) > (-b.a1, b.bit_value):
            raise ValueError("pattern list must be sorted by increasing energy consumption")
    if patterns[-1].a1 != 0:
        raise ValueError("pattern list must end with the all-on fallback pattern")


def default_pattern_list(n_bs: int = 7) -> list[BssPattern]:
    """Shipped 5-pattern list: a nested off-set chain ending all-on.

    The chain switches off ring site 1, then ring site 2, then the centre
    site 4 (collapsing every CoMP triple to its surviving pair), and finally
    ring site 6.  Override via a pattern file.
    """
    chain = [(1, 2, 4, 6)[:k] for k in (4, 3, 2, 1, 0)]
    return [BssPattern.from_off_ids(off, n_bs=n_bs) for off in chain]


def all_patterns(n_bs: int = 7) -> list[BssPattern]:
    """Every admissible pattern (at least one BS on), heuristic ordering."""
    out = []
    for a1 in range(n_bs - 1, -1, -1):
        for off in combinations(range(1, n_bs + 1), a1):
            out.append(BssPattern.from_off_ids(off, n_bs=n_bs))
    return sort_patterns(out)


def patterns_from_file(path) -> list[BssPattern]:
    """Read rows of binary off-flags plus an optional trailing label."""
    out = []
    with open(path, newline="") as f:
        for row in csv.reader(f):
            cells = [c.strip() for c in row if c.strip() != ""]
            if not cells or cells[0].startswith("#"):
                continue
            label = ""
            if not cells[-1] in ("0", "1"):
                label = cells[-1]
                cells = cells[:-1]
            flags = tuple(int(c) for c in cells)
            out.append(BssPattern(off_flags=flags, label=label))
    if not out:
        raise ValueError(f"{path}: no patterns found")
    return out


def patterns_to_file(patterns, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        for p in patterns:
            w.writerow(list(p.off_flags) + [p.label])


@dataclass(frozen=True, eq=False)
class PatternEvaluation:
    """Outcome of scheduling the cluster users under one pattern."""

    pattern: BssPattern
    rates_bps: np.ndarray      # per user of the metric set
    min_rate_bps: float
    feasible: bool
    solution: SchedulingSolution


@dataclass(frozen=True, eq=False)
class HeuristicResult:
    pattern: BssPattern
    rates_bps: np.ndarray
    min_rate_bps: float
    feasible: bool
    patterns_evaluated: int
    solution: SchedulingSolution


def active_bs_mask(n_bs_total: int, cluster_bs_idx: np.ndarray,
                   pattern: BssPattern) -> np.ndarray:
    """Per-BS on/off mask of the whole field under a sleep pattern."""
    active = np.ones(n_bs_total, dtype=bool)
    off = np.asarray(pattern.off_flags, dtype=bool)
    active[cluster_bs_idx] = ~off
    return active


def pattern_evaluation(pattern: BssPattern, solution: SchedulingSolution,
                       vq_mask: np.ndarray, rate_threshold_bps: float) -> PatternEvaluation:
    """Check a scheduled pattern's metric-set rates against the threshold."""
    rates = solution.lam[vq_mask]
    min_rate = float(rates.min())
    return PatternEvaluation(
        pattern=pattern, rates_bps=rates, min_rate_bps=min_rate,
        feasible=bool(min_rate >= rate_threshold_bps), solution=solution,
    )


def evaluate_pattern(model: SystemModel, rx_w: np.ndarray, vq_mask: np.ndarray,
                     cluster_bs_idx: np.ndarray, pattern: BssPattern,
                     params: SchedulerParams,
                     rate_threshold_bps: float) -> PatternEvaluation:
    """Re-associate, re-classify, schedule, and check the rate constraint.

    Feasible when every user of the metric set reaches the threshold.
    """
    vq = np.asarray(vq_mask, dtype=bool)
    if not vq.any():
        raise ValueError("empty metric set: no centre-cluster users in this realization")
    active = active_bs_mask(int(model.sector_bs.max()) + 1, cluster_bs_idx, pattern)
    return pattern_evaluation(pattern, schedule(model, rx_w, active, params), vq,
                              rate_threshold_bps)


def heuristic_select(model: SystemModel, rx_w: np.ndarray, vq_mask: np.ndarray,
                     cluster_bs_idx: np.ndarray, patterns: list[BssPattern],
                     params: SchedulerParams,
                     rate_threshold_bps: float) -> HeuristicResult:
    """First feasible pattern of the energy-sorted list; all-on as fallback.

    If even the final pattern misses the threshold it is returned flagged
    infeasible (fail-safe toward coverage).
    """
    validate_pattern_list(patterns)
    ev = None
    for n_eval, pattern in enumerate(patterns, start=1):
        ev = evaluate_pattern(model, rx_w, vq_mask, cluster_bs_idx, pattern,
                              params, rate_threshold_bps)
        if ev.feasible:
            break
    return HeuristicResult(
        pattern=ev.pattern, rates_bps=ev.rates_bps, min_rate_bps=ev.min_rate_bps,
        feasible=ev.feasible, patterns_evaluated=n_eval, solution=ev.solution,
    )


def exhaustive_oracle(model: SystemModel, rx_w: np.ndarray, vq_mask: np.ndarray,
                      cluster_bs_idx: np.ndarray, params: SchedulerParams,
                      rate_threshold_bps: float) -> HeuristicResult:
    """Evaluate every admissible pattern; keep the feasible one switching the
    most BSs off (ties: lowest bit value).  Falls back to all-on, infeasible.
    """
    n_bs = len(cluster_bs_idx)
    if n_bs > MAX_ORACLE_BS:
        raise ValueError(f"exhaustive enumeration limited to {MAX_ORACLE_BS} BSs")
    best = None
    n_eval = 0
    fallback = None
    for pattern in all_patterns(n_bs):
        ev = evaluate_pattern(model, rx_w, vq_mask, cluster_bs_idx, pattern,
                              params, rate_threshold_bps)
        n_eval += 1
        if pattern.a1 == 0:
            fallback = ev
        if ev.feasible and (best is None or (-ev.pattern.a1, ev.pattern.bit_value)
                            < (-best.pattern.a1, best.pattern.bit_value)):
            best = ev
    ev = best if best is not None else fallback
    return HeuristicResult(
        pattern=ev.pattern, rates_bps=ev.rates_bps, min_rate_bps=ev.min_rate_bps,
        feasible=ev.feasible, patterns_evaluated=n_eval, solution=ev.solution,
    )


def realization_stats(ev: PatternEvaluation | HeuristicResult, vq_mask: np.ndarray,
                      multi_vc_ids, rate_threshold_bps: float,
                      alpha: float) -> RealizationStats:
    """Cluster metrics of one scheduled realization under one pattern."""
    vq = np.asarray(vq_mask, dtype=bool)
    sol = ev.solution
    lam = sol.lam[vq]
    covered = lam > 0
    t_alpha = alpha_fair_throughput(lam[covered], alpha) if covered.any() else 0.0
    return RealizationStats(
        t_alpha_bps=t_alpha,
        sinr_coverage=sinr_coverage(sol.coverage_sinr[vq]),
        rate_coverage=rate_coverage(lam, rate_threshold_bps),
        energy_saving_pct=ev.pattern.energy_saving_pct,
        n_users=int(vq.sum()),
        n_outage=int(np.sum(~covered)),
        theta_mean=sol.theta_mean(multi_vc_ids),
    )


def result_to_json(result: HeuristicResult) -> str:
    """Export a selection outcome as the documented JSON record."""
    return json.dumps({
        "pattern": list(result.pattern.off_flags),
        "label": result.pattern.label,
        "energy_saving_pct": result.pattern.energy_saving_pct,
        "min_rate_bps": result.min_rate_bps,
        "feasible": result.feasible,
        "per_user_rates": [float(r) for r in result.rates_bps],
    }, indent=2)
