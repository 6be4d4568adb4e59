"""Base-station switching patterns, feasibility, heuristic, and oracle.

A pattern flags which of the centre-cluster BSs sleep (1 = off).  Switching
a1 of a2 BSs off saves (a1/a2)*100 percent energy; at least one BS must stay
on.  The selection heuristic walks a pattern list sorted from most to least
energy saving and keeps the first pattern whose worst user still clears the
operator rate threshold.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .metrics import STAT_FIELDS, alpha_fair_throughputs, rate_coverage, sinr_coverage
from .scheduler import (SchedulingSolution, SystemModel, allocate, check_scheduling_point,
                        cluster_members, draw_pool, draw_rates, strongest_sectors)

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

    @property
    def sort_key(self) -> tuple[int, int]:
        return -self.a1, self.bit_value     # list order: most BSs off first

    @property
    def bs_off(self) -> str:
        return "+".join(map(str, self.off_bs_ids))  # the row label: "" when all are on

    def describe(self) -> str:
        return f"{self.label}[off={self.bs_off or 'none'}]"

    @classmethod
    def from_off_ids(cls, off_ids, n_bs: int = 7, label: str = "") -> "BssPattern":
        flags = [0] * n_bs
        for b in off_ids:
            flags[b - 1] = 1
        return cls(off_flags=tuple(flags), label=label)


def sort_patterns(patterns) -> list[BssPattern]:
    """Ascending energy consumption: most BSs off first, bit value breaks ties."""
    return sorted(patterns, key=lambda p: p.sort_key)


def validate_pattern_list(patterns: list[BssPattern], n_bs: int) -> None:
    """Refuse a list whose patterns do not flag ``n_bs`` BSs each, or that is
    not strictly sorted (a repeat included)."""
    if not patterns:
        raise ValueError("pattern list is empty")
    for row, p in enumerate(patterns, start=1):
        if p.a2 != n_bs:
            raise ValueError(f"pattern {row} ({p.label}) has {p.a2} off-flags; the "
                             f"cluster has {n_bs} BSs")
    for a, b in zip(patterns, patterns[1:]):
        if a.sort_key == b.sort_key:
            raise ValueError(f"pattern list repeats the pattern {b.describe()}")
        if a.sort_key > b.sort_key:
            raise ValueError("pattern list must be sorted by increasing energy consumption")


def validate_heuristic_list(patterns: list[BssPattern], n_bs: int) -> None:
    """:func:`validate_pattern_list`; the list must also end all-on, the heuristic's fallback."""
    validate_pattern_list(patterns, n_bs)
    if patterns[-1].a1 != 0:
        raise ValueError("the heuristic's pattern list must end with the all-on fallback pattern")


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
            label = cells.pop() if cells[-1] not in ("0", "1") else ""
            flags = tuple(int(c) for c in cells)
            out.append(BssPattern(off_flags=flags, label=label))
    if not out:
        raise ValueError(f"{path}: no patterns found")
    return out


@dataclass(frozen=True, eq=False)
class HeuristicResult:
    """One scheduled sleep pattern checked against the operator rate threshold.

    ``rates_bps`` are the scheduled rates of the metric set, and the
    solution covers the users in ``users``, sorted rows of the draw
    (:func:`~compbss.scheduler.draw_rates`), so ``vq[users]`` marks the
    metric set of a draw-wide ``vq`` mask among them.
    """

    pattern: BssPattern
    rates_bps: np.ndarray
    min_rate_bps: float
    feasible: bool
    solution: SchedulingSolution
    patterns_evaluated: int
    users: np.ndarray


def sector_masks(sector_bs: np.ndarray, cluster_bs_idx: np.ndarray,
                 patterns) -> np.ndarray:
    """(P, S) on/off mask of every sector of the field under each sleep
    pattern: a sector sleeps with its BS, ``sector_bs`` names each sector's
    BS, and the patterns flag the BSs of ``cluster_bs_idx``."""
    active = np.ones((len(patterns), int(sector_bs.max()) + 1), dtype=bool)
    active[:, cluster_bs_idx] = ~np.array([p.off_flags for p in patterns], dtype=bool)
    return active[:, sector_bs]


def _schedule_rows(model: SystemModel, gain_db: np.ndarray, vq_mask: np.ndarray,
                   cluster_bs_idx: np.ndarray, patterns, alpha: float, gamma_d_db: float,
                   rate_threshold_bps: float):
    """Schedule every pattern of the list in one batched pass, one row each,
    over the pool users of the metric set in the dB draw ``gain_db``: returns
    whether each row's worst metric-set rate clears the threshold, and
    ``result(k, n)``, the HeuristicResult of row k after n patterns evaluated.
    """
    check_scheduling_point(alpha, gamma_d_db)
    vq = np.asarray(vq_mask, dtype=bool)
    if not vq.any():
        raise ValueError("empty metric set: no centre-cluster users in this realization")
    active = sector_masks(model.sector_bs, cluster_bs_idx, patterns)
    pool = draw_pool(gain_db, strongest_sectors(gain_db), vq, active, [model])
    users, rates = draw_rates([model], [cluster_members(model, active)], pool, active,
                              [gamma_d_db])
    sol = allocate(rates, alpha)
    lam = sol.lam[:, vq[users]]
    min_rate = lam.min(axis=1)
    feasible = min_rate >= rate_threshold_bps
    return feasible, lambda k, n: HeuristicResult(
        pattern=patterns[k], rates_bps=lam[k], min_rate_bps=float(min_rate[k]),
        feasible=bool(feasible[k]), solution=sol.row(k), patterns_evaluated=n, users=users)


def evaluate_pattern(model: SystemModel, gain_db: np.ndarray, vq_mask: np.ndarray,
                     cluster_bs_idx: np.ndarray, pattern: BssPattern, alpha: float,
                     gamma_d_db: float, rate_threshold_bps: float) -> HeuristicResult:
    """Re-associate, re-classify, schedule, and check the rate constraint.

    Feasible when every user of the metric set reaches the threshold.
    """
    if pattern.a2 != len(cluster_bs_idx):
        raise ValueError(f"pattern {pattern.describe()} has {pattern.a2} off-flags; the "
                         f"cluster has {len(cluster_bs_idx)} BSs")
    _, result = _schedule_rows(model, gain_db, vq_mask, cluster_bs_idx, [pattern], alpha,
                               gamma_d_db, rate_threshold_bps)
    return result(0, 1)


def heuristic_pick(feasible) -> int:
    """The heuristic's row of an energy-sorted list whose rows are checked in
    ``feasible``: the first feasible row, else the last, the all-on fallback."""
    return int(np.argmax(feasible)) if np.any(feasible) else len(feasible) - 1


def heuristic_select(model: SystemModel, gain_db: np.ndarray, vq_mask: np.ndarray,
                     cluster_bs_idx: np.ndarray, patterns: list[BssPattern], alpha: float,
                     gamma_d_db: float, rate_threshold_bps: float) -> HeuristicResult:
    """First feasible pattern of the energy-sorted list; all-on as fallback.

    If even the final pattern misses the threshold it is returned flagged
    infeasible (fail-safe toward coverage).  The whole list is scheduled in
    one pass and :func:`heuristic_pick` picks the row; ``patterns_evaluated``
    counts the patterns a walk down the list would have evaluated.  The
    traffic campaign runs the same stages on its draws without this wrapper.
    """
    validate_heuristic_list(patterns, len(cluster_bs_idx))
    feasible, result = _schedule_rows(model, gain_db, vq_mask, cluster_bs_idx, patterns,
                                      alpha, gamma_d_db, rate_threshold_bps)
    k = heuristic_pick(feasible)
    return result(k, k + 1)


def exhaustive_oracle(model: SystemModel, gain_db: np.ndarray, vq_mask: np.ndarray,
                      cluster_bs_idx: np.ndarray, alpha: float, gamma_d_db: float,
                      rate_threshold_bps: float) -> HeuristicResult:
    """Evaluate every admissible pattern; keep the feasible one switching the
    most BSs off (ties: lowest bit value).  Falls back to all-on, infeasible.
    The pick reads neither the list order nor the heuristic's walk.
    """
    n_bs = len(cluster_bs_idx)
    if n_bs > MAX_ORACLE_BS:
        raise ValueError(f"exhaustive enumeration limited to {MAX_ORACLE_BS} BSs")
    patterns = all_patterns(n_bs)
    feasible, result = _schedule_rows(model, gain_db, vq_mask, cluster_bs_idx, patterns,
                                      alpha, gamma_d_db, rate_threshold_bps)
    rows = np.flatnonzero(feasible)
    k = (min(rows, key=lambda k: (-patterns[k].a1, patterns[k].bit_value)) if rows.size
         else next(k for k, p in enumerate(patterns) if p.a1 == 0))
    return result(int(k), len(patterns))


def realization_stats(solution: SchedulingSolution, vq: np.ndarray, energy_pct,
                      multi_vc_ids, rate_thresholds_bps, alpha: float) -> np.ndarray:
    """Cluster metrics of scheduled realizations, in STAT_FIELDS order.

    ``solution`` holds R scheduling points (``allocate`` rows for one
    ``alpha``; a single point is one row) over some users of a draw, and
    ``vq`` marks the metric set among those users.  ``energy_pct`` and
    ``multi_vc_ids`` give each row's energy saving and multi-sector cluster
    ids (the rows of one configuration share one ids object), and
    ``rate_thresholds_bps`` lists T thresholds.  Returns an (R, T, 7) array.
    """
    vq = np.asarray(vq, dtype=bool)
    lam = np.atleast_2d(solution.lam)[:, vq]                 # (R, n)
    n_rows, n = lam.shape

    covered = lam > 0
    n_covered = np.count_nonzero(covered, axis=1)
    t_alpha = np.zeros(n_rows)
    rows = np.flatnonzero(n_covered)
    t_alpha[rows] = alpha_fair_throughputs(lam[rows][covered[rows]], n_covered[rows], alpha)

    theta = np.atleast_2d(solution.theta)
    theta_mean = np.zeros(n_rows)
    rows_of = {}    # one entry per distinct multi_vc_ids object
    for r, ids in enumerate(multi_vc_ids):
        rows_of.setdefault(id(ids), (ids, []))[1].append(r)
    for ids, at in rows_of.values():
        ids = np.asarray(ids, dtype=int)
        if ids.size:
            # A row gather and take() keep the rows C-contiguous, so each row
            # mean sums as the 1-D mean of one point does (a fancy index on
            # both axes would lay them out by column)
            theta_mean[at] = theta[at].take(ids, axis=1).mean(axis=1)

    thr = np.asarray(rate_thresholds_bps, dtype=float)
    coverage_sinr = np.atleast_2d(solution.coverage_sinr)[:, vq]
    values = {
        "t_alpha_bps": t_alpha[:, None],
        "sinr_coverage": sinr_coverage(coverage_sinr)[:, None],
        "rate_coverage": rate_coverage(lam[:, None], thr[:, None]),
        "energy_saving_pct": np.asarray(energy_pct, dtype=float)[:, None],
        "theta_mean": theta_mean[:, None],
        "n_users": n,
        "n_outage": (n - n_covered)[:, None],
    }
    out = np.empty((n_rows, thr.size, len(STAT_FIELDS)))
    for i, name in enumerate(STAT_FIELDS):
        out[..., i] = values[name]
    return out
