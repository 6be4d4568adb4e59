"""Downlink cellular simulator for base-station switching with CoMP.

Builds the 49-site wraparound network and runs one realization as a chain
of stages: user drop and link budget, shadowing and received power,
max-SINR association under every sleep pattern, joint SINR per CoMP
configuration, CoMP flags and MCS link rates, and the closed-form
alpha-fair time fractions and CoMP share (``scheduler.allocate``).  The
stages hand plain arrays to each other: the gain matrix is a (U, S) array,
and the per-realization metrics and their summaries are arrays whose last
axis runs over ``STAT_FIELDS``.  On top of the stages it selects sleep
patterns under a rate constraint and drives Monte-Carlo trade-off campaigns
(``compbss --config ... --figure ...``).
"""

__version__ = "0.1.0"

from .bss import (BssPattern, HeuristicResult, all_patterns, default_pattern_list,
                  evaluate_pattern, exhaustive_oracle, heuristic_select)
from .channel import build_gain_matrix, path_loss_db, received_power_w
from .geometry import NetworkLayout, UserDrop, build_layout, drop_users
from .metrics import STAT_FIELDS, aggregate, rate_coverage, sinr_coverage
from .scheduler import (SchedulingSolution, SystemModel, build_system_model,
                        center_cluster_users, schedule, strongest_sectors)

__all__ = [
    "BssPattern", "HeuristicResult", "NetworkLayout", "STAT_FIELDS", "SchedulingSolution",
    "SystemModel", "UserDrop", "aggregate", "all_patterns", "build_gain_matrix",
    "build_layout", "build_system_model", "center_cluster_users", "default_pattern_list",
    "drop_users", "evaluate_pattern", "exhaustive_oracle", "heuristic_select",
    "path_loss_db", "rate_coverage", "received_power_w", "schedule", "sinr_coverage",
    "strongest_sectors",
]
