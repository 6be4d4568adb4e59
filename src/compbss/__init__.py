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
from .channel import (ChannelParams, McsTable, build_gain_matrix, path_loss_db,
                      per_subchannel_power_w, received_power_w)
from .clusters import CompConfiguration, comp_config_from_file, preset, resolve_comp_config
from .geometry import NetworkLayout, UserDrop, build_layout, drop_users
from .metrics import STAT_FIELDS, aggregate, rate_coverage, sinr_coverage
from .scheduler import (SchedulerParams, SchedulingSolution, SystemModel,
                        build_system_model, center_cluster_users, schedule)

__all__ = [
    "BssPattern", "ChannelParams", "CompConfiguration", "HeuristicResult", "McsTable",
    "NetworkLayout", "STAT_FIELDS", "SchedulerParams", "SchedulingSolution",
    "SystemModel", "UserDrop", "aggregate", "all_patterns", "build_gain_matrix",
    "build_layout", "build_system_model", "center_cluster_users", "comp_config_from_file",
    "default_pattern_list", "drop_users", "evaluate_pattern", "exhaustive_oracle",
    "heuristic_select", "path_loss_db", "per_subchannel_power_w", "preset",
    "rate_coverage", "received_power_w", "resolve_comp_config", "schedule",
    "sinr_coverage",
]
