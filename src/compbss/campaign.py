"""Monte-Carlo campaign driver: sweeps, deterministic seeding, CSV export.

A campaign walks the sweep grid (density x CoMP configuration x BSS pattern
x CoMP threshold x fairness x rate threshold) over user drops and their
fading draws.  Each quantity is computed once, at the outermost loop level
it depends on:

- drop: user positions and the link budget (geometry, path loss, antenna);
- fading: the shadowed gains in dB, each user's strongest sector and the
  centre-cluster metric set V_q (a drop of several draws makes each next
  draw on a helper thread while the current one is scheduled, when a core is
  free for it); a draw whose metric set is empty is skipped (the one skip
  rule); then ``scheduler.draw_rates`` runs the draw's scheduling chain
  once: the pool users of the metric set, their received powers in watts
  (only these rows are converted), their max-SINR
  association under every sleep pattern (shared by every CoMP
  configuration), their joint SINR per (configuration, pattern), and the
  CoMP flags and link rates of every (pattern, configuration, gamma_d) row
  of a batched pass (the cluster-member tables are built once per
  campaign);
- alpha: ``allocate`` and ``realization_stats`` make one pass over all rows
  per alpha (so every power keeps a scalar exponent), the latter reducing
  every rate threshold too.

``scheduler.draw_rates`` states why scheduling the pool users alone keeps
every bit of the full field.  ``aggregate`` then summarises every sweep
point of a density in one row reduction over the realizations.  The pattern
selection of the traffic campaign (``bss.heuristic_select``) runs the same
chain.  Both campaigns draw their realizations through one prologue,
``_draws`` (drop, link budget, fading draw, strongest sectors and metric
set), and skip a draw by the same test.  Substreams are derived from the
master seed with counter-based spawn keys, (0, mu, drop) and (1, mu, drop,
fading) for the sweep and (2, mu, step) and (3, mu, step) for the traffic
profile, so results do not depend on execution order and identical (config,
seed) pairs reproduce the output byte for byte.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
import os
from collections import Counter
from contextlib import closing
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .bss import (default_pattern_list, heuristic_select, patterns_from_file, realization_stats,
                  sector_masks, validate_heuristic_list, validate_pattern_list)
from .channel import draw_gain_matrix, drop_link_budget
from .clusters import PRESET_NAMES
from .geometry import DropScratch, build_layout, drop_region_area_m2, drop_users
from .metrics import STAT_FIELDS, aggregate, alpha_fair_throughputs
from .scheduler import (SchedulerParams, allocate, alpha_range_error, build_system_model,
                        center_cluster_users, cluster_members, draw_rates, gamma_d_error,
                        strongest_sectors)


class ConfigError(ValueError):
    """Invalid campaign configuration (CLI exit code 1)."""


# Expected users per drop (density x drop-region area) that a config may ask
# for: about six times the densest shipped step (160 per km^2 at the 500 m
# ISD, some 1,700 users).  A drop's arrays grow with the count: one drop of
# the desk config at this count peaks near 80 MB (tracemalloc).
MAX_USERS_PER_DROP = 10_000


@dataclass
class CampaignConfig:
    """Sweep axes, realization counts, and output settings."""

    densities_per_km2: list = field(default_factory=lambda: [60.0])
    n_drops: int = 500
    n_fading: int = 50
    alphas: list = field(default_factory=lambda: [1.0])
    gamma_ds_db: list = field(default_factory=lambda: [-1.0])
    rate_thresholds_bps: list = field(default_factory=lambda: [0.2e6])
    comp_configs: list = field(default_factory=lambda: ["C3"])
    pattern_file: str | None = None
    master_seed: int = 1
    inter_site_distance_m: float = 500.0
    traffic_profile: list | None = None
    output: str = "results/campaign.csv"
    format: str = "csv"

    def __post_init__(self):
        sweeps = ("densities_per_km2", "alphas", "gamma_ds_db", "rate_thresholds_bps")
        profile = self.traffic_profile
        if profile is not None and (not isinstance(profile, (list, tuple)) or not profile):
            # an empty profile would silently run the sweep instead
            raise ConfigError(f"traffic_profile must be a non-empty list, got {profile!r}")
        for name in sweeps + ("comp_configs",):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(f"sweep list {name} must be a non-empty list, "
                                  f"got {values!r}")
            if self.traffic_profile and name != "densities_per_km2" and len(values) != 1:
                # the profile runs one sweep point; more values would be dropped
                raise ConfigError(f"the traffic-profile campaign takes one {name} value, "
                                  f"got {list(values)!r}")
        for name in sweeps + ("traffic_profile",):
            for value in getattr(self, name) or ():
                if not _is_finite_number(value):
                    raise ConfigError(f"{name} entry {value!r} is not a finite number"
                                      f"{_string_number_hint(value)}")
        for value in self.comp_configs:
            if value not in PRESET_NAMES:
                raise ConfigError(f"comp_configs entry {value!r} is not one of the "
                                  f"CoMP presets {PRESET_NAMES}")
        for value in self.rate_thresholds_bps:
            if value < 0:
                raise ConfigError(f"rate_thresholds_bps entry {value!r} must be >= 0")
        for name in sweeps + ("comp_configs",):
            values = getattr(self, name)
            # a repeat would fold two copies of its records into one row (configs by name)
            if len(set(values)) != len(values):
                raise ConfigError(f"sweep list {name} repeats a value: {values!r}")
        for name in ("n_drops", "n_fading", "master_seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name}={value!r} must be an integer")
        for name, values, error in (("alphas", self.alphas, alpha_range_error),
                                    ("gamma_ds_db", self.gamma_ds_db, gamma_d_error)):
            for value in values:
                problem = error(value)
                if problem:
                    raise ConfigError(f"{name} entry: {problem}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed={self.master_seed!r} must be >= 0")
        isd = self.inter_site_distance_m
        if not _is_finite_number(isd) or isd <= 0:
            raise ConfigError(f"inter_site_distance_m={isd!r} must be a finite number > 0")
        area_km2 = drop_region_area_m2(isd) / 1e6
        for name in ("densities_per_km2", "traffic_profile"):
            for value in getattr(self, name) or ():
                if value <= 0:
                    raise ConfigError(f"{name} entry {value!r} must be > 0")
                users = value * area_km2
                if users > MAX_USERS_PER_DROP:
                    raise ConfigError(
                        f"{name} entry {value!r} at inter_site_distance_m={isd!r} expects "
                        f"{users:.4g} users per drop, above the limit of "
                        f"{MAX_USERS_PER_DROP:,}")
        for name in ("output", "pattern_file"):
            value = getattr(self, name)
            if value is None and name != "output":
                continue    # no pattern file: the shipped list
            if not isinstance(value, str) or not value:
                raise ConfigError(f"{name}={value!r} must be a file path")
        seeded = {}
        for mu in self.densities_per_km2:
            other = seeded.setdefault(_mu_key(mu), mu)
            if other != mu:
                raise ConfigError(
                    f"densities_per_km2 values {other!r} and {mu!r} would share one "
                    f"random seed: densities must differ by at least 0.001 per km^2")
        if self.n_drops < 1 or self.n_fading < 1:
            raise ConfigError("n_drops and n_fading must be >= 1")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.format!r}")

    @classmethod
    def from_dict(cls, raw: dict, source: str = "<config>") -> "CampaignConfig":
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"{source}: unknown config keys {sorted(unknown)}")
        try:
            cfg = cls(**raw)
        except (TypeError, ConfigError) as exc:
            raise ConfigError(f"{source}: {exc}") from exc
        for key in ("densities_per_km2", "n_drops", "n_fading"):
            if cfg.traffic_profile and key in raw:
                raise ConfigError(f"{source}: {key} does not apply to a config with "
                                  f"traffic_profile: each step draws one drop of its density "
                                  f"and one fading draw")
        return cfg

    @classmethod
    def from_file(cls, path) -> "CampaignConfig":
        try:
            with open(path) as f:
                # libyaml's safe loader where installed: same resolver, same values
                raw = yaml.load(f, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader)) or {}
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: malformed config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: expected a mapping of config keys")
        return cls.from_dict(raw, source=str(path))


RESULT_COLUMNS = (
    "config", "pattern", "bs_off", "mu_per_km2", "gamma_d_db", "alpha",
    "rate_threshold_bps", "n_realizations",
    "t_alpha_mean_bps", "t_alpha_std_bps", "t_alpha_ci95_bps",
    "sinr_coverage_mean", "sinr_coverage_std", "sinr_coverage_ci95",
    "rate_coverage_mean", "rate_coverage_std", "rate_coverage_ci95",
    "theta_mean", "theta_std", "theta_ci95",
    "energy_saving_pct", "n_users_mean", "n_outage_mean",
)

TRAFFIC_COLUMNS = ("t", "mu_per_km2", "pattern", "bs_off", "a1", "energy_pct",
                   "t_alpha_bps", "min_rate_bps", "feasible")


def _seed_key(master_seed: int, *key) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))


def _mu_key(mu: float) -> int:
    return int(round(mu * 1000.0))


def _is_finite_number(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _string_number_hint(value) -> str:
    """A hint for a string that reads as a finite number, such as the ``1e2``
    that YAML 1.1 takes for a string."""
    try:
        finite = isinstance(value, str) and math.isfinite(float(value))
    except ValueError:
        finite = False
    return (": YAML read it as a string; write a float with a point and a signed "
            "exponent, such as 1.0e+2" if finite else "")


@dataclass(eq=False)
class _Context:
    """Derived immutable campaign state, rebuilt once per worker process, and
    the drop stages' scratch, which the first drop makes."""

    cfg: CampaignConfig
    layout: object
    patterns: list
    active_sectors: np.ndarray  # (P, S) bool sector on/off mask of each pattern
    models: dict            # config name -> SystemModel
    members: list           # per config: (P, n_multi, k) cluster_members tables
    center_sector_idx: np.ndarray
    cluster_bs_idx: np.ndarray
    scratch: DropScratch | None = None
    draw_helper: bool = True    # a drop of several draws makes each next one on a thread

    def drop_scratch(self) -> DropScratch:
        """The scratch of every drop of the campaign, sized at its first drop
        for the largest traffic-profile step or, without a profile, density;
        a drop's arrays in it stay valid until the next drop."""
        if self.scratch is None:
            densities = self.cfg.traffic_profile or self.cfg.densities_per_km2
            self.scratch = DropScratch.for_density(self.layout, max(densities))
        return self.scratch


def build_context(cfg: CampaignConfig) -> _Context:
    layout = build_layout(cfg.inter_site_distance_m)
    cluster_bs_idx = layout.center_cluster_bs_ids - 1
    try:
        patterns = (patterns_from_file(cfg.pattern_file) if cfg.pattern_file
                    else default_pattern_list())
        check = validate_heuristic_list if cfg.traffic_profile else validate_pattern_list
        check(patterns, len(cluster_bs_idx))
    except (OSError, ValueError, TypeError, csv.Error) as exc:
        raise ConfigError(f"pattern_file {cfg.pattern_file!r}: {exc}") from exc
    models = {name: build_system_model(layout, name) for name in cfg.comp_configs}
    center_sector_idx = layout.center_cluster_sector_ids - 1
    active_sectors = sector_masks(layout.sector_bs, cluster_bs_idx, patterns)
    members = [cluster_members(model, active_sectors) for model in models.values()]
    return _Context(cfg=cfg, layout=layout, patterns=patterns, active_sectors=active_sectors,
                    models=models, members=members, center_sector_idx=center_sector_idx,
                    cluster_bs_idx=cluster_bs_idx)


def _draws(ctx: _Context, mu: float, drop_key, draw_keys):
    """The realization prologue of both campaigns.

    Drops the users of density ``mu`` into the context's scratch and builds
    their link budget, both under the seed of ``drop_key``, then yields
    ``(gain_db, strongest, vq)`` for the fading draw of each of
    ``draw_keys``: the gains in dB, each user's strongest sector and the
    metric set V_q.  Each key is the spawn key of a substream of the master
    seed.  A draw stays valid until the next one; the caller skips a draw
    whose ``vq`` is empty (an empty drop skips every draw).

    With two or more keys and the context's ``draw_helper``, one helper
    thread makes draw i + 1, in the other draw slot of the scratch, while the
    caller schedules draw i: numpy fills the standard normal draw without
    the interpreter lock.  The helper runs only the seeding and the draw,
    which ``bench/spans.py`` does not wrap.  Leaving the executor's block,
    also when the generator is closed or the caller raised, waits for a
    pending draw, so no thread writes into the scratch after it.  Otherwise
    each draw is made on the caller's thread.
    """
    seed = ctx.cfg.master_seed
    scratch = ctx.drop_scratch()
    drop = drop_users(ctx.layout, mu, _seed_key(seed, *drop_key), scratch)
    budget_db = drop_link_budget(ctx.layout, drop, scratch)
    model = next(iter(ctx.models.values()))    # every configuration has the same sectors

    def draw(i):
        return draw_gain_matrix(budget_db, _seed_key(seed, *draw_keys[i]), scratch, i % 2)

    def with_metric_set(gain_db):
        strongest = strongest_sectors(gain_db)
        return gain_db, strongest, center_cluster_users(model, strongest, ctx.center_sector_idx)

    if len(draw_keys) == 1 or not ctx.draw_helper:
        for i in range(len(draw_keys)):
            yield with_metric_set(draw(i))
        return
    # only a drop of several draws pays for importing the thread pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as helper:
        gain_db = draw(0)
        for i in range(1, len(draw_keys)):
            pending = helper.submit(draw, i)
            yield with_metric_set(gain_db)
            gain_db = pending.result()
        yield with_metric_set(gain_db)


def _drop_records(ctx: _Context, mu: float, d: int):
    """Metrics of every sweep point of one user drop.

    Returns (values, n_skipped, n_scheduled, n_dropped).  ``values`` is an
    (n, C, P, G, A, T, 7) array in output axis order: the STAT_FIELDS of each
    (configuration, pattern, gamma_d, alpha, rate threshold) point for each
    of the n non-skipped fading draws, in fading order (an empty drop has no
    metric set and skips every draw).  Within a fading draw, every (pattern,
    configuration, gamma_d) point is one row of a batched pass over the pool
    users, one pass per alpha.  n_scheduled and n_dropped count the pool
    users and the dropped users, each summed over the non-skipped draws.
    """
    cfg = ctx.cfg
    models = list(ctx.models.values())
    # The rows of a pass run over pattern, configuration and gamma_d
    # (draw_rates); realization_stats adds the rate thresholds.
    rows = [(pattern, model) for pattern in ctx.patterns for model in models
            for _ in cfg.gamma_ds_db]
    row_energy = [pattern.energy_saving_pct for pattern, _ in rows]
    row_multi_ids = [model.multi_vc_ids for _, model in rows]
    points = (len(cfg.alphas), len(ctx.patterns), len(models), len(cfg.gamma_ds_db),
              len(cfg.rate_thresholds_bps), len(STAT_FIELDS))
    blocks = []
    skipped = n_scheduled = n_dropped = 0
    key = (_mu_key(mu), d)
    # closed here, not when a traceback lets go of it: an error ends the helper now
    with closing(_draws(ctx, mu, (0,) + key,
                        [(1,) + key + (f,) for f in range(cfg.n_fading)])) as draws:
        for gain_db, strongest, vq in draws:
            if not vq.any():
                skipped += 1
                continue
            users, rates = draw_rates(models, ctx.members, gain_db, strongest, vq,
                                      ctx.active_sectors, cfg.gamma_ds_db)
            n_scheduled += users.size
            n_dropped += gain_db.shape[0]
            for alpha in cfg.alphas:
                blocks.append(realization_stats(allocate(rates, alpha), vq[users], row_energy,
                                                row_multi_ids, cfg.rate_thresholds_bps, alpha))
    # (n, A, P, C, G, T, 7) -> (n, C, P, G, A, T, 7), the output axis order
    values = np.reshape(blocks, (-1,) + points).transpose(0, 3, 2, 4, 1, 5, 6)
    return values, skipped, n_scheduled, n_dropped


def _worker(args):
    cfg_json, draw_helper, mu, d = args
    ctx = _worker_cache.get(cfg_json)
    if ctx is None:
        ctx = build_context(CampaignConfig.from_dict(json.loads(cfg_json)))
        _worker_cache[cfg_json] = ctx
    ctx.draw_helper = draw_helper
    return _drop_records(ctx, mu, d)


_worker_cache: dict = {}


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


@dataclass(eq=False)
class CampaignResult:
    rows: list          # list of dicts, one per sweep point
    manifest: dict
    notes: list = field(default_factory=list)   # lines for stderr, never in the rows


def run_campaign(cfg: CampaignConfig, jobs: int = 1) -> CampaignResult:
    """Run the full sweep and aggregate per-realization metrics.

    Workers process whole user drops; the fold into summaries is serialized
    and ordered, so the result is independent of the worker count.
    """
    ctx = build_context(cfg)
    # A draw helper gains only on a core that no campaign process keeps busy:
    # at --jobs 2 on two cores the helpers made the campaign 5-6 % slower.
    ctx.draw_helper = jobs < _usable_cores()
    tasks = [(mu, d) for mu in cfg.densities_per_km2 for d in range(cfg.n_drops)]
    if jobs > 1:
        # only a parallel run pays for importing the process pool
        from concurrent.futures import ProcessPoolExecutor

        cfg_json = json.dumps(asdict(cfg), sort_keys=True)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_worker, [(cfg_json, ctx.draw_helper, mu, d)
                                              for mu, d in tasks]))
    else:
        results = [_drop_records(ctx, mu, d) for mu, d in tasks]
    n_skipped, n_scheduled, n_dropped = map(sum, zip(*(res[1:] for res in results)))

    # One reduction per density summarises all of its sweep points.
    summaries = {}
    skipped_of = dict.fromkeys(cfg.densities_per_km2, 0)
    for (mu, _), res in zip(tasks, results):
        skipped_of[mu] += res[1]
    for mu in cfg.densities_per_km2:
        values = np.concatenate([res[0] for (m, _), res in zip(tasks, results) if m == mu])
        if values.shape[0]:
            summaries[mu] = aggregate(np.moveaxis(values, 0, -1)), values.shape[0]
    empty = {mu: n for mu, n in skipped_of.items() if mu not in summaries}
    if not summaries:
        raise _all_skipped("densities_per_km2", empty)

    rows = []
    for (c, config_name), (p, pattern), mu, (g, gamma_d), (a, alpha), (t, r_thr) in (
            itertools.product(enumerate(ctx.models), enumerate(ctx.patterns),
                              cfg.densities_per_km2, enumerate(cfg.gamma_ds_db),
                              enumerate(cfg.alphas), enumerate(cfg.rate_thresholds_bps))):
        if mu not in summaries:
            continue
        summ, n = summaries[mu]
        row = {"config": config_name, "pattern": pattern.label,
               "bs_off": "+".join(map(str, pattern.off_bs_ids)), "mu_per_km2": mu,
               "gamma_d_db": gamma_d, "alpha": alpha, "rate_threshold_bps": r_thr,
               "n_realizations": n}
        point = summ[:, c, p, g, a, t]      # (mean / std / ci95, STAT_FIELDS)
        for i, name in enumerate(STAT_FIELDS):
            for part, column in enumerate(_RESULT_COLUMNS_OF[name]):
                row[column] = float(point[part, i])
        rows.append(row)
    notes = [f"no rows for {_skip_listing('densities_per_km2', empty)}: no draw had a "
             f"centre-cluster user"] if empty else []
    return CampaignResult(rows=rows, notes=notes, manifest=_manifest(
        cfg, rows, n_skipped,
        n_realizations_skipped_per_density={str(mu): n for mu, n in skipped_of.items()},
        scheduled_user_frac=_scheduled_user_frac(n_scheduled, n_dropped)))


# The result columns of each metric: its mean, std and ci95, or its mean alone
_RESULT_COLUMNS_OF = {
    "t_alpha_bps": ("t_alpha_mean_bps", "t_alpha_std_bps", "t_alpha_ci95_bps"),
    "sinr_coverage": ("sinr_coverage_mean", "sinr_coverage_std", "sinr_coverage_ci95"),
    "rate_coverage": ("rate_coverage_mean", "rate_coverage_std", "rate_coverage_ci95"),
    "energy_saving_pct": ("energy_saving_pct",),
    "theta_mean": ("theta_mean", "theta_std", "theta_ci95"),
    "n_users": ("n_users_mean",),
    "n_outage": ("n_outage_mean",),
}


def _manifest(cfg: CampaignConfig, rows: list, n_skipped: int, **extra) -> dict:
    config = asdict(cfg)
    if cfg.traffic_profile:
        # each profile step draws one drop of its density and one fading draw
        del config["densities_per_km2"], config["n_drops"], config["n_fading"]
    return {
        "config": config,
        "master_seed": cfg.master_seed,
        "versions": {"compbss": __version__, "numpy": np.__version__},
        "n_rows": len(rows),
        "n_realizations_skipped": n_skipped,
        **extra,
    }


def _skip_listing(key: str, counts: dict) -> str:
    """Each density of ``key`` with its ``counts[mu]`` realizations, all of
    them skipped."""
    return f"{key}: " + ", ".join(f"{mu!r} skipped {n} of {n}" for mu, n in counts.items())


def _all_skipped(key: str, counts: dict) -> RuntimeError:
    """The error of a run that skipped every realization; ``counts`` maps each
    density of ``key`` to its number of realizations."""
    return RuntimeError(f"every realization was skipped for want of a centre-cluster "
                        f"user ({_skip_listing(key, counts)})")


def _scheduled_user_frac(n_scheduled: int, n_dropped: int):
    """Pool users over dropped users, summed over the scheduled realizations
    (None when none was scheduled)."""
    return n_scheduled / n_dropped if n_dropped else None


def run_traffic_profile(cfg: CampaignConfig) -> CampaignResult:
    """Per-time-step heuristic selection over a density profile (fig11)."""
    if not cfg.traffic_profile:
        raise ConfigError("traffic_profile is required for the fig11 campaign")
    ctx = build_context(cfg)
    alpha, r_thr = cfg.alphas[0], cfg.rate_thresholds_bps[0]
    params = SchedulerParams(alpha=alpha, gamma_d_db=cfg.gamma_ds_db[0])
    model = ctx.models[cfg.comp_configs[0]]
    rows = []
    n_skipped = 0   # steps whose metric set is empty
    n_evaluated = {}    # patterns a walk down the list evaluates -> steps
    n_scheduled = n_dropped = 0
    for t, mu in enumerate(map(float, cfg.traffic_profile)):
        key = (_mu_key(mu), t)
        gain_db, strongest, vq = next(_draws(ctx, mu, (2,) + key, [(3,) + key]))
        if not vq.any():
            n_skipped += 1
            continue
        res = heuristic_select(model, gain_db, vq, ctx.cluster_bs_idx, ctx.patterns,
                               params, r_thr, strongest=strongest,
                               active_sectors=ctx.active_sectors, members=ctx.members[0])
        # realization_stats' t_alpha of the picked row, without its other fields
        covered = res.rates_bps[res.rates_bps > 0]
        t_alpha = alpha_fair_throughputs(covered, [covered.size], alpha)[0] if covered.size else 0
        n_scheduled += res.users.size
        n_dropped += gain_db.shape[0]
        n_evaluated[res.patterns_evaluated] = n_evaluated.get(res.patterns_evaluated, 0) + 1
        rows.append({
            "t": t, "mu_per_km2": mu, "pattern": res.pattern.label,
            "bs_off": "+".join(map(str, res.pattern.off_bs_ids)),
            "a1": res.pattern.a1, "energy_pct": res.pattern.energy_saving_pct,
            "t_alpha_bps": float(t_alpha),
            "min_rate_bps": res.min_rate_bps, "feasible": int(res.feasible),
        })
    if not rows:
        raise _all_skipped("traffic_profile", Counter(cfg.traffic_profile))
    manifest = _manifest(
        cfg, rows, n_skipped, mode="traffic_profile",
        patterns_evaluated={str(n): n_evaluated[n] for n in sorted(n_evaluated)},
        n_infeasible=sum(not row["feasible"] for row in rows),
        scheduled_user_frac=_scheduled_user_frac(n_scheduled, n_dropped))
    return CampaignResult(rows=rows, manifest=manifest)


FIGURE_LAYOUTS = {
    "fig4": ("gamma_d_db", "alpha", "theta_star_mean"),
    "fig5": ("gamma_d_db", "pattern", "config", "t_alpha_bps"),
    "fig6": ("config", "pattern", "coverage", "t_alpha_bps", "energy_pct"),
    "fig7": ("config", "pattern", "coverage", "t_alpha_bps", "energy_pct"),
    "fig8": ("config", "pattern", "coverage", "t_alpha_bps", "energy_pct"),
    "fig9": ("rate_threshold_bps", "pattern", "rate_coverage"),
    "fig10": ("rate_threshold_bps", "alpha", "rate_coverage"),
    "fig11": ("t", "a1", "energy_pct", "t_alpha_bps"),
}

_FIGURE_SOURCES = {
    "theta_star_mean": "theta_mean",
    "t_alpha_bps": "t_alpha_mean_bps",
    "coverage": "sinr_coverage_mean",
    "rate_coverage": "rate_coverage_mean",
    "energy_pct": "energy_saving_pct",
}


class MissingAxisError(ValueError):
    """A figure request lacks a required sweep axis."""


def emit_figure_data(rows: list, figure: str):
    """Project campaign rows onto one figure's column layout.

    Collapsed sweep axes must be constant-valued; otherwise the request is
    ambiguous and an error names the offending axis.
    """
    if figure not in FIGURE_LAYOUTS:
        raise MissingAxisError(
            f"unknown figure tag {figure!r} (expected {sorted(FIGURE_LAYOUTS)})")
    columns = FIGURE_LAYOUTS[figure]
    if figure == "fig11":
        if not rows or "t" not in rows[0]:
            raise MissingAxisError(
                "figure fig11 requires axis 't' (run the traffic-profile campaign)")
        return columns, [{c: r[c] for c in columns} for r in rows]
    if not rows:
        raise MissingAxisError(f"figure {figure} has no input rows")
    for c in columns:
        src = _FIGURE_SOURCES.get(c, c)
        if src not in rows[0]:
            raise MissingAxisError(f"figure {figure} requires axis {src!r}")
    if figure == "fig4":
        # the joint-transmission share is a benchmark (all-on) quantity
        rows = [r for r in rows if r["energy_saving_pct"] == 0.0]
        if not rows:
            raise MissingAxisError(
                "figure fig4 requires the all-on pattern in the results")

    key_cols = [c for c in columns if c not in _FIGURE_SOURCES]
    seen: dict[tuple, dict] = {}
    for r in rows:
        key = tuple(r[_FIGURE_SOURCES.get(c, c)] for c in key_cols)
        rec = {c: r[_FIGURE_SOURCES.get(c, c)] for c in columns}
        if key in seen:
            for c in columns:
                if seen[key][c] != rec[c]:
                    collapsed = [ax for ax in ("config", "pattern", "mu_per_km2",
                                               "gamma_d_db", "alpha",
                                               "rate_threshold_bps")
                                 if ax not in key_cols]
                    raise MissingAxisError(
                        f"figure {figure} is ambiguous: rows differ in {c!r} for the "
                        f"same {key_cols}; restrict the collapsed axes {collapsed}")
        else:
            seen[key] = rec
    return columns, list(seen.values())


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_rows_csv(rows: list, columns, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(columns)
        for r in rows:
            w.writerow([_fmt(r[c]) for c in columns])


def _write_json(obj, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


# bench/spans.py wraps each writer by name, so the writers call none of the others
def write_rows_json(rows: list, path) -> None:
    _write_json(rows, path)


def write_manifest(manifest: dict, path) -> None:
    _write_json(manifest, path)
