"""Monte-Carlo campaign driver: sweeps, deterministic seeding, CSV export.

A campaign walks the sweep grid (density x CoMP configuration x BSS pattern
x CoMP threshold x fairness x rate threshold) over user drops and their
fading draws.  Each quantity is computed once, at the outermost loop level
it depends on:

- drop: user positions and the link budget (geometry, path loss, antenna);
- fading: the shadowed gains in dB, each user's strongest sector, the
  centre-cluster metric set V_q and ``scheduler.draw_pool``, the pool users
  of the metric set and their received powers in watts (only these rows are
  converted); the draws are made on a helper thread while the caller
  schedules, when a core is free for it; a draw whose metric set is empty
  is skipped (the one skip rule); then ``scheduler.draw_rates`` runs the
  draw's scheduling chain once: the pool users' max-SINR association under
  every sleep pattern (shared by every CoMP configuration), their joint
  SINR per (configuration, pattern), and the CoMP flags and link rates of
  every (pattern, configuration, gamma_d) row of a batched pass (the
  cluster-member tables are built once per campaign);
- alpha: ``allocate`` and ``realization_stats`` make one pass over all rows
  per alpha (so every power keeps a scalar exponent), the latter reducing
  every rate threshold too.

``scheduler.draw_rates`` states why scheduling the pool users alone keeps
every bit of the full field.  ``aggregate`` then summarises every sweep
point of a density in one row reduction over the realizations.  The pattern
selection of the traffic campaign (``bss.heuristic_select``) runs the same
chain.  Both campaigns draw their realizations through one stream,
``_realizations`` (drop, link budget, fading draw, strongest sectors,
metric set and pool), over all the sweep's (mu, drop) tasks (a ``--jobs``
worker streams one task at a time) or the profile's steps, and skip a draw
by the same test.  Substreams are derived from the master seed with
counter-based spawn keys, (0, mu, drop) and (1, mu, drop, fading) for the
sweep and (2, mu, step) and (3, mu, step) for the traffic profile, so
results do not depend on execution order and identical (config,
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
from contextlib import closing, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .bss import (default_pattern_list, heuristic_select, patterns_from_file, realization_stats,
                  sector_masks, validate_heuristic_list, validate_pattern_list)
from .channel import _shadowed, _standard_normal, draw_gain_matrix, drop_link_budget
from .clusters import PRESET_NAMES
from .geometry import DropScratch, build_layout, drop_count, drop_region_area_m2, drop_users
from .metrics import STAT_FIELDS, aggregate, alpha_fair_throughputs
from .scheduler import (SchedulerParams, allocate, alpha_range_error, build_system_model,
                        center_cluster_users, cluster_members, draw_pool, draw_rates,
                        gamma_d_error, strongest_sectors)


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
        pattern_file = raw.get("pattern_file")
        if isinstance(pattern_file, str) and pattern_file:  # anything else fails the checks
            # relative to the config file; the join keeps an absolute path
            raw["pattern_file"] = os.path.join(os.path.dirname(path), pattern_file)
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


@dataclass(frozen=True, eq=False)
class _Context:
    """Derived campaign state, built once per process by ``build_context``."""

    cfg: CampaignConfig
    layout: object
    patterns: list
    active_sectors: np.ndarray  # (P, S) bool sector on/off mask of each pattern
    models: dict            # config name -> SystemModel
    members: list           # per config: (P, n_multi, k) cluster_members tables
    center_sector_idx: np.ndarray
    cluster_bs_idx: np.ndarray
    draw_helper: bool       # the stream makes its draws on a helper thread
    scratch: DropScratch    # every drop's; a drop's arrays stay valid until the next


def build_context(cfg: CampaignConfig, jobs: int = 1) -> _Context:
    """The state of a process that runs ``cfg`` as one of ``jobs`` campaign
    processes."""
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
                    cluster_bs_idx=cluster_bs_idx,
                    # A draw helper gains only on a core that no campaign process
                    # keeps busy: at --jobs 2 on two cores the helpers made the
                    # campaign 5-6 % slower.
                    draw_helper=jobs < _usable_cores(),
                    # sized for the largest traffic-profile step or, without a
                    # profile, density; np.empty touches no page before a drop
                    scratch=DropScratch.for_density(
                        layout, max(cfg.traffic_profile or cfg.densities_per_km2)))


class _Done:
    """A call made at once on the caller's thread: the stand-in for the
    helper's future when no core is free for a helper."""

    def __init__(self, fn, *args):
        self._result = fn(*args)

    def result(self):
        return self._result


def _realizations(ctx: _Context, plan, models):
    """The realization stream of both campaigns, over a process's whole run.

    ``plan`` gives ``(mu, drop_key, draw_keys)`` for each drop in turn.  The
    stream drops the users of density ``mu`` into the context's scratch and
    builds their link budget, both under the seed of ``drop_key``, then
    yields ``(strongest, vq, pool)`` for the fading draw of each of
    ``draw_keys``: each user's strongest sector, the metric set V_q and the
    draw's ``draw_pool`` for ``models`` under the context's masks, or None
    for an empty metric set, which the caller skips (an empty drop skips
    every draw).  Each key is the spawn key of a substream of the master
    seed.  The dB draw itself is not yielded: it lives in the scratch, which
    the next draw or drop may overwrite as soon as the pool is made.

    Each draw is handed out before the draw before it is read.  Draw i of a
    drop goes to the scratch's first-draw buffer when i is even and to the
    drop buffer's draw table when i is odd, so a draw never overwrites the
    one being read.  Draw 0 is split: its standard normal draw needs only
    the drop's user count (``drop_count``), so it is handed out as soon as
    the last draw of the drop before is read, before this drop is built, and
    the caller then subtracts it from the budget.  With the context's
    ``draw_helper``, one helper thread makes the handed-out draws while the
    caller schedules and builds (numpy fills the standard normal draw
    without the interpreter lock); without it, ``_Done`` makes each one at
    once on the caller's thread.  The helper runs only the seeding and the
    draws, which ``bench/spans.py`` does not wrap.  Leaving the executor's
    block, also when the generator is closed or the caller raised, waits for
    a pending draw, so no thread writes into the scratch after it.
    """
    seed = ctx.cfg.master_seed
    scratch = ctx.scratch

    def normals(key, out):
        return _standard_normal(_seed_key(seed, *key), out)

    def draw(budget_db, key, out):
        """The draw of ``key`` in ``out``, or in the drop buffer's draw table
        when ``out`` is None."""
        if out is None:
            return draw_gain_matrix(budget_db, _seed_key(seed, *key), scratch)
        return _shadowed(budget_db, normals(key, out))

    def first(step):
        """Hand out the standard normal draw of the first draw of ``step``'s
        drop, in the first-draw buffer."""
        mu, drop_key, draw_keys = step
        n_users = drop_count(ctx.layout, mu, _seed_key(seed, *drop_key))
        return submit(normals, draw_keys[0],
                      scratch.first_draw((n_users, ctx.layout.n_sectors)))

    def read(gain_db):
        strongest = strongest_sectors(gain_db)
        # every configuration has the same sectors
        vq = center_cluster_users(models[0], strongest, ctx.center_sector_idx)
        if not vq.any():
            return strongest, vq, None
        return strongest, vq, draw_pool(gain_db, strongest, vq, ctx.active_sectors, models)

    if ctx.draw_helper:
        # only a stream with a free core pays for importing the thread pool
        from concurrent.futures import ThreadPoolExecutor

        helper = ThreadPoolExecutor(1)
        submit = helper.submit
    else:
        helper, submit = nullcontext(), _Done
    with helper:
        steps = iter(plan)
        step = next(steps, None)
        pending = None if step is None else first(step)
        while step is not None:
            mu, drop_key, draw_keys = step
            drop = drop_users(ctx.layout, mu, _seed_key(seed, *drop_key), scratch)
            budget_db = drop_link_budget(ctx.layout, drop, scratch)
            gain_db = _shadowed(budget_db, pending.result())
            step = next(steps, None)
            for i, key in enumerate(draw_keys[1:], 1):
                out = None if i % 2 else scratch.first_draw(budget_db.shape)
                pending = submit(draw, budget_db, key, out)
                yield read(gain_db)
                gain_db = pending.result()
            # read first: the last draw may lie in the first-draw buffer
            done = read(gain_db)
            pending = None if step is None else first(step)
            yield done


def _drop_records(ctx: _Context, tasks):
    """Metrics of every sweep point of each (mu, d) user drop of ``tasks``,
    drawn in order through one realization stream.

    Returns one (values, n_skipped, n_scheduled, n_dropped) per drop.
    ``values`` is an (n, C, P, G, A, T, 7) array in output axis order: the
    STAT_FIELDS of each (configuration, pattern, gamma_d, alpha, rate
    threshold) point for each of the n non-skipped fading draws, in fading
    order (an empty drop has no metric set and skips every draw).  Within a
    fading draw, every (pattern, configuration, gamma_d) point is one row of
    a batched pass over the pool users, one pass per alpha.  n_scheduled
    and n_dropped count the pool users and the dropped users, each summed
    over the non-skipped draws.
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
    plan = ((mu, (0, _mu_key(mu), d), [(1, _mu_key(mu), d, f) for f in range(cfg.n_fading)])
            for mu, d in tasks)
    records = []
    # closed here, not when a traceback lets go of it: an error ends the helper now
    with closing(_realizations(ctx, plan, models)) as draws:
        for _ in tasks:
            blocks = []
            skipped = n_scheduled = n_dropped = 0
            for strongest, vq, pool in itertools.islice(draws, cfg.n_fading):
                if pool is None:
                    skipped += 1
                    continue
                users, rates = draw_rates(models, ctx.members, pool, ctx.active_sectors,
                                          cfg.gamma_ds_db)
                n_scheduled += users.size
                n_dropped += strongest.size
                for alpha in cfg.alphas:
                    blocks.append(realization_stats(allocate(rates, alpha), vq[users],
                                                    row_energy, row_multi_ids,
                                                    cfg.rate_thresholds_bps, alpha))
            # (n, A, P, C, G, T, 7) -> (n, C, P, G, A, T, 7), the output axis order
            values = np.reshape(blocks, (-1,) + points).transpose(0, 3, 2, 4, 1, 5, 6)
            records.append((values, skipped, n_scheduled, n_dropped))
    return records


def _worker(args):
    cfg_json, jobs, mu, d = args
    ctx = _worker_cache.get((cfg_json, jobs))
    if ctx is None:
        ctx = build_context(CampaignConfig.from_dict(json.loads(cfg_json)), jobs)
        _worker_cache[cfg_json, jobs] = ctx
    return _drop_records(ctx, [(mu, d)])[0]


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
    ctx = build_context(cfg, jobs)
    tasks = [(mu, d) for mu in cfg.densities_per_km2 for d in range(cfg.n_drops)]
    if jobs > 1:
        # only a parallel run pays for importing the process pool
        from concurrent.futures import ProcessPoolExecutor

        cfg_json = json.dumps(asdict(cfg), sort_keys=True)
        # the pool forks all its workers at the first task, so no more than the tasks
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_worker, [(cfg_json, jobs, mu, d) for mu, d in tasks]))
    else:
        results = _drop_records(ctx, tasks)
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
        ctx, jobs, rows, n_skipped,
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


def _manifest(ctx: _Context, jobs: int, rows: list, n_skipped: int, **extra) -> dict:
    import platform     # here, so that set-up does not pay for it

    cfg = ctx.cfg
    config = asdict(cfg)
    if cfg.traffic_profile:
        # each profile step draws one drop of its density and one fading draw
        del config["densities_per_km2"], config["n_drops"], config["n_fading"]
    return {
        "config": config,
        "master_seed": cfg.master_seed,
        "versions": {"compbss": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "platform": platform.platform(),
        "jobs": jobs,
        "draw_helper": ctx.draw_helper,
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
    steps = list(enumerate(map(float, cfg.traffic_profile)))
    plan = ((mu, (2, _mu_key(mu), t), [(3, _mu_key(mu), t)]) for t, mu in steps)
    with closing(_realizations(ctx, plan, [model])) as draws:
        for (t, mu), (strongest, vq, pool) in zip(steps, draws):
            if pool is None:
                n_skipped += 1
                continue
            res = heuristic_select(model, None, vq, ctx.cluster_bs_idx, ctx.patterns,
                                   params, r_thr, active_sectors=ctx.active_sectors,
                                   members=ctx.members[0], pool=pool)
            # realization_stats' t_alpha of the picked row, without its other fields
            covered = res.rates_bps[res.rates_bps > 0]
            t_alpha = (alpha_fair_throughputs(covered, [covered.size], alpha)[0]
                       if covered.size else 0)
            n_scheduled += res.users.size
            n_dropped += strongest.size
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
        ctx, 1, rows, n_skipped, mode="traffic_profile",
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
